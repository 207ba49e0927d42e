"""Lock-step vectorized session engine.

Runs K independent Centroid Learning tuning sessions one *step* at a time
in struct-of-arrays form: per step there is **one**
``true_time_batch``/``estimate_batch`` call per distinct (plan, cost
parameters, pool) group covering every session, one batched ridge-pipeline
fit for every session whose window model is stale, one batched guardrail
trend solve, and one vectorized centroid update — instead of K of each.

**Bit-identity contract.**  The engine is not an approximation: every
floating-point operation is arranged so that session *k*'s observation
trail, telemetry counters, guardrail decisions, and final optimizer state
are bitwise identical to running ``SessionSpec.to_session().run(n)``
sequentially.  The ingredients:

* per-session RNG streams — each session draws candidates, cold-start
  choices and observation noise from its own optimizer/simulator
  generators, in the same order as the sequential loop;
* the batched model fits in :mod:`repro.ml.batched`, whose per-slice
  arithmetic matches the scalar ``StandardScaler → PolynomialFeatures →
  RidgeRegression`` pipeline and the guardrail's :func:`ols_predict`;
* the per-config ``data_scales`` path of
  :meth:`repro.sparksim.executor.SparkSimulator.true_time_batch`, bitwise
  equal to scalar estimates on per-session scaled plans;
* :meth:`SparkSimulator.observe_true` (and its
  :class:`~repro.faults.injectors.FaultySimulator` wrapper), which applies
  exactly the per-run noise/fault tail of ``run()`` to precomputed true
  times;
* core's own Alg.-1 arithmetic — ``feature_rows``, ``gradient_rows``,
  ``sign_gradient`` and ``probe_points`` broadcast over a session axis.

Struct-of-arrays state exists only where the engine batches: candidate
draws and scoring, the cost kernel, window-model fits, the guardrail trend
solve and the centroid update — work whose K scalar calls would cost more
than the step.  The rest runs on each session's own objects: a guarded
session's own :class:`~repro.core.guardrail.Guardrail` judges the batched
trend (:meth:`~repro.core.guardrail.Guardrail.judge`) or ticks its cooldown
(:meth:`~repro.core.guardrail.Guardrail.hold`); an armed session calls its
own :class:`~repro.core.switch.TaskSwitchDetector`, re-anchors through
:class:`CentroidLearning`'s warm-start and counter helpers and its real
guardrail's ``reset()``; and a gated session's candidates are masked by its
own :meth:`~repro.core.switch.SafeExplorationGate.safe_mask` (``-inf`` at a
rejected candidate is argmax-equivalent to the scalar gate's subset
selection).  Sessions re-anchoring at different steps keep ragged
window/guardrail epochs (``_win_start``/``_gr_start``) that the suggest,
guardrail and centroid phases group by length.  So guardrails and detectors
may cover some sessions only, each with its own parameters; gate bounds may
differ; and spaces of any dimension run (beyond 12 knobs the sign search is
core's coordinate-wise one).

``repro.verify.diff.diff_lockstep_sequential`` pins the contract end to
end on fig15-style populations; Hypothesis properties in
``tests/verify/test_properties.py`` pin the K=1 reduction and permutation
invariance.  Populations outside the batched envelope (non-CL optimizers,
robust guardrails, custom selectors, ...) raise
:class:`LockstepCompatibilityError` — callers fall back to the sequential
path rather than silently getting different numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence

import numpy as np

from .. import telemetry
from ..core.centroid import CentroidLearning, batch_profile_for
from ..core.find_best import FindBestMode
from ..core.gradient import gradient_rows, probe_points, sign_gradient
from ..core.guardrail import Guardrail
from ..core.observation import Observation, ObservationWindow, feature_rows
from ..core.selectors import SurrogateSelector
from ..core.session import IterationRecord, TuningSession, TuningTrace
from ..core.switch import SafeExplorationGate, TaskSwitchDetector
from ..ml.acquisition import (
    ExpectedImprovement,
    LowerConfidenceBound,
    MeanMinimizer,
    ProbabilityOfImprovement,
)
from ..ml.batched import BatchedRidgePipeline, fit_ridge_pipeline, ols_predict

__all__ = [
    "LockstepCompatibilityError",
    "SessionSpec",
    "LockstepSessions",
    "LockstepReplicatedRuns",
    "run_sequential",
]

# Acquisition functions whose scores are elementwise in (mean, std, best) —
# a batched (K, m) call is then bitwise equal to K scalar (m,) calls.
_ELEMENTWISE_ACQUISITIONS = (
    MeanMinimizer,
    ExpectedImprovement,
    ProbabilityOfImprovement,
    LowerConfidenceBound,
)


class LockstepCompatibilityError(ValueError):
    """A session population cannot be run in lock-step bit-identically."""


@dataclass
class SessionSpec:
    """One session of a lock-step population.

    Mirrors the :class:`~repro.core.session.TuningSession` constructor
    arguments the engine supports; :meth:`to_session` builds the sequential
    twin the differential oracle compares against.
    """

    plan: object
    simulator: object
    optimizer: CentroidLearning
    scale_fn: Optional[Callable[[int], float]] = None
    observe_transform: Optional[Callable[[int, float], float]] = None

    def to_session(self) -> TuningSession:
        return TuningSession(
            plan=self.plan,
            simulator=self.simulator,
            optimizer=self.optimizer,
            scale_fn=self.scale_fn,
            observe_transform=self.observe_transform,
        )


def run_sequential(
    specs: Sequence[SessionSpec], n_iterations: int
) -> List[TuningTrace]:
    """The sequential reference: run each spec's session to completion."""
    return [spec.to_session().run(n_iterations) for spec in specs]


@dataclass
class _Uniform:
    """Hyperparameters required to be identical across the population."""

    window_size: int
    n_candidates: int
    find_best_mode: FindBestMode
    probe: str
    min_update_obs: int
    sel_min_obs: int
    acquisition: object
    degree: int
    interaction_only: bool
    gate_min_obs: Optional[int]  # None: no safe gates


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise LockstepCompatibilityError(message)


class LockstepSessions:
    """K Centroid Learning sessions advanced in lock-step.

    Args:
        specs: the population; every optimizer must be a fresh
            :class:`CentroidLearning` with the default surrogate-selector /
            ridge-pipeline structure (per-session ``alpha``, ``beta``,
            ``alpha_decay``, ridge strength, seeds, noise models, fault
            plans, guardrails, detectors and gate bounds may vary; window
            sizes, candidate counts and selector parameters must be
            uniform).

    Raises:
        LockstepCompatibilityError: when the population cannot be run
            bit-identically to the sequential loop.
    """

    def __init__(self, specs: Sequence[SessionSpec]):
        specs = list(specs)
        _require(len(specs) >= 1, "lock-step needs at least one session")
        self.specs = specs
        opts = [spec.optimizer for spec in specs]
        self._sims = [spec.simulator for spec in specs]
        self._scale_fns = [spec.scale_fn for spec in specs]
        self._transforms = [spec.observe_transform for spec in specs]
        self._observe_fns = [spec.simulator.observe_true for spec in specs]
        self._scale_idx = [
            k for k, fn in enumerate(self._scale_fns) if fn is not None
        ]

        # Plan geometry + evaluation groups (one batched kernel call per
        # distinct (plan, cost parameters, pool) combination per step).
        self._leaf_rows = [
            tuple(op.est_rows_in for op in spec.plan.leaves) for spec in specs
        ]
        self._leaf_totals = np.array(
            [spec.plan.total_leaf_cardinality for spec in specs]
        )
        self._est_default = np.maximum(self._leaf_totals, 1.0)
        self._plan_ids = [id(spec.plan) for spec in specs]
        groups: dict = {}
        for k, spec in enumerate(specs):
            sim = spec.simulator
            key = (id(spec.plan), sim.cost_model.params, sim.pool)
            groups.setdefault(key, (spec.plan, sim, []))[2].append(k)
        self._groups = [
            (plan, sim, np.array(idx)) for plan, sim, idx in groups.values()
        ]

        self._init_core(opts)

    def _init_core(self, opts: Sequence[CentroidLearning]) -> None:
        """Validate and build the optimizer-state SoA shared by all drivers."""
        self.k = len(opts)
        self._opts = opts
        self._u, profiles = self._validate(opts)
        u = self._u
        self.space = opts[0].space
        self.dim = self.space.dim
        bounds = self.space.internal_bounds
        self._lb = bounds[:, 0].copy()
        self._ub = bounds[:, 1].copy()
        self._span = self._ub - self._lb
        self._default = self.space.default_vector()

        # Per-session scalar hyperparameters (allowed to vary).
        self._alphas = np.array([o.alpha for o in opts])
        self._alpha_decays = np.array([o.alpha_decay for o in opts])
        self._betas = np.array([o.beta for o in opts])
        self._ridge_alphas = np.array([p.alpha for p in profiles])
        self._rngs = [o._rng for o in opts]
        # Prebound per-session callables: the per-step Python floor is one
        # raw-double draw plus one observe_true call per session, so shaving
        # the attribute lookups off both is worth it at K=256.
        self._randoms = [rng.random for rng in self._rngs]
        self._unit_scales = np.ones(self.k)

        # Centroid Learning state, struct-of-arrays.
        self._centroids = np.stack([o._centroid for o in opts])
        self._n_updates = np.zeros(self.k)
        self._last_best = np.zeros((self.k, self.dim))
        self._last_delta = np.zeros((self.k, self.dim))
        self._ever_updated = np.zeros(self.k, dtype=bool)

        # Window model store: one fitted ridge pipeline per session, refit
        # lazily when a session's window version moves past the cached one
        # (mirrors find_best.fit_window_model's memoization).
        n_base = self.dim + 1
        if u.degree == 1:
            n_feat = n_base
        elif u.interaction_only:
            n_feat = n_base + n_base * (n_base - 1) // 2
        else:
            n_feat = n_base + n_base * (n_base + 1) // 2
        self._model = BatchedRidgePipeline(
            mean=np.zeros((self.k, n_base)),
            scale=np.ones((self.k, n_base)),
            coef=np.zeros((self.k, n_feat)),
            intercept=np.zeros(self.k),
            degree=u.degree,
            interaction_only=u.interaction_only,
        )
        self._model_version = np.full(self.k, -1)

        # Guardrails: each session's own object holds and judges; the engine
        # keeps their history in the step buffers and batches the trend
        # solve.  ``_disabled`` mirrors ``not guardrail.active`` (False for
        # unguarded sessions) to mask the suggest phase.
        self._guardrails = [o.guardrail for o in opts if o.guardrail is not None]
        self._guarded = np.array(
            [k for k, o in enumerate(opts) if o.guardrail is not None], dtype=int
        )
        self._gr_min = np.array(
            [g.min_iterations for g in self._guardrails], dtype=int
        )
        self._gr_window = np.array(
            [g.fit_window for g in self._guardrails], dtype=int
        )
        self._disabled = np.zeros(self.k, dtype=bool)

        # Task-switch re-anchoring: per-session window / guardrail epochs.
        # ``_win_start[k]`` is the step index of the first observation in
        # session k's current ObservationWindow; ``_gr_start[k]`` the first
        # step in its guardrail history.  Both stay 0 (the construction-time
        # epoch) until a detector fires, so detector-free populations take
        # exactly the pre-switch code paths.
        self._win_start = np.zeros(self.k, dtype=int)
        self._gr_start = np.zeros(self.k, dtype=int)
        self._synced_start = np.zeros(self.k, dtype=int)
        self._armed = [k for k, o in enumerate(opts) if o.switch_detector is not None]

        # Step-indexed history buffers, grown on demand.
        self._t = 0
        self._capacity = 0
        self._synced_obs = 0
        self._vectors = np.empty((self.k, 0, self.dim))
        self._truth = np.empty((self.k, 0))
        self._perfs = np.empty((self.k, 0))
        self._sizes = np.empty((self.k, 0))
        self._active = np.empty((self.k, 0), dtype=bool)

    # -- validation --------------------------------------------------------------

    def _validate(self, opts: Sequence[CentroidLearning]):
        """The population's uniform hyperparameters and per-session
        window-model profiles (raises when lock-step cannot reproduce it)."""
        first = opts[0]
        _require(
            type(first) is CentroidLearning,
            f"lock-step supports CentroidLearning, got {type(first).__name__}",
        )
        space = first.space
        sel0 = first.selector
        gate0 = first.safe_gate
        profiles = []
        for opt in opts:
            _require(
                type(opt) is CentroidLearning,
                f"lock-step supports CentroidLearning, got {type(opt).__name__}",
            )
            _require(opt.space == space, "all sessions must share one ConfigSpace")
            _require(
                opt.gradient_mode == "ml",
                f"lock-step supports gradient_mode='ml', got {opt.gradient_mode!r}",
            )
            _require(
                opt.probe in ("span", "multiplicative"),
                f"unknown probe geometry {opt.probe!r}",
            )
            for what, mine, theirs in (
                ("probe geometry", opt.probe, first.probe),
                ("window_size", opt.observations.window_size,
                 first.observations.window_size),
                ("n_candidates", opt.n_candidates, first.n_candidates),
                ("find_best_mode", opt.find_best_mode, first.find_best_mode),
                ("min_update_observations", opt.min_update_observations,
                 first.min_update_observations),
            ):
                _require(mine == theirs, f"{what} must be uniform")
            sel = opt.selector
            _require(
                len(opt.observations) == 0 and opt._n_updates == 0,
                "lock-step requires fresh optimizers (empty windows)",
            )
            _require(
                type(sel) is SurrogateSelector,
                f"lock-step supports SurrogateSelector, got {type(sel).__name__}",
            )
            _require(sel.baseline is None, "baseline models are not supported")
            _require(
                sel.model_factory is opt.model_factory,
                "selector must share the optimizer's model factory",
            )
            _require(
                isinstance(sel.acquisition, _ELEMENTWISE_ACQUISITIONS),
                f"unsupported acquisition {type(sel.acquisition).__name__}",
            )
            _require(
                (sel.min_observations, sel.acquisition)
                == (sel0.min_observations, sel0.acquisition),
                "selector min_observations and acquisition must be uniform",
            )
            g = opt.guardrail
            if g is not None:
                _require(
                    type(g) is Guardrail and not g.robust,
                    "lock-step supports non-robust Guardrail instances",
                )
                _require(
                    g.n_observations == 0 and g.active,
                    "lock-step requires fresh guardrails",
                )
            det = opt.switch_detector
            if det is not None:
                _require(
                    type(det) is TaskSwitchDetector,
                    f"lock-step supports TaskSwitchDetector, "
                    f"got {type(det).__name__}",
                )
                _require(
                    det.n_since_anchor == 0 and det.switch_count == 0,
                    "lock-step requires fresh switch detectors",
                )
            gate = opt.safe_gate
            _require(
                (gate is None) == (gate0 is None),
                "safe gates must be all absent or all present",
            )
            if gate is not None:
                _require(
                    type(gate) is SafeExplorationGate,
                    f"lock-step supports SafeExplorationGate, "
                    f"got {type(gate).__name__}",
                )
                _require(
                    gate.min_observations == gate0.min_observations,
                    "safe-gate min_observations must be uniform",
                )
            profile = batch_profile_for(opt)
            _require(
                profile is not None,
                "model factory must build the default "
                "StandardScaler→PolynomialFeatures→RidgeRegression pipeline",
            )
            profiles.append(profile)
        _require(
            len({(p.degree, p.interaction_only) for p in profiles}) == 1,
            "polynomial expansion must be uniform",
        )
        for what in ("switch_detector", "guardrail"):
            owned = [getattr(o, what) for o in opts if getattr(o, what) is not None]
            _require(
                len({id(obj) for obj in owned}) == len(owned),
                f"each session needs its own {what} instance",
            )
        if gate0 is not None:
            # Gate active ⟹ the selector is in its model branch: the gate
            # must never strip candidates while the selector would still be
            # consuming a cold-start RNG draw, or the engine (which routes
            # gated sessions through the batched model path) diverges.
            _require(
                gate0.min_observations >= sel0.min_observations,
                "safe_gate.min_observations must be >= the selector's "
                "min_observations",
            )
        uniform = _Uniform(
            window_size=first.observations.window_size,
            n_candidates=first.n_candidates,
            find_best_mode=first.find_best_mode,
            probe=first.probe,
            min_update_obs=first.min_update_observations,
            sel_min_obs=sel0.min_observations,
            acquisition=sel0.acquisition,
            degree=profiles[0].degree,
            interaction_only=profiles[0].interaction_only,
            gate_min_obs=None if gate0 is None else gate0.min_observations,
        )
        return uniform, profiles

    # -- buffers -----------------------------------------------------------------

    def _ensure_capacity(self, steps: int) -> None:
        if steps <= self._capacity:
            return
        new = max(steps, 2 * self._capacity, 8)

        def grow(buf: np.ndarray, fill) -> np.ndarray:
            shape = list(buf.shape)
            shape[1] = new
            out = np.full(shape, fill, dtype=buf.dtype)
            out[:, : self._capacity] = buf
            return out

        self._vectors = grow(self._vectors, 0.0)
        self._truth = grow(self._truth, 0.0)
        self._perfs = grow(self._perfs, 0.0)
        self._sizes = grow(self._sizes, 1.0)
        self._active = grow(self._active, True)
        self._capacity = new

    # -- window models -----------------------------------------------------------

    def _models_for(
        self, idx: np.ndarray, version: int, n: int
    ) -> BatchedRidgePipeline:
        """Fitted window models for sessions ``idx`` at window ``version``.

        ``version`` is the number of observations taken so far; stale
        sessions are refit in one batched call (others keep their cached
        fit, exactly like the sequential memoization in
        :func:`repro.core.find_best.fit_window_model`).  ``n`` is the shared
        window length of the ``idx`` sessions — task-switch re-anchored
        populations have ragged windows, so callers group sessions by window
        length first.  A re-anchor invalidates the cache by pinning
        ``_model_version`` to -1.
        """
        stale = idx[self._model_version[idx] != version]
        if stale.size:
            u = self._u
            lo = version - n
            X = np.empty((stale.size, n, self.dim + 1))
            X[:, :, : self.dim] = self._vectors[stale, lo:version]
            X[:, :, self.dim] = self._sizes[stale, lo:version]
            fitted = fit_ridge_pipeline(
                X,
                self._perfs[stale, lo:version],
                self._ridge_alphas[stale],
                degree=u.degree,
                interaction_only=u.interaction_only,
            )
            fitted.scatter_into(self._model, stale)
            self._model_version[stale] = version
        m = self._model
        if idx.size == self.k:
            # Fast path: flatnonzero over an all-True mask is arange(k), so
            # the full store is already in caller order — skip the gather.
            return m
        return BatchedRidgePipeline(
            mean=m.mean[idx], scale=m.scale[idx], coef=m.coef[idx],
            intercept=m.intercept[idx], degree=m.degree,
            interaction_only=m.interaction_only,
        )

    # -- workload substrate (overridden by the replicated-runs driver) -------------

    def _input_sizes(self, t: int):
        """Per-session ``(data_scale, estimated_size)`` for step ``t``.

        Sessions without a scale_fn sit at scale 1.0, so the whole block
        reduces to two cached (read-only) arrays when nobody drifts.
        """
        if not self._scale_idx:
            return self._unit_scales, self._est_default
        scales = np.ones(self.k)
        est_sizes = self._est_default.copy()
        # Sessions sharing a plan object and a scale value produce the same
        # leaf sum from the same inputs, so compute it once per distinct
        # (plan, scale) pair — bitwise identical, K-fold cheaper on fleets
        # that share one drifting workload.
        memo: dict = {}
        for k in self._scale_idx:
            s = self._scale_fns[k](t)
            scales[k] = s
            key = (self._plan_ids[k], s)
            total = memo.get(key)
            if total is None:
                if s != 1.0:
                    total = 0.0
                    for rows in self._leaf_rows[k]:
                        total = total + rows * s
                else:
                    total = self._leaf_totals[k]
                total = max(total, 1.0)
                memo[key] = total
            est_sizes[k] = total
        return scales, est_sizes

    def _execute(self, t: int, vectors: np.ndarray, scales: np.ndarray) -> None:
        """Fill ``_truth``/``_sizes``/``_perfs`` for step ``t``.

        One batched kernel call per (plan, params, pool) group with
        per-session data scales; then each session's own noise / fault
        stream turns true times into observations, in session order.
        """
        for plan, sim, idx in self._groups:
            self._truth[idx, t] = sim.true_time_batch(
                plan, vectors[idx], space=self.space, data_scales=scales[idx]
            )
            self._sizes[idx, t] = np.maximum(
                plan.total_leaf_cardinality * scales[idx], 1.0
            )
        truth_t = self._truth[:, t].tolist()
        transforms = self._transforms
        observes = self._observe_fns
        perfs_t = truth_t  # reuse the scratch list; overwritten per session
        for k in range(self.k):
            observed = observes[k](truth_t[k])
            transform = transforms[k]
            if transform is not None:
                observed = transform(t, observed)
            perfs_t[k] = observed
        self._perfs[:, t] = perfs_t

    # -- one lock-step iteration ---------------------------------------------------

    def step(self) -> None:
        """Advance every session by one suggest → execute → observe step."""
        t = self._t
        self._ensure_capacity(t + 1)
        u = self._u
        k_total = self.k
        dim = self.dim

        # 1. Input-size dynamics: per-session data scale and the compile-time
        #    cardinality estimate the selector scores against.
        scales, est_sizes = self._input_sizes(t)

        # 2. Suggest: guardrail-disabled sessions pin the default vector
        #    (consuming no randomness); active sessions draw β-neighborhood
        #    candidates from their own RNGs and score them in one batch.
        vectors = np.empty((k_total, dim))
        active = ~self._disabled
        act = np.flatnonzero(active)
        n_default = k_total - act.size
        if n_default:
            telemetry.counter("centroid.suggests", mode="default").inc(n_default)
            vectors[~active] = self._default
        if act.size:
            telemetry.counter("centroid.suggests", mode="tuning").inc(act.size)
            cents = np.clip(self._centroids[act], self._lb, self._ub)
            low = np.maximum(cents - self._betas[act, None] * self._span, self._lb)
            high = np.minimum(cents + self._betas[act, None] * self._span, self._ub)
            m = u.n_candidates
            cands = np.empty((act.size, m, dim))
            cands[:, 0, :] = cents
            if m > 1:
                # Generator.uniform(low, high, size) with array bounds is
                # exactly ``low + (high - low) * next_double`` per element
                # (verified bitwise), so draw the raw doubles per session —
                # same stream consumption — and apply the affine map in one
                # vectorized op across sessions.
                draws = np.empty((act.size, m - 1, dim))
                shape = (m - 1, dim)
                randoms = self._randoms
                for j, k in enumerate(act):
                    draws[j] = randoms[k](shape)
                cands[:, 1:, :] = (
                    low[:, None, :]
                    + np.subtract(high, low)[:, None, :] * draws
                )
            # Window lengths are per-session once task switches re-anchor;
            # without a detector every win_start is 0 and there is exactly
            # one group — the pre-switch fast path.
            n_windows = np.minimum(t - self._win_start[act], u.window_size)
            cold = n_windows < u.sel_min_obs
            if cold.any():
                # Cold start: uniform choice from each session's RNG.
                for j in np.flatnonzero(cold):
                    k = act[j]
                    vectors[k] = cands[j, int(self._rngs[k].integers(0, m))]
            hot_pos = np.flatnonzero(~cold)
            for n_w in np.unique(n_windows[hot_pos]):
                pos = hot_pos[n_windows[hot_pos] == n_w]
                grp = act[pos]
                n_w = int(n_w)
                model = self._models_for(grp, version=t, n=n_w)
                gated = u.gate_min_obs is not None and n_w >= u.gate_min_obs
                n_rows = m + 1 if gated else m
                rows = np.empty((grp.size, n_rows, dim + 1))
                rows[:, :m, :dim] = cands[pos]
                rows[:, :, dim] = est_sizes[grp, None]
                if gated:
                    rows[:, m, :dim] = self._default
                mean = model.predict(rows)
                std = np.full((grp.size, m), 1e-9)
                best = np.min(self._perfs[grp, t - n_w : t], axis=1)
                scores = u.acquisition(mean[:, :m], std, best[:, None])
                if gated:
                    # Each session's own gate masks its candidates; rejecting
                    # a candidate zeroes its score via -inf, which is
                    # argmax-equivalent to selecting over the safe subset.
                    opts = self._opts
                    mask = np.array([
                        opts[k].safe_gate.safe_mask(mean[j, :m], mean[j, m])
                        for j, k in enumerate(grp)
                    ])
                    unsafe = ~mask.any(axis=1)
                    if unsafe.any():
                        telemetry.counter("safe.fallbacks").inc(
                            int(np.count_nonzero(unsafe))
                        )
                        vectors[grp[unsafe]] = self._default
                        scores = scores[~unsafe]
                        mask = mask[~unsafe]
                        pos = pos[~unsafe]
                        grp = grp[~unsafe]
                    scores = np.where(mask, scores, -np.inf)
                if grp.size:
                    chosen = np.argmax(scores, axis=1)
                    vectors[grp] = cands[pos, chosen]
        self._vectors[:, t] = vectors

        # 3. Execute on the workload substrate.
        self._execute(t, vectors, scales)

        # 4. Observe: task-switch sweep first (fired sessions re-anchor and
        #    skip the guardrail and centroid phases this step, exactly like
        #    the sequential early return), then the guardrail sweep, then
        #    the vectorized Alg.-1 centroid update for every session that is
        #    active with a full-enough window.
        telemetry.counter("session.steps").inc(k_total)
        if self._armed:
            not_fired = ~self._switch_step(t)
        else:
            not_fired = np.ones(k_total, dtype=bool)
        self._guardrail_step(t, not_fired)
        active_after = ~self._disabled
        held = int(np.count_nonzero(self._disabled & not_fired))
        if held:
            telemetry.counter(
                "centroid.updates_skipped", reason="guardrail"
            ).inc(held)
        updatable = np.flatnonzero(active_after & not_fired)
        self._active[:, t] = active_after
        n_wins = np.minimum(t + 1 - self._win_start[updatable], u.window_size)
        small = n_wins < u.min_update_obs
        n_small = int(np.count_nonzero(small))
        if n_small:
            telemetry.counter(
                "centroid.updates_skipped", reason="window"
            ).inc(n_small)
        full = updatable[~small]
        if full.size:
            full_wins = n_wins[~small]
            for n_win in np.unique(full_wins):
                self._update_centroids(
                    full[full_wins == n_win], t, int(n_win)
                )
        self._t = t + 1

    def _switch_step(self, t: int) -> np.ndarray:
        """Each armed session's own :meth:`TaskSwitchDetector.update` for
        step ``t``; returns the fired mask, fired sessions re-anchored."""
        fired = np.zeros(self.k, dtype=bool)
        perfs = self._perfs[:, t].tolist()
        sizes = self._sizes[:, t].tolist()
        for k in self._armed:
            decision = self._opts[k].switch_detector.update(
                perfs[k], sizes[k], iteration=t
            )
            if decision.detected:
                fired[k] = True
                self._re_anchor(k, t, decision)
        return fired

    def _re_anchor(self, k: int, t: int, decision) -> None:
        """:meth:`CentroidLearning._re_anchor` for session ``k``: a fresh
        window epoch seeded with the firing observation, the real guardrail
        reset with a fresh history epoch, and the warm-started centroid."""
        opt = self._opts[k]
        self._win_start[k] = t
        self._model_version[k] = -1
        self._n_updates[k] = 0.0
        if opt.guardrail is not None:
            opt.guardrail.reset()
            self._gr_start[k] = t + 1
        obs = Observation(
            config=self._vectors[k, t].copy(),
            data_size=float(self._sizes[k, t]),
            performance=float(self._perfs[k, t]),
            iteration=t,
        )
        self._centroids[k] = opt._warm_start_centroid(obs, self._centroids[k])
        opt._count_reanchor(t, decision, self._centroids[k])

    def _update_centroids(self, upd: np.ndarray, t: int, n_win: int) -> None:
        """FIND_BEST + ml sign gradient + overshoot, for sessions ``upd``."""
        u = self._u
        lo = t + 1 - n_win
        model = self._models_for(upd, version=t + 1, n=n_win)
        w_conf = self._vectors[upd, lo : t + 1]
        p_latest = self._sizes[upd, t]

        if u.find_best_mode is FindBestMode.MODEL:
            predictions = model.predict(feature_rows(w_conf, p_latest))
            best_idx = np.argmin(predictions, axis=1)
        elif u.find_best_mode is FindBestMode.RAW:
            best_idx = np.argmin(self._perfs[upd, lo : t + 1], axis=1)
        else:  # NORMALIZED
            best_idx = np.argmin(
                self._perfs[upd, lo : t + 1] / self._sizes[upd, lo : t + 1], axis=1
            )
        c_star = w_conf[np.arange(upd.size), best_idx]

        alpha = self._alphas[upd] / (
            1.0 + self._alpha_decays[upd] * self._n_updates[upd]
        )
        probes = gradient_rows(self.space, c_star, p_latest, alpha, u.probe)
        delta = sign_gradient(self.dim, model.predict(probes))
        self._centroids[upd] = probe_points(
            self.space, c_star, delta, alpha[:, None], u.probe
        )
        self._n_updates[upd] += 1.0
        self._last_best[upd] = c_star
        self._last_delta[upd] = delta
        self._ever_updated[upd] = True
        telemetry.counter("centroid.updates").inc(upd.size)

    def _guardrail_step(self, t: int, eligible: np.ndarray) -> None:
        """Each guarded session's own :meth:`Guardrail.hold` or
        :meth:`Guardrail.judge` for step ``t``; the trend solves are batched.

        ``eligible`` masks out sessions whose detector fired this step —
        the sequential path re-anchors and returns before ever calling
        ``guardrail.update``, so they take no cooldown tick and no check.
        Sessions disabled at entry (even ones a hold re-enables) skip the
        check, exactly like the sequential early return.  History lengths
        are per-session (``min_iterations``, ``fit_window`` and re-anchored
        ``_gr_start`` vary), so trends are solved one batch per fit-window
        length, each a rectangular stack.
        """
        guardrails = self._guardrails
        guarded = self._guarded
        n_obs = t + 1 - self._gr_start[guarded]
        live = eligible[guarded]
        was_disabled = self._disabled[guarded]
        for j in np.flatnonzero(live & was_disabled).tolist():
            guardrails[j].hold(t)
        due = np.flatnonzero(live & ~was_disabled & (n_obs >= self._gr_min))
        w_due = np.minimum(n_obs[due], self._gr_window[due])
        for w in np.unique(w_due):
            pos = due[w_due == w]
            chk = guarded[pos]
            w = int(w)
            lo = t + 1 - w
            X = np.empty((chk.size, w, 2))
            X[:, :, 0] = np.arange(lo, t + 1, dtype=float)[None, :]
            X[:, :, 1] = self._sizes[chk, lo : t + 1]
            y = self._perfs[chk, lo : t + 1]
            rows = np.empty((chk.size, 2, 2))
            rows[:, 0, 0] = float(t) + 1.0
            rows[:, 1, 0] = float(t)
            rows[:, :, 1] = self._sizes[chk, t][:, None]
            preds = ols_predict(X, y, rows).tolist()
            latest = self._perfs[chk, t].tolist()
            for j, (pred_next, pred_current), last in zip(
                pos.tolist(), preds, latest
            ):
                guardrails[j].judge(t, last, pred_next, pred_current)
        self._disabled[guarded] = [not g.active for g in guardrails]

    # -- driving + results ---------------------------------------------------------

    def advance(self, n_iterations: int) -> None:
        """Advance all sessions ``n_iterations`` steps and sync state back.

        Writes the final centroid/window/guardrail state into the
        population's optimizer objects, so callers can inspect
        ``optimizer.centroid``, ``optimizer.observations`` and
        ``guardrail.active`` exactly as after a sequential run — without
        materializing traces.
        """
        if n_iterations < 1:
            raise ValueError("n_iterations must be >= 1")
        self._ensure_capacity(self._t + n_iterations)
        for _ in range(n_iterations):
            self.step()
        self._sync_state()

    def run(self, n_iterations: int) -> List[TuningTrace]:
        """:meth:`advance` then materialize and return per-session traces."""
        self.advance(n_iterations)
        return self.traces()

    @property
    def tuning_active(self) -> np.ndarray:
        """Per-session guardrail-active mask (True for unguarded sessions)."""
        return ~self._disabled

    def traces(self) -> List[TuningTrace]:
        """Materialize per-session :class:`TuningTrace` objects."""
        n = self._t
        flat = self._vectors[:, :n].reshape(self.k * n, self.dim)
        # Pruned-subspace sessions (repro.core.importance.PrunedSpace)
        # decode to full-space vectors so trace configs are complete —
        # matching the full dicts the sequential path's to_dict() emits.
        space = self.space
        decode = getattr(space, "decode_matrix", None)
        if decode is not None:
            flat = decode(flat)
            space = space.full_space
        names = list(space.names)
        # One flattened conversion for all sessions (bitwise identical to
        # per-session calls: every transform is elementwise).
        all_natural = space.to_natural_matrix(flat).reshape(self.k, n, -1)
        # IterationRecord is a frozen dataclass, so its generated __init__
        # routes every field through object.__setattr__; at K·N records that
        # becomes the dominant materialization cost.  Build instances by
        # installing the field dict directly — value-identical (no
        # __post_init__ exists) and __eq__/__hash__/repr see the same
        # fields, just without the per-field frozen-write ceremony.
        new_record = IterationRecord.__new__
        out: List[TuningTrace] = []
        for k in range(self.k):
            natural = all_natural[k].tolist()
            observed = self._perfs[k, :n].tolist()
            truth = self._truth[k, :n].tolist()
            sizes = self._sizes[k, :n].tolist()
            active = self._active[k, :n].tolist()
            trace = TuningTrace()
            records = trace.records
            for t in range(n):
                rec = new_record(IterationRecord)
                rec.__dict__.update(
                    iteration=t,
                    config=dict(zip(names, natural[t])),
                    observed_seconds=observed[t],
                    true_seconds=truth[t],
                    data_size=sizes[t],
                    tuning_active=active[t],
                )
                records.append(rec)
            out.append(trace)
        return out

    def _sync_state(self) -> None:
        """Write lock-step state back into the real optimizer objects."""
        n = self._t
        u = self._u
        iterations = np.arange(n, dtype=float).tolist()
        for k, opt in enumerate(self._opts):
            opt._centroid = self._centroids[k].copy()
            opt._n_updates = int(self._n_updates[k])
            if self._ever_updated[k]:
                opt._last_best = self._last_best[k].copy()
                opt._last_gradient = self._last_delta[k].copy()
            # Observations: append incrementally, unless a task switch moved
            # this session's window epoch since the last sync — then mirror
            # the sequential re-anchor with a fresh window holding only the
            # current epoch's observations.
            win_start = int(self._win_start[k])
            if win_start != self._synced_start[k]:
                opt.observations = ObservationWindow(u.window_size)
                self._synced_start[k] = win_start
                lo = win_start
            else:
                lo = self._synced_obs
            # One private copy per session; each Observation holds a row
            # view of it (the copy is never mutated, so the rows are as
            # immutable as the per-record copies the sequential path makes).
            conf = self._vectors[k, lo:n].copy()
            sizes = self._sizes[k, lo:n].tolist()
            perfs = self._perfs[k, lo:n].tolist()
            append = opt.observations.append
            new_obs = Observation.__new__
            for i in range(n - lo):
                perf = perfs[i]
                size = sizes[i]
                # Same frozen-dataclass shortcut as traces(), keeping
                # __post_init__'s semantics: config rows are already float64
                # arrays, and the two range checks are inlined.
                if perf < 0:
                    raise ValueError(f"performance must be >= 0, got {perf}")
                if size <= 0:
                    raise ValueError(f"data_size must be > 0, got {size}")
                obs = new_obs(Observation)
                obs.__dict__.update(
                    config=conf[i],
                    data_size=size,
                    performance=perf,
                    iteration=lo + i,
                    embedding=None,
                )
                append(obs)
            # Guardrails judged themselves each step; only their history
            # lives in the step buffers.
            guardrail = opt.guardrail
            if guardrail is not None:
                g_lo = int(self._gr_start[k])
                guardrail._iterations = iterations[g_lo:]
                guardrail._data_sizes = self._sizes[k, g_lo:n].tolist()
                guardrail._times = self._perfs[k, g_lo:n].tolist()
        self._synced_obs = n


class LockstepReplicatedRuns(LockstepSessions):
    """K independent replicated runs of one synthetic objective, lock-step.

    The vectorized Centroid Learning core (candidate drawing, surrogate
    scoring, FIND_BEST + gradient updates, guardrails) is shared with
    :class:`LockstepSessions`; only the workload substrate differs — data
    sizes come from per-run size processes and observations from
    ``objective.observe`` with each run's own noise RNG, exactly mirroring
    :func:`repro.experiments.runner.run_single`.  The runs matrix from
    :meth:`runs` is bit-identical to ``n_runs`` sequential ``run_single``
    calls on the same optimizers, size processes and RNGs.

    ``traces()`` is not meaningful for this driver (synthetic objectives
    have no noiseless kernel times); read :meth:`runs` instead.
    """

    def __init__(self, optimizers, objective, size_processes, noise_rngs):
        opts = list(optimizers)
        _require(len(opts) >= 1, "lock-step needs at least one run")
        _require(
            len(size_processes) == len(opts) and len(noise_rngs) == len(opts),
            "optimizers, size_processes and noise_rngs must align",
        )
        self._objective = objective
        self._size_procs = list(size_processes)
        self._noise_rngs = list(noise_rngs)
        self._init_core(opts)

    def _input_sizes(self, t: int):
        # run_single suggests with data_size = size_process(t), verbatim.
        p = np.array([proc(t) for proc in self._size_procs])
        return p, p

    def _execute(self, t: int, vectors: np.ndarray, scales: np.ndarray) -> None:
        self._sizes[:, t] = scales
        p_list = scales.tolist()
        observe = self._objective.observe
        rngs = self._noise_rngs
        for k in range(self.k):
            p_list[k] = observe(vectors[k], p_list[k], rngs[k])
        self._perfs[:, t] = p_list
        # _truth stays zero: synthetic objectives are scored post hoc by
        # runs(), from the suggested vectors alone.

    def runs(self, track: str = "true") -> np.ndarray:
        """The ``(n_runs, n_iterations)`` tracked matrix of runner.py.

        ``track`` has :func:`run_single` semantics: ``"true"`` (noiseless
        value at the reference size), ``"normed"`` (true / data size) or
        ``"gap"`` (optimality gap along the most impactful dimension).  All
        three are pure functions of the suggested vectors, so evaluating
        them after the lock-step run reproduces the sequential loop's
        values bitwise.
        """
        if track not in ("true", "normed", "gap"):
            raise ValueError(f"unknown track mode {track!r}")
        n = self._t
        obj = self._objective
        out = np.empty((self.k, n))
        if track == "gap":
            impactful = obj.most_impactful_dimension
            for k in range(self.k):
                vecs = self._vectors[k]
                for t in range(n):
                    out[k, t] = obj.optimality_gap(vecs[t], dimension=impactful)
        elif track == "true":
            ref = obj.reference_size
            for k in range(self.k):
                vecs = self._vectors[k]
                for t in range(n):
                    out[k, t] = obj.true_value(vecs[t], ref)
        else:
            for k in range(self.k):
                vecs = self._vectors[k]
                for t in range(n):
                    p = self._sizes[k, t]
                    out[k, t] = obj.true_value(vecs[t], p) / p
        return out
