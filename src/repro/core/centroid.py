"""The Centroid Learning algorithm (Algorithm 1).

Each iteration:

1. generate candidates in the β-neighborhood of the centroid ``e_t``;
2. let the surrogate + acquisition pick ``c_{t+1}`` (``argmax f``);
3. execute, observe ``(c_{t+1}, p_{t+1}, r_{t+1})``;
4. ``c* = FIND_BEST(Ω(t+1, N))`` — the statistically best recent config;
5. ``Δ = FIND_GRADIENT(Ω(t+1, N))`` — a robust descent *direction*;
6. ``e_{t+1} = c* ⊖ α·Δ`` — move from the best config along the descent
   direction, deliberately *overshooting* (momentum-style) to escape local
   minima.

A :class:`~repro.core.guardrail.Guardrail` can disable tuning and reinstate
the default configuration when sustained regressions are predicted.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .. import telemetry
from ..ml.base import Regressor
from ..ml.linear import PolynomialFeatures, RidgeRegression
from ..ml.scaler import Pipeline, StandardScaler
from .candidates import generate_candidates
from .config_space import ConfigSpace
from .find_best import FindBestMode, find_best, fit_window_model, ranking_rows
from .gradient import (
    gradient_rows, linear_sign_gradient, ml_sign_gradient, probe_points, sign_gradient,
)
from .guardrail import Guardrail
from .observation import Observation, ObservationWindow, feature_rows
from .optimizer_base import Optimizer
from .selectors import CandidateSelector, SurrogateSelector
from .switch import SafeExplorationGate, TaskSwitchDetector

__all__ = ["BatchProfile", "CentroidLearning", "batch_profile_for",
           "default_window_model_factory"]


def default_window_model_factory() -> Regressor:
    """The default ``H(c, p)``: standardized quadratic ridge regression.

    A degree-2 surface captures the local convexity of the response around
    the centroid with very few observations, while ridge shrinkage keeps the
    fit stable under Eq.-8 noise.
    """
    return Pipeline(
        [
            ("scale", StandardScaler()),
            ("poly", PolynomialFeatures(degree=2)),
            ("ridge", RidgeRegression(alpha=1.0)),
        ]
    )


class CentroidLearning(Optimizer):
    """Noise-robust hybrid of model-guided and gradient-based tuning.

    Args:
        space: configuration space.
        alpha: centroid update (overshoot) step size — fraction of each
            parameter's internal span moved per update.
        alpha_decay: optional hyperbolic decay of α over centroid updates
            (0 = the paper's constant step).
        beta: candidate-generation neighborhood half-width (fraction of span).
        window_size: ``N``, observations used for FIND_BEST / FIND_GRADIENT;
            the paper recommends 10–20 under production noise.
        n_candidates: candidates generated per iteration.
        selector: candidate-selection policy; defaults to a
            :class:`SurrogateSelector` over the window model.
        find_best_mode: FIND_BEST refinement (default MODEL, Eq. 5).
        gradient_mode: ``"ml"`` (Eq. 6 sign search; default) or ``"linear"``.
        model_factory: constructor of ``H(c, p)``.
        start: initial centroid ``e_0`` (internal axes); defaults to the
            space default — production tunes outward from the defaults.
        guardrail: optional regression guardrail; when it disables tuning,
            :meth:`suggest` returns the default configuration forever after.
        min_update_observations: window points required before the centroid
            moves (needs enough data for a meaningful fit).
        probe: gradient probe geometry, ``"span"`` or ``"multiplicative"``.
        seed: RNG seed.
        switch_detector: optional
            :class:`~repro.core.switch.TaskSwitchDetector`; on a detected
            regime change the session re-anchors — fresh window seeded with
            the firing observation, guardrail reset, centroid re-seeded from
            ``switch_warm_start`` when provided.
        switch_warm_start: ``(Observation) -> Optional[vector]`` consulted
            on each detection for the new regime's starting centroid —
            typically :func:`repro.retrieval.warm_start_from_corpus`.
            Failures (e.g. a flaky backend) are swallowed and counted; the
            session keeps its current centroid.
        safe_gate: optional :class:`~repro.core.switch.SafeExplorationGate`
            restricting candidates to those whose predicted cost stays
            within a bound of the default configuration's.
    """

    def __init__(
        self,
        space: ConfigSpace,
        alpha: float = 0.05,
        alpha_decay: float = 0.0,
        beta: float = 0.1,
        window_size: int = 10,
        n_candidates: int = 20,
        selector: Optional[CandidateSelector] = None,
        find_best_mode: FindBestMode = FindBestMode.MODEL,
        gradient_mode: str = "ml",
        model_factory: Optional[Callable[[], Regressor]] = None,
        start: Optional[np.ndarray] = None,
        guardrail: Optional[Guardrail] = None,
        min_update_observations: int = 3,
        probe: str = "span",
        seed: Optional[int] = None,
        switch_detector: Optional[TaskSwitchDetector] = None,
        switch_warm_start: Optional[Callable[[Observation], Optional[np.ndarray]]] = None,
        safe_gate: Optional[SafeExplorationGate] = None,
    ):
        super().__init__(space, window_size=window_size)
        if not 0 < alpha < 1:
            raise ValueError(f"alpha must be in (0, 1), got {alpha}")
        if alpha_decay < 0:
            raise ValueError(f"alpha_decay must be >= 0, got {alpha_decay}")
        if gradient_mode not in ("ml", "linear"):
            raise ValueError(f"gradient_mode must be 'ml' or 'linear', got {gradient_mode!r}")
        if min_update_observations < 2:
            raise ValueError("min_update_observations must be >= 2")
        self.alpha = alpha
        self.alpha_decay = alpha_decay
        self._n_updates = 0
        self.beta = beta
        self.n_candidates = n_candidates
        self.find_best_mode = find_best_mode
        self.gradient_mode = gradient_mode
        self.model_factory = model_factory or default_window_model_factory
        self.selector = selector or SurrogateSelector(self.model_factory)
        self.guardrail = guardrail
        self.min_update_observations = min_update_observations
        self.probe = probe
        self.switch_detector = switch_detector
        self.switch_warm_start = switch_warm_start
        self.safe_gate = safe_gate
        self.reanchor_count = 0
        self._rng = np.random.default_rng(seed)
        e0 = space.default_vector() if start is None else np.asarray(start, dtype=float)
        self._centroid = space.clip(e0)
        self._last_gradient: Optional[np.ndarray] = None
        self._last_best: Optional[np.ndarray] = None

    # -- introspection ----------------------------------------------------------

    @property
    def centroid(self) -> np.ndarray:
        """The current centroid ``e_t`` (internal axes)."""
        return self._centroid.copy()

    @property
    def tuning_active(self) -> bool:
        return self.guardrail.active if self.guardrail is not None else True

    @property
    def last_gradient(self) -> Optional[np.ndarray]:
        """The Δ applied at the most recent centroid update."""
        return None if self._last_gradient is None else self._last_gradient.copy()

    @property
    def last_best(self) -> Optional[np.ndarray]:
        """The c* used at the most recent centroid update."""
        return None if self._last_best is None else self._last_best.copy()

    # -- persistence -----------------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serializable tuning state.

        Production keeps per-(user, signature) tuning state across
        application runs; this snapshot covers the centroid, the observation
        history, update counters and guardrail internals.  Constructor
        hyperparameters (α, β, N, selector, ...) are *code*, not state —
        re-supply them when restoring.
        """
        history = [
            {
                "config": o.config.tolist(),
                "data_size": o.data_size,
                "performance": o.performance,
                "iteration": o.iteration,
                "embedding": None if o.embedding is None else o.embedding.tolist(),
            }
            for o in self.observations.history
        ]
        return {
            "centroid": self._centroid.tolist(),
            "n_updates": self._n_updates,
            "history": history,
            "guardrail": self.guardrail.to_state() if self.guardrail else None,
            "reanchors": self.reanchor_count,
            "switch": (
                self.switch_detector.to_state() if self.switch_detector else None
            ),
        }

    def restore_state(self, state: dict) -> "CentroidLearning":
        """Restore a :meth:`to_state` snapshot in place."""
        centroid = np.asarray(state["centroid"], dtype=float)
        if centroid.shape != (self.space.dim,):
            raise ValueError(
                f"state centroid has shape {centroid.shape}, "
                f"expected ({self.space.dim},)"
            )
        self._centroid = self.space.clip(centroid)
        self._n_updates = int(state["n_updates"])
        window = ObservationWindow(self.observations.window_size)
        for item in state["history"]:
            window.append(Observation(
                config=np.asarray(item["config"], dtype=float),
                data_size=item["data_size"],
                performance=item["performance"],
                iteration=item["iteration"],
                embedding=(
                    None if item["embedding"] is None
                    else np.asarray(item["embedding"], dtype=float)
                ),
            ))
        self.observations = window
        if state.get("guardrail") is not None:
            if self.guardrail is None:
                raise ValueError(
                    "state carries guardrail data but this optimizer has no guardrail"
                )
            self.guardrail.restore_state(state["guardrail"])
        self.reanchor_count = int(state.get("reanchors", 0))
        if state.get("switch") is not None:
            if self.switch_detector is None:
                raise ValueError(
                    "state carries switch-detector data but this optimizer "
                    "has no switch detector"
                )
            self.switch_detector.restore_state(state["switch"])
        return self

    # -- ask/tell -----------------------------------------------------------------
    # ``coalesced_suggest``/``coalesced_observe`` are ``suggest``/``observe``
    # as generators: they yield the ``[c, p]`` rows to score with the window
    # model (one without ``predict_with_std``) and take its predictions back,
    # so a caller can batch many sessions' model calls (``service.batch_exec``).

    def suggest(self, data_size: Optional[float] = None, embedding=None) -> np.ndarray:
        candidates = self._draw_candidates()
        if candidates is None:
            return self.space.default_vector()
        data_size = 1.0 if data_size is None else float(data_size)
        if self._gate_ready():
            model = fit_window_model(self.observations, self.model_factory)
            candidates = self.safe_gate.apply(
                candidates, model, data_size, self.space.default_vector()
            )
        index = self.selector.select(
            candidates, self.observations, data_size, embedding, self._rng
        )
        return self._suggested(candidates, index)

    def coalesced_suggest(self, data_size: Optional[float] = None, embedding=None):
        """:meth:`suggest` with caller-supplied window-model predictions."""
        candidates = self._draw_candidates()
        if candidates is None:
            return self.space.default_vector()
        data_size = 1.0 if data_size is None else float(data_size)
        if self._gate_ready():
            default = self.space.default_vector()
            predictions = yield self.safe_gate.rows(candidates, data_size, default)
            candidates = self.safe_gate.choose(candidates, predictions, default)
        selector = self.selector
        if (
            type(selector) is SurrogateSelector
            and selector.model_factory is self.model_factory
            and len(self.observations.window) >= selector.min_observations
        ):
            mean = yield feature_rows(candidates, data_size)
            index = selector.choose(mean, self.observations)
        else:
            index = selector.select(
                candidates, self.observations, data_size, embedding, self._rng
            )
        return self._suggested(candidates, index)

    def _draw_candidates(self) -> Optional[np.ndarray]:
        """β-neighborhood candidates (``None``: tuning is off, suggest the default)."""
        if not self.tuning_active:
            telemetry.counter("centroid.suggests", mode="default").inc()
            return None
        return generate_candidates(
            self.space, self._centroid, self.beta, self.n_candidates, self._rng
        )

    def _gate_ready(self) -> bool:
        return (
            self.safe_gate is not None
            and len(self.observations.window) >= self.safe_gate.min_observations
        )

    def _suggested(self, candidates: np.ndarray, index: int) -> np.ndarray:
        telemetry.counter("centroid.suggests", mode="tuning").inc()
        active = telemetry.current_span()
        active.set_attr("candidate_index", int(index))
        active.set_attr("n_candidates", int(len(candidates)))
        return candidates[index]

    def observe(self, obs: Observation) -> None:
        if self.record(obs):
            self._update_centroid(obs)

    def coalesced_observe(self, obs: Observation):
        """:meth:`observe` with caller-supplied window-model predictions."""
        if not self.record(obs):
            return
        window = self.observations
        if self.find_best_mode is FindBestMode.MODEL:  # record() left >= 2 points
            predictions = yield ranking_rows(window, obs.data_size)
            c_star = window.window[int(np.argmin(predictions))].config
        else:
            c_star = find_best(window, mode=self.find_best_mode).config
        if self.gradient_mode == "ml":
            predictions = yield gradient_rows(
                self.space, c_star, obs.data_size, self.effective_alpha, self.probe
            )
            delta = sign_gradient(self.space.dim, predictions)
        else:
            delta = linear_sign_gradient(window)
        self._move_centroid(obs, c_star, delta)

    def record(self, obs: Observation) -> bool:
        """Append ``obs`` and run the switch/guardrail/window checks;
        ``True`` when the Alg.-1 centroid update is due."""
        super().observe(obs)
        if self.switch_detector is not None:
            decision = self.switch_detector.update(
                obs.performance, obs.data_size,
                embedding=obs.embedding, iteration=obs.iteration,
            )
            if decision.detected:
                self._re_anchor(obs, decision)
                return False
        if self.guardrail is not None:
            self.guardrail.update(obs)
            if not self.guardrail.active:
                telemetry.counter("centroid.updates_skipped", reason="guardrail").inc()
                return False
        if len(self.observations.window) < self.min_update_observations:
            telemetry.counter("centroid.updates_skipped", reason="window").inc()
            return False
        return True

    def _re_anchor(self, obs: Observation, decision) -> None:
        """Regime change: reset the window/guardrail, re-seed the centroid.

        The firing observation seeds the fresh window (it belongs to the new
        regime); the centroid either jumps to the retrieval warm start or
        stays put (the old optimum is still the best available guess).  The
        guardrail check and the Alg.-1 update are both skipped this step —
        one observation of a new regime supports neither.
        """
        window = ObservationWindow(self.observations.window_size)
        window.append(obs)
        self.observations = window
        self._n_updates = 0
        if self.guardrail is not None:
            self.guardrail.reset()
        self._centroid = self._warm_start_centroid(obs, self._centroid)
        self._count_reanchor(obs.iteration, decision, self._centroid)

    # The lock-step engine re-anchors its struct-of-arrays state itself and
    # shares these two halves of the policy with :meth:`_re_anchor`.

    def _warm_start_centroid(self, obs: Observation, centroid: np.ndarray) -> np.ndarray:
        """The new regime's centroid: ``switch_warm_start``'s vector, else ``centroid``."""
        if self.switch_warm_start is None:
            return centroid
        try:
            vector = self.switch_warm_start(obs)
        except Exception:  # noqa: BLE001 — a lost warm start beats a lost session
            telemetry.counter("switch.warm_start_failures").inc()
            return centroid
        if vector is None:
            return centroid
        telemetry.counter("switch.warm_starts").inc()
        return self.space.clip(np.asarray(vector, dtype=float))

    def _count_reanchor(self, iteration: int, decision, centroid: np.ndarray) -> None:
        """The ``switch.reanchors`` counter and ``switch.reanchor`` event."""
        self.reanchor_count += 1
        telemetry.counter("switch.reanchors", reason=decision.reason).inc()
        telemetry.emit(
            "switch.reanchor",
            iteration=iteration,
            reason=decision.reason,
            statistic=decision.statistic,
            centroid=centroid.tolist(),
        )

    @property
    def effective_alpha(self) -> float:
        """The current overshoot step: ``α / (1 + decay · n_updates)``."""
        return self.alpha / (1.0 + self.alpha_decay * self._n_updates)

    # -- the Alg.-1 update ------------------------------------------------------------

    def _update_centroid(self, latest: Observation) -> None:
        window = self.observations
        model = None
        if self.find_best_mode is FindBestMode.MODEL or self.gradient_mode == "ml":
            model = fit_window_model(window, self.model_factory)
        best_obs = find_best(
            window,
            mode=self.find_best_mode,
            model=model,
            model_factory=self.model_factory,
            fixed_data_size=latest.data_size,
        )
        if self.gradient_mode == "ml":
            delta = ml_sign_gradient(
                self.space, model, best_obs.config, latest.data_size,
                self.effective_alpha, probe=self.probe,
            )
        else:
            delta = linear_sign_gradient(window)
        self._move_centroid(latest, best_obs.config, delta)

    def _move_centroid(self, latest: Observation, c_star: np.ndarray, delta) -> None:
        """``e_{t+1} = c* ⊖ α·Δ`` and its ``centroid.update`` span/counters."""
        with telemetry.span("centroid.update", iteration=latest.iteration) as tspan:
            alpha = self.effective_alpha
            before = self._centroid
            self._centroid = probe_points(self.space, c_star, delta, alpha, self.probe)
            self._n_updates += 1
            self._last_gradient = np.asarray(delta, dtype=float)
            self._last_best = np.asarray(c_star, dtype=float)
            telemetry.counter("centroid.updates").inc()
            if telemetry.enabled():
                move = float(np.linalg.norm(self._centroid - before))
                telemetry.gauge("centroid.last_move_norm").set(move)
                tspan.set_attr("n_update", self._n_updates)
                tspan.set_attr("alpha", alpha)
                tspan.set_attr("centroid_before", before.tolist())
                tspan.set_attr("centroid_after", self._centroid.tolist())
                tspan.set_attr("c_star", self._last_best.tolist())
                tspan.set_attr("sign_gradient", self._last_gradient.tolist())
                tspan.set_attr("move_norm", move)


@dataclass(frozen=True)
class BatchProfile:
    """The window-model hyperparameters a batched fit needs."""

    alpha: float
    degree: int
    interaction_only: bool


def batch_profile_for(optimizer: Optimizer) -> Optional[BatchProfile]:
    """A :class:`BatchProfile` for a ``CentroidLearning`` whose window model
    is ``StandardScaler → PolynomialFeatures → RidgeRegression(fit_intercept=True)``
    — the model :func:`repro.ml.batched.fit_ridge_pipeline` reproduces
    bitwise — else ``None``.  The one test of "batchable window model" for the
    service's coalesced drains and the lock-step engine."""
    if type(optimizer) is not CentroidLearning:
        return None
    try:
        model = optimizer.model_factory()
    except Exception:  # noqa: BLE001 — an exploding factory is "not batchable"
        return None
    steps = [step for _, step in model.steps] if type(model) is Pipeline else []
    if [type(step) for step in steps] != [StandardScaler, PolynomialFeatures, RidgeRegression]:
        return None
    _, poly, ridge = steps
    if not ridge.fit_intercept:
        return None
    return BatchProfile(float(ridge.alpha), int(poly.degree), bool(poly.interaction_only))
