"""Differential oracles: one seeded workload, two redundant paths, diffed.

The repo maintains nine pairs of execution paths that must agree:

==========================  ==============================================  =========
pair                        contract                                        compare
==========================  ==============================================  =========
scalar vs. batch            ``SparkSimulator.run`` × N element-wise equals  bitwise
                            one ``run_batch`` (noise stream included)
serial vs. parallel         ``run_replicated_parallel`` is worker-count     bitwise
                            invariant (derived seeds, forked workers)
refit vs. incremental       ``GaussianProcessRegressor.update`` tracks a    atol
                            frozen-hyper full ``fit`` (rank-1 Cholesky
                            vs. O(n³) factorization — numerically equal,
                            not bit-equal)
live vs. replay             a JSONL-stored trace replays to the live        bitwise
                            observation history and guardrail verdicts,
                            through reordered/duplicated deliveries
lockstep vs. sequential     ``LockstepSessions`` advances a K-session       bitwise
                            fleet (noisy, guardrailed, fault-injected)
                            identically to K independent
                            ``TuningSession`` loops — records,
                            observation histories, guardrail verdicts
index vs. brute force       ``FlatIndex`` / full-probe ``IVFIndex`` top-k   ids exact,
                            equals an einsum brute-force stable sort over   atol dist
                            the same corpus (dgemm vs. einsum kernels —
                            equal ranking, distances to tolerance)
armed vs. unarmed detector  a ``TaskSwitchDetector``-armed session on a     bitwise
                            drift-free stream is indistinguishable from
                            its detector-free twin — the detector is
                            inert unless a regime actually changes
sharded vs. single          a fleet served by the sharded, queue-driven     bitwise
                            service (consistent-hash routing, batched
                            shard drains, per-shard backends) leaves
                            every tenant session's observation trail,
                            centroid walk, and counter map identical to
                            the single-backend scalar deployment —
                            minus ``service.*`` (deployment-shaped)
pruned vs. frozen full      a ``TuningSession`` over a                      bitwise
                            ``PrunedSpace`` (kept knobs tuned, dropped
                            knobs pinned to defaults) is
                            indistinguishable from the same session
                            tuning the kept knobs directly with the
                            dropped knobs frozen in the config dict —
                            every suggestion, full-space config,
                            observation, guardrail verdict and
                            centroid move
==========================  ==============================================  =========

Each driver runs both paths from the same seed, flattens them into *trails*
(one dict of comparable fields per step), and returns a :class:`DiffReport`
naming the first divergent step/field.  Where telemetry counters are part of
the contract the driver captures both sides' counter maps and diffs those
too, excluding namespaces that legitimately differ between modes (e.g.
``parallel.*`` counters carry a ``mode`` label).

``run_all`` sweeps all nine drivers — the one command every future PR can
run to show "the paths still agree".
"""

from __future__ import annotations

import tempfile
import warnings
from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .. import telemetry
from ..core.centroid import CentroidLearning
from ..core.config_space import ConfigSpace
from ..core.guardrail import Guardrail
from ..core.observation import Observation
from ..core.switch import SafeExplorationGate, TaskSwitchDetector
from ..experiments.fig15_internal_customers import workload_specs
from ..experiments.lockstep import LockstepSessions, SessionSpec, run_sequential
from ..experiments.parallel import run_replicated_parallel
from ..faults.injectors import FaultySimulator
from ..faults.plan import FaultKind, FaultPlan, FaultSpec
from ..ml.gp import GaussianProcessRegressor
from ..ml.kernels import Matern52Kernel
from ..service.replay import audit_guardrail, replay_artifact
from ..service.storage import StorageManager
from ..sparksim.configs import query_level_space
from ..sparksim.executor import SparkSimulator
from ..sparksim.noise import low_noise
from ..workloads.customer import generate_population
from ..workloads.synthetic import default_synthetic_objective
from ..workloads.tpch import tpch_plan

__all__ = [
    "DiffReport",
    "Divergence",
    "diff_live_replay",
    "diff_lockstep_sequential",
    "diff_pruned_full",
    "diff_refit_incremental",
    "diff_retrieval_bruteforce",
    "diff_scalar_batch",
    "diff_serial_parallel",
    "diff_sharded_single",
    "diff_switch_inert",
    "diff_trails",
    "run_all",
]


@dataclass(frozen=True)
class Divergence:
    """The first step/field where two trails disagree."""

    step: int
    field: str
    lhs: object
    rhs: object

    def __str__(self) -> str:
        return f"step {self.step}: {self.field}: {self.lhs!r} != {self.rhs!r}"


@dataclass
class DiffReport:
    """Outcome of one differential-oracle run."""

    name: str
    steps_compared: int
    tolerance: float = 0.0
    divergence: Optional[Divergence] = None
    length_mismatch: Optional[Tuple[int, int]] = None
    counter_diffs: Dict[str, Tuple[float, float]] = field(default_factory=dict)

    @property
    def equivalent(self) -> bool:
        return (
            self.divergence is None
            and self.length_mismatch is None
            and not self.counter_diffs
        )

    def summary(self) -> str:
        if self.equivalent:
            return (
                f"{self.name}: equivalent over {self.steps_compared} steps"
                + (f" (atol={self.tolerance:g})" if self.tolerance else "")
            )
        parts = [f"{self.name}: NOT equivalent"]
        if self.length_mismatch is not None:
            parts.append(f"trail lengths {self.length_mismatch[0]} != {self.length_mismatch[1]}")
        if self.divergence is not None:
            parts.append(str(self.divergence))
        if self.counter_diffs:
            parts.append(f"{len(self.counter_diffs)} counter(s) diverge: "
                         + ", ".join(sorted(self.counter_diffs)))
        return "; ".join(parts)


def _values_equal(a, b, tolerance: float) -> bool:
    """Field-level comparison: exact by default, atol for float payloads."""
    if isinstance(a, Mapping) and isinstance(b, Mapping):
        if set(a) != set(b):
            return False
        return all(_values_equal(a[k], b[k], tolerance) for k in a)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        if a.shape != b.shape:
            return False
        if tolerance:
            return bool(np.allclose(a, b, rtol=0.0, atol=tolerance, equal_nan=True))
        return bool(np.array_equal(a, b))
    if isinstance(a, float) and isinstance(b, float):
        if np.isnan(a) and np.isnan(b):
            return True
        if tolerance:
            return abs(a - b) <= tolerance
        return a == b
    return a == b


def diff_trails(
    name: str,
    trail_a: Sequence[Mapping[str, object]],
    trail_b: Sequence[Mapping[str, object]],
    tolerance: float = 0.0,
    counters_a: Optional[Mapping[str, float]] = None,
    counters_b: Optional[Mapping[str, float]] = None,
    ignore_counter_prefixes: Sequence[str] = (),
) -> DiffReport:
    """Diff two per-step trails (and optionally two counter maps).

    Steps are compared field-by-field in sorted field order; the first
    mismatch is recorded as the report's :class:`Divergence`.  A length
    mismatch is reported alongside whatever common prefix compared clean.
    """
    report = DiffReport(
        name=name,
        steps_compared=min(len(trail_a), len(trail_b)),
        tolerance=tolerance,
    )
    if len(trail_a) != len(trail_b):
        report.length_mismatch = (len(trail_a), len(trail_b))
    for step, (sa, sb) in enumerate(zip(trail_a, trail_b)):
        for fname in sorted(set(sa) | set(sb)):
            if fname not in sa or fname not in sb:
                report.divergence = Divergence(
                    step, fname, sa.get(fname, "<missing>"), sb.get(fname, "<missing>")
                )
                break
            if not _values_equal(sa[fname], sb[fname], tolerance):
                report.divergence = Divergence(step, fname, sa[fname], sb[fname])
                break
        if report.divergence is not None:
            break
    if counters_a is not None or counters_b is not None:
        counters_a = dict(counters_a or {})
        counters_b = dict(counters_b or {})
        for key in sorted(set(counters_a) | set(counters_b)):
            if any(key.startswith(prefix) for prefix in ignore_counter_prefixes):
                continue
            va, vb = counters_a.get(key, 0.0), counters_b.get(key, 0.0)
            if va != vb:
                report.counter_diffs[key] = (va, vb)
    telemetry.counter(
        "verify.diffs",
        driver=name,
        outcome="equivalent" if report.equivalent else "divergent",
    ).inc()
    return report


# -- driver 1: scalar vs. batch -----------------------------------------------------


def diff_scalar_batch(
    plan=None,
    space=None,
    n_configs: int = 32,
    seed: int = 0,
    data_scale: float = 1.0,
    noise=None,
) -> DiffReport:
    """N sequential ``run()`` calls vs. one ``run_batch`` — bitwise.

    Two identically-seeded simulators consume the same sampled configs; the
    batch side must reproduce observed/true seconds, configs, and metrics
    element-for-element (the noise stream advances per element, in batch
    order).  Counter trails are compared minus ``sparksim.*`` (batch-path
    cache counters differ by design).
    """
    plan = plan if plan is not None else tpch_plan(3)
    space = space if space is not None else query_level_space()
    noise = noise if noise is not None else low_noise()
    vectors = space.sample_vectors(n_configs, np.random.default_rng(seed))

    sim_scalar = SparkSimulator(noise=noise, seed=seed)
    sim_batch = SparkSimulator(noise=noise, seed=seed)
    with telemetry.capture() as cap_scalar:
        scalar_results = [
            sim_scalar.run(plan, space.to_dict(v), data_scale=data_scale)
            for v in vectors
        ]
    with telemetry.capture() as cap_batch:
        batch_results = sim_batch.run_batch(
            plan, vectors, space=space, data_scale=data_scale
        )

    def trail(results):
        return [
            {
                "observed_seconds": r.elapsed_seconds,
                "true_seconds": r.true_seconds,
                "data_size": r.data_size,
                "config": r.config,
                "metrics": r.metrics,
                "plan_signature": r.plan_signature,
            }
            for r in results
        ]

    return diff_trails(
        "scalar_vs_batch",
        trail(scalar_results),
        trail(batch_results),
        counters_a=cap_scalar.counters(),
        counters_b=cap_batch.counters(),
        ignore_counter_prefixes=("sparksim.",),
    )


# -- driver 2: serial vs. parallel --------------------------------------------------


def diff_serial_parallel(
    seed: int = 0,
    n_runs: int = 8,
    n_iterations: int = 12,
    n_workers: int = 2,
) -> DiffReport:
    """``run_replicated_parallel`` with 1 worker vs. ``n_workers`` — bitwise.

    Each replicate derives its RNG from ``seed*10007 + i`` and owns a fresh
    optimizer, so the runs matrix must be identical regardless of worker
    count.  Counter trails are compared minus ``parallel.*`` (those carry a
    ``mode`` label by design).  If the pool degrades to serial (e.g. no
    ``fork``), the comparison still holds — that fallback path is exactly
    what the bit-equality contract promises.
    """
    objective = default_synthetic_objective(seed=11)

    def factory(i: int) -> CentroidLearning:
        return CentroidLearning(objective.space, window_size=6, seed=1000 + i)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with telemetry.capture() as cap_serial:
            serial_runs, _ = run_replicated_parallel(
                factory, objective, n_iterations, n_runs, seed=seed, n_workers=1
            )
        with telemetry.capture() as cap_parallel:
            parallel_runs, _ = run_replicated_parallel(
                factory, objective, n_iterations, n_runs, seed=seed,
                n_workers=n_workers,
            )

    def trail(runs: np.ndarray):
        return [{"true_values": runs[i]} for i in range(runs.shape[0])]

    return diff_trails(
        "serial_vs_parallel",
        trail(serial_runs),
        trail(parallel_runs),
        counters_a=cap_serial.counters(),
        counters_b=cap_parallel.counters(),
        ignore_counter_prefixes=("parallel.",),
    )


# -- driver 3: full refit vs. incremental update ------------------------------------


def diff_refit_incremental(
    seed: int = 0,
    n_points: int = 40,
    n_init: int = 8,
    dim: int = 3,
    n_probes: int = 16,
    tolerance: float = 1e-7,
) -> DiffReport:
    """Rank-1 ``update`` vs. full ``fit`` after every appended point.

    Hyperparameters and normalization are frozen (``normalize_y=False``,
    ``optimize_hypers=False``) so both paths solve the same linear system;
    the rank-1 Cholesky append is numerically — not bitwise — equal to the
    full factorization, hence the atol.  Counters are not compared: the two
    paths increment ``gp.fits`` vs. ``gp.updates`` by design.
    """
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n_points, dim))
    w = rng.normal(size=dim)
    y = np.sin(X @ w) + 0.1 * np.sum(X * X, axis=1)
    probes = rng.uniform(-1.0, 1.0, size=(n_probes, dim))

    def fresh_gp() -> GaussianProcessRegressor:
        return GaussianProcessRegressor(
            kernel=Matern52Kernel(),
            noise=1e-4,
            normalize_y=False,
            optimize_hypers=False,
        )

    incremental = fresh_gp().fit(X[:n_init], y[:n_init])
    trail_inc, trail_ref = [], []
    for m in range(n_init, n_points):
        incremental.update(X[m:m + 1], float(y[m]))
        mean, std = incremental.predict_with_std(probes)
        trail_inc.append({"n": m + 1, "mean": mean, "std": std})
        reference = fresh_gp().fit(X[:m + 1], y[:m + 1])
        mean_r, std_r = reference.predict_with_std(probes)
        trail_ref.append({"n": m + 1, "mean": mean_r, "std": std_r})
    return diff_trails(
        "refit_vs_incremental", trail_inc, trail_ref, tolerance=tolerance
    )


# -- driver 4: live session vs. JSONL-trace replay ----------------------------------


def diff_live_replay(
    seed: int = 0,
    n_iterations: int = 40,
    cooldown: int = 5,
) -> DiffReport:
    """A live tuning loop vs. its trajectory replayed from stored events.

    The live loop emits sequenced ``QueryEndEvent``s into a file-backed
    :class:`StorageManager` — deliberately reversed, split across batches,
    and with a duplicated prefix — and ``replay_artifact`` must canonicalize
    that back to the exact live history.  The guardrail is then re-run over
    the replayed trajectory (``audit_guardrail``) and its full decision
    trail must match the live guardrail's, verdict for verdict.
    """
    plan = tpch_plan(6)
    space = query_level_space()

    def make_guardrail() -> Guardrail:
        return Guardrail(min_iterations=10, patience=2, cooldown=cooldown)

    simulator = SparkSimulator(noise=low_noise(), seed=seed)
    optimizer = CentroidLearning(
        space, window_size=8, seed=seed, guardrail=make_guardrail()
    )
    estimated = max(plan.total_leaf_cardinality, 1.0)
    events = []
    for t in range(n_iterations):
        vector = optimizer.suggest(data_size=estimated)
        config = space.to_dict(vector)
        event = simulator.run_to_event(
            plan, config,
            app_id="app-000", artifact_id="artifact-000", user_id="user-0",
            iteration=t,
        )
        event = replace(event, sequence=t)
        events.append(event)
        optimizer.observe(Observation(
            config=vector,
            data_size=event.data_size,
            performance=event.duration_seconds,
            iteration=t,
        ))

    with tempfile.TemporaryDirectory() as root:
        storage = StorageManager(root)
        # Adversarial delivery: reversed order, two batches, duplicated
        # prefix — replay must canonicalize all of it away.
        shuffled = list(reversed(events))
        half = len(shuffled) // 2
        storage.append_events("app-000", "artifact-000", shuffled[:half])
        storage.append_events("app-000", "artifact-000", shuffled[half:])
        storage.append_events("app-000", "artifact-000", events[:3])
        trajectories = replay_artifact(storage, "artifact-000")
    trajectory = trajectories[plan.signature()]
    audit = audit_guardrail(trajectory, space, guardrail_factory=make_guardrail)

    live_trail = [
        {
            "iteration": obs.iteration,
            "duration_seconds": obs.performance,
            "data_size": obs.data_size,
            "config": event.config,
        }
        for obs, event in zip(optimizer.observations.history, events)
    ]
    replay_trail = [
        {
            "iteration": e.iteration,
            "duration_seconds": e.duration_seconds,
            "data_size": e.data_size,
            "config": e.config,
        }
        for e in trajectory.events
    ]
    live_decisions = optimizer.guardrail.decisions
    for decisions, trail in (
        (live_decisions, live_trail), (audit.decisions, replay_trail)
    ):
        trail.extend(
            {
                "decision_iteration": d.iteration,
                "predicted_next": d.predicted_next,
                "previous": d.previous,
                "violated": d.violated,
            }
            for d in decisions
        )
    return diff_trails("live_vs_replay", live_trail, replay_trail)


# -- driver 5: lock-step fleet vs. sequential sessions ------------------------------


def diff_lockstep_sequential(
    seed: int = 0,
    n_workloads: int = 26,
    n_iterations: int = 12,
    fault_every: int = 5,
    lockstep_factory=None,
    switching: bool = False,
    safe: bool = False,
) -> DiffReport:
    """A lock-step session fleet vs. its K independent sequential twins.

    The population is fig-15-shaped: customer workloads with per-query
    plans, heteroscedastic noise, drifting data sizes, ``variance``/``drift``
    pathologies, a guardrail on every session, and every ``fault_every``-th
    session's simulator wrapped in a :class:`FaultySimulator` scheduling
    latency spikes.  Both engines build the population from the same seeds;
    the trails compare, bitwise:

    - per-iteration trace records across the fleet (config, observed/true
      seconds, data size, tuning-active flag) — the first divergent *step*
      names the iteration where lock-step left the sequential trajectory;
    - each optimizer's synced observation history (what downstream
      consumers — selectors, guardrails, replay — actually read);
    - each guardrail's full decision trail and final active flag;
    - telemetry counters, minus ``sparksim.*`` (the batched estimator path
      legitimately counts one batch where sequential counts K calls).

    ``lockstep_factory`` swaps the engine under test (the sensitivity suite
    passes a deliberately-broken subclass to prove the oracle catches a
    single-session perturbation at the faulting step).

    ``switching=True`` arms every session with a
    :class:`~repro.core.switch.TaskSwitchDetector` and gives each a
    staggered step-change in data scale (a 5× jump at ``4 + q % 4``), so
    sessions re-anchor at *different* steps — the ragged-epoch case the
    vectorized detector state must keep bit-identical.  Odd sessions get a
    deterministic warm-start hook; every sixth a failing one (the swallowed
    -failure path).  ``safe=True`` adds a uniform
    :class:`~repro.core.switch.SafeExplorationGate` to every session.
    """
    guardrail_factory = lambda: Guardrail(
        min_iterations=4, threshold=0.15, patience=2
    )
    space = query_level_space()

    def build_specs():
        population = generate_population(
            n_workloads, seed=seed, pathological_fraction=0.3,
            base_noise=(0.2, 0.5),
        )
        specs = []
        for i, workload in enumerate(population):
            for spec in workload_specs(
                workload, seed * 7 + i, guardrail_factory=guardrail_factory
            ):
                q = len(specs)
                if fault_every and q % fault_every == 0:
                    plan = FaultPlan(
                        [FaultSpec(FaultKind.LATENCY_SPIKE, at=(2, 7),
                                   magnitude=4.0)],
                        seed=seed * 31 + q,
                    )
                    spec = replace(
                        spec, simulator=FaultySimulator(spec.simulator, plan)
                    )
                if switching:
                    opt = spec.optimizer
                    opt.switch_detector = TaskSwitchDetector(
                        warmup=4, threshold=4.0, size_jump=3.0
                    )
                    if q % 2 == 1:
                        if q % 6 == 5:
                            def _failing_warm_start(obs):
                                raise RuntimeError("warm-start backend down")
                            opt.switch_warm_start = _failing_warm_start
                        else:
                            target = space.sample_vector(
                                np.random.default_rng(seed * 97 + q)
                            )
                            opt.switch_warm_start = (
                                lambda obs, _v=target: _v
                            )
                    base = spec.scale_fn
                    step_at = 4 + (q % 4)
                    spec.scale_fn = (
                        lambda t, _base=base, _at=step_at: (
                            (_base(t) if _base is not None else 1.0)
                            * (5.0 if t >= _at else 1.0)
                        )
                    )
                if safe:
                    spec.optimizer.safe_gate = SafeExplorationGate(
                        bound=0.5, min_observations=3
                    )
                specs.append(spec)
        return specs

    with telemetry.capture() as cap_seq:
        seq_specs = build_specs()
        seq_traces = run_sequential(seq_specs, n_iterations)
    with telemetry.capture() as cap_lock:
        lock_specs = build_specs()
        engine = (lockstep_factory or LockstepSessions)(lock_specs)
        lock_traces = engine.run(n_iterations)

    def trail(specs, traces):
        steps = []
        for t in range(n_iterations):
            records = [trace.records[t] for trace in traces]
            steps.append({
                "config": [r.config for r in records],
                "observed_seconds": np.array([r.observed_seconds for r in records]),
                "true_seconds": np.array([r.true_seconds for r in records]),
                "data_size": np.array([r.data_size for r in records]),
                "tuning_active": [r.tuning_active for r in records],
            })
        for spec in specs:
            history = spec.optimizer.observations.history
            steps.append({
                "obs_iterations": [o.iteration for o in history],
                "obs_configs": np.array([o.config for o in history]),
                "obs_performance": np.array([o.performance for o in history]),
                "obs_data_size": np.array([o.data_size for o in history]),
            })
        for spec in specs:
            guardrail = spec.optimizer.guardrail
            steps.append({
                "decisions": [
                    (d.iteration, d.predicted_next, d.previous, d.violated)
                    for d in guardrail.decisions
                ],
                "guardrail_active": guardrail.active,
                "guardrail_resets": guardrail.reset_count,
            })
        if switching:
            for spec in specs:
                det = spec.optimizer.switch_detector
                steps.append({
                    "switch_decisions": [
                        (d.iteration, d.statistic, d.bound, d.reason)
                        for d in det.detections
                    ],
                    "detector_state": det.to_state(),
                    "reanchors": spec.optimizer.reanchor_count,
                })
        return steps

    return diff_trails(
        "lockstep_vs_sequential",
        trail(seq_specs, seq_traces),
        trail(lock_specs, lock_traces),
        counters_a=cap_seq.counters(),
        counters_b=cap_lock.counters(),
        ignore_counter_prefixes=("sparksim.",),
    )


# -- driver 7: switch detector inert on drift-free streams --------------------------


def diff_switch_inert(
    seed: int = 0,
    n_sessions: int = 4,
    n_iterations: int = 16,
    detector_factory=None,
) -> DiffReport:
    """Detector-armed sessions vs. detector-free twins on drift-free streams.

    The task-switch detector must be *inert* when nothing switches: on a
    stationary workload (constant data scale, Eq.-8 noise only) a session
    with a :class:`~repro.core.switch.TaskSwitchDetector` attached must be
    bitwise identical to the same session without one — every suggestion,
    observation, guardrail verdict and centroid move.  The detector consumes
    no RNG and a non-detection changes no optimizer state, so any divergence
    means the detector fired a false alarm (or mutated state it must not
    touch).  Counter trails are compared minus ``switch.*`` (the armed side
    legitimately counts its per-step checks).

    ``detector_factory`` (``(session_index) -> TaskSwitchDetector``) swaps
    the detector under test — the sensitivity suite passes one rigged to
    fire at a planted step and pins the first divergence to the very next
    suggestion.
    """
    space = query_level_space()
    factory = detector_factory or (lambda q: TaskSwitchDetector())

    def build_specs(armed: bool):
        specs = []
        for q in range(n_sessions):
            specs.append(SessionSpec(
                plan=tpch_plan(1 + 2 * q),
                simulator=SparkSimulator(noise=low_noise(), seed=seed * 101 + q),
                optimizer=CentroidLearning(
                    space,
                    guardrail=Guardrail(
                        min_iterations=4, threshold=0.15, patience=2
                    ),
                    seed=seed * 13 + q,
                    switch_detector=factory(q) if armed else None,
                ),
            ))
        return specs

    with telemetry.capture() as cap_plain:
        plain_specs = build_specs(armed=False)
        plain_traces = run_sequential(plain_specs, n_iterations)
    with telemetry.capture() as cap_armed:
        armed_specs = build_specs(armed=True)
        armed_traces = run_sequential(armed_specs, n_iterations)

    def trail(specs, traces):
        steps = []
        for t in range(n_iterations):
            records = [trace.records[t] for trace in traces]
            steps.append({
                "config": [r.config for r in records],
                "observed_seconds": np.array(
                    [r.observed_seconds for r in records]
                ),
                "true_seconds": np.array([r.true_seconds for r in records]),
                "data_size": np.array([r.data_size for r in records]),
                "tuning_active": [r.tuning_active for r in records],
            })
        for spec in specs:
            history = spec.optimizer.observations.history
            steps.append({
                "obs_iterations": [o.iteration for o in history],
                "obs_configs": np.array([o.config for o in history]),
                "obs_performance": np.array([o.performance for o in history]),
                "reanchors": spec.optimizer.reanchor_count,
                "guardrail_resets": spec.optimizer.guardrail.reset_count,
            })
        return steps

    return diff_trails(
        "switch_inert",
        trail(plain_specs, plain_traces),
        trail(armed_specs, armed_traces),
        counters_a=cap_plain.counters(),
        counters_b=cap_armed.counters(),
        ignore_counter_prefixes=("switch.",),
    )


# -- driver 6: ANN index vs. brute force --------------------------------------------


def diff_retrieval_bruteforce(
    seed: int = 0,
    n_entries: int = 400,
    n_queries: int = 12,
    dim: int = 24,
    k: int = 10,
    tolerance: float = 1e-9,
) -> DiffReport:
    """ANN index search vs. an einsum brute-force reference — both metrics.

    The reference ranks the full corpus with the shape-independent einsum
    kernel of :mod:`repro.offline.similarity` and a stable
    ``lexsort(ids, distance)``; the :class:`~repro.retrieval.index
    .FlatIndex` (and an :class:`~repro.retrieval.index.IVFIndex` probing
    *every* list, whose candidate set is then the whole corpus) rank with
    the fast ``dgemm`` kernel.  The contract: identical neighbor ids —
    ordering and deterministic tie-breaks included (the corpus carries
    duplicated rows and self-queries to force exact ties) — with distances
    agreeing to ``tolerance`` (the two kernels reassociate differently, so
    distances are numerically, not bitwise, equal).  Euclidean distances
    are compared *squared*: the index recovers them from the norm
    expansion ``sqrt(|q|^2 - score)``, whose cancellation error near zero
    (~``sqrt(eps)·|q|``) dwarfs ``tolerance`` even when the squared
    distances agree to machine precision.
    """
    from ..retrieval.index import FlatIndex, IVFIndex

    rng = np.random.default_rng(seed)
    entries = rng.normal(size=(n_entries, dim))
    entries[n_entries // 2] = entries[0]       # duplicate rows → exact score ties
    entries[n_entries // 2 + 1] = entries[0]
    queries = rng.normal(size=(n_queries, dim))
    queries[0] = entries[0]                    # self-query over the duplicates
    ids = np.arange(n_entries)

    def reference(metric: str):
        if metric == "euclidean":
            dists = np.linalg.norm(entries[None, :, :] - queries[:, None, :], axis=2)
        else:
            dots = np.einsum("nd,qd->qn", entries, queries)
            norms = np.sqrt(np.einsum("nd,nd->n", entries, entries))
            qnorms = np.sqrt(np.einsum("qd,qd->q", queries, queries))
            dists = 1.0 - dots / np.maximum(norms[None, :] * qnorms[:, None], 1e-12)
        steps = []
        for row in range(n_queries):
            order = np.lexsort((ids, dists[row]))[:k]
            out = dists[row][order]
            if metric == "euclidean":
                out = out * out
            steps.append({"ids": ids[order], "distances": out})
        return steps

    def indexed(index, metric):
        got_ids, got_dists = index.search(queries, k)
        if metric == "euclidean":
            got_dists = got_dists * got_dists
        return [
            {"ids": got_ids[row], "distances": got_dists[row]}
            for row in range(n_queries)
        ]

    reports = []
    for metric in ("cosine", "euclidean"):
        flat = FlatIndex(dim, metric=metric)
        flat.add(entries)
        ivf = IVFIndex(dim, n_lists=8, metric=metric, nprobe=8, seed=seed)
        ivf.add(entries)
        ref = reference(metric)
        reports.append(diff_trails(
            f"retrieval_vs_bruteforce[{metric},flat]", indexed(flat, metric), ref,
            tolerance=tolerance,
        ))
        reports.append(diff_trails(
            f"retrieval_vs_bruteforce[{metric},ivf]", indexed(ivf, metric), ref,
            tolerance=tolerance,
        ))
    merged = DiffReport(
        name="retrieval_vs_bruteforce",
        steps_compared=sum(r.steps_compared for r in reports),
        tolerance=tolerance,
    )
    for r in reports:
        if r.divergence is not None and merged.divergence is None:
            merged.divergence = r.divergence
        if r.length_mismatch is not None and merged.length_mismatch is None:
            merged.length_mismatch = r.length_mismatch
    return merged


# -- driver 8: sharded service vs. single backend -----------------------------------


def diff_sharded_single(
    seed: int = 0,
    n_workloads: int = 8,
    n_iterations: int = 8,
    n_shards: int = 4,
    events: bool = True,
    mutate_sharded=None,
) -> DiffReport:
    """One fleet, two deployments: sharded batched service vs. single scalar.

    The same fleet spec (customer workload population, derived seeds) runs
    once against an ``n_shards``-way :class:`ShardedAutotuneService` with
    batched drains and per-shard backends, and once against the
    single-shard, scalar (``coalesce=False``) reference with one backend.
    Odd-indexed workloads are production-shaped — the paper guardrail, a
    task-switch detector and the safe gate — so the batched drain is checked
    on those tenants too, not only on plain Centroid Learning.
    The contract: every tenant session's observation history, centroid
    walk, update count, and request count — plus the whole telemetry
    counter map minus ``service.*`` (shard counts, queue stats, and
    handoffs are deployment-shaped by design) — is **bitwise identical**.
    This is what makes sharding and request coalescing safe to deploy: a
    tenant cannot tell how the fleet is sharded.

    Each trail step carries a ``session`` field, so a divergence names the
    offending tenant session and observation index directly.

    ``mutate_sharded`` (``(service) -> None``) perturbs the sharded arm
    before the fleet runs — the sensitivity suite passes
    ``lambda svc: svc.plant_misroute(...)`` to prove a hash-ring misroute
    (a session landing on the wrong shard without state handoff) is caught
    and pinned to the first divergent session/step.
    """
    from ..service.backend import AutotuneBackend
    from ..service.auth import SasTokenIssuer
    from ..service.fleet import build_fleet, fleet_user_map, run_fleet
    from ..service.sharded import ShardedAutotuneService

    def optimizer_factory(fleet):
        space = query_level_space()
        by_key = {(s.workload_id, s.signature): s for s in fleet}

        def build(workload_id: str, signature: str) -> CentroidLearning:
            session = by_key[(workload_id, signature)]
            odd = session.workload_index % 2 == 1
            return CentroidLearning(
                space, seed=session.optimizer_seed(seed),
                guardrail=Guardrail() if odd else None,
                switch_detector=(TaskSwitchDetector(warmup=4, threshold=4.0, size_jump=3.0)
                                 if odd else None),
                safe_gate=SafeExplorationGate() if odd else None,
            )
        return build

    def backend_factory(root):
        def build(shard_id: str) -> AutotuneBackend:
            return AutotuneBackend(
                storage=StorageManager(f"{root}/{shard_id}"),
                issuer=SasTokenIssuer(f"secret-{shard_id}"),
                query_space=query_level_space(),
                min_events_for_model=3,
            )
        return build

    def run_arm(root, arm_shards, coalesce, mutate=None):
        fleet = build_fleet(n_workloads, seed=seed)
        service = ShardedAutotuneService(
            arm_shards,
            optimizer_factory(fleet),
            coalesce=coalesce,
            backend_factory=backend_factory(root) if events else None,
            user_id_fn=fleet_user_map(fleet),
            queue_capacity=max(4096, 4 * len(fleet)),
        )
        if mutate is not None:
            mutate(service)
        with telemetry.capture() as cap:
            run_fleet(service, fleet, n_iterations, events=events)
        return service, cap

    def trail(service):
        steps = []
        for key in sorted(service.sessions()):
            session = service.sessions()[key]
            optimizer = session.optimizer
            for index, obs in enumerate(optimizer.observations.history):
                steps.append({
                    "session": key,
                    "index": index,
                    "config": obs.config,
                    "performance": obs.performance,
                    "data_size": obs.data_size,
                    "iteration": obs.iteration,
                })
            steps.append({
                "session": key,
                "index": "summary",
                "centroid": optimizer._centroid,
                "n_updates": optimizer._n_updates,
                "requests": session.requests,
            })
        return steps

    with tempfile.TemporaryDirectory() as root_sharded, \
            tempfile.TemporaryDirectory() as root_single:
        sharded, cap_sharded = run_arm(
            root_sharded, n_shards, coalesce=True, mutate=mutate_sharded
        )
        single, cap_single = run_arm(root_single, 1, coalesce=False)
        return diff_trails(
            "sharded_vs_single",
            trail(sharded),
            trail(single),
            counters_a=cap_sharded.counters(),
            counters_b=cap_single.counters(),
            ignore_counter_prefixes=("service.",),
        )


# -- driver 9: pruned subspace vs. frozen full space --------------------------------


class _FrozenFullSpace(ConfigSpace):
    """Independent reference arm for :func:`diff_pruned_full`.

    An ordinary :class:`ConfigSpace` over the kept parameters whose
    ``to_dict`` merges the frozen natural values of the dropped knobs back
    in, walking the full space's name order.  Deliberately *not* built on
    :class:`~repro.core.importance.PrunedSpace` — it shares no decode code
    with the arm under test, so agreement is evidence, not tautology.
    """

    def __init__(self, full_space, keep, frozen: Mapping[str, float]):
        keep = set(keep)
        super().__init__([p for p in full_space if p.name in keep])
        self._full_names = list(full_space.names)
        self._frozen = dict(frozen)

    def to_dict(self, vector):
        kept = super().to_dict(vector)
        return {
            name: kept[name] if name in kept else self._frozen[name]
            for name in self._full_names
        }

    def default_dict(self):
        return self.to_dict(self.default_vector())


def diff_pruned_full(
    seed: int = 0,
    n_iterations: int = 20,
    top_k: int = 3,
    pruned_space_factory=None,
) -> DiffReport:
    """Pruned-subspace tuning vs. frozen-knob full-space tuning — bitwise.

    A knob ranking (noiseless OAT + radial-Morris sweep) selects the
    ``top_k`` knobs of the 8-knob catalog.  Arm A runs a
    :class:`~repro.core.session.TuningSession` over a
    :class:`~repro.core.importance.PrunedSpace` (dropped knobs pinned at
    their defaults through the decode path); arm B runs the *same* session
    over a :class:`_FrozenFullSpace` — the kept parameters as a plain
    space, with the dropped knobs' natural defaults merged into every
    config dict by an independent code path.  Both optimizers see
    identical kept-knob spaces, so their RNG streams align; the contract
    is that every materialized full-space config, observation, guardrail
    verdict and centroid move matches bitwise.  Any decode misalignment —
    a pruned knob silently unpinned, a kept coordinate perturbed — breaks
    the config dict at the first step it materializes.

    ``pruned_space_factory`` (``(full_space, keep) -> PrunedSpace``) swaps
    arm A's space — the sensitivity suite passes a subclass that silently
    unpins one dropped knob from a planted step onward and pins the first
    divergence to exactly that step, on the ``config`` field.
    """
    from ..core.importance import PrunedSpace, rank_knobs
    from ..core.session import TuningSession
    from ..sparksim.configs import full_space as full_space_factory

    space = full_space_factory()
    plan = tpch_plan(3)
    ranking = rank_knobs(
        plan, space,
        simulator=SparkSimulator(noise=low_noise(), seed=seed),
        seed=seed,
    )
    keep = ranking.top(top_k)
    factory = pruned_space_factory or (
        lambda full, kept: PrunedSpace(full, kept)
    )
    pruned = factory(space, keep)
    frozen = _FrozenFullSpace(space, keep, pruned.pinned_dict())

    def run_arm(arm_space):
        simulator = SparkSimulator(noise=low_noise(), seed=seed * 101 + 1)
        optimizer = CentroidLearning(
            arm_space, window_size=8, seed=seed * 13 + 7,
            guardrail=Guardrail(min_iterations=4, threshold=0.15, patience=2),
        )
        session = TuningSession(plan, simulator, optimizer)
        with telemetry.capture() as cap:
            trace = session.run(n_iterations)
        return optimizer, trace, cap

    def trail(optimizer, trace):
        steps = [
            {
                "config": r.config,
                "observed_seconds": r.observed_seconds,
                "true_seconds": r.true_seconds,
                "data_size": r.data_size,
                "tuning_active": r.tuning_active,
            }
            for r in trace.records
        ]
        history = optimizer.observations.history
        steps.append({
            "obs_iterations": [o.iteration for o in history],
            "obs_configs": np.array([o.config for o in history]),
            "obs_performance": np.array([o.performance for o in history]),
        })
        steps.append({
            "centroid": optimizer._centroid,
            "n_updates": optimizer._n_updates,
            "decisions": [
                (d.iteration, d.predicted_next, d.previous, d.violated)
                for d in optimizer.guardrail.decisions
            ],
            "guardrail_active": optimizer.guardrail.active,
        })
        return steps

    opt_pruned, trace_pruned, cap_pruned = run_arm(pruned)
    opt_frozen, trace_frozen, cap_frozen = run_arm(frozen)
    return diff_trails(
        "pruned_vs_full",
        trail(opt_pruned, trace_pruned),
        trail(opt_frozen, trace_frozen),
        counters_a=cap_pruned.counters(),
        counters_b=cap_frozen.counters(),
    )


def run_all(seed: int = 0) -> Dict[str, DiffReport]:
    """Run every differential driver; keys are the report names."""
    reports: List[DiffReport] = [
        diff_scalar_batch(seed=seed),
        diff_serial_parallel(seed=seed),
        diff_refit_incremental(seed=seed),
        diff_live_replay(seed=seed),
        diff_lockstep_sequential(seed=seed),
        diff_retrieval_bruteforce(seed=seed),
        diff_switch_inert(seed=seed),
        diff_sharded_single(seed=seed),
        diff_pruned_full(seed=seed),
    ]
    return {report.name: report for report in reports}
