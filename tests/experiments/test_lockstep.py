"""Tier-1 tests for the lock-step vectorized session engine.

The heavyweight differential/property evidence lives in the ``verify``
suite (``repro.verify.diff.diff_lockstep_sequential``,
``tests/verify/test_properties.py``); this module keeps a fast tier-1
pin on the core contract — bit-identity to the sequential loop on a small
mixed population — plus the compatibility-validation and state-sync
behavior.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.core.centroid import CentroidLearning
from repro.core.config_space import ConfigSpace, Parameter
from repro.core.guardrail import Guardrail
from repro.core.observation import Observation
from repro.core.switch import SafeExplorationGate, TaskSwitchDetector
from repro.experiments.lockstep import (
    LockstepCompatibilityError,
    LockstepReplicatedRuns,
    LockstepSessions,
    SessionSpec,
    run_sequential,
)
from repro.experiments.runner import run_replicated, run_single
from repro.faults import FaultKind, FaultPlan, FaultSpec, FaultySimulator
from repro.optimizers.random_search import RandomSearch
from repro.sparksim.configs import full_space, query_level_space
from repro.sparksim.executor import SparkSimulator
from repro.sparksim.noise import NoiseModel, no_noise
from repro.workloads.dynamics import LinearGrowth
from repro.workloads.synthetic import default_synthetic_objective
from repro.workloads.tpch import tpch_plan

N_ITERATIONS = 8


def mixed_population():
    """Six sessions: two plans, noise spread, faults, drift, a transform."""
    space = query_level_space()
    specs = []
    for k in range(6):
        simulator = SparkSimulator(
            noise=NoiseModel(fluctuation_level=0.1 * k, spike_level=0.3 * k),
            seed=50 + k,
        )
        if k % 3 == 0:
            simulator = FaultySimulator(simulator, FaultPlan(
                [FaultSpec(FaultKind.LATENCY_SPIKE, at=(1, 4), magnitude=3.0)],
                seed=k,
            ))
        specs.append(SessionSpec(
            plan=tpch_plan(3 if k % 2 else 6),
            simulator=simulator,
            optimizer=CentroidLearning(
                space,
                alpha=0.05 + 0.01 * k, beta=0.08 + 0.02 * k,
                guardrail=Guardrail(min_iterations=3, threshold=0.2,
                                    patience=2, cooldown=3),
                seed=k,
            ),
            scale_fn=(lambda t: 1.0 + 0.05 * t) if k == 2 else None,
            observe_transform=(lambda t, obs: obs * 1.1) if k == 4 else None,
        ))
    return specs


MIXED_ITERATIONS = 16


def mixed_guardrail_population():
    """Guarded and unguarded sessions side by side, each guardrail with its
    own parameters; a steady input climb trips most of them, and the
    cooldown sessions re-enable on probation."""
    specs = []
    for k, spec in enumerate(mixed_population() + mixed_population()):
        if k % 4 == 3:
            spec.optimizer.guardrail = None
        else:
            spec.optimizer.guardrail = Guardrail(
                min_iterations=3 + k % 3,
                threshold=0.05 + 0.05 * (k % 2),
                patience=1 + k % 2,
                fit_window=3 + k % 4,
                cooldown=(None, 2, 3)[k % 3],
            )
        spec.scale_fn = lambda t, _r=0.1 + 0.05 * (k % 3): 1.0 + _r * t
        specs.append(spec)
    return specs


def assert_traces_equal(lock_traces, seq_traces):
    assert len(lock_traces) == len(seq_traces)
    for lock, seq in zip(lock_traces, seq_traces):
        assert lock.records == seq.records


class TestBitIdentity:
    def test_mixed_population_matches_sequential(self):
        lock_traces = LockstepSessions(mixed_population()).run(N_ITERATIONS)
        seq_traces = run_sequential(mixed_population(), N_ITERATIONS)
        assert_traces_equal(lock_traces, seq_traces)

    def test_single_session_matches_plain_session(self):
        spec = mixed_population()[1]
        lock_trace = LockstepSessions([mixed_population()[1]]).run(N_ITERATIONS)[0]
        seq_trace = spec.to_session().run(N_ITERATIONS)
        assert lock_trace.records == seq_trace.records

    def test_advance_is_resumable(self):
        # Two advances of 4 equal one run of 8 — the engine's buffers and
        # model memoization survive the boundary.
        split = LockstepSessions(mixed_population())
        split.advance(4)
        split.advance(4)
        whole_traces = LockstepSessions(mixed_population()).run(8)
        assert_traces_equal(split.traces(), whole_traces)

    def test_mixed_detectors_and_gates_match_sequential(self):
        # Unarmed sessions next to armed ones with their own detector
        # parameters, per-session gate bounds, a warm start and a failing
        # one; a 5x input step at step 4 makes every armed session fire.
        def failing_warm_start(obs):
            raise RuntimeError("warm-start backend down")

        def population():
            specs = mixed_population()
            space = specs[0].optimizer.space
            for k, spec in enumerate(specs):
                opt = spec.optimizer
                if k % 3:
                    opt.switch_detector = TaskSwitchDetector(
                        warmup=2 + k % 2, threshold=2.0 + k, size_jump=3.0
                    )
                opt.safe_gate = SafeExplorationGate(bound=0.1 * (k + 1))
                base = spec.scale_fn or (lambda t: 1.0)
                spec.scale_fn = lambda t, _b=base: _b(t) * (5.0 if t >= 4 else 1.0)
            specs[1].optimizer.switch_warm_start = lambda obs: space.default_vector()
            specs[2].optimizer.switch_warm_start = failing_warm_start
            return specs

        lock_specs = population()
        lock_traces = LockstepSessions(lock_specs).run(10)
        seq_specs = population()
        assert_traces_equal(lock_traces, run_sequential(seq_specs, 10))
        for lock_spec, seq_spec in zip(lock_specs, seq_specs):
            lock_opt, seq_opt = lock_spec.optimizer, seq_spec.optimizer
            assert np.array_equal(lock_opt.centroid, seq_opt.centroid)
            assert lock_opt.reanchor_count == seq_opt.reanchor_count
            assert lock_opt.guardrail.reset_count == seq_opt.guardrail.reset_count
            assert lock_opt.guardrail.decisions == seq_opt.guardrail.decisions
            if seq_opt.switch_detector is not None:
                assert seq_opt.reanchor_count >= 1
                assert (lock_opt.switch_detector.to_state()
                        == seq_opt.switch_detector.to_state())

    def test_mixed_guardrail_fleet_matches_sequential(self):
        lock_specs = mixed_guardrail_population()
        lock_traces = LockstepSessions(lock_specs).run(MIXED_ITERATIONS)
        seq_specs = mixed_guardrail_population()
        assert_traces_equal(lock_traces, run_sequential(seq_specs, MIXED_ITERATIONS))
        reenabled = 0
        for lock_spec, seq_spec in zip(lock_specs, seq_specs):
            lock_g, seq_g = lock_spec.optimizer.guardrail, seq_spec.optimizer.guardrail
            if seq_g is None:
                assert lock_g is None
                continue
            assert lock_g.to_state() == seq_g.to_state()  # counts and decisions too
            reenabled += seq_g.reenable_count
        # The population exercises the cooldown path, not only disables.
        assert reenabled >= 1

    def test_high_dimensional_space_matches_sequential(self):
        # d = 14 > 12: the sign search is core's coordinate-wise one.
        space = ConfigSpace(list(full_space()) + [
            Parameter(name=f"extra.knob{i}", low=0.0, high=10.0, default=5.0)
            for i in range(6)
        ])
        assert space.dim == 14

        def population():
            return [
                SessionSpec(
                    plan=tpch_plan(3 if k % 2 else 6),
                    simulator=SparkSimulator(
                        noise=NoiseModel(fluctuation_level=0.1 * k), seed=70 + k
                    ),
                    optimizer=CentroidLearning(
                        space, alpha=0.05 + 0.01 * k,
                        guardrail=Guardrail(min_iterations=3, threshold=0.2,
                                            patience=2, cooldown=3),
                        seed=k,
                    ),
                    scale_fn=LinearGrowth(initial=1.0, slope=0.05 * (k + 1)),
                )
                for k in range(5)
            ]

        lock_specs = population()
        lock_traces = LockstepSessions(lock_specs).run(20)
        seq_specs = population()
        assert_traces_equal(lock_traces, run_sequential(seq_specs, 20))
        for lock_spec, seq_spec in zip(lock_specs, seq_specs):
            lock_opt, seq_opt = lock_spec.optimizer, seq_spec.optimizer
            assert np.array_equal(lock_opt.centroid, seq_opt.centroid)
            assert np.array_equal(lock_opt.last_gradient, seq_opt.last_gradient)
            assert lock_opt.guardrail.decisions == seq_opt.guardrail.decisions


class TestStateSync:
    def test_optimizers_usable_after_run(self):
        specs = mixed_population()
        LockstepSessions(specs).run(N_ITERATIONS)
        seq_specs = mixed_population()
        run_sequential(seq_specs, N_ITERATIONS)
        for lock_spec, seq_spec in zip(specs, seq_specs):
            lock_opt, seq_opt = lock_spec.optimizer, seq_spec.optimizer
            assert np.array_equal(lock_opt.centroid, seq_opt.centroid)
            assert len(lock_opt.observations) == len(seq_opt.observations)
            for a, b in zip(lock_opt.observations.history,
                            seq_opt.observations.history):
                assert np.array_equal(a.config, b.config)
                assert a.performance == b.performance
                assert a.data_size == b.data_size
                assert a.iteration == b.iteration
            assert lock_opt.guardrail.decisions == seq_opt.guardrail.decisions
            assert lock_opt.guardrail.active == seq_opt.guardrail.active
            # The synced optimizer keeps tuning standalone, deterministically.
            va = lock_opt.suggest(data_size=1000.0)
            vb = seq_opt.suggest(data_size=1000.0)
            assert np.array_equal(va, vb)

    def test_tuning_active_reflects_guardrail_state(self):
        specs = mixed_guardrail_population()
        engine = LockstepSessions(specs)
        seq_specs = mixed_guardrail_population()
        seq_sessions = [spec.to_session() for spec in seq_specs]
        seen_disabled = False
        for _ in range(MIXED_ITERATIONS):
            engine.advance(1)
            for session in seq_sessions:
                session.step()
            active = engine.tuning_active
            assert active.dtype == bool
            own = [spec.optimizer.tuning_active for spec in specs]
            assert active.tolist() == own
            assert own == [spec.optimizer.tuning_active for spec in seq_specs]
            seen_disabled = seen_disabled or not all(own)
        assert seen_disabled

    def test_guardrail_check_spans_match_sequential(self):
        # Each guarded session's own judge()/hold() opens the same
        # guardrail.check spans and emits the same guardrail events and
        # counters as its sequential twin (sessions interleave differently,
        # so the signals compare as multisets).
        def signals(capture):
            spans = sorted(repr(sorted(record.attributes.items())) for record in
                           capture.spans.by_name("guardrail.check"))
            events = sorted(repr((event.name, sorted(event.fields.items())))
                            for event in capture.events.records
                            if event.name.startswith("guardrail."))
            counters = {key: value for key, value in capture.counters().items()
                        if key.startswith("guardrail.")}
            return spans, events, counters

        with telemetry.capture() as cap_seq:
            run_sequential(mixed_guardrail_population(), MIXED_ITERATIONS)
        with telemetry.capture() as cap_lock:
            LockstepSessions(mixed_guardrail_population()).run(MIXED_ITERATIONS)
        spans, events, counters = signals(cap_seq)
        assert spans and events and counters["guardrail.reenables"] >= 1
        assert signals(cap_lock) == (spans, events, counters)


class TestValidation:
    def test_rejects_non_centroid_optimizer(self):
        space = query_level_space()
        spec = SessionSpec(
            plan=tpch_plan(3),
            simulator=SparkSimulator(noise=no_noise(), seed=0),
            optimizer=RandomSearch(space, seed=0),
        )
        with pytest.raises(LockstepCompatibilityError, match="CentroidLearning"):
            LockstepSessions([spec])

    def test_rejects_subclassed_optimizer(self):
        class Tweaked(CentroidLearning):
            pass

        spec = mixed_population()[0]
        spec.optimizer = Tweaked(query_level_space(), seed=0)
        with pytest.raises(LockstepCompatibilityError, match="CentroidLearning"):
            LockstepSessions([spec])

    def test_rejects_shared_guardrail_instance(self):
        specs = mixed_population()[:2]
        specs[1].optimizer.guardrail = specs[0].optimizer.guardrail
        with pytest.raises(LockstepCompatibilityError, match="own guardrail instance"):
            LockstepSessions(specs)

    def test_rejects_robust_guardrail(self):
        spec = mixed_population()[0]
        spec.optimizer.guardrail = Guardrail(min_iterations=3, robust=True)
        with pytest.raises(LockstepCompatibilityError, match="non-robust"):
            LockstepSessions([spec])

    def test_rejects_nonuniform_window_size(self):
        specs = mixed_population()[:2]
        specs[1].optimizer = CentroidLearning(
            query_level_space(), window_size=4,
            guardrail=Guardrail(min_iterations=3, threshold=0.2,
                                patience=2, cooldown=3),
            seed=1,
        )
        with pytest.raises(LockstepCompatibilityError, match="window_size"):
            LockstepSessions(specs)

    def test_rejects_stale_optimizer(self):
        spec = mixed_population()[0]
        spec.optimizer.observe(Observation(
            config=spec.optimizer.space.default_vector(),
            data_size=100.0, performance=1.0, iteration=0,
        ))
        with pytest.raises(LockstepCompatibilityError, match="fresh"):
            LockstepSessions([spec])

    def test_rejects_empty_population(self):
        with pytest.raises(LockstepCompatibilityError, match="at least one"):
            LockstepSessions([])


class TestLockstepReplicatedRuns:
    @pytest.fixture
    def objective(self):
        return default_synthetic_objective(seed=2)

    def test_matches_run_single_bitwise(self, objective):
        n_runs, seed = 5, 3
        optimizers = [
            CentroidLearning(objective.space, seed=100 + i) for i in range(n_runs)
        ]
        engine = LockstepReplicatedRuns(
            optimizers,
            objective,
            [LinearGrowth(initial=objective.reference_size, slope=25.0)
             for _ in range(n_runs)],
            [np.random.default_rng(seed * 10007 + i) for i in range(n_runs)],
        )
        engine.advance(N_ITERATIONS)
        for track in ("true", "normed", "gap"):
            matrix = engine.runs(track)
            for i in range(n_runs):
                expected = run_single(
                    CentroidLearning(objective.space, seed=100 + i),
                    objective, N_ITERATIONS,
                    size_process=LinearGrowth(
                        initial=objective.reference_size, slope=25.0
                    ),
                    rng=np.random.default_rng(seed * 10007 + i),
                    track=track,
                )
                assert np.array_equal(matrix[i], expected)

    def test_rejects_unknown_track(self, objective):
        engine = LockstepReplicatedRuns(
            [CentroidLearning(objective.space, seed=0)],
            objective,
            [LinearGrowth(initial=objective.reference_size, slope=0.0)],
            [np.random.default_rng(0)],
        )
        engine.advance(2)
        with pytest.raises(ValueError, match="track"):
            engine.runs("median")


class TestRunReplicatedEngineParam:
    @pytest.fixture
    def objective(self):
        return default_synthetic_objective(seed=2)

    def test_lockstep_matches_process_bitwise(self, objective):
        kwargs = dict(
            objective=objective, n_iterations=6, n_runs=4, seed=5, track="gap",
        )
        factory = lambda i: CentroidLearning(objective.space, seed=10 + i)
        a = run_replicated(factory, engine="process", n_workers=1, **kwargs)
        b = run_replicated(factory, engine="lockstep", **kwargs)
        assert np.array_equal(a.runs, b.runs)

    def test_auto_falls_back_for_incompatible_populations(self, objective):
        bands = run_replicated(
            lambda i: RandomSearch(objective.space, seed=i),
            objective, 4, 3, seed=1, engine="auto", n_workers=1,
        )
        assert bands.runs.shape == (3, 4)

    def test_lockstep_engine_is_strict(self, objective):
        with pytest.raises(LockstepCompatibilityError):
            run_replicated(
                lambda i: RandomSearch(objective.space, seed=i),
                objective, 4, 3, seed=1, engine="lockstep",
            )

    def test_rejects_unknown_engine(self, objective):
        with pytest.raises(ValueError, match="engine"):
            run_replicated(
                lambda i: CentroidLearning(objective.space, seed=i),
                objective, 4, 3, engine="threads",
            )

    def test_collect_hook_returns_per_run_payloads(self, objective):
        bands, payloads = run_replicated(
            lambda i: CentroidLearning(objective.space, seed=i),
            objective, 5, 3, seed=2, engine="lockstep",
            collect=lambda opt: opt.centroid.copy(),
        )
        assert bands.runs.shape == (3, 5)
        assert len(payloads) == 3
        for payload in payloads:
            assert payload.shape == (objective.space.dim,)
