"""Metamorphic property suite (verify marker; needs hypothesis).

The strategies live in :mod:`repro.verify.properties`; this module states
the properties themselves:

* FIND_BEST (RAW/NORMALIZED) is invariant under permutation of the window;
* batch execution is bitwise-equivalent to scalar execution on arbitrary
  drawn plans/seeds (the property form of ``verify.diff.diff_scalar_batch``);
* normalized encodings are invariant under uniform rescaling of a space's
  natural units;
* fault plans are pure functions of ``(seed, kind, opportunity)`` and
  per-kind independent;
* Eq.-8 noise is stream-deterministic and never deflates the baseline;
* noise-free Centroid Learning converges on the convex synthetic surface;
* a lock-step population of K=1 is bitwise the plain ``TuningSession`` loop
  on arbitrary drawn plans/noise/hyperparameters/faults;
* lock-step traces are invariant under permutation of the session order
  (including populations mixing faulty and clean simulators).
"""

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.centroid import CentroidLearning
from repro.core.config_space import ConfigSpace, Parameter
from repro.core.find_best import FindBestMode, find_best
from repro.core.observation import Observation, ObservationWindow
from repro.experiments.lockstep import LockstepSessions
from repro.faults.plan import FaultKind, FaultPlan
from repro.sparksim.noise import no_noise
from repro.verify.diff import diff_scalar_batch
from repro.verify.properties import (
    config_spaces,
    fault_plans,
    lockstep_populations,
    noise_models,
    observations,
    physical_plans,
    seeds,
    unit_vectors,
)
from repro.workloads.synthetic import default_synthetic_objective

pytestmark = pytest.mark.verify

RELAXED = settings(
    max_examples=20,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
EXPENSIVE = settings(
    max_examples=8,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# -- FIND_BEST permutation invariance -----------------------------------------------


@st.composite
def windows_with_permutation(draw):
    space = draw(config_spaces(max_dim=3))
    n = draw(st.integers(min_value=1, max_value=8))
    obs = [draw(observations(space, iteration=i)) for i in range(n)]
    permuted = draw(st.permutations(obs))
    return obs, permuted


def _window_of(obs):
    window = ObservationWindow(max(len(obs), 2))
    for o in obs:
        window.append(o)
    return window


@RELAXED
@given(data=windows_with_permutation())
def test_find_best_raw_is_permutation_invariant(data):
    obs, permuted = data
    best_a = find_best(_window_of(obs), mode=FindBestMode.RAW)
    best_b = find_best(_window_of(permuted), mode=FindBestMode.RAW)
    # Ties may resolve to different observations; the winning *criterion
    # value* must be identical.
    assert best_a.performance == best_b.performance


@RELAXED
@given(data=windows_with_permutation())
def test_find_best_normalized_is_permutation_invariant(data):
    obs, permuted = data
    best_a = find_best(_window_of(obs), mode=FindBestMode.NORMALIZED)
    best_b = find_best(_window_of(permuted), mode=FindBestMode.NORMALIZED)
    assert (best_a.performance / best_a.data_size
            == best_b.performance / best_b.data_size)


# -- scalar/batch equivalence on drawn workloads ------------------------------------


@EXPENSIVE
@given(plan=physical_plans(), seed=seeds(), n=st.integers(min_value=2, max_value=5))
def test_batch_execution_matches_scalar_on_drawn_plans(plan, seed, n):
    report = diff_scalar_batch(plan=plan, n_configs=n, seed=seed)
    assert report.equivalent, report.summary()


# -- scale invariance of normalized encodings ---------------------------------------


@RELAXED
@given(
    space=config_spaces(allow_integer=False),
    data=st.data(),
    k=st.floats(min_value=1e-3, max_value=1e3),
)
def test_normalized_encoding_is_scale_invariant(space, data, k):
    unit = data.draw(unit_vectors(space))
    vec = space.denormalize(unit)
    naturals = [p.to_natural(vec[i]) for i, p in enumerate(space)]
    scaled_space = ConfigSpace([
        Parameter(
            name=p.name,
            low=p.low * k,
            high=p.high * k,
            default=min(max(p.default * k, p.low * k), p.high * k),
            log_scale=p.log_scale,
        )
        for p in space
    ])
    scaled_vec = np.array([
        p.to_internal(naturals[i] * k) for i, p in enumerate(scaled_space)
    ])
    assert np.allclose(
        space.normalize(vec), scaled_space.normalize(scaled_vec), atol=1e-6
    )


# -- fault-plan determinism ---------------------------------------------------------


def _twin(plan: FaultPlan) -> FaultPlan:
    specs = [plan.spec(k) for k in FaultKind if plan.spec(k) is not None]
    return FaultPlan(specs, seed=plan.seed)


@RELAXED
@given(plan=fault_plans(), n=st.integers(min_value=1, max_value=30))
def test_fault_plans_replay_identically(plan, n):
    twin = _twin(plan)
    decisions = {
        kind: [plan.should_fire(kind) for _ in range(n)] for kind in FaultKind
    }
    replayed = {
        kind: [twin.should_fire(kind) for _ in range(n)] for kind in FaultKind
    }
    assert decisions == replayed
    assert plan.log == twin.log


@RELAXED
@given(plan=fault_plans(max_kinds=3), n=st.integers(min_value=1, max_value=30))
def test_fault_kinds_are_mutually_independent(plan, n):
    scheduled = [k for k in FaultKind if plan.spec(k) is not None]
    if not scheduled:
        return
    kind = scheduled[0]
    # Full plan interleaves every kind; the solo plan sees only `kind`.
    full = _twin(plan)
    solo = FaultPlan([plan.spec(kind)], seed=plan.seed)
    full_decisions = []
    solo_decisions = []
    for _ in range(n):
        for k in scheduled:
            fired = full.should_fire(k)
            if k is kind:
                full_decisions.append(fired)
        solo_decisions.append(solo.should_fire(kind))
    assert full_decisions == solo_decisions


# -- Eq.-8 noise determinism and inflation ------------------------------------------


@RELAXED
@given(
    noise=noise_models(),
    seed=seeds(),
    baselines=st.lists(
        st.floats(min_value=1e-3, max_value=1e6), min_size=1, max_size=6
    ),
)
def test_noise_is_stream_deterministic_and_inflating(noise, seed, baselines):
    draws = [noise.apply(g0, np.random.default_rng(seed + i))
             for i, g0 in enumerate(baselines)]
    replayed = [noise.apply(g0, np.random.default_rng(seed + i))
                for i, g0 in enumerate(baselines)]
    assert draws == replayed
    for g0, g in zip(baselines, draws):
        assert g >= g0
    arr = np.array(baselines)
    many_a = noise.apply_many(arr, np.random.default_rng(seed))
    many_b = noise.apply_many(arr, np.random.default_rng(seed))
    assert np.array_equal(many_a, many_b)
    assert np.all(many_a >= arr)


# -- lock-step engine: K=1 degeneracy and session-order invariance ------------------


def _assert_same_trace(a, b):
    assert len(a.records) == len(b.records)
    for ra, rb in zip(a.records, b.records):
        assert ra == rb  # frozen dataclass: bitwise field-tuple equality


@EXPENSIVE
@given(
    build=lockstep_populations(min_sessions=1, max_sessions=1),
    n=st.integers(min_value=3, max_value=10),
)
def test_lockstep_k1_is_the_plain_tuning_session(build, n):
    # A fleet of one must degenerate to TuningSession exactly — same
    # suggestions, same noise/fault streams, same guardrail verdicts.
    lock_specs, seq_specs = build(), build()
    lock_trace = LockstepSessions(lock_specs).run(n)[0]
    seq_trace = seq_specs[0].to_session().run(n)
    _assert_same_trace(lock_trace, seq_trace)
    lock_opt, seq_opt = lock_specs[0].optimizer, seq_specs[0].optimizer
    assert np.array_equal(lock_opt.centroid, seq_opt.centroid)
    assert [o.performance for o in lock_opt.observations.history] == [
        o.performance for o in seq_opt.observations.history
    ]
    if lock_opt.guardrail is not None:
        assert lock_opt.guardrail.to_state() == seq_opt.guardrail.to_state()
        assert lock_opt.guardrail.active == seq_opt.guardrail.active


@EXPENSIVE
@given(
    build=lockstep_populations(min_sessions=2, max_sessions=5),
    data=st.data(),
    n=st.integers(min_value=3, max_value=8),
)
def test_lockstep_is_invariant_under_session_reordering(build, data, n):
    # Sessions are independent: running the same population in a permuted
    # order (faulty and clean simulators mixed) must yield each session's
    # exact trace, just relabeled.
    specs_a, specs_b = build(), build()
    perm = data.draw(st.permutations(list(range(len(specs_a)))))
    traces_a = LockstepSessions(specs_a).run(n)
    traces_b = LockstepSessions([specs_b[i] for i in perm]).run(n)
    for pos, original in enumerate(perm):
        _assert_same_trace(traces_a[original], traces_b[pos])


# -- noise-free convergence on the convex synthetic surface -------------------------


@EXPENSIVE
@given(seed=st.integers(min_value=0, max_value=100))
def test_noise_free_centroid_learning_converges(seed):
    objective = default_synthetic_objective(noise=no_noise(), seed=7 + seed % 5)
    optimizer = CentroidLearning(objective.space, window_size=6, seed=seed)
    rng = np.random.default_rng(seed + 999)
    best = np.inf
    for t in range(25):
        vector = optimizer.suggest(data_size=1000.0)
        performance = objective.observe(vector, 1000.0, rng)
        optimizer.observe(Observation(
            config=vector, data_size=1000.0,
            performance=performance, iteration=t,
        ))
        best = min(best, objective.true_value(vector))
    default_value = objective.true_value(objective.space.default_vector())
    initial_gap = objective.optimality_gap(objective.space.default_vector())
    final_gap = objective.optimality_gap(optimizer.centroid)
    # Empirical margins over 40 seeds: best/default <= 0.33, gap ratio
    # <= 0.39 — the bounds below leave ~2x headroom.
    assert best <= 0.6 * default_value
    assert final_gap <= 0.7 * initial_gap
