"""Tests for the vectorized batch evaluation pipeline.

The contract under test is *golden equivalence*: ``estimate_batch`` replays
the scalar cost-model arithmetic column-wise in the same operation order, so
batch results must match the per-config scalar reference not just within the
ISSUE's 1e-9 tolerance but bitwise — and ``run_batch`` must consume the
simulator's noise stream in exactly the order N sequential ``run`` calls
would.
"""

import time

import numpy as np
import pytest

from repro import telemetry
from repro.faults.injectors import FaultySimulator
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.sparksim.batch import (
    ConfigColumns,
    PlanArrays,
    clear_plan_arrays_cache,
    plan_arrays,
    plan_arrays_cache_stats,
    resolve_layouts,
)
from repro.sparksim.cluster import ExecutorLayout, default_pool
from repro.sparksim.configs import full_space, query_level_space
from repro.sparksim.cost_model import CostModel
from repro.sparksim.executor import SparkSimulator
from repro.sparksim.noise import low_noise, no_noise
from repro.sparksim.plan import Operator, OpType, PhysicalPlan
from repro.workloads.tpcds import tpcds_plan
from repro.workloads.tpch import tpch_plan
from tests.sparksim.reference_cost import estimate_reference


@pytest.fixture
def model():
    return CostModel()


def degenerate_join_plan():
    """A self-join: the JOIN has a single child."""
    rows = 5_000_000
    return PhysicalPlan([
        Operator(op_id=0, op_type=OpType.TABLE_SCAN, est_rows_in=rows,
                 est_rows_out=rows, row_bytes=120.0),
        Operator(op_id=1, op_type=OpType.JOIN, est_rows_in=rows,
                 est_rows_out=rows // 2, row_bytes=120.0, children=(0,)),
    ])


def every_op_type_plan():
    """One operator of every type the kernel dispatches on."""
    rows = 2_000_000
    ops = [Operator(op_id=0, op_type=OpType.TABLE_SCAN, est_rows_in=rows,
                    est_rows_out=rows, row_bytes=90.0)]
    chain = [OpType.FILTER, OpType.PROJECT, OpType.EXCHANGE,
             OpType.HASH_AGGREGATE, OpType.SORT, OpType.WINDOW,
             OpType.UNION, OpType.LIMIT]
    for i, op_type in enumerate(chain, start=1):
        ops.append(Operator(op_id=i, op_type=op_type, est_rows_in=rows,
                            est_rows_out=rows, row_bytes=90.0,
                            children=(i - 1,)))
    ops.append(Operator(op_id=len(ops), op_type=OpType.TABLE_SCAN,
                        est_rows_in=rows // 4, est_rows_out=rows // 4,
                        row_bytes=90.0))
    ops.append(Operator(op_id=len(ops), op_type=OpType.JOIN,
                        est_rows_in=rows + rows // 4, est_rows_out=rows,
                        row_bytes=90.0, children=(len(ops) - 2, len(ops) - 1)))
    return PhysicalPlan(ops)


def single_op_plan():
    return PhysicalPlan([
        Operator(op_id=0, op_type=OpType.TABLE_SCAN, est_rows_in=1,
                 est_rows_out=1, row_bytes=8.0),
    ])


def _scalar_reference(model, plan, configs, layout=None):
    return np.array([
        estimate_reference(model.params, plan, config, layout).total_seconds
        for config in configs
    ])


class TestGoldenEquivalence:
    @pytest.mark.parametrize("plan", [
        tpch_plan(1, 10.0), tpch_plan(3, 10.0), tpch_plan(5, 10.0),
        tpch_plan(9, 10.0), tpcds_plan(1, 10.0),
    ], ids=["q01", "q03", "q05", "q09", "ds_q01"])
    def test_bitwise_parity_on_tpc_plans(self, model, plan):
        space = query_level_space()
        vectors = space.latin_hypercube(24, np.random.default_rng(1))
        configs = [space.to_dict(v) for v in vectors]
        batch = model.estimate_batch(plan, configs)
        assert np.array_equal(batch, _scalar_reference(model, plan, configs))

    def test_bitwise_parity_full_space_categoricals(self, model):
        # full_space carries the categorical codec/serializer knobs and the
        # app-level layout knobs, so this covers layout resolution too.
        space = full_space()
        plan = tpcds_plan(23, 50.0)
        vectors = space.latin_hypercube(32, np.random.default_rng(2))
        configs = [space.to_dict(v) for v in vectors]
        batch = model.estimate_batch(plan, configs)
        assert np.array_equal(batch, _scalar_reference(model, plan, configs))

    @pytest.mark.parametrize("plan_fn", [
        degenerate_join_plan, every_op_type_plan, single_op_plan,
    ], ids=["self_join", "all_op_types", "single_op"])
    def test_bitwise_parity_on_degenerate_plans(self, model, plan_fn):
        plan = plan_fn()
        space = query_level_space()
        vectors = space.latin_hypercube(16, np.random.default_rng(3))
        configs = [space.to_dict(v) for v in vectors]
        batch = model.estimate_batch(plan, configs)
        assert np.array_equal(batch, _scalar_reference(model, plan, configs))

    def test_vector_input_matches_dict_input(self, model):
        space = query_level_space()
        plan = tpch_plan(5, 10.0)
        vectors = space.latin_hypercube(16, np.random.default_rng(4))
        from_vectors = model.estimate_batch(plan, vectors, space=space)
        from_dicts = model.estimate_batch(
            plan, [space.to_dict(v) for v in vectors]
        )
        assert np.array_equal(from_vectors, from_dicts)

    def test_data_scale_matches_scaled_plan(self, model):
        plan = tpch_plan(3, 10.0)
        space = query_level_space()
        configs = [space.to_dict(v)
                   for v in space.latin_hypercube(8, np.random.default_rng(5))]
        batch = model.estimate_batch(plan, configs, data_scale=2.7)
        reference = _scalar_reference(model, plan.scaled(2.7), configs)
        assert np.array_equal(batch, reference)

    def test_explicit_layout_matches_scalar(self, model):
        layout = ExecutorLayout(executors=6, cores_per_executor=3,
                                memory_gb_per_executor=12.0)
        plan = tpch_plan(9, 10.0)
        space = query_level_space()
        configs = [space.to_dict(v)
                   for v in space.latin_hypercube(8, np.random.default_rng(6))]
        batch = model.estimate_batch(plan, configs, layout=layout)
        assert np.array_equal(
            batch, _scalar_reference(model, plan, configs, layout)
        )

    def test_breakdown_matches_scalar_breakdowns(self, model):
        space = full_space()
        plan = tpch_plan(5, 10.0)
        configs = [space.to_dict(v)
                   for v in space.latin_hypercube(12, np.random.default_rng(7))]
        batch = model.estimate_batch(plan, configs, breakdown=True)
        assert batch.n == len(configs)
        for i, config in enumerate(configs):
            scalar = estimate_reference(model.params, plan, config)
            got = batch.breakdown_at(i)
            assert got.total_seconds == scalar.total_seconds
            assert got.per_operator == scalar.per_operator
            assert got.metrics == scalar.metrics

    def test_estimate_wrapper_matches_scalar(self, model):
        # estimate() is now a 1-row batch; it must stay interchangeable with
        # the preserved scalar reference.
        space = full_space()
        plan = tpcds_plan(8, 25.0)
        for v in space.latin_hypercube(6, np.random.default_rng(8)):
            config = space.to_dict(v)
            wrapped = model.estimate(plan, config)
            scalar = estimate_reference(model.params, plan, config)
            assert wrapped.total_seconds == scalar.total_seconds
            assert wrapped.per_operator == scalar.per_operator
            assert wrapped.metrics == scalar.metrics


class TestBatchStructures:
    def test_plan_arrays_cache_hits(self):
        plan = tpch_plan(3, 10.0)
        clear_plan_arrays_cache()
        plan_arrays(plan, 1.0)
        plan_arrays(plan, 1.0)
        stats = plan_arrays_cache_stats()
        assert stats["misses"] == 1 and stats["hits"] == 1

    def test_plan_arrays_cache_keyed_by_scale(self):
        plan = tpch_plan(3, 10.0)
        clear_plan_arrays_cache()
        plan_arrays(plan, 1.0)
        plan_arrays(plan, 2.0)
        stats = plan_arrays_cache_stats()
        assert stats["misses"] == 2 and stats["size"] == 2

    def test_scaled_plan_and_scale_arg_share_entry(self):
        # plan.scaled(2) at scale 1 describes the same arrays as the base
        # plan at scale 2 *only if* the key disambiguates on the plan's
        # cardinalities — the signature alone is scale-invariant.
        plan = tpch_plan(6, 10.0)
        a = plan_arrays(plan, 2.0)
        b = plan_arrays(plan.scaled(2.0), 1.0)
        assert np.array_equal(a.rows_in, b.rows_in)
        assert np.array_equal(a.bytes_in, b.bytes_in)

    def test_scales_one_bit_apart_do_not_share_entry(self):
        # 1.9 and 1.9000000000000001 scale TPC-H q3 to equal leaf totals
        # but per-operator rows that differ in the last bit; a key built
        # from the totals handed the second plan the first one's arrays.
        plan = tpch_plan(3)
        low, high = plan.scaled(1.9), plan.scaled(1.9000000000000001)
        assert low.total_leaf_cardinality == high.total_leaf_cardinality
        assert low.total_input_bytes == high.total_input_bytes
        clear_plan_arrays_cache()
        for scaled in (low, high):
            assert plan_arrays(scaled, 1.0) == PlanArrays.build(scaled, 1.0)

    def test_resolve_layouts_matches_from_config(self):
        space = full_space()
        pool = default_pool()
        vectors = space.latin_hypercube(20, np.random.default_rng(9))
        dicts = [space.to_dict(v) for v in vectors]
        cols = ConfigColumns.coerce(dicts, None)
        layouts = resolve_layouts(cols, pool)
        for i, config in enumerate(dicts):
            expected = ExecutorLayout.from_config(config, pool)
            assert float(layouts.total_cores[i]) == float(
                max(expected.total_cores, 1)
            )
            assert float(layouts.memory_gb_per_executor[i]) == (
                expected.memory_gb_per_executor
            )

    def test_elementwise_layouts_match_from_config_at_the_caps(self):
        # Values past every pool cap and below every floor, fractional
        # knobs that truncate, and off-heap toggled around its 0.5 cut.
        pool = default_pool()
        rng = np.random.default_rng(12)
        n = 64
        columns = {
            "spark.executor.instances": rng.uniform(-2.0, 400.0, n),
            "spark.executor.cores": rng.uniform(-1.0, 3.0 * pool.node_type.cores, n),
            "spark.executor.memory": rng.uniform(0.0, 2.0 * pool.node_type.memory_gb, n),
            "spark.memory.offHeap.enabled": rng.choice([0.0, 0.49, 0.5, 1.0], n),
            "spark.memory.offHeap.size": rng.uniform(-4.0, 16.0, n),
        }
        dicts = [{k: float(v[i]) for k, v in columns.items()} for i in range(n)]
        layouts = resolve_layouts(ConfigColumns.from_dicts(dicts), pool)
        for i, config in enumerate(dicts):
            expected = ExecutorLayout.from_config(config, pool)
            assert layouts.executors[i] == float(expected.executors)
            assert layouts.total_cores[i] == float(max(expected.total_cores, 1))
            assert layouts.memory_gb_per_executor[i] == expected.memory_gb_per_executor
            assert layouts.memory_gb_per_core[i] == expected.memory_gb_per_core
            assert layouts.offheap_positive[i] == (expected.offheap_gb_per_executor > 0)

    def test_to_natural_matrix_matches_elementwise(self):
        for space in (query_level_space(), full_space()):
            vectors = space.latin_hypercube(32, np.random.default_rng(10))
            matrix = space.to_natural_matrix(vectors)
            for i, v in enumerate(vectors):
                for j, parameter in enumerate(space):
                    assert matrix[i, j] == parameter.to_natural(v[j])

    def test_to_natural_matrix_rejects_bad_shape(self):
        space = query_level_space()
        with pytest.raises(ValueError):
            space.to_natural_matrix(np.zeros((4, space.dim + 1)))

    def test_batch_telemetry_counters(self, model):
        plan = tpch_plan(6, 1.0)
        space = query_level_space()
        vectors = space.latin_hypercube(5, np.random.default_rng(11))
        with telemetry.capture() as cap:
            model.estimate_batch(plan, vectors, space=space)
        counters = cap.registry.snapshot()["counters"]
        assert counters["sparksim.batch_estimates"] == 1
        assert counters["sparksim.batch_configs"] == 5


class TestRunBatchNoiseStream:
    def _vectors(self, space, n=12, seed=13):
        return space.latin_hypercube(n, np.random.default_rng(seed))

    def test_elapsed_sequence_identical_to_sequential_runs(self):
        space = query_level_space()
        plan = tpch_plan(3, 10.0)
        vectors = self._vectors(space)
        configs = [space.to_dict(v) for v in vectors]

        seq_sim = SparkSimulator(noise=low_noise(), seed=21)
        sequential = [seq_sim.run(plan, c) for c in configs]
        bat_sim = SparkSimulator(noise=low_noise(), seed=21)
        batched = bat_sim.run_batch(plan, configs)

        assert [r.elapsed_seconds for r in batched] == \
               [r.elapsed_seconds for r in sequential]
        for a, b in zip(sequential, batched):
            assert a.true_seconds == b.true_seconds
            assert a.config == b.config
            assert a.metrics == b.metrics
            assert a.data_size == b.data_size
        assert seq_sim.run_count == bat_sim.run_count

    def test_vector_inputs_consume_same_noise_stream(self):
        space = query_level_space()
        plan = tpcds_plan(2, 10.0)
        vectors = self._vectors(space, seed=14)
        seq_sim = SparkSimulator(noise=low_noise(), seed=3)
        sequential = [seq_sim.run(plan, space.to_dict(v)) for v in vectors]
        bat_sim = SparkSimulator(noise=low_noise(), seed=3)
        batched = bat_sim.run_batch(plan, vectors, space=space)
        assert [r.elapsed_seconds for r in batched] == \
               [r.elapsed_seconds for r in sequential]

    def test_faulty_simulator_spikes_match_sequential(self):
        space = query_level_space()
        plan = tpch_plan(5, 10.0)
        vectors = self._vectors(space, n=20, seed=15)
        configs = [space.to_dict(v) for v in vectors]

        def faulty(seed):
            return FaultySimulator(
                SparkSimulator(noise=low_noise(), seed=seed),
                FaultPlan(
                    specs=[FaultSpec(kind=FaultKind.LATENCY_SPIKE,
                                     rate=0.35, magnitude=3.0)],
                    seed=99,
                ),
            )

        seq_sim = faulty(7)
        sequential = [seq_sim.run(plan, c) for c in configs]
        batched = faulty(7).run_batch(plan, configs)
        assert [r.elapsed_seconds for r in batched] == \
               [r.elapsed_seconds for r in sequential]
        # Some (not all) observations must actually have been spiked for the
        # equivalence above to be meaningful: compare against an unfaulted
        # twin consuming the identical noise stream.
        clean_sim = SparkSimulator(noise=low_noise(), seed=7)
        clean = [clean_sim.run(plan, c) for c in configs]
        spiked = sum(1 for a, b in zip(sequential, clean)
                     if a.elapsed_seconds != b.elapsed_seconds)
        assert 0 < spiked < len(configs)

    def test_faulty_true_time_batch_passthrough(self):
        space = query_level_space()
        plan = tpch_plan(6, 10.0)
        vectors = self._vectors(space, n=6, seed=16)
        inner = SparkSimulator(noise=no_noise(), seed=0)
        sim = FaultySimulator(
            inner,
            FaultPlan(specs=[FaultSpec(kind=FaultKind.LATENCY_SPIKE,
                                       rate=1.0, magnitude=5.0)], seed=1),
        )
        times = sim.true_time_batch(plan, vectors, space=space)
        expected = [inner.true_time(plan, space.to_dict(v)) for v in vectors]
        assert list(times) == expected  # spikes never touch true times

    def test_true_time_batch_matches_true_time(self, quiet_simulator):
        space = query_level_space()
        plan = tpch_plan(1, 10.0)
        vectors = self._vectors(space, n=8, seed=17)
        batch = quiet_simulator.true_time_batch(plan, vectors, space=space)
        singles = [quiet_simulator.true_time(plan, space.to_dict(v))
                   for v in vectors]
        assert list(batch) == singles


class TestBatchSmokePerf:
    def test_estimate_batch_beats_scalar_loop(self, model):
        # Tier-1 smoke guard for the >=10x bench-perf target: at N=256 the
        # vectorized kernel must clearly beat the scalar loop even on a slow
        # shared CI box, so the bar here is a conservative 3x.
        space = query_level_space()
        plan = tpcds_plan(23, 50.0)
        vectors = space.latin_hypercube(256, np.random.default_rng(18))
        configs = [space.to_dict(v) for v in vectors]

        model.estimate_batch(plan, vectors, space=space)  # warm plan cache
        t0 = time.perf_counter()
        scalar = _scalar_reference(model, plan, configs)
        scalar_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        batch = model.estimate_batch(plan, vectors, space=space)
        batch_seconds = time.perf_counter() - t0

        assert np.array_equal(batch, scalar)
        assert batch_seconds * 3.0 < scalar_seconds, (
            f"batch {batch_seconds * 1e3:.1f}ms vs "
            f"scalar {scalar_seconds * 1e3:.1f}ms at N=256"
        )
