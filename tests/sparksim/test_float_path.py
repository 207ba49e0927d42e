"""Parity battery for the cost kernel's float path.

A single configuration (every ``estimate()`` call) runs the kernel on
Python floats; a batch that varies any knob runs it on arrays.  Both must
agree bitwise with the reference per-operator loop
(``tests/sparksim/reference_cost.py``) on the whole TPC-H/TPC-DS catalog —
total, per-operator costs and the metrics dict, key set included — and
with each other row by row.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.sparksim.batch import plan_arrays
from repro.sparksim.cluster import ExecutorLayout
from repro.sparksim.configs import full_space
from repro.sparksim.cost_model import CostModel
from repro.sparksim.overlay import StageConfigOverlay, StageOverride
from repro.workloads.tpcds import TPCDS_QUERY_IDS, tpcds_plan
from repro.workloads.tpch import TPCH_QUERY_IDS, tpch_plan

from tests.sparksim.reference_cost import estimate_reference

CATALOG = [("tpch", q, tpch_plan(q, 10.0)) for q in TPCH_QUERY_IDS] + [
    ("tpcds", q, tpcds_plan(q, 30.0)) for q in TPCDS_QUERY_IDS
]
OFFHEAP_LAYOUT = ExecutorLayout(
    executors=6, cores_per_executor=4, memory_gb_per_executor=12.0,
    offheap_gb_per_executor=4.0,
)
VARIANTS = ("plain", "scaled", "overlay", "offheap")
CONFIGS_PER_PLAN = 3


def stage_overlay(plan, rng):
    """Overrides on every stage boundary and on the first scan."""
    overrides = {
        op.op_id: StageOverride(
            shuffle_partitions=int(rng.integers(1, 3000)),
            memory_fraction=float(rng.uniform(0.1, 1.0)),
            task_parallelism=int(rng.integers(1, 64)),
        )
        for op in plan.exchange_ops()
    }
    overrides[plan.leaves[0].op_id] = StageOverride(
        max_partition_bytes=float(rng.uniform(2**20, 2**30))
    )
    return StageConfigOverlay(overrides)


def variant_args(variant, plan, rng):
    """(plan, layout, overlay) for one battery variant."""
    if variant == "scaled":
        return plan.scaled(float(rng.uniform(0.3, 4.0))), None, None
    if variant == "overlay":
        return plan, None, stage_overlay(plan, rng)
    if variant == "offheap":
        return plan, OFFHEAP_LAYOUT, None
    return plan, None, None


def assert_same_breakdown(got, want, label):
    assert got.total_seconds == want.total_seconds, label
    assert got.per_operator == want.per_operator, label
    assert set(got.metrics) == set(want.metrics), label
    assert got.metrics == want.metrics, label


def boundary_configs(plan, base):
    """Configs whose broadcast threshold sits exactly on each join's build
    bytes (broadcast, by ``<=``) and one ulp below it (sort-merge)."""
    configs = []
    for build_bytes in sorted(set(plan_arrays(plan).join_build_bytes) - {0.0}):
        for threshold in (build_bytes, np.nextafter(build_bytes, 0.0)):
            configs.append(
                dict(base, **{"spark.sql.autoBroadcastJoinThreshold": float(threshold)})
            )
    return configs


@pytest.mark.parametrize("variant", VARIANTS)
def test_float_path_matches_reference_and_array_rows(variant):
    model = CostModel()
    space = full_space()
    rng = np.random.default_rng(VARIANTS.index(variant))
    for family, query_id, base_plan in CATALOG:
        plan, layout, overlay = variant_args(variant, base_plan, rng)
        configs = [
            space.to_dict(v) for v in space.sample_vectors(CONFIGS_PER_PLAN, rng)
        ]
        configs += boundary_configs(plan, configs[0])
        batch = model.estimate_batch(
            plan, configs, layout=layout, overlay=overlay, breakdown=True
        )
        for i, config in enumerate(configs):
            label = f"{family} q{query_id} {variant} config {i}"
            got = model.estimate(plan, config, layout, overlay)
            assert type(got.total_seconds) is float, label
            assert_same_breakdown(
                got,
                estimate_reference(model.params, plan, config, layout, overlay),
                label,
            )
            assert_same_breakdown(got, batch.breakdown_at(i), label)
            assert batch.metrics_at(i) == got.metrics, label


def test_threshold_boundary_selects_broadcast():
    model = CostModel()
    plan = tpch_plan(3, 10.0)
    base = full_space().default_dict()
    on_boundary, below = boundary_configs(plan, base)[:2]
    assert model.estimate(plan, on_boundary).metrics["broadcast_joins"] >= 1.0
    assert (
        model.estimate(plan, on_boundary).metrics["broadcast_joins"]
        > model.estimate(plan, below).metrics.get("broadcast_joins", 0.0)
    )


def test_uniform_batch_broadcasts_the_float_result():
    # A batch that never sets a knob stays on the float path; its rows are
    # that one result broadcast to N.
    model = CostModel()
    plan = tpcds_plan(23, 100.0)
    batch = model.estimate_batch(plan, [{}, {}, {}, {}], breakdown=True)
    single = model.estimate(plan, {})
    assert batch.n == 4
    for i in range(batch.n):
        assert_same_breakdown(batch.breakdown_at(i), single, f"row {i}")
    assert np.array_equal(
        model.estimate_batch(plan, [{}, {}, {}, {}]), batch.total_seconds
    )


def test_one_batch_estimate_count_per_estimate_call():
    model = CostModel()
    plan = tpch_plan(3, 10.0)
    with telemetry.capture() as cap:
        for _ in range(3):
            model.estimate(plan, {})
    counters = cap.counters()
    assert counters["sparksim.batch_estimates"] == 3
    assert counters["sparksim.batch_configs"] == 3
