"""Unit tests for stage-scoped knob overrides (``repro.sparksim.overlay``)."""

import numpy as np
import pytest

from repro.sparksim.cost_model import CostModel
from repro.sparksim.configs import full_space
from repro.sparksim.overlay import StageConfigOverlay, StageOverride
from repro.sparksim.plan import OpType
from repro.workloads.tpch import tpch_plan

from tests.sparksim.reference_cost import estimate_reference


class TestStageOverride:
    def test_defaults_are_null(self):
        ov = StageOverride()
        assert ov.is_null
        assert not StageOverride(shuffle_partitions=32).is_null
        assert not StageOverride(memory_fraction=0.5).is_null

    def test_validation(self):
        with pytest.raises(ValueError):
            StageOverride(shuffle_partitions=0)
        with pytest.raises(ValueError):
            StageOverride(max_partition_bytes=0.0)
        with pytest.raises(ValueError):
            StageOverride(memory_fraction=0.0)
        with pytest.raises(ValueError):
            StageOverride(memory_fraction=1.5)
        with pytest.raises(ValueError):
            StageOverride(task_parallelism=0)

    def test_state_roundtrip(self):
        ov = StageOverride(shuffle_partitions=64, memory_fraction=0.4)
        assert StageOverride.from_state(ov.to_state()) == ov


class TestStageConfigOverlay:
    def test_empty_overlay_is_falsy(self):
        overlay = StageConfigOverlay()
        assert not overlay
        assert len(overlay) == 0
        assert overlay.get(3) is None
        assert 3 not in overlay

    def test_null_overrides_dropped_at_construction(self):
        overlay = StageConfigOverlay({
            1: StageOverride(),
            2: StageOverride(shuffle_partitions=16),
        })
        assert len(overlay) == 1
        assert 2 in overlay and 1 not in overlay

    def test_with_override_returns_new_overlay(self):
        base = StageConfigOverlay()
        grown = base.with_override(4, StageOverride(shuffle_partitions=8))
        assert not base  # the original is untouched
        assert grown.get(4).shuffle_partitions == 8
        assert grown != base

    def test_items_sorted_by_op_id(self):
        overlay = StageConfigOverlay({
            7: StageOverride(shuffle_partitions=7),
            2: StageOverride(shuffle_partitions=2),
        })
        assert [op_id for op_id, _ in overlay.items()] == [2, 7]
        assert "StageConfigOverlay" in repr(overlay)

    def test_json_roundtrip_restores_int_keys(self):
        overlay = StageConfigOverlay({
            3: StageOverride(shuffle_partitions=128, task_parallelism=4),
            9: StageOverride(max_partition_bytes=2.0**20),
        })
        twin = StageConfigOverlay.from_json(overlay.to_json())
        assert twin == overlay
        assert twin.get(3).task_parallelism == 4

    def test_equality_against_other_types(self):
        assert StageConfigOverlay() != object()


class TestOverlayChangesCosts:
    def test_exchange_ops_cover_shuffle_bearing_operators(self, q3_plan):
        kinds = {op.op_type for op in q3_plan.exchange_ops()}
        assert kinds <= {
            OpType.EXCHANGE, OpType.JOIN, OpType.HASH_AGGREGATE,
            OpType.SORT, OpType.WINDOW,
        }
        assert OpType.JOIN in kinds  # Q3's shuffles live in its joins

    def test_override_on_shuffle_stage_moves_the_estimate(self, q3_plan):
        model = CostModel()
        config = full_space().default_dict()
        base = model.estimate(q3_plan, config).total_seconds
        op_id = q3_plan.exchange_ops()[0].op_id
        overlay = StageConfigOverlay({
            op_id: StageOverride(shuffle_partitions=3999)
        })
        with_overlay = model.estimate(
            q3_plan, config, overlay=overlay
        ).total_seconds
        assert with_overlay != base

    def test_null_overlay_is_bitwise_inert(self, q3_plan):
        model = CostModel()
        config = full_space().default_dict()
        assert (
            model.estimate(q3_plan, config, overlay=StageConfigOverlay()).total_seconds
            == model.estimate(q3_plan, config).total_seconds
        )

    def test_batch_kernel_matches_scalar_with_overlay(self, rng):
        plan = tpch_plan(3)
        space = full_space()
        model = CostModel()
        overlay = StageConfigOverlay({
            op.op_id: StageOverride(
                shuffle_partitions=int(rng.integers(1, 2000)),
                memory_fraction=float(rng.uniform(0.2, 1.0)),
            )
            for op in plan.exchange_ops()[:2]
        })
        vectors = space.sample_vectors(16, rng)
        batch = model.estimate_batch(plan, vectors, space=space, overlay=overlay)
        scalar = np.array([
            estimate_reference(
                model.params, plan, space.to_dict(v), overlay=overlay
            ).total_seconds
            for v in vectors
        ])
        np.testing.assert_array_equal(batch, scalar)
