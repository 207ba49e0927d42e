"""Stage-overlay battery (``make stages``): catalog-wide kernel parity.

The whole-app batch kernel earned its bitwise-equals-scalar contract in
``tests/sparksim/test_batch.py``; this battery extends the same contract to
stage-scoped overrides across every TPC-H plan, a TPC-DS sample, and the
explicit-exchange plans of the stage-tuning experiment — plus the re-plan
determinism contract (same observed actuals, same overlay, bit for bit).
"""

import numpy as np
import pytest

from repro.experiments.ext_stage_tuning import stage_plans
from repro.sparksim.configs import full_space
from repro.sparksim.cost_model import CostModel
from repro.sparksim.executor import SparkSimulator
from repro.sparksim.noise import no_noise
from repro.sparksim.overlay import StageConfigOverlay, StageOverride
from repro.sparksim.plan import OpType
from repro.sparksim.replan import TargetBytesPerPartition, run_with_replan
from repro.workloads.tpch import TPCH_QUERY_IDS, tpch_plan
from repro.workloads.tpcds import tpcds_plan

from tests.sparksim.reference_cost import estimate_reference

pytestmark = pytest.mark.stages

TPCDS_SAMPLE = (3, 7, 19, 42, 88)


def random_overlay(plan, rng, p_override=0.7):
    """Randomized overrides over a random subset of the plan's stages."""
    overrides = {}
    for op in plan.exchange_ops():
        if rng.uniform() > p_override:
            continue
        overrides[op.op_id] = StageOverride(
            shuffle_partitions=(
                int(rng.integers(1, 4000)) if rng.uniform() < 0.8 else None
            ),
            memory_fraction=(
                float(rng.uniform(0.1, 1.0)) if rng.uniform() < 0.5 else None
            ),
            task_parallelism=(
                int(rng.integers(1, 64)) if rng.uniform() < 0.5 else None
            ),
        )
    for op in plan.operators:
        if op.op_type == OpType.TABLE_SCAN and rng.uniform() < 0.5:
            overrides[op.op_id] = StageOverride(
                max_partition_bytes=float(rng.uniform(2**20, 2**30))
            )
    return StageConfigOverlay(overrides)


def assert_batch_matches_scalar(plan, overlay, rng, n_configs=8):
    space = full_space()
    model = CostModel()
    vectors = space.sample_vectors(n_configs, rng)
    batch = model.estimate_batch(plan, vectors, space=space, overlay=overlay)
    scalar = np.array([
        estimate_reference(
            model.params, plan, space.to_dict(v), overlay=overlay
        ).total_seconds
        for v in vectors
    ])
    np.testing.assert_array_equal(batch, scalar)


class TestOverlayKernelParity:
    @pytest.mark.parametrize("query_id", TPCH_QUERY_IDS)
    def test_tpch_catalog_bitwise(self, query_id):
        rng = np.random.default_rng(query_id)
        plan = tpch_plan(query_id)
        assert_batch_matches_scalar(plan, random_overlay(plan, rng), rng)

    @pytest.mark.parametrize("query_id", TPCDS_SAMPLE)
    def test_tpcds_sample_bitwise(self, query_id):
        rng = np.random.default_rng(1000 + query_id)
        plan = tpcds_plan(query_id)
        assert_batch_matches_scalar(plan, random_overlay(plan, rng), rng)

    @pytest.mark.parametrize("name", sorted(stage_plans()))
    def test_explicit_exchange_plans_bitwise(self, name):
        rng = np.random.default_rng(hash(name) % 2**31)
        plan = stage_plans()[name]
        assert_batch_matches_scalar(plan, random_overlay(plan, rng), rng)

    def test_overlay_on_every_stage_still_bitwise(self):
        rng = np.random.default_rng(7)
        plan = tpch_plan(3)
        assert_batch_matches_scalar(plan, random_overlay(plan, rng, 1.0), rng)

    @pytest.mark.parametrize("query_id", [1, 3, 5])
    def test_no_overlay_path_unchanged_by_overlay_support(self, query_id):
        # overlay=None and an empty overlay must agree with the scalar
        # reference *and* each other — the feature costs nothing when off.
        rng = np.random.default_rng(query_id)
        plan = tpch_plan(query_id)
        space = full_space()
        model = CostModel()
        vectors = space.sample_vectors(8, rng)
        none_path = model.estimate_batch(plan, vectors, space=space)
        empty_path = model.estimate_batch(
            plan, vectors, space=space, overlay=StageConfigOverlay()
        )
        np.testing.assert_array_equal(none_path, empty_path)


class TestReplanDeterminism:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_actuals_reproduce_the_run_bitwise(self, seed):
        plan = stage_plans()["mixed_pipeline"]
        config = full_space().default_dict()
        rng = np.random.default_rng(seed)
        actuals = {
            op.op_id: float(rng.uniform(0.25, 4.0))
            for op in plan.exchange_ops()
        }
        policy = TargetBytesPerPartition(target_bytes=16 * 2**20)

        def one_run():
            sim = SparkSimulator(noise=no_noise(), seed=seed)
            return run_with_replan(sim, plan, config, policy, actuals=actuals)

        a, b = one_run(), one_run()
        assert a.overlay == b.overlay
        assert a.replans == b.replans
        assert a.result.true_seconds == b.result.true_seconds
        assert [e.to_json() for e in a.events] == [e.to_json() for e in b.events]

    def test_replay_from_recorded_events(self):
        # Rebuilding the actuals map from a recorded event stream and
        # re-running reproduces the overlay — the events are a sufficient
        # replay log.
        plan = stage_plans()["skew_heavy"]
        config = full_space().default_dict()
        policy = TargetBytesPerPartition(target_bytes=8 * 2**20)
        sim = SparkSimulator(noise=no_noise(), seed=0)
        original = run_with_replan(
            sim, plan, config, policy,
            actuals={op.op_id: 3.0 for op in plan.exchange_ops()},
        )
        recovered_actuals = {
            e.op_id: e.observed_bytes / e.estimated_bytes
            for e in original.events
        }
        replayed = run_with_replan(
            SparkSimulator(noise=no_noise(), seed=0), plan, config, policy,
            actuals=recovered_actuals,
        )
        assert replayed.overlay == original.overlay
        assert replayed.result.true_seconds == original.result.true_seconds

    def test_frozen_stages_never_replanned_twice(self):
        # Each exchange is visited exactly once in execution order; the
        # override count can never exceed the exchange count.
        plan = stage_plans()["mixed_pipeline"]
        config = full_space().default_dict()
        out = run_with_replan(
            SparkSimulator(noise=no_noise(), seed=0), plan, config,
            TargetBytesPerPartition(target_bytes=2**20),
        )
        assert out.replans <= len(plan.exchange_ops())
        assert len({e.op_id for e in out.events}) == len(out.events)
