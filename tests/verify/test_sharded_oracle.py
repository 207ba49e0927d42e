"""The sharded-vs-single differential oracle and its misroute sensitivity.

``diff_sharded_single`` is the contract for the whole sharded service: a
tenant session must not be able to tell whether it was served by one
scalar backend or an N-way sharded deployment with batched drains —
observation trails, centroid state, and every non-``service.*`` telemetry
counter must match bit-for-bit.  The planted hash-ring misroute is the
acceptance check that the oracle actually *can* detect a routing bug: a
misrouted tenant silently grows a second session on the wrong shard, and
the oracle must report the divergence.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.verify.diff import diff_sharded_single

pytestmark = pytest.mark.verify


def plant_misroute(service):
    """Reroute one workload to a non-owner shard without state handoff."""
    victim = "artifact-0000"
    owner = service.ring.owner(victim)
    wrong = next(s for s in service.shard_ids if s != owner)
    service.plant_misroute(victim, wrong, after=5)


def spy_on(seen):
    """Keep the sharded service and its arm's captured counters."""
    def mutate(service):
        seen["service"] = service
        drain_all = service.drain_all

        def drain_and_snapshot(*args, **kwargs):
            drained = drain_all(*args, **kwargs)
            seen["counters"] = telemetry.snapshot()["counters"]
            return drained
        service.drain_all = drain_and_snapshot
    return mutate


def plant_prediction_perturbation(victim, planted):
    """Perturb the victim's first batched FIND_BEST prediction block.

    The best-ranked window config gets a +1e6 prediction, so FIND_BEST picks
    another ``c*``; ``planted`` records the history index of the observation
    whose update consumed the perturbed block.
    """
    def perturbing(coalesced_observe, optimizer):
        def step(obs):
            inner = coalesced_observe(obs)
            sent = None
            while True:
                try:
                    rows = inner.send(sent)
                except StopIteration:
                    return
                sent = yield rows
                if not planted:
                    planted.append(len(optimizer.observations.history) - 1)
                    sent = sent.copy()
                    sent[int(np.argmin(sent))] += 1e6
        return step

    def mutate(service):
        for shard_id in service.shard_ids:
            host = service.shard(shard_id).host
            build = host.optimizer_factory

            def factory(workload_id, signature, build=build):
                optimizer = build(workload_id, signature)
                if (workload_id, signature) == victim:
                    optimizer.coalesced_observe = perturbing(
                        optimizer.coalesced_observe, optimizer
                    )
                return optimizer
            host.optimizer_factory = factory
    return mutate


class TestShardedOracle:
    def test_sharded_equals_single_bitwise(self):
        report = diff_sharded_single(seed=0)
        assert report.equivalent, report.summary()
        assert report.tolerance == 0.0
        # A real fleet comparison, not a vacuous one.
        assert report.steps_compared > 100

    @pytest.mark.parametrize("seed", [1, 2])
    def test_equivalence_across_seeds(self, seed):
        report = diff_sharded_single(
            seed=seed, n_workloads=6, n_iterations=6, n_shards=3
        )
        assert report.equivalent, report.summary()

    def test_equivalence_without_event_forwarding(self):
        report = diff_sharded_single(seed=0, events=False)
        assert report.equivalent, report.summary()

    def test_planted_misroute_is_caught(self):
        report = diff_sharded_single(seed=0, mutate_sharded=plant_misroute)
        assert not report.equivalent
        # The misrouted tenant forked a fresh session on the wrong shard:
        # the oracle reports either the extra session (length mismatch) or
        # the first divergent field.
        summary = report.summary()
        assert "sharded_vs_single" in summary
        if report.divergence is not None:
            assert report.divergence.field

    def test_production_shaped_tenants_are_batched_and_checked(self):
        # Odd workloads carry the guardrail, switch detector and safe gate.
        # Run long enough for the paper guardrail (30 warm-up points) to
        # check, and prove from the sharded arm's capture that the
        # production-shaped machinery really ran on the batched path.
        seen = {}
        report = diff_sharded_single(
            seed=0, n_iterations=34, events=False, mutate_sharded=spy_on(seen)
        )
        assert report.equivalent, report.summary()
        counters = seen["counters"]
        for name in ("guardrail.checks", "switch.checks", "safe.checks",
                     "centroid.updates"):
            assert counters.get(name, 0) > 0, name
        production = [
            s for s in seen["service"].sessions().values()
            if s.optimizer.guardrail is not None
        ]
        assert production
        assert all(s.batch_profile is not None for s in production)
        assert all(s.optimizer._n_updates > 0 for s in production)
        assert any(s.optimizer.guardrail.decisions for s in production)

    def test_planted_prediction_perturbation_is_caught(self):
        victim = ("artifact-0003", "artifact-0003/q0")
        planted = []
        seen = {}
        perturb = plant_prediction_perturbation(victim, planted)

        def mutate(service):
            perturb(service)
            spy_on(seen)(service)
        report = diff_sharded_single(seed=0, events=False, mutate_sharded=mutate)
        assert not report.equivalent
        assert planted, "the victim never reached a batched FIND_BEST"
        sessions = seen["service"].sessions()
        assert sessions[victim].optimizer.guardrail is not None
        assert sessions[victim].batch_profile is not None
        # Trail steps run session by session (sorted keys): every history
        # observation, then one summary step.  The first divergence must be
        # the victim's next observation after the perturbed update.
        offset = sum(
            len(sessions[key].optimizer.observations.history) + 1
            for key in sorted(sessions) if key < victim
        )
        assert report.divergence.step == offset + planted[0] + 1
        assert report.divergence.field == "config"
