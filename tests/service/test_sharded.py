"""Sharded service: routing, batched drains, rebalance handoff, failover."""

import hashlib

import numpy as np
import pytest

from repro import telemetry
from repro.core.centroid import CentroidLearning
from repro.core.guardrail import Guardrail
from repro.core.observation import Observation
from repro.core.switch import SafeExplorationGate, TaskSwitchDetector
from repro.ml.linear import PolynomialFeatures, RidgeRegression
from repro.ml.scaler import Pipeline, StandardScaler
from repro.service.admission import Priority, ShedError
from repro.service.sessions import TenantSessionHost
from repro.service.sharded import ShardedAutotuneService, TuneRequest
from repro.sparksim.configs import query_level_space

pytestmark = pytest.mark.service

SPACE = query_level_space()


def seed_of(workload_id: str, signature: str) -> int:
    digest = hashlib.blake2b(
        f"{workload_id}/{signature}".encode(), digest_size=4
    ).digest()
    return int.from_bytes(digest, "big")


def optimizer_factory(workload_id: str, signature: str) -> CentroidLearning:
    return CentroidLearning(SPACE, seed=seed_of(workload_id, signature))


def production_factory(workload_id: str, signature: str) -> CentroidLearning:
    """Odd workloads carry the paper guardrail, a switch detector and the safe gate."""
    extras = {}
    if int(workload_id.rsplit("-", 1)[1]) % 2:
        extras = dict(
            guardrail=Guardrail(),
            switch_detector=TaskSwitchDetector(warmup=4, threshold=4.0, size_jump=3.0),
            safe_gate=SafeExplorationGate(),
        )
    return CentroidLearning(SPACE, seed=seed_of(workload_id, signature), **extras)


def no_intercept_factory(workload_id: str, signature: str) -> CentroidLearning:
    def window_model():
        return Pipeline([
            ("scale", StandardScaler()),
            ("poly", PolynomialFeatures(degree=2)),
            ("ridge", RidgeRegression(alpha=1.0, fit_intercept=False)),
        ])
    return CentroidLearning(
        SPACE, model_factory=window_model, seed=seed_of(workload_id, signature)
    )


def fresh_service(n_shards=3, factory=optimizer_factory, **kwargs):
    kwargs.setdefault("queue_capacity", 256)
    return ShardedAutotuneService(n_shards, factory, **kwargs)


def observation_for(vector, iteration):
    vector = np.asarray(vector, dtype=float)
    return Observation(
        config=vector,
        performance=10.0 + 0.1 * iteration,
        data_size=1000.0,
        iteration=iteration,
    )


def drive(service, workloads, n_iterations=6):
    """Phased suggest/observe rounds; returns per-session trails."""
    for t in range(n_iterations):
        requests = [TuneRequest.suggest(w, f"{w}/q0") for w in workloads]
        for request in requests:
            assert service.submit(request).accepted
        service.drain_all()
        for w, request in zip(workloads, requests):
            obs = observation_for(request.result, t)
            assert service.submit(TuneRequest.observe(w, f"{w}/q0", obs)).accepted
        service.drain_all()
    return {
        key: [tuple(o.config) for o in s.optimizer.observations.history]
        for key, s in service.sessions().items()
    }


WORKLOADS = [f"artifact-{i:04d}" for i in range(12)]


class TestRouting:
    def test_requests_land_on_ring_owner(self):
        service = fresh_service()
        request = TuneRequest.suggest("artifact-0000", "artifact-0000/q0")
        assert service.submit(request).accepted
        assert request.shard_id == service.ring.owner("artifact-0000")

    def test_sessions_stick_to_one_shard(self):
        service = fresh_service()
        drive(service, WORKLOADS, n_iterations=3)
        for shard_id in service.shard_ids:
            host = service.shard(shard_id).host
            for workload_id, _sig in host.sessions:
                assert service.ring.owner(workload_id) == shard_id

    def test_call_returns_result_or_raises_shed(self):
        service = fresh_service(n_shards=1, queue_capacity=1)
        vector = service.call(TuneRequest.suggest("w", "w/q0"))
        assert vector is not None and len(vector) == SPACE.dim
        # Fill the queue, then a blocking call must surface backpressure.
        assert service.submit(TuneRequest.suggest("w", "w/q0")).accepted
        with pytest.raises(ShedError) as exc_info:
            service.call(TuneRequest.suggest("w", "w/q0"))
        assert exc_info.value.retry_after > 0


class TestBatchedDrainEquivalence:
    @staticmethod
    def assert_coalesced_equals_scalar(factory):
        coalesced = fresh_service(factory=factory, coalesce=True)
        batched = drive(coalesced, WORKLOADS)
        scalar = drive(fresh_service(n_shards=1, factory=factory, coalesce=False), WORKLOADS)
        assert batched == scalar
        assert all(s.batch_profile is not None for s in coalesced.sessions().values())

    def test_coalesced_equals_scalar_trails(self):
        self.assert_coalesced_equals_scalar(optimizer_factory)

    def test_coalesced_equals_scalar_trails_with_production_tenants(self):
        # Guardrailed, switch-detecting and safe-gated tenants are batched
        # too, not served one by one.
        self.assert_coalesced_equals_scalar(production_factory)

    def test_window_model_without_intercept_is_served_request_by_request(self):
        # The batched fit always fits an intercept, so a ridge window model
        # with fit_intercept=False must not be batched.
        workloads = WORKLOADS[:6]
        coalesced = fresh_service(n_shards=2, factory=no_intercept_factory)
        batched = drive(coalesced, workloads, n_iterations=8)
        scalar = drive(
            fresh_service(n_shards=1, factory=no_intercept_factory, coalesce=False),
            workloads, n_iterations=8,
        )
        assert batched == scalar
        assert all(s.batch_profile is None for s in coalesced.sessions().values())

    def test_distinct_session_runs_split_repeats(self):
        batch = [
            TuneRequest.suggest("a", "a/q0"),
            TuneRequest.suggest("b", "b/q0"),
            TuneRequest.suggest("a", "a/q0"),
            TuneRequest.suggest("c", "c/q0"),
            TuneRequest.suggest("a", "a/q0"),
        ]
        runs = list(ShardedAutotuneService._distinct_session_runs(batch))
        assert [len(r) for r in runs] == [2, 2, 1]
        # FIFO across runs: flattening recovers the original order.
        assert [r for run in runs for r in run] == batch

    def test_same_session_requests_apply_in_fifo_order(self):
        service = fresh_service(n_shards=1, coalesce=True)
        first = TuneRequest.suggest("w", "w/q0")
        second = TuneRequest.suggest("w", "w/q0")
        service.submit(first)
        service.submit(second)
        service.drain_all()
        reference = CentroidLearning(SPACE, seed=seed_of("w", "w/q0"))
        assert np.array_equal(first.result, reference.suggest())
        assert np.array_equal(second.result, reference.suggest())

    def test_parallel_drain_matches_serial(self):
        serial = drive(fresh_service(n_shards=4), WORKLOADS)

        service = fresh_service(n_shards=4)
        for t in range(6):
            requests = [TuneRequest.suggest(w, f"{w}/q0") for w in WORKLOADS]
            for request in requests:
                service.submit(request)
            service.drain_all(parallel=True)
            for w, request in zip(WORKLOADS, requests):
                service.submit(
                    TuneRequest.observe(w, f"{w}/q0", observation_for(request.result, t))
                )
            service.drain_all(parallel=True)
        parallel = {
            key: [tuple(o.config) for o in s.optimizer.observations.history]
            for key, s in service.sessions().items()
        }
        assert parallel == serial


class TestRebalance:
    def test_add_shard_moves_only_into_new_shard(self):
        service = fresh_service(n_shards=3)
        drive(service, WORKLOADS, n_iterations=2)
        before = {w: service.ring.owner(w) for w in WORKLOADS}
        new_shard = service.add_shard()
        for w in WORKLOADS:
            after = service.ring.owner(w)
            if after != before[w]:
                assert after == new_shard
            key = (w, f"{w}/q0")
            assert key in service.shard(after).host.sessions

    def test_resize_mid_run_is_bit_identical(self):
        reference = drive(fresh_service(n_shards=3), WORKLOADS, n_iterations=6)

        service = fresh_service(n_shards=3)
        for t in range(6):
            if t == 3:
                service.resize(5)
            requests = [TuneRequest.suggest(w, f"{w}/q0") for w in WORKLOADS]
            for request in requests:
                service.submit(request)
            service.drain_all()
            for w, request in zip(WORKLOADS, requests):
                service.submit(
                    TuneRequest.observe(w, f"{w}/q0", observation_for(request.result, t))
                )
            service.drain_all()
        resized = {
            key: [tuple(o.config) for o in s.optimizer.observations.history]
            for key, s in service.sessions().items()
        }
        assert resized == reference
        assert service.n_shards == 5

    def test_remove_last_shard_forbidden(self):
        service = fresh_service(n_shards=1)
        with pytest.raises(ValueError):
            service.remove_shard("shard-0")

    def test_shrink_hands_sessions_to_survivors(self):
        service = fresh_service(n_shards=4)
        drive(service, WORKLOADS, n_iterations=2)
        total_before = len(service.sessions())
        service.resize(2)
        assert service.n_shards == 2
        assert len(service.sessions()) == total_before


class TestMisroute:
    def test_misroute_violates_stickiness(self):
        service = fresh_service(n_shards=3)
        victim = WORKLOADS[0]
        owner = service.ring.owner(victim)
        wrong = next(s for s in service.shard_ids if s != owner)
        service.plant_misroute(victim, wrong, after=0)
        request = TuneRequest.suggest(victim, f"{victim}/q0")
        service.submit(request)
        assert request.shard_id == wrong

    def test_misroute_to_unknown_shard_rejected(self):
        with pytest.raises(KeyError):
            fresh_service().plant_misroute("w", "shard-99")


class TestMetrics:
    def test_metrics_shape_and_totals(self):
        service = fresh_service(n_shards=3)
        drive(service, WORKLOADS, n_iterations=2)
        payload = service.metrics()["service"]
        assert payload["n_shards"] == 3
        assert payload["submitted"] == 12 * 2 * 2
        assert payload["shed"] == 0
        assert payload["utilization_skew"] >= 1.0
        processed = sum(s["processed"] for s in payload["shards"].values())
        assert processed == payload["submitted"]

    def test_service_counters_namespaced(self):
        with telemetry.capture() as cap:
            drive(fresh_service(n_shards=2), WORKLOADS[:4], n_iterations=1)
        names = set(cap.counters())
        assert any(n.startswith("service.requests") for n in names)
        assert any(n.startswith("service.shard.processed") for n in names)


class TestTuneRequestValidation:
    def test_bad_op_rejected(self):
        with pytest.raises(ValueError):
            TuneRequest("fetch", "w", "q")

    def test_observe_requires_observation(self):
        with pytest.raises(ValueError):
            TuneRequest("observe", "w", "q")

    def test_priority_defaults_to_batch(self):
        assert TuneRequest.suggest("w", "q").priority is Priority.BATCH
