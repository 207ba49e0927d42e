"""Tests for optimizer/guardrail state snapshots (cross-run continuity)."""

import json

import numpy as np
import pytest

from repro.core.centroid import CentroidLearning
from repro.core.guardrail import Guardrail
from repro.core.observation import Observation
from repro.sparksim.noise import no_noise
from repro.workloads.synthetic import default_synthetic_objective


@pytest.fixture
def objective():
    return default_synthetic_objective(noise=no_noise(), seed=3)


def drive(optimizer, objective, n, rng, start_iter=0):
    for t in range(start_iter, start_iter + n):
        v = optimizer.suggest(data_size=objective.reference_size)
        r = objective.observe(v, objective.reference_size, rng)
        optimizer.observe(Observation(
            config=v, data_size=objective.reference_size,
            performance=r, iteration=t,
        ))


class TestCentroidState:
    def test_roundtrip_preserves_centroid_and_history(self, objective, rng):
        cl = CentroidLearning(objective.space, seed=0)
        drive(cl, objective, 12, rng)
        state = cl.to_state()
        # JSON round-trip, as the production store would do it.
        state = json.loads(json.dumps(state))

        restored = CentroidLearning(objective.space, seed=0).restore_state(state)
        assert np.allclose(restored.centroid, cl.centroid)
        assert restored.iteration == cl.iteration
        assert restored._n_updates == cl._n_updates
        assert np.allclose(
            restored.observations.performances(), cl.observations.performances()
        )

    def test_restored_optimizer_continues_tuning(self, objective, rng):
        cl = CentroidLearning(objective.space, seed=0)
        drive(cl, objective, 10, rng)
        state = cl.to_state()
        restored = CentroidLearning(objective.space, seed=1).restore_state(state)
        before = restored.centroid
        drive(restored, objective, 5, rng, start_iter=10)
        # The centroid keeps moving from where it was, not from the default.
        assert not np.allclose(restored.centroid, objective.space.default_vector())
        assert restored.iteration == 15

    def test_embeddings_survive_roundtrip(self, objective, rng):
        cl = CentroidLearning(objective.space, seed=0)
        emb = np.array([1.0, 2.0, 3.0])
        v = cl.suggest(data_size=100.0)
        cl.observe(Observation(config=v, data_size=100.0, performance=1.0,
                               iteration=0, embedding=emb))
        state = json.loads(json.dumps(cl.to_state()))
        restored = CentroidLearning(objective.space, seed=0).restore_state(state)
        assert np.allclose(restored.observations.history[0].embedding, emb)

    def test_dim_mismatch_rejected(self, objective):
        cl = CentroidLearning(objective.space, seed=0)
        state = cl.to_state()
        state["centroid"] = [1.0]
        with pytest.raises(ValueError, match="centroid"):
            CentroidLearning(objective.space, seed=0).restore_state(state)

    def test_guardrail_state_needs_guardrail(self, objective):
        guarded = CentroidLearning(
            objective.space, guardrail=Guardrail(min_iterations=3), seed=0
        )
        state = guarded.to_state()
        assert state["guardrail"] is not None
        plain = CentroidLearning(objective.space, seed=0)
        with pytest.raises(ValueError, match="guardrail"):
            plain.restore_state(state)


class TestGuardrailState:
    def test_disabled_flag_survives(self):
        g = Guardrail(min_iterations=4, threshold=0.05, patience=1)
        for t in range(12):
            g.update(Observation(config=np.array([1.0]), data_size=1.0,
                                 performance=10.0 + 10.0 * t, iteration=t))
        assert not g.active
        restored = Guardrail(min_iterations=4, threshold=0.05, patience=1)
        restored.restore_state(json.loads(json.dumps(g.to_state())))
        assert not restored.active

    def test_round_trip_keeps_counts_and_decisions(self):
        # A cooldown guardrail trips, sits out its cooldown, re-enables on
        # probation and trips again; the snapshot carries the audit trail.
        g = Guardrail(min_iterations=4, threshold=0.05, patience=1, cooldown=2)
        for t in range(14):
            g.update(Observation(config=np.array([1.0]), data_size=1.0,
                                 performance=10.0 + 10.0 * t, iteration=t))
        g.reset()
        assert g.reenable_count >= 1 and len(g.decisions) >= 4
        restored = Guardrail(min_iterations=4, threshold=0.05, patience=1,
                             cooldown=2)
        restored.restore_state(json.loads(json.dumps(g.to_state())))
        assert restored.reenable_count == g.reenable_count
        assert restored.reset_count == g.reset_count == 1
        assert restored.decisions == g.decisions
        assert restored.to_state() == g.to_state()

    def test_old_snapshot_without_counts_still_loads(self):
        g = Guardrail(min_iterations=4)
        state = g.to_state()
        for key in ("reenable_count", "reset_count", "decisions"):
            del state[key]
        restored = Guardrail(min_iterations=4).restore_state(state)
        assert restored.reenable_count == 0 and restored.decisions == []

    def test_history_continues(self):
        g = Guardrail(min_iterations=10)
        for t in range(6):
            g.update(Observation(config=np.array([1.0]), data_size=1.0,
                                 performance=5.0, iteration=t))
        restored = Guardrail(min_iterations=10).restore_state(g.to_state())
        assert restored.n_observations == 6


class TestClientStateIntegration:
    def test_client_state_carries_across_runs(self, tmp_path):
        from repro.service import AutotuneBackend, AutotuneClient, SasTokenIssuer, StorageManager
        from repro.sparksim.configs import query_level_space
        from repro.sparksim.executor import SparkSimulator
        from repro.workloads.tpch import tpch_plan

        backend = AutotuneBackend(
            storage=StorageManager(tmp_path), issuer=SasTokenIssuer("s"),
            query_space=query_level_space(),
        )
        plan = tpch_plan(6, 1.0)
        sim = SparkSimulator(noise=no_noise(), seed=0)

        first = AutotuneClient(backend, "app-1", "art", "u", query_level_space(), seed=0)
        for t in range(5):
            config = first.suggest_config(plan)
            first.on_query_end(sim.run_to_event(
                plan, config, app_id="app-1", artifact_id="art", user_id="u",
                iteration=t, embedding=first.embedder.embed(plan),
            ))
        state = json.loads(json.dumps(first.export_state()))
        assert plan.signature() in state

        second = AutotuneClient(
            backend, "app-2", "art", "u", query_level_space(), seed=0,
            initial_state=state,
        )
        second.suggest_config(plan)
        optimizer = second._optimizers[plan.signature()]
        assert optimizer.iteration == 5  # history carried over
