"""The three tuning-step workloads the benchmark measures.

Each workload turns a seed into fresh program inputs (:meth:`build`), runs
one *episode* over them while timing what a caller waits for (:meth:`run`),
and reads the outcome back from public state (:meth:`outcome`).  An episode
is a fixed amount of work fully determined by the seed, so repeating it
gives identical observation trails — the run loop in ``run.py`` relies on
that to check determinism while it measures.

* ``session`` — closed loop, one caller: production-shaped
  ``TuningSession``s one after another (guardrail, task-switch detector,
  safe-exploration gate, high noise, a 4x input step halfway through).
* ``fleet`` — one ``LockstepSessions`` population of K=256 guardrailed
  sessions over four query shapes, low noise, +1 %/step input drift.
* ``service`` — phased closed-loop rounds of ~500 tenant sessions against
  a 4-shard coalescing ``ShardedAutotuneService``; tenants run their
  simulators client-side between drains.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.centroid import CentroidLearning
from repro.core.guardrail import Guardrail
from repro.core.observation import Observation
from repro.core.session import TuningSession
from repro.core.switch import SafeExplorationGate, TaskSwitchDetector
from repro.experiments.lockstep import LockstepSessions, SessionSpec
from repro.service.fleet import build_fleet
from repro.service.sharded import ShardedAutotuneService, TuneRequest
from repro.sparksim.configs import query_level_space
from repro.sparksim.executor import SparkSimulator
from repro.sparksim.noise import high_noise, low_noise
from repro.workloads.dynamics import LinearGrowth, StepSize
from repro.workloads.tpcds import tpcds_plan
from repro.workloads.tpch import tpch_plan

__all__ = ["WORKLOADS", "Episode", "Outcome"]


@dataclass
class Episode:
    """Timings of one episode (seconds)."""

    wall_s: float
    session_steps: int
    step_latencies: List[float]
    request_latencies: List[float]
    request_busy_s: float  # time the serving side spent on the requests
    attempted: int
    failed: int
    shed: int = 0
    lost: int = 0


@dataclass
class Outcome:
    """What an episode computed, read from public state after it ended."""

    digest: str
    centroid_speedup: float
    n_sessions: int
    checks: Dict[str, bool] = field(default_factory=dict)


class _Trail:
    """Order-sensitive SHA-256 over exact float bit patterns."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def floats(self, values) -> None:
        self._h.update(np.asarray(values, dtype=np.float64).tobytes())

    def text(self, value: str) -> None:
        self._h.update(value.encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()[:16]


class _Pauses:
    """Runs the caller's ``pause`` hook between units of work and keeps the
    time it took, so episode wall times can exclude it."""

    def __init__(self, pause: Optional[Callable[[], None]]):
        self.pause = pause
        self.seconds = 0.0

    def __call__(self) -> None:
        if self.pause is not None:
            t0 = perf_counter()
            self.pause()
            self.seconds += perf_counter() - t0


def _geomean(ratios: Sequence[float]) -> float:
    return math.exp(sum(math.log(r) for r in ratios) / len(ratios))


def _speedup_at(space, simulator, plan, centroid, scale: float) -> float:
    """Default true time / true time at ``centroid``, both at ``scale``."""
    default = simulator.true_time(plan, space.default_dict(), data_scale=scale)
    tuned = simulator.true_time(plan, space.to_dict(centroid), data_scale=scale)
    return default / tuned


def _digest_records(trail: _Trail, records) -> None:
    for rec in records:
        trail.floats(list(rec.config.values()))
        trail.floats([rec.observed_seconds, rec.true_seconds, rec.data_size,
                      float(rec.tuning_active)])


# -- session ---------------------------------------------------------------------------

class SessionWorkload:
    """Sequential production-shaped ``TuningSession``s, one caller."""

    name = "session"
    n_sessions = 32
    n_steps = 100

    def build(self, seed: int) -> List[TuningSession]:
        space = query_level_space()
        plans = [tpch_plan(3, 10.0), tpcds_plan(23, 100.0)]
        scale_fn = StepSize(initial=1.0, factor=4.0, at=self.n_steps // 2)
        sessions = []
        for i in range(self.n_sessions):
            base = (seed * 1009 + i) * 2
            optimizer = CentroidLearning(
                space,
                guardrail=Guardrail(),
                switch_detector=TaskSwitchDetector(
                    warmup=4, threshold=4.0, size_jump=3.0
                ),
                safe_gate=SafeExplorationGate(),
                seed=base + 1,
            )
            sessions.append(TuningSession(
                plans[i % 2],
                SparkSimulator(noise=high_noise(), seed=base),
                optimizer,
                scale_fn=scale_fn,
            ))
        return sessions

    def run(self, sessions: List[TuningSession], pause=None) -> Episode:
        pauses = _Pauses(pause)
        latencies: List[float] = []
        started = perf_counter()
        for session in sessions:
            for _ in range(self.n_steps):
                t0 = perf_counter()
                session.step()
                latencies.append(perf_counter() - t0)
            pauses()
        wall = perf_counter() - started - pauses.seconds
        n = len(latencies)
        return Episode(
            wall_s=wall, session_steps=n, step_latencies=latencies,
            request_latencies=latencies, request_busy_s=sum(latencies),
            attempted=n, failed=sum(s.fallback_count for s in sessions),
        )

    def outcome(self, seed: int, sessions: List[TuningSession]) -> Outcome:
        trail = _Trail()
        ratios = []
        for session in sessions:
            _digest_records(trail, session.trace.records)
            scale = session.scale_fn(self.n_steps - 1)
            ratios.append(_speedup_at(
                session.optimizer.space, session.simulator, session.plan,
                session.optimizer.centroid, scale,
            ))
        return Outcome(trail.hexdigest(), _geomean(ratios), len(sessions))


# -- fleet -----------------------------------------------------------------------------

@dataclass
class FleetState:
    fleet: LockstepSessions
    traces: list = field(default_factory=list)


class FleetWorkload:
    """One lock-step population of K=256 guardrailed CL sessions."""

    name = "fleet"
    replicas = 64
    n_steps = 120
    # Sessions re-run through TuningSession after the episode (bitwise check).
    check_sample = (0, 1, 2, 3, 130, 255)

    def specs(self, seed: int) -> List[SessionSpec]:
        space = query_level_space()
        plans = [tpch_plan(3, 10.0), tpch_plan(9, 10.0),
                 tpcds_plan(23, 100.0), tpcds_plan(7, 10.0)]
        drift = LinearGrowth(initial=1.0, slope=0.01)
        specs = []
        for k in range(self.replicas * len(plans)):
            base = (seed * 1013 + k) * 2
            specs.append(SessionSpec(
                plan=plans[k % len(plans)],
                simulator=SparkSimulator(noise=low_noise(), seed=base),
                optimizer=CentroidLearning(space, guardrail=Guardrail(), seed=base + 1),
                scale_fn=drift,
            ))
        return specs

    def build(self, seed: int) -> FleetState:
        return FleetState(LockstepSessions(self.specs(seed)))

    def run(self, state: FleetState, pause=None) -> Episode:
        fleet = state.fleet
        pauses = _Pauses(pause)
        latencies: List[float] = []
        started = perf_counter()
        for t in range(self.n_steps - 1):
            t0 = perf_counter()
            fleet.step()
            latencies.append(perf_counter() - t0)
            if t % 10 == 9:
                pauses()
        # The last step goes through advance(), which also writes the
        # lock-step state back into the optimizer objects; that write-back
        # is not a step, so it counts in the wall time only.
        fleet.advance(1)
        state.traces = fleet.traces()
        wall = perf_counter() - started - pauses.seconds
        steps = fleet.k * self.n_steps
        return Episode(
            wall_s=wall, session_steps=steps, step_latencies=latencies,
            request_latencies=latencies, request_busy_s=sum(latencies),
            attempted=steps, failed=0,
        )

    def outcome(self, seed: int, state: FleetState) -> Outcome:
        fleet = state.fleet
        trail = _Trail()
        ratios = []
        scale = fleet.specs[0].scale_fn(self.n_steps - 1)
        for spec, trace in zip(fleet.specs, state.traces):
            _digest_records(trail, trace.records)
            ratios.append(_speedup_at(
                spec.optimizer.space, spec.simulator, spec.plan,
                spec.optimizer.centroid, scale,
            ))
        return Outcome(trail.hexdigest(), _geomean(ratios), fleet.k)

    def replay_check(self, seed: int, state: FleetState) -> bool:
        """A fixed sample of sessions re-run sequentially must match bitwise."""
        fresh = self.specs(seed)
        for k in self.check_sample:
            sequential = fresh[k].to_session().run(self.n_steps)
            a, b = _Trail(), _Trail()
            _digest_records(a, sequential.records)
            _digest_records(b, state.traces[k].records)
            if a.hexdigest() != b.hexdigest():
                return False
        return True


# -- service ---------------------------------------------------------------------------

@dataclass
class ServiceState:
    service: ShardedAutotuneService
    fleet: list
    trails: Dict[tuple, list] = field(default_factory=dict)
    completed: int = 0


class ServiceWorkload:
    """Phased closed-loop rounds against a 4-shard coalescing service."""

    name = "service"
    n_workloads = 200
    n_shards = 4
    n_rounds = 8
    population_seed = 0
    queue_capacity = 8192  # ample: admission never sheds at this depth

    def build(self, seed: int) -> ServiceState:
        # The tenant population (plans, noise levels, drift) is fixed; the
        # seed drives every random stream.  Populations drawn per seed
        # differ by +-20 % in total plan cost, which would swamp the bounds.
        fleet = [
            dataclasses.replace(session, simulator=SparkSimulator(
                noise=session.workload.noise, seed=(seed * 7919 + i) * 2,
            ))
            for i, session in enumerate(
                build_fleet(self.n_workloads, self.population_seed))
        ]
        space = query_level_space()
        by_key = {(s.workload_id, s.signature): s for s in fleet}

        def factory(workload_id: str, signature: str) -> CentroidLearning:
            # Even-indexed workloads carry the paper guardrail, which routes
            # their requests to the service's scalar fallback path.
            session = by_key[(workload_id, signature)]
            guardrail = Guardrail() if session.workload_index % 2 == 0 else None
            return CentroidLearning(
                space, guardrail=guardrail, seed=session.optimizer_seed(seed)
            )

        service = ShardedAutotuneService(
            self.n_shards, factory, queue_capacity=self.queue_capacity,
            coalesce=True,
        )
        return ServiceState(service=service, fleet=fleet)

    def run(self, state: ServiceState, pause=None) -> Episode:
        service, fleet = state.service, state.fleet
        pauses = _Pauses(pause)
        space = query_level_space()
        request_latencies: List[float] = []
        step_latencies: List[float] = []
        drain_s = 0.0
        shed = lost = completed = attempted = 0

        def submit(requests: List[TuneRequest]) -> None:
            nonlocal shed, attempted
            for request in requests:
                attempted += 1
                if not service.submit(request).accepted:
                    shed += 1

        def drain() -> None:
            nonlocal drain_s
            t0 = perf_counter()
            service.drain_all(parallel=False)
            drain_s += perf_counter() - t0

        started = perf_counter()
        for t in range(self.n_rounds):
            suggests = [
                TuneRequest.suggest(s.workload_id, s.signature, priority=s.priority)
                for s in fleet
            ]
            submit(suggests)
            drain()
            pairs = []
            for session, request in zip(fleet, suggests):
                if not request.done:
                    lost += 1
                    continue
                vector = np.asarray(request.result, dtype=float)
                result = session.simulator.run(
                    session.plan, space.to_dict(vector),
                    data_scale=session.workload.data_scale(t),
                )
                observation = Observation(
                    config=vector, performance=result.elapsed_seconds,
                    data_size=result.data_size, iteration=t,
                )
                state.trails.setdefault(
                    (session.workload_id, session.signature), []
                ).append((vector, result.elapsed_seconds, result.true_seconds,
                          result.data_size))
                pairs.append((request, TuneRequest.observe(
                    session.workload_id, session.signature, observation,
                    priority=session.priority,
                )))
            submit([observe for _, observe in pairs])
            drain()
            for suggest, observe in pairs:
                completed += 1
                request_latencies.append(suggest.completed_at - suggest.submitted_at)
                if not observe.done:
                    lost += 1
                    continue
                completed += 1
                request_latencies.append(observe.completed_at - observe.submitted_at)
                step_latencies.append(observe.completed_at - suggest.submitted_at)
            pauses()  # between rounds: outside every request's round trip
        wall = perf_counter() - started - pauses.seconds
        state.completed = completed
        return Episode(
            wall_s=wall, session_steps=len(step_latencies),
            step_latencies=step_latencies, request_latencies=request_latencies,
            request_busy_s=drain_s, attempted=attempted,
            failed=shed + lost, shed=shed, lost=lost,
        )

    def outcome(self, seed: int, state: ServiceState) -> Outcome:
        trail = _Trail()
        ratios = []
        hosted = state.service.sessions()
        scale_at = self.n_rounds - 1
        for session in state.fleet:
            key = (session.workload_id, session.signature)
            trail.text("|".join(key))
            for vector, observed, true, size in state.trails.get(key, ()):
                trail.floats(vector)
                trail.floats([observed, true, size])
            optimizer = hosted[key].optimizer
            ratios.append(_speedup_at(
                optimizer.space, session.simulator, session.plan,
                optimizer.centroid, session.workload.data_scale(scale_at),
            ))
        expected = 2 * len(state.fleet) * self.n_rounds
        metrics = state.service.metrics()["service"]
        checks = {
            "requests_conserved": state.completed == expected,
            "no_shed": metrics["shed"] == 0,
        }
        return Outcome(trail.hexdigest(), _geomean(ratios), len(state.fleet), checks)

    @staticmethod
    def coalesced_fraction(state: ServiceState) -> float:
        """Share of requests served by sessions on the batched path."""
        total = batched = 0
        for session in state.service.sessions().values():
            total += session.requests
            if session.batch_profile is not None:
                batched += session.requests
        return batched / total if total else 0.0


WORKLOADS = {w.name: w for w in (SessionWorkload(), FleetWorkload(), ServiceWorkload())}
