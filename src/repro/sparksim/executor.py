"""The Spark simulator: runs plans under configurations with injected noise.

``SparkSimulator`` is the substrate replacing live Fabric clusters (see
DESIGN.md substitutions).  It composes the analytic :class:`CostModel` with
the paper's Eq.-8 :class:`NoiseModel` and produces event records like a real
cluster's listener would.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from .batch import ConfigColumns
from .cluster import ExecutorLayout, Pool, default_pool
from .cost_model import CostBreakdown, CostModel, CostParameters
from .events import QueryEndEvent
from .noise import NoiseModel, high_noise
from .plan import PhysicalPlan

__all__ = ["QueryRunResult", "SparkSimulator"]


@dataclass(frozen=True)
class QueryRunResult:
    """Outcome of one simulated query execution."""

    elapsed_seconds: float     # noisy, what production observes
    true_seconds: float        # noiseless, for optimality-gap analysis
    data_size: float           # input rows (the p_i of Algorithm 1)
    config: Dict[str, float]
    metrics: Dict[str, float] = field(default_factory=dict)
    plan_signature: str = ""


class SparkSimulator:
    """Executes physical plans under a configuration, with noise.

    Args:
        pool: the Spark pool (node flavor + size) to run on.
        noise: observational noise model; defaults to the paper's high-noise
            production regime.
        cost_params: physical constants of the cost model.
        seed: RNG seed — two simulators with the same seed replay identical
            noise sequences.
    """

    def __init__(
        self,
        pool: Optional[Pool] = None,
        noise: Optional[NoiseModel] = None,
        cost_params: Optional[CostParameters] = None,
        seed: Optional[int] = None,
    ):
        self.pool = pool or default_pool()
        self.noise = noise if noise is not None else high_noise()
        self.cost_model = CostModel(cost_params)
        self._rng = np.random.default_rng(seed)
        self.run_count = 0
        # plan -> {data_scale: scaled copy}; weak keys so retired plans and
        # their scaled copies are collectable.
        self._scaled_cache: "weakref.WeakKeyDictionary[PhysicalPlan, Dict[float, PhysicalPlan]]" = (
            weakref.WeakKeyDictionary()
        )

    def true_time(
        self, plan: PhysicalPlan, config: Mapping[str, float],
        data_scale: float = 1.0, overlay=None,
    ) -> float:
        """Noiseless execution time — the quantity tuning tries to minimize."""
        return self._estimate(plan, config, data_scale, overlay).total_seconds

    def true_time_batch(
        self,
        plan: PhysicalPlan,
        configs,
        *,
        space=None,
        data_scale: float = 1.0,
        data_scales: Optional[np.ndarray] = None,
        overlay=None,
    ) -> np.ndarray:
        """Noiseless execution times for N configurations at once.

        ``configs`` may be config dicts, an ``(N, dim)`` internal-vector
        array (then ``space`` is required), or a prebuilt
        :class:`~repro.sparksim.batch.ConfigColumns`.  Element *i* is
        bit-identical to ``true_time(plan, configs[i], data_scale)`` — or,
        with per-config ``data_scales`` (an ``(N,)`` array, the lock-step
        engine's path), to ``true_time(plan, configs[i], data_scales[i])``.
        ``overlay`` applies stage-scoped knob overrides to every row (see
        ``repro.sparksim.overlay``).
        """
        if data_scales is not None:
            if data_scale != 1.0:
                raise ValueError("pass data_scale or data_scales, not both")
            return self.cost_model.estimate_batch(
                plan, configs, space=space, pool=self.pool,
                data_scales=data_scales, overlay=overlay,
            )
        scaled = self._scaled_plan(plan, data_scale)
        return self.cost_model.estimate_batch(
            scaled, configs, space=space, pool=self.pool, overlay=overlay
        )

    def observe_true(self, true_seconds: float) -> float:
        """Turn one precomputed noiseless time into the observed time.

        Applies exactly the per-run tail of :meth:`run` — one
        :meth:`NoiseModel.apply` draw from this simulator's RNG stream plus
        the ``run_count`` bump — without re-estimating the cost.  A caller
        that computes true times in bulk (``true_time_batch``) and then
        feeds them through ``observe_true`` in run order sees a noise
        stream bit-identical to sequential :meth:`run` calls; the lock-step
        session engine relies on this to keep per-session observations
        reproducible.
        """
        observed = self.noise.apply(true_seconds, self._rng)
        self.run_count += 1
        return observed

    def _scaled_plan(self, plan: PhysicalPlan, data_scale: float) -> PhysicalPlan:
        """Memoized ``plan.scaled(data_scale)`` (identity-keyed, weak refs)."""
        if data_scale == 1.0:
            return plan
        per_scale = self._scaled_cache.get(plan)
        if per_scale is None:
            per_scale = {}
            self._scaled_cache[plan] = per_scale
        scaled = per_scale.get(data_scale)
        if scaled is None:
            scaled = plan.scaled(data_scale)
            per_scale[data_scale] = scaled
        return scaled

    def _estimate(
        self, plan: PhysicalPlan, config: Mapping[str, float], data_scale: float,
        overlay=None,
    ) -> CostBreakdown:
        scaled = self._scaled_plan(plan, data_scale)
        layout = ExecutorLayout.from_config(config, self.pool)
        return self.cost_model.estimate(scaled, config, layout, overlay)

    def run(
        self,
        plan: PhysicalPlan,
        config: Mapping[str, float],
        data_scale: float = 1.0,
        overlay=None,
    ) -> QueryRunResult:
        """Execute ``plan`` once and return the (noisy) observed result.

        ``overlay`` applies stage-scoped knob overrides (see
        ``repro.sparksim.overlay``); ``None`` is the whole-app path.
        """
        breakdown = self._estimate(plan, config, data_scale, overlay)
        observed = self.noise.apply(breakdown.total_seconds, self._rng)
        self.run_count += 1
        return QueryRunResult(
            elapsed_seconds=observed,
            true_seconds=breakdown.total_seconds,
            data_size=max(plan.total_leaf_cardinality * data_scale, 1.0),
            config=dict(config),
            metrics=dict(breakdown.metrics),
            plan_signature=plan.signature(),
        )

    def run_batch(
        self,
        plan: PhysicalPlan,
        configs,
        *,
        space=None,
        data_scale: float = 1.0,
        overlay=None,
    ) -> List[QueryRunResult]:
        """Execute ``plan`` under N configurations, one noise draw per config.

        Cost estimation is vectorized; noise is applied per result *in batch
        order from the simulator's single RNG stream*, so the returned
        ``elapsed_seconds`` sequence is bit-identical to N sequential
        :meth:`run` calls on an identically-seeded simulator (the property
        tests pin this).  ``run_count`` advances by N.
        """
        cols = ConfigColumns.coerce(configs, space)
        scaled = self._scaled_plan(plan, data_scale)
        batch = self.cost_model.estimate_batch(
            scaled, cols, pool=self.pool, overlay=overlay, breakdown=True
        )
        data_size = max(plan.total_leaf_cardinality * data_scale, 1.0)
        signature = plan.signature()
        results: List[QueryRunResult] = []
        for i in range(cols.n):
            true_seconds = float(batch.total_seconds[i])
            # NoiseModel.apply draws a variable number of RNG variates per
            # call, so a per-element loop (not apply_many) is what keeps the
            # noise stream aligned with sequential run() calls.
            observed = float(self.noise.apply(true_seconds, self._rng))
            self.run_count += 1
            results.append(
                QueryRunResult(
                    elapsed_seconds=observed,
                    true_seconds=true_seconds,
                    data_size=data_size,
                    config=cols.dict_at(i),
                    metrics=batch.metrics_at(i),
                    plan_signature=signature,
                )
            )
        return results

    def run_to_event(
        self,
        plan: PhysicalPlan,
        config: Mapping[str, float],
        *,
        app_id: str,
        artifact_id: str,
        user_id: str,
        iteration: int,
        data_scale: float = 1.0,
        embedding=None,
        region: str = "default",
    ) -> QueryEndEvent:
        """Execute and package the result as a listener event (Sec. 5)."""
        result = self.run(plan, config, data_scale)
        return QueryEndEvent(
            app_id=app_id,
            artifact_id=artifact_id,
            query_signature=result.plan_signature,
            user_id=user_id,
            iteration=iteration,
            config={k: float(v) for k, v in result.config.items()},
            data_size=result.data_size,
            duration_seconds=result.elapsed_seconds,
            embedding=list(np.asarray(embedding, dtype=float)) if embedding is not None else [],
            metrics={k: float(v) for k, v in result.metrics.items()},
            region=region,
        )
