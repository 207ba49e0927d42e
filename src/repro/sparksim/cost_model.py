"""Analytic operator cost model.

This stands in for real Spark cluster executions.  It maps
``(physical plan, configuration, executor layout)`` to an execution time
whose *shape* over each knob matches the behaviors the paper's knobs are
known for (and that Fig. 1 shows):

* ``spark.sql.files.maxPartitionBytes`` — small values create many tiny scan
  tasks (scheduling overhead dominates); large values under-utilize cores.
* ``spark.sql.shuffle.partitions`` — few partitions concentrate data (skew
  stragglers + memory spills); many partitions pay per-task overhead.
* ``spark.sql.autoBroadcastJoinThreshold`` — too low forces shuffle joins on
  small build sides; too high broadcasts large tables and causes memory
  pressure.

Each knob therefore has a convex response with a query-dependent optimum,
exactly the structure the Centroid Learning algorithm assumes locally.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Union

import numpy as np

from .. import telemetry
from .batch import Column, ConfigColumns, LayoutArrays, plan_arrays, resolve_layouts
from .cluster import ExecutorLayout, GIB, Pool
from .overlay import StageConfigOverlay
from .plan import OpType, PhysicalPlan

__all__ = ["CostParameters", "CostBreakdown", "BatchCostBreakdown", "CostModel"]


@dataclass(frozen=True)
class CostParameters:
    """Physical constants of the simulated cluster software stack."""

    scan_throughput_mb_s: float = 250.0       # per core, columnar scan
    shuffle_throughput_mb_s: float = 80.0     # per core, write+read combined
    network_throughput_mb_s: float = 900.0    # broadcast distribution
    cpu_rows_per_s: float = 4.0e6             # per core, narrow transforms
    task_overhead_s: float = 0.03             # JVM task launch + commit
    scheduling_overhead_s: float = 0.0005     # driver-side, per task
    skew_coefficient: float = 0.3             # straggler severity at P=reference
    skew_reference_partitions: float = 200.0
    spill_coefficient: float = 1.6            # slowdown per x of memory overflow
    executor_memory_fraction: float = 0.6     # usable fraction of heap
    broadcast_memory_fraction: float = 0.3    # safe broadcast share of memory
    offheap_shuffle_discount: float = 0.85    # off-heap reduces GC-bound shuffles
    fixed_query_overhead_s: float = 1.0       # planning + session setup


# Categorical-knob effects (see repro.core.categorical for the tuning side).
# Compression trades CPU for shuffle I/O: zstd compresses harder (faster
# effective shuffle for large exchanges, slight CPU tax), snappy is cheap but
# lighter than lz4's balance.
_CODEC_SHUFFLE_FACTOR = {"lz4": 1.0, "snappy": 0.94, "zstd": 1.18}
_CODEC_CPU_TAX = {"lz4": 1.0, "snappy": 0.98, "zstd": 1.06}
# Kryo serializes rows ~25% faster than Java serialization.
_SERIALIZER_CPU_FACTOR = {"java": 1.0, "kryo": 1.25}


def _elementwise_log2(values: np.ndarray) -> np.ndarray:
    """``math.log2`` applied per element.

    ``np.log2`` and ``math.log2`` disagree in the last ulp on a small
    fraction of inputs, which would break the kernel's bitwise contract for
    per-config data scales; plans have few ``n·log2(n)`` operators, so the
    Python-level loop stays cheap relative to the batch.
    """
    return np.fromiter(
        (math.log2(v) for v in values), dtype=float, count=len(values)
    )


@dataclass
class CostBreakdown:
    """Estimated cost of one query execution (noiseless)."""

    total_seconds: float
    per_operator: Dict[int, float] = field(default_factory=dict)
    metrics: Dict[str, float] = field(default_factory=dict)


@dataclass
class BatchCostBreakdown:
    """Vectorized cost breakdown: one plan evaluated under N configurations.

    ``metric_values[key][i]`` holds config *i*'s accumulated value for
    ``key``; ``metric_masks[key][i]`` says whether :meth:`CostModel.estimate`
    emits that key at all for config *i* (the broadcast/sort-merge branch
    changes which join metrics exist row by row).
    """

    total_seconds: np.ndarray                 # (N,)
    per_operator: Dict[int, np.ndarray]       # op_id -> (N,), topological order
    metric_values: Dict[str, np.ndarray]      # key -> (N,)
    metric_masks: Dict[str, np.ndarray]       # key -> (N,) bool
    input_bytes: float
    input_rows: float

    @property
    def n(self) -> int:
        return int(self.total_seconds.shape[0])

    def metrics_at(self, i: int) -> Dict[str, float]:
        """Config *i*'s metrics dict, as :meth:`CostModel.estimate` reports it."""
        metrics: Dict[str, float] = {}
        for key, values in self.metric_values.items():
            if self.metric_masks[key][i]:
                metrics[key] = float(values[i])
        metrics["input_bytes"] = self.input_bytes
        metrics["input_rows"] = self.input_rows
        return metrics

    def breakdown_at(self, i: int) -> CostBreakdown:
        """Config *i*'s result as the single-config :class:`CostBreakdown`."""
        return CostBreakdown(
            total_seconds=float(self.total_seconds[i]),
            per_operator={op: float(costs[i]) for op, costs in self.per_operator.items()},
            metrics=self.metrics_at(i),
        )


class CostModel:
    """Maps (plan, config, layout) to a deterministic execution time."""

    def __init__(self, params: Optional[CostParameters] = None):
        self.params = params or CostParameters()

    def estimate(
        self,
        plan: PhysicalPlan,
        config: Mapping[str, float],
        layout: Optional[ExecutorLayout] = None,
        overlay: Optional[StageConfigOverlay] = None,
    ) -> CostBreakdown:
        """Noiseless execution-time estimate for ``plan`` under ``config``.

        A 1-row pass of the batch kernel: every column of a single config is
        a Python float, so the kernel runs its float path and the result is
        assembled here without any array round trip.  ``overlay`` applies
        per-stage knob overrides (see ``repro.sparksim.overlay``).
        """
        arrays, (total, per_op, values, masks) = self._evaluate(
            plan, ConfigColumns(1, dicts=(config,)), layout, None, 1.0, None,
            overlay, True,
        )
        metrics = {key: value for key, value in values.items() if masks[key]}
        metrics["input_bytes"] = arrays.total_input_bytes
        metrics["input_rows"] = arrays.total_leaf_cardinality
        return CostBreakdown(total_seconds=total, per_operator=per_op, metrics=metrics)

    def estimate_batch(
        self,
        plan: PhysicalPlan,
        configs: Union[Sequence[Mapping[str, float]], np.ndarray, ConfigColumns],
        layout: Optional[ExecutorLayout] = None,
        *,
        space=None,
        pool: Optional[Pool] = None,
        data_scale: float = 1.0,
        data_scales: Optional[np.ndarray] = None,
        overlay: Optional[StageConfigOverlay] = None,
        breakdown: bool = False,
    ) -> Union[np.ndarray, BatchCostBreakdown]:
        """Noiseless estimates for all N configurations at once.

        ``configs`` may be a sequence of config dicts, an ``(N, dim)`` array
        of internal vectors (then ``space`` is required), or a prebuilt
        :class:`ConfigColumns`.  Returns ``(N,)`` seconds, or the full
        :class:`BatchCostBreakdown` when ``breakdown=True``.  Row *i* is
        bit-identical to :meth:`estimate` on configuration *i*.

        ``data_scales`` gives every configuration its *own* input scale (an
        ``(N,)`` array): row counts scale per element in the exact
        multiplication order of ``plan.scaled(s)``, so element *i* is
        bit-identical to an estimate on ``plan.scaled(data_scales[i])``.
        This is what lets the lock-step engine evaluate K sessions with
        heterogeneous data-size drift in one kernel pass.  Mutually
        exclusive with a non-unit ``data_scale`` and with ``breakdown``.

        ``overlay`` applies the same per-stage knob overrides to every row
        (see ``repro.sparksim.overlay``).
        """
        cols = ConfigColumns.coerce(configs, space)
        n = cols.n
        if data_scales is not None:
            data_scales = np.asarray(data_scales, dtype=float)
            if data_scales.shape != (n,):
                raise ValueError(
                    f"data_scales must have shape ({n},), got {data_scales.shape}"
                )
            if np.any(data_scales <= 0):
                raise ValueError("data_scales must be > 0")
            if data_scale != 1.0:
                raise ValueError("pass data_scale or data_scales, not both")
            if breakdown:
                raise ValueError("breakdown is not supported with data_scales")
            if np.all(data_scales == 1.0):
                data_scales = None  # uniform unit scales: plain fast path
        arrays, (total, per_op, values, masks) = self._evaluate(
            plan, cols, layout, pool, data_scale, data_scales, overlay, breakdown
        )
        if not breakdown:
            return _column(total, n)
        return BatchCostBreakdown(
            total_seconds=_column(total, n),
            per_operator={op: _column(cost, n) for op, cost in per_op.items()},
            metric_values={key: _column(v, n) for key, v in values.items()},
            metric_masks={key: _column(m, n) for key, m in masks.items()},
            input_bytes=arrays.total_input_bytes,
            input_rows=arrays.total_leaf_cardinality,
        )

    def _evaluate(
        self, plan, cols: ConfigColumns, layout: Optional[ExecutorLayout],
        pool: Optional[Pool], data_scale: float, scales: Optional[np.ndarray],
        overlay: Optional[StageConfigOverlay], want_breakdown: bool,
    ):
        """Resolve plan arrays and layouts, run the kernel, record telemetry.

        Returns ``(plan arrays, kernel result)``; one
        ``sparksim.batch_estimates`` count per call, whatever the batch size.
        """
        started = time.perf_counter() if telemetry.enabled() else None
        arrays = plan_arrays(plan, data_scale)
        if layout is not None:
            layouts = LayoutArrays.from_layout(layout)
        else:
            layouts = resolve_layouts(cols, pool)
        result = self._batch_kernel(arrays, cols, layouts, want_breakdown,
                                    scales=scales, overlay=overlay)
        if started is not None:
            telemetry.counter("sparksim.batch_estimates").inc()
            telemetry.counter("sparksim.batch_configs").inc(cols.n)
            telemetry.histogram("sparksim.batch_kernel_seconds").observe(
                time.perf_counter() - started
            )
        return arrays, result

    def _batch_kernel(
        self, arrays, cols: ConfigColumns, layouts: LayoutArrays,
        want_breakdown: bool, scales: Optional[np.ndarray] = None,
        overlay: Optional[StageConfigOverlay] = None,
    ):
        """The cost model: per-operator costs for N configurations.

        Returns ``(total, per_operator, metric_values, metric_masks)``.  Each
        value is an ``(N,)`` array where the batch varies and a plain Python
        float (or bool, for masks) where it does not; callers broadcast at
        the end.  ``metric_masks[key]`` says whether a row emits ``key`` at
        all (the broadcast/sort-merge branch changes which join metrics
        exist row by row).  When ``want_breakdown`` is false only ``total``
        is computed — per-operator and metric bookkeeping has no effect on
        totals.

        Per-operator costs stay a short Python loop (plans have ~10 nodes)
        over float tuples precompiled in :class:`PlanArrays`.  When every
        config and layout column is a Python float and there are no
        per-config ``scales`` (every 1-row call), the loop runs entirely on
        floats through the ``math``/builtin equivalents of the ufuncs; they
        perform the same IEEE operations in the same order, so both paths
        agree bitwise.

        With per-config ``scales`` (an ``(N,)`` array; ``arrays`` must then
        be compiled at scale 1.0) row counts become per-config arrays.  The
        ``n·log2(n)`` sort terms go through :func:`_elementwise_log2` —
        ``np.log2`` differs from ``math.log2`` in the last ulp on a few
        inputs, so the scalar ``math.log2`` is applied per element to keep
        the bitwise contract.
        """
        p = self.params
        cores = layouts.total_cores                       # already max(·, 1)
        executors = layouts.executors

        # Config columns (arrays, or plain floats when uniform across rows).
        max_part_col = cols.numeric(
            "spark.sql.files.maxPartitionBytes", 128 * 1024 * 1024
        )
        partitions_col = cols.numeric("spark.sql.shuffle.partitions", 200)
        threshold = cols.numeric(
            "spark.sql.autoBroadcastJoinThreshold", 10 * 1024 * 1024
        )
        codec_shuffle = cols.factor(
            "spark.io.compression.codec", "lz4", _CODEC_SHUFFLE_FACTOR
        )
        codec_tax = cols.factor("spark.io.compression.codec", "lz4", _CODEC_CPU_TAX)
        ser_factor = cols.factor("spark.serializer", "java", _SERIALIZER_CPU_FACTOR)

        # The float path: when every operand is a uniform scalar (N=1, or a
        # batch that never varies the relevant knobs) the math/builtin
        # equivalents produce the same IEEE values as the ufuncs without
        # per-call dispatch overhead.  Selection only; the formulas and the
        # bookkeeping below are shared.
        uniform = scales is None and np.ndarray not in map(type, (
            max_part_col, partitions_col, threshold, codec_shuffle,
            codec_tax, ser_factor, cores, executors,
            layouts.memory_gb_per_executor, layouts.memory_gb_per_core,
            layouts.offheap_positive,
        ))
        if uniform:
            ceil_, sqrt_, maximum_, minimum_ = math.ceil, math.sqrt, max, min
            where_, not_ = _select, operator.not_
        else:
            ceil_, sqrt_ = np.ceil, np.sqrt
            maximum_, minimum_ = np.maximum, np.minimum
            where_, not_ = np.where, np.logical_not

        max_part = maximum_(max_part_col, 1.0)
        partitions = maximum_(1.0, partitions_col)

        # Shuffle throughput, in the order: base, optional off-heap
        # division, codec multiply, CPU-tax division.
        tp_base = p.shuffle_throughput_mb_s * 1e6
        throughput = (
            where_(layouts.offheap_positive, tp_base / p.offheap_shuffle_discount, tp_base)
            * codec_shuffle
            / codec_tax
        )
        cpu_rate_cores = (p.cpu_rows_per_s * ser_factor) * cores
        scan_denom = p.scan_throughput_mb_s * 1e6
        net_denom = p.network_throughput_mb_s * 1e6
        shuffle_mem_budget = layouts.memory_gb_per_core * GIB * p.executor_memory_fraction
        bc_mem_budget = (
            layouts.memory_gb_per_executor * GIB * p.broadcast_memory_fraction
        )
        shuffle_waves = ceil_(maximum_(partitions, 1.0) / cores)
        shuffle_sched = partitions * p.scheduling_overhead_s
        straggler = 1.0 + p.skew_coefficient * sqrt_(
            p.skew_reference_partitions / partitions
        )

        def shuffle(data_bytes, parts=partitions, strag=straggler,
                    waves=shuffle_waves, sched=shuffle_sched,
                    budget=shuffle_mem_budget, c=cores):
            """(read+write time, spill slowdown) for one exchange of data_bytes.

            Defaults are the app-level columns bound at definition time; a
            stage override passes its own terms via :func:`stage_terms`.
            """
            write_s = data_bytes / (throughput * c)
            hot = (data_bytes / parts) * strag
            overflow = hot / budget - 1.0
            spill = where_(
                hot > budget,
                minimum_(p.spill_coefficient * overflow, 8.0),
                0.0,
            )
            per_task_s = (hot / throughput) * (1.0 + spill) + p.task_overhead_s
            total = write_s + waves * per_task_s + sched
            return total, spill

        def stage_terms(ov):
            """Per-stage shuffle terms for one override, in the same
            arithmetic order as the app-level terms above."""
            if ov.task_parallelism is None:
                c = cores
            else:
                c = minimum_(cores, float(max(int(ov.task_parallelism), 1)))
            if ov.shuffle_partitions is None:
                parts = partitions
            else:
                parts = maximum_(1.0, float(ov.shuffle_partitions))
            strag = 1.0 + p.skew_coefficient * sqrt_(
                p.skew_reference_partitions / parts
            )
            waves = ceil_(maximum_(parts, 1.0) / c)
            sched = parts * p.scheduling_overhead_s
            if ov.memory_fraction is None:
                budget = shuffle_mem_budget
            else:
                budget = (
                    layouts.memory_gb_per_core * GIB * float(ov.memory_fraction)
                )
            return parts, strag, waves, sched, budget, c

        def cpu(rows, factor):
            return factor * rows / cpu_rate_cores

        # Bookkeeping starts from Python scalars: 0.0 + x is x bitwise, and
        # a value only becomes an array once an array is added to it.
        total = 0.0
        tasks = 0.0
        per_op: Dict[int, Column] = {}
        metric_values: Dict[str, Column] = {"tasks": 0.0}
        metric_masks: Dict[str, Union[np.ndarray, bool]] = {"tasks": True}

        def add_metric(key, value, mask=True):
            if mask is not True:
                value = where_(mask, value, 0.0)
            metric_values[key] = metric_values.get(key, 0.0) + value
            metric_masks[key] = metric_masks.get(key, False) | mask

        ops = zip(arrays.op_ids, arrays.op_types, arrays.rows_in, arrays.row_bytes)
        for i, (op_id, op_type, rows_in, row_bytes) in enumerate(ops):
            # Stage override for this operator (None without an overlay).
            ov = overlay.get(op_id) if overlay is not None else None
            sh = () if ov is None else stage_terms(ov)
            op_parts = partitions if ov is None else sh[0]
            # Per-config scales multiply the *rows* first; bytes derive from
            # the scaled rows — the exact order of plan.scaled(s).
            if scales is not None:
                rows_in = rows_in * scales
            if op_type == OpType.TABLE_SCAN:
                bytes_total = (
                    arrays.bytes_in[i] if scales is None else rows_in * row_bytes
                )
                if ov is None:
                    mp, c = max_part, cores
                else:
                    if ov.max_partition_bytes is None:
                        mp = max_part
                    else:
                        mp = maximum_(float(ov.max_partition_bytes), 1.0)
                    c = sh[5]
                n_parts = maximum_(1.0, ceil_(bytes_total / mp))
                per_task_s = (
                    (bytes_total / n_parts) / scan_denom + p.task_overhead_s
                )
                cost = ceil_(maximum_(n_parts, 1.0) / c) * per_task_s
                cost = cost + n_parts * p.scheduling_overhead_s
                if want_breakdown:
                    tasks = tasks + n_parts
                    add_metric("scan_bytes", bytes_total)
            elif op_type == OpType.EXCHANGE:
                cost, spill = shuffle(rows_in * row_bytes, *sh)
                if want_breakdown:
                    tasks = tasks + op_parts
                    add_metric("shuffle_bytes", rows_in * row_bytes)
                    add_metric("spilled", where_(spill > 0, 1.0, 0.0))
            elif op_type == OpType.JOIN:
                if scales is None:
                    build_bytes = arrays.join_build_bytes[i]
                    probe_rows = arrays.join_probe_rows[i]
                elif arrays.join_degenerate[i]:
                    build_bytes = (rows_in * row_bytes) * 0.2
                    probe_rows = rows_in * 0.8
                else:
                    build_bytes = (
                        arrays.join_build_rows[i] * scales
                    ) * arrays.join_build_row_bytes[i]
                    probe_rows = arrays.join_probe_rows[i] * scales
                is_broadcast = build_bytes <= threshold
                # Arrays price both joins for every row and select by mask;
                # the float path prices only the join it takes (the other
                # one's terms are masked out of every result).
                t_bc = t_smj = pressure = spill = 0.0
                pressured = False
                if is_broadcast is not False:
                    # Broadcast hash join: ship the build side to every
                    # executor; memory pressure when a large build side is
                    # broadcast anyway.
                    t_bc = (
                        build_bytes * executors / net_denom
                        + cpu(build_bytes / max(row_bytes, 1.0), 2.0)
                        + cpu(probe_rows, 1.5)
                    )
                    pressure = build_bytes / bc_mem_budget
                    pressured = build_bytes > bc_mem_budget
                    t_bc = where_(
                        pressured,
                        t_bc * (1.0 + minimum_(pressure * pressure, 25.0)),
                        t_bc,
                    )
                if is_broadcast is not True:
                    # Sort-merge join: shuffle both sides on the join key,
                    # then merge (stage overrides scope to its shuffle).
                    shuffle_s, spill = shuffle(rows_in * row_bytes, *sh)
                    if scales is None:
                        n_rows = max(rows_in, 2.0)
                        nlogn = n_rows * math.log2(n_rows)
                    else:
                        n_rows = np.maximum(rows_in, 2.0)
                        nlogn = n_rows * _elementwise_log2(n_rows)
                    t_smj = (
                        shuffle_s
                        + cpu(nlogn / 20.0, 1.0)
                        + cpu(rows_in, 1.2)
                    )
                cost = where_(is_broadcast, t_bc, t_smj)
                if want_breakdown:
                    smj = not_(is_broadcast)
                    tasks = tasks + where_(smj, op_parts, 0.0)
                    add_metric(
                        "broadcast_memory_pressure", pressure,
                        is_broadcast & pressured,
                    )
                    add_metric("broadcast_joins", 1.0, is_broadcast)
                    add_metric("shuffle_bytes", rows_in * row_bytes, smj)
                    add_metric("spilled", where_(spill > 0, 1.0, 0.0), smj)
                    add_metric("sort_merge_joins", 1.0, smj)
            elif op_type == OpType.HASH_AGGREGATE:
                shuffle_s, spill = shuffle((rows_in * 0.5) * row_bytes, *sh)
                cost = shuffle_s + cpu(rows_in, 1.3)
                if want_breakdown:
                    tasks = tasks + op_parts
                    add_metric("shuffle_bytes", (rows_in * 0.5) * row_bytes)
                    add_metric("spilled", where_(spill > 0, 1.0, 0.0))
            elif op_type in (OpType.SORT, OpType.WINDOW):
                shuffle_s, spill = shuffle(rows_in * row_bytes, *sh)
                if scales is None:
                    n_rows = max(rows_in, 2.0)
                    nlogn = n_rows * math.log2(n_rows)
                else:
                    n_rows = np.maximum(rows_in, 2.0)
                    nlogn = n_rows * _elementwise_log2(n_rows)
                factor = 1.5 if op_type == OpType.WINDOW else 1.0
                cost = shuffle_s + cpu(nlogn / 25.0, factor)
                if want_breakdown:
                    tasks = tasks + op_parts
                    add_metric("shuffle_bytes", rows_in * row_bytes)
                    add_metric("spilled", where_(spill > 0, 1.0, 0.0))
            else:  # Filter, Project, Union, Limit — narrow transforms
                cost = cpu(rows_in, 0.5)
            if want_breakdown:
                per_op[op_id] = cost
            total = total + cost

        metric_values["tasks"] = tasks
        return total + p.fixed_query_overhead_s, per_op, metric_values, metric_masks


def _select(condition, if_true, if_false):
    """``np.where`` for the float path's scalar operands."""
    return if_true if condition else if_false


def _column(value, n: int) -> np.ndarray:
    """A kernel result as an ``(n,)`` column; uniform scalars broadcast here."""
    if isinstance(value, np.ndarray) and value.shape == (n,):
        return value
    return np.full(n, value)
