"""Reference cost model: the original per-operator scalar loop.

``estimate_reference(params, plan, config, layout, overlay)`` walks the plan
one operator at a time with plain Python floats and per-operator helper
calls, exactly as the cost model was first written.  It is the golden
oracle the production kernel (``CostModel.estimate`` /
``CostModel.estimate_batch``) is pinned against bitwise, and the
comparator of the N=1 and N=512 kernel benchmarks.  Production code never
calls it.
"""

from __future__ import annotations

import math
from typing import Dict, Mapping, Optional, Tuple

from repro.sparksim.cluster import ExecutorLayout, GIB
from repro.sparksim.cost_model import (
    _CODEC_CPU_TAX,
    _CODEC_SHUFFLE_FACTOR,
    _SERIALIZER_CPU_FACTOR,
    CostBreakdown,
    CostParameters,
)
from repro.sparksim.overlay import StageConfigOverlay, StageOverride
from repro.sparksim.plan import Operator, OpType, PhysicalPlan

__all__ = ["estimate_reference"]


def _wave_time(n_tasks: float, per_task_s: float, total_cores: int) -> float:
    """Tasks execute in waves of ``total_cores``; time = waves × task time."""
    waves = math.ceil(max(n_tasks, 1.0) / max(total_cores, 1))
    return waves * per_task_s


def _scan_cost(
    params: CostParameters, op: Operator, config: Mapping[str, float],
    layout: ExecutorLayout, override: Optional[StageOverride] = None,
) -> Tuple[float, Dict[str, float]]:
    bytes_total = op.bytes_in
    if override is not None and override.max_partition_bytes is not None:
        max_part = float(override.max_partition_bytes)
    else:
        max_part = float(config.get("spark.sql.files.maxPartitionBytes", 128 * 1024 * 1024))
    cores = layout.total_cores
    if override is not None and override.task_parallelism is not None:
        cores = min(cores, max(int(override.task_parallelism), 1))
    n_parts = max(1.0, math.ceil(bytes_total / max(max_part, 1.0)))
    per_task_bytes = bytes_total / n_parts
    per_task_s = (
        per_task_bytes / (params.scan_throughput_mb_s * 1e6)
        + params.task_overhead_s
    )
    time = _wave_time(n_parts, per_task_s, cores)
    time += n_parts * params.scheduling_overhead_s
    return time, {"scan_tasks": n_parts, "scan_bytes": bytes_total}


def _shuffle_cost(
    params: CostParameters, rows: float, row_bytes: float,
    config: Mapping[str, float], layout: ExecutorLayout,
    override: Optional[StageOverride] = None,
) -> Tuple[float, Dict[str, float]]:
    data_bytes = rows * row_bytes
    if override is not None and override.shuffle_partitions is not None:
        partitions = max(1.0, float(override.shuffle_partitions))
    else:
        partitions = max(1.0, float(config.get("spark.sql.shuffle.partitions", 200)))
    throughput = params.shuffle_throughput_mb_s * 1e6
    if layout.offheap_gb_per_executor > 0:
        throughput /= params.offheap_shuffle_discount  # faster with off-heap
    codec = str(config.get("spark.io.compression.codec", "lz4"))
    throughput *= _CODEC_SHUFFLE_FACTOR.get(codec, 1.0)
    throughput /= _CODEC_CPU_TAX.get(codec, 1.0)

    cores = layout.total_cores
    if override is not None and override.task_parallelism is not None:
        cores = min(cores, max(int(override.task_parallelism), 1))

    # Map side: write all data once, fully parallel.
    write_s = data_bytes / (throughput * cores)

    # Reduce side: the slowest task governs each wave.  Skewed keys make
    # the hottest partition larger; more partitions dilute the skew.
    per_task_bytes = data_bytes / partitions
    straggler = 1.0 + params.skew_coefficient * math.sqrt(
        params.skew_reference_partitions / partitions
    )
    hot_task_bytes = per_task_bytes * straggler

    # Memory spill: reducers that exceed their memory share hit disk.
    fraction = params.executor_memory_fraction
    if override is not None and override.memory_fraction is not None:
        fraction = float(override.memory_fraction)
    mem_budget = layout.memory_gb_per_core * GIB * fraction
    spill = 0.0
    if hot_task_bytes > mem_budget:
        overflow = hot_task_bytes / mem_budget - 1.0
        spill = min(params.spill_coefficient * overflow, 8.0)
    per_task_s = (hot_task_bytes / throughput) * (1.0 + spill) + params.task_overhead_s
    read_s = _wave_time(partitions, per_task_s, cores)
    sched_s = partitions * params.scheduling_overhead_s
    total = write_s + read_s + sched_s
    return total, {
        "shuffle_bytes": data_bytes,
        "shuffle_partitions": partitions,
        "spilled": 1.0 if spill > 0 else 0.0,
    }


def _cpu_cost(
    params: CostParameters, rows: float, layout: ExecutorLayout,
    factor: float = 1.0, config: Optional[Mapping[str, float]] = None,
) -> float:
    rate = params.cpu_rows_per_s
    if config is not None:
        serializer = str(config.get("spark.serializer", "java"))
        rate *= _SERIALIZER_CPU_FACTOR.get(serializer, 1.0)
    return factor * rows / (rate * max(layout.total_cores, 1))


def _join_cost(
    params: CostParameters, op: Operator, plan: PhysicalPlan,
    config: Mapping[str, float], layout: ExecutorLayout,
    override: Optional[StageOverride] = None,
) -> Tuple[float, Dict[str, float]]:
    children = [plan.operator(c) for c in op.children]
    if len(children) >= 2:
        sides = sorted(children, key=lambda c: c.bytes_out)
        build, probe = sides[0], sides[-1]
        build_bytes, probe_rows = build.bytes_out, probe.est_rows_out
    else:
        # Self-join / degenerate single-input join: split the input.
        build_bytes = op.bytes_in * 0.2
        probe_rows = op.est_rows_in * 0.8

    threshold = float(
        config.get("spark.sql.autoBroadcastJoinThreshold", 10 * 1024 * 1024)
    )
    metrics: Dict[str, float] = {}
    if build_bytes <= threshold:
        # Broadcast hash join: ship the build side to every executor.
        broadcast_s = (
            build_bytes * layout.executors
            / (params.network_throughput_mb_s * 1e6)
        )
        hash_build_s = _cpu_cost(
            params, build_bytes / max(op.row_bytes, 1.0), layout, 2.0, config
        )
        probe_s = _cpu_cost(params, probe_rows, layout, 1.5, config)
        time = broadcast_s + hash_build_s + probe_s
        # Memory pressure when a large build side is broadcast anyway.
        mem_budget = (
            layout.memory_gb_per_executor * GIB
            * params.broadcast_memory_fraction
        )
        if build_bytes > mem_budget:
            pressure = build_bytes / mem_budget
            time *= 1.0 + min(pressure * pressure, 25.0)
            metrics["broadcast_memory_pressure"] = pressure
        metrics["broadcast_joins"] = 1.0
    else:
        # Sort-merge join: shuffle both sides on the join key, then merge.
        # Stage overrides scope to the shuffle terms; the broadcast branch
        # above has no per-stage knob in the catalog this models.
        shuffle_s, shuffle_m = _shuffle_cost(
            params, op.est_rows_in, op.row_bytes, config, layout, override
        )
        n = max(op.est_rows_in, 2.0)
        sort_s = _cpu_cost(params, n * math.log2(n) / 20.0, layout, 1.0, config)
        merge_s = _cpu_cost(params, op.est_rows_in, layout, 1.2, config)
        time = shuffle_s + sort_s + merge_s
        metrics.update(shuffle_m)
        metrics["sort_merge_joins"] = 1.0
    return time, metrics


def estimate_reference(
    params: CostParameters,
    plan: PhysicalPlan,
    config: Mapping[str, float],
    layout: Optional[ExecutorLayout] = None,
    overlay: Optional[StageConfigOverlay] = None,
) -> CostBreakdown:
    """Noiseless estimate of ``plan`` under ``config``, one operator at a time."""
    layout = layout or ExecutorLayout.from_config(config)
    per_op: Dict[int, float] = {}
    metrics: Dict[str, float] = {"tasks": 0.0}
    for op in plan.operators:
        ov = overlay.get(op.op_id) if overlay is not None else None
        if op.op_type == OpType.TABLE_SCAN:
            cost, m = _scan_cost(params, op, config, layout, ov)
            metrics["tasks"] += m.get("scan_tasks", 0.0)
        elif op.op_type == OpType.EXCHANGE:
            cost, m = _shuffle_cost(params, op.est_rows_in, op.row_bytes, config, layout, ov)
            metrics["tasks"] += m.get("shuffle_partitions", 0.0)
        elif op.op_type == OpType.JOIN:
            cost, m = _join_cost(params, op, plan, config, layout, ov)
            metrics["tasks"] += m.get("shuffle_partitions", 0.0)
        elif op.op_type == OpType.HASH_AGGREGATE:
            shuffle_s, m = _shuffle_cost(
                params, op.est_rows_in * 0.5, op.row_bytes, config, layout, ov
            )
            cost = shuffle_s + _cpu_cost(params, op.est_rows_in, layout, 1.3, config)
            metrics["tasks"] += m.get("shuffle_partitions", 0.0)
        elif op.op_type in (OpType.SORT, OpType.WINDOW):
            shuffle_s, m = _shuffle_cost(params, op.est_rows_in, op.row_bytes, config, layout, ov)
            n = max(op.est_rows_in, 2.0)
            factor = 1.5 if op.op_type == OpType.WINDOW else 1.0
            cost = shuffle_s + _cpu_cost(params, n * math.log2(n) / 25.0, layout, factor, config)
            metrics["tasks"] += m.get("shuffle_partitions", 0.0)
        else:  # Filter, Project, Union, Limit — narrow transforms
            cost = _cpu_cost(params, op.est_rows_in, layout, 0.5, config)
            m = {}
        per_op[op.op_id] = cost
        for key, value in m.items():
            if key not in ("scan_tasks", "shuffle_partitions"):
                metrics[key] = metrics.get(key, 0.0) + value

    total = sum(per_op.values()) + params.fixed_query_overhead_s
    metrics["input_bytes"] = plan.total_input_bytes
    metrics["input_rows"] = plan.total_leaf_cardinality
    return CostBreakdown(total_seconds=total, per_operator=per_op, metrics=metrics)
