"""Support structures for the vectorized batch-evaluation fast path.

The cost model's batch kernel (:meth:`CostModel.estimate_batch`) evaluates
N configurations against one plan in a handful of NumPy operations instead
of N interpreter passes.  Three ingredients live here:

* :class:`PlanArrays` — a per-plan precompiled view of the operator DAG
  (topological op order, cardinality/byte arrays, resolved join build/probe
  inputs), cached by ``(plan.signature(), data_scale)`` so sweeps over the
  same plan never re-walk the graph or re-allocate a scaled copy;
* :class:`ConfigColumns` — a columnar natural-unit view of a batch of
  configurations, built either from config dicts or from an ``(N, dim)``
  internal-vector array plus its :class:`~repro.core.config_space.ConfigSpace`;
* :func:`resolve_layouts` — the batch :class:`ExecutorLayout` resolver:
  constant app-knob columns resolve once through the exact
  ``ExecutorLayout.from_config`` behind a small LRU; varying ones resolve
  elementwise with the same truncations and pool caps.

Everything here is derived data; the arithmetic that turns it into seconds
lives in :mod:`repro.sparksim.cost_model`.
"""

from __future__ import annotations

import functools
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .cluster import ExecutorLayout, Pool, default_pool
from .plan import OpType, PhysicalPlan

__all__ = [
    "ConfigColumns",
    "LayoutArrays",
    "PlanArrays",
    "clear_plan_arrays_cache",
    "plan_arrays",
    "plan_arrays_cache_stats",
    "resolve_layouts",
]

Column = Union[np.ndarray, float]


# -- precompiled plan arrays -------------------------------------------------------

@dataclass(frozen=True)
class PlanArrays:
    """Operator-array view of one plan at one data scale.

    All per-operator values are float tuples listed in topological
    (execution) order — the same order :attr:`PhysicalPlan.operators`
    yields — and carry the data scale already applied, with the exact
    multiplication order of ``plan.scaled(factor)`` (rows scale first, bytes
    derive from scaled rows) so every result is bit-compatible with an
    estimate on the scaled plan.  Tuples of Python floats keep the kernel's
    per-operator reads cheap; a per-config ``scales`` array broadcasts
    against them as NumPy operands.
    """

    signature: str
    data_scale: float
    op_ids: Tuple[int, ...]
    op_types: Tuple[str, ...]
    rows_in: Tuple[float, ...]           # scaled estimated input rows
    rows_out: Tuple[float, ...]          # scaled estimated output rows
    row_bytes: Tuple[float, ...]         # average row width (scale-invariant)
    bytes_in: Tuple[float, ...]          # rows_in * row_bytes
    join_build_bytes: Tuple[float, ...]  # build-side bytes for joins, 0 otherwise
    join_probe_rows: Tuple[float, ...]   # probe-side rows for joins, 0 otherwise
    total_leaf_cardinality: float
    total_input_bytes: float
    # Join-side components, kept separate so a *per-config* data-scale sweep
    # can recompute build/probe inputs in the exact multiplication order
    # ``(rows * scale) * row_bytes`` (see CostModel.estimate_batch's
    # ``data_scales``): build-side output rows, build-side row width, and a
    # degenerate-single-input-join flag.
    join_build_rows: Tuple[float, ...] = ()
    join_build_row_bytes: Tuple[float, ...] = ()
    join_degenerate: Tuple[bool, ...] = ()

    @property
    def n_ops(self) -> int:
        return len(self.op_ids)

    @classmethod
    def build(cls, plan: PhysicalPlan, data_scale: float = 1.0) -> "PlanArrays":
        """Precompile ``plan`` at ``data_scale`` (no caching; see :func:`plan_arrays`)."""
        if data_scale <= 0:
            raise ValueError("data_scale must be > 0")
        ops = plan.operators
        n = len(ops)
        rows_in: List[float] = []
        row_bytes: List[float] = []
        build_bytes = [0.0] * n
        probe_rows = [0.0] * n
        join_build_rows = [0.0] * n
        join_build_row_bytes = [0.0] * n
        join_degenerate = [False] * n
        for i, op in enumerate(ops):
            # Match plan.scaled(): rows scale first, bytes derive from the
            # scaled rows — this keeps ceil() boundaries identical to an
            # estimate on a scaled plan.
            rows_in.append(float(op.est_rows_in * data_scale))
            row_bytes.append(float(op.row_bytes))
            if op.op_type == OpType.JOIN:
                children = [plan.operator(c) for c in op.children]
                if len(children) >= 2:
                    # Build/probe selection is invariant under uniform
                    # scaling (sorted() is stable on ties), so it is
                    # resolved here once.
                    sides = sorted(
                        children, key=lambda c: (c.est_rows_out * data_scale) * c.row_bytes
                    )
                    build, probe = sides[0], sides[-1]
                    build_bytes[i] = float((build.est_rows_out * data_scale) * build.row_bytes)
                    probe_rows[i] = float(probe.est_rows_out * data_scale)
                    join_build_rows[i] = float(build.est_rows_out * data_scale)
                    join_build_row_bytes[i] = float(build.row_bytes)
                else:
                    # Self-join / degenerate single-input join: split the input.
                    build_bytes[i] = (rows_in[i] * row_bytes[i]) * 0.2
                    probe_rows[i] = rows_in[i] * 0.8
                    join_degenerate[i] = True
        # Leaf sums in the same node order the plan properties use, so the
        # reported metrics match plan.scaled(data_scale) exactly.
        leaf_rows = 0.0
        leaf_bytes = 0.0
        for leaf in plan.leaves:
            scaled_rows = leaf.est_rows_in * data_scale
            leaf_rows += scaled_rows
            leaf_bytes += scaled_rows * leaf.row_bytes
        return cls(
            signature=plan.signature(),
            data_scale=float(data_scale),
            op_ids=tuple(op.op_id for op in ops),
            op_types=tuple(op.op_type for op in ops),
            rows_in=tuple(rows_in),
            rows_out=tuple(float(op.est_rows_out * data_scale) for op in ops),
            row_bytes=tuple(row_bytes),
            bytes_in=tuple(r * b for r, b in zip(rows_in, row_bytes)),
            join_build_bytes=tuple(build_bytes),
            join_probe_rows=tuple(probe_rows),
            total_leaf_cardinality=leaf_rows,
            total_input_bytes=leaf_bytes,
            join_build_rows=tuple(join_build_rows),
            join_build_row_bytes=tuple(join_build_row_bytes),
            join_degenerate=tuple(join_degenerate),
        )


_PLAN_ARRAYS_CACHE: "OrderedDict[tuple, PlanArrays]" = OrderedDict()
_PLAN_ARRAYS_LOCK = threading.Lock()
_PLAN_ARRAYS_MAXSIZE = 128
_plan_arrays_hits = 0
_plan_arrays_misses = 0


def plan_arrays(plan: PhysicalPlan, data_scale: float = 1.0) -> PlanArrays:
    """Cached :class:`PlanArrays` for ``(plan, data_scale)``.

    Keyed by ``(plan.signature(), data_scale)`` plus the plan's absolute
    leaf cardinality/bytes and :meth:`PhysicalPlan.content_hash` — the
    signature alone is shared by uniformly scaled copies of the same query,
    and the totals by copies scaled one bit apart; neither may collide here.
    """
    key = (
        plan.signature(),
        len(plan),
        float(plan.total_leaf_cardinality),
        float(plan.total_input_bytes),
        plan.content_hash(),
        float(data_scale),
    )
    global _plan_arrays_hits, _plan_arrays_misses
    with _PLAN_ARRAYS_LOCK:
        cached = _PLAN_ARRAYS_CACHE.get(key)
        if cached is not None:
            _PLAN_ARRAYS_CACHE.move_to_end(key)
            _plan_arrays_hits += 1
            return cached
    arrays = PlanArrays.build(plan, data_scale)
    with _PLAN_ARRAYS_LOCK:
        _plan_arrays_misses += 1
        _PLAN_ARRAYS_CACHE[key] = arrays
        while len(_PLAN_ARRAYS_CACHE) > _PLAN_ARRAYS_MAXSIZE:
            _PLAN_ARRAYS_CACHE.popitem(last=False)
    return arrays


def clear_plan_arrays_cache() -> None:
    """Drop all cached plan arrays (tests and long-lived services)."""
    global _plan_arrays_hits, _plan_arrays_misses
    with _PLAN_ARRAYS_LOCK:
        _PLAN_ARRAYS_CACHE.clear()
        _plan_arrays_hits = 0
        _plan_arrays_misses = 0


def plan_arrays_cache_stats() -> Dict[str, int]:
    """Hit/miss/size counters for the plan-array cache."""
    with _PLAN_ARRAYS_LOCK:
        return {
            "hits": _plan_arrays_hits,
            "misses": _plan_arrays_misses,
            "size": len(_PLAN_ARRAYS_CACHE),
        }


# -- columnar configuration batches ------------------------------------------------

class ConfigColumns:
    """Columnar (natural-unit) view of N configurations.

    Built from a sequence of config dicts (:meth:`from_dicts`) or from an
    ``(N, dim)`` internal-vector array plus its space (:meth:`from_vectors`).
    Knobs a batch never sets are returned as scalar defaults so NumPy
    broadcasting keeps them free.
    """

    def __init__(
        self,
        n: int,
        dicts: Optional[Sequence[Mapping[str, float]]] = None,
        matrix: Optional[np.ndarray] = None,
        names: Optional[Dict[str, int]] = None,
    ):
        self.n = int(n)
        self._dicts = dicts
        self._matrix = matrix
        self._names = names or {}
        self._numeric_cache: Dict[str, Column] = {}

    # -- constructors ----------------------------------------------------------

    @classmethod
    def from_dicts(cls, configs: Sequence[Mapping[str, float]]) -> "ConfigColumns":
        configs = list(configs)
        if not configs:
            raise ValueError("need at least one configuration")
        return cls(n=len(configs), dicts=configs)

    @classmethod
    def from_vectors(cls, space, vectors: np.ndarray) -> "ConfigColumns":
        """Columns from internal vectors; conversion is vectorized per knob."""
        vectors = np.asarray(vectors, dtype=float)
        if vectors.ndim == 1:
            vectors = vectors[None, :]
        # Pruned-subspace batches (repro.core.importance.PrunedSpace) decode
        # to full-space vectors here, so the kernel always sees complete
        # configurations — kept knobs bitwise, dropped knobs pinned.
        decode = getattr(space, "decode_matrix", None)
        if decode is not None:
            vectors = decode(vectors)
            space = space.full_space
        matrix = space.to_natural_matrix(vectors)
        return cls(
            n=matrix.shape[0],
            matrix=matrix,
            names={name: j for j, name in enumerate(space.names)},
        )

    @classmethod
    def coerce(cls, configs, space=None) -> "ConfigColumns":
        """Accept columns, an (N, dim) array (needs ``space``), or dicts."""
        if isinstance(configs, ConfigColumns):
            return configs
        if isinstance(configs, np.ndarray):
            if space is None:
                raise ValueError("vector-shaped config batches need space=")
            return cls.from_vectors(space, configs)
        configs = list(configs)
        if configs and isinstance(configs[0], Mapping):
            return cls.from_dicts(configs)
        if space is None:
            raise ValueError("vector-shaped config batches need space=")
        return cls.from_vectors(space, np.asarray(configs, dtype=float))

    # -- column access ---------------------------------------------------------

    def numeric(self, name: str, default: float) -> Column:
        """The knob's per-config values, or a scalar default when unset."""
        cached = self._numeric_cache.get(name)
        if cached is not None:
            return cached
        if self._matrix is not None:
            j = self._names.get(name)
            column: Column = (
                self._matrix[:, j] if j is not None else float(default)
            )
        elif self.n == 1:
            # Single-config batches (every estimate() call) get Python
            # floats, which put the kernel on its float path.
            column = float(self._dicts[0].get(name, default))
        elif any(name in c for c in self._dicts):
            column = np.fromiter(
                (float(c.get(name, default)) for c in self._dicts),
                dtype=float,
                count=self.n,
            )
        else:
            column = float(default)
        self._numeric_cache[name] = column
        return column

    def dict_at(self, i: int) -> Dict[str, float]:
        """Config *i* as the dict a scalar caller would have passed.

        For vector-backed batches this is exactly ``space.to_dict(v_i)``
        (same natural-unit conversion, same key order).
        """
        if self._dicts is not None:
            return dict(self._dicts[i])
        return {name: float(self._matrix[i, j]) for name, j in self._names.items()}

    def factor(self, name: str, default: str, table: Mapping[str, float]) -> Column:
        """Per-config multiplier for a categorical knob via a factor table."""
        if self._dicts is not None and self.n == 1:
            return float(table.get(str(self._dicts[0].get(name, default)), 1.0))
        if self._dicts is None or not any(name in c for c in self._dicts):
            return float(table.get(default, 1.0))
        return np.fromiter(
            (table.get(str(c.get(name, default)), 1.0) for c in self._dicts),
            dtype=float,
            count=self.n,
        )


# -- batch executor-layout resolution ----------------------------------------------

# (knob, default) pairs mirroring ExecutorLayout.from_config's fallbacks.
_APP_KNOBS: Tuple[Tuple[str, float], ...] = (
    ("spark.executor.instances", 4.0),
    ("spark.executor.cores", 4.0),
    ("spark.executor.memory", 8.0),
    ("spark.memory.offHeap.enabled", 0.0),
    ("spark.memory.offHeap.size", 0.0),
)


@functools.lru_cache(maxsize=256)
def _layout_for(
    pool: Pool, instances: float, cores: float, memory: float,
    offheap_enabled: float, offheap_size: float,
) -> ExecutorLayout:
    """LRU-cached layout resolution for one app-knob tuple."""
    return ExecutorLayout.from_config(
        {
            "spark.executor.instances": instances,
            "spark.executor.cores": cores,
            "spark.executor.memory": memory,
            "spark.memory.offHeap.enabled": offheap_enabled,
            "spark.memory.offHeap.size": offheap_size,
        },
        pool,
    )


@dataclass(frozen=True)
class LayoutArrays:
    """Per-config executor-layout columns (scalars when uniform)."""

    executors: Column
    total_cores: Column            # clamped to >= 1, as the cost kernel needs
    memory_gb_per_executor: Column
    memory_gb_per_core: Column
    offheap_positive: Union[np.ndarray, bool]

    @classmethod
    @functools.lru_cache(maxsize=256)
    def from_layout(cls, layout: ExecutorLayout) -> "LayoutArrays":
        """Uniform columns for one layout (cached: both types are frozen)."""
        return cls(
            executors=float(layout.executors),
            total_cores=float(max(layout.total_cores, 1)),
            memory_gb_per_executor=float(layout.memory_gb_per_executor),
            memory_gb_per_core=float(layout.memory_gb_per_core),
            offheap_positive=layout.offheap_gb_per_executor > 0,
        )

    @classmethod
    def from_app_columns(
        cls, pool: Pool, instances: np.ndarray, cores: np.ndarray,
        memory: np.ndarray, offheap_enabled: np.ndarray, offheap_size: np.ndarray,
    ) -> "LayoutArrays":
        """``ExecutorLayout.from_config`` applied elementwise to app-knob
        columns: the same truncations, pool caps and operation order, so
        row *i* is bitwise the scalar layout of config *i*."""
        node = pool.node_type
        executors = np.trunc(instances).astype(np.int64)
        cores = np.trunc(cores).astype(np.int64)
        per_node = np.maximum(1, np.minimum(node.cores // np.maximum(cores, 1), 8))
        executors = np.maximum(1, np.minimum(executors, per_node * pool.max_nodes))
        cores = np.maximum(1, np.minimum(cores, node.cores))
        memory = np.maximum(1.0, np.minimum(memory, node.memory_gb))
        offheap = np.maximum(0.0, np.where(offheap_enabled >= 0.5, offheap_size, 0.0))
        return cls(
            executors=executors.astype(float),
            total_cores=np.maximum(executors * cores, 1).astype(float),
            memory_gb_per_executor=memory,
            memory_gb_per_core=(memory + offheap) / cores,
            offheap_positive=offheap > 0,
        )


def resolve_layouts(cols: ConfigColumns, pool: Optional[Pool] = None) -> LayoutArrays:
    """Resolve one :class:`ExecutorLayout` per configuration.

    Batches whose app-knob columns are constant — every query-level sweep —
    collapse to one shared layout through the exact scalar
    ``ExecutorLayout.from_config`` (behind :func:`_layout_for`'s LRU);
    varying columns resolve elementwise in
    :meth:`LayoutArrays.from_app_columns`.
    """
    pool = pool or default_pool()
    columns = [cols.numeric(name, default) for name, default in _APP_KNOBS]
    if all(not isinstance(c, np.ndarray) for c in columns):
        return LayoutArrays.from_layout(_layout_for(pool, *columns))
    stacked = np.column_stack([np.broadcast_to(c, cols.n) for c in columns])
    if (stacked == stacked[0]).all():
        return LayoutArrays.from_layout(_layout_for(pool, *stacked[0].tolist()))
    return LayoutArrays.from_app_columns(pool, *stacked.T)
