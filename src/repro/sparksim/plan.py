"""Physical execution plans: operator DAGs with cardinality estimates.

Plans carry the information the workload embedder (Sec. 4.1) and the cost
model consume: operator types, estimated input/output row counts, and the
DAG structure.  A stable *query signature* hashes the plan shape — the paper
fine-tunes per "query signature [30] (each corresponds to a distinct query
execution plan)".
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import networkx as nx

__all__ = ["OpType", "Operator", "PhysicalPlan", "OP_TYPES"]


class OpType:
    """Physical operator vocabulary (a subset of Spark's)."""

    TABLE_SCAN = "TableScan"
    FILTER = "Filter"
    PROJECT = "Project"
    HASH_AGGREGATE = "HashAggregate"
    JOIN = "Join"               # strategy resolved at runtime vs broadcast threshold
    EXCHANGE = "Exchange"       # shuffle boundary
    SORT = "Sort"
    WINDOW = "Window"
    UNION = "Union"
    LIMIT = "Limit"


OP_TYPES: Tuple[str, ...] = (
    OpType.TABLE_SCAN,
    OpType.FILTER,
    OpType.PROJECT,
    OpType.HASH_AGGREGATE,
    OpType.JOIN,
    OpType.EXCHANGE,
    OpType.SORT,
    OpType.WINDOW,
    OpType.UNION,
    OpType.LIMIT,
)


@dataclass(frozen=True)
class Operator:
    """One node of a physical plan.

    Attributes:
        op_id: Unique id within the plan.
        op_type: One of :data:`OP_TYPES`.
        est_rows_in: Optimizer-estimated total input rows (sum over children;
            for scans, the table row count).
        est_rows_out: Optimizer-estimated output rows.
        row_bytes: Average row width in bytes.
        children: Ids of child operators (inputs).
    """

    op_id: int
    op_type: str
    est_rows_in: float
    est_rows_out: float
    row_bytes: float = 100.0
    children: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        if self.op_type not in OP_TYPES:
            raise ValueError(f"unknown operator type {self.op_type!r}")
        if self.est_rows_in < 0 or self.est_rows_out < 0:
            raise ValueError("row estimates must be >= 0")
        if self.row_bytes <= 0:
            raise ValueError("row_bytes must be > 0")

    @property
    def bytes_in(self) -> float:
        return self.est_rows_in * self.row_bytes

    @property
    def bytes_out(self) -> float:
        return self.est_rows_out * self.row_bytes


class PhysicalPlan:
    """A single-rooted operator DAG."""

    def __init__(self, operators: Sequence[Operator], name: str = "query"):
        if not operators:
            raise ValueError("a plan needs at least one operator")
        self.name = name
        self._ops: Dict[int, Operator] = {}
        graph = nx.DiGraph()
        for op in operators:
            if op.op_id in self._ops:
                raise ValueError(f"duplicate operator id {op.op_id}")
            self._ops[op.op_id] = op
            graph.add_node(op.op_id)
        for op in operators:
            for child in op.children:
                if child not in self._ops:
                    raise ValueError(f"operator {op.op_id} references unknown child {child}")
                graph.add_edge(child, op.op_id)  # data flows child -> parent
        if not nx.is_directed_acyclic_graph(graph):
            raise ValueError("plan contains a cycle")
        roots = [n for n in graph.nodes if graph.out_degree(n) == 0]
        if len(roots) != 1:
            raise ValueError(f"plan must have exactly one root, found {len(roots)}")
        self._graph = graph
        self._root_id = roots[0]
        # Plans are immutable once constructed, so the topological order and
        # signature are computed lazily and cached (both sit on hot paths of
        # the batch-evaluation pipeline).
        self._topo_ids: List[int] = []
        self._signature = ""
        self._content_hash: Optional[int] = None
        self._leaf_ids: List[int] = [
            n for n in graph.nodes if graph.in_degree(n) == 0
        ]
        self._total_leaf_cardinality = float(
            sum(self._ops[n].est_rows_in for n in self._leaf_ids)
        )
        self._total_input_bytes = float(
            sum(self._ops[n].bytes_in for n in self._leaf_ids)
        )

    # -- accessors --------------------------------------------------------------

    @property
    def graph(self) -> nx.DiGraph:
        return self._graph

    @property
    def root(self) -> Operator:
        return self._ops[self._root_id]

    @property
    def operators(self) -> List[Operator]:
        """Operators in topological (execution) order."""
        if not self._topo_ids:
            self._topo_ids = list(nx.topological_sort(self._graph))
        return [self._ops[i] for i in self._topo_ids]

    @property
    def leaves(self) -> List[Operator]:
        return [self._ops[n] for n in self._leaf_ids]

    def exchange_ops(self) -> List[Operator]:
        """The shuffle boundaries, in topological (execution) order.

        Covers explicit ``Exchange`` nodes *and* the operators whose cost
        embeds a shuffle (joins resolve to sort-merge past the broadcast
        threshold; aggregates, sorts and windows always repartition).
        These are the stage cut points: per-exchange overrides
        (``repro.sparksim.overlay``) and the AQE-style re-plan hook
        (``repro.sparksim.replan``) key on their ``op_id``.
        """
        boundaries = (
            OpType.EXCHANGE,
            OpType.JOIN,
            OpType.HASH_AGGREGATE,
            OpType.SORT,
            OpType.WINDOW,
        )
        return [op for op in self.operators if op.op_type in boundaries]

    def operator(self, op_id: int) -> Operator:
        return self._ops[op_id]

    def __len__(self) -> int:
        return len(self._ops)

    def __iter__(self) -> Iterator[Operator]:
        return iter(self.operators)

    # -- embedding ingredients (Sec. 4.1) ----------------------------------------

    @property
    def root_cardinality(self) -> float:
        """Estimated cardinality of the root node operator."""
        return self.root.est_rows_out

    @property
    def total_leaf_cardinality(self) -> float:
        """Total input cardinality of all leaf node operators."""
        return self._total_leaf_cardinality

    @property
    def total_input_bytes(self) -> float:
        return self._total_input_bytes

    def operator_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for op in self._ops.values():
            counts[op.op_type] = counts.get(op.op_type, 0) + 1
        return counts

    # -- identity -----------------------------------------------------------------

    def signature(self) -> str:
        """Stable hash of the plan identity.

        Covers the topology, operator types, row widths, and per-operator
        selectivity *ratios* — all invariant under uniform input scaling —
        so two runs of the same recurrent query with different input sizes
        share a signature (which is what groups observations for per-query
        tuning), while different queries with the same shape do not collide.
        """
        if self._signature:
            return self._signature
        shape = [
            (
                op.op_id,
                op.op_type,
                tuple(sorted(op.children)),
                round(op.row_bytes, 3),
                round(op.est_rows_out / op.est_rows_in, 9) if op.est_rows_in > 0 else 1.0,
            )
            for op in sorted(self._ops.values(), key=lambda o: o.op_id)
        ]
        digest = hashlib.sha256(json.dumps(shape).encode()).hexdigest()
        self._signature = digest[:16]
        return self._signature

    def content_hash(self) -> int:
        """Hash of the exact operator contents, for caches keyed on them.

        :meth:`signature` is invariant under scaling, and even leaf totals
        are shared by copies scaled by factors one bit apart (``1.9`` and
        ``1.9000000000000001`` on TPC-H q3) whose per-operator rows differ.
        A :meth:`scaled` copy's contents are fixed by its source's and the
        factor, so it hashes those two instead of walking its operators.
        """
        if self._content_hash is None:
            self._content_hash = hash(tuple(
                (op.op_id, op.op_type, op.est_rows_in, op.est_rows_out,
                 op.row_bytes, op.children)
                for op in self._ops.values()
            ))
        return self._content_hash

    def scaled(self, factor: float) -> "PhysicalPlan":
        """Return a copy with all cardinalities multiplied by ``factor``.

        Models the same recurrent query running over a grown/shrunk input.
        """
        if factor <= 0:
            raise ValueError("scale factor must be > 0")
        ops = [
            Operator(
                op_id=op.op_id,
                op_type=op.op_type,
                est_rows_in=op.est_rows_in * factor,
                est_rows_out=op.est_rows_out * factor,
                row_bytes=op.row_bytes,
                children=op.children,
            )
            for op in self._ops.values()
        ]
        scaled = PhysicalPlan(ops, name=self.name)
        scaled._content_hash = hash((self.content_hash(), factor))
        return scaled
