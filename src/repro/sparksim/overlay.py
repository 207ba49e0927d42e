"""Stage-scoped knob overrides for the simulated Spark cost model.

Rockhopper (and our reproduction so far) tunes one configuration for the
whole application.  The Spark Optimizer line (PAPERS.md, 2403.00995) shows
the finer-grained formulation: *per-stage* parameters — a partition count
per exchange, a memory fraction or task-parallelism cap per scan/shuffle
stage — adapted mid-query.  A :class:`StageConfigOverlay` carries those
per-operator overrides; ``CostModel.estimate``/``estimate_batch`` and the
``SparkSimulator`` entry points accept an ``overlay=`` keyword and resolve
each operator's effective knobs as *override if set, else the app-level
config*.  The cost kernel stays bitwise-equal to the per-operator
reference loop with or without an overlay (pinned by the ``stages`` tier
and the Hypothesis battery), and ``overlay=None`` leaves every existing code path untouched.

Overrides scope to the stage-shaped cost terms: scan split sizing and the
shuffle read/write/scheduling terms (including the shuffle inside
sort-merge joins, aggregates, sorts and windows).  Broadcast-side and pure
CPU terms are not stage-scoped — they have no per-stage knob in the
catalog this models.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Tuple

__all__ = ["StageOverride", "StageConfigOverlay"]


@dataclass(frozen=True)
class StageOverride:
    """Per-stage knob overrides; every field ``None`` means "inherit".

    * ``shuffle_partitions`` — replaces ``spark.sql.shuffle.partitions``
      for this exchange's shuffle terms.
    * ``max_partition_bytes`` — replaces
      ``spark.sql.files.maxPartitionBytes`` for this scan's split sizing.
    * ``memory_fraction`` — replaces the cost model's
      ``executor_memory_fraction`` in this stage's spill budget.
    * ``task_parallelism`` — caps the cores this stage's waves may use
      (models per-stage dynamic-allocation / slot limits).
    """

    shuffle_partitions: Optional[int] = None
    max_partition_bytes: Optional[float] = None
    memory_fraction: Optional[float] = None
    task_parallelism: Optional[int] = None

    def __post_init__(self) -> None:
        if self.shuffle_partitions is not None and self.shuffle_partitions < 1:
            raise ValueError("shuffle_partitions override must be >= 1")
        if self.max_partition_bytes is not None and self.max_partition_bytes <= 0:
            raise ValueError("max_partition_bytes override must be > 0")
        if self.memory_fraction is not None and not 0.0 < self.memory_fraction <= 1.0:
            raise ValueError("memory_fraction override must be in (0, 1]")
        if self.task_parallelism is not None and self.task_parallelism < 1:
            raise ValueError("task_parallelism override must be >= 1")

    @property
    def is_null(self) -> bool:
        """True when every field inherits (the override does nothing)."""
        return (
            self.shuffle_partitions is None
            and self.max_partition_bytes is None
            and self.memory_fraction is None
            and self.task_parallelism is None
        )

    def to_state(self) -> Dict[str, object]:
        return {
            "shuffle_partitions": self.shuffle_partitions,
            "max_partition_bytes": self.max_partition_bytes,
            "memory_fraction": self.memory_fraction,
            "task_parallelism": self.task_parallelism,
        }

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "StageOverride":
        return cls(
            shuffle_partitions=state.get("shuffle_partitions"),  # type: ignore[arg-type]
            max_partition_bytes=state.get("max_partition_bytes"),  # type: ignore[arg-type]
            memory_fraction=state.get("memory_fraction"),  # type: ignore[arg-type]
            task_parallelism=state.get("task_parallelism"),  # type: ignore[arg-type]
        )


class StageConfigOverlay:
    """An immutable-by-convention map of operator id -> :class:`StageOverride`.

    Operator ids are the plan's integer ``op_id`` values.  Null overrides
    are dropped at construction, so an overlay is falsy iff it changes
    nothing.  :meth:`with_override` returns a **new** overlay — re-plan
    policies build up overlays functionally, which keeps replayed event
    streams trivially deterministic.
    """

    def __init__(self, overrides: Optional[Mapping[int, StageOverride]] = None):
        self._overrides: Dict[int, StageOverride] = {
            int(op_id): ov
            for op_id, ov in (overrides or {}).items()
            if not ov.is_null
        }

    def get(self, op_id: int) -> Optional[StageOverride]:
        return self._overrides.get(op_id)

    def with_override(self, op_id: int, override: StageOverride) -> "StageConfigOverlay":
        merged = dict(self._overrides)
        merged[int(op_id)] = override
        return StageConfigOverlay(merged)

    def items(self) -> Iterator[Tuple[int, StageOverride]]:
        return iter(sorted(self._overrides.items()))

    def __len__(self) -> int:
        return len(self._overrides)

    def __bool__(self) -> bool:
        return bool(self._overrides)

    def __contains__(self, op_id: int) -> bool:
        return int(op_id) in self._overrides

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, StageConfigOverlay):
            return NotImplemented
        return self._overrides == other._overrides

    def __repr__(self) -> str:
        body = ", ".join(f"{op_id}" for op_id, _ in self.items())
        return f"StageConfigOverlay({{{body}}})"

    def to_state(self) -> Dict[str, object]:
        # JSON object keys are strings; from_state converts back to int.
        return {str(op_id): ov.to_state() for op_id, ov in self.items()}

    @classmethod
    def from_state(cls, state: Mapping[str, object]) -> "StageConfigOverlay":
        return cls({
            int(op_id): StageOverride.from_state(ov)  # type: ignore[arg-type]
            for op_id, ov in state.items()
        })

    def to_json(self) -> str:
        return json.dumps(self.to_state(), sort_keys=True)

    @classmethod
    def from_json(cls, data: str) -> "StageConfigOverlay":
        return cls.from_state(json.loads(data))
