"""Observation records and the sliding window Ω(t, N) used by Algorithm 1."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

__all__ = ["Observation", "ObservationWindow", "feature_rows"]


@dataclass(frozen=True)
class Observation:
    """One tuning observation ``(c_i, p_i, r_i)`` at iteration ``i``.

    Attributes:
        config: Internal-axis configuration vector ``c_i``.
        data_size: Input data size ``p_i`` (e.g. total input rows or bytes).
        performance: Observed performance ``r_i`` — execution time, lower is
            better throughout this library.
        iteration: Tuning iteration index ``i``.
        embedding: Optional workload-embedding vector attached as "context".
    """

    config: np.ndarray
    data_size: float
    performance: float
    iteration: int
    embedding: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "config", np.asarray(self.config, dtype=float))
        if self.embedding is not None:
            object.__setattr__(self, "embedding", np.asarray(self.embedding, dtype=float))
        if self.performance < 0:
            raise ValueError(f"performance must be >= 0, got {self.performance}")
        if self.data_size <= 0:
            raise ValueError(f"data_size must be > 0, got {self.data_size}")


class ObservationWindow:
    """The latest-``N`` window ``Ω(t, N) = {(c_i, p_i, r_i) | t+1−N ≤ i ≤ t}``.

    Keeps the full history (useful for guardrails and dashboards) while
    exposing the window the Centroid Learning update consumes.
    """

    def __init__(self, window_size: int):
        if window_size < 2:
            raise ValueError("window_size must be >= 2 to estimate a gradient")
        self.window_size = window_size
        self._history: List[Observation] = []
        self._version = 0

    def __len__(self) -> int:
        return len(self._history)

    @property
    def version(self) -> int:
        """Monotonic counter bumped on every append — cache invalidation key
        for consumers that fit models on the window (see
        :func:`repro.core.find_best.fit_window_model`)."""
        return self._version

    def append(self, obs: Observation) -> None:
        self._history.append(obs)
        self._version += 1

    @property
    def history(self) -> Sequence[Observation]:
        return tuple(self._history)

    @property
    def window(self) -> Sequence[Observation]:
        """The latest ``window_size`` observations (fewer early on)."""
        return tuple(self._history[-self.window_size:])

    @property
    def latest(self) -> Observation:
        if not self._history:
            raise IndexError("no observations recorded yet")
        return self._history[-1]

    # -- dense views over the window ------------------------------------------

    def configs(self) -> np.ndarray:
        """``(n, dim)`` matrix of window configs."""
        win = self.window
        return np.array([o.config for o in win])

    def data_sizes(self) -> np.ndarray:
        return np.array([o.data_size for o in self.window])

    def performances(self) -> np.ndarray:
        return np.array([o.performance for o in self.window])

    def design_matrix(self) -> np.ndarray:
        """Window features ``[c_i, p_i]`` stacked as ``(n, dim+1)`` (Eq. 4)."""
        return np.column_stack([self.configs(), self.data_sizes()])

    # -- dense views over the full history -------------------------------------

    def all_performances(self) -> np.ndarray:
        return np.array([o.performance for o in self._history])

    def all_data_sizes(self) -> np.ndarray:
        return np.array([o.data_size for o in self._history])


def feature_rows(configs, data_size: float) -> np.ndarray:
    """Window-model rows ``[c, p]``: each config (at least one) with size ``p``."""
    rows = np.empty((len(configs), len(configs[0]) + 1))
    rows[:, :-1] = configs
    rows[:, -1] = data_size
    return rows
