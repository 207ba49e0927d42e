"""Candidate generation in the neighborhood of a centroid (Alg. 1, step β).

Centroid Learning "restricts exploration to a smaller region defined by the
step size β" (Sec. 4.3): candidates are sampled inside a box of half-width
``β × span`` around the centroid, clipped to the space bounds.  The centroid
itself is always included so the algorithm can stand still when nothing in
the neighborhood looks better.
"""

from __future__ import annotations


import numpy as np

from .config_space import ConfigSpace

__all__ = ["generate_candidates"]


def generate_candidates(
    space: ConfigSpace,
    centroid: np.ndarray,
    beta: float,
    n_candidates: int,
    rng: np.random.Generator,
    include_centroid: bool = True,
) -> np.ndarray:
    """Sample ``n_candidates`` internal vectors around ``centroid``.

    Args:
        space: configuration space.
        centroid: internal-axis anchor ``e_t``.
        beta: neighborhood half-width as a fraction of each parameter's
            internal span (``0 < beta <= 1``).
        n_candidates: number of candidates returned (including the centroid
            when ``include_centroid``).
        rng: random generator.
        include_centroid: prepend the (clipped) centroid itself.

    Returns:
        ``(n_candidates, dim)`` array of clipped internal vectors.
    """
    if not 0 < beta <= 1:
        raise ValueError(f"beta must be in (0, 1], got {beta}")
    if n_candidates < 1:
        raise ValueError("n_candidates must be >= 1")
    centroid = space.clip(np.asarray(centroid, dtype=float))
    bounds = space.internal_bounds
    span = bounds[:, 1] - bounds[:, 0]
    low = np.maximum(centroid - beta * span, bounds[:, 0])
    high = np.minimum(centroid + beta * span, bounds[:, 1])

    n_random = n_candidates - (1 if include_centroid else 0)
    # ``rng.uniform(low, high, size)`` exactly (same values, same stream
    # consumption) without its per-call argument handling.
    samples = low + (high - low) * rng.random((max(n_random, 0), space.dim))
    if include_centroid:
        return np.concatenate([centroid[None, :], samples]) if n_random else centroid[None, :]
    return samples
