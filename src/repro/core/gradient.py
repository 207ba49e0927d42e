"""FIND_GRADIENT — statistically robust descent *directions* (Sec. 4.3).

The gradient here "indicates only the direction of change (increase or
decrease), not the magnitude"; the step-size parameter ``α`` controls the
scale.  Two estimators are provided:

* **linear** — fit a linear surface ``r ≈ wᵀ[c, p] + b`` on the window and
  take the sign of the configuration coefficients.  Fitting over the latest
  N observations (rather than the last two, as hill-climbing/FLOW2 do) is
  the de-noising mechanism.
* **ml (Eq. 6–7)** — reuse the fitted window model ``H`` and search the sign
  set ``D = {−1, +1}^d`` for the probe point
  ``c* ⊖ α·δ`` with the lowest predicted time.  Captures non-linear
  data-size effects that the linear surface misses.

Probe geometry: the paper writes probes multiplicatively, ``c*(1 − αδ)``
(Eq. 6).  On internal axes that include values near zero the multiplicative
step degenerates, so the default is the equivalent *span-relative* step
``c* − α·δ·span`` (``span`` = per-dimension internal width); the literal
multiplicative form is available via ``probe="multiplicative"``.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np

from ..ml.base import Regressor
from ..ml.linear import LinearRegression
from .config_space import ConfigSpace
from .observation import ObservationWindow, feature_rows

__all__ = ["gradient_rows", "linear_sign_gradient", "ml_sign_gradient", "probe_points",
           "sign_gradient"]

# Beyond this many dimensions the 2^d sign enumeration is replaced by a
# coordinate-wise search (2·d probes instead of 2^d).
_MAX_ENUM_DIM = 12


def linear_sign_gradient(window: ObservationWindow) -> np.ndarray:
    """Sign of ∂r/∂c from a linear fit on the window (data size included).

    Returns a vector in {−1, 0, +1}^d: +1 where increasing the knob is
    predicted to *slow down* the query (so the centroid should decrease it),
    0 where the window shows no variation in that knob.
    """
    X = window.design_matrix()
    y = window.performances()
    if len(y) < 2:
        return np.zeros(X.shape[1] - 1)
    config_cols = X[:, :-1]
    varying = config_cols.std(axis=0) > 1e-12
    model = LinearRegression()
    model.fit(X, y)
    signs = np.sign(model.coef_[:-1])
    signs[~varying] = 0.0
    return signs


def probe_points(
    space: ConfigSpace,
    c_star: np.ndarray,
    deltas: np.ndarray,
    alpha,
    probe: str = "span",
) -> np.ndarray:
    """Probe configurations ``c* ⊖ α·δ`` for the candidate gradients ``deltas``.

    ``probe="span"``:           ``clip(c* − α·δ·span)``
    ``probe="multiplicative"``: ``clip(c*·(1 − α·δ))`` (Eq. 6 literal)

    Plain NumPy broadcasting of ``c_star``, ``deltas`` and ``alpha``: the
    Eq.-6 probes pass the whole sign set as ``deltas``, the Alg.-1 move its
    one winning ``Δ``, and K sessions at once add a leading session axis.
    The result is clipped in place.
    """
    bounds = space.internal_bounds
    if probe == "span":
        points = c_star - alpha * deltas * (bounds[:, 1] - bounds[:, 0])
    elif probe == "multiplicative":
        points = c_star * (1.0 - alpha * deltas)
    else:
        raise ValueError(f"unknown probe geometry {probe!r}")
    return np.clip(points, bounds[:, 0], bounds[:, 1], out=points)


@functools.lru_cache(maxsize=None)
def _candidate_deltas(dim: int) -> np.ndarray:
    """The sign set D (Eq. 7), or a coordinate-wise basis for large d
    (one read-only array per ``dim``)."""
    if dim <= _MAX_ENUM_DIM:
        deltas = np.array(list(itertools.product((1.0, -1.0), repeat=dim)))
    else:
        # Coordinate-wise: ±e_j for every dimension; the best per-dimension
        # signs are combined afterwards.
        eye = np.eye(dim)
        deltas = np.vstack([eye, -eye])
    deltas.setflags(write=False)
    return deltas


def gradient_rows(
    space: ConfigSpace,
    c_star: np.ndarray,
    data_size,
    alpha,
    probe: str = "span",
) -> np.ndarray:
    """The ``[probe(c*, δ), p]`` rows Eq. 6 scores with ``H``, one per δ ∈ D.

    Broadcasts over leading session axes: ``(..., d)`` ``c_star`` with
    ``(...)``-shaped ``data_size`` and ``alpha`` give ``(..., |D|, d + 1)``.
    """
    deltas = _candidate_deltas(space.dim)
    if isinstance(alpha, np.ndarray):  # per session: every δ from each c*
        c_star, alpha = c_star[..., None, :], alpha[..., None, None]
    return feature_rows(probe_points(space, c_star, deltas, alpha, probe), data_size)


def sign_gradient(dim: int, predictions: np.ndarray) -> np.ndarray:
    """Eq. 7's ``argmin_{δ∈D}`` given ``H`` at :func:`gradient_rows`
    (per session, over a leading session axis of ``predictions``)."""
    if dim <= _MAX_ENUM_DIM:
        return _candidate_deltas(dim)[predictions.argmin(axis=-1)].copy()
    # Coordinate-wise combination: for each dim pick the sign whose single-
    # coordinate probe predicted lower time.
    return np.where(predictions[..., :dim] <= predictions[..., dim:], 1.0, -1.0)


def ml_sign_gradient(
    space: ConfigSpace,
    model: Regressor,
    c_star: np.ndarray,
    data_size: float,
    alpha: float,
    probe: str = "span",
) -> np.ndarray:
    """Eq. 6: ``Δ = argmin_{δ∈D} H(probe(c*, δ), p)``.

    Args:
        space: configuration space (for spans and clipping).
        model: the fitted window model ``H`` over ``[c, p]`` features.
        c_star: the FIND_BEST configuration (internal axes).
        data_size: ``p_{t+1}``, the data size to predict at.
        alpha: step-size scale of the probes.
        probe: probe geometry (see :func:`probe_points`).

    Returns:
        The winning sign vector ``Δ ∈ {−1, +1}^d`` (or a combined
        coordinate-wise vector for ``d > 12``).
    """
    rows = gradient_rows(space, c_star, data_size, alpha, probe)
    return sign_gradient(space.dim, model.predict(rows))
