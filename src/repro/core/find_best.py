"""FIND_BEST — the three refinements described in Sec. 4.3.

Given the latest-N window Ω, pick the best-performing *observed*
configuration, accounting for the fact that observations ran over different
input sizes:

* **v1 (RAW)** — minimum raw execution time.  Biased toward whichever run
  happened to see the least data.
* **v2 (NORMALIZED)** — minimum ``r_i / p_i`` (Eq. 3).  Still biased because
  ``r/p`` tends to fall as ``p`` grows (fixed overheads amortize).
* **v3 (MODEL)** — fit ``r = H(c, p)`` (Eq. 4) and rank configurations by
  their predicted time at one *fixed* data size (Eq. 5).  The default.
"""

from __future__ import annotations

import enum
from typing import Callable, Optional

import numpy as np

from ..ml.base import Regressor
from .observation import Observation, ObservationWindow, feature_rows

__all__ = ["FindBestMode", "cached_window_model", "find_best", "fit_window_model",
           "ranking_rows", "remember_window_model"]


class FindBestMode(enum.Enum):
    """Which FIND_BEST refinement to use."""

    RAW = "raw"
    NORMALIZED = "normalized"
    MODEL = "model"


def fit_window_model(
    window: ObservationWindow, model_factory: Callable[[], Regressor]
) -> Regressor:
    """Fit ``H`` on the window's ``[c_i, p_i] → r_i`` pairs (Eq. 4).

    Fitted models are memoized on the window object, keyed by the window's
    append version and the factory identity: within one tuning iteration the
    candidate selector and the centroid update both need ``H`` over the
    *same* observations, so the second call reuses the first fit.  The
    cache is only consulted for the exact same factory object, and a fresh
    fit happens as soon as an observation lands (deterministic factories
    therefore produce bit-identical models to the uncached path).
    """
    model = cached_window_model(window, model_factory)
    if model is None:
        model = model_factory()
        model.fit(window.design_matrix(), window.performances())
        remember_window_model(window, model_factory, model)
    return model


def cached_window_model(
    window: ObservationWindow, model_factory: Callable[[], Regressor]
) -> Optional[Regressor]:
    """``model_factory``'s memoized fit of the window's current version, if any."""
    entry = window.__dict__.get("_window_model_cache", {}).get(id(model_factory))
    if entry is None or entry[0] != window.version or entry[1] is not model_factory:
        return None
    return entry[2]


def remember_window_model(
    window: ObservationWindow, model_factory: Callable[[], Regressor], model: Regressor
) -> Regressor:
    """Memoize ``model`` as ``model_factory``'s fit of the window's current
    version — the service's batched drain stores its batched fits here."""
    cache = window.__dict__.setdefault("_window_model_cache", {})
    # Drop entries from older versions so the cache tracks at most one
    # generation per factory.
    for key in [k for k, v in cache.items() if v[0] != window.version]:
        del cache[key]
    cache[id(model_factory)] = (window.version, model_factory, model)
    return model


def ranking_rows(window: ObservationWindow, data_size: float) -> np.ndarray:
    """The ``[c_i, p]`` rows MODEL-mode FIND_BEST ranks with ``H`` (Eq. 5)."""
    return feature_rows([o.config for o in window.window], data_size)


def find_best(
    window: ObservationWindow,
    mode: FindBestMode = FindBestMode.MODEL,
    model: Optional[Regressor] = None,
    model_factory: Optional[Callable[[], Regressor]] = None,
    fixed_data_size: Optional[float] = None,
) -> Observation:
    """Return the best observation ``c*`` in the window under ``mode``.

    Args:
        window: the Ω(t, N) window.
        mode: selection strategy.
        model: an already-fitted ``H`` (saves a refit when the caller also
            needs it for FIND_GRADIENT).
        model_factory: used to fit ``H`` when ``model`` is not given
            (MODEL mode only).
        fixed_data_size: the uniform data size ``p`` used for MODEL-mode
            ranking; defaults to the latest observation's size ``p_t``.
    """
    obs = list(window.window)
    if not obs:
        raise ValueError("cannot FIND_BEST over an empty window")

    if mode is FindBestMode.RAW:
        return min(obs, key=lambda o: o.performance)

    if mode is FindBestMode.NORMALIZED:
        return min(obs, key=lambda o: o.performance / o.data_size)

    if mode is FindBestMode.MODEL:
        if len(obs) < 2:
            return obs[0]
        if model is None:
            if model_factory is None:
                raise ValueError("MODEL mode needs a fitted model or a model_factory")
            model = fit_window_model(window, model_factory)
        p = fixed_data_size if fixed_data_size is not None else obs[-1].data_size
        return obs[int(np.argmin(model.predict(ranking_rows(window, p))))]

    raise ValueError(f"unknown FindBestMode: {mode}")
