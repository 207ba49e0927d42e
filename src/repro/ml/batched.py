"""Batched (struct-of-arrays) twins of the scalar model-fitting paths.

The lock-step session engine (:mod:`repro.experiments.lockstep`) and the
service's batched drain (:mod:`repro.service.batch_exec`) advance K
independent tuning sessions side by side, which requires fitting K window
models (and, in lock-step, K guardrail trend lines) per step.  Doing that
with K Python-level scalar fits would erase the batching win, so this module
re-implements the exact arithmetic of the scalar paths over a leading batch
axis:

* :func:`fit_ridge_pipeline` / :class:`BatchedRidgePipeline` — the default
  ``StandardScaler → PolynomialFeatures → RidgeRegression`` window model
  (:mod:`repro.ml.scaler`, :mod:`repro.ml.linear`), fitted for K sessions at
  once; :meth:`~BatchedRidgePipeline.pipeline_at` and
  :meth:`~BatchedRidgePipeline.stack` convert to and from scalar
  :class:`~repro.ml.scaler.Pipeline` objects.
* :func:`ols_predict` — a deterministic ordinary-least-squares predictor
  (standardized normal equations) shared by the scalar
  :class:`repro.core.guardrail.Guardrail` and its lock-step batch twin.

**Bit-identity contract.**  Every batched operation here is implemented in a
form whose per-slice results are bitwise identical to the scalar NumPy
calls they replace: ``mean``/``std`` reductions along the sample axis,
stacked ``swapaxes(X, 1, 2) @ X`` Gram products, stacked
``np.linalg.solve``, and matmul-shaped dot products
``(m[:, None, :] @ coef[..., None])[:, 0, 0]``.  (Notably,
``np.einsum("kf,kf->k", ...)`` is *not* bitwise equal to per-slice dots and
is deliberately avoided.)  ``tests/ml/test_batched.py`` pins the contract
per primitive; :func:`repro.verify.diff.diff_lockstep_sequential` and
:func:`repro.verify.diff.diff_sharded_single` pin it end to end.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .linear import PolynomialFeatures, RidgeRegression
from .scaler import Pipeline, StandardScaler

__all__ = [
    "BatchedRidgePipeline",
    "fit_ridge_pipeline",
    "ols_predict",
    "polynomial_features_batch",
]


def polynomial_features_batch(X: np.ndarray, degree: int = 2,
                              interaction_only: bool = False) -> np.ndarray:
    """Degree-≤2 polynomial expansion over the trailing axis.

    Matches :class:`repro.ml.linear.PolynomialFeatures` column order exactly
    (original columns first, then ``x_i · x_j`` for ``j >= i``), applied to
    arrays with any number of leading batch axes.
    """
    if degree not in (1, 2):
        raise ValueError(f"degree must be 1 or 2, got {degree}")
    if degree == 1:
        return X
    cols = [X]
    d = X.shape[-1]
    for i in range(d):
        start = i + 1 if interaction_only else i
        for j in range(start, d):
            cols.append(X[..., i : i + 1] * X[..., j : j + 1])
    return np.concatenate(cols, axis=-1)


@dataclass
class BatchedRidgePipeline:
    """K fitted ``scale → poly → ridge`` window models in SoA form.

    Attributes:
        mean: per-session feature means, shape ``(K, f)``.
        scale: per-session feature scales (zeros replaced by 1), ``(K, f)``.
        coef: per-session ridge coefficients over expanded features,
            ``(K, F)``.
        intercept: per-session intercepts, ``(K,)``.
        degree / interaction_only: the polynomial expansion used at fit
            time (replayed at predict time).
        alpha: per-session ridge strengths, ``(K,)`` (set by
            :func:`fit_ridge_pipeline`; needed only by :meth:`pipeline_at`).
    """

    mean: np.ndarray
    scale: np.ndarray
    coef: np.ndarray
    intercept: np.ndarray
    degree: int = 2
    interaction_only: bool = False
    alpha: Optional[np.ndarray] = None

    @classmethod
    def stack(cls, pipelines: Sequence[Pipeline]) -> "BatchedRidgePipeline":
        """K fitted ``scale → poly → ridge`` pipelines sharing one expansion."""
        scalers = [p.steps[0][1] for p in pipelines]
        ridges = [p.steps[2][1] for p in pipelines]
        poly = pipelines[0].steps[1][1]
        return cls(
            mean=np.array([s.mean_ for s in scalers]),
            scale=np.array([s.scale_ for s in scalers]),
            coef=np.array([r.coef_ for r in ridges]),
            intercept=np.array([r.intercept_ for r in ridges]),
            degree=poly.degree,
            interaction_only=poly.interaction_only,
        )

    def pipeline_at(self, k: int) -> Pipeline:
        """Slice ``k`` as the fitted scalar :class:`Pipeline` it equals bitwise."""
        scaler = StandardScaler()
        scaler.mean_, scaler.scale_ = self.mean[k], self.scale[k]
        ridge = RidgeRegression(alpha=float(self.alpha[k]))
        ridge.coef_, ridge.intercept_ = self.coef[k], float(self.intercept[k])
        return Pipeline([
            ("scale", scaler),
            ("poly", PolynomialFeatures(self.degree, self.interaction_only)),
            ("ridge", ridge),
        ])

    def predict(self, queries: np.ndarray) -> np.ndarray:
        """Predict at ``queries`` of shape ``(K, m, f)`` → ``(K, m)``."""
        qs = (queries - self.mean[:, None, :]) / self.scale[:, None, :]
        expanded = polynomial_features_batch(qs, self.degree, self.interaction_only)
        return (expanded @ self.coef[..., None])[..., 0] + self.intercept[:, None]

    def scatter_into(self, other: "BatchedRidgePipeline", idx: np.ndarray) -> None:
        """Write this model's K rows into ``other`` at positions ``idx``."""
        other.mean[idx] = self.mean
        other.scale[idx] = self.scale
        other.coef[idx] = self.coef
        other.intercept[idx] = self.intercept


def fit_ridge_pipeline(X: np.ndarray, y: np.ndarray, alphas: np.ndarray,
                       degree: int = 2,
                       interaction_only: bool = False) -> BatchedRidgePipeline:
    """Fit K ridge-pipeline window models at once.

    Args:
        X: design matrices, shape ``(K, n, f)`` — per-session window rows.
        y: targets, shape ``(K, n)``.
        alphas: per-session ridge regularization strengths, shape ``(K,)``.

    Returns a :class:`BatchedRidgePipeline` whose slice ``k`` is bitwise
    identical to ``Pipeline([StandardScaler(), PolynomialFeatures(degree),
    RidgeRegression(alphas[k])]).fit(X[k], y[k])``.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    alphas = np.asarray(alphas, dtype=float)
    # StandardScaler.fit / transform.
    mean = X.mean(axis=1)
    scale = X.std(axis=1)
    scale = np.where(scale == 0.0, 1.0, scale)
    xs = (X - mean[:, None, :]) / scale[:, None, :]
    # PolynomialFeatures.
    expanded = polynomial_features_batch(xs, degree, interaction_only)
    # RidgeRegression.fit (centered normal equations).
    n_features = expanded.shape[-1]
    x_mean = expanded.mean(axis=1)
    y_mean = y.mean(axis=1)
    xc = expanded - x_mean[:, None, :]
    yc = y - y_mean[:, None]
    gram = np.swapaxes(xc, 1, 2) @ xc + alphas[:, None, None] * np.eye(n_features)
    rhs = np.swapaxes(xc, 1, 2) @ yc[..., None]
    coef = np.linalg.solve(gram, rhs)[..., 0]
    intercept = y_mean - (x_mean[:, None, :] @ coef[..., None])[:, 0, 0]
    return BatchedRidgePipeline(
        mean=mean, scale=scale, coef=coef, intercept=intercept,
        degree=degree, interaction_only=interaction_only, alpha=alphas,
    )


def ols_predict(X: np.ndarray, y: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Deterministic OLS-with-intercept predictions via standardized normal
    equations.

    Accepts 2-D inputs (``X (n, f)``, ``y (n,)``, ``queries (q, f)`` →
    ``(q,)``) or stacked 3-D inputs with a leading batch axis.  Both shapes
    run through the *same* batched code path, so a scalar call is bitwise
    identical to the matching slice of a batched call — this is the solver
    shared by :class:`repro.core.guardrail.Guardrail` and the lock-step
    guardrail arrays.

    Degenerate (constant) feature columns get a zero coefficient: their
    centered values vanish from the Gram matrix, which is padded with an
    identity entry on those diagonals to stay non-singular.  Predictions at
    queries sharing the constant value are unaffected.  A tiny ridge term
    (1e-9 relative to the Gram diagonal) keeps exactly collinear columns —
    e.g. a data size that is an affine function of the iteration number —
    solvable; as the ridge weight vanishes the solution converges to the
    minimum-norm least-squares answer ``lstsq`` would return.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    queries = np.asarray(queries, dtype=float)
    scalar = X.ndim == 2
    if scalar:
        X, y, queries = X[None], y[None], queries[None]
    mean = X.mean(axis=1)
    std = X.std(axis=1)
    degenerate = std == 0.0
    std = np.where(degenerate, 1.0, std)
    xs = (X - mean[:, None, :]) / std[:, None, :]
    y_mean = y.mean(axis=1)
    yc = y - y_mean[:, None]
    n_features = X.shape[-1]
    gram = np.swapaxes(xs, 1, 2) @ xs
    # Standardized columns give Gram diagonals ~= n, so this ridge weight is
    # ~1e-9 relative — far below observation noise, large enough to solve
    # exactly collinear designs.
    ridge = 1e-9 * X.shape[1]
    gram = gram + np.eye(n_features) * (degenerate.astype(float) + ridge)[:, None, :]
    rhs = np.swapaxes(xs, 1, 2) @ yc[..., None]
    coef = np.linalg.solve(gram, rhs)[..., 0]
    qs = (queries - mean[:, None, :]) / std[:, None, :]
    out = (qs @ coef[..., None])[..., 0] + y_mean[:, None]
    return out[0] if scalar else out
