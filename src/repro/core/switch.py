"""Task-switch detection and safe online tuning.

Production sessions assume the workload they tune is the workload they keep
seeing.  When the regime changes — a pipeline is repointed at a 10× input,
a query plan is rewritten, a tenant migrates — the guardrail (Sec. 4.3)
only *degrades through* the change: it needs ``patience`` consecutive
predicted regressions, then pins the default configuration and grinds
through cooldown probation while the window model keeps fitting stale
observations.  The ATO line of work (``contextBO_tsd``) detects the switch
instead: an online change-point test on the observation stream re-anchors
the tuner the moment the regime moves.

:class:`TaskSwitchDetector` is that test, deterministic and RNG-free:

* **cost channel** — a one-sided CUSUM on standardized *normalized* cost
  ``x_t = r_t / p_t``.  The first ``warmup`` observations after an anchor
  form a frozen reference block (mean/scale); afterwards each residual
  ``z_t = (x_t − μ) / σ`` is winsorized at ``clip`` and accumulated as
  ``g_t = max(0, g_{t-1} + min(z_t, clip) − drift)``.  ``g_t > threshold``
  declares a switch.  The clip bounds any single observation's
  contribution, so an isolated fault spike (timeout, 10× latency blowup)
  cannot fire the detector — sustained shifts can.  Only upward shifts
  count: costs *falling* is what tuning is supposed to achieve.
* **input-size channel** — the observed data size jumping more than
  ``size_jump``× (either direction) away from the anchor's size is an
  immediate switch; no warmup needed.
* **plan-shape channel** — when embeddings flow through the session, a
  cosine distance above ``embedding_jump`` from the anchor embedding is an
  immediate switch.

On detection the detector re-anchors on the firing observation (it belongs
to the new regime) and the owning optimizer re-anchors its own state: the
``ObservationWindow`` resets, the guardrail resets, and the
``repro.retrieval`` warm-start index is consulted for the new regime's
centroid (see ``CentroidLearning(switch_detector=..., switch_warm_start=...)``).

:class:`SafeExplorationGate` is the safe-exploration mode (ATO's
``--safe_flag``): candidates whose predicted cost exceeds the default
configuration's predicted cost by more than ``bound`` are rejected before
selection, so the *expected* per-step regret against the default stays
bounded while tuning continues.  When no candidate passes, the default
itself is suggested.

Every engine runs each session's own detector and gate: the scalar
session, the service's coalesced drains and the lock-step fleet engine
all call :meth:`TaskSwitchDetector.update` and
:meth:`SafeExplorationGate.safe_mask` on the session's instances
(``repro.verify.diff.diff_switch_inert`` and ``diff_lockstep_sequential``
pin the contract).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .. import telemetry
from .observation import feature_rows

__all__ = [
    "SwitchDecision",
    "TaskSwitchDetector",
    "SafeExplorationGate",
    "cosine_distance",
]


def cosine_distance(a: np.ndarray, b: np.ndarray) -> float:
    """``1 − cos(a, b)`` with a floored norm product (0 for aligned vectors)."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    denom = max(float(np.linalg.norm(a)) * float(np.linalg.norm(b)), 1e-12)
    return 1.0 - float(np.dot(a, b)) / denom


@dataclass(frozen=True)
class SwitchDecision:
    """Outcome of one detector update.

    ``statistic`` is the CUSUM value (``reason="cost_shift"``), the size
    ratio (``"input_size"``) or the embedding distance (``"plan_shape"``);
    ``bound`` is the limit it was compared against.  ``reason`` is
    ``"warmup"`` or ``"stationary"`` on non-detections.
    """

    iteration: int
    statistic: float
    bound: float
    detected: bool
    reason: str


class TaskSwitchDetector:
    """Online change-point detector over a session's observation stream.

    Deterministic (no RNG) and cheap (O(1) state per update).

    Args:
        warmup: observations after each anchor that freeze the reference
            mean/scale of the normalized cost (>= 2).
        threshold: CUSUM decision bound, in reference-σ units.  With the
            default ``clip``/``drift`` a shift must sustain roughly
            ``threshold / (clip − drift)`` consecutive high observations.
        drift: per-step CUSUM allowance in σ units — stationary noise
            drains the statistic instead of accumulating.
        clip: winsorization bound on the standardized residual; a single
            Eq.-8 spike or injected fault contributes at most
            ``clip − drift`` no matter how extreme.
        min_rel_scale: floor on the reference scale as a fraction of the
            reference mean — near-noiseless streams otherwise standardize
            benign wiggles into huge residuals.
        size_jump: input-size ratio versus the anchor that fires the
            signature channel immediately (``None`` disables it).
        embedding_jump: cosine distance versus the anchor embedding that
            fires the plan-shape channel (``None`` disables; inactive when
            no embeddings are observed).
    """

    def __init__(
        self,
        warmup: int = 8,
        threshold: float = 8.0,
        drift: float = 0.5,
        clip: float = 3.0,
        min_rel_scale: float = 0.05,
        size_jump: Optional[float] = 4.0,
        embedding_jump: Optional[float] = 0.25,
    ):
        if warmup < 2:
            raise ValueError("warmup must be >= 2")
        if threshold <= 0:
            raise ValueError("threshold must be > 0")
        if drift < 0:
            raise ValueError("drift must be >= 0")
        if clip <= drift:
            raise ValueError("clip must be > drift (or nothing can accumulate)")
        if min_rel_scale <= 0:
            raise ValueError("min_rel_scale must be > 0")
        if size_jump is not None and size_jump <= 1:
            raise ValueError("size_jump must be > 1 (or None)")
        if embedding_jump is not None and embedding_jump <= 0:
            raise ValueError("embedding_jump must be > 0 (or None)")
        self.warmup = warmup
        self.threshold = threshold
        self.drift = drift
        self.clip = clip
        self.min_rel_scale = min_rel_scale
        self.size_jump = size_jump
        self.embedding_jump = embedding_jump
        self.switch_count = 0
        self.detections: List[SwitchDecision] = []
        self._reset_anchor()

    def _reset_anchor(self) -> None:
        self._n = 0
        self._block: List[float] = []
        self._ref_mean: Optional[float] = None
        self._ref_scale: Optional[float] = None
        self._g = 0.0
        self._anchor_size: Optional[float] = None
        self._anchor_embedding: Optional[np.ndarray] = None

    # -- introspection ----------------------------------------------------------

    @property
    def n_since_anchor(self) -> int:
        """Observations absorbed since the current anchor."""
        return self._n

    @property
    def statistic(self) -> float:
        """The current CUSUM value (σ units)."""
        return self._g

    @property
    def reference(self) -> Optional[tuple]:
        """``(mean, scale)`` of the frozen reference block, once warmed up."""
        if self._ref_mean is None:
            return None
        return (self._ref_mean, self._ref_scale)

    # -- the online test --------------------------------------------------------

    def update(
        self,
        performance: float,
        data_size: float,
        embedding: Optional[np.ndarray] = None,
        iteration: int = 0,
    ) -> SwitchDecision:
        """Absorb one observation; returns the decision for this step.

        On a detection the detector re-anchors itself on the firing
        observation — the caller re-anchors *its* state (window, centroid,
        guardrail) in response.
        """
        telemetry.counter("switch.checks").inc()
        x = performance / data_size
        if self._anchor_size is not None and self.size_jump is not None:
            ratio = data_size / self._anchor_size
            if ratio > self.size_jump or ratio * self.size_jump < 1.0:
                return self._fire(
                    iteration, x, data_size, embedding,
                    statistic=ratio, bound=self.size_jump, reason="input_size",
                )
        if (
            self.embedding_jump is not None
            and embedding is not None
            and self._anchor_embedding is not None
        ):
            dist = cosine_distance(embedding, self._anchor_embedding)
            if dist > self.embedding_jump:
                return self._fire(
                    iteration, x, data_size, embedding,
                    statistic=dist, bound=self.embedding_jump, reason="plan_shape",
                )
        if self._anchor_size is None:
            self._anchor_size = data_size
            if embedding is not None:
                self._anchor_embedding = np.array(embedding, dtype=float)
        if self._n < self.warmup:
            self._block.append(x)
            self._n += 1
            if self._n == self.warmup:
                self._freeze_reference()
            return SwitchDecision(iteration, 0.0, self.threshold, False, "warmup")
        z = (x - self._ref_mean) / self._ref_scale
        g = max(0.0, self._g + min(z, self.clip) - self.drift)
        self._g = g
        self._n += 1
        if g > self.threshold:
            return self._fire(
                iteration, x, data_size, embedding,
                statistic=g, bound=self.threshold, reason="cost_shift",
            )
        return SwitchDecision(iteration, g, self.threshold, False, "stationary")

    def _freeze_reference(self) -> None:
        block = np.asarray(self._block, dtype=float)
        mean = float(block.mean())
        self._ref_mean = mean
        self._ref_scale = max(
            float(block.std()), self.min_rel_scale * abs(mean), 1e-12
        )

    def _fire(
        self,
        iteration: int,
        x: float,
        data_size: float,
        embedding: Optional[np.ndarray],
        statistic: float,
        bound: float,
        reason: str,
    ) -> SwitchDecision:
        decision = SwitchDecision(iteration, float(statistic), bound, True, reason)
        self.switch_count += 1
        self.detections.append(decision)
        # Re-anchor on the firing observation: it belongs to the new regime.
        self._reset_anchor()
        self._block.append(x)
        self._n = 1
        self._anchor_size = data_size
        if embedding is not None:
            self._anchor_embedding = np.array(embedding, dtype=float)
        telemetry.counter("switch.detections", reason=reason).inc()
        telemetry.emit(
            "switch.detect",
            iteration=iteration,
            reason=reason,
            statistic=decision.statistic,
            bound=bound,
        )
        return decision

    # -- persistence -------------------------------------------------------------

    def to_state(self) -> dict:
        """JSON-serializable snapshot (cross-application persistence)."""
        return {
            "n": self._n,
            "block": list(self._block),
            "ref_mean": self._ref_mean,
            "ref_scale": self._ref_scale,
            "g": self._g,
            "anchor_size": self._anchor_size,
            "anchor_embedding": (
                None if self._anchor_embedding is None
                else self._anchor_embedding.tolist()
            ),
            "switch_count": self.switch_count,
        }

    def restore_state(self, state: dict) -> "TaskSwitchDetector":
        """Restore a :meth:`to_state` snapshot in place."""
        self._n = int(state["n"])
        self._block = [float(v) for v in state["block"]]
        self._ref_mean = state["ref_mean"]
        self._ref_scale = state["ref_scale"]
        self._g = float(state["g"])
        self._anchor_size = state["anchor_size"]
        emb = state.get("anchor_embedding")
        self._anchor_embedding = None if emb is None else np.asarray(emb, dtype=float)
        self.switch_count = int(state["switch_count"])
        return self


class SafeExplorationGate:
    """Bounded-regret candidate gating (the ATO ``--safe_flag`` mode).

    Before selection, every candidate's cost is predicted with the same
    window model the selector uses (the fit is memoized on the window, so
    no extra fit happens) and compared against the predicted cost of the
    *default* configuration at the current data size.  Candidates exceeding
    ``default · (1 + bound)`` are rejected; if nothing survives, the
    default itself is suggested.  Expected regret versus the default is
    thereby bounded by ``bound`` whenever the model ranks faithfully —
    exploration continues, but only inside the safe slab.

    Args:
        bound: allowed relative excess over the default's predicted cost
            (0.25 = candidates may be predicted up to 25% slower).
        min_observations: window points required before the gate trusts the
            model; below this the gate stands aside (cold-start exploration
            is unrestricted, as in ATO).
    """

    def __init__(self, bound: float = 0.25, min_observations: int = 3):
        if bound <= 0:
            raise ValueError("bound must be > 0")
        if min_observations < 2:
            raise ValueError("min_observations must be >= 2")
        self.bound = bound
        self.min_observations = min_observations

    def safe_mask(self, predictions: np.ndarray, default_prediction: float) -> np.ndarray:
        """Boolean mask of candidates within the bound (counters included)."""
        mask = predictions <= default_prediction * (1.0 + self.bound)
        telemetry.counter("safe.checks").inc()
        n_rejected = int(len(predictions) - np.count_nonzero(mask))
        if n_rejected:
            telemetry.counter("safe.rejected").inc(n_rejected)
        return mask

    def apply(
        self,
        candidates: np.ndarray,
        model,
        data_size: float,
        default_vector: np.ndarray,
    ) -> np.ndarray:
        """Return the safe subset of ``candidates`` (or the default row).

        ``model`` is the window model ``H(c, p)`` — the exact (memoized)
        fit the selector scores with, so the gate adds no extra fits.
        """
        rows = self.rows(candidates, data_size, default_vector)
        return self.choose(candidates, model.predict(rows), default_vector)

    @staticmethod
    def rows(candidates: np.ndarray, data_size: float, default_vector: np.ndarray):
        """``[c, p]`` rows: every candidate, then the default."""
        return feature_rows(np.vstack([candidates, default_vector[None, :]]), data_size)

    def choose(self, candidates, predictions: np.ndarray, default_vector) -> np.ndarray:
        """The safe subset given ``H`` at :meth:`rows` (or the default row)."""
        m = len(candidates)
        mask = self.safe_mask(predictions[:m], predictions[m])
        if not mask.any():
            telemetry.counter("safe.fallbacks").inc()
            return default_vector[None, :].copy()
        return candidates[mask]
