"""Batched drain execution: one Centroid-Learning step, many sessions.

A shard drain hands :func:`execute_run` a run of requests over pairwise
distinct sessions.  A session is batched when its optimizer is a
``CentroidLearning`` whose window model is the standard ridge pipeline
(:func:`repro.core.centroid.batch_profile_for`); its request then runs as the optimizer's own
``coalesced_suggest``/``coalesced_observe`` step — guardrail, switch
detector, safe gate, selector and FIND_BEST/FIND_GRADIENT modes included.
This module only orchestrates: it advances every step to its next model
call, fits the window models the run lacks in one :func:`fit_ridge_pipeline`
call per window shape (into the ``fit_window_model`` memo), scores every
pending row block in one :class:`BatchedRidgePipeline` predict per shape —
both bitwise the scalar fit and predict — and sends each step its
predictions.  Every other session goes request by request through
:meth:`TenantSessionHost.apply`; ``diff_sharded_single`` pins the two paths
bitwise.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# perfbench/tracer.py patches ``generate_candidates`` here by name.
from ..core.candidates import generate_candidates  # noqa: F401
from ..core.centroid import batch_profile_for
from ..core.find_best import cached_window_model, remember_window_model
from ..ml.batched import BatchedRidgePipeline, fit_ridge_pipeline
from ..ml.scaler import Pipeline
from .sessions import TenantSession, TenantSessionHost, UNPROBED

__all__ = ["execute_run"]


def execute_run(
    host: TenantSessionHost, pairs: Sequence[Tuple[TenantSession, object]]
) -> None:
    """Serve one drained run of requests over pairwise-distinct sessions.

    Each request carries ``op`` (``"suggest"``/``"observe"``) and
    ``data_size`` or ``observation``/``event``, and receives its ``result``.
    Distinct sessions are independent, so their steps may advance side by
    side without changing any trail.
    """
    steps = []
    for session, request in pairs:
        if session.batch_profile is UNPROBED:
            session.batch_profile = batch_profile_for(session.optimizer)
        if session.batch_profile is None:
            host.apply(session, request)
            continue
        session.requests += 1
        optimizer = session.optimizer
        if request.op == "suggest":
            step = optimizer.coalesced_suggest(data_size=request.data_size)
        else:
            step = optimizer.coalesced_observe(request.observation)
        steps.append((session, request, step))
    pending = _advance(steps, [None] * len(steps))
    while pending:
        pending = _advance([entry[:3] for entry in pending], _predict(pending))
    for session, request, _ in steps:
        if request.op == "observe" and request.event is not None:
            host.forward_event(session, request.event)


def _advance(steps, predictions) -> List[tuple]:
    """Send each step its predictions; keep the ones that ask for more."""
    pending = []
    for (session, request, step), sent in zip(steps, predictions):
        try:
            pending.append((session, request, step, step.send(sent)))
        except StopIteration as done:
            request.result = done.value
    return pending


def _predict(pending: Sequence[tuple]) -> List[np.ndarray]:
    """Each pending step's window-model predictions, fitted and scored in batches."""
    models: List[Optional[Pipeline]] = []
    fits: Dict[tuple, List[Tuple[int, np.ndarray]]] = {}
    for i, (session, _, _, _) in enumerate(pending):
        window, profile = session.optimizer.observations, session.batch_profile
        models.append(cached_window_model(window, session.optimizer.model_factory))
        if models[i] is None:
            X = window.design_matrix()
            fits.setdefault((X.shape, profile.degree, profile.interaction_only), []).append((i, X))
    for (_, degree, interaction_only), members in fits.items():
        optimizers = [pending[i][0].optimizer for i, _ in members]
        fitted = fit_ridge_pipeline(
            np.array([X for _, X in members]),
            np.array([o.observations.performances() for o in optimizers]),
            np.array([pending[i][0].batch_profile.alpha for i, _ in members]),
            degree=degree, interaction_only=interaction_only,
        )
        for k, ((i, _), o) in enumerate(zip(members, optimizers)):
            models[i] = remember_window_model(
                o.observations, o.model_factory, fitted.pipeline_at(k)
            )
    out: List[Optional[np.ndarray]] = [None] * len(pending)
    groups: Dict[tuple, List[int]] = {}
    for i, (session, _, _, rows) in enumerate(pending):
        profile = session.batch_profile
        groups.setdefault((rows.shape, profile.degree, profile.interaction_only), []).append(i)
    for members in groups.values():
        batched = BatchedRidgePipeline.stack([models[i] for i in members])
        scored = batched.predict(np.array([pending[i][3] for i in members]))
        for k, i in enumerate(members):
            out[i] = scored[k]
    return out  # type: ignore[return-value]
