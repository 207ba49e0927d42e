"""Hypothesis strategies for repro's core domain objects.

This is the only module in :mod:`repro.verify` allowed to import
``hypothesis`` (declared by the ``test`` extra); the registry and the
differential oracles stay dependency-free so ``import repro.verify`` works
in production environments — ``tests/verify/test_import_guard.py`` pins
that split.

Strategies:

* :func:`parameters` / :func:`config_spaces` — mixed linear/log/integer
  knobs with sane spans (log ratios ≥ 10, linear spans ≥ 8) so normalized
  encodings stay well-conditioned.
* :func:`internal_vectors` / :func:`unit_vectors` — points inside a given
  space, on the internal axes or the unit cube.
* :func:`physical_plans` — TPC-H plans across query shapes and scale
  factors (scan-only, multi-join, sorted/limited).
* :func:`fault_specs` / :func:`fault_plans` — seeded chaos schedules.
* :func:`noise_models` — Eq.-8 noise across the FL/SL range.
* :func:`observations` — valid ``(c, p, r)`` triples for a space.
* :func:`lockstep_populations` — a zero-arg *builder* of fresh lock-step
  session populations (mixed plans, noise, per-session hyperparameters,
  drifting sizes, optional guardrails and fault plans).  Call it once per
  engine under comparison so each side starts from identical fresh state.

The metamorphic properties themselves (permutation-invariance of
FIND_BEST, noise-free convergence, scale-invariance of normalized
encodings, fault/noise determinism) live in
``tests/verify/test_properties.py`` under the ``verify`` marker.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from ..core.centroid import CentroidLearning
from ..core.config_space import ConfigSpace, Parameter
from ..core.guardrail import Guardrail
from ..core.observation import Observation
from ..experiments.lockstep import SessionSpec
from ..faults.injectors import FaultySimulator
from ..faults.plan import FaultKind, FaultPlan, FaultSpec
from ..sparksim.configs import query_level_space
from ..sparksim.executor import SparkSimulator
from ..sparksim.noise import NoiseModel
from ..workloads.tpch import tpch_plan

__all__ = [
    "config_spaces",
    "fault_plans",
    "fault_specs",
    "internal_vectors",
    "lockstep_populations",
    "noise_models",
    "observations",
    "parameters",
    "physical_plans",
    "seeds",
    "unit_vectors",
]


def seeds(max_value: int = 2**16) -> st.SearchStrategy:
    """Deterministic RNG seeds."""
    return st.integers(min_value=0, max_value=max_value)


@st.composite
def parameters(
    draw,
    index: int = 0,
    allow_log: bool = True,
    allow_integer: bool = True,
) -> Parameter:
    """One tunable knob with well-conditioned bounds."""
    log_scale = draw(st.booleans()) if allow_log else False
    integer = (
        draw(st.booleans()) if (allow_integer and not log_scale) else False
    )
    if log_scale:
        low = draw(st.floats(min_value=1e-2, max_value=1e2))
        ratio = draw(st.floats(min_value=10.0, max_value=1e4))
        high = low * ratio
    else:
        low = draw(st.floats(min_value=-1e3, max_value=1e3))
        span = draw(st.floats(min_value=8.0, max_value=1e4))
        high = low + span
    fraction = draw(st.floats(min_value=0.0, max_value=1.0))
    default = min(max(low + (high - low) * fraction, low), high)
    return Parameter(
        name=f"knob{index}",
        low=low,
        high=high,
        default=default,
        log_scale=log_scale,
        integer=integer,
    )


@st.composite
def config_spaces(
    draw,
    min_dim: int = 1,
    max_dim: int = 4,
    allow_log: bool = True,
    allow_integer: bool = True,
) -> ConfigSpace:
    dim = draw(st.integers(min_value=min_dim, max_value=max_dim))
    return ConfigSpace([
        draw(parameters(index=i, allow_log=allow_log, allow_integer=allow_integer))
        for i in range(dim)
    ])


@st.composite
def unit_vectors(draw, space: ConfigSpace) -> np.ndarray:
    """A point on the unit cube ``[0, 1]^dim`` of ``space``."""
    return np.array([
        draw(st.floats(min_value=0.0, max_value=1.0)) for _ in range(space.dim)
    ])


@st.composite
def internal_vectors(draw, space: ConfigSpace) -> np.ndarray:
    """An in-bounds point on the internal (possibly log) axes of ``space``."""
    return np.array([
        draw(st.floats(min_value=p.internal_low, max_value=p.internal_high))
        for p in space
    ])


@st.composite
def observations(draw, space: ConfigSpace, iteration: int = 0) -> Observation:
    """A valid ``(c_i, p_i, r_i)`` triple for ``space``."""
    return Observation(
        config=draw(internal_vectors(space)),
        data_size=draw(st.floats(min_value=1.0, max_value=1e9)),
        performance=draw(st.floats(min_value=1e-3, max_value=1e6)),
        iteration=iteration,
    )


@st.composite
def physical_plans(draw):
    """TPC-H plans across shapes (scan-only, multi-join, sort/limit)."""
    query_id = draw(st.sampled_from([1, 3, 5, 6]))
    scale = draw(st.floats(min_value=0.1, max_value=4.0))
    return tpch_plan(query_id, scale_factor=scale)


@st.composite
def noise_models(draw) -> NoiseModel:
    """Eq.-8 noise spanning the no-noise → beyond-high-noise range."""
    return NoiseModel(
        fluctuation_level=draw(st.floats(min_value=0.0, max_value=2.0)),
        spike_level=draw(st.floats(min_value=0.0, max_value=10.0)),
    )


@st.composite
def fault_specs(draw, kind: FaultKind = None) -> FaultSpec:
    if kind is None:
        kind = draw(st.sampled_from(list(FaultKind)))
    return FaultSpec(
        kind=kind,
        rate=draw(st.floats(min_value=0.0, max_value=1.0)),
        at=tuple(draw(st.lists(
            st.integers(min_value=0, max_value=50), max_size=4
        ))),
        duration=draw(st.integers(min_value=1, max_value=3)),
        magnitude=draw(st.floats(min_value=0.5, max_value=8.0)),
    )


@st.composite
def lockstep_populations(draw, min_sessions: int = 1, max_sessions: int = 5):
    """A zero-arg builder of one fresh lock-step session population.

    All randomness is drawn here; the returned ``build()`` closure only
    *constructs* — so calling it twice yields two populations with
    identical parameters but independent mutable state (simulators,
    optimizers, guardrails, fault plans).  That is exactly what the
    lock-step-vs-sequential and permutation-invariance properties need:
    one fresh population per engine run.

    Per-session variation: TPC-H query shape and scale factor, Eq.-8 noise
    levels, simulator/optimizer seeds, ``alpha``/``alpha_decay``/``beta``,
    an optional linear data-size drift, an optional latency-spike fault
    plan, and guardrail presence and cooldown — so populations mix guarded
    and unguarded sessions.
    """
    k = draw(st.integers(min_value=min_sessions, max_value=max_sessions))
    sessions = []
    for _ in range(k):
        sessions.append({
            "query": draw(st.sampled_from([1, 3, 5, 6])),
            "scale_factor": draw(st.floats(min_value=0.5, max_value=2.0)),
            "fluctuation": draw(st.floats(min_value=0.0, max_value=1.0)),
            "spike": draw(st.floats(min_value=0.0, max_value=4.0)),
            "sim_seed": draw(seeds()),
            "opt_seed": draw(seeds()),
            "alpha": draw(st.floats(min_value=0.02, max_value=0.3)),
            "alpha_decay": draw(st.floats(min_value=0.0, max_value=0.5)),
            "beta": draw(st.floats(min_value=0.05, max_value=0.3)),
            "growth": draw(st.sampled_from([None, 0.02, 0.1])),
            "fault_at": tuple(draw(st.lists(
                st.integers(min_value=0, max_value=12), max_size=3
            ))) if draw(st.booleans()) else (),
            "fault_magnitude": draw(st.floats(min_value=1.5, max_value=6.0)),
            "guardrailed": draw(st.booleans()),
            "cooldown": draw(st.sampled_from([None, 2, 3])),
        })

    def build():
        space = query_level_space()
        specs = []
        for s in sessions:
            simulator = SparkSimulator(
                noise=NoiseModel(
                    fluctuation_level=s["fluctuation"], spike_level=s["spike"]
                ),
                seed=s["sim_seed"],
            )
            if s["fault_at"]:
                simulator = FaultySimulator(simulator, FaultPlan(
                    [FaultSpec(FaultKind.LATENCY_SPIKE, at=s["fault_at"],
                               magnitude=s["fault_magnitude"])],
                    seed=s["sim_seed"],
                ))
            guardrail = Guardrail(
                min_iterations=4, threshold=0.15, patience=2,
                cooldown=s["cooldown"],
            ) if s["guardrailed"] else None
            optimizer = CentroidLearning(
                space,
                alpha=s["alpha"], alpha_decay=s["alpha_decay"], beta=s["beta"],
                guardrail=guardrail, seed=s["opt_seed"],
            )
            growth = s["growth"]
            scale_fn = (
                (lambda t, _g=growth: 1.0 + _g * t) if growth is not None
                else None
            )
            specs.append(SessionSpec(
                plan=tpch_plan(s["query"], scale_factor=s["scale_factor"]),
                simulator=simulator,
                optimizer=optimizer,
                scale_fn=scale_fn,
            ))
        return specs

    return build


@st.composite
def fault_plans(draw, max_kinds: int = 3) -> FaultPlan:
    """A fresh, unconsumed fault plan.

    Rebuild an identical twin with
    ``FaultPlan([p.spec(k) for k in FaultKind if p.spec(k)], seed=p.seed)``
    when a property needs to drive the same schedule twice.
    """
    kinds = draw(st.lists(
        st.sampled_from(list(FaultKind)), unique=True, max_size=max_kinds
    ))
    specs = [draw(fault_specs(kind=k)) for k in kinds]
    return FaultPlan(specs, seed=draw(seeds()))
