"""Perf: the batched sensitivity sweep, and the knob-pruning payoff.

Two guards back the importance subsystem (``repro.core.importance``):

* **Morris sweep, batched vs. scalar** — the whole OAT + radial-Morris row
  matrix through one ``estimate_batch`` call against the per-row OAT loop
  a sweep without the fused design would write (one ``estimate`` call per
  row).  Bitwise equality against both that loop and the per-operator
  reference (``tests/sparksim/reference_cost.py``) is asserted always; the
  batched pass must be >= 20x faster.
* **Pruning payoff** — the ``ablation_knob_pruning`` acceptance bar: BO in
  the ranking's top-4 subspace reaches the full 8-knob space's
  best-by-step-N cost in strictly fewer steps (median over seeds) on at
  least 2 of the 3 TPC-DS workloads.

Results land in the ``importance`` section of ``BENCH_perf.json``.  Set
``REPRO_BENCH_SMOKE=1`` (CI) to shrink the sweep and skip the speedup
guard — exactness and the pruning win-count are still asserted; wall-clock
ratios on a loaded shared runner are not meaningful.
"""

import gc
import os
import time

import numpy as np

from repro.core.importance import build_sweep, rank_knobs
from repro.experiments import ablation_knob_pruning
from repro.sparksim.configs import full_space
from repro.sparksim.cost_model import CostModel
from repro.workloads.tpch import tpch_plan
from tests.sparksim.reference_cost import estimate_reference

FULL_MODE = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
SMOKE_MODE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"

N_OAT_POINTS = 17 if SMOKE_MODE else 33
N_TRAJECTORIES = 16 if SMOKE_MODE else 64
BATCH_REPEATS = 15 if FULL_MODE else 7
SCALAR_REPEATS = 2
MIN_SWEEP_SPEEDUP = 20.0
MIN_PRUNED_WINS = 2.0


def _best_seconds(fn, repeats):
    # Best-of-N (timeit convention): scheduler noise only adds time, so the
    # minimum estimates the intrinsic cost.
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.min(samples))


def test_morris_sweep_batched_vs_scalar_loop(perf_results):
    plan = tpch_plan(3)
    space = full_space()
    model = CostModel()
    sweep = build_sweep(
        space, n_oat_points=N_OAT_POINTS, n_trajectories=N_TRAJECTORIES,
        seed=0,
    )
    rows = sweep.rows

    def batched():
        return model.estimate_batch(plan, rows, space=space)

    def scalar_loop():
        return np.array([
            model.estimate(plan, space.to_dict(row)).total_seconds
            for row in rows
        ])

    # Warm both paths and pin exactness: one fused kernel call must price
    # the whole design bitwise like the per-row loop *and* the reference.
    batch_costs = batched()
    scalar_costs = scalar_loop()
    golden = np.array([
        estimate_reference(model.params, plan, space.to_dict(row)).total_seconds
        for row in rows
    ])
    exact = bool(
        np.array_equal(batch_costs, scalar_costs)
        and np.array_equal(batch_costs, golden)
    )

    gc.collect()
    gc.freeze()
    batch_seconds = _best_seconds(batched, BATCH_REPEATS)
    scalar_seconds = _best_seconds(scalar_loop, SCALAR_REPEATS)
    gc.unfreeze()
    speedup = scalar_seconds / batch_seconds

    perf_results.setdefault("importance", {})["sweep_batch_vs_scalar"] = {
        "n_rows": int(len(rows)),
        "dim": space.dim,
        "n_oat_points": N_OAT_POINTS,
        "n_trajectories": N_TRAJECTORIES,
        "scalar_best_seconds": scalar_seconds,
        "batch_best_seconds": batch_seconds,
        "rows_per_second": len(rows) / batch_seconds,
        "speedup": speedup,
        "bitwise_equal": exact,
        "min_speedup_guard": MIN_SWEEP_SPEEDUP,
        "smoke_mode": SMOKE_MODE,
    }

    assert exact, "batched sweep diverged from the scalar per-row loop"
    if not SMOKE_MODE:
        assert speedup >= MIN_SWEEP_SPEEDUP, (
            f"sweep kernel regression: only {speedup:.1f}x over the scalar "
            f"loop on {len(rows)} rows (guard {MIN_SWEEP_SPEEDUP:.0f}x)"
        )


def test_rank_knobs_wall_clock(perf_results):
    plan = tpch_plan(3)
    space = full_space()

    gc.collect()
    gc.freeze()
    seconds = _best_seconds(
        lambda: rank_knobs(
            plan, space,
            n_oat_points=N_OAT_POINTS, n_trajectories=N_TRAJECTORIES,
        ),
        BATCH_REPEATS,
    )
    gc.unfreeze()

    perf_results.setdefault("importance", {})["rank_knobs"] = {
        "dim": space.dim,
        "n_oat_points": N_OAT_POINTS,
        "n_trajectories": N_TRAJECTORIES,
        "best_seconds": seconds,
        "smoke_mode": SMOKE_MODE,
    }
    # A ranking pass must stay cheap enough to run at every task switch.
    assert seconds < 5.0


def test_knob_pruning_reaches_parity_faster(perf_results):
    result = ablation_knob_pruning.run(quick=not FULL_MODE, seed=0)
    wins = result.scalars["pruned_faster_workloads"]

    section = {
        "n_workloads": result.scalars["n_workloads"],
        "pruned_faster_workloads": wins,
        "top_k": result.scalars["top_k"],
        "n_ref": result.scalars["n_ref"],
        "min_wins_guard": MIN_PRUNED_WINS,
        "full_mode": FULL_MODE,
    }
    for qid in ablation_knob_pruning.DEFAULT_QUERIES:
        section[f"q{qid}_median_steps_pruned"] = result.scalars[
            f"q{qid}_median_steps_pruned"
        ]
    perf_results.setdefault("importance", {})["knob_pruning"] = section

    assert wins >= MIN_PRUNED_WINS, (
        f"knob pruning regression: top-{int(result.scalars['top_k'])} tuning "
        f"beat the full space on only {int(wins)} of "
        f"{int(result.scalars['n_workloads'])} workloads (guard "
        f"{int(MIN_PRUNED_WINS)})"
    )
