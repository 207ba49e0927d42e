"""Perf: the cost kernel at both ends of the batch axis.

Two arms, both against the per-operator reference loop
(``tests/sparksim/reference_cost.py``), write the ``batch_kernel`` section
of ``BENCH_perf.json``:

* **N=512** — a 512-configuration sweep through ``CostModel.estimate_batch``
  on a shuffle-heavy TPC-DS plan must be >= 10x faster than 512 reference
  calls.
* **N=1** — per-call ``CostModel.estimate`` (the path every simulated run
  takes) must cost <= 1.1x one reference call on tpch_q3 SF10 and
  tpcds_q23 SF100.

Both arms always assert bitwise equality with the reference.  Set
``REPRO_BENCH_SMOKE=1`` (CI) to shrink the timing loops and skip the
speed guards; wall-clock ratios on a loaded shared runner are not
meaningful.
"""

import gc
import os
import time

import numpy as np

from repro.sparksim.batch import clear_plan_arrays_cache, plan_arrays_cache_stats
from repro.sparksim.cluster import ExecutorLayout
from repro.sparksim.configs import full_space, query_level_space
from repro.sparksim.cost_model import CostModel
from repro.workloads.tpcds import tpcds_plan
from repro.workloads.tpch import tpch_plan
from tests.sparksim.reference_cost import estimate_reference

FULL_MODE = os.environ.get("REPRO_BENCH_FULL", "0") == "1"
SMOKE_MODE = os.environ.get("REPRO_BENCH_SMOKE", "0") == "1"
N_CONFIGS = 512
BATCH_REPEATS = 21 if FULL_MODE else 9
SCALAR_REPEATS = 5 if FULL_MODE else 3
# The ISSUE-level floor; regressions below this fail the bench run.
MIN_SPEEDUP = 10.0

# N=1 arm: configs per timed pass, interleaved passes per side (best kept).
SINGLE_CONFIGS = 16 if SMOKE_MODE else 64
SINGLE_ROUNDS = 3 if SMOKE_MODE else (60 if FULL_MODE else 30)
MAX_SINGLE_RATIO = 1.1


def _median_seconds(fn, repeats):
    samples = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return float(np.median(samples))


def test_batch_kernel_speedup(perf_results):
    space = query_level_space()
    plan = tpcds_plan(23, 100.0)
    model = CostModel()
    rng = np.random.default_rng(0)
    vectors = space.latin_hypercube(N_CONFIGS, rng)
    configs = [space.to_dict(v) for v in vectors]

    clear_plan_arrays_cache()

    def scalar_sweep():
        return np.array([
            estimate_reference(model.params, plan, config).total_seconds
            for config in configs
        ])

    def batch_sweep():
        return model.estimate_batch(plan, vectors, space=space)

    # Warm both paths (plan-array compilation, layout LRU) before timing.
    scalar_times = scalar_sweep()
    batch_times = batch_sweep()
    scalar_seconds = _median_seconds(scalar_sweep, SCALAR_REPEATS)
    batch_seconds = _median_seconds(batch_sweep, BATCH_REPEATS)
    speedup = scalar_seconds / batch_seconds

    max_rel_err = float(
        np.max(np.abs(batch_times - scalar_times) / np.abs(scalar_times))
    )
    cache = plan_arrays_cache_stats()

    perf_results.setdefault("batch_kernel", {}).update({
        "plan": plan.name,
        "n_configs": N_CONFIGS,
        "n_operators": float(len(plan)),
        "scalar_median_seconds": scalar_seconds,
        "batch_median_seconds": batch_seconds,
        "per_config_microseconds": batch_seconds / N_CONFIGS * 1e6,
        "speedup": speedup,
        "max_relative_error": max_rel_err,
        "plan_cache_hits": cache["hits"],
        "plan_cache_misses": cache["misses"],
        "min_speedup_guard": MIN_SPEEDUP,
        "smoke_mode": SMOKE_MODE,
    })

    # Equivalence first: the kernel replays the scalar arithmetic
    # operation-for-operation, so the tolerance is far below 1e-9.
    assert max_rel_err <= 1e-9, f"batch/scalar diverged: {max_rel_err:.3e}"
    if not SMOKE_MODE:
        assert speedup >= MIN_SPEEDUP, (
            f"batch kernel regression: only {speedup:.1f}x at N={N_CONFIGS} "
            f"(guard {MIN_SPEEDUP:.0f}x)"
        )


def _interleaved_best(fns, rounds):
    """Best-of-``rounds`` seconds per callable, alternating between them so
    machine-load drift hits every side alike."""
    best = {name: float("inf") for name in fns}
    for _ in range(rounds):
        for name, fn in fns.items():
            t0 = time.perf_counter()
            fn()
            best[name] = min(best[name], time.perf_counter() - t0)
    return best


def test_single_config_estimate_vs_reference(perf_results):
    model = CostModel()
    space = full_space()
    vectors = space.latin_hypercube(SINGLE_CONFIGS, np.random.default_rng(1))
    configs = [space.to_dict(v) for v in vectors]
    # The simulator resolves the layout before estimating; so do both sides.
    calls = [(config, ExecutorLayout.from_config(config)) for config in configs]
    arm = {}
    for name, plan in (
        ("tpch_q3_sf10", tpch_plan(3, 10.0)),
        ("tpcds_q23_sf100", tpcds_plan(23, 100.0)),
    ):
        def kernel():
            return [model.estimate(plan, c, layout) for c, layout in calls]

        def reference():
            return [
                estimate_reference(model.params, plan, c, layout)
                for c, layout in calls
            ]

        exact = all(
            got.total_seconds == want.total_seconds
            and got.per_operator == want.per_operator
            and got.metrics == want.metrics
            for got, want in zip(kernel(), reference())
        )
        gc.collect()
        gc.freeze()
        best = _interleaved_best(
            {"estimate": kernel, "reference": reference}, SINGLE_ROUNDS
        )
        gc.unfreeze()
        arm[name] = {
            "n_operators": float(len(plan)),
            "estimate_microseconds": best["estimate"] / len(calls) * 1e6,
            "reference_microseconds": best["reference"] / len(calls) * 1e6,
            "ratio": best["estimate"] / best["reference"],
            "bitwise_equal": exact,
        }

    perf_results.setdefault("batch_kernel", {})["single_config"] = {
        "plans": arm,
        "n_configs": SINGLE_CONFIGS,
        "rounds": SINGLE_ROUNDS,
        "max_ratio_guard": MAX_SINGLE_RATIO,
        "smoke_mode": SMOKE_MODE,
    }

    for name, row in arm.items():
        assert row["bitwise_equal"], f"estimate() diverged from the reference on {name}"
    if not SMOKE_MODE:
        for name, row in arm.items():
            assert row["ratio"] <= MAX_SINGLE_RATIO, (
                f"N=1 estimate regression on {name}: {row['ratio']:.2f}x the "
                f"reference loop (guard {MAX_SINGLE_RATIO}x)"
            )
