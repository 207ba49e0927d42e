"""End-to-end tuning-step benchmark.

Run from the repository root::

    python3 perfbench/run.py --workload session|fleet|service \\
        --seed N --seconds S --trace 0|1

One process, one thread of Python and single-threaded BLAS.  Each run builds
the workload from ``--seed`` several times (``setup_s`` is the median build
time), runs one reference episode whose observation-trail digest every
later episode must reproduce, then repeats episodes while the next one still
fits in ``--seconds``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` interleaves untraced, traced and telemetry-enabled episodes
and reports the per-layer split (see ``tracer.py``) plus the tracing and
telemetry overheads.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``; the lines above it give
sample counts, the trail digest and provenance.  Every run also writes its
result set to ``perfbench/results/`` — never replacing a longer run's.

Exit status is 0 when every output check passed, 1 when a check failed and
2 when the program under test is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
DEFAULT_SEED = 1
HELDOUT_SEED = 7919  # not used while the benchmark was tuned
MIN_EPISODES = 3
RESULTS_DIR = BENCH_DIR / "results"


# -- statistics --------------------------------------------------------------------------

def percentile_ms(samples, q: float) -> float:
    """Nearest-rank percentile of second-valued samples, in milliseconds."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1] * 1e3


def within(seconds: float, at_least: int):
    """Yield loop iterations while the next one should still end within
    ``seconds`` (judged by the previous one's length), at least ``at_least``."""
    started = perf_counter()
    n = 0
    last = 0.0
    while n < at_least or perf_counter() - started + last <= seconds:
        t0 = perf_counter()
        yield n
        last = perf_counter() - t0
        n += 1


def overhead_pct(slow, fast) -> float:
    return (statistics.median(slow) / statistics.median(fast) - 1.0) * 100.0


# -- provenance and results ---------------------------------------------------------------

def git_state(root: Path):
    """``(sha, dirty)`` of the checkout, ``(None, None)`` outside git."""
    if not (root / ".git").exists():
        return None, None
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=30, check=True,
        ).stdout.strip()
        status = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=no"], cwd=root,
            capture_output=True, text=True, timeout=30, check=True,
        ).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def provenance(root: Path, args) -> dict:
    import numpy

    sha, dirty = git_state(root)
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "n_cpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def write_results(record: dict) -> Path:
    """Store a result set unless a longer run for the same key is there."""
    prov = record["provenance"]
    mode = "trace" if prov["trace"] else "e2e"
    path = RESULTS_DIR / f"{prov['workload']}-{mode}-seed{prov['seed']}.json"
    if path.exists():
        try:
            previous = json.loads(path.read_text())["provenance"]["seconds"]
        except (ValueError, KeyError):
            previous = None
        if previous is not None and previous > prov["seconds"]:
            print(f"results: kept {path.name} (a {previous}s run beats this "
                  f"{prov['seconds']}s run)")
            return path
    RESULTS_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"results: wrote {path.relative_to(BENCH_DIR.parent)}")
    return path


# -- measurement ---------------------------------------------------------------------------

@dataclass
class Result:
    """One run's metrics (name -> (value, unit)) and what backs them."""

    metrics: dict
    samples: dict
    attempted: int
    failed: int
    raw: dict = field(default_factory=dict)  # end-to-end values before scaling
    notes: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


class Runner:
    """Builds, runs and checks episodes of one workload at one seed."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.setup_samples: list = []
        self.reference = None
        self.failures: list = []

    def build(self):
        gc.collect()
        t0 = perf_counter()
        state = self.workload.build(self.seed)
        self.setup_samples.append(perf_counter() - t0)
        return state

    def check(self, state, label: str) -> None:
        """A finished episode's outcome must match the reference exactly."""
        outcome = self.workload.outcome(self.seed, state)
        for name, ok in outcome.checks.items():
            if not ok:
                self.failures.append(f"{label}: {name}")
        if self.reference is None:
            self.reference = outcome
        elif (outcome.digest, outcome.centroid_speedup) != (
            self.reference.digest, self.reference.centroid_speedup
        ):
            self.failures.append(
                f"{label}: trail digest {outcome.digest} != reference "
                f"{self.reference.digest}"
            )

    def episode(self, label: str, pause=None):
        """Build, run and check one episode; returns its timings.  ``pause``
        runs between units of work, outside the episode's timings."""
        state = self.build()
        gc.collect()
        ep = self.workload.run(state, pause)
        self.check(state, label)
        return ep, state

    def reference_episode(self) -> None:
        """Untimed first episode: warms caches, fixes the digest, runs the
        workload's own output checks."""
        _, state = self.episode("reference")
        replay = getattr(self.workload, "replay_check", None)
        if replay is not None and not replay(self.seed, state):
            self.failures.append("reference: sequential replay differs")
        while len(self.setup_samples) < MIN_EPISODES:
            self.build()


def end_to_end(runner: Runner, seconds: float) -> Result:
    from calibration import Calibration

    calibration = Calibration()
    runner.reference_episode()
    episodes = []
    for _ in within(seconds, MIN_EPISODES):
        ep, _ = runner.episode(f"episode {len(episodes)}", calibration.sample)
        episodes.append(ep)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    steps = [lat for ep in episodes for lat in ep.step_latencies]
    requests = [lat for ep in episodes for lat in ep.request_latencies]
    attempted = sum(ep.attempted for ep in episodes)
    failed = sum(ep.failed for ep in episodes)
    raw = {
        "steps_per_s": (sum(ep.session_steps for ep in episodes)
                        / sum(ep.wall_s for ep in episodes), "1/s"),
        "step_p50_ms": (percentile_ms(steps, 50), "ms"),
        "step_p90_ms": (percentile_ms(steps, 90), "ms"),
        "step_p99_ms": (percentile_ms(steps, 99), "ms"),
        "requests_per_s": (len(requests)
                           / sum(ep.request_busy_s for ep in episodes), "1/s"),
        "request_p50_ms": (percentile_ms(requests, 50), "ms"),
        "request_p99_ms": (percentile_ms(requests, 99), "ms"),
        "centroid_speedup": (runner.reference.centroid_speedup, "x"),
        "success_rate": (1.0 - failed / attempted, "fraction"),
        "setup_s": (statistics.median(runner.setup_samples), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    speed = calibration.speed
    metrics = {}
    for name, (value, unit) in raw.items():
        # Episode timings follow the kernel; set-up (object construction)
        # does not track it and is reported as measured.
        if unit == "ms":
            value = value / speed
        elif unit == "1/s":
            value = value * speed
        metrics[name] = (value, unit)
    samples = {
        "steps_per_s": len(steps), "step_p50_ms": len(steps),
        "step_p90_ms": len(steps), "step_p99_ms": len(steps),
        "requests_per_s": len(requests), "request_p50_ms": len(requests),
        "request_p99_ms": len(requests), "centroid_speedup": 1,
        "success_rate": attempted, "setup_s": len(runner.setup_samples),
        "peak_rss_mb": 1,
    }
    notes = {"episodes": len(episodes), "machine_speed": speed,
             "kernel_samples": len(calibration.samples)}
    return Result(metrics, samples, attempted, failed, raw=raw, notes=notes)


def per_layer(runner: Runner, seconds: float) -> Result:
    """Interleave untraced, traced and telemetry episodes of one seed."""
    from repro import telemetry
    from tracer import PATCHES, ROOT, SpanTracer

    runner.reference_episode()
    tracer = SpanTracer()
    untraced, traced, telemetered = [], [], []
    totals: dict = {}
    queue_waits: list = []
    kernel_calls_in_steps = 0
    attempted = failed = shed = lost = 0
    for _ in within(seconds, 2):
        ep, _ = runner.episode(f"untraced {len(untraced)}")
        untraced.append(ep.wall_s)
        attempted += ep.attempted
        failed += ep.failed
        shed += ep.shed
        lost += ep.lost

        with tracer.installed():
            state = runner.build()
            tracer.clear()
            gc.collect()
            with tracer.root():
                runner.workload.run(state)
            _, start, end, *_ = tracer.spans[0]
            traced.append(end - start)
            for name, entry in tracer.summarize().items():
                acc = totals.setdefault(name, dict.fromkeys(entry, 0))
                for key, value in entry.items():
                    acc[key] += value
            kernel_calls_in_steps += tracer.nested_count(
                "lockstep.step", "sparksim.estimate")
            queue_waits.extend(tracer.queue_waits)
            spans = list(tracer.spans)
        runner.check(state, f"traced {len(traced)}")

        state = runner.build()
        gc.collect()
        with telemetry.capture() as cap:
            ep = runner.workload.run(state)
        telemetered.append(ep.wall_s)
        runner.check(state, f"telemetry {len(telemetered)}")

    # Counts read from the last telemetry episode and its public state.
    counters = cap.counters()
    coalesced = getattr(runner.workload, "coalesced_fraction", None)
    coalesced = coalesced(state) if coalesced is not None else 0.0
    n = len(traced)

    def per_episode(name: str, key: str) -> float:
        return totals.get(name, {}).get(key, 0) / n

    def counter_sum(name: str, label: str = "") -> float:
        """Sum of ``name`` over every label set containing ``label``."""
        return sum(v for k, v in counters.items()
                   if (k == name or k.startswith(name + "{")) and label in k)

    tuning = counter_sum("centroid.suggests", "mode=tuning")
    default = counter_sum("centroid.suggests", "mode=default")
    lockstep_steps = per_episode("lockstep.step", "calls")
    execute_calls = per_episode("service.execute_run", "calls")
    wall = statistics.fmean(traced)
    metrics = {
        f"{span}.self_s": (per_episode(span, "self_s"), "s")
        for span in dict.fromkeys(name for name, *_ in PATCHES)
    }
    metrics.update({
        "sparksim.estimate.calls": (per_episode("sparksim.estimate", "calls"), "count"),
        "sparksim.estimate.rows": (per_episode("sparksim.estimate", "rows"), "count"),
        "core.window_fit.calls": (per_episode("core.window_fit", "calls"), "count"),
        "core.active_fraction": (
            tuning / (tuning + default) if tuning + default else 0.0, "fraction"),
        "core.centroid_updates": (counter_sum("centroid.updates"), "count"),
        "core.reanchors": (counter_sum("switch.reanchors"), "count"),
        "ml.batched_fit.calls": (per_episode("ml.batched_fit", "calls"), "count"),
        "ml.batched_fit.rows": (per_episode("ml.batched_fit", "rows"), "count"),
        "lockstep.kernel_calls_per_step": (
            kernel_calls_in_steps / n / lockstep_steps if lockstep_steps else 0.0,
            "count"),
        "service.submit.calls": (per_episode("service.submit", "calls"), "count"),
        "service.queue_wait_p50_ms": (
            percentile_ms(queue_waits, 50) if queue_waits else 0.0, "ms"),
        "service.queue_wait_p99_ms": (
            percentile_ms(queue_waits, 99) if queue_waits else 0.0, "ms"),
        "service.execute_run.calls": (execute_calls, "count"),
        "service.execute_run.mean_size": (
            per_episode("service.execute_run", "rows") / execute_calls
            if execute_calls else 0.0, "count"),
        "service.coalesced_fraction": (coalesced, "fraction"),
        "service.shed": (shed, "count"),
        "service.lost": (lost, "count"),
        "trace.wall_s": (wall, "s"),
        "trace.unattributed_s": (per_episode(ROOT, "self_s"), "s"),
        "trace.overhead_pct": (overhead_pct(traced, untraced), "%"),
        "telemetry.overhead_pct": (overhead_pct(telemetered, untraced), "%"),
    })
    if any(entry["negative"] for entry in totals.values()):
        runner.failures.append("trace: a span has negative self time")
    attributed = sum(value for name, (value, _) in metrics.items()
                     if name.endswith(".self_s") or name == "trace.unattributed_s")
    if abs(attributed - wall) > 1e-6 * max(wall, 1.0):
        runner.failures.append(
            f"trace: self times sum to {attributed:.6f}s, wall is {wall:.6f}s")
    samples = {"trace.wall_s": n, "trace.overhead_pct": len(untraced),
               "telemetry.overhead_pct": len(telemetered),
               "service.queue_wait_p50_ms": len(queue_waits),
               "service.queue_wait_p99_ms": len(queue_waits)}
    return Result(metrics, samples, attempted, failed, spans=spans)


# -- entry point ----------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("session", "fleet", "service"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def as_json(metrics: dict) -> dict:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    src = root / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program under test at {src}/repro; run from the "
              "repository root", file=sys.stderr)
        return 2
    # One process, one thread: no BLAS pools, serial shard drains.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    from repro import telemetry
    from workloads import WORKLOADS

    telemetry.disable()
    runner = Runner(WORKLOADS[args.workload], args.seed)
    measure = per_layer if args.trace else end_to_end
    result = measure(runner, args.seconds)

    correct = not runner.failures
    for failure in runner.failures:
        print(f"CHECK FAILED: {failure}")
    prov = provenance(root, args)
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"workload {args.workload} seed {args.seed}: trail digest "
          f"{runner.reference.digest}, {runner.reference.n_sessions} sessions")
    for name, value in result.notes.items():
        print(f"  {name} {value}")
    for name, (value, unit) in result.metrics.items():
        n = result.samples.get(name)
        print(f"  {name:36s} {value:14.6f} {unit:8s}"
              + (f" n={n}" if n is not None else "")
              + (f" raw={result.raw[name][0]:.6f}" if name in result.raw else ""))
    path = write_results({
        "provenance": prov,
        "digest": runner.reference.digest,
        "correct": correct,
        "failures": runner.failures,
        "samples": result.samples,
        "notes": result.notes,
        "metrics": as_json(result.metrics),
        "raw_metrics": as_json(result.raw),
    })
    if result.spans:
        from tracer import write_spans

        write_spans(result.spans, path.with_suffix(".spans.csv"))
    print(json.dumps({
        "correct": correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": as_json(result.metrics),
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
