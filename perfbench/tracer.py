"""In-process span tracing of calls into the repo's layers.

The benchmark does not instrument ``src/``: it wraps the public callables a
tuning step goes through, patching each name where its *caller* looks it up
(a module-level ``from x import f`` binds ``f`` in the caller's namespace, so
``repro.experiments.lockstep.fit_ridge_pipeline`` is patched, not only
``repro.ml.batched.fit_ridge_pipeline``).  Wrappers must be installed before
the workload's objects are built — ``LockstepSessions`` binds
``simulator.observe_true`` at construction — and are removed afterwards.

Spans are kept in memory as ``(name, start, end, parent, session, rows)``
tuples and reduced to per-layer self times: a span's duration minus the
time covered by its child spans.  The root span's self time is the
``trace.unattributed_s`` remainder, so self times sum to the traced wall
time exactly.
"""

from __future__ import annotations

import importlib
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["SpanTracer", "PATCHES", "ROOT", "write_spans"]

ROOT = "trace.root"


def _n_configs(args, kwargs) -> int:
    configs = args[2] if len(args) > 2 else kwargs["configs"]
    n = getattr(configs, "n", None)
    return int(n) if n is not None else len(configs)


def _n_models(args, kwargs) -> int:
    return len(args[0])  # fit_ridge_pipeline(X, ...): X is (models, rows, features)


# (span name, "module" or "module:Class", attribute, rows-of-the-call or None)
PATCHES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    # sparksim — the cost kernel and the simulator around it
    ("sparksim.estimate", "repro.sparksim.cost_model:CostModel", "estimate",
     lambda args, kwargs: 1),
    ("sparksim.estimate", "repro.sparksim.cost_model:CostModel", "estimate_batch",
     _n_configs),
    ("sparksim.run", "repro.sparksim.executor:SparkSimulator", "run", None),
    ("sparksim.run", "repro.sparksim.executor:SparkSimulator", "true_time_batch", None),
    ("sparksim.run", "repro.sparksim.executor:SparkSimulator", "observe_true", None),
    # core — the scalar Centroid Learning step
    ("core.session_step", "repro.core.session:TuningSession", "step", None),
    ("core.suggest", "repro.core.centroid:CentroidLearning", "suggest", None),
    ("core.observe", "repro.core.centroid:CentroidLearning", "observe", None),
    ("core.candidates", "repro.core.centroid", "generate_candidates", None),
    ("core.candidates", "repro.service.batch_exec", "generate_candidates", None),
    ("core.select", "repro.core.selectors:SurrogateSelector", "select", None),
    ("core.window_fit", "repro.core.centroid", "fit_window_model", None),
    ("core.window_fit", "repro.core.selectors", "fit_window_model", None),
    ("core.window_fit", "repro.core.find_best", "fit_window_model", None),
    ("core.find_best", "repro.core.centroid", "find_best", None),
    ("core.gradient", "repro.core.centroid", "ml_sign_gradient", None),
    ("core.guardrail", "repro.core.guardrail:Guardrail", "update", None),
    ("core.switch", "repro.core.switch:TaskSwitchDetector", "update", None),
    ("core.safe_gate", "repro.core.switch:SafeExplorationGate", "apply", None),
    # ml — batched fits and predictions
    ("ml.batched_fit", "repro.experiments.lockstep", "fit_ridge_pipeline", _n_models),
    ("ml.batched_fit", "repro.service.batch_exec", "fit_ridge_pipeline", _n_models),
    ("ml.batched_predict", "repro.ml.batched:BatchedRidgePipeline", "predict", None),
    ("ml.ols", "repro.core.guardrail", "ols_predict", None),
    ("ml.ols", "repro.experiments.lockstep", "ols_predict", None),
    # experiments.lockstep — the K-session engine
    ("lockstep.step", "repro.experiments.lockstep:LockstepSessions", "step", None),
    # service — admission, drains and coalesced execution
    ("service.submit", "repro.service.sharded:ShardedAutotuneService", "submit", None),
    ("service.drain", "repro.service.sharded:ShardedAutotuneService", "drain_shard", None),
    ("service.execute_run", "repro.service.sharded", "execute_run",
     lambda args, kwargs: len(args[1])),
)


# Spans that open a session's work; nested spans inherit the session id.
SESSION_OF: Dict[str, Callable] = {
    "core.session_step": lambda args: id(args[0]),
    "service.submit": lambda args: args[1].query_signature,
}


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


class SpanTracer:
    """Records spans around the patched callables while installed."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []
        self.queue_waits: List[float] = []
        self._stack: List[int] = []
        self._sids: List[object] = []
        self._sid_numbers: Dict[object, int] = {}

    # -- recording -------------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable, rows: Optional[Callable]) -> Callable:
        spans, stack, sids = self.spans, self._stack, self._sids
        session_of = SESSION_OF.get(name)
        numbers = self._sid_numbers

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            if session_of is not None:
                key = session_of(args)
                sid = numbers.setdefault(key, len(numbers))
            else:
                sid = sids[-1] if sids else None
            sids.append(sid)
            n = rows(args, kwargs) if rows is not None else 0
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                sids.pop()
                spans[index] = (name, start, end, parent, sid, n)

        traced.__wrapped__ = fn
        return traced

    def _wrap_dequeue(self, fn: Callable) -> Callable:
        """``ShardQueue.drain``: queue wait runs from submit to dequeue."""
        waits = self.queue_waits

        def dequeue(queue, *args, **kwargs):
            batch = fn(queue, *args, **kwargs)
            now = perf_counter()
            waits.extend(now - request.submitted_at for request in batch)
            return batch

        return dequeue

    @contextmanager
    def installed(self) -> Iterator["SpanTracer"]:
        """Patch every target for the duration of the block, then restore."""
        undo: List[Callable[[], None]] = []

        def patch(owner, attr: str, replacement: Callable) -> None:
            original = vars(owner)[attr]  # KeyError: the target moved
            setattr(owner, attr, replacement)
            undo.append(lambda: setattr(owner, attr, original))

        try:
            for name, target, attr, rows in PATCHES:
                owner = _resolve(target)
                patch(owner, attr, self._wrap(name, getattr(owner, attr), rows))
            queue_cls = _resolve("repro.service.admission:ShardQueue")
            patch(queue_cls, "drain", self._wrap_dequeue(queue_cls.drain))
            yield self
        finally:
            for restore in reversed(undo):
                restore()

    def clear(self) -> None:
        self.spans.clear()
        self.queue_waits.clear()
        self._sid_numbers.clear()

    @contextmanager
    def root(self) -> Iterator[None]:
        """The episode span every other span nests under."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (ROOT, start, end, -1, None, 0)

    # -- reduction -------------------------------------------------------------------

    def summarize(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls`` and ``rows`` of outermost entries,
        ``self_s`` (duration minus child spans), ``count`` of all spans and
        ``negative``, the spans whose children outlast them (must be 0).

        A span nested in a span of the same name (``estimate`` calling
        ``estimate_batch``) is one logical call: only outermost entries
        count toward ``calls``/``rows``.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent, _sid, _n in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: Dict[str, Dict[str, float]] = {}
        for i, (name, start, end, parent, _sid, n) in enumerate(self.spans):
            entry = out.setdefault(name, {"calls": 0, "rows": 0, "self_s": 0.0,
                                          "count": 0, "negative": 0})
            self_s = (end - start) - child_s[i]
            entry["self_s"] += self_s
            entry["count"] += 1
            entry["negative"] += self_s < 0
            if parent < 0 or self.spans[parent][0] != name:
                entry["calls"] += 1
                entry["rows"] += n
        return out

    def nested_count(self, outer: str, inner: str) -> int:
        """Outermost ``inner`` spans whose nearest ``outer`` ancestor exists."""
        count = 0
        for name, _s, _e, parent, _sid, _n in self.spans:
            if name != inner or (parent >= 0 and self.spans[parent][0] == inner):
                continue
            while parent >= 0 and self.spans[parent][0] != outer:
                parent = self.spans[parent][3]
            count += parent >= 0
        return count


def write_spans(spans: List[tuple], path) -> None:
    """Spans as CSV: index, name, start and end (s from the first span),
    parent index, session id, rows."""
    origin = spans[0][1] if spans else 0.0
    with open(path, "w") as fh:
        fh.write("index,name,start_s,end_s,parent,session,rows\n")
        for i, (name, start, end, parent, sid, n) in enumerate(spans):
            sid_text = "" if sid is None else str(sid)
            fh.write(f"{i},{name},{start - origin:.9f},{end - origin:.9f},"
                     f"{parent},{sid_text},{n}\n")
