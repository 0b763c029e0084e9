"""Layer spans recorded from outside the program.

The benchmark does not edit ``src/repro``: it replaces the public
functions at each layer boundary with timing wrappers, by rebinding the
module attributes the callers look the names up in.  A span's *self*
time is its duration minus the time of the spans nested inside it (on
the same thread), so a layer's self time never counts the layers it
calls.  Spans and counters stay in memory until :meth:`Tracer.report`.

Only the process that installs the tracer is seen.  Pool workers under
``--jobs N`` and ``repro worker`` subprocesses run their layers out of
sight; the benchmark takes their split from a serial traced run of the
same inputs.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple


class Tracer:
    """Self-time spans and counters for named layer boundaries."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Tuple[Any, str, Any]] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counters: Counter = Counter()
        #: First occurrence of an event, seconds after :attr:`origin`.
        self.firsts: Dict[str, float] = {}
        self.origin = time.perf_counter()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time one call into layer boundary ``name``."""
        stack = self._stack()
        stack.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            nested = stack.pop()
            if stack:
                stack[-1] += duration
            with self._lock:
                self.self_s[name] += duration - nested
                self.calls[name] += 1

    def count(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[name] += amount

    def first(self, name: str) -> None:
        """Record when ``name`` first happened (later calls are no-ops)."""
        now = time.perf_counter() - self.origin
        with self._lock:
            self.firsts.setdefault(name, now)

    def wrap(self, owner: Any, attribute: str, name: str,
             after: Optional[Callable[..., None]] = None) -> None:
        """Rebind ``owner.attribute`` to a spanned wrapper.

        ``after(result, *args, **kwargs)`` runs outside the span, so the
        counting it does is not charged to the layer.
        """
        original = getattr(owner, attribute)

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                result = original(*args, **kwargs)
            if after is not None:
                after(result, *args, **kwargs)
            return result

        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def wrap_iterator(self, owner: Any, attribute: str, name: str,
                      active: Callable[..., bool],
                      each: Callable[[Any], None]) -> None:
        """Rebind a generator function so every ``next`` is one span.

        ``active(*args, **kwargs)`` decides per call whether it is
        traced at all; ``each(item)`` sees every item yielded.
        """
        original = getattr(owner, attribute)
        tracer = self

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            inner = original(*args, **kwargs)
            if not active(*args, **kwargs):
                return inner
            return tracer._spanned(name, inner, each)

        self._restore.append((owner, attribute, original))
        setattr(owner, attribute, traced)

    def _spanned(self, name: str, inner: Iterator[Any],
                 each: Callable[[Any], None]) -> Iterator[Any]:
        try:
            while True:
                with self.span(name):
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                each(item)
                yield item
        finally:
            inner.close()

    def uninstall(self) -> None:
        """Put every wrapped attribute back."""
        while self._restore:
            owner, attribute, original = self._restore.pop()
            setattr(owner, attribute, original)

    def report(self) -> Dict[str, Any]:
        with self._lock:
            return {"self_s": dict(self.self_s), "calls": dict(self.calls),
                    "counters": dict(self.counters),
                    "firsts": dict(self.firsts)}


def install(tracer: Tracer) -> None:
    """Wrap every named layer boundary of the ``repro`` package."""
    from repro.dist import coordinator
    from repro.experiments.parallel import TaskFailure
    from repro.pipeline import tracegen
    from repro.scenarios import runner
    from repro.scenarios.results import BaselineSidecar, ResultsStore
    from repro.sim import baseline, engine, trainplan
    from repro.trace.store import TraceStore

    def generated(result, *args, **kwargs):
        tracer.count("pipeline.instructions", result.bundle.instructions)

    def loaded(result, *args, **kwargs):
        tracer.count("trace.gets")
        tracer.count("trace.hits", result is not None)

    def walked(result, bundle, prefetchers, *args, **kwargs):
        tracer.count("engine.lane_accesses",
                     len(prefetchers) * len(bundle.access_block))

    def timed(result, bundle, *args, **kwargs):
        tracer.count("timing.accesses", len(bundle.access_block))

    def leased(result, *args, **kwargs):
        tracer.count("dist.requested")
        if result.get("state") == "granted":
            tracer.count("dist.granted")
            tracer.first("dist.lease")

    def yielded(item):
        tracer.first("parallel.result")
        tracer.count("parallel.tasks")
        tracer.count("parallel.failures", isinstance(item[1], TaskFailure))

    def pooled(func, items, jobs=1, **kwargs):
        return jobs > 1

    tracer.wrap(tracegen, "generate_trace", "pipeline.generate",
                after=generated)
    tracer.wrap(TraceStore, "get", "trace.get", after=loaded)
    tracer.wrap(TraceStore, "put", "trace.put")
    tracer.wrap(engine, "train_plan_for", "trainplan.lookup")
    tracer.wrap(trainplan, "build_train_plan", "trainplan.build")
    tracer.wrap(engine, "measured_baseline", "baseline.measured")
    tracer.wrap(baseline, "replay_baseline", "baseline.replay")
    tracer.wrap(runner, "run_multi_prefetch_simulation", "engine.walk",
                after=walked)
    tracer.wrap(runner, "run_timing_simulation", "timing.walk", after=timed)
    tracer.wrap(runner, "prepare_sweep", "scenarios.prepare")
    tracer.wrap(coordinator, "prepare_sweep", "scenarios.prepare")
    tracer.wrap(ResultsStore, "append_all", "scenarios.append")
    tracer.wrap(ResultsStore, "merge_all", "scenarios.append")
    tracer.wrap(BaselineSidecar, "append_missing", "scenarios.append")
    tracer.wrap_iterator(runner, "parallel_imap", "parallel.wait",
                         active=pooled, each=yielded)
    tracer.wrap(coordinator.LeaseBoard, "request_lease", "dist.lease",
                after=leased)
    tracer.wrap(coordinator.LeaseBoard, "submit", "dist.submit")
