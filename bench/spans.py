"""Per-layer self times, recorded from outside the package.

:class:`LayerTracer` replaces module attributes that the package's callers
look up at call time (``cli.main``, ``simulate.run_batch``, the
``win_marginal`` name that ``simulate`` imported, ...) with timing wrappers,
and puts the originals back on exit.  Each wrapper opens a span; a span's
self time is its duration minus the spans it caused in the same thread.
Spans opened in worker threads have no parent there, so their time is busy
time summed across threads, is not subtracted from the caller, and is also
kept in ``worker_s``.  The time
each wrapper spends on its own bookkeeping is kept apart in ``tracer_s``.
"""

from __future__ import annotations

import threading
import time
from collections import Counter, defaultdict
from typing import Callable, Optional

Counting = Callable[[tuple, dict], int]


class LayerTracer:
    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.total_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self.worker_s: defaultdict[str, float] = defaultdict(float)
        self.tracer_s = 0.0
        self._lock = threading.Lock()
        self._local = threading.local()
        self._wraps: list[tuple[object, str, str, Optional[tuple[str, Counting]]]] = []
        self._originals: list[tuple[object, str, object]] = []

    def wrap(
        self,
        module: object,
        attr: str,
        span: str,
        count: Optional[tuple[str, Counting]] = None,
    ) -> None:
        """Time calls to ``module.attr`` as ``span``; ``count`` names a counter
        and a function of the call's arguments that says how much to add."""
        self._wraps.append((module, attr, span, count))

    def __enter__(self) -> "LayerTracer":
        for module, attr, span, count in self._wraps:
            original = getattr(module, attr)
            self._originals.append((module, attr, original))
            setattr(module, attr, self._traced(original, span, count))
        return self

    def __exit__(self, *exc) -> None:
        while self._originals:
            module, attr, original = self._originals.pop()
            setattr(module, attr, original)

    def _traced(self, original, span: str, count):
        def traced(*args, **kwargs):
            enter = time.perf_counter()
            stack = self._local.__dict__.setdefault("stack", [])
            in_worker = not stack and threading.current_thread() is not threading.main_thread()
            children = [0.0]
            stack.append(children)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                with self._lock:
                    self.total_s[span] += elapsed
                    self.self_s[span] += elapsed - children[0]
                    self.calls[span] += 1
                    if in_worker:
                        self.worker_s[span] += elapsed
                    if count is not None:
                        name, amount = count
                        self.counts[name] += amount(args, kwargs)
                    # The wrapper's own cost is charged to the tracer, not
                    # to the caller's self time.  In a worker thread it
                    # overlaps the caller's wait, so it stays in the caller.
                    wrapped = time.perf_counter() - enter
                    if not in_worker:
                        self.tracer_s += wrapped - elapsed
                if stack:
                    stack[-1][0] += wrapped

        traced.__wrapped__ = original
        return traced
