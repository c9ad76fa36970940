"""Outside-in span tracing of the polyhess layers.

The program carries no instrumentation of its own.  ``traced`` wraps each
listed function in its defining module and in every polyhess module that
bound it by name (``from .grid import hessian`` makes a separate binding per
module), including module-level dicts such as ``verify.SUITES``; on exit
every original binding is restored.

Each call becomes one span (name, start, end, parent, run id) kept in
memory; ``layer_metrics`` turns the spans into call counts, inclusive time
and self time (a span's duration minus the time its child spans cover).
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import sys
import time

PACKAGE = "polyhess"


class SpanRecorder:
    """In-memory span store; a span id is its index in ``spans``."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent id or -1, run id)
        self.counters: dict = {}
        self.run_id = 0
        self._stack: list = []

    def wrap(self, name: str, fn, counter=None):
        """Return ``fn`` recording a span per call.

        ``counter`` is an optional (counter name, fn(result) -> int) pair that
        adds a count read from each returned value.
        """
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (name, start, end, parent, self.run_id)
            if counter is not None:
                key, count = counter
                self.counters[key] = self.counters.get(key, 0) + count(result)
            return result

        return wrapper

    def write_csv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("id,name,start,end,parent,run\n")
            for sid, (name, start, end, parent, run) in enumerate(self.spans):
                fh.write(f"{sid},{name},{start!r},{end!r},{parent},{run}\n")


def _bindings(original):
    """Every (namespace dict, key) in the polyhess modules bound to ``original``."""
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
            continue
        namespace = vars(module)
        spaces = [namespace] + [v for k, v in namespace.items()
                                if isinstance(v, dict) and not k.startswith("__")]
        for space in spaces:
            for key, value in list(space.items()):
                if value is original:
                    yield space, key


@contextlib.contextmanager
def traced(recorder: SpanRecorder, targets):
    """Patch every binding of each target for the duration of the block.

    ``targets`` holds (module name, attribute, span name, counter) tuples.
    """
    patches = []
    try:
        for modname, attr, name, counter in targets:
            original = getattr(sys.modules[modname], attr)
            wrapped = recorder.wrap(name, original, counter)
            for space, key in list(_bindings(original)):
                patches.append((space, key, original))
                space[key] = wrapped
        yield recorder
    finally:
        for space, key, original in reversed(patches):
            space[key] = original


def layer_metrics(spans, names) -> dict:
    """Per-name ``calls``, ``self_s`` and ``incl_s``, as the median over run ids.

    A span nested inside a span of the same name adds to the call count and
    to self time, but not a second time to inclusive time.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, run in spans:
        if parent >= 0:
            child[parent] += end - start
    runs = sorted({span[4] for span in spans})
    totals = {(n, r): [0, 0.0, 0.0] for n in names for r in runs}
    for sid, (name, start, end, parent, run) in enumerate(spans):
        acc = totals[(name, run)]
        acc[0] += 1
        acc[1] += (end - start) - child[sid]
        if not _inside_same_name(spans, sid):
            acc[2] += end - start
    out = {}
    for n in names:
        per_run = [totals[(n, r)] for r in runs] or [[0, 0.0, 0.0]]
        out[n] = {
            "calls": statistics.median(a[0] for a in per_run),
            "self_s": statistics.median(a[1] for a in per_run),
            "incl_s": statistics.median(a[2] for a in per_run),
        }
    return out


def _inside_same_name(spans, sid) -> bool:
    name = spans[sid][0]
    parent = spans[sid][3]
    while parent >= 0:
        if spans[parent][0] == name:
            return True
        parent = spans[parent][3]
    return False


def count_under(spans, names, ancestor) -> float:
    """Median over run ids of the spans named in ``names`` below an ``ancestor`` span."""
    runs = sorted({span[4] for span in spans})
    counts = dict.fromkeys(runs, 0)
    for name, start, end, parent, run in spans:
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] != ancestor:
            parent = spans[parent][3]
        if parent >= 0:
            counts[run] += 1
    return statistics.median(counts.values()) if counts else 0
