"""In-memory span tracing around ddwl's public functions.

`traced(targets)` replaces each target function or method, for the length
of a `with` block, by a wrapper that records one span per call: name,
start, end and the index of the enclosing span. Module functions are
replaced in every loaded `ddwl` module that binds the same object, so calls
made through `from .x import f` bindings are traced too. The originals are
put back when the block ends, whatever happens inside it.

An optional observer per target reads exact counts off the returned value
(rounds, ranks, search nodes, ...) into `Tracer.counts`.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._open: list[int] = []

    def wrap(self, name, fn, observe=None):
        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            span = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._open.pop()
            if observe is not None:
                observe(self.counts, args, result)
            return result

        return traced_call

    def self_times(self) -> dict[str, float]:
        """Seconds per span name, each span minus the time its children cover."""
        covered = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for (name, start, end, _), child in zip(self.spans, covered):
            out[name] += (end - start) - child
        return dict(out)

    def top_level_seconds(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def to_json(self) -> list[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


def _hosts(owner, attr, original):
    if isinstance(owner, type):
        return [owner]
    return [
        module
        for name, module in sorted(sys.modules.items())
        if (name == "ddwl" or name.startswith("ddwl."))
        and getattr(module, attr, None) is original
    ]


@contextmanager
def traced(targets):
    """targets: (owner, attribute, span name, observer or None) tuples, where
    owner is a module or a class."""
    tracer = Tracer()
    saved = []
    try:
        for owner, attr, name, observe in targets:
            original = getattr(owner, attr)
            wrapper = tracer.wrap(name, original, observe)
            for host in _hosts(owner, attr, original):
                saved.append((host, attr, original))
                setattr(host, attr, wrapper)
        yield tracer
    finally:
        for host, attr, original in reversed(saved):
            setattr(host, attr, original)
