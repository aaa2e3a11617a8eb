"""In-memory spans around calls into trflm, recorded from outside the library.

A span is ``[span_id, parent_id, name, start, end]``. Spans are recorded by
replacing a function at the attribute its caller looks it up through (a
module global, a module attribute or a class attribute), so nothing in
``src/`` is edited. Spans nest by call order in the one benchmark thread,
so the open span is the parent of the next one started.
"""

from __future__ import annotations

import time
from collections import Counter


class Patches:
    """Attribute replacements that are undone in reverse order."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr, make_wrapper):
        """Set ``owner.attr`` to ``make_wrapper(current callable)``.

        Class attributes are read through ``getattr`` so a classmethod is
        wrapped already bound, and restored from the class ``__dict__`` so
        the descriptor itself comes back.
        """
        raw = vars(owner)[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._saved.append((owner, attr, raw))
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))

    def restore(self):
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)


class Tracer:
    """Records a span per wrapped call and named counts taken from its arguments."""

    def __init__(self, clock=time.perf_counter):
        self.spans = []
        self.counts = Counter()
        self.patches = Patches()
        self._open = []
        self._clock = clock

    def wrap(self, fn, name, count=None):
        """``count`` is ``(counter_name, f(args, kwargs, result) -> int)`` or None."""

        def traced(*args, **kwargs):
            span = [len(self.spans), self._open[-1] if self._open else None, name, self._clock(), None]
            self.spans.append(span)
            self._open.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = self._clock()
                self._open.pop()
            if count is not None:
                self.counts[count[0]] += count[1](args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr, name, count=None):
        self.patches.replace(owner, attr, lambda fn: self.wrap(fn, name, count))

    def restore(self):
        self.patches.restore()


def covered(intervals, start, end):
    """Length of [start, end] covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def summarize(spans):
    """Per span name: ``[calls, total time, self time]``.

    Self time is a span's duration minus the part of it that its child
    spans cover. Totals of a name that nests inside itself would count the
    inner calls twice; no traced name does.
    """
    children = {}
    for _, parent, _, start, end in spans:
        if parent is not None:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for span_id, _, name, start, end in spans:
        row = out.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += (end - start) - covered(children.get(span_id, ()), start, end)
    return out
