"""In-memory span recorder for the benchmark's traced runs.

Spans are recorded around calls into lcsmooth's public functions by
replacing the attribute the caller looks up (``lcsmooth.solver.process_weight``
rather than ``lcsmooth.wnoa.process_weight``), so the program itself is not
modified.  Every patch is undone by :meth:`Tracer.restore`.  A disabled
tracer installs nothing and its spans cost one branch.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, enabled=True):
        self.enabled = enabled
        self.spans = []  # [id, name, start, end, parent]
        self.counts = defaultdict(float)
        self._stack = []
        self._patches = []
        self._paused = False

    @contextmanager
    def span(self, name):
        if not self.enabled or self._paused:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, name, time.perf_counter(), None, parent])
        self._stack.append(sid)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[sid][3] = time.perf_counter()

    @contextmanager
    def paused(self):
        """Run a block untraced: no spans or counts inside it.

        The block itself is recorded as one ``bench.untraced`` span, so its
        time is not taken for the enclosing span's own work.
        """
        with self.span("bench.untraced"):
            before, self._paused = self._paused, True
            try:
                yield
            finally:
                self._paused = before

    def count(self, name, amount=1):
        if not self._paused:
            self.counts[name] += amount

    def _patch(self, owner, attr, wrapper, original):
        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def wrap(self, owner, attr, name, on_call=None):
        """Replace ``owner.attr`` by a wrapper that records a span ``name``.

        ``on_call(tracer, result, args, kwargs)`` runs after each call that
        returns, to update counters from the call's inputs or outputs.
        """
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            if self._paused:
                return original(*args, **kwargs)
            with self.span(name):
                result = original(*args, **kwargs)
            if on_call is not None:
                on_call(self, result, args, kwargs)
            return result

        self._patch(owner, attr, wrapper, original)

    def counter(self, owner, attr, name):
        """Count calls to ``owner.attr`` without a span (for hot inner calls)."""
        original = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            self.count(name)
            return original(*args, **kwargs)

        self._patch(owner, attr, wrapper, original)

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """Self seconds keyed by (outermost span name, span name).

        A span's self time is its duration minus its children's.
        """
        child = defaultdict(float)
        root = {}
        for sid, name, start, end, parent in self.spans:
            root[sid] = name if parent is None else root[parent]
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(float)
        for sid, name, start, end, _ in self.spans:
            out[root[sid], name] += (end - start) - child[sid]
        return dict(out)

    def durations(self, name):
        """Durations of the spans called ``name``, in the order they started."""
        return [end - start for _, n, start, end, _ in self.spans if n == name]

    def write(self, path):
        doc = {
            "spans": [
                {"id": s, "name": n, "start": a, "end": b, "parent": p}
                for s, n, a, b, p in self.spans
            ],
            "counts": dict(self.counts),
        }
        with open(path, "w") as f:
            json.dump(doc, f)
