"""Spans around the benchmark's own calls into each library layer.

A span is (id, parent id, name, tag, start, end); its layer is the part of
the name before the first dot, so "qpoly.eval_at_root" belongs to qpoly.
Spans are kept in memory and written once, when the run ends.  A disabled
tracer hands out one shared no-op context, so untraced passes pay only a
method call per span site.

Calls the library makes internally are recorded by `library_calls`, a
sys.setprofile hook that opens a span for each call to a watched function
and closes it on return.  The hook runs on every call the thread makes, so
the spans it times carry its own cost: compare them only with traced
figures.
"""

import json
import sys
from contextlib import contextmanager, nullcontext
from pathlib import Path
from time import perf_counter

LAYERS = ("poset", "ideals", "tableaux", "qpoly", "orbits", "cli")
FIELDS = ("id", "parent", "name", "tag", "start", "end")

_OFF = nullcontext()


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer: "Tracer", name: str, tag):
        self.tracer = tracer
        parent = tracer.open_ids[-1] if tracer.open_ids else None
        self.record = [len(tracer.spans), parent, name, tag, 0.0, 0.0]

    def __enter__(self):
        self.tracer.spans.append(self.record)
        self.tracer.open_ids.append(self.record[0])
        self.record[4] = perf_counter()
        return self.record

    def __exit__(self, *exc_info):
        self.record[5] = perf_counter()
        self.tracer.open_ids.pop()
        return False


class Tracer:
    """Span recorder for one run; `enabled` is switched per pass."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.enabled = False
        self.spans: list[list] = []
        self.open_ids: list[int] = []

    def span(self, name: str, tag=None):
        if not self.enabled:
            return _OFF
        return _Span(self, name, tag)

    def library_calls(self, watched: dict):
        """Record a span for every call to a watched function made inside the block.

        `watched` maps a function's code object to (span name, argument
        names); the span's tag is the tuple of those arguments.  The library
        is observed through sys.setprofile, not patched.
        """
        if not self.enabled:
            return _OFF
        return self._profiled(watched)

    @contextmanager
    def _profiled(self, watched: dict):
        spans, open_ids = self.spans, self.open_ids

        def hook(frame, event, arg):
            if event == "call":
                entry = watched.get(frame.f_code)
                if entry is not None:
                    name, argnames = entry
                    tag = tuple(frame.f_locals[a] for a in argnames) if argnames else None
                    record = [len(spans), open_ids[-1] if open_ids else None, name, tag, 0.0, 0.0]
                    spans.append(record)
                    open_ids.append(record[0])
                    record[4] = perf_counter()
            elif event == "return" and frame.f_code in watched:
                spans[open_ids.pop()][5] = perf_counter()

        sys.setprofile(hook)
        try:
            yield
        finally:
            sys.setprofile(None)

    def durations(self, name: str) -> list[float]:
        """Durations of the spans with this name."""
        return [s[5] - s[4] for s in self.spans if s[2] == name]

    def layer_totals(self) -> dict[str, tuple[float, int]]:
        """Per layer: self time (span time not covered by child spans) and span count."""
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[1] is not None:
                covered[s[1]] += s[5] - s[4]
        totals = {layer: [0.0, 0] for layer in LAYERS}
        for s, child in zip(self.spans, covered):
            entry = totals.get(s[2].split(".", 1)[0])
            if entry is not None:
                entry[0] += s[5] - s[4] - child
                entry[1] += 1
        return {layer: (busy, calls) for layer, (busy, calls) in totals.items()}

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {"run_id": self.run_id, "meta": meta, "fields": FIELDS, "spans": self.spans}
        path.write_text(json.dumps(payload, separators=(",", ":")) + "\n")
