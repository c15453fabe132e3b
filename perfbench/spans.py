"""In-memory span recorder for the benchmark's traced runs.

A span is one call into a public function of the package (or one benchmark
phase around such calls): its name, start and end on the monotonic clock,
the span that was open when it began, and the run it belongs to.  Spans stay
in memory while the run measures and are written out once, at the end.
"""

from __future__ import annotations

import functools
import json
import time
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._open: list[dict] = []

    @contextmanager
    def span(self, name: str):
        """Record the enclosed block as one span; yields its record for extra fields."""
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1]["id"] if self._open else None,
            "run": self.run_id,
        }
        self.spans.append(rec)
        self._open.append(rec)
        rec["start_ns"] = time.perf_counter_ns()
        try:
            yield rec
        except Exception as exc:
            rec["error"] = type(exc).__name__
            raise
        finally:
            rec["end_ns"] = time.perf_counter_ns()
            self._open.pop()

    def wrap(self, layer: str, fn, describe=None):
        """``fn`` recorded as span ``<layer>.<name>``.

        ``describe(args, result)`` returns fields to store on the span, such
        as the unit count the per-unit metrics divide by; it runs after the
        end time is taken, so it costs the span nothing.
        """
        name = f"{layer}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args):
            with self.span(name) as rec:
                result = fn(*args)
            if describe is not None:
                rec.update(describe(args, result))
            return result

        return traced

    def finished(self, name: str) -> list[dict]:
        """Spans called ``name`` that returned normally."""
        return [s for s in self.spans if s["name"] == name and "error" not in s]

    def write(self, path) -> None:
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def duration_ns(span: dict) -> int:
    return span["end_ns"] - span["start_ns"]
