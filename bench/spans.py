"""Span recorder for the traced benchmark run.

Spans are recorded from outside the package, around calls into its public
functions, and held in memory until the run ends.  Each span has a name, a
start and an end (``perf_counter`` seconds), its parent span and the cell
it belongs to.

A public function that hides its stages (``build_cmc1``, the convergence
studies, ...) is timed as one *composite* span.  Its hidden stages are then
called again on the same inputs, each in a span marked ``stands_in`` for the
composite.  The composite's self time is its duration minus its children
and minus its stand-ins: the *derived* remainder, i.e. the work that no
public function exposes.  Other spans' self time is their duration minus
the time their children cover.
"""

from __future__ import annotations

import statistics
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.cell: str | None = None
        self.worst_values: dict[str, float] = {}
        self.counts: dict[str, float] = {}
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str, stands_in: dict | None = None, stand_ins=()):
        """Time the body as span ``name``.

        ``stands_in`` is the composite span whose hidden stage this call
        repeats; ``stand_ins`` are spans already recorded that repeat hidden
        stages of this (composite) span.
        """
        rec = {
            "id": len(self.spans),
            "name": name,
            "cell": self.cell,
            "parent": self._open[-1] if self._open else None,
            "stands_in": stands_in["id"] if stands_in is not None else None,
            "start": perf_counter(),
            "end": None,
        }
        for other in stand_ins:
            other["stands_in"] = rec["id"]
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._open.pop()

    def worst(self, name: str, value: float, higher_is_worse: bool = True):
        """Keep the worst value seen for ``name`` (a residual or an order)."""
        pick = max if higher_is_worse else min
        value = float(value)
        self.worst_values[name] = pick(self.worst_values.get(name, value), value)

    def count(self, name: str, value: float):
        self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> dict[str, dict]:
        """Per span name: call count, median and total self time (ms)."""
        covered = [0.0] * len(self.spans)
        derived = [False] * len(self.spans)
        for rec in self.spans:
            dur = rec["end"] - rec["start"]
            if rec["parent"] is not None:
                covered[rec["parent"]] += dur
            if rec["stands_in"] is not None:
                covered[rec["stands_in"]] += dur
                derived[rec["stands_in"]] = True
        per_name: dict[str, list] = {}
        derived_names = set()
        for rec, cov, der in zip(self.spans, covered, derived):
            per_name.setdefault(rec["name"], []).append(
                1e3 * (rec["end"] - rec["start"] - cov)
            )
            if der:
                derived_names.add(rec["name"])
        return {
            name: {
                "calls": len(vals),
                "median_ms": statistics.median(vals),
                "total_ms": sum(vals),
                "derived": name in derived_names,
            }
            for name, vals in sorted(per_name.items())
        }


def format_table(table: dict[str, dict]) -> str:
    """Self-time table as aligned text, one stage per line."""
    lines = [f"{'stage':28s} {'calls':>7s} {'median ms':>11s} {'total ms':>11s}"]
    for name, row in table.items():
        mark = " (derived)" if row["derived"] else ""
        lines.append(
            f"{name:28s} {row['calls']:7d} {row['median_ms']:11.4f} "
            f"{row['total_ms']:11.2f}{mark}"
        )
    return "\n".join(lines)
