"""In-memory spans around the benchmark's calls into the qsteiner modules.

A span records name, start, end, parent span and run id, plus the CPU
time of the call and the process's peak resident set size (ru_maxrss)
right after it.  Spans stay in memory and are written once, when the run
ends.  A disabled tracer runs the wrapped calls and records nothing, so
the untraced runs that give the end-to-end numbers pay no bookkeeping.
"""

from __future__ import annotations

import json
import resource
import time
from contextlib import contextmanager


def maxrss_mb() -> float:
    """Peak resident set size of this process so far, in MiB (Linux KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unit_of(name: str) -> str:
    """Unit of a metric, from the suffix convention of its name."""
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_s"):
        return "s"
    return "count"


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, float] = {}
        self.overhead_s = 0.0
        self._stack: list[int] = []
        self._origin = time.perf_counter()

    @contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        entered = time.perf_counter()
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._stack[-1] if self._stack else None,
            "run_id": self.run_id,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        cpu0 = time.process_time()
        start = time.perf_counter()
        self.overhead_s += start - entered
        try:
            yield
        finally:
            end = time.perf_counter()
            rec["start"] = start - self._origin
            rec["end"] = end - self._origin
            rec["cpu_s"] = time.process_time() - cpu0
            rec["maxrss_mb"] = maxrss_mb()
            self._stack.pop()
            self.overhead_s += time.perf_counter() - end

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span called name."""
        with self.span(name):
            return fn(*args, **kwargs)

    def count(self, name: str, value: float) -> None:
        """Record a count at the boundary where the work happened."""
        if self.enabled:
            self.counts[name] = self.counts.get(name, 0) + value

    def self_times(self) -> dict[int, float]:
        """Span id -> duration minus the time its direct children cover.

        Children of one span run one after another, so their union is the
        sum of their durations.
        """
        child_time = {rec["id"]: 0.0 for rec in self.spans}
        for rec in self.spans:
            if rec["parent"] is not None:
                child_time[rec["parent"]] += rec["end"] - rec["start"]
        return {
            rec["id"]: rec["end"] - rec["start"] - child_time[rec["id"]]
            for rec in self.spans
        }

    def call_metrics(self) -> dict[str, float]:
        """Per span name: `<name>_s`, `<name>.cpu_s`, `<name>.maxrss_mb`.

        Time and CPU are summed over every finished call with that name;
        maxrss is the highest reading taken right after one of them.
        """
        out: dict[str, float] = {}
        for rec in self.spans:
            if "end" not in rec:
                continue
            name = rec["name"]
            out[f"{name}_s"] = out.get(f"{name}_s", 0.0) + rec["end"] - rec["start"]
            out[f"{name}.cpu_s"] = out.get(f"{name}.cpu_s", 0.0) + rec["cpu_s"]
            out[f"{name}.maxrss_mb"] = max(
                out.get(f"{name}.maxrss_mb", 0.0), rec["maxrss_mb"]
            )
        return out

    def peak_setter(self) -> tuple[str, float] | None:
        """The innermost call during which ru_maxrss first reached its peak."""
        if not self.spans:
            return None
        peak = max(rec["maxrss_mb"] for rec in self.spans)
        closed = sorted(self.spans, key=lambda rec: rec["end"])
        first = next(rec for rec in closed if rec["maxrss_mb"] >= peak)
        return first["name"], peak

    def write(self, path: str, meta: dict) -> None:
        selfs = self.self_times()
        spans = [dict(rec, self_s=selfs[rec["id"]]) for rec in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dict(meta, run_id=self.run_id, spans=spans), fh, indent=1)
            fh.write("\n")
