"""In-memory spans around the benchmark's calls into mqdimer, and their aggregation.

A span is (name, start, end, parent, op_id, calls, rows). Names are
"<layer>.<function>" for calls an op makes and "replay:<layer>.<function>"
for calls the traced run repeats outside the op to split its cost. A span
with calls=K covers K back-to-back calls of a fast function, so the cost of
recording the span is spread over K calls. A span with rows=N covers one
call that wrote N sweep rows; its per-call metric is per row.
"""

from __future__ import annotations

import statistics
from contextlib import nullcontext
from time import perf_counter

LAYERS = ("init", "dimer", "coherence", "entanglement", "discord", "linalg", "sweep", "cli")


class _Span:
    __slots__ = ("tracer", "record")

    def __init__(self, tracer, record):
        self.tracer = tracer
        self.record = record

    def __enter__(self):
        self.tracer._stack.append(self.record["id"])
        self.record["start"] = perf_counter()
        return self.record

    def __exit__(self, *exc):
        self.record["end"] = perf_counter()
        self.tracer._stack.pop()
        return False


class Tracer:
    """Records spans in memory; `spans` is written out when the run ends."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id: int | None = None

    def span(self, name: str, calls: int = 1, rows: int | None = None):
        record = {
            "id": len(self.spans),
            "name": name,
            "start": None,
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "op": self.op_id,
            "calls": calls,
            "rows": rows,
        }
        self.spans.append(record)
        return _Span(self, record)

    def add(self, name: str, seconds: float) -> None:
        """Record a span measured elsewhere, such as inside a child process."""
        self.spans.append({
            "id": len(self.spans), "name": name, "start": 0.0, "end": seconds,
            "parent": None, "op": None, "calls": 1, "rows": None,
        })

    def names(self) -> set[str]:
        return {s["name"] for s in self.spans}


class NullTracer:
    """Tracing off: spans cost one context-manager entry and record nothing."""

    op_id = None

    def span(self, name: str, calls: int = 1, rows: int | None = None):
        return nullcontext()


def _layer(name: str) -> str:
    return name.split(":")[-1].split(".")[0]


#: per-call (or per-row) metric -> (span name, scale from seconds, unit)
PER_CALL = {
    "discord.discord_ms": ("discord.discord", 1e3, "ms"),
    "discord.minimize_ms": ("replay:discord.minimize_conditional_entropy", 1e3, "ms"),
    "discord.grid_ms": ("replay:discord.conditional_entropy_many[grid]", 1e3, "ms"),
    "discord.kernel_1dir_us": ("replay:discord.conditional_entropy_many[1]", 1e6, "us"),
    "discord.mutual_information_us": ("replay:discord.mutual_information", 1e6, "us"),
    "linalg.von_neumann_entropy_us": ("replay:linalg.von_neumann_entropy", 1e6, "us"),
    "dimer.require_state_us": ("replay:dimer.require_state", 1e6, "us"),
    "dimer.evolve_analytic_us": ("replay:dimer.evolve_analytic", 1e6, "us"),
    "entanglement.concurrence_numeric_us": ("replay:entanglement.concurrence_numeric", 1e6, "us"),
    "coherence.analytic_intensities_us": ("replay:coherence.analytic_intensities", 1e6, "us"),
    "entanglement.concurrence_analytic_us": ("replay:entanglement.concurrence_analytic", 1e6, "us"),
    "sweep.run_sweep_us_per_row": ("sweep.run_sweep", 1e6, "us"),
    "sweep.write_csv_us_per_row": ("replay:sweep.write_csv", 1e6, "us"),
    "sweep.write_svg_us_per_row": ("replay:sweep.write_svg", 1e6, "us"),
    "init.import_s": ("init.import", 1.0, "s"),
    "init.numpy_import_s": ("init.numpy_import", 1.0, "s"),
    "init.python_start_s": ("init.python_start", 1.0, "s"),
    "cli.main_ms": ("replay:cli.main", 1e3, "ms"),
}


def per_layer_metrics(tracer: Tracer, overhead: float) -> tuple[dict, dict]:
    """Per-layer calls and busy time, per-call medians and the tracing overhead,
    plus the number of spans behind each median."""
    per_call: dict[str, list[float]] = {}
    calls = dict.fromkeys(LAYERS, 0)
    busy = dict.fromkeys(LAYERS, 0.0)
    for s in tracer.spans:
        duration = s["end"] - s["start"]
        per_call.setdefault(s["name"], []).append(duration / (s["rows"] or s["calls"]))
        layer = _layer(s["name"])
        if layer in calls:
            calls[layer] += s["calls"]
            busy[layer] += duration
    out = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = {"value": calls[layer], "unit": "count"}
        out[f"{layer}.busy_s"] = {"value": busy[layer], "unit": "s"}
    for metric, (span, scale, unit) in PER_CALL.items():
        out[metric] = {"value": statistics.median(per_call[span]) * scale, "unit": unit}
    out["discord.refine_share"] = {
        "value": 1.0 - out["discord.grid_ms"]["value"] / out["discord.minimize_ms"]["value"],
        "unit": "ratio",
    }
    out["trace.overhead"] = {"value": overhead, "unit": "ratio"}
    return out, {metric: len(per_call[span]) for metric, (span, _, _) in PER_CALL.items()}
