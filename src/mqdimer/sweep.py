"""Sweeps over the dimensionless time with CSV and SVG emission.

The CSV schema is fixed: header "tau_bar,g0,g2,gm2,j2,concurrence,discord",
one row per uniformly spaced tau_bar, unrequested columns left empty.
Floats are written with repr, i.e. the shortest decimal that round-trips,
so identical configurations produce byte-identical files.

Both writers format whole blocks of _BLOCK_ROWS rows with one %-operation
on a repeated line template: CSV cells are %r (repr), SVG polyline points
are %.2f of the pixel coordinates, computed as arrays with the same
floating-point expressions the axis ticks use. No Python code runs once
per row or per point, and the block size bounds the temporary tuples.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .coherence import analytic_intensities
from .dimer import TAU_BAR_LIMIT, DimerParams, evolve_analytic
from .correlations import discord
from .entanglement import concurrence_analytic
from .errors import BadSubsystemId, InvalidConfig, InvalidParams
from .linalg import _spin_label

CSV_COLUMNS = ("tau_bar", "g0", "g2", "gm2", "j2", "concurrence", "discord")
CSV_HEADER = ",".join(CSV_COLUMNS)
QUANTITIES = ("g0", "j2", "concurrence", "discord")
MAX_POINTS = 10**6
_BLOCK_ROWS = 4096
SVG_WIDTH, SVG_HEIGHT = 880, 560

_SVG_COLORS = {
    "g0": "#1f77b4",
    "j2": "#d62728",
    "concurrence": "#2ca02c",
    "discord": "#9467bd",
}


@dataclass(frozen=True)
class SweepConfig:
    """One sweep: physical parameters, tau_bar range, requested quantities, output."""

    alpha: complex = 1.0 + 0j
    beta: complex = 0j
    b: float = 10.0
    tau_bar_start: float = 0.0
    tau_bar_end: float = math.pi
    points: int = 201
    quantities: tuple[str, ...] = ("g0", "j2", "concurrence")
    measured_subsystem: int = 2
    output_path: str = "sweep.csv"
    format: str = "csv"
    renormalize: bool = False

    def check(self) -> None:
        if not _is_int(self.points) or self.points < 2:
            raise InvalidConfig(f"points must be an integer >= 2, got {self.points!r}")
        if self.points > MAX_POINTS:
            raise InvalidConfig(f"points must be <= {MAX_POINTS}, got {self.points}")
        ends = (self.tau_bar_start, self.tau_bar_end)
        if not all(isinstance(t, numbers.Real) and not isinstance(t, bool)
                   and abs(t) < TAU_BAR_LIMIT for t in ends):
            raise InvalidConfig(f"tau_bar range must be two numbers of size < 2**1023, got {ends!r}")
        if not self.tau_bar_end > self.tau_bar_start:
            raise InvalidConfig(
                f"degenerate range: tau_bar_end {self.tau_bar_end!r} must exceed "
                f"tau_bar_start {self.tau_bar_start!r}"
            )
        if not isinstance(self.quantities, (tuple, list, set, frozenset)) or not self.quantities:
            raise InvalidConfig(f"quantities must name at least one quantity, got {self.quantities!r}")
        unknown = [q for q in self.quantities if q not in QUANTITIES]
        if unknown:
            raise InvalidConfig(f"unknown quantities {unknown}; choose from {QUANTITIES}")
        try:
            _spin_label(self.measured_subsystem)
        except BadSubsystemId as exc:
            raise InvalidConfig(str(exc)) from exc
        if self.format not in ("csv", "svg", "both"):
            raise InvalidConfig(f"format must be csv, svg, or both, got {self.format!r}")
        if not isinstance(self.renormalize, bool):
            raise InvalidConfig(f"renormalize must be true or false, got {self.renormalize!r}")
        if not _names_a_file(self.output_path):
            raise InvalidConfig(f"output_path must be a string naming a file, got {self.output_path!r}")

    def params(self) -> DimerParams:
        make = DimerParams.normalized if self.renormalize else DimerParams
        try:
            return make(self.alpha, self.beta, self.b)
        except InvalidParams as exc:
            raise InvalidConfig(str(exc)) from exc


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def _names_a_file(path) -> bool:
    # a str with a last component ("", "." and "/" have none) that the file
    # system can take: no NUL, no surrogate outside surrogateescape's range
    try:
        return isinstance(path, str) and bool(Path(path).name) and b"\0" not in os.fsencode(path)
    except UnicodeEncodeError:
        return False


def run_sweep(cfg: SweepConfig) -> list[Path]:
    """Compute the requested columns and write CSV and/or SVG; returns paths."""
    cfg.check()
    p = cfg.params()
    taus = np.linspace(cfg.tau_bar_start, cfg.tau_bar_end, cfg.points)
    want = set(cfg.quantities)

    columns: dict[str, np.ndarray] = {}
    if want & {"g0", "j2"}:
        prof = analytic_intensities(p, tau_bar=taus)
        if "g0" in want:
            columns["g0"] = prof.g0
        if "j2" in want:
            columns.update(g2=prof.g_plus2, gm2=prof.g_minus2, j2=prof.j2)
    if "concurrence" in want:
        columns["concurrence"] = concurrence_analytic(p, tau_bar=taus)
    if "discord" in want:
        columns["discord"] = np.array([discord(evolve_analytic(p, tau_bar=tb),
                                               cfg.measured_subsystem).q for tb in taus.tolist()])

    base = Path(cfg.output_path)
    written: list[Path] = []
    if cfg.format in ("csv", "both"):
        csv_path = base.with_suffix(".csv")
        write_csv(csv_path, taus, columns)
        written.append(csv_path)
    if cfg.format in ("svg", "both"):
        svg_path = base.with_suffix(".svg")
        write_svg(svg_path, taus, {q: columns[q] for q in QUANTITIES if q in columns})
        written.append(svg_path)
    return written


def write_csv(path, taus, columns: dict) -> None:
    """Write the CSV in blocks of rows; a None or missing column stays empty."""
    cols = [taus, *map(columns.get, CSV_COLUMNS[1:])]
    line = ",".join("" if col is None else "%r" for col in cols) + "\n"
    table = np.column_stack([np.asarray(col, dtype=float) for col in cols if col is not None])
    with open(path, "w", encoding="ascii") as handle:
        handle.write(CSV_HEADER + "\n")
        handle.writelines(_format_rows(line, table))


def _format_rows(line: str, table: np.ndarray):
    """Yield the rows of a 2-D float table, each as line % row, one string per block."""
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS]
        yield line * len(block) % tuple(block.ravel().tolist())


def read_csv(path) -> dict[str, np.ndarray | None]:
    """Read a sweep CSV back into arrays; absent columns come back as None."""
    lines = Path(path).read_text(encoding="ascii").splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise InvalidConfig(f"unexpected CSV header in {path}")
    try:
        cols = list(zip(*(line.split(",") for line in lines[1:]), strict=True))
    except ValueError:
        raise InvalidConfig(f"ragged rows in {path}") from None
    cols = cols or [()] * len(CSV_COLUMNS)
    if len(cols) != len(CSV_COLUMNS):
        raise InvalidConfig(f"rows of {len(cols)} cells in {path}, expected {len(CSV_COLUMNS)}")
    out: dict[str, np.ndarray | None] = {}
    for name, col in zip(CSV_COLUMNS, cols):
        try:
            out[name] = None if "" in col else np.array(col, dtype=float)
        except ValueError:
            raise InvalidConfig(f"non-numeric cell in column {name} of {path}") from None
    return out


def write_svg(path, taus, series: dict[str, np.ndarray]) -> None:
    """Minimal static line plot: axes, ticks, one polyline per series, legend."""
    ml, mr, mt, mb = 72, 18, 18, 56
    plot_w, plot_h = SVG_WIDTH - ml - mr, SVG_HEIGHT - mt - mb
    taus = np.asarray(taus, dtype=float)
    x_lo, x_hi = float(taus[0]), float(taus[-1])

    if series:
        y_lo = min(0.0, min(float(np.min(v)) for v in series.values()))
        y_hi = max(float(np.max(v)) for v in series.values())
    else:
        y_lo, y_hi = 0.0, 1.0
    if y_hi - y_lo < 1e-12:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return mt + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
        f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">',
        f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>',
        f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="#444444" stroke-width="1"/>',
    ]
    for xv in np.linspace(x_lo, x_hi, 6):
        xpx = sx(xv)
        parts.append(
            f'<line x1="{xpx:.2f}" y1="{mt + plot_h}" x2="{xpx:.2f}" '
            f'y2="{mt + plot_h + 5}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{xpx:.2f}" y="{mt + plot_h + 20}" font-size="12" '
            f'text-anchor="middle" font-family="sans-serif">{xv:.4g}</text>'
        )
    for yv in np.linspace(y_lo, y_hi, 6):
        ypx = sy(yv)
        parts.append(
            f'<line x1="{ml - 5}" y1="{ypx:.2f}" x2="{ml}" y2="{ypx:.2f}" stroke="#444444"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{ypx:.2f}" font-size="12" text-anchor="end" '
            f'dominant-baseline="middle" font-family="sans-serif">{yv:.4g}</text>'
        )
    parts.append(
        f'<text x="{ml + plot_w / 2:.2f}" y="{SVG_HEIGHT - 14}" font-size="13" '
        f'text-anchor="middle" font-family="sans-serif">tau_bar</text>'
    )

    xs = sx(taus)
    for idx, (name, values) in enumerate(series.items()):
        color = _SVG_COLORS.get(name, "#333333")
        xy = np.column_stack((xs, sy(np.asarray(values, dtype=float))))
        pts = "".join(_format_rows("%.2f,%.2f ", xy))[:-1]
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.5"/>')
        ly = mt + 16 + 18 * idx
        parts.append(
            f'<line x1="{ml + plot_w - 130}" y1="{ly}" x2="{ml + plot_w - 105}" '
            f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{ml + plot_w - 100}" y="{ly + 4}" font-size="12" '
            f'font-family="sans-serif">{name}</text>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="ascii")
