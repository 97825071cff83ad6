"""Sweeps over the dimensionless time with CSV and SVG emission.

The CSV schema is fixed: header "tau_bar,g0,g2,gm2,j2,concurrence,discord",
one row per uniformly spaced tau_bar, unrequested columns left empty.
Floats are written with repr, i.e. the shortest decimal that round-trips,
so identical configurations produce byte-identical files.

run_sweep computes and writes one block of _BLOCK_ROWS rows at a time: it
evaluates the requested closed forms (discord_curve's among them) on the
block's slice of tau_bar, formats the block and writes it, so no requested
column exists whole and tau_bar is the only array of 8 B per row. The SVG's
y range is the blocks' minima and maxima, taken during the CSV pass (in a
pass of its own for an SVG alone); each polyline is then written block by
block, its closed form evaluated again (~0.2 us per row, against ~6 us to
format the row). A 1e6-row sweep of all four quantities in both formats
peaks ~11 MB above `state`'s ~31 MB.

Each block is formatted by one %-operation on a repeated line template (CSV
cells are %r, i.e. repr; SVG polyline points are %.2f of the pixel
coordinates, computed from that block's slices with the same floating-point
expressions the axis ticks use), so no Python code runs once per row or per
point. write_csv and write_svg feed their arrays, one block slice at a
time, to the same block writers. A column whose shape is not that of
tau_bar raises InvalidConfig before the file is opened, as does an SVG of
fewer than two rows or of equal first and last tau_bar, whose x axis has no
length.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .coherence import analytic_intensities
from .dimer import DimerParams, param_tau_bar
from .entanglement import concurrence_analytic, discord_curve
from .errors import InvalidConfig, InvalidParams
from .linalg import _integer, _spin_label, finite_array

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

    def check(self) -> tuple[float, float]:
        """InvalidConfig for a bad field; else the tau_bar range ends as Python floats."""
        _integer(self.points, range(2, MAX_POINTS + 1), "points", InvalidConfig)
        ends = []
        for field in ("tau_bar_start", "tau_bar_end"):
            try:
                ends.append(param_tau_bar(None, None, getattr(self, field), "each tau_bar range end"))
            except InvalidParams as exc:
                raise InvalidConfig(f"{field}: {exc}") from exc
        start, end = ends
        if not end > start:
            raise InvalidConfig(
                f"degenerate range: tau_bar_end {self.tau_bar_end!r} must exceed "
                f"tau_bar_start {self.tau_bar_start!r}"
            )
        if not isinstance(self.quantities, (tuple, list, set, frozenset)) or not self.quantities:
            raise InvalidConfig(f"quantities must name at least one quantity, got {self.quantities!r}")
        unknown = [q for q in self.quantities if q not in QUANTITIES]
        if unknown:
            raise InvalidConfig(f"unknown quantities {unknown}; choose from {QUANTITIES}")
        _spin_label(self.measured_subsystem, "measured_subsystem", InvalidConfig)
        if self.format not in ("csv", "svg", "both"):
            raise InvalidConfig(f"format must be csv, svg, or both, got {self.format!r}")
        if not isinstance(self.renormalize, bool):
            raise InvalidConfig(f"renormalize must be true or false, got {self.renormalize!r}")
        if not _names_a_file(self.output_path):
            raise InvalidConfig(f"output_path must be a string naming a file, got {self.output_path!r}")
        return start, end

    def params(self) -> DimerParams:
        make = DimerParams.normalized if self.renormalize else DimerParams
        try:
            return make(self.alpha, self.beta, self.b)
        except InvalidParams as exc:
            raise InvalidConfig(str(exc)) from exc


def _names_a_file(path) -> bool:
    # a str with a last component ("", "." and "/" have none) that the file
    # system can take: no NUL, no surrogate outside surrogateescape's range
    try:
        return isinstance(path, str) and bool(Path(path).name) and b"\0" not in os.fsencode(path)
    except UnicodeEncodeError:
        return False


def run_sweep(cfg: SweepConfig) -> list[Path]:
    """Compute the requested columns and write CSV and/or SVG, one block of rows at a
    time; returns paths."""
    start, end = cfg.check()
    p = cfg.params()
    taus = np.linspace(start, end, cfg.points)
    want = set(cfg.quantities)
    series = [q for q in QUANTITIES if q in want]

    def columns(rows: slice, quantities: set) -> dict[str, np.ndarray]:
        """The CSV columns of `quantities` on one block of rows."""
        t = taus[rows]
        cols = {}
        if quantities & {"g0", "j2"}:
            prof = analytic_intensities(p, tau_bar=t)
            if "g0" in quantities:
                cols["g0"] = prof.g0
            if "j2" in quantities:
                cols.update(g2=prof.g_plus2, gm2=prof.g_minus2, j2=prof.j2)
        if "concurrence" in quantities:
            cols["concurrence"] = concurrence_analytic(p, tau_bar=t)
        if "discord" in quantities:
            cols["discord"] = discord_curve(p, tau_bar=t, measured=cfg.measured_subsystem)
        return cols

    extents = []  # (min, max) of each series on each block, for the SVG's y range

    def blocks():
        for rows in _row_blocks(len(taus)):
            cols = columns(rows, want)
            extents.extend(_extent(cols[q]) for q in series)
            yield {"tau_bar": taus[rows], **cols}

    base = Path(cfg.output_path)
    written: list[Path] = []
    if cfg.format in ("csv", "both"):
        csv_path = base.with_suffix(".csv")
        _write_csv(csv_path, blocks())
        written.append(csv_path)
    if cfg.format in ("svg", "both"):
        if cfg.format == "svg":  # the y range needs every block before the first polyline
            for _ in blocks():
                pass
        svg_path = base.with_suffix(".svg")
        _write_svg(svg_path, taus, extents,
                   {q: lambda rows, q=q: columns(rows, {q})[q] for q in series})
        written.append(svg_path)
    return written


def write_csv(path, taus, columns: dict) -> None:
    """Write the CSV in blocks of rows; a None or missing column stays empty."""
    taus, cols = _float_columns(taus, {name: columns.get(name) for name in CSV_COLUMNS[1:]})
    filled = {"tau_bar": taus, **{name: col for name, col in cols.items() if col is not None}}
    _write_csv(path, ({name: col[rows] for name, col in filled.items()}
                      for rows in _row_blocks(len(taus))))


def _write_csv(path, blocks) -> None:
    """Write the header, then each block of rows: a dict of equal-length column slices
    keyed by the CSV columns it fills, the same keys in every block."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(CSV_HEADER + "\n")
        for cols in blocks:
            line = ",".join("%r" if name in cols else "" for name in CSV_COLUMNS) + "\n"
            handle.write(_format_block(line, [cols[name] for name in CSV_COLUMNS if name in cols]))


def _float_columns(taus, columns: dict) -> tuple[np.ndarray, dict]:
    """taus and each column as float arrays, None kept; InvalidConfig, naming the column,
    for one whose shape is not that of taus, so a writer never opens its file for it."""
    taus = np.asarray(taus, dtype=float)
    cols = {name: None if col is None else np.asarray(col, dtype=float)
            for name, col in columns.items()}
    for name, col in cols.items():
        if col is not None and col.shape != taus.shape:
            raise InvalidConfig(f"column {name} has shape {col.shape}, "
                                f"tau_bar has shape {taus.shape}")
    return taus, cols


def _row_blocks(n: int):
    """Slices of at most _BLOCK_ROWS rows covering rows 0..n-1 in order."""
    return (slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS))


def _format_block(line: str, cols: list[np.ndarray]) -> str:
    """line % row for each row of one block's equal-length 1-D column slices."""
    block = np.column_stack(cols)
    return line * len(block) % tuple(block.ravel().tolist())


def read_csv(path) -> dict[str, np.ndarray | None]:
    """A sweep CSV's columns as arrays, absent ones as None; InvalidConfig for a non-finite cell.

    A first pass counts the rows, so each column is allocated once at its length; the
    second reads _BLOCK_ROWS lines at a time and converts each block's cells with one
    np.array call per column, so beyond the columns it holds one block of text. A column
    with an empty cell in any row reads as None."""
    with open(path, encoding="ascii", newline="") as handle:
        # lines broken where str.splitlines breaks them, as when the text was read whole
        count = sum(map(len, map(str.splitlines, handle))) - 1
        handle.seek(0)
        lines = chain.from_iterable(map(str.splitlines, handle))
        if next(lines, None) != CSV_HEADER:
            raise InvalidConfig(f"unexpected CSV header in {path}")
        out: dict[str, np.ndarray | None] = {name: np.empty(count) for name in CSV_COLUMNS}
        bad, width, start = set(), None, 0
        while block := [line.split(",") for line in islice(lines, _BLOCK_ROWS)]:
            width = width or len(block[0])
            if set(map(len, block)) != {width}:
                raise InvalidConfig(f"ragged rows in {path}")
            rows = slice(start, start + len(block))
            for name, col in zip(CSV_COLUMNS, zip(*block)):
                if out[name] is None:
                    continue
                if "" in col:
                    out[name] = None
                elif name not in bad:
                    try:
                        out[name][rows] = finite_array(np.array(col, dtype=float), name)
                    except (ValueError, InvalidParams):
                        bad.add(name)
            start = rows.stop
    if width not in (None, len(CSV_COLUMNS)):
        raise InvalidConfig(f"rows of {width} cells in {path}, expected {len(CSV_COLUMNS)}")
    for name in CSV_COLUMNS:
        if out[name] is not None and name in bad:
            raise InvalidConfig(f"non-numeric or non-finite cell in column {name} of {path}")
    return out


def write_svg(path, taus, series: dict[str, np.ndarray]) -> None:
    """Minimal static line plot: axes, ticks, one polyline per series, legend."""
    taus, series = _float_columns(taus, series)
    if taus.ndim != 1 or len(taus) < 2 or taus[0] == taus[-1]:
        ends = f" from {float(taus.flat[0])!r} to {float(taus.flat[-1])!r}" if taus.size else ""
        raise InvalidConfig(f"an SVG plot needs two or more rows of tau_bar with distinct first "
                            f"and last values, got {taus.size} rows{ends}")
    _write_svg(path, taus, [_extent(v) for v in series.values()],
               {name: values.__getitem__ for name, values in series.items()})


def _extent(values: np.ndarray) -> tuple[float, float]:
    return float(np.min(values)), float(np.max(values))


def _write_svg(path, taus: np.ndarray, extents: list, polylines: dict) -> None:
    """The SVG of two or more rows of taus with distinct ends. extents holds (min, max)
    pairs that together span every series; polylines maps each series name, in plot
    order, to a function that gives its values on one block of rows."""
    ml, mr, mt, mb = 72, 18, 18, 56
    plot_w, plot_h = SVG_WIDTH - ml - mr, SVG_HEIGHT - mt - mb
    x_lo, x_hi = float(taus[0]), float(taus[-1])

    if extents:
        y_lo = min(0.0, min(lo for lo, _ in extents))
        y_hi = max(hi for _, hi in extents)
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

    n = len(taus)
    with open(path, "w", encoding="ascii") as handle:
        handle.writelines(part + "\n" for part in parts)
        for idx, (name, values) in enumerate(polylines.items()):
            color = _SVG_COLORS.get(name, "#333333")
            handle.write('<polyline points="')
            for rows in _row_blocks(n):
                pts = _format_block("%.2f,%.2f ", [sx(taus[rows]), sy(values(rows))])
                handle.write(pts if rows.stop < n else pts[:-1])
            ly = mt + 16 + 18 * idx
            handle.write(
                f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
                f'<line x1="{ml + plot_w - 130}" y1="{ly}" x2="{ml + plot_w - 105}" '
                f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>\n'
                f'<text x="{ml + plot_w - 100}" y="{ly + 4}" font-size="12" '
                f'font-family="sans-serif">{name}</text>\n'
            )
        handle.write("</svg>\n")
