"""Sweeps over the dimensionless time with CSV and SVG emission.

The CSV schema is fixed: header "tau_bar,g0,g2,gm2,j2,concurrence,discord",
one row per uniformly spaced tau_bar, unrequested columns left empty.
Floats are written with repr, i.e. the shortest decimal that round-trips,
so identical configurations produce byte-identical files.

Both block writers take (path, taus, names, block), where block(rows, names)
gives the CSV columns of names on one _row_blocks slice of rows. run_sweep's
block evaluates the requested closed forms (discord_curve's among them) on
that slice of tau_bar, so no requested column exists whole and tau_bar is
the only array of 8 B per row. The SVG writer takes its y range from the
blocks' minima and maxima in a pass of its own, then writes each polyline
block by block from block(rows, [name]): a sweep evaluates its closed forms
once for the CSV, once for the y range and once per polyline (~0.2 us per
row each, against ~6 us to format the row). A 1e6-row sweep of all four
quantities in both formats peaks ~11 MB above `state`'s ~31 MB.

Each block is formatted by one %-operation on a repeated line template (CSV
cells are %r, i.e. repr; SVG polyline points are %.2f of the pixel
coordinates, computed from that block's slices with the same floating-point
expressions the axis ticks use), so no Python code runs once per row or per
point. write_csv and write_svg pass the same block writers a slicer over
their arrays. tau_bar must be 1-D and every column finite numbers of its
shape (linalg.finite_array's rule), and write_csv takes only CSV column
names; else InvalidConfig, naming the column, before the file is opened, as
for an SVG of fewer than two rows or of equal first and last tau_bar, whose
x axis has no length.
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
    series = [q for q in QUANTITIES if q in cfg.quantities]

    def block(rows: slice, quantities: list) -> dict[str, np.ndarray]:
        """The CSV columns of `quantities` on one block of rows."""
        t = taus[rows]
        cols = {}
        if "g0" in quantities or "j2" in quantities:
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

    written: list[Path] = []
    for fmt, write in (("csv", _write_csv), ("svg", _write_svg)):
        if cfg.format in (fmt, "both"):
            path = Path(cfg.output_path).with_suffix("." + fmt)
            write(path, taus, series, block)
            written.append(path)
    return written


def write_csv(path, taus, columns: dict) -> None:
    """Write the CSV in blocks of rows; a None or missing column stays empty, and a key
    that names no CSV column raises InvalidConfig."""
    unknown = [name for name in columns if name not in CSV_COLUMNS[1:]]
    if unknown:
        raise InvalidConfig(f"unknown columns {unknown}; choose from {CSV_COLUMNS[1:]}")
    taus, cols = _float_columns(taus, columns)
    filled = {name: col for name, col in cols.items() if col is not None}
    _write_csv(path, taus, list(filled), _slicer(filled))


def _write_csv(path, taus: np.ndarray, names: list, block) -> None:
    """Write the header, then each block of rows: tau_bar and the CSV columns that
    block(rows, names) gives, the same columns in every block."""
    with open(path, "w", encoding="ascii") as handle:
        handle.write(CSV_HEADER + "\n")
        for rows in _row_blocks(len(taus)):
            cols = {"tau_bar": taus[rows], **block(rows, names)}
            line = ",".join("%r" if name in cols else "" for name in CSV_COLUMNS) + "\n"
            handle.write(_format_block(line, [cols[name] for name in CSV_COLUMNS if name in cols]))


def _float_columns(taus, columns: dict) -> tuple[np.ndarray, dict]:
    """taus, 1-D, and each column of its shape, as finite float arrays, None kept; else
    InvalidConfig naming the column, so a writer never opens its file for it."""
    def finite(col, name):
        try:
            return finite_array(col, name)
        except InvalidParams as exc:
            raise InvalidConfig(f"column {exc}") from exc

    taus = finite(taus, "tau_bar")
    if taus.ndim != 1:
        raise InvalidConfig(f"column tau_bar must be 1-D, got shape {taus.shape}")
    cols = {name: None if col is None else finite(col, name) for name, col in columns.items()}
    for name, col in cols.items():
        if col is not None and col.shape != taus.shape:
            raise InvalidConfig(f"column {name} has shape {col.shape}, "
                                f"tau_bar has shape {taus.shape}")
    return taus, cols


def _slicer(columns: dict):
    """The block function of whole columns: the slices of `names` on one block of rows."""
    return lambda rows, names: {name: columns[name][rows] for name in names}


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
        bad, width = set(), None
        for rows in _row_blocks(count):
            block = [line.split(",") for line in islice(lines, _BLOCK_ROWS)]
            width = width or len(block[0])
            if set(map(len, block)) != {width}:
                raise InvalidConfig(f"ragged rows in {path}")
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
    if width not in (None, len(CSV_COLUMNS)):
        raise InvalidConfig(f"rows of {width} cells in {path}, expected {len(CSV_COLUMNS)}")
    for name in CSV_COLUMNS:
        if out[name] is not None and name in bad:
            raise InvalidConfig(f"non-numeric or non-finite cell in column {name} of {path}")
    return out


def write_svg(path, taus, series: dict[str, np.ndarray]) -> None:
    """Minimal static line plot: axes, ticks, one polyline per series, legend."""
    taus, series = _float_columns(taus, series)
    if len(taus) < 2 or taus[0] == taus[-1]:
        ends = f" from {float(taus[0])!r} to {float(taus[-1])!r}" if len(taus) else ""
        raise InvalidConfig(f"an SVG plot needs two or more rows of tau_bar with distinct first "
                            f"and last values, got {len(taus)} rows{ends}")
    _write_svg(path, taus, list(series), _slicer(series))


def _write_svg(path, taus: np.ndarray, names: list, block) -> None:
    """The SVG of two or more rows of taus with distinct ends: one polyline per series
    of names, in plot order, whose values on one block of rows are block(rows, names)."""
    ml, mr, mt, mb = 72, 18, 18, 56
    plot_w, plot_h = SVG_WIDTH - ml - mr, SVG_HEIGHT - mt - mb
    x_lo, x_hi = float(taus[0]), float(taus[-1])
    n = len(taus)

    # the y range spans 0 and every series; with no series, y_hi - y_lo is -inf below
    y_lo, y_hi = 0.0, -math.inf
    for rows in _row_blocks(n):
        cols = block(rows, names)
        for name in names:
            y_lo, y_hi = min(y_lo, float(np.min(cols[name]))), max(y_hi, float(np.max(cols[name])))
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

    with open(path, "w", encoding="ascii") as handle:
        handle.writelines(part + "\n" for part in parts)
        for idx, name in enumerate(names):
            color = _SVG_COLORS.get(name, "#333333")
            label = str(name).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
            handle.write('<polyline points="')
            for rows in _row_blocks(n):
                pts = _format_block("%.2f,%.2f ", [sx(taus[rows]), sy(block(rows, [name])[name])])
                handle.write(pts if rows.stop < n else pts[:-1])
            ly = mt + 16 + 18 * idx
            handle.write(
                f'" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
                f'<line x1="{ml + plot_w - 130}" y1="{ly}" x2="{ml + plot_w - 105}" '
                f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>\n'
                f'<text x="{ml + plot_w - 100}" y="{ly + 4}" font-size="12" '
                f'font-family="sans-serif">{label}</text>\n'
            )
        handle.write("</svg>\n")
