"""Sweeps over the dimensionless time with CSV and SVG emission.

The CSV schema is fixed: header "tau_bar,g0,g2,gm2,j2,concurrence,discord",
one row per uniformly spaced tau_bar, unrequested columns left empty.
Floats are written with repr, the shortest decimal that round-trips,
so identical configurations produce byte-identical files.

run_sweep, write_csv and write_svg feed one loop, _write_blocks, with the
_row_blocks slices of their columns; run_sweep evaluates each requested closed
form once per block, so tau_bar is its only array of 8 B per row. The SVG keeps
the M4 points of each series (Jugel et al., PVLDB 7(10), 797, 2014), which draw
like every row at its pixel width: at most 4 per pixel column, and every row
where a column holds at most two.

Each block's CSV text is a uint8 table built by numpy arithmetic, its zero
bytes (padding) dropped by one compress, so no Python code runs once per
cell. A cell is repr of the float: _repr_cells converts each distinct
column of a block once (run_sweep's g2 and gm2 are one array). For
1e-4 <= |x| < 1e16 and 10**e <= |x| < 10**(e+1), Dekker's product gives
|x| 10**(16-e) = y + err exactly in float64. The digits are y + err rounded to
a multiple of 10**cut for the largest cut (0, 1, 2: 17, 16, 15 digits) within
half x's gap to its neighbours, laid out in groups of one point position. Ties,
<= 14 digits, powers of two, zero, tiny, huge and integer values take repr.

tau_bar must be 1-D and every column finite numbers of its shape
(linalg.finite_array's rule), and write_csv takes only CSV column names; else
InvalidConfig, naming the column, before the file is opened, as for an SVG of
fewer than two rows, of a tau_bar not monotone, of equal first and last tau_bar,
of a tau_bar span or y range wider than a float, or of a legend name outside
XML's Char. read_csv is one np.loadtxt parse, each line's width checked.
"""

from __future__ import annotations

import functools
import math
import os
import re
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain
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
_CELL = 24  # bytes of the longest repr of a float
_TEXT_ROWS = 1024  # CSV table rows made text at once: its copies stay a quarter block
_SLOW = 40  # _repr_cells' group of the values that take repr
_POW10 = np.array([float(10**k) for k in range(21)])  # exact: 5**20 < 2**53
SVG_WIDTH, SVG_HEIGHT = 880, 560
_SVG_LEFT, _SVG_TOP = 72, 18  # the plot box's margins; 18 px on the right, 56 below
_PLOT_W, _PLOT_H = SVG_WIDTH - _SVG_LEFT - 18, SVG_HEIGHT - _SVG_TOP - 56

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
    """Compute the requested columns one block of rows at a time, each closed form once
    per block, and write CSV and/or SVG; returns paths."""
    start, end = cfg.check()
    p = cfg.params()
    taus = np.linspace(start, end, cfg.points)
    series = [q for q in QUANTITIES if q in cfg.quantities]
    csv_path, svg_path = (Path(cfg.output_path).with_suffix("." + fmt)
                          if cfg.format in (fmt, "both") else None for fmt in ("csv", "svg"))
    _write_blocks(csv_path, svg_path, taus, series,
                  (_closed_forms(p, taus[rows], series, cfg.measured_subsystem)
                   for rows in _row_blocks(len(taus))))
    return [path for path in (csv_path, svg_path) if path is not None]


def _closed_forms(p: DimerParams, t: np.ndarray, series: list, measured: int) -> dict:
    """tau_bar t and the CSV columns of series at t, each closed form evaluated once."""
    cols = {"tau_bar": t}
    if "g0" in series or "j2" in series:
        prof = analytic_intensities(p, tau_bar=t)
        if "g0" in series:
            cols["g0"] = prof.g0
        if "j2" in series:
            cols.update(g2=prof.g_plus2, gm2=prof.g_minus2, j2=prof.j2)
    if "concurrence" in series:
        cols["concurrence"] = concurrence_analytic(p, tau_bar=t)
    if "discord" in series:
        cols["discord"] = discord_curve(p, tau_bar=t, measured=measured)
    return cols


def write_csv(path, taus, columns: dict) -> None:
    """Write the CSV in blocks of rows; a None or missing column stays empty, and a key
    that names no CSV column raises InvalidConfig."""
    unknown = [name for name in columns if name not in CSV_COLUMNS[1:]]
    if unknown:
        raise InvalidConfig(f"unknown columns {unknown}; choose from {CSV_COLUMNS[1:]}")
    taus, cols = _float_columns(taus, columns)
    whole = {"tau_bar": taus, **{name: col for name, col in cols.items() if col is not None}}
    _write_blocks(path, None, taus, [], ({name: col[rows] for name, col in whole.items()}
                                         for rows in _row_blocks(len(taus))))


def _write_blocks(csv_path, svg_path, taus: np.ndarray, names: list, blocks) -> None:
    """Write blocks, dicts of the columns of each _row_blocks slice of taus: tau_bar and the
    CSV columns to a CSV at csv_path, header first, and the series of names through their
    M4 points to an SVG at svg_path after the last block; a path of None skips its file."""
    kept = [(taus[:0], taus[:0])] * len(names)
    with nullcontext() if csv_path is None else open(csv_path, "w", encoding="ascii",
                                                     newline="\n") as handle:
        if handle:
            handle.write(CSV_HEADER + "\n")
        table = None  # one per file: a new table per block faults in its pages each time
        for rows, cols in zip(_row_blocks(len(taus)), blocks):
            if handle:
                if table is None:
                    table, slots = _csv_table(cols, len(cols["tau_bar"]))
                lines = table[:len(cols["tau_bar"])]
                first = {}
                for name, slot in slots.items():
                    col = cols[name]
                    if id(col) in first:  # run_sweep's g2 and gm2 are one array, converted once
                        lines[:, slot] = lines[:, first[id(col)]]
                    else:
                        _repr_cells(col, lines[:, slot])
                        first[id(col)] = slot
                for start in range(0, len(lines), _TEXT_ROWS):
                    handle.write(_text(lines[start:start + _TEXT_ROWS]))
            if svg_path is not None:
                kept = _m4_fold(kept, taus, rows, [cols[name] for name in names])
    if svg_path is not None:
        _write_svg(svg_path, names, taus, kept)


def _csv_table(cols: dict, rows: int) -> tuple[np.ndarray, dict]:
    """A table of `rows` CSV lines, separators in place, and its _CELL-byte slot of each
    column of cols."""
    ends = np.cumsum([_CELL * (name in cols) + 1 for name in CSV_COLUMNS])
    table = np.empty((rows, ends[-1]), np.uint8)
    table[:, ends - 1] = np.frombuffer(b"," * (len(ends) - 1) + b"\n", np.uint8)
    return table, {name: slice(end - 1 - _CELL, end - 1)
                   for name, end in zip(CSV_COLUMNS, ends) if name in cols}


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


def _row_blocks(n: int):
    """Slices of at most _BLOCK_ROWS rows covering rows 0..n-1 in order."""
    return (slice(start, start + _BLOCK_ROWS) for start in range(0, n, _BLOCK_ROWS))


def _format_block(line: str, cols: list[np.ndarray]) -> str:
    """line % row for each row of equal-length 1-D columns."""
    block = np.column_stack(cols)
    return line * len(block) % tuple(block.ravel().tolist())


def _text(table: np.ndarray) -> str:
    """The text of a C-contiguous uint8 table of ASCII, its zero bytes (padding) left out."""
    flat = table.ravel()
    return str(flat[flat != 0], "ascii")


@functools.cache
def _digit_tables() -> np.ndarray:
    """The ASCII of 0000..9999 as uint32, then again with trailing "0"s as zero bytes."""
    ascii4 = np.empty((2, 10, 10, 10, 10, 4), np.uint8)
    for j in range(4):
        ascii4[..., j] = np.arange(ord("0"), ord("9") + 1).reshape([-1] + [1] * (3 - j))
    ascii4[1, :, :, :, 0, 3:] = ascii4[1, :, :, 0, 0, 2:] = ascii4[1, :, 0, 0, 0, 1:] = 0
    ascii4[1, 0, 0, 0, 0] = 0
    return ascii4.view(np.uint32).ravel()


def _repr_cells(v: np.ndarray, out: np.ndarray) -> None:
    """Write repr(float(x)) of each x of the 1-D float64 v into the rows of out, a (len(v),
    _CELL) uint8 array, as ASCII padded with zero bytes (the method: module docstring)."""
    a = np.abs(v)
    fast = np.flatnonzero((a >= 1e-4) & (a < 1e16))
    digits, exp10, slow = _shortest_digits(a[fast])
    fast, point, digits = fast[~slow], exp10[~slow] + 1, digits[~slow]

    # rows grouped by the digits before the point (-3..16) and sign, the rest last
    group = np.full(len(v), _SLOW, np.int8)
    group[fast] = 2 * (point + 3) + (v[fast] < 0)
    order = np.argsort(group, kind="stable")
    bounds = np.searchsorted(group[order], np.arange(_SLOW + 2))
    q = np.zeros(len(v), np.int64)
    q[fast] = digits
    q = q[order[:bounds[_SLOW]]]
    chunks = np.empty((len(q), 5), np.int64)
    for j in (4, 3, 2, 1):
        q, chunks[:, j] = np.divmod(q, 10000)
    chunks[:, 0] = q
    chunks[:, 4] += 10000  # the cut digits (cut < 3) are the trailing "0"s of the last chunk
    text = _digit_tables().take(chunks).view(np.uint8)  # "000" and the 17 digits
    cells = np.zeros((len(v), _CELL), np.uint8)
    for g in np.flatnonzero(np.diff(bounds[:_SLOW + 1])):
        c, d = cells[bounds[g]:bounds[g + 1]], text[bounds[g]:bounds[g + 1]]
        point, sign = g // 2 - 3, g % 2
        head = max(point, 1)  # "0" before the point if no digit is
        if sign:
            c[:, 0] = ord("-")
        c[:, sign:sign + head] = d[:, 3:3 + point] if point > 0 else ord("0")
        c[:, sign + head] = ord(".")
        c[:, sign + head + 1:sign + head + 18 - point] = d[:, 3 + point:]
    rest = [repr(x) for x in v[order[bounds[_SLOW]:]].tolist()]
    cells[bounds[_SLOW]:] = np.array(rest, f"S{_CELL}").view(np.uint8).reshape(-1, _CELL)
    out[order] = cells


def _shortest_digits(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For each a from 1e-4 to 1e16, its shortest round-trip digits as a 17-digit integer,
    e with 10**e <= a < 10**(e+1), and whether a takes repr instead."""
    m, exp2 = np.frexp(a)
    exp10 = np.clip(np.floor(np.log10(a)), -4, 16).astype(np.int64)  # checked by whole below
    p = _POW10.take(16 - exp10)
    y = a * p
    (ah, al), (ph, pl) = _split(a), _split(p)
    err = ((ah * ph - y) + ah * pl + al * ph) + al * pl  # a p = y + err exactly (Dekker)
    floor = np.floor(err)
    whole = y.astype(np.int64) + floor.astype(np.int64)  # y >= 1e16 > 2**53 is an integer
    frac = err - floor
    half = np.ldexp(p, exp2 - 54)  # half the gap from a to its neighbours, in units of y
    # below, above: from a p down and up to a multiple of s, less half; < 0 reads back as a.
    # Exact in sign: frac -+ half is exact (multiples of 2**-47 below 12), as is a sum's sign
    s = np.array([[10], [100], [1000]])
    r = whole % s
    below = r + (frac - half)
    above = (s - r) - (frac + half)
    cut = ((below < 0) | (above < 0)).sum(axis=0)
    unit = 10**cut
    r = whole % unit
    up = (r - unit / 2) + frac
    digits = whole - r + unit * (up > 0)
    # an equality is a tie that strtod breaks to even; a power of two is nearer below
    slow = ((below == 0) | (above == 0)).any(axis=0) | (up == 0) | (cut == 3) | (m == 0.5)
    return digits, exp10, slow | (whole < 10**16) | (digits >= 10**17) | (np.trunc(a) == a)


def _split(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x as hi + lo, each of at most 26 significant bits (Veltkamp)."""
    c = x * 134217729.0  # 2**27 + 1
    hi = c - (c - x)
    return hi, x - hi


def read_csv(path) -> dict[str, np.ndarray | None]:
    """The columns of a sweep CSV as views of one table from one np.loadtxt parse, None for
    a column other than tau_bar empty in the first row. InvalidConfig at the file's first
    fault: a wrong header, a non-ASCII byte, a row not of 7 cells, an empty tau_bar in row 1,
    or a cell of a column filled in the first row that is empty, non-numeric or non-finite,
    named with its row (from 1)."""
    try:
        with open(path, encoding="ascii", newline="") as handle:
            # lines broken where str.splitlines breaks them, as when the text was read whole
            lines = chain.from_iterable(map(str.splitlines, handle))
            if next(lines, None) != CSV_HEADER:
                raise InvalidConfig(f"unexpected CSV header in {path}")
            first = next(lines, None)
            if first is None:  # loadtxt warns on no rows
                return {name: np.empty(0) for name in CSV_COLUMNS}
            filled = [j for j, cell in enumerate(first.split(",")) if cell]
            if 0 not in filled:
                raise InvalidConfig(f"empty cell in column tau_bar of {path}, row 1")

            def rows():  # each checked, as loadtxt skips cells beyond usecols
                for row, line in enumerate(chain([first], lines), 1):
                    if (n := line.count(",") + 1) != len(CSV_COLUMNS):
                        raise InvalidConfig(f"{'ragged ' * (row > 1)}rows of {n} cells in {path} "
                                            f"at row {row}")
                    yield line

            table = np.loadtxt(rows(), delimiter=",", comments=None, usecols=filled, ndmin=2)
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"non-ASCII byte in {path}") from exc
    except ValueError as exc:  # loadtxt's ends "at row r, column c." (r from 0, c from 1)
        r, c = map(int, re.search(r"row (\d+), column (\d+)", str(exc)).groups())
        raise InvalidConfig(f"empty or non-numeric cell in column {CSV_COLUMNS[c - 1]} of {path}, "
                            f"row {r + 1}") from exc
    if not np.isfinite(table).all():
        row, j = np.argwhere(~np.isfinite(table))[0]
        raise InvalidConfig(f"non-finite cell in column {CSV_COLUMNS[filled[j]]} of {path}, "
                            f"row {row + 1}")
    return dict.fromkeys(CSV_COLUMNS) | {CSV_COLUMNS[j]: col for j, col in zip(filled, table.T)}


def write_svg(path, taus, series: dict[str, np.ndarray]) -> None:
    """Minimal static line plot: axes, ticks, one polyline per series through its M4
    points, legend."""
    taus, series = _float_columns(taus, series)
    if (len(taus) < 2 or taus[0] == taus[-1] or math.isinf(float(taus[-1]) - float(taus[0]))
            or not (np.all(taus[1:] >= taus[:-1]) or np.all(taus[1:] <= taus[:-1]))):
        ends = f" from {float(taus[0])!r} to {float(taus[-1])!r}" if len(taus) else ""
        raise InvalidConfig(f"an SVG plot needs two or more rows of tau_bar in monotone order, "
                            f"with distinct first and last values and a span finite as a "
                            f"float, got {len(taus)} rows{ends}")
    for name in series:  # not XML 1.0 Chars: C0 controls but tab, LF, CR; surrogates; U+FFFE/F
        if re.search(r"[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]", str(name)):
            raise InvalidConfig(f"series {name!r}: a legend name XML cannot carry")
    _write_blocks(None, path, taus, list(series), ({name: col[rows] for name, col in series.items()}
                                                   for rows in _row_blocks(len(taus))))


def _sx(x, taus: np.ndarray):
    """The SVG's x pixel coordinate of tau_bar x on the x axis of taus."""
    return _SVG_LEFT + (x - float(taus[0])) / (float(taus[-1]) - float(taus[0])) * _PLOT_W


def _m4_fold(kept: list, taus: np.ndarray, rows: slice, ys: list) -> list:
    """kept, each series' M4 points (x, y), with the block of rows of taus and of ys folded
    in. M4 keeps, of each run of consecutive rows in one pixel column, the first and last
    row and the first least and greatest y. A block extends only kept's last run, at most
    its last 4 points, and M4 of a suffix of a run's M4 points keeps them all."""
    folded = []
    for (kx, ky), y in zip(kept, ys):
        x, y = np.concatenate([kx[-4:], taus[rows]]), np.concatenate([ky[-4:], y])
        px = np.floor(_sx(x, taus))
        first = np.flatnonzero(np.r_[True, px[1:] != px[:-1]])
        size = np.diff(np.r_[first, len(px)])
        keep = np.zeros(len(px), bool)
        keep[first] = keep[first + size - 1] = True
        for extreme in (np.minimum, np.maximum):
            hits = np.flatnonzero(y == np.repeat(extreme.reduceat(y, first), size))
            keep[hits[np.searchsorted(hits, first)]] = True  # each run's first hit
        folded.append((np.concatenate([kx[:-4], x[keep]]), np.concatenate([ky[:-4], y[keep]])))
    return folded


def _write_svg(path, names: list, taus: np.ndarray, kept: list) -> None:
    """The SVG of one polyline per series of names, in plot order, through its kept
    points (x, y), on the x axis of taus, whose ends differ."""
    ml, mt, plot_w, plot_h = _SVG_LEFT, _SVG_TOP, _PLOT_W, _PLOT_H

    # the y range spans 0 and every series; with no series, hi - lo is -inf below
    lo = min([0.0, *(float(np.min(y)) for _, y in kept)])
    hi = max([-math.inf, *(float(np.max(y)) for _, y in kept)])
    if hi - lo < 1e-12:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    y_lo, y_hi = lo - pad, hi + pad
    if not math.isfinite(y_hi - y_lo):  # so are y_lo and y_hi
        raise InvalidConfig(f"an SVG plot needs a y range finite when padded by 5 %, got {lo!r} "
                            f"to {hi!r}")

    def sy(y):
        return mt + (y_hi - y) / (y_hi - y_lo) * plot_h

    # six ticks per axis, each a line and a label at one pixel position
    xv, yv = np.linspace(float(taus[0]), float(taus[-1]), 6), np.linspace(y_lo, y_hi, 6)
    x_ticks = _format_block(
        f'<line x1="%.2f" y1="{mt + plot_h}" x2="%.2f" y2="{mt + plot_h + 5}" stroke="#444444"/>\n'
        f'<text x="%.2f" y="{mt + plot_h + 20}" font-size="12" text-anchor="middle" '
        f'font-family="sans-serif">%.4g</text>\n', [_sx(xv, taus)] * 3 + [xv])
    y_ticks = _format_block(
        f'<line x1="{ml - 5}" y1="%.2f" x2="{ml}" y2="%.2f" stroke="#444444"/>\n'
        f'<text x="{ml - 8}" y="%.2f" font-size="12" text-anchor="end" '
        f'dominant-baseline="middle" font-family="sans-serif">%.4g</text>\n', [sy(yv)] * 3 + [yv])

    with open(path, "w", encoding="ascii", newline="\n") as handle:
        handle.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" '
            f'viewBox="0 0 {SVG_WIDTH} {SVG_HEIGHT}">\n'
            f'<rect x="0" y="0" width="{SVG_WIDTH}" height="{SVG_HEIGHT}" fill="white"/>\n'
            f'<rect x="{ml}" y="{mt}" width="{plot_w}" height="{plot_h}" '
            f'fill="none" stroke="#444444" stroke-width="1"/>\n{x_ticks}{y_ticks}'
            f'<text x="{ml + plot_w / 2:.2f}" y="{SVG_HEIGHT - 14}" font-size="13" '
            f'text-anchor="middle" font-family="sans-serif">tau_bar</text>\n'
        )
        for idx, (name, (x, y)) in enumerate(zip(names, kept)):
            color = _SVG_COLORS.get(name, "#333333")
            label = (str(name).replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
                     .replace("\r", "&#13;"))  # XML reads a raw CR as LF
            label = label.encode("ascii", "xmlcharrefreplace").decode("ascii")
            points = _format_block("%.2f,%.2f ", [_sx(x, taus), sy(y)])[:-1]
            ly = mt + 16 + 18 * idx
            handle.write(
                f'<polyline points="{points}" fill="none" stroke="{color}" stroke-width="1.5"/>\n'
                f'<line x1="{ml + plot_w - 130}" y1="{ly}" x2="{ml + plot_w - 105}" '
                f'y2="{ly}" stroke="{color}" stroke-width="1.5"/>\n'
                f'<text x="{ml + plot_w - 100}" y="{ly + 4}" font-size="12" '
                f'font-family="sans-serif">{label}</text>\n'
            )
        handle.write("</svg>\n")
