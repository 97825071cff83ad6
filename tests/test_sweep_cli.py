import collections
import hashlib
import json
import math
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from xml.etree import ElementTree

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from mqdimer import (DimerParams, SweepConfig, analytic_intensities, concurrence_analytic,
                     discord_curve, run_sweep)
from mqdimer.cli import _sweep_config, build_parser, format_state, main, parse_amplitude
from mqdimer import sweep
from mqdimer.errors import InvalidConfig
from mqdimer.sweep import _BLOCK_ROWS, CSV_COLUMNS, CSV_HEADER, read_csv, write_csv, write_svg

from oracles import ref_m4_rows, ref_polyline_points, ref_write_csv

ISQ = 1.0 / math.sqrt(2.0)


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "mqdimer", *args], capture_output=True, text=True
    )


class TestSweepConfig:
    def test_default_is_valid(self):
        SweepConfig().check()

    def test_rejects_degenerate_range(self):
        with pytest.raises(InvalidConfig):
            SweepConfig(tau_bar_start=0.0, tau_bar_end=0.0, points=2).check()

    def test_rejects_bad_points(self):
        with pytest.raises(InvalidConfig):
            SweepConfig(points=1).check()
        with pytest.raises(InvalidConfig):
            SweepConfig(points=10**6 + 1).check()

    def test_rejects_unknown_quantity(self):
        with pytest.raises(InvalidConfig):
            SweepConfig(quantities=("j2", "entropy")).check()

    def test_rejects_bad_format(self):
        with pytest.raises(InvalidConfig):
            SweepConfig(format="png").check()

    def test_unnormalized_needs_renormalize(self):
        cfg = SweepConfig(alpha=1.0, beta=1.0)
        with pytest.raises(InvalidConfig):
            cfg.params()
        p = SweepConfig(alpha=1.0, beta=1.0, renormalize=True).params()
        assert_allclose(abs(p.alpha), ISQ, atol=1e-12)

    @pytest.mark.parametrize("field", [{"tau_bar_start": "0"}, {"b": "x"}, {"quantities": 5},
                                       {"tau_bar_end": 1e308}, {"tau_bar_end": math.nan},
                                       {"tau_bar_end": 2**1023}],
                             ids=["tau_bar_start", "b", "quantities", "tau_bar_end 1e308",
                                  "tau_bar_end nan", "tau_bar_end 2**1023"])
    def test_ill_typed_field_raises_invalid_config(self, tmp_path, field):
        with pytest.raises(InvalidConfig):
            run_sweep(SweepConfig(output_path=str(tmp_path / "out.csv"), **field))
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("field", [
        {"points": True}, {"points": 4.0}, {"measured_subsystem": True},
        {"measured_subsystem": 1.5}, {"measured_subsystem": 2.0}, {"output_path": None},
        {"output_path": 5}, {"output_path": ""}, {"output_path": "."}, {"output_path": "a\0b"},
        {"output_path": "\ud800"}, {"tau_bar_start": True}, {"tau_bar_end": np.True_},
        {"measured_subsystem": np.array(2)}, {"points": 1.5}, {"points": 1},
        {"points": 10**6 + 1}, {"tau_bar_end": [3.0]},
    ], ids=ascii)
    def test_integer_and_path_fields_are_typed(self, field):
        with pytest.raises(InvalidConfig):
            SweepConfig(**field).check()

    @pytest.mark.parametrize("field, value", [("tau_bar_start", np.complex128(2 + 1j)),
                                              ("tau_bar_end", math.nan)])
    def test_a_bad_range_end_is_named(self, field, value):
        with pytest.raises(InvalidConfig, match=f"^{field}: "):
            SweepConfig(**{field: value}).check()

    def test_numpy_integer_measured_subsystem(self):
        SweepConfig(measured_subsystem=np.int64(1)).check()

    def test_float32_range_end(self):
        # no overflow warning (an error in this suite) from comparing it with 2**1023
        SweepConfig(tau_bar_end=np.float32(2.0)).check()

    def test_rejects_non_bool_renormalize(self):
        for value in ("false", "true", 1, 0, None):
            with pytest.raises(InvalidConfig):
                SweepConfig(renormalize=value).check()


class TestRunSweep:
    def test_header_and_shape(self, tmp_path):
        cfg = SweepConfig(points=11, output_path=str(tmp_path / "out.csv"))
        (path,) = run_sweep(cfg)
        lines = path.read_text().splitlines()
        assert lines[0] == "tau_bar,g0,g2,gm2,j2,concurrence,discord"
        assert lines[0] == CSV_HEADER
        assert len(lines) == 12

    def test_unrequested_columns_empty(self, tmp_path):
        cfg = SweepConfig(
            points=5, quantities=("g0",), output_path=str(tmp_path / "out.csv")
        )
        (path,) = run_sweep(cfg)
        for line in path.read_text().splitlines()[1:]:
            cells = line.split(",")
            assert cells[1] != ""
            assert cells[2] == cells[3] == cells[4] == cells[5] == cells[6] == ""

    def test_round_trip_recompute(self, tmp_path):
        cfg = SweepConfig(
            alpha=0.6,
            beta=0.8,
            b=2.0,
            points=37,
            quantities=("g0", "j2", "concurrence"),
            output_path=str(tmp_path / "out.csv"),
        )
        (path,) = run_sweep(cfg)
        data = read_csv(path)
        p = DimerParams(0.6, 0.8, 2.0)
        for i, tb in enumerate(data["tau_bar"].tolist()):
            prof = analytic_intensities(p, tau_bar=tb)
            assert data["g0"][i] == prof.g0
            assert data["g2"][i] == prof.g_plus2
            assert data["gm2"][i] == prof.g_minus2
            assert data["j2"][i] == prof.j2
            assert data["concurrence"][i] == concurrence_analytic(p, tau_bar=tb)

    def test_write_csv_reproduces_a_read_csv(self, tmp_path):
        cfg = SweepConfig(alpha=0.6, beta=0.8j, b=2.0, points=41, quantities=("g0", "concurrence"),
                          output_path=str(tmp_path / "out.csv"))
        (path,) = run_sweep(cfg)
        cols = read_csv(path)
        assert cols["j2"] is None and cols["discord"] is None
        taus = cols.pop("tau_bar")
        write_csv(tmp_path / "again.csv", taus, cols)
        assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()

    def test_deterministic_bytes_with_discord(self, tmp_path):
        out_a, out_b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (out_a, out_b):
            run_sweep(
                SweepConfig(
                    alpha=ISQ,
                    beta=ISQ,
                    b=0.1,
                    points=3,
                    tau_bar_end=1.0,
                    quantities=("discord",),
                    output_path=str(out),
                )
            )
        assert out_a.read_bytes() == out_b.read_bytes()

    @pytest.mark.parametrize("integer", [np.int64, np.int32])
    def test_numpy_integer_points_write_the_same_bytes(self, tmp_path, integer):
        paths = [run_sweep(SweepConfig(points=points, output_path=str(tmp_path / name)))[0]
                 for points, name in ((201, "int.csv"), (integer(201), "numpy.csv"))]
        assert paths[0].read_bytes() == paths[1].read_bytes()

    @pytest.mark.parametrize("ends", [(np.float32(0.1), 2.0), (0.0, np.float32(np.pi))], ids=repr)
    def test_float32_range_ends_write_the_bytes_of_their_floats(self, tmp_path, ends):
        # the grid is built from the range ends as floats, never at float32 precision
        paths = [run_sweep(SweepConfig(tau_bar_start=start, tau_bar_end=end, points=5,
                                       quantities=("g0", "j2", "concurrence"),
                                       output_path=str(tmp_path / name)))[0]
                 for (start, end), name in ((ends, "f32.csv"), (map(float, ends), "f64.csv"))]
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_svg_output(self, tmp_path):
        cfg = SweepConfig(
            points=20,
            quantities=("g0", "j2", "concurrence"),
            output_path=str(tmp_path / "plot"),
            format="both",
        )
        csv_path, svg_path = run_sweep(cfg)
        assert csv_path.suffix == ".csv" and svg_path.suffix == ".svg"
        svg = svg_path.read_text()
        assert svg.startswith("<svg")
        assert svg.count("<polyline") == 3
        ElementTree.parse(svg_path)
        for label in ("g0", "j2", "concurrence", "tau_bar"):
            assert label in svg


ROW_COUNTS = [2, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7]


def mixed_floats(rng, n):
    """Both signs over the whole exponent range, with -0.0, subnormals and integers."""
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    x[::7] = np.round(x[::7] * 1e-300)
    x[::11] = -0.0
    x[::13] = 5e-324
    return x


class TestBlockWriters:
    """The block writers give the bytes of the row-by-row and point-by-point references."""

    @pytest.mark.parametrize("n", ROW_COUNTS)
    @pytest.mark.parametrize("layout", ["tau_bar only", "all columns", "none and missing"])
    def test_csv_matches_reference(self, tmp_path, n, layout):
        rng = np.random.default_rng(n)
        taus = np.linspace(-1.0, 2.0, n)
        columns = {
            "tau_bar only": {},
            "all columns": {name: mixed_floats(rng, n)
                            for name in ("g0", "g2", "gm2", "j2", "concurrence", "discord")},
            "none and missing": {"g0": mixed_floats(rng, n), "g2": None,
                                 "j2": mixed_floats(rng, n).tolist(), "discord": mixed_floats(rng, n)},
        }[layout]
        write_csv(tmp_path / "block.csv", taus, columns)
        ref_write_csv(tmp_path / "ref.csv", taus, columns)
        assert (tmp_path / "block.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()

    @pytest.mark.parametrize("n", ROW_COUNTS)
    @pytest.mark.parametrize("kind", ["mixed signs", "negative", "flat zero", "flat negative",
                                      "named tau_bar and g2"])
    def test_svg_polylines_match_reference(self, tmp_path, n, kind):
        rng = np.random.default_rng(n)
        taus = np.linspace(-3.0, 5.0, n) + rng.uniform(0.0, 1e-3)
        series = {
            "mixed signs": {"g0": rng.uniform(-1.0, 2.0, n), "j2": rng.standard_normal(n),
                            "concurrence": rng.uniform(0.0, 1.0, n)},
            "negative": {"g0": -rng.uniform(0.1, 1.0, n), "j2": -rng.uniform(1e-3, 3.0, n)},
            "flat zero": {"g0": np.zeros(n), "concurrence": np.zeros(n)},
            "flat negative": {"j2": np.full(n, -0.3)},
            "named tau_bar and g2": {"tau_bar": rng.uniform(-1.0, 1.0, n),
                                     "g2": rng.standard_normal(n)},
        }[kind]
        write_svg(tmp_path / "block.svg", taus, series)
        svg = (tmp_path / "block.svg").read_text()
        ref = ref_polyline_points(taus, series, rows=None if n == 2 else ref_m4_rows)
        assert re.findall(r'<polyline points="([^"]*)"', svg) == ref
        ElementTree.parse(tmp_path / "block.svg")

    @pytest.mark.parametrize("case", ["decreasing tau_bar", "ties", "a run across a block edge"])
    def test_svg_polylines_keep_the_m4_rows(self, tmp_path, case):
        rng = np.random.default_rng(26)
        n = 3 * _BLOCK_ROWS + 7
        taus = np.linspace(-1.0, 2.0, n)
        series = {"g0": rng.standard_normal(n), "j2": np.sin(7.0 * taus)}
        if case == "decreasing tau_bar":  # pixel columns from right to left, over 4 blocks
            taus = taus[::-1]
        elif case == "ties":  # a least and a greatest value in many rows of a column, -0.0 too
            series = {"g0": np.round(rng.uniform(-1.0, 1.0, n), 1),
                      "concurrence": np.where(rng.random(n) < 0.5, -0.0, 0.0)}
        else:  # one pixel column from 50 rows before the edge to 50 after it
            edge = _BLOCK_ROWS
            taus[edge - 50:edge + 50] = taus[edge - 50]
            y = series["g0"]
            y[edge - 10] = y[edge + 10] = -5.0  # the first least row comes before the edge
            y[edge + 20] = 5.0
        write_svg(tmp_path / "out.svg", taus, series)
        svg = (tmp_path / "out.svg").read_text()
        ref = ref_polyline_points(taus, series, rows=ref_m4_rows)
        assert re.findall(r'<polyline points="([^"]*)"', svg) == ref
        assert all(len(points.split()) < n for points in ref)

    @pytest.mark.parametrize("write", [write_csv, write_svg], ids=["csv", "svg"])
    @pytest.mark.parametrize("rows", [_BLOCK_ROWS, _BLOCK_ROWS + 2], ids=["shorter", "longer"])
    def test_a_column_of_another_length_leaves_no_file(self, tmp_path, write, rows):
        taus = np.linspace(0.0, 1.0, _BLOCK_ROWS + 1)
        path = tmp_path / "out"
        with pytest.raises(InvalidConfig, match="column j2 "):
            write(path, taus, {"g0": np.zeros(len(taus)), "j2": np.zeros(rows)})
        assert not path.exists()

    @pytest.mark.parametrize("write", [write_csv, write_svg], ids=["csv", "svg"])
    @pytest.mark.parametrize("taus, j2, match", [
        (np.zeros((3, 2)), None, "column tau_bar must be 1-D"),
        (np.float64(0.5), None, "column tau_bar must be 1-D"),
        ([0.0, 1.0, np.inf], None, "column tau_bar must be finite"),
        ([0.0, 1.0, 2.0], ["0.1", "0.2", "0.3"], "column j2 must be a number"),
        ([0.0, 1.0, 2.0], [0.1, np.nan, 0.3], "column j2 must be finite"),
        ([0.0, 1.0, 2.0], np.array([True, False, True]), "column j2 must be a number"),
        (range(100000), [0.5] * 99999 + ["x"], "column j2 must be a number"),
    ], ids=["2-D tau_bar", "0-d tau_bar", "inf tau_bar", "text", "nan", "bools", "long text"])
    def test_a_column_outside_the_number_rule_leaves_no_file(self, tmp_path, write, taus, j2,
                                                             match):
        path = tmp_path / "out"
        columns = {"g0": np.zeros(np.size(taus))} if j2 is None else {"j2": j2}
        with pytest.raises(InvalidConfig, match=match) as exc:
            write(path, taus, columns)
        assert not path.exists()
        assert len(str(exc.value).partition(", got ")[2]) <= 200  # the input shown, cut

    @pytest.mark.parametrize("name", ["concurence", "tau_bar", "G0"])
    def test_a_column_name_outside_the_schema_leaves_no_file(self, tmp_path, name):
        path = tmp_path / "out.csv"
        with pytest.raises(InvalidConfig, match=f"unknown columns \\['{name}'\\]"):
            write_csv(path, [0.0, 1.0], {"g0": [1.0, 0.5], name: [0.25, 0.5]})
        assert not path.exists()

    def test_svg_legend_names_are_escaped(self, tmp_path):
        names = ["a<b & c", "x > y", "&amp;", "τ"]
        write_svg(tmp_path / "out.svg", [0.0, 1.0], {name: [0.0, 1.0] for name in names})
        texts = ElementTree.parse(tmp_path / "out.svg").iter("{http://www.w3.org/2000/svg}text")
        assert [text.text for text in texts][-4:] == names

    @pytest.mark.parametrize("taus", [[], [0.5], [0.5, 0.5], [-1e308, 0.0, 1e308],
                                      [0.0, 1e300, 1e-300], [0.0, 2.0, 1.0]],
                             ids=["0 rows", "1 row", "equal ends", "span beyond a float",
                                  "not monotone past a float", "not monotone"])
    def test_an_svg_without_an_x_range_leaves_no_file(self, tmp_path, taus):
        path = tmp_path / "out.svg"
        with pytest.raises(InvalidConfig, match="two or more rows"):
            write_svg(path, taus, {"g0": np.ones(len(taus))})
        assert not path.exists()

    def test_a_zero_row_csv_is_its_header_line(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv(path, [], {"g0": [], "discord": None})
        assert path.read_bytes() == (CSV_HEADER + "\n").encode()
        cols = read_csv(path)
        assert list(cols) == list(CSV_COLUMNS)
        assert all(col.dtype == float and col.shape == (0,) for col in cols.values())

    def test_lines_end_in_a_line_feed_on_every_os(self, tmp_path, monkeypatch):
        # text mode writes os.linesep for "\n" unless told otherwise: "\r\n" on Windows
        def windows_open(*args, newline=None, **kwargs):
            return open(*args, newline="\r\n" if newline is None else newline, **kwargs)

        monkeypatch.setattr(sweep, "open", windows_open, raising=False)
        taus = np.linspace(0.0, 1.0, 5)
        write_csv(tmp_path / "out.csv", taus, {"g0": taus})
        write_svg(tmp_path / "out.svg", taus, {"g0": taus})
        for name in ("out.csv", "out.svg"):
            assert b"\r" not in (tmp_path / name).read_bytes()

    def test_writer_memory_does_not_grow_with_the_row_count(self, tmp_path, monkeypatch):
        # 4096 and 16384 rows both fill the SVG's M4 cap of ~4 points per pixel column
        monkeypatch.setattr(sweep, "_BLOCK_ROWS", 256)
        peaks = {}
        for blocks in (1, 16, 64):  # the 1-block pass only warms caches up
            rng = np.random.default_rng(blocks)
            taus = np.linspace(0.0, math.pi, 256 * blocks)
            cols = {name: rng.standard_normal(len(taus)) for name in CSV_COLUMNS[1:]}
            series = {q: cols[q] for q in ("g0", "j2", "concurrence")}
            for write, data in ((write_csv, cols), (write_svg, series)):
                tracemalloc.start()
                try:
                    write(tmp_path / "out", taus, data)
                    peaks[write.__name__, blocks] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
        for name in ("write_csv", "write_svg"):
            assert peaks[name, 64] <= 1.25 * peaks[name, 16], peaks


def repr_rows(v):
    """repr of each value of v as ASCII rows padded with zero bytes, as the kernel writes them."""
    return np.array([repr(x) for x in v.tolist()], "S24").view(np.uint8).reshape(-1, 24)


def kernel_rows(v):
    out = np.zeros((len(v), 24), np.uint8)
    sweep._repr_cells(v, out)
    return out


#: either side of each edge of the CSV kernel's fast class and of each power of ten in it, and
#: values it leaves to repr
EDGE_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 2.0**53, 3.0, 0.5, 0.1, 1e22,
               *(float(f"1e{k}") for k in range(-4, 17)), 1.7976931348623157e308]
FLOATS = st.builds(lambda x, negative: -x if negative else x, st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(1e-5, 1e17),
    st.sampled_from(EDGE_FLOATS + [math.nextafter(x, 0.0) for x in EDGE_FLOATS]
                    + [math.nextafter(x, math.inf) for x in EDGE_FLOATS[:-1]]),
    st.integers(-1074, 1023).map(lambda k: 2.0**k),
    st.integers(-(2**53), 2**53).map(float),
    st.builds(round, st.floats(-1e6, 1e6), st.integers(0, 8)),
    # decimals of 15, 16 and 17 significant digits, and of 17 ending in 5
    st.builds("{}e{}".format, st.integers(10**14, 10**17 - 1)
              | st.integers(10**15, 10**16 - 1).map(lambda n: 10 * n + 5),
              st.integers(-21, 0)).map(float),
), st.booleans())


class TestCellKernels:
    """The array kernels give the bytes of repr and of %.2f, and fall back to them."""

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(st.lists(FLOATS, min_size=1, max_size=64))
    def test_csv_cells_equal_repr(self, values):
        v = np.array(values)
        assert (kernel_rows(v) == repr_rows(v)).all()

    def test_csv_cells_equal_repr_across_exponents(self):
        rng = np.random.default_rng(2024)
        n = 200_000
        v = np.concatenate([
            mixed_floats(rng, n // 4),
            rng.standard_normal(n // 4) * 10.0 ** rng.integers(-6, 18, n // 4),
            np.sin(np.linspace(-9.0, 9.0, n // 4)) ** 2 * rng.choice([1.0, -3.7, 250.0], n // 4),
            rng.integers(-(2**63), 2**63, n // 4, dtype=np.int64).view(np.float64),
            rng.integers(10**14, 10**17, n // 4) / 10.0 ** rng.integers(0, 21, n // 4),
        ])
        v = v[np.isfinite(v)]
        for rows in range(0, len(v), _BLOCK_ROWS):
            block = v[rows:rows + _BLOCK_ROWS]
            assert (kernel_rows(block) == repr_rows(block)).all(), rows

    def test_few_sweep_cells_take_repr(self):
        # exact decisions leave repr the ties, short digits and integers: ~1 % of a column
        taus = np.linspace(0.0, math.pi, _BLOCK_ROWS)
        for v in (taus, np.sin(2 * taus) ** 2, np.cos(2 * taus) ** 2, np.abs(np.sin(2 * taus))):
            slow = sweep._shortest_digits(v[(v >= 1e-4) & (v < 1e16)])[2]
            assert slow.mean() <= 0.02, slow.mean()

    def test_powers_of_ten_and_digits_are_exact(self):
        assert [Fraction(x) for x in sweep._POW10.tolist()] == [Fraction(10)**k for k in range(21)]
        table = sweep._digit_tables().view(np.uint8).reshape(2, 10000, 4)
        assert [row.tobytes() for row in table[0]] == [b"%04d" % i for i in range(10000)]
        assert [row.tobytes() for row in table[1]] == [(b"%04d" % i).rstrip(b"0").ljust(4, b"\0")
                                                       for i in range(10000)]

    @pytest.mark.parametrize("taus, series", [
        (np.linspace(3.0, -1.0, 9), {"g0": np.linspace(0.0, 1.0, 9)}),
        (np.linspace(0.0, 790.0 / 8, 81), {"j2": np.arange(81) / 64.0}),
    ], ids=["decreasing tau_bar", "ties"])
    def test_svg_polylines_at_the_kernel_edges_match_reference(self, tmp_path, taus, series):
        write_svg(tmp_path / "out.svg", taus, series)
        ref = ref_polyline_points(taus, series)
        assert re.findall(r'<polyline points="([^"]*)"', (tmp_path / "out.svg").read_text()) == ref

    @pytest.mark.parametrize("series", [
        {"g0": [-1e308, 0.0, 1e308, 1.0, 0.5]},
        {"g0": [1e308, 0.5, 0.0, 0.5, 1.0], "j2": [-1e308, 0.0, 0.0, 0.0, 0.0]},
        {"g0": [-1.7e308, 0.0, 0.0, 0.0, 0.0]},
        {"g0": [-8.5e307, 8.5e307, 0.0, 0.0, 0.0]},
    ], ids=["one series", "two series", "padded end", "padded span"])
    def test_an_svg_y_range_past_the_float_range_leaves_no_file(self, tmp_path, series):
        path = tmp_path / "out.svg"
        with pytest.raises(InvalidConfig, match="y range .* got -"):
            write_svg(path, np.linspace(0.0, 1.0, 5), series)
        assert not path.exists()


def whole_columns(cfg):
    """tau_bar and the requested CSV columns of a sweep, each closed form on every row at once."""
    p = cfg.params()
    taus = np.linspace(cfg.tau_bar_start, cfg.tau_bar_end, cfg.points)
    prof = analytic_intensities(p, tau_bar=taus)
    every = {"g0": prof.g0, "g2": prof.g_plus2, "gm2": prof.g_minus2, "j2": prof.j2,
             "concurrence": concurrence_analytic(p, tau_bar=taus),
             "discord": discord_curve(p, tau_bar=taus, measured=cfg.measured_subsystem)}
    fills = {"g0": ("g0",), "j2": ("g2", "gm2", "j2"), "concurrence": ("concurrence",),
             "discord": ("discord",)}
    return taus, {name: every[name] for q in cfg.quantities for name in fills[q]}


class TestSweepBlocks:
    """run_sweep computes and writes block by block the bytes of its whole columns."""

    @pytest.mark.parametrize("n", ROW_COUNTS)
    @pytest.mark.parametrize("quantities, measured, fmt", [
        (("g0", "j2", "concurrence", "discord"), 1, "both"),
        (("discord", "g0"), 2, "both"),
        (("j2", "discord"), 1, "svg"),
        (("concurrence",), 2, "both"),
        (("g0", "j2", "concurrence", "discord"), 2, "csv"),
    ], ids=["all spin 1", "discord spin 2", "svg alone", "concurrence", "csv alone"])
    def test_bytes_match_whole_columns(self, tmp_path, n, quantities, measured, fmt):
        out = tmp_path / "out"  # holds the sweep's files and nothing else
        out.mkdir()
        cfg = SweepConfig(alpha=0.6, beta=0.8j, b=0.7, tau_bar_start=-0.4, tau_bar_end=5.1,
                          points=n, quantities=quantities, measured_subsystem=measured,
                          format=fmt, output_path=str(out / "sweep"))
        paths = run_sweep(cfg)
        assert sorted(out.iterdir()) == paths == [out / f"sweep.{ext}" for ext in ("csv", "svg")
                                                  if fmt in (ext, "both")]
        taus, cols = whole_columns(cfg)
        if fmt != "svg":
            ref_write_csv(tmp_path / "ref.csv", taus, cols)
            assert paths[0].read_bytes() == (tmp_path / "ref.csv").read_bytes()
        if fmt == "csv":
            return
        series = {q: cols[q] for q in ("g0", "j2", "concurrence", "discord") if q in cols}
        svg = paths[-1].read_text()
        ref = ref_polyline_points(taus, series, rows=None if n == 2 else ref_m4_rows)
        assert re.findall(r'<polyline points="([^"]*)"', svg) == ref
        write_svg(tmp_path / "ref.svg", taus, series)
        assert svg == (tmp_path / "ref.svg").read_text()
        ElementTree.parse(paths[-1])

    @pytest.mark.parametrize("fmt", ["csv", "svg", "both"])
    def test_each_pass_evaluates_only_its_closed_forms(self, tmp_path, monkeypatch, fmt):
        # one evaluation per block feeds both writers; g0 and j2 share analytic_intensities
        monkeypatch.setattr(sweep, "_BLOCK_ROWS", 256)
        per_block = {"analytic_intensities": 1, "concurrence_analytic": 1, "discord_curve": 1}
        calls = collections.Counter()
        for name in per_block:
            def counted(*args, name=name, real=getattr(sweep, name), **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(sweep, name, counted)
        run_sweep(SweepConfig(points=3 * 256 + 7, quantities=("g0", "j2", "concurrence", "discord"),
                              format=fmt, output_path=str(tmp_path / "sweep")))
        assert calls == {name: 4 * count for name, count in per_block.items()}

    def test_memory_does_not_grow_with_the_row_count(self, tmp_path, monkeypatch):
        # beyond tau_bar's 8 B per row, which run_sweep holds whole; 4096 and 16384 rows
        # both fill the SVG's M4 cap of ~4 points per pixel column
        monkeypatch.setattr(sweep, "_BLOCK_ROWS", 256)
        peaks = {}
        for blocks in (1, 16, 64):  # the 1-block pass only warms caches up
            cfg = SweepConfig(points=256 * blocks, quantities=("g0", "j2", "concurrence", "discord"),
                              format="both", output_path=str(tmp_path / "sweep"))
            tracemalloc.start()
            try:
                run_sweep(cfg)
                peaks[blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[64] <= 1.25 * peaks[16] + 8 * 256 * (64 - 16), peaks

    def test_bytes_do_not_depend_on_the_block_size(self, tmp_path, monkeypatch):
        cfg = dict(alpha=0.6, beta=0.8, b=1.0, points=3 * _BLOCK_ROWS + 7,
                   quantities=("g0", "j2", "concurrence", "discord"), format="both")
        x = np.linspace(0.0, 20.0, 3 * _BLOCK_ROWS + 7)
        taus = x - np.sin(x)  # monotone, with long runs where it is flat, at multiples of 2 pi
        series = {"g0": np.cos(5.0 * taus), "j2": np.random.default_rng(5).standard_normal(len(taus))}
        outputs = []
        for rows in (_BLOCK_ROWS, 256):
            monkeypatch.setattr(sweep, "_BLOCK_ROWS", rows)
            paths = run_sweep(SweepConfig(**cfg, output_path=str(tmp_path / f"sweep-{rows}")))
            write_svg(tmp_path / f"flat-runs-{rows}.svg", taus, series)
            outputs.append([path.read_bytes()
                            for path in (*paths, tmp_path / f"flat-runs-{rows}.svg")])
        assert outputs[0] == outputs[1]
        polylines = re.findall(rb'<polyline points="([^"]*)"', outputs[0][1])
        assert len(polylines) == 4
        assert all(len(points.split()) <= 4 * (sweep._PLOT_W + 1) for points in polylines)


class TestReadCsv:
    def test_header_only_gives_empty_columns(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(CSV_HEADER + "\n")
        cols = read_csv(path)
        assert list(cols) == CSV_HEADER.split(",")
        assert all(col.shape == (0,) for col in cols.values())

    def test_column_empty_in_every_row_is_none(self, tmp_path):
        path = tmp_path / "g0.csv"
        path.write_text("\n".join([CSV_HEADER, "0.0,1.0,,,,,", "0.5,0.5,,,,,"]) + "\n")
        cols = read_csv(path)
        assert cols["g0"].tolist() == [1.0, 0.5] and cols["j2"] is None

    @pytest.mark.parametrize("rows", [
        ["0.0,1.0,,,,,", "0.5,1.0,,,,"],
        ["0.0,1.0,,,,,,"],
        ["0.0,1.0,,,,,", "0.5,one,,,,,"],
        ["0.0,1.0,,,,,0x1p3", "0.5,2.0,,,,,0.25"],
        ["nan,,,,,,"],
        ["0.0,1.0,,,,,", "0.5,-inf,,,,,"],
        ["0.0,1.0,,,,,", "0.5,1.0,,,,,,"],
        ["0.0,1.0,,,,,", "0.5,1.0#x,,,,,"],
        ["0.0,1.0,,,,,", "0.5,\u00e9,,,,,"],
        ["0.0,1_000,,,,,"],
    ], ids=["ragged", "eight cells", "word", "hex float", "nan", "inf", "eight cells after seven",
            "hash in a cell", "non-ASCII", "underscore"])
    def test_malformed_rows_raise_invalid_config(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([CSV_HEADER, *rows]) + "\n", encoding="utf-8")
        with pytest.raises(InvalidConfig):
            read_csv(path)

    def test_wrong_header_raises_invalid_config(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(CSV_HEADER.replace("g0", "g1") + "\n0.0,1.0,,,,,\n")
        with pytest.raises(InvalidConfig, match="unexpected CSV header"):
            read_csv(path)

    @pytest.mark.parametrize("rows, outcome", [
        (["0.0,1.0,,,,,", "0.5,1.0,,,,,", "1.0,1.0,,,,"], "ragged rows of 6 cells in .* at row 3$"),
        (["0.0,one,,,,,", "0.5,1.0,,,,,", "1.0,1.0,,,"], "non-numeric cell in column g0 of .*, row 1$"),
        (["0.0,1.0,,,,,,", "0.5,1.0,,,,,,", "1.0,1.0,,,,,,"], "rows of 8 cells"),
        (["0.0,1.0,,,,,", "0.5,1.0,,,,,", "1.0,1.0,,,,,,"], "ragged rows of 8 cells in .* at row 3$"),
        (["0.0,1.0,,,,,", "0.5,1.0,,,,,", "1.0,inf,,,,,"], "non-finite cell in column g0 .*, row 3$"),
        (["0.0,1.0,,,,,", "0.5,1.0,,,,,", "1.0,,,,,,"],
         "empty or non-numeric cell in column g0 of .*, row 3$"),
        (["0.0,one,,,,,", "0.5,1.0,,,,,", "1.0,,,,,,"], "non-numeric cell in column g0 of .*, row 1$"),
        # a column empty in its first row reads as None whatever follows, until the benchmark's
        # sweep check no longer depends on it (ROADMAP item 1b, then item 6)
        (["0.0,,,,,,", "0.5,1.0,,,,,", "1.0,1.0,,,,,"], None),
    ], ids=["ragged", "ragged before a word", "eight cells", "eight cells after seven", "inf",
            "empty", "empty after a word", "filled after empty"])
    def test_a_later_block_reads_as_in_the_whole_file(self, tmp_path, rows, outcome):
        # a fault in a later row is found as in the first, and the first fault of the file wins
        path = tmp_path / "blocks.csv"
        path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
        if outcome:
            with pytest.raises(InvalidConfig, match=outcome):
                read_csv(path)
        else:
            cols = read_csv(path)
            assert cols["g0"] is None and cols["tau_bar"].tolist() == [0.0, 0.5, 1.0]

    def test_memory_grows_as_the_columns_and_the_round_trip_holds(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep, "_BLOCK_ROWS", 256)
        peaks, out_bytes = {}, {}
        for blocks in (1, 4, 32):  # the 1-block pass only warms caches up
            rng = np.random.default_rng(blocks)
            taus = np.linspace(0.0, math.pi, 256 * blocks - 3)
            cols = {name: mixed_floats(rng, len(taus)) for name in CSV_COLUMNS[1:]}
            cols["gm2"] = None
            write_csv(tmp_path / "in.csv", taus, cols)
            tracemalloc.start()
            try:
                got = read_csv(tmp_path / "in.csv")
                peaks[blocks] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            out_bytes[blocks] = sum(col.nbytes for col in got.values() if col is not None)
            assert got["gm2"] is None
            assert got.pop("tau_bar").tobytes() == taus.tobytes()
            assert all(got[name].tobytes() == cols[name].tobytes() for name in got if name != "gm2")
            write_csv(tmp_path / "again.csv", taus, got)
            assert (tmp_path / "again.csv").read_bytes() == (tmp_path / "in.csv").read_bytes()
        # one block: the text and cells of 256 rows
        assert peaks[32] <= 2 * out_bytes[32] + peaks[1], (peaks, out_bytes)


class TestParseAmplitude:
    def test_plain_real(self):
        assert parse_amplitude("0.5") == 0.5 + 0j

    def test_cartesian_pair(self):
        assert parse_amplitude("0.6,-0.8") == complex(0.6, -0.8)

    def test_polar(self):
        z = parse_amplitude("1@90")
        assert abs(z - 1j) <= 1e-12

    def test_error_position(self):
        with pytest.raises(InvalidConfig, match="position 4"):
            parse_amplitude("1.0,x2")
        with pytest.raises(InvalidConfig, match="position 0"):
            parse_amplitude("zz@45")
        with pytest.raises(InvalidConfig):
            parse_amplitude("")

    def test_quantities_parser(self, tmp_path, capsys):
        args = build_parser().parse_args(["sweep", "--quantities", "j2, g0"])
        assert _sweep_config(args, None).quantities == ("g0", "j2")
        out = tmp_path / "q.csv"
        assert main(["sweep", "--quantities", "g0,magnetization", "--out", str(out)]) == 2
        assert "unknown quantities ['magnetization']" in capsys.readouterr().err
        assert not out.exists()


class TestFormatState:
    def test_initial_matrix_entries(self):
        text = format_state(1.0 + 0j, 0j, 10.0, 0.0)
        eb = math.exp(10.0)
        assert f"{eb / (eb + 1.0):#.9g}" in text
        assert f"{1.0 / (eb + 1.0):#.9g}" in text

    def test_corner_entry_rendering(self):
        text = format_state(1.0 + 0j, 0j, 10.0, math.pi / 4.0)
        assert "0.499977301i" in text
        rows = text.splitlines()[1:]
        assert len(rows) == 4 and all(len(r.split("  ")) == 4 for r in rows)

    def test_renders_a_nan_time_that_the_command_rejects(self, capsys):
        assert "nan" in format_state(0.6 + 0j, 0.8j, 1.5, math.nan).splitlines()[1]
        assert main(["state", "--tau-bar", "nan"]) == 2
        assert capsys.readouterr().out == ""


class TestPresetBytes:
    """sha256 of the preset CSVs, so that a last-bit drift across commits shows.

    Criterion 9 only compares two runs of one build. The digests hold for
    numpy 2.4 on x86-64 Linux; the fig2 one also depends on its LAPACK.
    """

    @pytest.mark.parametrize("argv, digest", [
        (["fig1"], "200fa6873a2205c1e85db73b7685c8415e7345273e2e3f33a4cf438fafcbc26a"),
        (["fig2", "--points", "21"],
         "64d00b71c1f919c81ef665eb5930027a113d7124c7efb192ba3a80b96e2456d9"),
    ], ids=["fig1", "fig2-21"])
    def test_digest(self, tmp_path, argv, digest):
        assert main([*argv, "--out", str(tmp_path / "preset")]) == 0
        assert hashlib.sha256((tmp_path / "preset.csv").read_bytes()).hexdigest() == digest

    def test_svg_digest(self, tmp_path):
        assert main(["fig1", "--format", "both", "--out", str(tmp_path / "preset")]) == 0
        assert (hashlib.sha256((tmp_path / "preset.svg").read_bytes()).hexdigest()
                == "20b4dcd4a592f3e73f0cabc5f794c0eabc8b5eb47bdc55c5ca2291dcc69e9df7")


class TestCliProcess:
    """`python -m mqdimer` runs for the process boundary (fig1, an exit 2 with its stderr,
    the exit-3 I/O error); every other CLI test calls main(argv) in process."""

    def test_fig1_preset(self, tmp_path):
        out = tmp_path / "f1"
        proc = run_cli("fig1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "f1.csv").read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert len(lines) == 502
        data = read_csv(tmp_path / "f1.csv")
        peak = float(np.max(data["j2"]))
        assert abs(peak - math.exp(10.0) / (math.exp(10.0) + 1.0)) <= 1e-12

    def test_fig1_deterministic(self, tmp_path, capsys):
        pa, pb = tmp_path / "a", tmp_path / "b"
        assert main(["fig1", "--out", str(pa)]) == 0
        assert main(["fig1", "--out", str(pb)]) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_fig2_reduced(self, tmp_path, capsys):
        out = tmp_path / "f2"
        assert main(["fig2", "--points", "5", "--tau-end", "1.0", "--out", str(out)]) == 0, \
            capsys.readouterr().err
        data = read_csv(tmp_path / "f2.csv")
        assert data["discord"] is not None
        assert data["g0"] is None

    def test_discord_column_takes_amplitudes_that_dimer_params_takes(self, tmp_path):
        # |alpha|^2 + |beta|^2 = 1 + 1.6e-10 passes DimerParams (1e-9) but not the 4x4 trace
        # rule (1e-12); the discord column, a closed form, takes it like the other columns
        assert main(["sweep", "--alpha", "0.6", "--beta", "0.8000000001", "--quantities",
                     "concurrence,discord", "--points", "5", "--out", str(tmp_path / "s")]) == 0
        assert np.isfinite(read_csv(tmp_path / "s.csv")["discord"]).all()

    def test_state_subcommand(self, capsys):
        assert main(["state", "--alpha", "1", "--beta", "0", "--b", "10",
                     "--tau-bar", str(math.pi / 4.0)]) == 0
        assert "0.499977301i" in capsys.readouterr().out

    def test_state_keeps_the_coherence_at_high_temperature(self, capsys):
        # the exact <00|rho|11> is i sin(1.4) tanh(5e-13) / 4 = 1.2318121625e-13i; the
        # difference of the thermal weights gave 1.23178491e-13i
        assert main(["state", "--alpha", "0.7071067811865476", "--beta", "0.7071067811865476",
                     "--b", "1e-12", "--tau-bar", "0.7"]) == 0
        assert "0.00000000+1.23181216e-13i" in capsys.readouterr().out

    def test_sweep_with_config_and_override(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "alpha": "1", "beta": "0", "b": 10.0,
            "tau_bar_start": 0.0, "tau_bar_end": 1.0,
            "points": 4, "quantities": ["g0"],
            "output_path": str(tmp_path / "from_config.csv"),
        }))
        assert main(["sweep", "--config", str(cfg_file), "--points", "6"]) == 0, \
            capsys.readouterr().err
        lines = (tmp_path / "from_config.csv").read_text().splitlines()
        assert len(lines) == 7  # flag overrides the config file

    def test_invalid_config_exit_codes(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["sweep", "--points", "1"]) == 2
        assert main(["sweep", "--tau-start", "1.0", "--tau-end", "0.0"]) == 2
        assert main(["sweep", "--quantities", "bogus"]) == 2
        assert main(["state", "--alpha", "1.0,x2"]) == 2
        assert main(["sweep", "--alpha", "1", "--beta", "1"]) == 2
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text("{\"mystery\": 1}")
        assert main(["sweep", "--config", str(cfg_file)]) == 2
        cfg_file.write_text("{\"b\": \"warm\"}")
        assert main(["sweep", "--config", str(cfg_file)]) == 2
        cfg_file.write_text("[1, 2]")
        assert main(["sweep", "--config", str(cfg_file)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"config file {cfg_file}: expected a JSON object" in err
        assert [p.name for p in tmp_path.iterdir()] == ["bad.json"]

    def test_non_finite_tau_bar_exit_code(self, capsys):
        proc = run_cli("state", "--tau-bar", "nan")
        assert proc.returncode == 2, proc.stdout
        assert proc.stdout == ""
        assert proc.stderr == "error: tau_bar must be finite, got nan\n"
        assert main(["state", "--tau-bar", "inf"]) == 2
        assert capsys.readouterr() == ("", "error: tau_bar must be finite, got inf\n")

    def test_non_numeric_tau_bar_exits_2_without_usage(self, capsys):
        # a bad time fails like every other bad value: one error line, no argparse usage text
        assert main(["state", "--tau-bar", "abc"]) == 2
        assert capsys.readouterr() == ("", "error: tau_bar must be a number, got 'abc'\n")
        proc = run_cli("state", "--tau-bar", "abc")
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr == "error: tau_bar must be a number, got 'abc'\n"

    def test_renormalize_must_be_json_bool(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"alpha": "2", "renormalize": "false", "points": 4,
                                        "output_path": str(tmp_path / "r.csv")}))
        assert main(["sweep", "--config", str(cfg_file)]) == 2
        assert "renormalize" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    def test_io_error_exit_code(self):
        proc = run_cli("sweep", "--points", "4", "--out", "/no_such_dir_zz/x.csv")
        assert proc.returncode == 3

    def test_seed_flag_removed(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["sweep", "--points", "4", "--seed", "7", "--out", str(tmp_path / "s.csv")])
        assert exit_info.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "s.csv").exists()

    def test_svg_format(self, tmp_path, capsys):
        assert main(["sweep", "--points", "8", "--format", "svg",
                     "--out", str(tmp_path / "pic")]) == 0
        assert (tmp_path / "pic.svg").read_text().startswith("<svg")
        ElementTree.parse(tmp_path / "pic.svg")

    def test_every_sweep_flag_sets_its_field(self):
        args = build_parser().parse_args([
            "sweep", "--alpha", "0.6", "--beta", "0,0.8", "--b", "2", "--tau-start", "0.5",
            "--tau-end", "1.5", "--points", "9", "--quantities", "discord,j2", "--measured", "1",
            "--out", "o.csv", "--format", "both", "--renormalize",
        ])
        assert _sweep_config(args, None) == SweepConfig(
            0.6, 0.8j, 2.0, 0.5, 1.5, 9, ("j2", "discord"), 1, "o.csv", "both", True)

    def test_config_file_that_is_not_utf8_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_bytes(b'{"b": "\xff"}')
        assert main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "u.csv")]) == 2
        assert "config file" in capsys.readouterr().err
        assert not (tmp_path / "u.csv").exists()

    def test_config_integer_too_large_for_a_float_exits_2(self, tmp_path, capsys):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text('{"b": 1%s}' % ("0" * 400))
        assert main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "o.csv")]) == 2
        assert "b must be a number" in capsys.readouterr().err

    def test_time_too_large_for_the_closed_forms_exits_2(self, tmp_path, capsys):
        out = tmp_path / "big.csv"
        assert main(["sweep", "--tau-end", "1e308", "--points", "3", "--out", str(out)]) == 2
        assert "tau_bar" in capsys.readouterr().err
        assert not out.exists()

    def test_config_text_gives_the_bytes_of_flags(self, tmp_path, capsys):
        # one parser per field: a config file's strings and a JSON 4.0 read like the flags
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"points": 4.0, "b": "2", "quantities": "j2,g0",
                                        "beta": "0,0.8", "alpha": "0.6"}))
        assert main(["sweep", "--config", str(cfg_file), "--out", str(tmp_path / "c")]) == 0
        assert main(["sweep", "--points", "4", "--b", "2", "--quantities", "g0,j2", "--beta", "0,0.8",
                     "--alpha", "0.6", "--out", str(tmp_path / "f")]) == 0
        run_sweep(SweepConfig(0.6, 0.8j, 2.0, points=4, quantities=("g0", "j2"),
                              output_path=str(tmp_path / "s")))
        assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "f.csv").read_bytes()
        assert (tmp_path / "c.csv").read_bytes() == (tmp_path / "s.csv").read_bytes()

    @pytest.mark.parametrize("values", [
        {"measured_subsystem": 1.5}, {"measured_subsystem": True}, {"points": True},
        {"points": "4.5"}, {"output_path": None}, {"output_path": 5}, {"output_path": ""},
        {"tau_bar_start": True}, {"b": True}, {"alpha": True, "beta": 0},
    ], ids=str)
    def test_ill_typed_config_value_exits_2_and_writes_nothing(self, tmp_path, monkeypatch, capsys,
                                                                 values):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "cfg.json").write_text(json.dumps({"points": 3, **values}))
        assert main(["sweep", "--config", "cfg.json"]) == 2
        assert capsys.readouterr().out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("argv", [["--alpha", "1e200", "--renormalize"], ["--alpha", "1e200"],
                                      ["--beta", "1e300,1e300", "--renormalize"]])
    def test_state_with_a_huge_amplitude_exits_2(self, capsys, argv):
        assert main(["state", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "error:" in err

    def test_integer_flags_read_like_config_values(self):
        args = build_parser().parse_args(["sweep", "--points", "4.0", "--measured", "1"])
        cfg = _sweep_config(args, None)
        assert (cfg.points, cfg.measured_subsystem) == (4, 1)
        assert type(cfg.points) is int and type(cfg.measured_subsystem) is int

    def test_parser_is_built_once(self, tmp_path, capsys):
        # the cached parser gives a fresh result per call: no value leaks into the next
        assert build_parser() is build_parser()
        argv = ["sweep", "--points", "4", "--quantities", "g0"]
        assert main([*argv, "--b", "2", "--out", str(tmp_path / "a")]) == 0
        assert main([*argv, "--out", str(tmp_path / "b")]) == 0
        assert main([*argv, "--out", str(tmp_path / "c")]) == 0
        first, second, third = ((tmp_path / f"{n}.csv").read_bytes() for n in "abc")
        assert first != second == third
        capsys.readouterr()
        outputs = []
        for argv in (["state", "--b", "3"], ["state"], ["state"]):
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] != outputs[1] == outputs[2]

    def test_main_callable_directly(self, tmp_path, capsys):
        code = main(["sweep", "--points", "4", "--out", str(tmp_path / "m.csv")])
        assert code == 0
        assert "wrote" in capsys.readouterr().out
