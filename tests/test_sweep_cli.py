import hashlib
import json
import math
import re
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mqdimer import DimerParams, SweepConfig, analytic_intensities, concurrence_analytic, run_sweep
from mqdimer.cli import _sweep_config, build_parser, format_state, main, parse_amplitude
from mqdimer.errors import InvalidConfig
from mqdimer.sweep import _BLOCK_ROWS, CSV_HEADER, read_csv, write_csv, write_svg

from oracles import ref_polyline_points, ref_write_csv

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
                                       {"tau_bar_end": 1e308}],
                             ids=["tau_bar_start", "b", "quantities", "tau_bar_end 1e308"])
    def test_ill_typed_field_raises_invalid_config(self, tmp_path, field):
        with pytest.raises(InvalidConfig):
            run_sweep(SweepConfig(output_path=str(tmp_path / "out.csv"), **field))
        assert not (tmp_path / "out.csv").exists()

    @pytest.mark.parametrize("field", [
        {"points": True}, {"points": 4.0}, {"measured_subsystem": True},
        {"measured_subsystem": 1.5}, {"measured_subsystem": 2.0}, {"output_path": None},
        {"output_path": 5}, {"output_path": ""}, {"output_path": "."}, {"output_path": "a\0b"},
        {"output_path": "\ud800"}, {"tau_bar_start": True}, {"tau_bar_end": np.True_},
        {"measured_subsystem": np.array(2)},
    ], ids=ascii)
    def test_integer_and_path_fields_are_typed(self, field):
        with pytest.raises(InvalidConfig):
            SweepConfig(**field).check()

    def test_numpy_integer_measured_subsystem(self):
        SweepConfig(measured_subsystem=np.int64(1)).check()

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
    @pytest.mark.parametrize("kind", ["mixed signs", "negative", "flat zero", "flat negative"])
    def test_svg_polylines_match_reference(self, tmp_path, n, kind):
        rng = np.random.default_rng(n)
        taus = np.linspace(-3.0, 5.0, n) + rng.uniform(0.0, 1e-3)
        series = {
            "mixed signs": {"g0": rng.uniform(-1.0, 2.0, n), "j2": rng.standard_normal(n),
                            "concurrence": rng.uniform(0.0, 1.0, n)},
            "negative": {"g0": -rng.uniform(0.1, 1.0, n), "j2": -rng.uniform(1e-3, 3.0, n)},
            "flat zero": {"g0": np.zeros(n), "concurrence": np.zeros(n)},
            "flat negative": {"j2": np.full(n, -0.3)},
        }[kind]
        write_svg(tmp_path / "block.svg", taus, series)
        svg = (tmp_path / "block.svg").read_text()
        assert re.findall(r'<polyline points="([^"]*)"', svg) == ref_polyline_points(taus, series)


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
    ], ids=["ragged", "eight cells", "word", "hex float"])
    def test_malformed_rows_raise_invalid_config(self, tmp_path, rows):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join([CSV_HEADER, *rows]) + "\n")
        with pytest.raises(InvalidConfig):
            read_csv(path)


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
         "d27f95eb619b1b691fa7754ea6b082a82744160a49b61707338089d7356320ca"),
    ])
    def test_digest(self, tmp_path, argv, digest):
        assert main([*argv, "--out", str(tmp_path / "preset")]) == 0
        assert hashlib.sha256((tmp_path / "preset.csv").read_bytes()).hexdigest() == digest

    def test_svg_digest(self, tmp_path):
        assert main(["fig1", "--format", "both", "--out", str(tmp_path / "preset")]) == 0
        assert (hashlib.sha256((tmp_path / "preset.svg").read_bytes()).hexdigest()
                == "20b4dcd4a592f3e73f0cabc5f794c0eabc8b5eb47bdc55c5ca2291dcc69e9df7")


class TestCliProcess:
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

    def test_fig1_deterministic(self, tmp_path):
        pa, pb = tmp_path / "a", tmp_path / "b"
        assert run_cli("fig1", "--out", str(pa)).returncode == 0
        assert run_cli("fig1", "--out", str(pb)).returncode == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_fig2_reduced(self, tmp_path):
        out = tmp_path / "f2"
        proc = run_cli("fig2", "--points", "5", "--tau-end", "1.0", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        data = read_csv(tmp_path / "f2.csv")
        assert data["discord"] is not None
        assert data["g0"] is None

    def test_state_subcommand(self):
        proc = run_cli("state", "--alpha", "1", "--beta", "0", "--b", "10",
                       "--tau-bar", str(math.pi / 4.0))
        assert proc.returncode == 0
        assert "0.499977301i" in proc.stdout

    def test_sweep_with_config_and_override(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({
            "alpha": "1", "beta": "0", "b": 10.0,
            "tau_bar_start": 0.0, "tau_bar_end": 1.0,
            "points": 4, "quantities": ["g0"],
            "output_path": str(tmp_path / "from_config.csv"),
        }))
        proc = run_cli("sweep", "--config", str(cfg_file), "--points", "6")
        assert proc.returncode == 0, proc.stderr
        lines = (tmp_path / "from_config.csv").read_text().splitlines()
        assert len(lines) == 7  # flag overrides the config file

    def test_invalid_config_exit_codes(self, tmp_path):
        assert run_cli("sweep", "--points", "1").returncode == 2
        assert run_cli("sweep", "--tau-start", "1.0", "--tau-end", "0.0").returncode == 2
        assert run_cli("sweep", "--quantities", "bogus").returncode == 2
        assert run_cli("state", "--alpha", "1.0,x2").returncode == 2
        assert run_cli("sweep", "--alpha", "1", "--beta", "1").returncode == 2
        cfg_file = tmp_path / "bad.json"
        cfg_file.write_text("{\"mystery\": 1}")
        assert run_cli("sweep", "--config", str(cfg_file)).returncode == 2
        cfg_file.write_text("{\"b\": \"warm\"}")
        assert run_cli("sweep", "--config", str(cfg_file)).returncode == 2

    def test_non_finite_tau_bar_exit_code(self):
        for value in ("nan", "inf"):
            proc = run_cli("state", "--tau-bar", value)
            assert proc.returncode == 2, (value, proc.stdout)
            assert proc.stdout == ""

    def test_renormalize_must_be_json_bool(self, tmp_path):
        cfg_file = tmp_path / "cfg.json"
        cfg_file.write_text(json.dumps({"alpha": "2", "renormalize": "false", "points": 4,
                                        "output_path": str(tmp_path / "r.csv")}))
        proc = run_cli("sweep", "--config", str(cfg_file))
        assert proc.returncode == 2, proc.stderr
        assert not (tmp_path / "r.csv").exists()

    def test_io_error_exit_code(self):
        proc = run_cli("sweep", "--points", "4", "--out", "/no_such_dir_zz/x.csv")
        assert proc.returncode == 3

    def test_seed_flag_removed(self, tmp_path):
        proc = run_cli("sweep", "--points", "4", "--seed", "7",
                       "--out", str(tmp_path / "s.csv"))
        assert proc.returncode == 2
        assert "--seed" in proc.stderr
        assert not (tmp_path / "s.csv").exists()

    def test_svg_format(self, tmp_path):
        proc = run_cli("sweep", "--points", "8", "--format", "svg",
                       "--out", str(tmp_path / "pic"))
        assert proc.returncode == 0
        assert (tmp_path / "pic.svg").read_text().startswith("<svg")

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
