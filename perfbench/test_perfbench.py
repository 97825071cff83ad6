"""Self-tests of the benchmark: a tiny run of every workload passes, and each
output check rejects a planted wrong value.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wls  # noqa: E402
from mqdimer import DimerParams, SweepConfig, discord, evolve_analytic, run_sweep  # noqa: E402
from mqdimer.cli import format_state  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload: str, trace: int) -> dict:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.001",
                         "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_tiny_run_passes(workload):
    result = tiny_run(workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_reports_every_layer():
    result = tiny_run("discord_generic", trace=1)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}


def test_benchmark_lists_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert set(run.WORKLOAD_NAMES) == set(wls.WORKLOADS)


def test_same_seed_same_inputs():
    def first_block(seed):
        return next(wls.DiscordGeneric(None, seed).blocks(wls.rng_for(seed, "inputs")))

    a, b, c = first_block(3), first_block(3), first_block(4)
    assert all(np.array_equal(x.rho, y.rho) for x, y in zip(a, b))
    assert not np.array_equal(a[0].rho, c[0].rho)


def small_sweep(tmp_path, **fields) -> SweepConfig:
    cfg = SweepConfig(alpha=0.6, beta=0.8j, b=2.5, tau_bar_start=0.3, tau_bar_end=2.9, points=50,
                      quantities=("g0", "concurrence"), output_path=str(tmp_path / "s"), **fields)
    run_sweep(cfg)
    return cfg


def test_sweep_check_rejects_a_perturbed_cell(tmp_path):
    cfg = small_sweep(tmp_path)
    assert wls.check_sweep(cfg) == []
    path = tmp_path / "s.csv"
    lines = path.read_text().splitlines()
    cells = lines[7].split(",")
    cells[1] = repr(float(cells[1]) + 1e-9)
    lines[7] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert any("column g0 off by" in e for e in wls.check_sweep(cfg))


def test_sweep_check_rejects_a_filled_unrequested_column(tmp_path):
    cfg = small_sweep(tmp_path)
    path = tmp_path / "s.csv"
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[4] = "0.0"  # j2 was not requested
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    assert any("unrequested column j2" in e for e in wls.check_sweep(cfg))


def test_sweep_check_rejects_a_missing_polyline(tmp_path):
    cfg = small_sweep(tmp_path, format="both")
    assert wls.check_sweep(cfg) == []
    svg = tmp_path / "s.svg"
    svg.write_text(svg.read_text().replace("<polyline", "<path", 1))
    assert any("polylines" in e for e in wls.check_sweep(cfg))


def test_discord_check_rejects_values_beyond_the_bounds():
    rho = evolve_analytic(DimerParams(0.6, 0.8j, 1.0), tau_bar=0.7)
    res = discord(rho, 2)
    dirs = wls.unit_vectors(np.random.default_rng(0), wls.CHECK_DIRECTIONS)
    assert wls.check_discord(rho, 2, res, dirs) == []
    bound = float(wls.conditional_entropy_many(rho, dirs, 2).min())
    planted = [
        dataclasses.replace(res, min_cond_entropy=bound + 1e-6),
        dataclasses.replace(res, q=-1e-6),
        dataclasses.replace(res, q=res.mutual + 1e-6),
        dataclasses.replace(res, best_direction=1.001 * res.best_direction),
    ]
    for bad in planted:
        assert wls.check_discord(rho, 2, bad, dirs), bad


def test_cli_check_rejects_a_wrong_exit_code_or_state():
    alpha, beta, b, tau_bar = 0.6 + 0j, 0.8j, 1.5, 0.7
    inp = wls.CliInput("state", ["state"], 0, (alpha, beta, b, tau_bar))
    good = format_state(alpha, beta, b, tau_bar)
    assert wls.check_cli(inp, 0, good) == []
    assert wls.check_cli(inp, 2, good)
    assert wls.check_cli(inp, 0, good.replace("0.220630487", "0.220630587"))
    assert wls.check_cli(inp, 0, format_state(alpha, beta, b, math.nan))
    malformed = wls.CliInput("malformed", ["state", "--b=nan"], 2)
    assert wls.check_cli(malformed, 2, "") == []
    assert wls.check_cli(malformed, 0, "")
