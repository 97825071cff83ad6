"""The four workloads: seeded inputs, the timed op, its traced replays and its output checks.

Each workload hands out its inputs in blocks. A block covers the input
distribution once (strata of time, size and kind), and a run only ends on a
block boundary, so two seeds see the same mix and differ in the draws inside
it. Every check returns a list of failure messages; an empty list passes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import math
import os
import resource
import subprocess
import tempfile
import threading
import zlib
from dataclasses import dataclass, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from mqdimer import (
    DimerParams,
    SweepConfig,
    analytic_intensities,
    concurrence_analytic,
    concurrence_numeric,
    conditional_entropy_many,
    discord,
    evolve_analytic,
    minimize_conditional_entropy,
    mutual_information,
    require_state,
    run_sweep,
)
from mqdimer import cli
from mqdimer.linalg import von_neumann_entropy
from mqdimer.sweep import CSV_COLUMNS, read_csv, write_csv, write_svg

#: eigenvalues above this count towards a state's numerical rank
RANK_TOL = 1e-9
#: number of random unit vectors that bound each minimized conditional entropy
CHECK_DIRECTIONS = 2000
#: back-to-back calls per replay span for functions that take microseconds
BATCH = 16
CSV_TOL = 1e-12
STATE_TOL = 1e-8
CHILD_TIMEOUT_S = 120.0

_THETAS = np.linspace(0.0, math.pi, 64)
_PHIS = np.linspace(0.0, 2.0 * math.pi, 128, endpoint=False)
_TT, _PP = np.meshgrid(_THETAS, _PHIS, indexing="ij")
#: the optimizer's own 64 x 128 (theta, phi) grid, replayed to time the batched kernel
GRID_DIRECTIONS = np.stack(
    [np.sin(_TT) * np.cos(_PP), np.sin(_TT) * np.sin(_PP), np.cos(_TT)], axis=-1
).reshape(-1, 3)
_Z = np.array([[0.0, 0.0, 1.0]])


@dataclass
class Context:
    """Where a run writes, and how it starts child interpreters."""

    work: Path
    python: str
    env: dict


@dataclass
class Child:
    code: int
    stdout: str
    stderr: str
    wall_s: float
    max_rss_mb: float


def run_child(ctx: Context, args: list[str], timeout: float = CHILD_TIMEOUT_S) -> Child:
    """Run one child interpreter to completion and return its own peak RSS."""
    with tempfile.TemporaryFile(dir=ctx.work) as out, tempfile.TemporaryFile(dir=ctx.work) as err:
        start = perf_counter()
        proc = subprocess.Popen([ctx.python, *args], cwd=ctx.work, env=ctx.env, stdout=out, stderr=err)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(proc.returncode, out.read().decode(), err.read().decode(), wall,
                     usage.ru_maxrss / 1024.0)


def rng_for(seed: int, *stream: str) -> np.random.Generator:
    """Independent generator per (seed, stream): inputs, check directions, probes."""
    return np.random.default_rng([seed, *(zlib.crc32(s.encode()) for s in stream)])


def unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.standard_normal((n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_amplitudes(rng: np.random.Generator) -> tuple[complex, complex]:
    z = rng.standard_normal(4)
    alpha, beta = complex(z[0], z[1]), complex(z[2], z[3])
    scale = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return alpha / scale, beta / scale


def numerical_rank(rho) -> int:
    return int((np.linalg.eigvalsh(rho) > RANK_TOL).sum())


class Workload:
    """A workload: `blocks(rng)` yields lists of inputs, `op(inp, tr)` is the
    timed call, `replay(inp, out, tr)` repeats parts of it in sibling spans to
    split its cost, `check(inp, out)` returns failure messages and
    `summary(done)` the workload's part of the run record."""

    name: str
    #: the span names its ops and replays record
    spans: set

    def __init__(self, ctx: Context, seed: int):
        self.ctx = ctx

    def peak_rss_mb(self) -> float:
        """Peak resident memory of the process doing the work: here, this one."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------- discord


@dataclass
class DiscordInput:
    measured: int
    params: DimerParams | None = None
    tau_bar: float | None = None
    rho: np.ndarray | None = None


@dataclass
class DiscordOutput:
    rho: np.ndarray
    result: object
    concurrence: float | None = None


def check_discord(rho, measured: int, res, directions: np.ndarray) -> list[str]:
    """Discord within [0, mutual], a unit best direction, and a minimum no worse
    than the best of an independent set of random directions."""
    errs = []
    if not res.q >= -1e-9:
        errs.append(f"q = {res.q!r} < -1e-9")
    if not res.q <= res.mutual + 1e-12:
        errs.append(f"q = {res.q!r} exceeds mutual information {res.mutual!r}")
    norm = float(np.linalg.norm(res.best_direction))
    if not abs(norm - 1.0) <= 1e-12:
        errs.append(f"|best_direction| = {norm!r}")
    bound = float(conditional_entropy_many(rho, directions, measured).min())
    if not res.min_cond_entropy <= bound + 1e-9:
        errs.append(f"min_cond_entropy {res.min_cond_entropy!r} above random-direction bound {bound!r}")
    return errs


def _replay_discord(rho, measured: int, tr) -> None:
    with tr.span("replay:dimer.require_state", BATCH):
        for _ in range(BATCH):
            require_state(rho)
    with tr.span("replay:discord.minimize_conditional_entropy"):
        minimize_conditional_entropy(rho, measured)
    with tr.span("replay:discord.conditional_entropy_many[grid]"):
        conditional_entropy_many(rho, GRID_DIRECTIONS, measured)
    with tr.span("replay:discord.conditional_entropy_many[1]", BATCH):
        for _ in range(BATCH):
            conditional_entropy_many(rho, _Z, measured)
    with tr.span("replay:discord.mutual_information", BATCH):
        for _ in range(BATCH):
            mutual_information(rho)
    with tr.span("replay:linalg.von_neumann_entropy", BATCH):
        for _ in range(BATCH):
            von_neumann_entropy(rho)


class _DiscordWorkload(Workload):
    block_size = 8

    def __init__(self, ctx: Context, seed: int):
        super().__init__(ctx, seed)
        self.directions = unit_vectors(rng_for(seed, "check"), CHECK_DIRECTIONS)

    def check(self, inp: DiscordInput, out: DiscordOutput) -> list[str]:
        return check_discord(out.rho, inp.measured, out.result, self.directions)

    def summary(self, done) -> dict:
        low = [numerical_rank(out.rho) <= 2 for _, out, _ in done]
        return {"rank_le_2_share": sum(low) / len(low)}


class DiscordEvolved(_DiscordWorkload):
    """evolve_analytic then discord; half fig2 family, half random parameters."""

    name = "discord_evolved"
    spans = {"discord.discord", "replay:dimer.evolve_analytic", "replay:dimer.require_state",
             "replay:discord.minimize_conditional_entropy",
             "replay:discord.conditional_entropy_many[grid]",
             "replay:discord.conditional_entropy_many[1]", "replay:discord.mutual_information",
             "replay:linalg.von_neumann_entropy"}
    FIG2 = DimerParams(1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0), 0.1)

    def blocks(self, rng: np.random.Generator):
        while True:
            block = []
            for i in range(self.block_size):
                measured = 1 + i % 2
                if (i // 2) % 2 == 0:
                    # fig2 family: tau_bar stratified over [0, pi]; a quarter sit
                    # on multiples of pi/4, where conditional entropies vanish
                    stratum = i // 4 * 2 + i % 2
                    tb = math.pi * (stratum + rng.random()) / 4.0
                    if rng.random() < 0.25:
                        tb = round(tb / (math.pi / 4.0)) * (math.pi / 4.0)
                    block.append(DiscordInput(measured, self.FIG2, tb))
                else:
                    alpha, beta = random_amplitudes(rng)
                    params = DimerParams(alpha, beta, 15.0 * rng.random())
                    block.append(DiscordInput(measured, params, 2.0 * math.pi * rng.random()))
            yield block

    def op(self, inp: DiscordInput, tr) -> DiscordOutput:
        with tr.span("dimer.evolve_analytic"):
            rho = evolve_analytic(inp.params, tau_bar=inp.tau_bar)
        with tr.span("discord.discord"):
            res = discord(rho, inp.measured)
        return DiscordOutput(rho, res)

    def replay(self, inp: DiscordInput, out: DiscordOutput, tr) -> None:
        with tr.span("replay:dimer.evolve_analytic", BATCH):
            for _ in range(BATCH):
                evolve_analytic(inp.params, tau_bar=inp.tau_bar)
        _replay_discord(out.rho, inp.measured, tr)


def random_mixed_state(rng: np.random.Generator, rank: int) -> np.ndarray:
    """Haar-random eigenbasis; the smallest nonzero eigenvalue is log-uniform in [1e-6, 1e-1]."""
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    spectrum = np.zeros(4)
    smallest = 10.0 ** rng.uniform(-6.0, -1.0)
    rest = rng.exponential(size=rank - 1)
    spectrum[: rank - 1] = (1.0 - smallest) * rest / rest.sum()
    spectrum[rank - 1] = smallest
    rho = (q * spectrum) @ q.conj().T
    rho = 0.5 * (rho + rho.conj().T)
    return rho / np.trace(rho).real


class DiscordGeneric(_DiscordWorkload):
    """concurrence_numeric then discord on random rank-3 and rank-4 states."""

    name = "discord_generic"
    spans = (DiscordEvolved.spans - {"replay:dimer.evolve_analytic"}) | {
        "replay:entanglement.concurrence_numeric"}

    def blocks(self, rng: np.random.Generator):
        while True:
            yield [DiscordInput(1 + i % 2, rho=random_mixed_state(rng, 3 + (i // 2) % 2))
                   for i in range(self.block_size)]

    def op(self, inp: DiscordInput, tr) -> DiscordOutput:
        with tr.span("entanglement.concurrence_numeric"):
            c = concurrence_numeric(inp.rho)
        with tr.span("discord.discord"):
            res = discord(inp.rho, inp.measured)
        return DiscordOutput(inp.rho, res, c)

    def replay(self, inp: DiscordInput, out: DiscordOutput, tr) -> None:
        with tr.span("replay:entanglement.concurrence_numeric", BATCH):
            for _ in range(BATCH):
                concurrence_numeric(inp.rho)
        _replay_discord(inp.rho, inp.measured, tr)

    def check(self, inp: DiscordInput, out: DiscordOutput) -> list[str]:
        errs = super().check(inp, out)
        if not 0.0 <= out.concurrence <= 1.0:
            errs.append(f"concurrence {out.concurrence!r} outside [0, 1]")
        return errs


# ---------------------------------------------------------------- sweeps


def closed_form_columns(cfg: SweepConfig) -> dict:
    """The CSV columns a sweep must hold, from the closed forms; None = must be empty."""
    taus = np.linspace(cfg.tau_bar_start, cfg.tau_bar_end, cfg.points)
    w1 = math.exp(-cfg.b) / (1.0 + math.exp(-cfg.b))
    f = abs(cfg.alpha) ** 2 * (1.0 - w1) - abs(cfg.beta) ** 2 * w1
    g2 = 0.5 * f * np.sin(2.0 * taus) ** 2
    cols = dict.fromkeys(CSV_COLUMNS)
    cols["tau_bar"] = taus
    if "g0" in cfg.quantities:
        cols["g0"] = f * np.cos(2.0 * taus) ** 2
    if "j2" in cfg.quantities:
        cols["g2"], cols["gm2"], cols["j2"] = g2, g2, 2.0 * g2
    if "concurrence" in cfg.quantities:
        cols["concurrence"] = np.abs(f * np.sin(2.0 * taus))
    return cols


def check_sweep(cfg: SweepConfig) -> list[str]:
    """Every CSV cell against the closed forms to CSV_TOL, unrequested columns empty,
    and one polyline per quantity in the SVG."""
    errs = []
    base = Path(cfg.output_path)
    csv_path = base.with_suffix(".csv")
    raw = csv_path.read_bytes()
    want = closed_form_columns(cfg)
    got = read_csv(csv_path)
    rows = [line.split(",") for line in raw.decode("ascii").splitlines()[1:]]
    if len(rows) != cfg.points or any(len(r) != len(CSV_COLUMNS) for r in rows):
        return [f"{csv_path.name}: expected {cfg.points} rows of {len(CSV_COLUMNS)} cells"]
    for j, name in enumerate(CSV_COLUMNS):
        if want[name] is None:
            if any(r[j] != "" for r in rows):
                errs.append(f"{csv_path.name}: unrequested column {name} is not empty")
        elif got[name] is None:
            errs.append(f"{csv_path.name}: column {name} has empty cells")
        else:
            worst = float(np.max(np.abs(got[name] - want[name])))
            if not worst <= CSV_TOL:
                errs.append(f"{csv_path.name}: column {name} off by {worst:.3e}")
    if cfg.format in ("svg", "both"):
        text = base.with_suffix(".svg").read_text(encoding="ascii")
        if not (text.startswith("<svg") and text.endswith("</svg>\n")):
            errs.append(f"{base.name}.svg is not a complete SVG document")
        if text.count("<polyline") != len(cfg.quantities):
            errs.append(f"{base.name}.svg: {text.count('<polyline')} polylines, "
                        f"expected {len(cfg.quantities)}")
    return errs


def random_sweep_fields(rng: np.random.Generator) -> dict:
    alpha, beta = random_amplitudes(rng)
    start = rng.uniform(0.0, 2.0 * math.pi)
    return dict(alpha=alpha, beta=beta, b=15.0 * rng.random(), tau_bar_start=start,
                tau_bar_end=start + rng.uniform(0.5, 2.0 * math.pi))


#: the seven non-empty subsets of the closed-form quantities; the full set last
SUBSETS = (("g0",), ("j2",), ("concurrence",), ("g0", "j2"), ("g0", "concurrence"),
           ("j2", "concurrence"), ("g0", "j2", "concurrence"))
#: log-uniform size strata of [1e2, 1e5], one per quantity subset
SWEEP_STRATA = len(SUBSETS)


def sweep_sizes(block: int) -> list[int]:
    """Sizes of one block: the same offset inside each of the seven log-uniform
    strata of [1e2, 1e5]. The offset walks a golden-ratio sequence from block
    to block, the same for every seed, so successive blocks fill the strata
    evenly and the ops around the median spread over a 2.7x range of sizes
    (a median of near-identical ops jumps with every swing of machine speed)."""
    offset = (0.5 + block * 0.6180339887498949) % 1.0
    return [round(10.0 ** (2.0 + 3.0 * (i + offset) / SWEEP_STRATA)) for i in range(SWEEP_STRATA)]


class SweepClosedForm(Workload):
    """One in-process run_sweep per op; g0, j2 and concurrence only, never discord.

    Every block pairs size stratum i with quantity subset i, and the largest
    sweep (every column) also writes the SVG: a fixed share of 1/7 "both".
    So block b costs the same whatever the seed, which draws the parameters,
    the tau_bar ranges and the order of the sweeps in a block.
    """

    name = "sweep_closed_form"
    spans = {"sweep.run_sweep", "replay:sweep.write_csv", "replay:sweep.write_svg",
             "replay:coherence.analytic_intensities", "replay:entanglement.concurrence_analytic"}

    def __init__(self, ctx: Context, seed: int):
        super().__init__(ctx, seed)
        self.count = 0

    def _config(self, rng, points, quantities, fmt) -> SweepConfig:
        self.count += 1
        return SweepConfig(points=points, quantities=quantities, format=fmt,
                           output_path=str(self.ctx.work / f"sweep{self.count}"),
                           **random_sweep_fields(rng))

    def blocks(self, rng: np.random.Generator):
        for b in itertools.count():
            block = [self._config(rng, n, SUBSETS[i], "both" if i == SWEEP_STRATA - 1 else "csv")
                     for i, n in enumerate(sweep_sizes(b))]
            yield [block[k] for k in rng.permutation(len(block))]

    def op(self, cfg: SweepConfig, tr) -> list:
        with tr.span("sweep.run_sweep", rows=cfg.points):
            return run_sweep(cfg)

    def replay(self, cfg: SweepConfig, out, tr) -> None:
        cols = read_csv(Path(cfg.output_path).with_suffix(".csv"))
        taus = cols.pop("tau_bar")
        with tr.span("replay:sweep.write_csv", rows=cfg.points):
            write_csv(self.ctx.work / "replay.csv", taus, cols)
        series = {q: cols[q] for q in cfg.quantities}
        with tr.span("replay:sweep.write_svg", rows=cfg.points):
            write_svg(self.ctx.work / "replay.svg", taus, series)
        p = cfg.params()
        picks = [float(t) for t in taus[:: max(1, len(taus) // BATCH)][:BATCH]]
        with tr.span("replay:coherence.analytic_intensities", len(picks)):
            for t in picks:
                analytic_intensities(p, tau_bar=t)
        with tr.span("replay:entanglement.concurrence_analytic", len(picks)):
            for t in picks:
                concurrence_analytic(p, tau_bar=t)

    def check(self, cfg: SweepConfig, out) -> list[str]:
        expected = [Path(cfg.output_path).with_suffix(s) for s in
                    {"csv": [".csv"], "both": [".csv", ".svg"]}[cfg.format]]
        if out != expected:
            return [f"run_sweep returned {out}, expected {expected}"]
        return check_sweep(cfg)

    def summary(self, done) -> dict:
        rows = sum(cfg.points for cfg, _, _ in done)
        # output bytes hashed in op order, one cumulative digest per block, so
        # that two runs of one seed agree on the blocks both completed
        digest, block_digests = hashlib.sha256(), []
        for k, (_, paths, _) in enumerate(done, 1):
            for path in paths:
                digest.update(path.read_bytes())
            if k % SWEEP_STRATA == 0:
                block_digests.append(digest.hexdigest())
        return {"rows": rows, "sha256_by_block": block_digests}


# ---------------------------------------------------------------- CLI


@dataclass
class CliInput:
    kind: str  # state, fig1, sweep or malformed
    argv: list
    expect_code: int
    expect: object = None  # (alpha, beta, b, tau_bar) for state, a SweepConfig for CSVs


def parse_state(stdout: str) -> np.ndarray:
    rows = stdout.splitlines()[1:5]
    return np.array([[complex(z.replace("i", "j")) for z in row.split()] for row in rows])


def check_cli(inp: CliInput, code: int, stdout: str) -> list[str]:
    """Exit code as expected; state within STATE_TOL of evolve_analytic; CSVs exact."""
    if code != inp.expect_code:
        return [f"{' '.join(inp.argv)}: exit {code}, expected {inp.expect_code}"]
    if inp.kind == "state":
        alpha, beta, b, tau_bar = inp.expect
        want = evolve_analytic(DimerParams(alpha, beta, b), tau_bar=tau_bar)
        try:
            got = parse_state(stdout)
        except ValueError:
            return [f"{' '.join(inp.argv)}: unreadable state output"]
        if got.shape != (4, 4) or not np.all(np.abs(got - want) <= STATE_TOL):
            return [f"{' '.join(inp.argv)}: state differs from evolve_analytic"]
    if inp.kind in ("fig1", "sweep"):
        return check_sweep(inp.expect)
    return []


def _amp(z: complex, form: str) -> str:
    if form == "real":
        return repr(z.real)
    if form == "cartesian":
        return f"{z.real!r},{z.imag!r}"
    return f"{abs(z)!r}@{math.degrees(math.atan2(z.imag, z.real))!r}"


def _literal(text: str) -> complex:
    """The amplitude a literal denotes, read independently of the CLI's parser."""
    if "@" in text:
        mag, _, deg = text.partition("@")
        phase = math.radians(float(deg))
        return float(mag) * complex(math.cos(phase), math.sin(phase))
    re_part, _, im_part = text.partition(",")
    return complex(float(re_part), float(im_part or 0.0))


#: malformed invocations, each of which must exit 2; {out} is an output path
MALFORMED = (
    "state --b nan", "state --b inf", "state --b -inf", "state --alpha nan",
    "state --beta 0.6,inf", "state --alpha 1@2@3", "state --b -1",
    "sweep --tau-end inf --out {out}", "sweep --tau-start nan --out {out}",
    "sweep --points 1 --out {out}", "sweep --points abc --out {out}",
    "sweep --quantities g0,foo --out {out}", "sweep --alpha 0.5 --beta 0.5 --out {out}",
    "fig1 --b -1 --out {out}",
)
#: a documented defect: non-finite tau_bar prints a NaN matrix and exits 0
KNOWN_DEFECT = CliInput("malformed", ["state", "--tau-bar", "nan"], 2)


class CliShort(Workload):
    """One `python -m mqdimer` child per op: state, fig1, small sweeps, malformed."""

    name = "cli_short"
    spans = {"replay:cli.main"}

    def __init__(self, ctx: Context, seed: int):
        super().__init__(ctx, seed)
        self.count = 0
        self.max_rss_mb = 0.0

    def _out(self) -> str:
        self.count += 1
        return str(self.ctx.work / f"cli{self.count}")

    def _state(self, rng, form: str) -> CliInput:
        alpha, beta = random_amplitudes(rng)
        if form == "real":
            alpha, beta = complex(abs(alpha)), complex(abs(beta))
        b, tau_bar = 15.0 * rng.random(), 2.0 * math.pi * rng.random()
        # polar literals are scaled off the unit sphere, for --renormalize to undo
        scale = rng.uniform(0.2, 5.0) if form == "polar" else 1.0
        lit_a, lit_b = _amp(scale * alpha, form), _amp(scale * beta, form)
        # "--flag=value", since a literal may start with "-"
        argv = ["state", f"--alpha={lit_a}", f"--beta={lit_b}", f"--b={b!r}", f"--tau-bar={tau_bar!r}"]
        alpha, beta = _literal(lit_a), _literal(lit_b)
        if form == "polar":
            argv.append("--renormalize")
            norm = math.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
            alpha, beta = alpha / norm, beta / norm
        return CliInput("state", argv, 0, (alpha, beta, b, tau_bar))

    def _sweep(self, rng) -> CliInput:
        fields = random_sweep_fields(rng)
        cfg = SweepConfig(points=int(round(10.0 ** rng.uniform(1.0, math.log10(2000.0)))),
                          quantities=SUBSETS[rng.integers(len(SUBSETS))],
                          format="both" if rng.random() < 0.25 else "csv",
                          output_path=self._out(), **fields)
        argv = ["sweep", f"--alpha={_amp(cfg.alpha, 'cartesian')}",
                f"--beta={_amp(cfg.beta, 'cartesian')}", f"--b={cfg.b!r}",
                f"--tau-start={cfg.tau_bar_start!r}", f"--tau-end={cfg.tau_bar_end!r}",
                f"--points={cfg.points}", f"--quantities={','.join(cfg.quantities)}",
                f"--format={cfg.format}", f"--out={cfg.output_path}"]
        return CliInput("sweep", argv, 0, cfg)

    def blocks(self, rng: np.random.Generator):
        while True:
            out = self._out()
            fig1 = replace(SweepConfig(**cli.PRESETS["fig1"]), output_path=out)
            block = [self._state(rng, "real"), self._state(rng, "cartesian"),
                     self._state(rng, "polar"), CliInput("fig1", ["fig1", "--out", out], 0, fig1),
                     self._sweep(rng), self._sweep(rng)]
            for k in rng.choice(len(MALFORMED), size=2, replace=False):
                block.append(CliInput("malformed", MALFORMED[k].format(out=self._out()).split(), 2))
            yield [block[k] for k in rng.permutation(len(block))]

    def op(self, inp: CliInput, tr) -> Child:
        with tr.span("cli.subprocess"):
            child = run_child(self.ctx, ["-m", "mqdimer", *inp.argv])
        self.max_rss_mb = max(self.max_rss_mb, child.max_rss_mb)
        return child

    def replay(self, inp: CliInput, out: Child, tr) -> None:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with tr.span("replay:cli.main"):
                try:
                    cli.main(inp.argv)
                except SystemExit:
                    pass

    def check(self, inp: CliInput, out: Child) -> list[str]:
        return check_cli(inp, out.code, out.stdout)

    def peak_rss_mb(self) -> float:
        """The largest peak RSS of any op's child."""
        return self.max_rss_mb

    def summary(self, done) -> dict:
        child = run_child(self.ctx, ["-m", "mqdimer", *KNOWN_DEFECT.argv])
        errs = check_cli(KNOWN_DEFECT, child.code, child.stdout)
        return {"known_defects": [{"argv": KNOWN_DEFECT.argv, "expected_exit": 2,
                                   "exit": child.code, "reproduced": bool(errs)}]}


WORKLOADS = {w.name: w for w in (DiscordEvolved, DiscordGeneric, SweepClosedForm, CliShort)}
