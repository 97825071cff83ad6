"""Acceptance gate: every shipped guarantee at its stated tolerance.

Each test prints one PASS/FAIL line (visible with `pytest -v -s`) and
asserts the same condition, so the suite doubles as a checklist.
"""

import math
import subprocess
import sys
import time

import numpy as np
import pytest

from mqdimer import (
    DimerParams,
    analytic_intensities,
    concurrence_analytic,
    concurrence_from_intensities,
    concurrence_numeric,
    decompose,
    evolve_analytic,
    evolve_numeric,
    ht_reference,
    initial_polarization,
    initial_state,
    intensity,
    minimize_conditional_entropy,
    conditional_entropy_many,
)
from mqdimer.cli import PRESETS
from mqdimer.linalg import kron
from mqdimer.sweep import SweepConfig, read_csv, run_sweep

from oracles import (
    bell_phi_plus,
    dense_grid_min,
    haar_unitary,
    optimizer_discord,
    random_amplitudes,
    random_density_matrix,
    random_directions,
)

ISQ = 1.0 / math.sqrt(2.0)

N_DRAWS = 1000
_rng = np.random.default_rng(20250808)
DRAWS = []
for _ in range(N_DRAWS):
    _alpha, _beta = random_amplitudes(_rng)
    DRAWS.append(
        (
            DimerParams(_alpha, _beta, float(_rng.uniform(0.0, 15.0))),
            float(_rng.uniform(0.0, 2.0 * math.pi)),
        )
    )

# smooth-minimum states for the dense-grid comparison; the balanced
# alpha = beta family touches entropy zero with a log-singular landscape
# there, which a 1024 x 2048 grid only brackets to about 1e-5
SPOT_CHECK_STATES = [
    (1.0, 0.0, b, tb) for b in (0.1, 0.5, 1.0, 3.0, 10.0) for tb in (1.1, 2.0)
]


def _report(num, label, ok, detail=""):
    print(f"ACCEPTANCE {num} {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} failed: {detail}"


def test_criterion_1_evolution_oracle():
    start = time.perf_counter()
    worst = 0.0
    for p, tb in DRAWS:
        diff = np.abs(
            evolve_analytic(p, tau_bar=tb) - evolve_numeric(initial_state(p), tau_bar=tb)
        ).max()
        worst = max(worst, float(diff))
    elapsed = time.perf_counter() - start
    _report(
        1,
        "closed-form evolution equals propagator conjugation",
        worst <= 1e-12 and elapsed < 1.0,
        f"max elementwise diff {worst:.2e} over {N_DRAWS} draws, {elapsed:.2f}s",
    )


def test_criterion_2_intensity_closed_forms():
    start = time.perf_counter()
    worst_even = 0.0
    worst_odd = 0.0
    for p, tb in DRAWS:
        rho_comps = decompose(evolve_analytic(p, tau_bar=tb))
        ht_comps = decompose(ht_reference(tau_bar=tb))
        prof = analytic_intensities(p, tau_bar=tb)
        worst_even = max(
            worst_even,
            abs(intensity(rho_comps, ht_comps, 0) - prof.g0),
            abs(intensity(rho_comps, ht_comps, 2) - prof.g_plus2),
            abs(intensity(rho_comps, ht_comps, -2) - prof.g_minus2),
        )
        worst_odd = max(
            worst_odd,
            abs(intensity(rho_comps, ht_comps, 1)),
            abs(intensity(rho_comps, ht_comps, -1)),
        )
    elapsed = time.perf_counter() - start
    _report(
        2,
        "matrix-path intensities equal closed forms, odd orders vanish",
        worst_even <= 1e-12 and worst_odd <= 1e-12 and elapsed < 1.0,
        f"even diff {worst_even:.2e}, odd magnitude {worst_odd:.2e}, {elapsed:.2f}s",
    )


def test_criterion_3_sum_rule():
    worst = 0.0
    for p, tb in DRAWS:
        prof = analytic_intensities(p, tau_bar=tb)
        total = prof.g0 + prof.g_plus2 + prof.g_minus2
        worst = max(worst, abs(total - initial_polarization(p)))
    _report(
        3,
        "total intensity is conserved at the initial polarization",
        worst <= 1e-12,
        f"max deviation {worst:.2e}",
    )


def test_criterion_4_concurrence_consistency():
    worst_numeric = 0.0
    worst_identity = 0.0
    for p, tb in DRAWS:
        rho = evolve_analytic(p, tau_bar=tb)
        c_ref = concurrence_analytic(p, tau_bar=tb)
        worst_numeric = max(worst_numeric, abs(concurrence_numeric(rho) - c_ref))
        j2 = analytic_intensities(p, tau_bar=tb).j2
        worst_identity = max(worst_identity, abs(concurrence_from_intensities(p, j2) - c_ref))
    bell_err = abs(concurrence_numeric(bell_phi_plus()) - 1.0)
    rng = np.random.default_rng(4)
    product_err = max(
        concurrence_numeric(kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2)))
        for _ in range(10)
    )
    ok = (
        worst_numeric <= 1e-10
        and worst_identity <= 1e-12
        and bell_err <= 1e-10
        and product_err <= 1e-10
    )
    _report(
        4,
        "spin-flip concurrence equals closed form and intensity identity",
        ok,
        f"numeric {worst_numeric:.2e}, identity {worst_identity:.2e}, "
        f"bell {bell_err:.2e}, product {product_err:.2e}",
    )


def test_criterion_5_fig1_reproduction(tmp_path):
    cfg = SweepConfig(**{**PRESETS["fig1"], "output_path": str(tmp_path / "fig1.csv")})
    start = time.perf_counter()
    (path,) = run_sweep(cfg)
    elapsed = time.perf_counter() - start
    data = read_csv(path)
    taus, j2, conc = data["tau_bar"], data["j2"], data["concurrence"]
    peak = math.exp(10.0) / (math.exp(10.0) + 1.0)

    idx_quarter = int(np.argmin(np.abs(taus - math.pi / 4.0)))
    idx_three_quarter = int(np.argmin(np.abs(taus - 3.0 * math.pi / 4.0)))
    peak_err = max(
        abs(j2[idx_quarter] - 0.9999546),
        abs(j2[idx_three_quarter] - 0.9999546),
        abs(conc[idx_quarter] - 0.9999546),
        abs(conc[idx_three_quarter] - 0.9999546),
    )
    peaks_coincide = int(np.argmax(j2)) in (idx_quarter, idx_three_quarter) and int(
        np.argmax(conc)
    ) in (idx_quarter, idx_three_quarter)

    zero_err = 0.0
    for target in (0.0, math.pi / 2.0, math.pi):
        idx = int(np.argmin(np.abs(taus - target)))
        zero_err = max(zero_err, abs(j2[idx]), abs(conc[idx]))

    ok = peak_err <= 1e-6 and peaks_coincide and zero_err <= 1e-9 and elapsed < 1.0
    _report(
        5,
        "fig1 preset: coincident peaks at quarter periods, zeros at nodes",
        ok,
        f"peak err {peak_err:.2e} vs {peak:.7f}, zero err {zero_err:.2e}, {elapsed:.2f}s",
    )


@pytest.mark.optimizer
def test_criterion_6_transverse_minimizer():
    start = time.perf_counter()
    p = DimerParams(ISQ, ISQ, 0.1)
    # flat objectives sit at tau_bar = 0 and pi where the state is a product
    taus = np.linspace(0.08, math.pi - 0.08, 50)
    worst_nx = worst_nz = 0.0
    worst_ny = 1.0
    for tb in taus:
        n, _ = minimize_conditional_entropy(evolve_analytic(p, tau_bar=float(tb)), measured=2)
        worst_nx = max(worst_nx, abs(n[0]))
        worst_nz = max(worst_nz, abs(n[2]))
        worst_ny = min(worst_ny, abs(n[1]))
    elapsed = time.perf_counter() - start
    ok = worst_nx <= 1e-3 and worst_nz <= 1e-3 and worst_ny >= 0.999 and elapsed < 30.0
    _report(
        6,
        "optimal measurement is transverse for weak polarization",
        ok,
        f"max |nx| {worst_nx:.1e}, max |nz| {worst_nz:.1e}, min |ny| {worst_ny:.6f}, "
        f"{elapsed:.1f}s for 50 samples",
    )


@pytest.mark.optimizer
def test_criterion_7_discord_properties():
    start = time.perf_counter()
    p_weak = DimerParams(ISQ, ISQ, 0.1)

    q_zero = optimizer_discord(evolve_analytic(p_weak, tau_bar=0.0), 2)
    ok_zero = q_zero <= 1e-9

    min_q = np.inf
    for tb in np.linspace(0.0, math.pi, 26):
        min_q = min(min_q, optimizer_discord(evolve_analytic(p_weak, tau_bar=float(tb)), 2))
    rng = np.random.default_rng(77)
    for _ in range(30):
        alpha, beta = random_amplitudes(rng)
        rho = evolve_analytic(
            DimerParams(alpha, beta, rng.uniform(0.0, 10.0)),
            tau_bar=rng.uniform(0.0, 2.0 * math.pi),
        )
        min_q = min(min_q, optimizer_discord(rho, 2))
    ok_nonneg = min_q >= -1e-9

    worst_mc = -np.inf
    worst_grid = 0.0
    for alpha, beta, b, tb in SPOT_CHECK_STATES:
        rho = evolve_analytic(DimerParams(alpha, beta, b), tau_bar=tb)
        _, found = minimize_conditional_entropy(rho, measured=2)
        sampled = float(conditional_entropy_many(rho, random_directions(rng, 10_000), 2).min())
        worst_mc = max(worst_mc, found - sampled)
        grid_value, _ = dense_grid_min(rho, measured=2, n_theta=1024, n_phi=2048)
        worst_grid = max(worst_grid, abs(found - grid_value))
    ok_mc = worst_mc <= 1e-9
    ok_grid = worst_grid <= 1e-7

    elapsed = time.perf_counter() - start
    ok = ok_zero and ok_nonneg and ok_mc and ok_grid and elapsed < 300.0
    _report(
        7,
        "discord vanishes at start, stays nonnegative, optimizer is audited",
        ok,
        f"q(0) {q_zero:.1e}, min q {min_q:.1e}, optimizer-vs-sampling {worst_mc:.1e}, "
        f"optimizer-vs-dense-grid {worst_grid:.1e} over {len(SPOT_CHECK_STATES)} states, "
        f"{elapsed:.0f}s",
    )


@pytest.mark.optimizer
def test_criterion_8_local_unitary_invariance():
    rng = np.random.default_rng(88)
    worst_c = 0.0
    worst_q = 0.0
    for _ in range(20):
        alpha, beta = random_amplitudes(rng)
        rho = evolve_analytic(
            DimerParams(alpha, beta, rng.uniform(0.0, 5.0)),
            tau_bar=rng.uniform(0.0, 2.0 * math.pi),
        )
        u = kron(haar_unitary(rng), haar_unitary(rng))
        rotated = u @ rho @ u.conj().T
        worst_c = max(worst_c, abs(concurrence_numeric(rotated) - concurrence_numeric(rho)))
        worst_q = max(worst_q, abs(optimizer_discord(rotated, 2) - optimizer_discord(rho, 2)))
    ok = worst_c <= 1e-9 and worst_q <= 1e-6
    _report(
        8,
        "concurrence and discord are invariant under local unitaries",
        ok,
        f"concurrence drift {worst_c:.2e}, discord drift {worst_q:.2e}, 20 trials",
    )


def test_criterion_9_cli_determinism(tmp_path):
    digests = {}
    for preset in ("fig1", "fig2"):
        runs = []
        for tag in ("x", "y"):
            out = tmp_path / f"{preset}_{tag}"
            proc = subprocess.run(
                [sys.executable, "-m", "mqdimer", preset, "--out", str(out)],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            runs.append((tmp_path / f"{preset}_{tag}.csv").read_bytes())
        digests[preset] = runs[0] == runs[1]
    ok = all(digests.values())
    _report(
        9,
        "bundled presets emit byte-identical CSVs across runs",
        ok,
        f"fig1 identical: {digests['fig1']}, fig2 identical: {digests['fig2']}",
    )
