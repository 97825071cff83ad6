import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mqdimer import (
    DimerParams,
    classical_correlations,
    concurrence_numeric,
    conditional_entropy,
    conditional_entropy_many,
    concurrence_analytic,
    direction,
    discord,
    discord_curve,
    evolve_analytic,
    initial_state,
    minimize_conditional_entropy,
    mutual_information,
    projector_pair,
    require_state,
)
from mqdimer.errors import BadSubsystemId, InvalidParams, NotAState, NotUnitVector
from mqdimer.linalg import PAULI_X, PAULI_Y, PAULI_Z, kron, von_neumann_entropy

from oracles import (
    bell_phi_plus,
    bloch_conditional_entropy,
    haar_unitary,
    lifted_conditional_entropy,
    random_amplitudes,
    random_density_matrix,
    random_directions,
    random_rank_state,
    rank2_min_cond_entropy,
    ref_entropy_bits,
    ref_partial_trace,
    ref_pauli_correlations,
    zoomed_grid_min,
)

ISQ = 1.0 / math.sqrt(2.0)

# pinned with an independent dense-grid plus local-refinement oracle; the
# minimizing measurement for this state leaves the unmeasured spin pure,
# so the minimal conditional entropy is exactly zero
FIG2_STATE_PARAMS = (ISQ, ISQ, 0.1)
FIG2_TAU_BAR = math.pi / 4.0
GOLDEN_MIN_COND_ENTROPY = 0.0
GOLDEN_MUTUAL = 0.6007653335525867
GOLDEN_CLASSICAL = 0.6003149136141795
GOLDEN_DISCORD = 4.504199384071095e-04


def fig2_state():
    alpha, beta, b = FIG2_STATE_PARAMS
    return evolve_analytic(DimerParams(alpha, beta, b), tau_bar=FIG2_TAU_BAR)


class TestProjectorPair:
    def test_z_axis(self):
        plus, minus = projector_pair([0.0, 0.0, 1.0])
        assert_allclose(plus, np.diag([1.0, 0.0]), atol=0)
        assert_allclose(minus, np.diag([0.0, 1.0]), atol=0)

    def test_y_axis(self):
        plus, _ = projector_pair([0.0, 1.0, 0.0])
        assert_allclose(plus, np.array([[0.5, -0.5j], [0.5j, 0.5]]), atol=0)

    def test_x_axis(self):
        plus, minus = projector_pair([1.0, 0.0, 0.0])
        assert_allclose(plus, np.full((2, 2), 0.5), atol=0)
        assert_allclose(minus, np.array([[0.5, -0.5], [-0.5, 0.5]]), atol=0)

    def test_projector_algebra(self):
        rng = np.random.default_rng(61)
        for n in random_directions(rng, 25):
            plus, minus = projector_pair(n)
            for pi in (plus, minus):
                assert np.max(np.abs(pi @ pi - pi)) <= 1e-14
                assert abs(np.trace(pi) - 1.0) <= 1e-14  # rank 1
            assert np.max(np.abs(plus + minus - np.eye(2))) <= 1e-15

    def test_rejects_off_sphere(self):
        with pytest.raises(NotUnitVector):
            projector_pair([0.0, 0.0, 0.9])


class TestDirectionInputs:
    """A direction that is NaN, a string or empty raises NotUnitVector, never a number."""

    RHO = np.eye(4) / 4.0

    def test_nan_direction_in_a_batch(self):
        with pytest.raises(NotUnitVector):
            conditional_entropy_many(self.RHO, [[math.nan, 0.0, 0.0]])

    def test_nan_direction(self):
        with pytest.raises(NotUnitVector):
            conditional_entropy(self.RHO, [math.nan] * 3)

    def test_nan_projector_direction(self):
        with pytest.raises(NotUnitVector):
            projector_pair([math.nan, 0.0, 0.0])

    def test_string_direction(self):
        with pytest.raises(NotUnitVector):
            projector_pair("x")
        with pytest.raises(NotUnitVector):
            conditional_entropy(self.RHO, "x")

    def test_empty_batch(self):
        with pytest.raises(NotUnitVector):
            conditional_entropy_many(self.RHO, np.zeros((0, 3)))

    @pytest.mark.parametrize("n", [["1", "0", "0"], np.array([1.0 + 1j, 0.0, 0.0]), [10**400, 0, 0],
                                   [None, 0.0, 1.0], [[1.0, 0.0, 0.0], [1.0]], [True, 0, 0],
                                   [[0, 0, np.True_]]], ids=repr)
    def test_non_real_direction(self, n):
        # converting these would read text or bools, drop an imaginary part or overflow
        with pytest.raises(NotUnitVector):
            projector_pair(n)


class TestDirectionAngles:
    def test_angles(self):
        assert_allclose(direction(0.5 * math.pi, 0.0), [1.0, 0.0, 0.0], atol=1e-16)
        assert np.array_equal(direction(np.float32(0.5), 1), direction(float(np.float32(0.5)), 1.0))

    @pytest.mark.parametrize("theta, phi", [
        (math.nan, 0.0), (0.0, math.inf), ("x", 0.0), (0.0, np.array([0.1, 0.2])), (True, 0.0),
        (0.0, None),
    ], ids=["nan", "inf", "word", "array", "bool", "none"])
    def test_rejects_what_is_not_a_finite_number(self, theta, phi):
        with pytest.raises(InvalidParams):
            direction(theta, phi)


class TestConditionalEntropy:
    def test_product_state_pure_remainder(self):
        # spin 1 is pure before evolution, so measuring spin 2 leaves entropy 0
        rho = initial_state(DimerParams(0.6, 0.8, 1.2))
        rng = np.random.default_rng(67)
        for n in random_directions(rng, 10):
            assert conditional_entropy(rho, n, measured=2) <= 1e-12

    def test_maximally_mixed(self):
        rng = np.random.default_rng(71)
        for n in random_directions(rng, 5):
            for side in (1, 2):
                assert_allclose(conditional_entropy(np.eye(4) / 4.0, n, side), 1.0, atol=1e-12)

    def test_golden_transverse_measurement(self):
        value = conditional_entropy(fig2_state(), [0.0, 1.0, 0.0], measured=2)
        assert abs(value - GOLDEN_MIN_COND_ENTROPY) <= 1e-12

    def test_matches_independent_closed_form(self):
        rng = np.random.default_rng(73)
        worst = 0.0
        for _ in range(60):
            rho = random_density_matrix(rng)
            n = random_directions(rng, 1)[0]
            for side in (1, 2):
                a = conditional_entropy(rho, n, side)
                b = bloch_conditional_entropy(rho, n, side)[0]
                worst = max(worst, abs(a - b))
        assert worst <= 1e-12

    def test_batched_matches_scalar(self):
        rng = np.random.default_rng(79)
        rho = random_density_matrix(rng)
        dirs = random_directions(rng, 40)
        for side in (1, 2):
            batched = conditional_entropy_many(rho, dirs, side)
            scalar = np.array([lifted_conditional_entropy(rho, n, side) for n in dirs])
            assert np.max(np.abs(batched - scalar)) <= 1e-13

    def test_antipodal_symmetry_exact(self):
        rng = np.random.default_rng(83)
        rho = random_density_matrix(rng)
        for n in random_directions(rng, 10):
            assert conditional_entropy(rho, n) == conditional_entropy(rho, -n)

    def test_input_validation(self):
        rho = np.eye(4) / 4.0
        with pytest.raises(NotUnitVector):
            conditional_entropy(rho, [1.0, 1.0, 0.0])
        with pytest.raises(BadSubsystemId):
            conditional_entropy(rho, [0.0, 0.0, 1.0], measured=0)
        with pytest.raises(NotAState):
            conditional_entropy(np.eye(4), [0.0, 0.0, 1.0])


class TestMinimizeConditionalEntropy:
    def test_flat_product_state(self):
        rho = initial_state(DimerParams(1.0, 0.0, 2.0))
        n, value = minimize_conditional_entropy(rho, measured=2)
        assert value <= 1e-12
        assert abs(np.linalg.norm(n) - 1.0) <= 1e-12

    def test_transverse_optimum(self):
        n, value = minimize_conditional_entropy(fig2_state(), measured=2)
        assert abs(n[0]) <= 1e-3 and abs(n[2]) <= 1e-3 and abs(n[1]) >= 0.999
        assert value <= 1e-12

    def test_classically_correlated_state(self):
        rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        n, value = minimize_conditional_entropy(rho, measured=2)
        assert value <= 1e-9
        assert abs(abs(n[2]) - 1.0) <= 1e-6

    def test_monte_carlo_lower_bound(self):
        rng = np.random.default_rng(89)
        for _ in range(3):
            alpha, beta = random_amplitudes(rng)
            rho = evolve_analytic(
                DimerParams(alpha, beta, rng.uniform(0.0, 5.0)),
                tau_bar=rng.uniform(0.0, 2.0 * math.pi),
            )
            _, value = minimize_conditional_entropy(rho, measured=2)
            sampled = conditional_entropy_many(rho, random_directions(rng, 10_000), 2)
            assert value <= float(sampled.min()) + 1e-9

    def test_deterministic(self):
        rho = fig2_state()
        n1, v1 = minimize_conditional_entropy(rho)
        n2, v2 = minimize_conditional_entropy(rho)
        assert v1 == v2 and np.array_equal(n1, n2)

    def test_transverse_optimum_across_weak_polarizations(self):
        for b in (0.01, 0.05, 0.1):
            p = DimerParams(ISQ, ISQ, b)
            for tb in np.linspace(0.08, math.pi - 0.08, 17):
                rho = evolve_analytic(p, tau_bar=float(tb))
                n, _ = minimize_conditional_entropy(rho, measured=2)
                assert abs(n[0]) <= 1e-3, (b, tb, n)
                assert abs(n[2]) <= 1e-3, (b, tb, n)
                assert abs(n[1]) >= 0.999, (b, tb, n)


class TestOptimizerOnGenericStates:
    """Rank-3/4 states, where no closed form replaces the optimizer."""

    # (rank, smallest eigenvalue) per seeded state; each spin is measured
    SPECTRA = ((3, 1e-6), (4, 1e-6), (3, 1e-3), (4, 1e-4))

    @pytest.fixture(scope="class")
    def states(self):
        rng = np.random.default_rng(2024)
        return [random_rank_state(rng, rank, smallest) for rank, smallest in self.SPECTRA]

    def test_spectra(self, states):
        for (rank, smallest), rho in zip(self.SPECTRA, states):
            eig = np.linalg.eigvalsh(rho)
            assert np.sum(eig > 1e-12) == rank
            assert abs(eig[4 - rank] - smallest) <= 1e-12

    def test_monte_carlo_lower_bound(self, states):
        rng = np.random.default_rng(2025)
        for rho in states:
            for side in (1, 2):
                _, value = minimize_conditional_entropy(rho, measured=side)
                sampled = conditional_entropy_many(rho, random_directions(rng, 10_000), side)
                assert value <= float(sampled.min()) + 1e-9, side

    def test_matches_zoomed_dense_grid(self, states):
        # each spin is measured on a rank-3 and a rank-4 state
        for rho, side in zip(states, (1, 2, 2, 1)):
            _, value = minimize_conditional_entropy(rho, measured=side)
            grid_value, _ = zoomed_grid_min(rho, measured=side)
            assert abs(value - grid_value) <= 1e-7, side

    def test_minimum_near_the_pole(self, states):
        # a local unitary on the measured spin carries the optimum to 2e-4 rad
        # from +z, where (theta, phi) degenerates; the minimum must not move
        for k, (rho, side) in enumerate(zip(states, (1, 2, 2, 1))):
            n_star, value = minimize_conditional_entropy(rho, measured=side)
            phi = 0.7 + 1.5 * k
            target = np.array([2e-4 * math.cos(phi), 2e-4 * math.sin(phi), 1.0])
            u = _spin_rotation(n_star, target / np.linalg.norm(target))
            lift = kron(u, np.eye(2)) if side == 1 else kron(np.eye(2), u)
            _, rotated = minimize_conditional_entropy(lift @ rho @ lift.conj().T, measured=side)
            assert abs(rotated - value) <= 1e-10, (k, rotated - value)


def _spin_rotation(a, b):
    """SU(2) element whose Bloch rotation carries unit vector a onto b."""
    axis = np.cross(a, b)
    angle = math.atan2(np.linalg.norm(axis), float(a @ b))
    axis /= np.linalg.norm(axis)
    pol = axis[0] * PAULI_X + axis[1] * PAULI_Y + axis[2] * PAULI_Z
    return math.cos(angle / 2.0) * np.eye(2) - 1j * math.sin(angle / 2.0) * pol


def test_module_is_not_shadowed_by_the_function():
    import mqdimer
    import mqdimer.correlations

    assert mqdimer.correlations.discord is mqdimer.discord is discord


def test_import_leaves_scipy_out():
    """Nor mpmath and sympy: a stray import of a package that CI lacks fails here first."""
    absent = ("scipy", "mpmath", "sympy")
    proc = subprocess.run(
        [sys.executable, "-c", f"import sys, mqdimer; print([m for m in {absent} if m in sys.modules])"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


class TestMutualInformation:
    def test_product_state(self):
        rng = np.random.default_rng(97)
        rho = kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
        assert abs(mutual_information(rho)) <= 1e-12

    def test_bell_state(self):
        assert_allclose(mutual_information(bell_phi_plus()), 2.0, atol=1e-12)

    def test_cold_limit_becomes_maximally_entangled(self):
        rho = evolve_analytic(DimerParams(1.0, 0.0, 30.0), tau_bar=math.pi / 4.0)
        assert abs(mutual_information(rho) - 2.0) <= 1e-4

    def test_golden_state(self):
        assert_allclose(mutual_information(fig2_state()), GOLDEN_MUTUAL, atol=1e-9)


class TestClassicalCorrelations:
    def test_product_state(self):
        rho = initial_state(DimerParams(1.0, 0.0, 1.5))
        assert abs(classical_correlations(rho, measured=2)) <= 1e-9

    def test_bell_state(self):
        assert_allclose(classical_correlations(bell_phi_plus(), 2), 1.0, atol=1e-9)

    def test_classical_mixture(self):
        rho = np.diag([0.5, 0.0, 0.0, 0.5]).astype(complex)
        assert_allclose(classical_correlations(rho, 2), 1.0, atol=1e-9)
        assert discord(rho, 2).q <= 1e-9

    def test_golden_state(self):
        assert_allclose(classical_correlations(fig2_state(), 2), GOLDEN_CLASSICAL, atol=1e-9)


class TestDiscord:
    def test_zero_before_evolution(self):
        rng = np.random.default_rng(101)
        alpha, beta = random_amplitudes(rng)
        rho = evolve_analytic(DimerParams(alpha, beta, 0.7), tau_bar=0.0)
        assert discord(rho, measured=2).q <= 1e-9

    def test_bell_state(self):
        assert_allclose(discord(bell_phi_plus(), 2).q, 1.0, atol=1e-9)

    def test_golden_state(self):
        result = discord(fig2_state(), measured=2)
        assert_allclose(result.q, GOLDEN_DISCORD, atol=1e-9)
        assert result.min_cond_entropy <= 1e-12
        assert result.measured_subsystem == 2

    def test_result_is_consistent(self):
        result = discord(fig2_state(), measured=2)
        assert abs(result.q - (result.mutual - result.classical)) <= 1e-12
        assert result.q >= 0.0
        assert abs(np.linalg.norm(result.best_direction) - 1.0) <= 1e-12

    def test_product_states_have_no_discord(self):
        rng = np.random.default_rng(103)
        for _ in range(10):
            rho = kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
            assert discord(rho, 2).q <= 1e-9

    def test_nonnegative_on_evolved_states(self):
        rng = np.random.default_rng(107)
        for _ in range(15):
            alpha, beta = random_amplitudes(rng)
            rho = evolve_analytic(
                DimerParams(alpha, beta, rng.uniform(0.0, 10.0)),
                tau_bar=rng.uniform(0.0, 2.0 * math.pi),
            )
            assert discord(rho, 2).q >= -1e-9

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(109)
        for _ in range(5):
            alpha, beta = random_amplitudes(rng)
            rho = evolve_analytic(
                DimerParams(alpha, beta, rng.uniform(0.0, 5.0)),
                tau_bar=rng.uniform(0.0, 2.0 * math.pi),
            )
            u = kron(haar_unitary(rng), haar_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert abs(discord(rotated, 2).q - discord(rho, 2).q) <= 1e-6

    def test_both_sides_measurable(self):
        rho = fig2_state()
        r1 = discord(rho, measured=1)
        r2 = discord(rho, measured=2)
        assert r1.measured_subsystem == 1 and r2.measured_subsystem == 2
        assert r1.q >= -1e-9 and r2.q >= -1e-9


def recorded_eigensolves(monkeypatch) -> list:
    """Record (name, matrix shape) of every np.linalg.eigh and eigvalsh call from now on."""
    solves = []
    for name in ("eigh", "eigvalsh"):
        def spy(m, *args, _name=name, _inner=getattr(np.linalg, name), **kwargs):
            solves.append((_name, np.shape(m)))
            return _inner(m, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, spy)
    return solves


class TestDiscordPipeline:
    """discord and the functions that give its parts share one checked pipeline."""

    @pytest.fixture(scope="class")
    def states(self):
        rng = np.random.default_rng(4242)
        return [random_rank_state(rng, rank, smallest)
                for rank in (2, 3, 4) for smallest in (1e-5, 0.05)]

    def test_parts_match_bit_for_bit(self, states):
        for rho in states:
            for side in (1, 2):
                result = discord(rho, side)
                best_dir, min_ce = minimize_conditional_entropy(rho, side)
                assert result.mutual == mutual_information(rho)
                assert result.classical == classical_correlations(rho, side)
                assert result.min_cond_entropy == min_ce
                assert np.array_equal(result.best_direction, best_dir)

    @pytest.mark.parametrize("rho, measured, error", [
        ("x", 2, NotAState),
        ([[1.0, 0.0], [0.0]], 2, NotAState),
        (np.eye(4) / 4.0, np.array([1, 2]), BadSubsystemId),
        (np.eye(4) / 4.0, True, BadSubsystemId),
        (np.eye(4) / 4.0, 2.0, BadSubsystemId),
        (np.eye(4) / 4.0, np.array(2), BadSubsystemId),
    ], ids=["word", "ragged", "array spin", "bool spin", "float spin", "0-d array spin"])
    def test_ill_typed_inputs_raise_typed_errors(self, rho, measured, error):
        for call in (discord, classical_correlations, minimize_conditional_entropy):
            with pytest.raises(error):
                call(rho, measured)
        with pytest.raises(error):
            conditional_entropy_many(rho, [0.0, 0.0, 1.0], measured)

    def test_numpy_integer_spin(self, states):
        result, plain = discord(states[0], np.int64(2)), discord(states[0], 2)
        assert result.q == plain.q and result.mutual == plain.mutual
        assert type(result.measured_subsystem) is int and result.measured_subsystem == 2

    def test_checks_its_inputs_once(self, states, monkeypatch):
        """One state check, one spin check, and one eigensolve of the 4x4 state per
        discord call; S(rho) reuses that spectrum, the one-spin entropies need no
        solve, and the public von_neumann_entropy is not called."""
        import mqdimer.correlations as corr
        import mqdimer.linalg as linalg

        calls = {"_checked_state": 0, "_spin_label": 0, "von_neumann_entropy": 0}

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(corr, "_checked_state")
        counted(corr, "_spin_label")
        counted(linalg, "von_neumann_entropy")
        solves = recorded_eigensolves(monkeypatch)
        discord(states[0], 1)
        assert calls == {"_checked_state": 1, "_spin_label": 1, "von_neumann_entropy": 0}
        assert solves == [("eigh", (4, 4))]
        assert not hasattr(corr, "partial_trace")

    @pytest.mark.parametrize("call", [
        lambda rho: discord(rho, 1), lambda rho: discord(rho, 2), mutual_information,
        lambda rho: conditional_entropy_many(rho, [[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]], 1),
        lambda rho: minimize_conditional_entropy(rho, 2),
    ], ids=["discord spin 1", "discord spin 2", "mutual_information",
            "conditional_entropy_many", "minimize_conditional_entropy"])
    def test_one_pauli_table_per_call(self, states, monkeypatch, call):
        """Both spins are read from one Pauli table per call, built from the checked state
        whose eigh is the call's only solve."""
        import mqdimer.correlations as corr

        tables, inner = [], corr._pauli_table
        monkeypatch.setattr(corr, "_pauli_table", lambda rho: tables.append(rho.shape) or inner(rho))
        solves = recorded_eigensolves(monkeypatch)
        call(states[0])
        assert tables == [(4, 4)]
        assert solves == [("eigh", (4, 4))]

    @pytest.mark.parametrize("call", [
        mutual_information, concurrence_numeric, von_neumann_entropy, require_state,
    ], ids=lambda call: call.__name__)
    def test_one_4x4_eigensolve_per_state_quantity(self, states, monkeypatch, call):
        # the state check's eigh is the only solve
        solves = recorded_eigensolves(monkeypatch)
        for rho in states[::2]:
            solves.clear()
            call(rho)
            assert solves == [("eigh", (4, 4))]


def spot_states() -> dict:
    """Seeded evolved states and random rank-2/3/4 states, then edge cases: I/4, a Bell
    state, a pure product state and evolved pure (rank-1) states at b = 800."""
    rng = np.random.default_rng(1701)
    states = {f"evolved {i}": evolve_analytic(
        DimerParams(*random_amplitudes(rng), rng.uniform(0.0, 8.0)),
        tau_bar=rng.uniform(0.0, 2.0 * math.pi)) for i in range(8)}
    states.update({f"rank {rank}, smallest {smallest}": random_rank_state(rng, rank, smallest)
                   for rank in (2, 3, 4) for smallest in (1e-5, 0.05)})
    states.update({"I/4": np.eye(4) / 4.0, "Bell": bell_phi_plus(),
                   "pure product": initial_state(DimerParams(0.6, 0.8j, 800.0))})
    states.update({f"pure, b 800, tau_bar {tb:.3f}": evolve_analytic(
        DimerParams(ISQ, ISQ, 800.0), tau_bar=tb) for tb in (math.pi / 8.0, math.pi / 4.0, 1.0)})
    return states


SPOT_STATES = spot_states()


class TestOneSpinEntropies:
    """The one-spin entropies that discord reads from its Pauli table, against the
    oracle's partial traces and their eigenvalues."""

    @pytest.mark.parametrize("name", SPOT_STATES)
    def test_match_the_partial_trace_oracle(self, name):
        rho = SPOT_STATES[name]
        s1, s2 = (ref_entropy_bits(ref_partial_trace(rho, keep)) for keep in (1, 2))
        mutual = s1 + s2 - ref_entropy_bits(rho)
        assert abs(mutual_information(rho) - mutual) <= 1e-13
        for measured, unmeasured in ((1, s2), (2, s1)):
            result = discord(rho, measured)
            assert abs(result.mutual - mutual) <= 1e-13
            assert abs(result.classical + result.min_cond_entropy - unmeasured) <= 1e-13


class TestPauliTable:
    """The one table the correlation layer reads, T_ab = Tr rho (sigma_a x sigma_b), against
    the oracle's one kron and trace per entry."""

    def test_matches_the_kron_trace_oracle(self):
        from mqdimer.correlations import _pauli_table

        rng = np.random.default_rng(2008)
        states = [random_density_matrix(rng) for _ in range(20)]
        states += [random_rank_state(rng, rank, 1e-3) for rank in (2, 3, 4) for _ in range(5)]
        for rho in states + list(SPOT_STATES.values()):
            r, s, t = ref_pauli_correlations(rho)
            expected = np.block([[np.ones((1, 1)), s[None, :]], [r[:, None], t]])
            assert np.abs(_pauli_table(np.asarray(rho, dtype=complex)) - expected).max() <= 1e-14


def rank2_audit_states() -> dict:
    """Rank <= 2 states by family: seeded evolved states (b in [0, 15], tau_bar in
    [0, 2 pi]), random rank-2 states with the smallest eigenvalue in 1e-6..1e-1, the
    rank <= 2 spot states (the pure ones at b = 800 among them) and 21 fig2 points."""
    rng = np.random.default_rng(1703)
    alpha, beta, b = FIG2_STATE_PARAMS
    return {
        "evolved": [evolve_analytic(DimerParams(*random_amplitudes(rng), rng.uniform(0.0, 15.0)),
                                    tau_bar=rng.uniform(0.0, 2.0 * math.pi)) for _ in range(40)],
        "rank 2": [random_rank_state(rng, 2, 10.0 ** rng.uniform(-6.0, -1.0)) for _ in range(20)],
        "spot": [rho for rho in SPOT_STATES.values() if np.linalg.eigvalsh(rho)[1] <= 1e-12],
        "fig2": [evolve_analytic(DimerParams(alpha, beta, b), tau_bar=tb)
                 for tb in np.linspace(0.0, math.pi, 21)],
    }


RANK2_AUDIT_STATES = rank2_audit_states()


class TestClosedFormAudit:
    """The optimizer against the Koashi-Winter closed form of the minimal conditional
    entropy on rank <= 2 states, measuring either spin. The closed form is the minimum
    over all POVMs, so no projective measurement goes below it beyond roundoff."""

    @pytest.mark.parametrize("family", RANK2_AUDIT_STATES)
    def test_optimizer_matches_the_closed_form(self, family):
        for rho in RANK2_AUDIT_STATES[family]:
            for measured in (1, 2):
                _, value = minimize_conditional_entropy(rho, measured)
                closed = rank2_min_cond_entropy(rho, measured)
                assert abs(value - closed) <= 5e-14, (measured, value, closed)
                assert value >= closed - 1e-12


#: amplitude sets of the pinned discord values: |alpha| = |beta|, real, complex
CURVE_AMPLITUDES = {"equal": (ISQ, ISQ), "real": (0.6, 0.8),
                    "complex": (complex(0.3, 0.4), complex(-0.5, 0.7071067811865476))}
#: (amplitudes, b, tau_bar, q measuring spin 1, q measuring spin 2), computed offline at
#: 80 digits from the normalized 4x4 state: its eigendecomposition, the measured spin's
#: partial trace, and the Koashi-Winter purifier with Wootters' concurrence from an SVD
CURVE_REFERENCE = [
    ("equal", 0.01, 0.3, 0.09039314920738378, 1.4373677094011608e-06),
    ("equal", 0.01, 0.9, 0.1946631627040102, 4.275653834740824e-06),
    ("equal", 0.01, 1.3, 0.07908048025673581, 1.1980652511032784e-06),
    ("equal", 1e-05, 0.3, 0.09039235225399066, 1.4373801647966163e-12),
    ("equal", 1e-05, 0.9, 0.19466245211822952, 4.275693689037767e-12),
    ("equal", 1e-05, 1.3, 0.07908104890483295, 1.1980755665992233e-12),
    ("equal", 1e-08, 0.3, 0.0903923522531937, 1.4373801648090715e-18),
    ("equal", 1e-08, 0.9, 0.19466245211751895, 4.275693689077621e-18),
    ("equal", 1e-08, 1.3, 0.0790810489054016, 1.1980755666095388e-18),
    ("equal", 1e-12, 0.3, 0.0903923522531937, 1.4373801648090715e-26),
    ("equal", 1e-12, 0.9, 0.19466245211751895, 4.2756936890776214e-26),
    ("equal", 1e-12, 1.3, 0.07908104890540162, 1.1980755666095388e-26),
    ("real", 0.01, 0.3, 0.09892411111494814, 0.0176343517624432),
    ("real", 0.01, 0.9, 0.20972999591622904, 0.07300894323235786),
    ("real", 0.01, 1.3, 0.08279050846299674, 0.08371790619008848),
    ("real", 1e-05, 0.3, 0.09923646869306454, 0.017794052158904474),
    ("real", 1e-05, 0.9, 0.2102840976104621, 0.07348912863426359),
    ("real", 1e-05, 1.3, 0.08292819093903507, 0.08385566852803288),
    ("real", 1e-08, 0.3, 0.09923678176697033, 0.01779421301540592),
    ("real", 1e-08, 0.9, 0.21028465240653432, 0.07348961182238066),
    ("real", 1e-08, 1.3, 0.08292832807838724, 0.08385580572733697),
    ("real", 1e-12, 0.3, 0.099236782080327, 0.01779421317640849),
    ("real", 1e-12, 0.9, 0.21028465296183088, 0.07348961230600709),
    ("real", 1e-12, 1.3, 0.08292832821564959, 0.08385580586465932),
    ("complex", 0.01, 0.3, 0.11759205237654122, 0.04744804236277861),
    ("complex", 0.01, 0.9, 0.2430137494922929, 0.17215602473586883),
    ("complex", 0.01, 1.3, 0.09107986485208151, 0.17291704710573452),
    ("complex", 1e-05, 0.3, 0.11813294915302755, 0.04773464674627411),
    ("complex", 1e-05, 0.9, 0.24398456158834175, 0.17303702668020948),
    ("complex", 1e-05, 1.3, 0.09132426470359763, 0.17317842903209837),
    ("complex", 1e-08, 0.3, 0.11813349062425554, 0.047734934116803615),
    ("complex", 1e-08, 0.9, 0.24398553307011822, 0.17303790938930194),
    ("complex", 1e-08, 1.3, 0.09132450861435785, 0.1731786882404633),
    ("complex", 1e-12, 0.3, 0.11813349116621516, 0.047734934404433806),
    ("complex", 1e-12, 0.9, 0.2439855340424759, 0.173037910272808),
    ("complex", 1e-12, 1.3, 0.09132450885848786, 0.173178688499903),
]


class TestDiscordCurve:
    """discord_curve, the closed form of the evolved pair's discord, against the optimizer,
    the rank <= 2 oracle, high-precision values and the paper's high-temperature law."""

    def test_matches_the_optimizer(self):
        rng = np.random.default_rng(2111)
        for _ in range(200):
            p = DimerParams(*random_amplitudes(rng), rng.uniform(0.0, 12.0))
            taus = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, 3)
            for measured in (1, 2):
                curve = discord_curve(p, tau_bar=taus, measured=measured)
                optimized = [discord(evolve_analytic(p, tau_bar=tb), measured).q for tb in taus.tolist()]
                assert np.abs(curve - optimized).max() <= 5e-14, (p, taus, measured)

    def test_minimum_matches_the_rank2_oracle(self):
        # q = S(rho_m) - S(rho) + min conditional entropy, with the entropies taken another way
        rng = np.random.default_rng(2112)
        for _ in range(50):
            p = DimerParams(*random_amplitudes(rng), rng.uniform(0.0, 12.0))
            tb = rng.uniform(-2.0 * math.pi, 2.0 * math.pi)
            rho = evolve_analytic(p, tau_bar=tb)
            for measured in (1, 2):
                minimum = (discord_curve(p, tau_bar=tb, measured=measured)
                           - ref_entropy_bits(ref_partial_trace(rho, measured)) + ref_entropy_bits(rho))
                assert abs(minimum - rank2_min_cond_entropy(rho, measured)) <= 5e-14, (p, tb, measured)

    @pytest.mark.parametrize("amplitudes, b, tau_bar, q1, q2", CURVE_REFERENCE)
    def test_high_precision_values(self, amplitudes, b, tau_bar, q1, q2):
        p = DimerParams(*CURVE_AMPLITUDES[amplitudes], b)
        for measured, exact in ((1, q1), (2, q2)):
            error = abs(discord_curve(p, tau_bar=tau_bar, measured=measured) - exact)
            assert error <= 1e-12 * exact and error <= 2e-15, (measured, error)

    def test_high_temperature_law(self):
        """At |alpha| = |beta| with spin 2 measured, q = C^2 / (2 ln 2) (1 + O(b^2)) for the
        concurrence C, so the relative gap shrinks 100x per decade of b; measuring spin 1,
        q stays O(1) while C^2 = O(b^2)."""
        def ratio(b, measured):
            p = DimerParams(ISQ, ISQ, b)
            c = concurrence_analytic(p, tau_bar=math.pi / 4.0)
            return discord_curve(p, tau_bar=math.pi / 4.0, measured=measured) * 2.0 * math.log(2.0) / c**2

        gaps = [ratio(b, 2) - 1.0 for b in (1e-2, 1e-3, 1e-4)]
        for wide, narrow in zip(gaps, gaps[1:]):
            assert 90.0 <= wide / narrow <= 110.0, gaps
        assert min(ratio(b, 1) for b in (1e-2, 1e-3, 1e-4)) > 1e4

    def test_fig2_golden_value(self):
        alpha, beta, b = FIG2_STATE_PARAMS
        q = discord_curve(DimerParams(alpha, beta, b), tau_bar=FIG2_TAU_BAR)
        assert abs(q - GOLDEN_DISCORD) <= 1e-15

    def test_arrays_match_scalars_bit_for_bit(self):
        p = DimerParams(0.6, 0.8j, 0.7, d=2.0)
        taus = np.linspace(-7.0, 7.0, 101).reshape(1, 101)
        for measured in (1, 2):
            curve = discord_curve(p, tau_bar=taus, measured=measured)
            assert curve.shape == taus.shape
            scalars = [discord_curve(p, tau_bar=tb, measured=measured) for tb in taus.ravel().tolist()]
            assert all(type(q) is float for q in scalars)
            assert curve.ravel().tolist() == scalars
            assert np.array_equal(discord_curve(p, taus / 2.0, measured=measured), curve)

    def test_exact_zeros_and_limits(self):
        # a product state at tau_bar = 0 has no discord; a pure spin 1 with the thermal spin
        # frozen out (b = 800, w1 = 0) is a pure state whose discord is its entanglement
        assert discord_curve(DimerParams(0.6, 0.8, 2.0), tau_bar=0.0) == 0.0
        p = DimerParams(1.0, 0.0, 800.0)
        for measured in (1, 2):
            q = discord_curve(p, tau_bar=math.pi / 4.0, measured=measured)
            assert abs(q - 1.0) <= 1e-15

    @pytest.mark.parametrize("time", [math.nan, math.inf, "0.5", True, 0.5 + 0j, None, 2.0**1023])
    def test_a_bad_time_raises(self, time):
        with pytest.raises(InvalidParams):
            discord_curve(DimerParams(0.6, 0.8, 2.0), tau_bar=time)

    def test_one_time_argument(self):
        p = DimerParams(0.6, 0.8, 2.0)
        for tau, tau_bar in ((None, None), (0.5, 0.5)):
            with pytest.raises(InvalidParams):
                discord_curve(p, tau, tau_bar=tau_bar)

    @pytest.mark.parametrize("measured", [0, 3, True, 2.0, "2", None, np.array([1])])
    def test_a_bad_spin_label_raises(self, measured):
        with pytest.raises(BadSubsystemId):
            discord_curve(DimerParams(0.6, 0.8, 2.0), tau_bar=0.5, measured=measured)
