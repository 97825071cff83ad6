import math
import subprocess
import sys

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mqdimer import (
    DimerParams,
    classical_correlations,
    conditional_entropy,
    conditional_entropy_many,
    direction,
    discord,
    evolve_analytic,
    initial_state,
    minimize_conditional_entropy,
    mutual_information,
    projector_pair,
)
from mqdimer.errors import BadSubsystemId, InvalidParams, NotAState, NotUnitVector
from mqdimer.linalg import PAULI_X, PAULI_Y, PAULI_Z, kron

from oracles import (
    bell_phi_plus,
    bloch_conditional_entropy,
    haar_unitary,
    lifted_conditional_entropy,
    random_amplitudes,
    random_density_matrix,
    random_directions,
    random_rank_state,
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
                                   [None, 0.0, 1.0], [[1.0, 0.0, 0.0], [1.0]]], ids=repr)
    def test_non_real_direction(self, n):
        # converting these would read text, drop an imaginary part or overflow
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
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, mqdimer; print('scipy' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
        """One state check, one spin check, and one eigvalsh of the 4x4 state per
        discord call; S(rho) reuses that spectrum, and the public
        von_neumann_entropy is not called."""
        import mqdimer.correlations as corr
        import mqdimer.linalg as linalg

        calls = {"_checked_state": 0, "_spin_label": 0, "von_neumann_entropy": 0}
        spectra = []

        def counted(module, name):
            inner = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return inner(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        counted(corr, "_checked_state")
        counted(corr, "_spin_label")
        counted(linalg, "von_neumann_entropy")
        eigvalsh = np.linalg.eigvalsh

        def recorded(m):
            spectra.append(np.shape(m))
            return eigvalsh(m)

        monkeypatch.setattr(np.linalg, "eigvalsh", recorded)
        discord(states[0], 1)
        assert calls == {"_checked_state": 1, "_spin_label": 1, "von_neumann_entropy": 0}
        assert sorted(spectra) == [(2, 2), (2, 2), (4, 4)]
