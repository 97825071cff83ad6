import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mqdimer import (
    DimerParams,
    analytic_intensities,
    concurrence_analytic,
    concurrence_from_intensities,
    concurrence_numeric,
    concurrence_spectrum,
    evolve_analytic,
    spin_flip,
)
from mqdimer.errors import InvalidParams
from mqdimer.linalg import kron

from oracles import bell_phi_plus, eig_general_moduli, haar_unitary, random_amplitudes, random_density_matrix

ISQ = 1.0 / math.sqrt(2.0)


def random_evolved_state(rng):
    alpha, beta = random_amplitudes(rng)
    p = DimerParams(alpha, beta, rng.uniform(0.0, 15.0))
    return p, rng.uniform(0.0, 2.0 * math.pi)


class TestSpinFlip:
    def test_maximally_mixed_fixed_point(self):
        assert_allclose(spin_flip(np.eye(4) / 4.0), np.eye(4) / 4.0, atol=1e-15)

    def test_bell_state_fixed_point(self):
        rho = bell_phi_plus()
        assert_allclose(spin_flip(rho), rho, atol=1e-15)

    def test_basis_projector_flips(self):
        assert_allclose(
            spin_flip(np.diag([1.0, 0.0, 0.0, 0.0])), np.diag([0.0, 0.0, 0.0, 1.0]), atol=0
        )

    def test_preserves_hermiticity_and_trace(self):
        rng = np.random.default_rng(3)
        rho = random_density_matrix(rng)
        flipped = spin_flip(rho)
        assert np.max(np.abs(flipped - flipped.conj().T)) <= 1e-14
        assert abs(np.trace(flipped) - 1.0) <= 1e-12


class TestConcurrenceSpectrum:
    def test_descending_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            lam = concurrence_spectrum(random_density_matrix(rng))
            assert np.all(lam >= 0.0)
            assert np.all(np.diff(lam) <= 1e-14)

    def test_bell_spectrum(self):
        assert_allclose(concurrence_spectrum(bell_phi_plus()), [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_matches_general_eigensolve_route(self):
        # same spectrum through the non-Hermitian product, at its noisier accuracy
        rng = np.random.default_rng(7)
        for _ in range(25):
            rho = random_density_matrix(rng)
            direct = np.sqrt(np.clip(eig_general_moduli(rho @ spin_flip(rho)), 0.0, None))
            assert np.max(np.abs(direct - concurrence_spectrum(rho))) <= 1e-6


class TestConcurrenceNumeric:
    def test_product_states_separable(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            rho = kron(random_density_matrix(rng, 2), random_density_matrix(rng, 2))
            assert concurrence_numeric(rho) <= 1e-10

    def test_bell_state_maximal(self):
        assert_allclose(concurrence_numeric(bell_phi_plus()), 1.0, atol=1e-12)

    def test_polarized_peak(self):
        rho = evolve_analytic(DimerParams(1.0, 0.0, 10.0), tau_bar=math.pi / 4.0)
        f = math.exp(10.0) / (math.exp(10.0) + 1.0)
        assert_allclose(concurrence_numeric(rho), f, atol=1e-10)

    def test_matches_closed_form(self):
        rng = np.random.default_rng(13)
        cases = [random_evolved_state(rng) for _ in range(1000)]
        # b = 800: the thermal weight w1 underflows to 0, so the state has rank 1
        cases += [(DimerParams(alpha, beta, 800.0), tb) for alpha, beta in ((1.0, 0.0), (0.6, 0.8j))
                  for tb in np.linspace(0.0, math.pi, 7)]
        assert DimerParams(0.6, 0.8j, 800.0).thermal_weights == (1.0, 0.0)
        worst = 0.0
        for p, tb in cases:
            diff = abs(
                concurrence_numeric(evolve_analytic(p, tau_bar=tb))
                - concurrence_analytic(p, tau_bar=tb)
            )
            worst = max(worst, diff)
        assert worst <= 1e-10

    def test_local_unitary_invariance(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            p, tb = random_evolved_state(rng)
            rho = evolve_analytic(p, tau_bar=tb)
            u = kron(haar_unitary(rng), haar_unitary(rng))
            rotated = u @ rho @ u.conj().T
            assert abs(concurrence_numeric(rotated) - concurrence_numeric(rho)) <= 1e-9

    def test_range(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            c = concurrence_numeric(random_density_matrix(rng))
            assert -1e-12 <= c <= 1.0 + 1e-10


class TestConcurrenceAnalytic:
    def test_zero_time(self):
        assert concurrence_analytic(DimerParams(0.6, 0.8, 1.0), tau_bar=0.0) == 0.0

    def test_symmetric_cancellation(self):
        p = DimerParams(ISQ, ISQ, 0.0)
        for tb in np.linspace(0.0, math.pi, 7):
            assert concurrence_analytic(p, tau_bar=float(tb)) == 0.0

    def test_weakly_polarized_peak(self):
        p = DimerParams(ISQ, ISQ, 0.1)
        expected = 0.5 * (math.exp(0.1) - 1.0) / (math.exp(0.1) + 1.0)
        assert_allclose(concurrence_analytic(p, tau_bar=math.pi / 4.0), expected, atol=1e-15)
        assert_allclose(expected, 0.024979187478940006, atol=1e-15)

    def test_half_period_of_magnitude(self):
        p = DimerParams(1.0, 0.0, 2.0)
        for tb in np.linspace(0.0, math.pi / 2.0, 9):
            a = concurrence_analytic(p, tau_bar=float(tb))
            b = concurrence_analytic(p, tau_bar=float(tb) + math.pi / 2.0)
            assert abs(a - b) <= 1e-14

    def test_array_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(61)
        for _ in range(8):
            alpha, beta = random_amplitudes(rng)
            p = DimerParams(alpha, beta, rng.uniform(0.0, 15.0), d=rng.uniform(0.5, 2.0))
            times = rng.uniform(-20.0, 20.0, 257)
            for arg in ("tau_bar", "tau"):
                arrays = concurrence_analytic(p, **{arg: times})
                assert arrays.shape == times.shape
                for i, t in enumerate(times.tolist()):
                    scalar = concurrence_analytic(p, **{arg: t})
                    assert type(scalar) is float and scalar == arrays[i], t


class TestConcurrenceFromIntensities:
    def test_zero_intensity(self):
        assert concurrence_from_intensities(DimerParams(1.0, 0.0, 10.0), 0.0) == 0.0

    def test_peak_identity(self):
        p = DimerParams(1.0, 0.0, 10.0)
        f = math.exp(10.0) / (math.exp(10.0) + 1.0)
        assert_allclose(concurrence_from_intensities(p, f), f, atol=1e-13)

    def test_third_period_chain(self):
        p = DimerParams(1.0, 0.0, 10.0)
        f = math.exp(10.0) / (math.exp(10.0) + 1.0)
        j2 = analytic_intensities(p, tau_bar=math.pi / 6.0).j2
        assert_allclose(j2, 0.75 * f, atol=1e-14)
        expected = math.sin(math.pi / 3.0) * f
        assert_allclose(concurrence_from_intensities(p, j2), expected, atol=1e-13)

    def test_identity_along_sweep(self):
        rng = np.random.default_rng(23)
        for _ in range(50):
            alpha, beta = random_amplitudes(rng)
            p = DimerParams(alpha, beta, rng.uniform(0.0, 15.0))
            tb = rng.uniform(0.0, 2.0 * math.pi)
            j2 = analytic_intensities(p, tau_bar=tb).j2
            assert abs(
                concurrence_from_intensities(p, j2) - concurrence_analytic(p, tau_bar=tb)
            ) <= 1e-12

    def test_negative_intensity_from_inverted_polarization(self):
        # beta-dominated states have F < 0 and hence J2 < 0; the identity still holds
        p = DimerParams(0.0, 1.0, 1.0)
        j2 = analytic_intensities(p, tau_bar=0.7).j2
        assert j2 < 0.0
        assert_allclose(
            concurrence_from_intensities(p, j2),
            concurrence_analytic(p, tau_bar=0.7),
            atol=1e-14,
        )

    def test_rejects_non_finite_intensity(self):
        with pytest.raises(InvalidParams):
            concurrence_from_intensities(DimerParams(1.0, 0.0, 1.0), float("nan"))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_intensity_in_an_array(self, bad):
        p = DimerParams(1.0, 0.0, 1.0)
        with pytest.raises(InvalidParams, match=repr(bad)):
            concurrence_from_intensities(p, np.array([[0.1, 0.2], [bad, 0.4]]))

    def test_array_equals_scalar_bitwise(self):
        rng = np.random.default_rng(29)
        for _ in range(8):
            alpha, beta = random_amplitudes(rng)
            p = DimerParams(alpha, beta, rng.uniform(0.0, 15.0))
            j2 = analytic_intensities(p, tau_bar=rng.uniform(-20.0, 20.0, (3, 43))).j2
            arrays = concurrence_from_intensities(p, j2)
            assert arrays.shape == j2.shape
            for value, scalar_in in zip(arrays.ravel().tolist(), j2.ravel().tolist()):
                scalar = concurrence_from_intensities(p, scalar_in)
                assert type(scalar) is float and scalar == value, scalar_in
