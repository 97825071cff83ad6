import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mqdimer import (
    ORDERS,
    DimerParams,
    analytic_intensities,
    decompose,
    evolve_analytic,
    ht_reference,
    initial_polarization,
    intensity,
)
from mqdimer.errors import InvalidParams, NonRealIntensity

from oracles import random_amplitudes

ISQ = 1.0 / math.sqrt(2.0)

# order of the (r, c) entry is Mz(r) - Mz(c) with Mz = (+1, 0, 0, -1)
MZ = np.array([1, 0, 0, -1])


def matrix_intensities(p, tb):
    rho_comps = decompose(evolve_analytic(p, tau_bar=tb))
    ht_comps = decompose(ht_reference(tau_bar=tb))
    return {n: intensity(rho_comps, ht_comps, n) for n in ORDERS}


class TestDecompose:
    def test_diagonal_matrix_is_order_zero(self):
        comps = decompose(np.diag([0.1, 0.2, 0.3, 0.4]))
        assert_allclose(comps[0], np.diag([0.1, 0.2, 0.3, 0.4]), atol=0)
        for n in (-2, -1, 1, 2):
            assert np.all(comps[n] == 0)

    def test_support_masks(self):
        rng = np.random.default_rng(31)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        comps = decompose(m)
        for n in ORDERS:
            rows, cols = np.nonzero(comps[n])
            for r, c in zip(rows, cols):
                assert MZ[r] - MZ[c] == n

    def test_components_sum_back(self):
        rng = np.random.default_rng(37)
        m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        total = sum(decompose(m).values())
        assert np.max(np.abs(total - m)) <= 1e-14

    def test_adjoint_pairs_on_states(self):
        rng = np.random.default_rng(41)
        alpha, beta = random_amplitudes(rng)
        comps = decompose(evolve_analytic(DimerParams(alpha, beta, 0.9), tau_bar=1.3))
        for n in ORDERS:
            assert np.max(np.abs(comps[n].conj().T - comps[-n])) <= 1e-14

    def test_reference_has_no_odd_orders(self):
        for tb in np.linspace(0.0, 2.0 * math.pi, 17):
            comps = decompose(ht_reference(tau_bar=float(tb)))
            assert np.all(comps[1] == 0) and np.all(comps[-1] == 0)
            expected0 = math.cos(2.0 * tb) * np.diag([1.0, 0.0, 0.0, -1.0])
            assert np.max(np.abs(comps[0] - expected0)) <= 1e-13

    def test_corner_component(self):
        comps = decompose(evolve_analytic(DimerParams(1.0, 0.0, 10.0), tau_bar=math.pi / 4.0))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = 1j * math.exp(10.0) / (2.0 * (math.exp(10.0) + 1.0))
        assert_allclose(comps[2], expected, atol=1e-15)


class TestIntensity:
    def test_odd_orders_vanish(self):
        # the +/-1 components of the state can be nonzero, the intensities cannot
        p = DimerParams.normalized(complex(0.6, 0.3), complex(0.45, 0.59), 0.8)
        assert abs(p.alpha * p.beta.conjugate()) > 0.1
        for tb in (0.3, 0.9, 2.2):
            vals = matrix_intensities(p, tb)
            assert abs(vals[1]) <= 1e-12 and abs(vals[-1]) <= 1e-12

    def test_zero_time(self):
        rng = np.random.default_rng(43)
        alpha, beta = random_amplitudes(rng)
        p = DimerParams(alpha, beta, 1.7)
        vals = matrix_intensities(p, 0.0)
        assert_allclose(vals[0], initial_polarization(p), atol=1e-14)
        assert abs(vals[2]) <= 1e-14 and abs(vals[-2]) <= 1e-14

    def test_third_period_point(self):
        # 2 tau_bar = pi/3: cos^2 = 1/4, sin^2 = 3/4
        p = DimerParams(1.0, 0.0, 10.0)
        f = math.exp(10.0) / (math.exp(10.0) + 1.0)
        vals = matrix_intensities(p, math.pi / 6.0)
        assert_allclose(vals[0], 0.25 * f, atol=1e-13)
        assert_allclose(vals[2], 0.375 * f, atol=1e-13)
        assert_allclose(vals[-2], 0.375 * f, atol=1e-13)

    def test_rejects_non_real_product(self):
        comps_a = {n: np.zeros((4, 4), dtype=complex) for n in ORDERS}
        comps_b = {n: np.zeros((4, 4), dtype=complex) for n in ORDERS}
        comps_a[2] = np.zeros((4, 4), dtype=complex)
        comps_a[2][0, 3] = 1j
        comps_b[-2] = np.zeros((4, 4), dtype=complex)
        comps_b[-2][3, 0] = 1.0
        with pytest.raises(NonRealIntensity):
            intensity(comps_a, comps_b, 2)

    @pytest.mark.parametrize("n", [3, -3, True, False, 1.0, np.array(1), np.array([1]), "1", None],
                             ids=["3", "-3", "True", "False", "float", "0-d array", "array", "text",
                                  "none"])
    def test_order_must_be_an_integer_in_orders(self, n):
        comps = decompose(evolve_analytic(DimerParams(0.6, 0.8, 2.0), tau_bar=0.7))
        with pytest.raises(InvalidParams, match="order n"):
            intensity(comps, comps, n)

    def test_numpy_integer_order(self):
        rho_comps = decompose(evolve_analytic(DimerParams(0.6, 0.8, 2.0), tau_bar=0.7))
        ht_comps = decompose(ht_reference(tau_bar=0.7))
        for n in ORDERS:
            assert intensity(rho_comps, ht_comps, np.int8(n)) == intensity(rho_comps, ht_comps, n)


class TestAnalyticIntensities:
    def test_peak_transfer(self):
        p = DimerParams(1.0, 0.0, 10.0)
        prof = analytic_intensities(p, tau_bar=math.pi / 4.0)
        f = math.exp(10.0) / (math.exp(10.0) + 1.0)
        assert abs(prof.g0) <= 1e-30
        assert_allclose(prof.j2, f, atol=1e-15)

    def test_symmetric_cancellation(self):
        p = DimerParams(ISQ, ISQ, 0.0)
        for tb in np.linspace(0.0, math.pi, 9):
            prof = analytic_intensities(p, tau_bar=float(tb))
            assert prof.g0 == 0.0 and prof.j2 == 0.0

    def test_sum_rule(self):
        rng = np.random.default_rng(47)
        for _ in range(200):
            alpha, beta = random_amplitudes(rng)
            p = DimerParams(alpha, beta, rng.uniform(0.0, 15.0))
            prof = analytic_intensities(p, tau_bar=rng.uniform(0.0, 2.0 * math.pi))
            total = prof.g0 + prof.g_plus2 + prof.g_minus2
            assert abs(total - initial_polarization(p)) <= 1e-12

    def test_matrix_path_matches_closed_form(self):
        rng = np.random.default_rng(53)
        worst = 0.0
        for _ in range(1000):
            alpha, beta = random_amplitudes(rng)
            p = DimerParams(alpha, beta, rng.uniform(0.0, 15.0))
            tb = rng.uniform(0.0, 2.0 * math.pi)
            prof = analytic_intensities(p, tau_bar=tb)
            vals = matrix_intensities(p, tb)
            worst = max(
                worst,
                abs(vals[0] - prof.g0),
                abs(vals[2] - prof.g_plus2),
                abs(vals[-2] - prof.g_minus2),
            )
        assert worst <= 1e-12

    def test_second_order_symmetry(self):
        p = DimerParams(0.8, 0.6j, 2.0)
        prof = analytic_intensities(p, tau_bar=1.1)
        assert prof.g_plus2 == prof.g_minus2
        assert prof.j2 == prof.g_plus2 + prof.g_minus2

    def test_physical_tau(self):
        p = DimerParams(1.0, 0.0, 5.0, d=2.0)
        assert analytic_intensities(p, 0.7) == analytic_intensities(p, tau_bar=1.4)

    def test_array_matches_scalar_bit_for_bit(self):
        rng = np.random.default_rng(59)
        for _ in range(8):
            alpha, beta = random_amplitudes(rng)
            p = DimerParams(alpha, beta, rng.uniform(0.0, 15.0), d=rng.uniform(0.5, 2.0))
            times = rng.uniform(-20.0, 20.0, 257)
            for arg in ("tau_bar", "tau"):
                arrays = analytic_intensities(p, **{arg: times})
                for i, t in enumerate(times.tolist()):
                    for name, value in vars(analytic_intensities(p, **{arg: t})).items():
                        assert type(value) is float and value == getattr(arrays, name)[i], (name, t)

    def test_array_keeps_its_shape(self):
        p = DimerParams(0.6, 0.8, 2.0)
        prof = analytic_intensities(p, tau_bar=np.linspace(0.0, 1.0, 6).reshape(2, 3))
        assert all(v.shape == (2, 3) for v in vars(prof).values())
