import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mqdimer import (
    ORDERS,
    DimerParams,
    analytic_intensities,
    concurrence_analytic,
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


#: (b, alpha, beta, F, G0, G(+2) = G(-2), J2, concurrence) at tau_bar = 0.3, from the float
#: inputs in 50-digit arithmetic; the |alpha| = |beta| rows are where |alpha|^2 w0 - |beta|^2 w1
#: cancels, the b = 40 row is where 1 + tanh(b/2) loses w1 = 4.2e-18 entirely
HIGH_TEMPERATURE = [
    (1e-2, ISQ, ISQ, 2.4999791668749975e-3, 1.7029330020111435e-3, 3.9852308243192702e-4,
     7.9704616486385405e-4, 1.4115944202203584e-3),
    (1e-2, 0.6, 0.8, -1.3750002083312505e-1, -9.3662109811356043e-2, -2.1918955510884504e-2,
     -4.3837911021769008e-2, 7.7638351855084616e-2),
    (1e-2, 0.8, 0.6j, 1.4249997916687505e-1, 9.706797581537833e-2, 2.2716001675748358e-2,
     4.5432003351496716e-2, 8.0461540695525334e-2),
    (1e-5, ISQ, ISQ, 2.4999999999791664e-6, 1.7029471930816506e-6, 3.985264034487579e-7,
     7.9705280689751579e-7, 1.4116061834758248e-6),
    (1e-5, 0.6, 0.8, -1.3999750000000007e-1, -9.5363339866174105e-2, -2.2317080066912982e-2,
     -4.4634160133825965e-2, 7.9048534669121499e-2),
    (1e-5, 0.8, 0.6j, 1.4000250000000003e-1, 9.5366745760560268e-2, 2.231787711971988e-2,
     4.463575423943976e-2, 7.9051357881488451e-2),
    (1e-8, ISQ, ISQ, 2.4999999999999996e-9, 1.7029471930958417e-9, 3.9852640345207892e-10,
     7.9705280690415784e-10, 1.4116061834875881e-9),
    (1e-8, 0.6, 0.8, -1.3999999750000005e-1, -9.5365041110419994e-2, -2.2317478194790028e-2,
     -4.4634956389580055e-2, 7.9049944863698792e-2),
    (1e-8, 0.8, 0.6j, 1.4000000250000005e-1, 9.536504451631438e-2, 2.2317478991842835e-2,
     4.4634957983685669e-2, 7.9049947686911159e-2),
    (1e-12, ISQ, ISQ, 2.4999999999999995e-13, 1.7029471930958417e-13, 3.9852640345207891e-14,
     7.9705280690415782e-14, 1.4116061834875881e-13),
    (1e-12, 0.6, 0.8, -1.3999999999975005e-1, -9.5365042813196892e-2, -2.2317478593276578e-2,
     -4.4634957186553157e-2, 7.9049946275163814e-2),
    (1e-12, 0.8, 0.6j, 1.4000000000025005e-1, 9.5365042813537481e-2, 2.2317478593356284e-2,
     4.4634957186712568e-2, 7.9049946275446136e-2),
    (40.0, 0.0, 1.0, -4.248354255291589e-18, -2.8938891817302351e-18, -6.7723253678067695e-19,
     -1.3544650735613539e-18, 2.3988012545661662e-18),
]


@pytest.mark.parametrize("b, alpha, beta, f, g0, g2, j2, c", HIGH_TEMPERATURE,
                         ids=[f"b={r[0]:g}-{r[1]:.3g},{r[2]:.3g}"
                              for r in HIGH_TEMPERATURE])
def test_high_temperature_constants(b, alpha, beta, f, g0, g2, j2, c):
    """F, the intensities and the concurrence to 1e-14 relative down to b = 1e-12."""
    p = DimerParams(alpha, beta, b)
    prof = analytic_intensities(p, tau_bar=0.3)
    got = (initial_polarization(p), prof.g0, prof.g_plus2, prof.g_minus2, prof.j2,
           concurrence_analytic(p, tau_bar=0.3))
    assert_allclose(got, (f, g0, g2, g2, j2, c), rtol=1e-14, atol=0)
