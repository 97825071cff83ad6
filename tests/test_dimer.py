import math
import re

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mqdimer import (
    DimerParams,
    analytic_intensities,
    concurrence_analytic,
    evolve_analytic,
    evolve_numeric,
    ht_reference,
    initial_state,
    mq_hamiltonian,
    propagator,
    require_state,
)
from mqdimer.dimer import param_tau_bar
from mqdimer.errors import InvalidParams, NotAState

from oracles import random_amplitudes

ISQ = 1.0 / math.sqrt(2.0)


class TestDimerParams:
    def test_accepts_valid(self):
        p = DimerParams(ISQ, ISQ, 0.1, 2.0)
        assert p.b == 0.1 and p.d == 2.0

    def test_accepts_complex_amplitudes(self):
        DimerParams(complex(0.6, 0.0), complex(0.0, 0.8), 1.0)

    def test_rejects_unnormalized(self):
        with pytest.raises(InvalidParams):
            DimerParams(1.0, 0.5, 1.0)

    def test_rejects_negative_b(self):
        with pytest.raises(InvalidParams):
            DimerParams(1.0, 0.0, -0.5)

    def test_rejects_bad_d(self):
        with pytest.raises(InvalidParams):
            DimerParams(1.0, 0.0, 1.0, d=0.0)
        with pytest.raises(InvalidParams):
            DimerParams(1.0, 0.0, 1.0, d=float("nan"))

    @pytest.mark.parametrize("fields", [(1, 0, None), ("x", 0, 1.0), (True, 0, 1), (1, 0, True),
                                        (1, 0, 1, np.True_), (1, np.array(False), 1)],
                             ids=["b None", "alpha word", "alpha bool", "b bool", "d numpy bool",
                                  "beta 0-d bool array"])
    def test_rejects_ill_typed_fields(self, fields):
        with pytest.raises(InvalidParams):
            DimerParams(*fields)

    def test_huge_amplitude_raises_invalid_params(self):
        # |alpha|^2 overflows a float; the constructors report it, not OverflowError
        with pytest.raises(InvalidParams):
            DimerParams(1e200, 0, 1.0)
        with pytest.raises(InvalidParams):
            DimerParams.normalized(1e200, 0, 1.0)
        with pytest.raises(InvalidParams):
            DimerParams.normalized(complex(1e308, 1e308), 0, 1.0)

    def test_normalized_constructor(self):
        p = DimerParams.normalized(3.0, 4.0, 0.2)
        assert_allclose([abs(p.alpha), abs(p.beta)], [0.6, 0.8], atol=1e-15)
        with pytest.raises(InvalidParams):
            DimerParams.normalized(0.0, 0.0, 0.2)


class TestInitialState:
    def test_polarized_pure_spin(self):
        rho = initial_state(DimerParams(1.0, 0.0, 10.0))
        eb = math.exp(10.0)
        assert_allclose(rho, np.diag([eb, 1.0, 0.0, 0.0]) / (eb + 1.0), atol=1e-15)

    def test_balanced_infinite_temperature(self):
        rho = initial_state(DimerParams(ISQ, ISQ, 0.0))
        expected = np.zeros((4, 4), dtype=complex)
        np.fill_diagonal(expected, 0.25)
        expected[0, 2] = expected[2, 0] = 0.25
        expected[1, 3] = expected[3, 1] = 0.25
        assert_allclose(rho, expected, atol=1e-15)

    def test_spin_one_starts_pure(self):
        rng = np.random.default_rng(2)
        from mqdimer.linalg import partial_trace

        for _ in range(20):
            alpha, beta = random_amplitudes(rng)
            reduced = partial_trace(initial_state(DimerParams(alpha, beta, rng.uniform(0, 5))), 1)
            purity = np.trace(reduced @ reduced).real
            assert abs(purity - 1.0) <= 1e-12

    def test_is_valid_state(self):
        require_state(initial_state(DimerParams(0.6, 0.8j, 3.0)))


class TestMqHamiltonian:
    def test_structure(self):
        h = mq_hamiltonian(1.0)
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = expected[3, 0] = 1.0
        assert_allclose(h, expected, atol=0)

    def test_spectrum(self):
        vals = np.sort(np.linalg.eigvalsh(mq_hamiltonian(2.5)))[::-1]
        assert_allclose(vals, [2.5, 0.0, 0.0, -2.5], atol=1e-15)

    def test_linearity_in_coupling(self):
        assert_allclose(mq_hamiltonian(2.0), 2.0 * mq_hamiltonian(1.0), atol=0)

    def test_rejects_bad_coupling(self):
        with pytest.raises(InvalidParams):
            mq_hamiltonian(-1.0)


class TestPropagator:
    def test_zero_time(self):
        assert_allclose(propagator(1.0, 0.0), np.eye(4), atol=1e-15)

    def test_quarter_period(self):
        u = propagator(tau_bar=math.pi / 2.0)
        assert abs(u[0, 0]) <= 1e-15 and abs(u[3, 3]) <= 1e-15
        assert_allclose(u[0, 3], -1j, atol=1e-15)
        assert_allclose(u[3, 0], -1j, atol=1e-15)
        assert_allclose(u[1:3, 1:3], np.eye(2), atol=1e-15)

    def test_group_property(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            d, tau = rng.uniform(0.1, 3.0), rng.uniform(-5.0, 5.0)
            prod = propagator(d, tau) @ propagator(d, -tau)
            assert np.max(np.abs(prod - np.eye(4))) <= 1e-12

    def test_unitarity(self):
        rng = np.random.default_rng(8)
        for _ in range(50):
            u = propagator(tau_bar=rng.uniform(0.0, 2.0 * math.pi))
            assert np.max(np.abs(u @ u.conj().T - np.eye(4))) <= 1e-12

    def test_tau_bar_equivalence(self):
        assert_allclose(propagator(2.0, 0.6), propagator(tau_bar=1.2), atol=1e-15)

    def test_argument_validation(self):
        with pytest.raises(InvalidParams):
            propagator()
        with pytest.raises(InvalidParams):
            propagator(1.0, 0.5, tau_bar=0.5)
        with pytest.raises(InvalidParams):
            propagator(1.0, tau_bar=0.5)

    @pytest.mark.parametrize("shape", [(2,), (1,), (2, 2)])
    def test_rejects_an_array_of_times(self, shape):
        times = np.full(shape, 0.3)
        rho0 = initial_state(DimerParams(0.6, 0.8, 2.0))
        for call in (
            lambda: propagator(tau_bar=times),
            lambda: propagator(2.0, times),
            lambda: evolve_numeric(rho0, tau_bar=times),
            lambda: evolve_numeric(rho0, 2.0, times),
            lambda: ht_reference(tau_bar=times),
            lambda: ht_reference(1.0, times),
        ):
            with pytest.raises(InvalidParams, match=re.escape(str(shape))):
                call()


class TestEvolution:
    def test_zero_time_is_identity_map(self):
        p = DimerParams(0.6, 0.8, 1.3)
        rho0 = initial_state(p)
        assert_allclose(evolve_numeric(rho0, tau_bar=0.0), rho0, atol=1e-15)
        assert_allclose(evolve_analytic(p, tau_bar=0.0), rho0, atol=1e-15)

    def test_analytic_matches_numeric(self):
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(100):
            alpha, beta = random_amplitudes(rng)
            p = DimerParams(alpha, beta, rng.uniform(0.0, 15.0))
            tb = rng.uniform(0.0, 2.0 * math.pi)
            diff = np.abs(
                evolve_analytic(p, tau_bar=tb) - evolve_numeric(initial_state(p), tau_bar=tb)
            ).max()
            worst = max(worst, float(diff))
        assert worst <= 1e-12

    def test_polarized_half_rotation(self):
        # cos(tau_bar) = 0 moves all population of the coupled pair to |11>
        rho = evolve_analytic(DimerParams(1.0, 0.0, 10.0), tau_bar=math.pi / 2.0)
        eb = math.exp(10.0)
        expected = np.diag([0.0, 1.0, 0.0, eb]) / (eb + 1.0)
        assert_allclose(rho, expected, atol=1e-15)

    def test_polarized_quarter_rotation(self):
        rho = evolve_analytic(DimerParams(1.0, 0.0, 10.0), tau_bar=math.pi / 4.0)
        eb = math.exp(10.0)
        half = eb / (eb + 1.0) / 2.0
        assert_allclose(rho[0, 0], half, atol=1e-15)
        assert_allclose(rho[3, 3], half, atol=1e-15)
        assert_allclose(rho[0, 3], 1j * half, atol=1e-15)
        assert_allclose(rho[3, 0], -1j * half, atol=1e-15)
        assert_allclose(rho[1, 1], 1.0 / (eb + 1.0), atol=1e-15)

    def test_balanced_state_flat_diagonal(self):
        rng = np.random.default_rng(4)
        p = DimerParams(ISQ, ISQ, 0.0)
        for tb in rng.uniform(0.0, 2.0 * math.pi, size=10):
            rho = evolve_analytic(p, tau_bar=float(tb))
            assert_allclose(np.diag(rho).real, np.full(4, 0.25), atol=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_state_with_a_non_finite_entry(self, bad):
        rho = np.eye(4, dtype=complex) / 4.0
        rho[0, 1] = bad
        with pytest.raises(NotAState):
            require_state(rho)
        with pytest.raises(NotAState):
            require_state(np.full((4, 4), bad))

    def test_state_invariants_preserved(self):
        rng = np.random.default_rng(55)
        for _ in range(30):
            alpha, beta = random_amplitudes(rng)
            p = DimerParams(alpha, beta, rng.uniform(0.0, 15.0))
            rho = evolve_analytic(p, tau_bar=rng.uniform(0.0, 2.0 * math.pi))
            require_state(rho)

    def test_physical_tau_with_coupling(self):
        p = DimerParams(1.0, 0.0, 2.0, d=3.0)
        assert_allclose(evolve_analytic(p, 0.5), evolve_analytic(p, tau_bar=1.5), atol=0)

    def test_extreme_thermal_factor(self):
        # exp(b) alone overflows beyond b ~ 710; the weights must not
        p = DimerParams(1.0, 0.0, 1000.0)
        rho = evolve_analytic(p, tau_bar=math.pi / 4.0)
        assert np.all(np.isfinite(rho.view(float)))
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[3, 3] = 0.5
        expected[0, 3], expected[3, 0] = 0.5j, -0.5j
        assert_allclose(rho, expected, atol=1e-15)

    def test_rejects_ambiguous_time(self):
        p = DimerParams(1.0, 0.0, 2.0)
        with pytest.raises(InvalidParams):
            evolve_analytic(p)
        with pytest.raises(InvalidParams):
            evolve_analytic(p, 0.5, tau_bar=0.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time(self, bad):
        p = DimerParams(1.0, 0.0, 2.0)
        for call in (
            lambda: evolve_analytic(p, tau_bar=bad),
            lambda: evolve_analytic(p, bad),
            lambda: analytic_intensities(p, tau_bar=bad),
            lambda: concurrence_analytic(p, tau_bar=bad),
            lambda: propagator(tau_bar=bad),
            lambda: evolve_numeric(initial_state(p), 1.0, bad),
        ):
            with pytest.raises(InvalidParams):
                call()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_time_in_an_array(self, bad):
        p = DimerParams(1.0, 0.0, 2.0)
        times = np.array([0.0, 0.5, bad, 1.0])
        for call in (
            lambda: param_tau_bar(p.d, None, times),
            lambda: param_tau_bar(p.d, times, None),
            lambda: analytic_intensities(p, tau_bar=times),
            lambda: analytic_intensities(p, times),
            lambda: concurrence_analytic(p, tau_bar=times),
        ):
            with pytest.raises(InvalidParams, match=repr(bad)):
                call()

    @pytest.mark.parametrize("times", [True, np.array([False, True])], ids=["bool", "bool array"])
    def test_a_bool_is_not_a_time(self, times):
        p = DimerParams(1.0, 0.0, 2.0)
        for call in (
            lambda: evolve_analytic(p, tau_bar=times),
            lambda: analytic_intensities(p, tau_bar=times),
            lambda: concurrence_analytic(p, times),
        ):
            with pytest.raises(InvalidParams):
                call()

    @pytest.mark.parametrize("big", [1e308, -2.0**1023])
    def test_rejects_a_time_whose_double_overflows(self, big):
        p = DimerParams(1.0, 0.0, 2.0)
        for call in (
            lambda: evolve_analytic(p, tau_bar=big),
            lambda: analytic_intensities(p, tau_bar=np.array([0.0, big])),
            lambda: concurrence_analytic(DimerParams(1.0, 0.0, 2.0, d=4.0), big / 2.0),
            lambda: propagator(tau_bar=big),
        ):
            with pytest.raises(InvalidParams, match="tau_bar"):
                call()
        assert np.isfinite(evolve_analytic(p, tau_bar=np.nextafter(2.0**1023, 0.0))).all()

    @pytest.mark.parametrize("times", [[0.1, 0.2], [0.3], [[0.1, 0.2], [0.3, 0.4]]])
    def test_rejects_an_array_of_times(self, times):
        p = DimerParams(0.6, 0.8, 2.0)
        shape = re.escape(str(np.shape(times)))
        for kwargs in ({"tau_bar": np.array(times)}, {"tau": np.array(times)}):
            with pytest.raises(InvalidParams, match=shape):
                evolve_analytic(p, **kwargs)
        assert np.array_equal(evolve_analytic(p, tau_bar=np.array(0.3)), evolve_analytic(p, tau_bar=0.3))


class TestHtReference:
    def test_zero_time(self):
        assert_allclose(ht_reference(tau_bar=0.0), np.diag([1.0, 0.0, 0.0, -1.0]), atol=1e-15)

    def test_diagonal_vanishes_at_octant(self):
        ht = ht_reference(tau_bar=math.pi / 4.0)
        assert np.max(np.abs(np.diag(ht))) <= 1e-15

    def test_traceless_and_hermitian(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            ht = ht_reference(tau_bar=rng.uniform(0.0, 2.0 * math.pi))
            assert abs(np.trace(ht)) <= 1e-13
            assert np.max(np.abs(ht - ht.conj().T)) <= 1e-13

    def test_closed_form_entries(self):
        tb = 0.9
        ht = ht_reference(tau_bar=tb)
        assert_allclose(ht[0, 0], math.cos(2.0 * tb), atol=1e-14)
        assert_allclose(ht[3, 3], -math.cos(2.0 * tb), atol=1e-14)
        assert_allclose(ht[0, 3], 1j * math.sin(2.0 * tb), atol=1e-14)
        assert np.max(np.abs(ht[1:3, :])) == 0.0
