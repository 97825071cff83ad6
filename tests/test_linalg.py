import numpy as np
import pytest
from numpy.testing import assert_allclose

from mqdimer import linalg
from mqdimer.errors import BadSubsystemId, NotAState, NotHermitian, SpectrumNotReal

from oracles import bell_phi_plus, eig_general_moduli, random_density_matrix


def random_hermitian(rng, dim):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return a + a.conj().T


class TestKron:
    def test_identity(self):
        assert_allclose(linalg.kron(linalg.ID2, linalg.ID2), np.eye(4), atol=0)

    def test_diagonal(self):
        out = linalg.kron(np.diag([1.0, -1.0]), linalg.ID2)
        assert_allclose(out, np.diag([1.0, 1.0, -1.0, -1.0]), atol=0)

    def test_sigma_y_pair(self):
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = expected[3, 0] = -1.0
        expected[1, 2] = expected[2, 1] = 1.0
        assert_allclose(linalg.kron(linalg.PAULI_Y, linalg.PAULI_Y), expected, atol=0)

    def test_entry_convention(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        out = linalg.kron(a, b)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    for l in range(2):
                        assert abs(out[2 * i + k, 2 * j + l] - a[i, j] * b[k, l]) <= 1e-15


class TestEigHermitian:
    def test_already_diagonal(self):
        vals, vecs = linalg.eig_hermitian(np.diag([1.0, 0.0, 0.0, -1.0]))
        assert_allclose(vals, [1.0, 0.0, 0.0, -1.0], atol=1e-15)
        assert_allclose(vecs @ vecs.conj().T, np.eye(4), atol=1e-12)

    def test_pauli_x(self):
        vals, _ = linalg.eig_hermitian(linalg.PAULI_X)
        assert_allclose(vals, [1.0, -1.0], atol=1e-15)

    def test_coupling_block_spectrum(self):
        h = np.zeros((4, 4), dtype=complex)
        h[0, 3] = h[3, 0] = 1.0
        vals, _ = linalg.eig_hermitian(h)
        assert_allclose(vals, [1.0, 0.0, 0.0, -1.0], atol=1e-15)

    def test_reconstruction_many(self):
        rng = np.random.default_rng(11)
        for i in range(1000):
            m = random_hermitian(rng, 2 if i % 2 else 4)
            vals, vecs = linalg.eig_hermitian(m)
            assert np.all(np.diff(vals) <= 1e-12)
            rebuilt = (vecs * vals) @ vecs.conj().T
            assert np.max(np.abs(rebuilt - m)) <= 1e-10
            assert np.max(np.abs(vecs @ vecs.conj().T - np.eye(m.shape[0]))) <= 1e-10

    def test_rejects_non_hermitian(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
        with pytest.raises(NotHermitian):
            linalg.eig_hermitian(m)


class TestEigGeneralModuli:
    """The general-eigensolver oracle that test_entanglement checks concurrence_spectrum against."""

    def test_identity(self):
        assert_allclose(eig_general_moduli(np.eye(4)), np.ones(4), atol=1e-14)

    def test_diagonal(self):
        out = eig_general_moduli(np.diag([4.0, 1.0, 0.0, 0.0]))
        assert_allclose(out, [4.0, 1.0, 0.0, 0.0], atol=1e-14)

    def test_bell_spin_flip_product(self):
        rho = bell_phi_plus()
        yy = linalg.kron(linalg.PAULI_Y, linalg.PAULI_Y)
        out = eig_general_moduli(rho @ (yy @ rho.conj() @ yy))
        assert_allclose(out, [1.0, 0.0, 0.0, 0.0], atol=1e-12)

    def test_clamps_small_negatives(self):
        out = eig_general_moduli(np.diag([1.0, -5e-11, 0.0, 0.0]))
        assert out[3] == 0.0
        # values below the floor pass through untouched
        out = eig_general_moduli(np.diag([1.0, -1e-3, 0.0, 0.0]))
        assert out[3] == -1e-3

    def test_rejects_complex_spectrum(self):
        m = np.zeros((4, 4))
        m[0, 1], m[1, 0] = -1.0, 1.0
        with pytest.raises(SpectrumNotReal):
            eig_general_moduli(m)


class TestPartialTrace:
    def test_product_states(self):
        rng = np.random.default_rng(5)
        p = random_density_matrix(rng, 2)
        q = random_density_matrix(rng, 2)
        full = linalg.kron(p, q)
        assert_allclose(linalg.partial_trace(full, 1), p, atol=1e-14)
        assert_allclose(linalg.partial_trace(full, 2), q, atol=1e-14)

    def test_maximally_mixed(self):
        assert_allclose(linalg.partial_trace(np.eye(4) / 4.0, 2), np.eye(2) / 2.0, atol=0)

    def test_thermal_block_sum(self):
        # tracing out the pure spin of pure (x) thermal leaves the thermal weights
        eb = np.exp(0.7)
        pure = np.array([[0.36, 0.48], [0.48, 0.64]], dtype=complex)
        thermal = np.diag([eb, 1.0]) / (eb + 1.0)
        out = linalg.partial_trace(linalg.kron(pure, thermal), 2)
        assert_allclose(out, thermal, atol=1e-15)

    def test_linearity(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            b = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            x, y = rng.normal(), rng.normal()
            for keep in (1, 2):
                lhs = linalg.partial_trace(x * a + y * b, keep)
                rhs = x * linalg.partial_trace(a, keep) + y * linalg.partial_trace(b, keep)
                assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_bad_subsystem(self):
        with pytest.raises(BadSubsystemId):
            linalg.partial_trace(np.eye(4) / 4.0, 3)

    @pytest.mark.parametrize("keep", [True, 2.0, np.array(2), np.array([2]), "2", None],
                             ids=["bool", "float", "0-d array", "array", "text", "none"])
    def test_subsystem_must_be_an_integer(self, keep):
        with pytest.raises(BadSubsystemId):
            linalg.partial_trace(np.eye(4) / 4.0, keep)

    def test_numpy_integer_subsystem(self):
        rho = random_density_matrix(np.random.default_rng(5), 4)
        assert np.array_equal(linalg.partial_trace(rho, np.int64(2)), linalg.partial_trace(rho, 2))


class TestVonNeumannEntropy:
    def test_pure_projector(self):
        assert linalg.von_neumann_entropy(np.diag([1.0, 0.0])) == 0.0

    def test_maximally_mixed(self):
        assert_allclose(linalg.von_neumann_entropy(np.eye(4) / 4.0), 2.0, atol=1e-12)

    def test_thermal_qubit(self):
        eb = np.exp(0.1)
        rho = np.diag([eb, 1.0]) / (eb + 1.0)
        assert_allclose(linalg.von_neumann_entropy(rho), 0.9981988829078698, atol=1e-12)

    def test_additivity_on_products(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a = random_density_matrix(rng, 2)
            b = random_density_matrix(rng, 2)
            lhs = linalg.von_neumann_entropy(linalg.kron(a, b))
            rhs = linalg.von_neumann_entropy(a) + linalg.von_neumann_entropy(b)
            assert abs(lhs - rhs) <= 1e-9

    def test_bounds(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            s = linalg.von_neumann_entropy(random_density_matrix(rng, 4))
            assert 0.0 <= s <= 2.0 + 1e-12

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(NotAState):
            linalg.von_neumann_entropy(np.diag([1.1, -0.1, 0.0, 0.0]))

    def test_rejects_bad_trace(self):
        with pytest.raises(NotAState):
            linalg.von_neumann_entropy(np.diag([0.7, 0.7, 0.0, 0.0]))

    @pytest.mark.parametrize("rho", [
        [[0.5, 5.0], [0.0, 0.5]],
        [[0.5, 0.5j], [0.5j, 0.5]],
        np.diag([0.25, 0.25, 0.25, 0.25]) + np.triu(np.full((4, 4), 0.1), 1),
        np.eye(3) / 3.0,
        "x",
        None,
        [[1.0, 0.0], [0.0]],
        [[np.nan, 0.0], [0.0, 1.0]],
    ], ids=["non-hermitian 2x2", "anti-hermitian off-diagonal", "non-hermitian 4x4", "3x3",
            "word", "none", "ragged", "nan"])
    def test_rejects_what_is_not_a_state(self, rho):
        with pytest.raises(NotAState):
            linalg.von_neumann_entropy(rho)

    def test_one_trace_tolerance(self):
        # 1e-10 off: rejected by require_state and by von_neumann_entropy alike
        from mqdimer import require_state

        rho = np.diag([0.5 + 1e-10, 0.5, 0.0, 0.0])
        for check in (require_state, linalg.von_neumann_entropy):
            with pytest.raises(NotAState):
                check(rho)
        with pytest.raises(NotAState):
            linalg.von_neumann_entropy(rho[:2, :2])

    def test_clamps_tiny_negatives(self):
        rho = np.diag([1.0 + 5e-11, -5e-11, 0.0, 0.0])
        assert linalg.von_neumann_entropy(rho) >= 0.0
