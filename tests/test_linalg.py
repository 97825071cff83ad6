import ast
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

from mqdimer import decompose, evolve_numeric, linalg, spin_flip
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

    @pytest.mark.parametrize("m, error", [
        ("x", NotAState), (np.eye(3), NotAState), (np.ones((3, 2)), NotAState),
        ([[1.0, 0.0], [0.0]], NotAState), (np.full((2, 2), np.nan), NotHermitian),
        (np.diag([np.inf, 0.0, 0.0, 0.0]), NotHermitian), (np.full((4, 4), 1e308j), NotHermitian),
        (np.full((4, 4), 1e308), NotHermitian), (np.array([["1", "0"], ["0", "1"]]), NotAState),
        (np.eye(2, dtype=bool), NotAState),
    ], ids=["word", "3x3", "3x2", "ragged", "NaN", "inf", "overflowing defect",
            "overflowing spectrum", "numeric text", "bools"])
    def test_rejects_what_is_not_a_finite_hermitian_2x2_or_4x4(self, m, error):
        with pytest.raises(error):
            linalg.eig_hermitian(m)


NOT_A_FINITE_4X4 = {"word": "x", "3x3": np.eye(3), "2x2": np.eye(2),
                    "NaN": np.full((4, 4), np.nan), "inf": np.diag([np.inf, 0.0, 0.0, 0.0]),
                    "numeric text": np.where(np.eye(4, dtype=bool), "0.25", "0"),
                    "bools": np.eye(4, dtype=bool),
                    "text entry": [["1", 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}


@pytest.mark.parametrize("name", sorted(NOT_A_FINITE_4X4))
@pytest.mark.parametrize("call", [lambda m: evolve_numeric(m, tau_bar=1.0), spin_flip, decompose],
                         ids=["evolve_numeric", "spin_flip", "decompose"])
def test_matrix_argument_must_be_a_finite_4x4(call, name):
    with pytest.raises(NotAState):
        call(NOT_A_FINITE_4X4[name])


@pytest.mark.parametrize("call", [
    lambda: linalg.hermiticity_defect("x"), lambda: linalg.hermiticity_defect(np.ones((2, 3))),
    lambda: linalg.hermiticity_defect([[True]]), lambda: linalg.kron([True], [1]),
], ids=["defect of a word", "defect of a 2x3", "defect of a bool", "kron of a bool"])
def test_kron_and_hermiticity_defect_take_only_numbers(call):
    with pytest.raises(NotAState):
        call()


def test_hermiticity_defect():
    assert linalg.hermiticity_defect([[1.0, 2.0 + 1j], [2.0 - 1j, 0.0]]) == 0.0
    assert linalg.hermiticity_defect([[0.0, 1.0], [0.0, 0.0]]) == 1.0


def test_evolve_numeric_that_overflows_is_not_a_state():
    # finite entries whose conjugation by the propagator overflows a float
    rng = np.random.default_rng(7)
    big = 1.7e308 * (rng.choice([-1.0, 1.0], (4, 4)) + 1j * rng.choice([-1.0, 0.0, 1.0], (4, 4)))
    with pytest.raises(NotAState, match="finite"):
        evolve_numeric(big, tau_bar=0.7)


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

    @pytest.mark.parametrize("operator, message", [
        (np.eye(3), r"shape \(4, 4\)"), (np.eye(2), r"shape \(4, 4\)"), (np.ones(16), "shape"),
        ("x", "matrix of numbers"), ([[1.0, 0.0], [0.0]], "matrix of numbers"),
        (np.full((4, 4), np.nan), "not finite"), (np.full((4, 4), 1e308), "not finite"),
        (np.where(np.eye(4, dtype=bool), "0.25", "0"), "matrix of numbers"),
        (np.eye(4, dtype=bool), "matrix of numbers"),
    ], ids=["3x3", "2x2", "flat 16", "word", "ragged", "NaN", "overflow", "numeric text", "bools"])
    def test_operator_must_be_4x4_with_a_finite_trace(self, operator, message):
        for keep in (1, 2):
            with pytest.raises(NotAState, match=message):
                linalg.partial_trace(operator, keep)

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
        [["1", "0"], ["0", "0"]],
        [[True, False], [False, False]],
    ], ids=["non-hermitian 2x2", "anti-hermitian off-diagonal", "non-hermitian 4x4", "3x3",
            "word", "none", "ragged", "nan", "numeric text", "bools"])
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


def _package_imports(tree: ast.Module) -> set:
    """The mqdimer modules that a module's source imports, relative or absolute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("mqdimer")):
            module = (node.module or "").removeprefix("mqdimer").lstrip(".")
            names |= {module.split(".")[0]} if module else {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {a.name.split(".")[1] for a in node.names if a.name.startswith("mqdimer.")}
    return names


def test_import_layers_and_one_home_for_the_number_rule():
    """The package-internal import edges: linalg sits on errors alone, the two-qubit layer
    (correlations) reads no dimer code, the sweep reads no optimizer (its discord column is
    entanglement's closed form), and only __main__ reaches the CLI. The number rule,
    its wrappers and the integer rule are defined in linalg only (the CLI's text-to-int
    parser is _integer_text); dimer and the package still export the wrappers."""
    import mqdimer
    from mqdimer import dimer

    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(linalg.__file__).parent.glob("*.py")}
    imports = {name: _package_imports(tree) for name, tree in trees.items()}
    assert imports["linalg"] <= {"errors"}
    assert imports["correlations"] <= {"linalg", "errors"}
    assert imports["dimer"] <= {"linalg", "errors"}
    for name in ("coherence", "entanglement"):
        assert imports[name] <= {"dimer", "linalg", "errors"}, name
    assert imports["sweep"] <= {"coherence", "dimer", "entanglement", "errors", "linalg"}
    assert [name for name, deps in imports.items() if "cli" in deps] == ["__main__"]

    for rule in ("_numbers", "_number", "finite_array", "as_float", "_integer"):
        homes = [name for name, tree in trees.items()
                 if any(isinstance(node, ast.FunctionDef) and node.name == rule for node in tree.body)]
        assert homes == ["linalg"], rule
    for name in ("_number", "finite_array", "as_float"):
        assert getattr(dimer, name) is getattr(linalg, name)
    assert dimer.require_state is mqdimer.require_state
    assert all(hasattr(mqdimer, name) for name in mqdimer.__all__)
