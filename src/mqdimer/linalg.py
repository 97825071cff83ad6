"""Fixed-size complex matrix kernels for the two-spin toolkit (2x2 and 4x4 only)."""

from __future__ import annotations

import numpy as np

from .errors import BadSubsystemId, NotAState, NotHermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

#: tolerances of the one density-matrix rule, _checked_state (eig_hermitian shares the first)
HERMITICITY_TOL = 1e-12
STATE_TRACE_TOL = 1e-12
EIGVAL_FLOOR = -1e-10


def kron(a, b) -> np.ndarray:
    """Tensor product, row-major blocks: kron(a, b)[2i+k, 2j+l] = a[i,j] b[k,l]."""
    return np.kron(np.asarray(a, dtype=complex), np.asarray(b, dtype=complex))


def hermiticity_defect(m) -> float:
    m = np.asarray(m, dtype=complex)
    return float(np.max(np.abs(m - m.conj().T)))


def eig_hermitian(m):
    """Eigendecomposition of a Hermitian matrix.

    Returns (values, vectors) with values sorted descending and vectors the
    matching orthonormal columns, so that m = V diag(values) V^H.
    """
    m = np.asarray(m, dtype=complex)
    defect = hermiticity_defect(m)
    if defect > HERMITICITY_TOL:
        raise NotHermitian(f"max |m - m^H| = {defect:.3e} exceeds {HERMITICITY_TOL:.1e}")
    vals, vecs = np.linalg.eigh(m)
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def partial_trace(rho, keep: int) -> np.ndarray:
    """Trace out one spin of a 4x4 two-spin operator, keeping subsystem 1 or 2."""
    subscripts = "ikjk->ij" if _spin_label(keep, "keep") == 1 else "ikil->kl"
    return np.einsum(subscripts, np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2))


def _spin_label(label, name: str = "measured subsystem") -> int:
    """label as spin 1 or 2: an int or numpy integer, not a bool; else BadSubsystemId."""
    if isinstance(label, (int, np.integer)) and not isinstance(label, bool) and label in (1, 2):
        return int(label)
    raise BadSubsystemId(f"{name} must be 1 or 2, got {label!r}")


def _checked_state(rho, shapes=((4, 4),)) -> tuple[np.ndarray, np.ndarray]:
    """rho as a complex ndarray of one of `shapes` and its ascending eigvalsh spectrum;
    NotAState unless Hermitian, of trace 1 and with no eigenvalue below EIGVAL_FLOOR."""
    try:
        rho = np.asarray(rho, dtype=complex)
    except (TypeError, ValueError, OverflowError):
        raise NotAState(f"expected a matrix of numbers, got {rho!r}") from None
    if rho.shape not in shapes:
        raise NotAState(f"expected shape {' or '.join(map(str, shapes))}, got {rho.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # NaN, inf and overflow fail below
        defect, tr = hermiticity_defect(rho), complex(np.trace(rho))
    if not defect <= HERMITICITY_TOL:
        raise NotAState(f"Hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL:.1e}")
    if not abs(tr - 1.0) <= STATE_TRACE_TOL:
        raise NotAState(f"trace {tr!r} is not 1 within {STATE_TRACE_TOL:.1e}")
    spectrum = np.linalg.eigvalsh(rho)
    if not spectrum[0] >= EIGVAL_FLOOR:
        raise NotAState(f"eigenvalue {spectrum[0]:.3e} below {EIGVAL_FLOOR:.1e}")
    return rho, spectrum


def _entropy_bits(spectrum: np.ndarray) -> float:
    """-sum p log2 p over a state's spectrum; 0 log 0 = 0, negative roundoff counts as 0."""
    probs = np.clip(spectrum, 0.0, None)
    probs = probs[probs > 0.0]
    return max(0.0, float(-(probs * np.log2(probs)).sum()))


def von_neumann_entropy(rho) -> float:
    """Entropy of a 2x2 or 4x4 density matrix in bits; NotAState for anything else."""
    return _entropy_bits(_checked_state(rho, ((2, 2), (4, 4)))[1])
