"""Fixed-size complex matrix kernels for the two-spin toolkit (2x2 and 4x4 only)."""

from __future__ import annotations

import numpy as np

from .errors import BadSubsystemId, NotAState, NotHermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)
ID4 = np.eye(4, dtype=complex)

HERMITICITY_TOL = 1e-12
EIGVAL_FLOOR = -1e-10
#: |trace - 1| that von_neumann_entropy allows (looser than dimer.STATE_TRACE_TOL)
ENTROPY_TRACE_TOL = 1e-9


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
    if keep not in (1, 2):
        raise BadSubsystemId(f"keep must be 1 or 2, got {keep!r}")
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    if keep == 1:
        return np.einsum("ikjk->ij", r)
    return np.einsum("ikil->kl", r)


def von_neumann_entropy(rho) -> float:
    """Entropy -sum p log2 p in bits, with 0 log 0 = 0.

    Eigenvalues below EIGVAL_FLOOR raise NotAState; negative roundoff above
    the floor is clamped to zero.
    """
    rho = np.asarray(rho, dtype=complex)
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > ENTROPY_TRACE_TOL:
        raise NotAState(f"trace {tr!r} is not 1 within {ENTROPY_TRACE_TOL:.1e}")
    probs = np.linalg.eigvalsh(rho)
    low = float(probs.min())
    if low < EIGVAL_FLOOR:
        raise NotAState(f"eigenvalue {low:.3e} below {EIGVAL_FLOOR:.1e}")
    probs = np.clip(probs, 0.0, None)
    probs = probs[probs > 0.0]
    return max(0.0, float(-(probs * np.log2(probs)).sum()))
