"""Fixed-size 2x2 and 4x4 complex matrix kernels and the input rules of the two-spin toolkit."""

from __future__ import annotations

import reprlib

import numpy as np

from .errors import BadSubsystemId, InvalidParams, NotAState, NotHermitian

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

#: tolerances of the one density-matrix rule, _checked_state (eig_hermitian shares the first)
HERMITICITY_TOL = 1e-12
STATE_TRACE_TOL = 1e-12
EIGVAL_FLOOR = -1e-10


def kron(a, b) -> np.ndarray:
    """Tensor product, row-major blocks: kron(a, b)[2i+k, 2j+l] = a[i,j] b[k,l]; NotAState
    for an argument that is not numbers, bools and text too."""
    return np.kron(*(_numbers(m, complex, NotAState, "expected numbers") for m in (a, b)))


def hermiticity_defect(m) -> float:
    """max |m - m^H| of a square matrix; NotAState for anything else, bools and text too."""
    m = _numbers(m, complex, NotAState, "expected a matrix of numbers")
    if m.ndim != 2 or m.shape[0] != m.shape[1] or not m.size:
        raise NotAState(f"expected a non-empty square matrix, got shape {m.shape}")
    return _defect(m)


def _defect(m: np.ndarray) -> float:
    # hermiticity_defect of an already converted square matrix
    return float(np.max(np.abs(m - m.conj().T)))


def eig_hermitian(m):
    """Eigendecomposition of a Hermitian 2x2 or 4x4 matrix.

    Returns (values, vectors) with values sorted descending and vectors the
    matching orthonormal columns, so that m = V diag(values) V^H. NotAState
    for another shape or a non-numeric matrix, NotHermitian for a matrix that
    is not Hermitian or not finite.
    """
    m = _matrix(m, ((2, 2), (4, 4)))
    with np.errstate(over="ignore", invalid="ignore"):  # NaN, inf and overflow fail below
        defect = _defect(m)
        if not defect <= HERMITICITY_TOL:
            raise NotHermitian(f"max |m - m^H| = {defect:.3e} exceeds {HERMITICITY_TOL:.1e}")
        vals, vecs = np.linalg.eigh(m)
    if not np.isfinite(vals).all():
        raise NotHermitian(f"eigenvalues {vals.tolist()!r} are not finite")
    return vals[::-1].copy(), vecs[:, ::-1].copy()


def partial_trace(rho, keep: int) -> np.ndarray:
    """Trace out one spin of a 4x4 two-spin operator, keeping subsystem 1 or 2; NotAState
    for another shape or for a result that is not finite (a NaN entry, an overflow)."""
    subscripts = "ikjk->ij" if _spin_label(keep, "keep") == 1 else "ikil->kl"
    reduced = np.einsum(subscripts, _matrix(rho).reshape(2, 2, 2, 2))
    if not np.isfinite(reduced).all():
        raise NotAState(f"partial trace {reduced.tolist()!r} is not finite")
    return reduced


def _spin_label(label, name: str = "measured subsystem", error=BadSubsystemId) -> int:
    """label as spin 1 or 2 (the integer rule); else BadSubsystemId or `error`."""
    return _integer(label, (1, 2), name, error)


def _integer(x, allowed, name: str, error) -> int:
    """x as an int if an int or numpy integer, not a bool, in `allowed` (a run); else error."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool) and int(x) in allowed:
        return int(x)
    raise error(f"{name} must be an integer in {allowed[0]}..{allowed[-1]}, got {_shown(x)}")


#: what numpy would read as a number but is not one: a bool, text or None; for a real, a complex
_NOT_NUMBERS = {complex: (bool, np.bool_, str, bytes, type(None)),
                float: (bool, np.bool_, str, bytes, type(None), complex, np.complexfloating)}
_NOT_KINDS = {complex: "bSU", float: "bSUc"}


def _numbers(x, dtype, error, what: str) -> np.ndarray:
    """x as an ndarray of dtype float or complex, the one conversion of outside numbers;
    error(f"{what}, got {_shown(x)}") if x is or holds one of _NOT_NUMBERS, or numpy
    cannot convert it (ragged nesting, an int beyond float range)."""
    try:
        if isinstance(x, np.ndarray) and x.dtype != object:
            numbers = x.dtype.kind not in _NOT_KINDS[dtype]
        else:
            numbers = not any(isinstance(v, _NOT_NUMBERS[dtype]) for v in np.asarray(x, object).flat)
        if numbers:
            return np.asarray(x, dtype)
    except (TypeError, ValueError, OverflowError):
        pass
    raise error(f"{what}, got {_shown(x)}")


def _shown(x) -> str:
    """repr(x) for an error message; past 200 characters, reprlib's abbreviation cut to 200."""
    text = repr(x)
    return text if len(text) <= 200 else reprlib.repr(x)[:200]


def _number(x, name: str, kind=float):
    """x as one Python float (or complex); anything else, a bool, text or None too: InvalidParams."""
    number = _numbers(x, kind, InvalidParams, f"{name} must be a number")
    if number.ndim:
        raise InvalidParams(f"{name} must be a number, got {_shown(x)}")
    return kind(number)


def finite_array(x, name: str) -> np.ndarray:
    """x as a float ndarray; a bool, text, None, a complex, or a NaN or +-inf anywhere, raises
    InvalidParams."""
    x = _numbers(x, float, InvalidParams, f"{name} must be a number or an array of numbers")
    if not np.isfinite(x).all():
        raise InvalidParams(f"{name} must be finite, got {float(x[~np.isfinite(x)][0])!r}")
    return x


def as_float(x):
    """A 0-d result as a Python float; an array as it is."""
    return float(x) if np.ndim(x) == 0 else x


def _matrix(m, shapes=((4, 4),)) -> np.ndarray:
    """m as a complex ndarray of one of `shapes`; NotAState for anything else, bools and text too."""
    m = _numbers(m, complex, NotAState, "expected a matrix of numbers")
    if m.shape not in shapes:
        raise NotAState(f"expected shape {' or '.join(map(str, shapes))}, got {m.shape}")
    return m


def _finite_matrix(m) -> np.ndarray:
    """m as a complex 4x4 ndarray of finite entries; NotAState for anything else."""
    m = _matrix(m)
    if not np.isfinite(m).all():
        raise NotAState(f"entries must be finite, got {complex(m[~np.isfinite(m)][0])!r}")
    return m


def _checked_state(rho, shapes=((4, 4),)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """rho as a complex ndarray of one of `shapes`, with its one eigh: ascending values and
    their vectors; NotAState unless Hermitian, of trace 1 and no value below EIGVAL_FLOOR."""
    rho = _matrix(rho, shapes)
    with np.errstate(over="ignore", invalid="ignore"):  # NaN, inf and overflow fail below
        defect, tr = _defect(rho), complex(np.trace(rho))
    if not defect <= HERMITICITY_TOL:
        raise NotAState(f"Hermiticity defect {defect:.3e} exceeds {HERMITICITY_TOL:.1e}")
    if not abs(tr - 1.0) <= STATE_TRACE_TOL:
        raise NotAState(f"trace {tr!r} is not 1 within {STATE_TRACE_TOL:.1e}")
    spectrum, vectors = np.linalg.eigh(rho)
    if not spectrum[0] >= EIGVAL_FLOOR:
        raise NotAState(f"eigenvalue {spectrum[0]:.3e} below {EIGVAL_FLOOR:.1e}")
    return rho, spectrum, vectors


def _entropy_bits(spectrum: np.ndarray) -> float:
    """-sum p log2 p over a state's spectrum; 0 log 0 = 0, negative roundoff counts as 0."""
    probs = np.clip(spectrum, 0.0, None)
    probs = probs[probs > 0.0]
    return max(0.0, float(-(probs * np.log2(probs)).sum()))


def von_neumann_entropy(rho) -> float:
    """Entropy of a 2x2 or 4x4 density matrix in bits; NotAState for anything else."""
    return _entropy_bits(_checked_state(rho, ((2, 2), (4, 4)))[1])
