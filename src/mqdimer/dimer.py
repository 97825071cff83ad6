"""Dipolar two-spin pair: initial state, two-quantum Hamiltonian, evolution.

Basis convention: |0> is the I_z = +1/2 state of a spin, basis order
|00>, |01>, |10>, |11> with spin 1 first. Spin 1 starts in the pure state
alpha|0> + beta|1>, spin 2 in thermal equilibrium with weight
exp(b)/(exp(b)+1) on |0>. Closed-form results are functions of the
dimensionless time tau_bar = d * tau only.

Each input rule lives here once (times in param_tau_bar; states in linalg): a bad
input, a bool for a number too, raises InvalidParams. The closed forms take one time
or an array of times; evolve_analytic, propagator, evolve_numeric and ht_reference take one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParams
from .linalg import _checked_state, eig_hermitian, kron

NORMALIZATION_TOL = 1e-9

#: |tau_bar| must stay below this, so that 2 tau_bar (sin and cos take it) is finite
TAU_BAR_LIMIT = 2.0**1023

#: total z magnetization I_1z + I_2z in the standard basis
IZ_TOTAL = np.diag([1.0, 0.0, 0.0, -1.0]).astype(complex)


@dataclass(frozen=True)
class DimerParams:
    """Physical inputs: spin-1 amplitudes, thermal factor b >= 0, coupling d > 0."""

    alpha: complex
    beta: complex
    b: float
    d: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "alpha", _number(self.alpha, "alpha", complex))
        object.__setattr__(self, "beta", _number(self.beta, "beta", complex))
        object.__setattr__(self, "b", _number(self.b, "b"))
        norm = _squared_norm(self.alpha, self.beta)
        if not math.isfinite(norm) or abs(norm - 1.0) > NORMALIZATION_TOL:
            raise InvalidParams(f"|alpha|^2 + |beta|^2 = {norm!r}, expected 1")
        if not math.isfinite(self.b) or self.b < 0:
            raise InvalidParams(f"b must be finite and >= 0, got {self.b!r}")
        object.__setattr__(self, "d", _coupling(self.d))

    @classmethod
    def normalized(cls, alpha, beta, b, d=1.0) -> "DimerParams":
        """Rescale (alpha, beta) onto the unit sphere before validation."""
        alpha, beta = _number(alpha, "alpha", complex), _number(beta, "beta", complex)
        scale = math.sqrt(_squared_norm(alpha, beta))
        if scale == 0.0 or not math.isfinite(scale):
            raise InvalidParams("amplitudes cannot be normalized")
        return cls(alpha / scale, beta / scale, b, d)

    @property
    def thermal_weights(self) -> tuple[float, float]:
        """Spin-2 populations (w0, w1) on |0>, |1>; the overflow-safe form of
        (e^b, 1) / (e^b + 1)."""
        w1 = math.exp(-self.b) / (1.0 + math.exp(-self.b))
        return 1.0 - w1, w1


def _number(x, name: str, kind=float):
    """x as one Python float (or complex); anything else, a bool too, raises InvalidParams."""
    try:
        if np.ndim(x) == 0 and np.asarray(x).dtype != bool:
            return kind(x)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidParams(f"{name} must be a number, got {x!r}")


def _squared_norm(alpha: complex, beta: complex) -> float:
    """|alpha|^2 + |beta|^2, or inf where that overflows a float."""
    try:
        return abs(alpha) ** 2 + abs(beta) ** 2
    except OverflowError:
        return math.inf


def _coupling(d) -> float:
    """The dipolar coupling d as a float."""
    d = _number(d, "d")
    if not math.isfinite(d) or d <= 0:
        raise InvalidParams(f"d must be finite and > 0, got {d!r}")
    return d


def finite_array(x, name: str) -> np.ndarray:
    """x as a float ndarray; a bool, or a NaN or +-inf anywhere, raises InvalidParams."""
    try:
        if np.asarray(x).dtype == bool:
            raise TypeError
        x = np.asarray(x, dtype=float)
    except (TypeError, ValueError, OverflowError):
        raise InvalidParams(f"{name} must be a number or an array of numbers, got {x!r}") from None
    if not np.isfinite(x).all():
        raise InvalidParams(f"{name} must be finite, got {float(x[~np.isfinite(x)][0])!r}")
    return x


def as_float(x):
    """A 0-d result as a Python float; an array as it is."""
    return float(x) if np.ndim(x) == 0 else x


def param_tau_bar(d, tau, tau_bar, one_time_for: str | None = None):
    """tau_bar from exactly one of tau (times the coupling d) or tau_bar: a float, or
    a float ndarray for an array of times unless one_time_for names the caller."""
    if (tau is None) == (tau_bar is None):
        raise InvalidParams("give exactly one of tau or tau_bar")
    if tau is not None:
        with np.errstate(over="ignore"):  # an overflow shows as an infinite tau_bar
            tau_bar = _coupling(d) * finite_array(tau, "tau")
    tb = finite_array(tau_bar, "tau_bar")
    if not (np.abs(tb) < TAU_BAR_LIMIT).all():
        raise InvalidParams(f"|tau_bar| must be below 2**1023, got {float(np.abs(tb).max())!r}")
    if one_time_for and tb.ndim:
        raise InvalidParams(f"{one_time_for} takes one time, got an array of shape {tb.shape}")
    return as_float(tb)


def require_state(rho) -> np.ndarray:
    """Validate a 4x4 density matrix (linalg's state rule); returns it as a complex ndarray."""
    return _checked_state(rho)[0]


def initial_state(p: DimerParams) -> np.ndarray:
    """Pure spin 1 tensored with thermal spin 2."""
    psi = np.array([[p.alpha], [p.beta]], dtype=complex)
    w0, w1 = p.thermal_weights
    return kron(psi @ psi.conj().T, np.diag([w0, w1]).astype(complex))


def mq_hamiltonian(d: float) -> np.ndarray:
    """Two-quantum coupling d (I1+ I2+ + I1- I2-): flips |00> <-> |11>."""
    d = _coupling(d)
    h = np.zeros((4, 4), dtype=complex)
    h[0, 3] = h[3, 0] = d
    return h


def propagator(d=None, tau=None, *, tau_bar=None) -> np.ndarray:
    """Unitary exp(-i H tau) built from the Hermitian eigendecomposition.

    Acts as the identity on span{|01>, |10>} and rotates the |00>, |11>
    pair by the angle tau_bar = d * tau.
    """
    if tau_bar is not None and d is not None:
        raise InvalidParams("d is redundant when tau_bar is given")
    tb = param_tau_bar(d, tau, tau_bar, "propagator")
    vals, vecs = eig_hermitian(mq_hamiltonian(1.0))
    phases = np.exp(-1j * vals * tb)
    return (vecs * phases) @ vecs.conj().T


def evolve_numeric(rho0, d=None, tau=None, *, tau_bar=None) -> np.ndarray:
    """Conjugate a state by the propagator: U rho0 U^H."""
    u = propagator(d, tau, tau_bar=tau_bar)
    return u @ np.asarray(rho0, dtype=complex) @ u.conj().T


def evolve_analytic(p: DimerParams, tau=None, *, tau_bar=None) -> np.ndarray:
    """Closed-form evolved density matrix, entry by entry.

    Equal to evolve_numeric(initial_state(p), ...) up to roundoff; this is
    the reference expression the numeric path is checked against. Takes
    one time; an array of times raises InvalidParams.
    """
    return closed_form_state(p, param_tau_bar(p.d, tau, tau_bar, "evolve_analytic"))


def closed_form_state(p: DimerParams, tb: float) -> np.ndarray:
    """evolve_analytic at a dimensionless time tb that is taken as given.

    No check on tb: a NaN time gives a NaN matrix. Callers that take a
    time from outside resolve it with param_tau_bar first.
    """
    w0, w1 = p.thermal_weights
    a2 = abs(p.alpha) ** 2
    b2 = abs(p.beta) ** 2
    g = p.alpha * p.beta.conjugate()
    c, s = math.cos(tb), math.sin(tb)
    s2 = math.sin(2.0 * tb)

    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = a2 * c * c * w0 + b2 * s * s * w1
    m[0, 1] = -1j * np.conj(g) * s * w1
    m[0, 2] = g * c * w0
    m[0, 3] = 0.5j * s2 * (a2 * w0 - b2 * w1)
    m[1, 1] = a2 * w1
    m[1, 3] = g * c * w1
    m[2, 2] = b2 * w0
    m[2, 3] = 1j * np.conj(g) * s * w0
    m[3, 3] = a2 * s * s * w0 + b2 * c * c * w1
    m[1, 0] = np.conj(m[0, 1])
    m[2, 0] = np.conj(m[0, 2])
    m[3, 0] = np.conj(m[0, 3])
    m[3, 1] = np.conj(m[1, 3])
    m[3, 2] = np.conj(m[2, 3])
    return m


def ht_reference(d=None, tau=None, *, tau_bar=None) -> np.ndarray:
    """High-temperature reference: total z magnetization conjugated by the propagator.

    Traceless, Hermitian, and supported on coherence orders 0 and +/-2 only.
    """
    u = propagator(d, tau, tau_bar=tau_bar)
    return u @ IZ_TOTAL @ u.conj().T
