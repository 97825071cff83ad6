"""Concurrence of the two-spin state, numerically and in closed form, and the closed-form
discord of the evolved pair."""

from __future__ import annotations

import math

import numpy as np

from .dimer import DimerParams, _deviation, _polarization, initial_polarization, param_tau_bar
from .linalg import (PAULI_Y, _checked_state, _finite_matrix, _spin_label, as_float, finite_array,
                     kron)

SPIN_FLIP_KERNEL = kron(PAULI_Y, PAULI_Y)


def spin_flip(rho) -> np.ndarray:
    """Spin-flipped state (sigma_y x sigma_y) conj(rho) (sigma_y x sigma_y) of a 4x4 matrix
    of finite entries; NotAState for anything else."""
    return SPIN_FLIP_KERNEL @ _finite_matrix(rho).conj() @ SPIN_FLIP_KERNEL


def concurrence_spectrum(rho) -> np.ndarray:
    """Descending square roots of the eigenvalues of rho @ spin_flip(rho).

    Evaluated as the singular values of R^T K R, with K = sigma_y x sigma_y and
    R = V sqrt(w) from the state check's eigh (rho = R R^H). That matrix is
    sqrt(rho) K conj(sqrt(rho)) up to unitaries, so it has the same values, and it
    never takes the square root of eigensolver noise (1e-16 noise, 1e-8 error).
    """
    _, w, v = _checked_state(rho)
    root = v * np.sqrt(np.clip(w, 0.0, None))
    return np.sort(np.linalg.svd(root.T @ SPIN_FLIP_KERNEL @ root, compute_uv=False))[::-1]


def concurrence_numeric(rho) -> float:
    """Concurrence max{0, lam1 - lam2 - lam3 - lam4} from the spin-flip spectrum."""
    lam = concurrence_spectrum(rho)
    return max(0.0, float(lam[0] - lam[1] - lam[2] - lam[3]))


def concurrence_analytic(p: DimerParams, tau=None, *, tau_bar=None) -> float:
    """Closed form |F sin(2 tau_bar)| with F the initial polarization, elementwise on arrays."""
    tb = param_tau_bar(p.d, tau, tau_bar)
    return as_float(np.abs(initial_polarization(p) * np.sin(2.0 * tb)))


def concurrence_from_intensities(p: DimerParams, j2):
    """Concurrence recovered from the summed second-order intensity, elementwise on arrays.

    C = sqrt(|F j2|) with F the initial polarization; equals
    concurrence_analytic when j2 is the closed-form J2 at the same time.
    j2 inherits the sign of the initial polarization, so negative values
    are legitimate and the absolute value absorbs them.
    """
    j2 = finite_array(j2, "j2")
    return as_float(np.sqrt(np.abs(initial_polarization(p) * j2)))


def discord_curve(p: DimerParams, tau=None, *, tau_bar=None, measured: int = 2):
    """Quantum discord q of the evolved pair in bits, measuring spin `measured`, in closed
    form and elementwise on arrays of times: discord(evolve_analytic(p, ...), measured).q
    with no state, eigensolve or optimizer.

    q = S(rho_m) - S(rho) + the minimal conditional entropy. With phi(x) = 1 - h((1 + x)/2)
    and t = tanh(b/2), S(rho) = 1 - phi(t) and S(rho_m) = 1 - phi(r) for the measured spin's
    Bloch length r = hypot(F cos(2 tau_bar) +/- F', 2 |alpha beta| s): F' is F with alpha
    and beta swapped, + and s = t |sin tau_bar| for spin 2, - and s = |cos tau_bar| for spin
    1. The state has rank <= 2, so by Koashi and Winter, with Wootters' concurrence C, the
    minimum is h(eps), eps = C^2 / (2 (1 + sqrt(1 - C^2))), where C = sech(b/2) |sin tau_bar|
    ||alpha|^2 - |beta|^2| for spin 2 and sech(b/2) |cos tau_bar| for spin 1. No entropy is
    a difference of O(1) terms, so q keeps its relative digits as b -> 0.
    """
    tb = param_tau_bar(p.d, tau, tau_bar)
    measured = _spin_label(measured)
    a2, b2 = abs(p.alpha) ** 2, abs(p.beta) ** 2
    t = _deviation(p)
    w0, w1 = p.thermal_weights
    sech = 2.0 * math.sqrt(w0 * w1)
    z = _polarization(p, a2, b2) * np.cos(2.0 * tb)
    if measured == 2:
        sin = np.abs(np.sin(tb))
        r = np.hypot(z + _polarization(p, b2, a2), 2.0 * abs(p.alpha * p.beta) * t * sin)
        c = sech * abs(a2 - b2) * sin
    else:
        cos = np.abs(np.cos(tb))
        r = np.hypot(z - _polarization(p, b2, a2), 2.0 * abs(p.alpha * p.beta) * cos)
        c = sech * cos
    # C and r pass 1 only by roundoff or by DimerParams' 1e-9 normalization tolerance, and
    # q passes below 0 only by roundoff
    c2 = np.minimum(c * c, 1.0)
    eps = c2 / (2.0 * (1.0 + np.sqrt(1.0 - c2)))
    q = _deficit(t) - _deficit(np.minimum(r, 1.0)) + _binary_entropy(eps)
    return as_float(np.maximum(q, 0.0))


def _deficit(x):
    # phi(x) = 1 - h((1 + x)/2) in bits for 0 <= x <= 1: up to x = 1/2 the form
    # (2 x atanh(x) + log1p(-x^2)) / (2 ln 2), which cancels no O(1) terms as x -> 0,
    # above it the entropy of (1 - x)/2, which stays finite at x = 1
    low = np.minimum(x, 0.5)
    small = (2.0 * low * np.arctanh(low) + np.log1p(-low * low)) / (2.0 * math.log(2.0))
    return np.where(x <= 0.5, small, 1.0 - _binary_entropy(0.5 * (1.0 - x)))


def _binary_entropy(x):
    # h(x) in bits for 0 <= x <= 1/2, with 0 log 0 = 0
    return -(x * np.log(np.where(x > 0.0, x, 1.0)) + (1.0 - x) * np.log1p(-x)) / math.log(2.0)
