"""Concurrence of the two-spin state, numerically and in closed form."""

from __future__ import annotations

import numpy as np

from .dimer import DimerParams, initial_polarization, param_tau_bar
from .linalg import PAULI_Y, _checked_state, _finite_matrix, as_float, finite_array, kron

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
