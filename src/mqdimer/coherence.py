"""Coherence-order decomposition and observable intensities.

A matrix element |r><c| carries the order Mz(r) - Mz(c), where Mz maps the
basis states |00>, |01>, |10>, |11> to total z magnetization +1, 0, 0, -1.
In a two-spin system the possible orders are -2..+2; the observable
intensities of orders +/-1 vanish identically against the high-temperature
reference, which has no odd-order support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dimer import DimerParams, as_float, param_tau_bar
from .errors import NonRealIntensity

ORDERS = (-2, -1, 0, 1, 2)

_MZ = np.array([1, 0, 0, -1])
_ENTRY_ORDER = _MZ[:, None] - _MZ[None, :]


def decompose(m) -> dict[int, np.ndarray]:
    """Split a 4x4 matrix by coherence order; components sum back to m."""
    m = np.asarray(m, dtype=complex)
    return {n: np.where(_ENTRY_ORDER == n, m, 0.0) for n in ORDERS}


def intensity(rho_comps: dict, ht_comps: dict, n: int, imag_tol: float = 1e-9) -> float:
    """Observable intensity of order n: Tr of the order-n state component
    against the order-(-n) reference component."""
    value = complex(np.trace(rho_comps[n] @ ht_comps[-n]))
    if abs(value.imag) > imag_tol:
        raise NonRealIntensity(f"imaginary residue {value.imag:.3e} exceeds {imag_tol:.1e}")
    return value.real


@dataclass(frozen=True)
class IntensityProfile:
    """Intensities by order at one time, or arrays over times; j2 = g_plus2 + g_minus2."""

    g0: float
    g_plus2: float
    g_minus2: float
    j2: float


def initial_polarization(p: DimerParams) -> float:
    """Longitudinal polarization of the initial state, (e^b |alpha|^2 - |beta|^2) / (e^b + 1).

    This is the conserved total G0 + G(+2) + G(-2) and the prefactor of every
    closed-form intensity and of the concurrence.
    """
    w0, w1 = p.thermal_weights
    return abs(p.alpha) ** 2 * w0 - abs(p.beta) ** 2 * w1


def analytic_intensities(p: DimerParams, tau=None, *, tau_bar=None) -> IntensityProfile:
    """Closed-form intensities: G0 = F cos^2(2 tau_bar), G(+/-2) = F/2 sin^2(2 tau_bar).

    An array of times gives arrays; np.square, unlike **, gives scalars the same bits."""
    tb = param_tau_bar(p.d, tau, tau_bar)
    f = initial_polarization(p)
    g0 = f * np.square(np.cos(2.0 * tb))
    g2 = 0.5 * f * np.square(np.sin(2.0 * tb))
    return IntensityProfile(*map(as_float, (g0, g2, g2, 2.0 * g2)))
