"""Projective measurements on one spin, conditional entropy, quantum discord.

The measured spin is selectable (default: spin 2, the thermal one). All
entropies are in bits. Everything is read from one real 4x4 table per
state, T_ab = Tr rho (sigma_a x sigma_b) with sigma_0 = I: column 0 and
row 0 hold the Bloch vectors of spins 1 and 2, so the one-spin entropies
need no partial trace and no 2x2 eigensolve. Measuring the projector
Pi_n = (I + n.sigma)/2 on spin 1 (rows of T) or spin 2 (rows of T^T)
leaves the other spin in a state affine in n, so one kernel call
evaluates the conditional entropy for a whole batch of directions. The
minimizer is deterministic: a fixed spherical grid, then one compass
search that refines the best five grid points together, with stable
tie-breaking, so repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NotUnitVector
from .linalg import (ID2, PAULI_X, PAULI_Y, PAULI_Z, _checked_state, _entropy_bits, _number,
                     _numbers, _spin_label, finite_array)

UNIT_TOL = 1e-12
OUTCOME_FLOOR = 1e-14
GRID_THETA = 64
GRID_PHI = 128
REFINE_STARTS = 5
REFINE_STEP_MIN = 1e-10
REFINE_MAX_ROUNDS = 400
Q_CLAMP = 1e-9

_PAULI_BASIS = np.stack([ID2, PAULI_X, PAULI_Y, PAULI_Z])
#: row 4a + b of the (16, 16) map from rho.reshape(16) to Tr rho (sigma_a x sigma_b)
_PAULI_PAIRS = np.einsum("aji,blk->abikjl", _PAULI_BASIS, _PAULI_BASIS).reshape(16, 16)
#: compass stencil in (theta, phi): axis steps first, then diagonals
_STENCIL = np.array(
    [[1, 0], [-1, 0], [0, 1], [0, -1], [1, 1], [1, -1], [-1, 1], [-1, -1]], dtype=float
)


@dataclass(frozen=True)
class DiscordResult:
    """Discord q = mutual - classical, plus the pieces it was assembled from."""

    q: float
    classical: float
    mutual: float
    best_direction: np.ndarray
    min_cond_entropy: float
    measured_subsystem: int


def direction(theta: float, phi: float) -> np.ndarray:
    """Unit Bloch vector from polar angle theta and azimuth phi, two finite numbers."""
    angles = np.array([[_number(theta, "theta"), _number(phi, "phi")]])
    return _directions(finite_array(angles, "theta and phi"))[0]


def _directions(angles: np.ndarray) -> np.ndarray:
    # (N, 2) array of (theta, phi) -> (N, 3) unit vectors
    sin_t = np.sin(angles[:, 0])
    return np.stack(
        [sin_t * np.cos(angles[:, 1]), sin_t * np.sin(angles[:, 1]), np.cos(angles[:, 0])], axis=1
    )


# The 64 x 128 (theta, phi) grid holds each point's antipode, which is the
# same measurement; keep the north pole once and the 31 rows above the
# equator.
_THETAS = np.linspace(0.0, math.pi, GRID_THETA)[1 : GRID_THETA // 2]
_PHIS = np.linspace(0.0, 2.0 * math.pi, GRID_PHI, endpoint=False)
_GRID_ANGLES = np.concatenate(
    [[[0.0, 0.0]], np.stack([np.repeat(_THETAS, GRID_PHI), np.tile(_PHIS, len(_THETAS))], axis=1)]
)
_GRID_DIRS = _directions(_GRID_ANGLES)


def _check_directions(dirs) -> np.ndarray:
    dirs = np.atleast_2d(_numbers(dirs, float, NotUnitVector, "expected real direction(s)"))
    if dirs.ndim != 2 or dirs.shape[1] != 3 or not len(dirs):
        raise NotUnitVector(f"expected direction(s) of shape (3,) or (N, 3), got shape {dirs.shape}")
    defect = np.abs(np.einsum("ni,ni->n", dirs, dirs) - 1.0)
    if not defect.max() <= UNIT_TOL:  # a NaN fails here too
        raise NotUnitVector(f"squared norm deviates from 1 by {defect.max():.3e}")
    return dirs


def projector_pair(n):
    """Rank-1 projectors (I +/- n.sigma)/2 for a unit Bloch vector n."""
    n = _check_directions(n)[0]
    pol = n[0] * PAULI_X + n[1] * PAULI_Y + n[2] * PAULI_Z
    return (ID2 + pol) / 2.0, (ID2 - pol) / 2.0


def conditional_entropy(rho, n, measured: int = 2) -> float:
    """Average post-measurement entropy of the unmeasured spin, in bits.

    The entropy of each outcome's conditional state is weighted by the
    outcome probability; outcomes with probability below OUTCOME_FLOOR
    contribute zero.
    """
    return float(conditional_entropy_many(rho, n, measured)[0])


def _pauli_table(rho: np.ndarray) -> np.ndarray:
    # T_ab = Tr rho (sigma_a x sigma_b), a real 4x4 table
    return (_PAULI_PAIRS @ rho.reshape(16)).real.reshape(4, 4)


def _measurement_basis(table: np.ndarray, measured: int) -> np.ndarray:
    # Row s holds the Pauli coordinates (trace, then Tr R_s sigma_k) of R_s,
    # the partial trace over the measured spin of rho sigma_s (sigma_s on the
    # measured spin), so row 0 is the unmeasured spin's reduced state.
    return table if measured == 1 else table.T


def _cond_entropy_core(basis: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    # The outcome blocks along n are (R_0 +/- sum_k n_k R_k) / 2, so all N
    # directions need one (N, 3) @ (3, 4) product. `twice` holds the Pauli
    # coordinates of twice each block, '+' outcomes first: (2 p, g) for an
    # outcome of probability p, whose block then has eigenvalues p (1 +/- |g| / 2p) / 2.
    shift = dirs @ basis[1:]
    twice = np.concatenate([basis[0] + shift, basis[0] - shift])
    pk = 0.5 * twice[:, 0]
    ok = pk > OUTCOME_FLOOR
    g = twice[:, 1:]
    ratio = 0.5 * np.sqrt(np.einsum("ni,ni->n", g, g)) / np.where(ok, twice[:, 0], 1.0)
    hi = 0.5 + np.minimum(ratio, 0.5)
    lo = 1.0 - hi
    bits = -(hi * np.log2(hi) + lo * np.log2(np.where(lo > 0.0, lo, 1.0)))
    terms = np.where(ok, pk * bits, 0.0)
    return np.maximum(terms[: len(dirs)] + terms[len(dirs) :], 0.0)


def conditional_entropy_many(rho, dirs, measured: int = 2) -> np.ndarray:
    """Vectorized conditional_entropy over an (N, 3) array of directions."""
    basis = _measurement_basis(_pauli_table(_checked_state(rho)[0]), _spin_label(measured))
    return _cond_entropy_core(basis, _check_directions(dirs))


def _canonical_direction(n: np.ndarray) -> np.ndarray:
    # Antipodes describe the same measurement; report the n_z >= 0 hemisphere,
    # breaking equator ties toward n_y >= 0, then n_x >= 0.
    n = n / np.linalg.norm(n)
    flip = n[2] < -UNIT_TOL or (
        abs(n[2]) <= UNIT_TOL
        and (n[1] < -UNIT_TOL or (abs(n[1]) <= UNIT_TOL and n[0] < 0.0))
    )
    return -n if flip else n


def _refine(basis: np.ndarray, grid_values: np.ndarray, order: np.ndarray):
    # Compass search in (theta, phi) from the grid points `order`, all at
    # once: each round evaluates the eight stencil neighbours of every start
    # in one kernel call; a start moves to its best neighbour (first on
    # ties) when that is strictly lower, and halves its step otherwise,
    # until every step is below REFINE_STEP_MIN. (theta, phi) degenerates
    # at the poles, so a start on a pole searches in the chart with x and z
    # swapped, in which it sits on the equator at (pi/2, 0). Returns the
    # refined directions and values.
    angles, dirs, values = _GRID_ANGLES[order], _GRID_DIRS[order], grid_values[order]
    on_pole = angles[:, 0] == 0.0
    angles[on_pole, 0] = 0.5 * math.pi
    step = np.full(len(order), math.pi / (GRID_THETA - 1))
    rows = np.arange(len(order))
    for _ in range(REFINE_MAX_ROUNDS):
        if step.max() < REFINE_STEP_MIN:
            break
        trial = angles[:, None, :] + step[:, None, None] * _STENCIL
        trial_dirs = _directions(trial.reshape(-1, 2)).reshape(len(order), len(_STENCIL), 3)
        if on_pole.any():
            trial_dirs[on_pole] = trial_dirs[on_pole][:, :, ::-1]
        trial_values = _cond_entropy_core(basis, trial_dirs.reshape(-1, 3)).reshape(len(order), -1)
        pick = np.argmin(trial_values, axis=1)
        best = trial_values[rows, pick]
        move = best < values
        angles[move] = trial[move, pick[move]]
        dirs[move] = trial_dirs[move, pick[move]]
        values[move] = best[move]
        step[~move] *= 0.5
    return dirs, values


def minimize_conditional_entropy(rho, measured: int = 2):
    """Global minimum of the conditional entropy over the unit sphere.

    Returns (best_direction, min_entropy). Deterministic: the upper half
    of a 64 x 128 (theta, phi) grid (antipodes are the same measurement),
    then a compass search that refines the five best grid points together
    (stable index tie-breaking; steps halved from the grid spacing down to
    REFINE_STEP_MIN); a flat objective returns the first grid point, the
    north pole.
    """
    return _minimize(_measurement_basis(_pauli_table(_checked_state(rho)[0]), _spin_label(measured)))


def _minimize(basis: np.ndarray):
    # minimize_conditional_entropy on the measurement basis of a checked state
    grid_values = _cond_entropy_core(basis, _GRID_DIRS)
    order = np.argsort(grid_values, kind="stable")[:REFINE_STARTS]
    dirs, values = _refine(basis, grid_values, order)
    best = int(np.argmin(values))
    return _canonical_direction(dirs[best]), float(values[best])


def _entropies(table: np.ndarray, spectrum: np.ndarray) -> tuple[float, ...]:
    # (S(rho_1), S(rho_2), S(rho)); a spin of Bloch vector v has eigenvalues (1 -/+ |v|) / 2
    s1, s2 = (_entropy_bits(0.5 * (bloch[0] + np.linalg.norm(bloch[1:]) * np.array([-1.0, 1.0])))
              for bloch in (table[:, 0], table[0]))
    return s1, s2, _entropy_bits(spectrum)


def mutual_information(rho) -> float:
    """Total correlations S(rho_1) + S(rho_2) - S(rho), in bits."""
    rho, spectrum, _ = _checked_state(rho)
    s1, s2, s12 = _entropies(_pauli_table(rho), spectrum)
    return s1 + s2 - s12


def classical_correlations(rho, measured: int = 2) -> float:
    """Entropy of the unmeasured spin minus the minimized conditional entropy."""
    return discord(rho, measured).classical


def discord(rho, measured: int = 2) -> DiscordResult:
    """Quantum discord: mutual information minus classical correlations."""
    rho, spectrum, _ = _checked_state(rho)
    measured = _spin_label(measured)
    table = _pauli_table(rho)
    best_dir, min_ce = _minimize(_measurement_basis(table, measured))
    s1, s2, s12 = _entropies(table, spectrum)
    classical = (s2 if measured == 1 else s1) - min_ce
    mutual = s1 + s2 - s12
    q = mutual - classical
    if -Q_CLAMP <= q < 0.0:
        q = 0.0
    return DiscordResult(
        q=q,
        classical=classical,
        mutual=mutual,
        best_direction=best_dir,
        min_cond_entropy=min_ce,
        measured_subsystem=measured,
    )
