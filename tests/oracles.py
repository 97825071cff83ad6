"""Independent reference implementations used to cross-check the package.

Everything here is deliberately computed another way than the library:
the Pauli correlations take one kron and trace per entry (the library maps
rho through one precomputed 16 x 16 matrix), lifted_conditional_entropy
lifts the projectors onto both spins and needs no Pauli algebra at all,
and entropies/partial traces are local re-implementations. The sweep
writers' references format one row or one point at a time, and ref_m4_rows
picks a plot's rows with a scalar loop over the runs.
eig_general_moduli gives the concurrence spectrum through a general
(non-Hermitian) eigensolver. rank2_min_cond_entropy gives the minimal
conditional entropy of a rank <= 2 state in closed form, where the library
searches over measurement directions. The one name taken from mqdimer is the
error type that eig_general_moduli raises.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import repeat

import numpy as np

from mqdimer.errors import SpectrumNotReal

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)
PAULIS = (SX, SY, SZ)


def ref_partial_trace(rho, keep):
    r = np.asarray(rho, dtype=complex).reshape(2, 2, 2, 2)
    if keep == 1:
        return np.einsum("ikjk->ij", r)
    return np.einsum("ikil->kl", r)


def ref_entropy_bits(rho):
    w = np.linalg.eigvalsh(np.asarray(rho, dtype=complex))
    w = np.clip(w, 0.0, None)
    w = w[w > 0]
    return max(0.0, float(-(w * np.log2(w)).sum()))


def eig_general_moduli(m):
    """Real parts of the eigenvalues of a general matrix, sorted descending.

    Meant for products like rho @ spin_flip(rho), whose spectrum is real and
    non-negative up to roundoff. Imaginary parts beyond 1e-9 (1 + |Re|)
    raise SpectrumNotReal; real parts in [-1e-10, 0) are clamped to zero.
    """
    vals = np.linalg.eigvals(np.asarray(m, dtype=complex))
    bad = np.abs(vals.imag) > 1e-9 * (1.0 + np.abs(vals.real))
    if np.any(bad):
        worst = vals[np.argmax(np.abs(vals.imag))]
        raise SpectrumNotReal(f"eigenvalue {worst!r} has a non-negligible imaginary part")
    real = np.sort(vals.real)[::-1]
    real[(real < 0.0) & (real >= -1e-10)] = 0.0
    return real


def _binary_entropy(x):
    x = np.clip(x, 0.0, 1.0)
    out = np.zeros_like(x)
    for v in (x, 1.0 - x):
        mask = v > 0
        out -= np.where(mask, v * np.log2(np.where(mask, v, 1.0)), 0.0)
    return np.maximum(out, 0.0)


def lifted_conditional_entropy(rho, n, measured=2):
    """Conditional entropy by lifting each projector (I +/- n.sigma)/2 onto
    the measured spin and tracing out the post-measurement state."""
    rho = np.asarray(rho, dtype=complex)
    pol = n[0] * SX + n[1] * SY + n[2] * SZ
    total = 0.0
    for pi in ((I2 + pol) / 2.0, (I2 - pol) / 2.0):
        lifted = np.kron(pi, I2) if measured == 1 else np.kron(I2, pi)
        post = lifted @ rho @ lifted
        pk = np.trace(post).real
        if pk >= 1e-14:
            total += pk * ref_entropy_bits(ref_partial_trace(post / pk, keep=3 - measured))
    return total


def ref_pauli_correlations(rho):
    """(r, s, t): the Bloch vectors r_i = Tr rho (sigma_i x I), s_j = Tr rho (I x sigma_j)
    and the correlations t_ij = Tr rho (sigma_i x sigma_j), one kron and trace each."""
    rho = np.asarray(rho, dtype=complex)
    r = np.array([np.trace(rho @ np.kron(s, I2)).real for s in PAULIS])
    s = np.array([np.trace(rho @ np.kron(I2, p)).real for p in PAULIS])
    t = np.array([[np.trace(rho @ np.kron(a, b)).real for b in PAULIS] for a in PAULIS])
    return r, s, t


def bloch_conditional_entropy(rho, dirs, measured=2):
    """Conditional entropy from the Pauli expansion of rho.

    With rho = (1/4) [I + r.sigma x I + I x s.sigma + sum T_ij sigma_i x sigma_j],
    measuring spin 2 along n gives outcome weights (1 +/- s.n)/2 and leaves
    spin 1 with Bloch vector (r +/- T n) / (1 +/- s.n); the entropy of a qubit
    is the binary entropy of (1 + |bloch|)/2. Measuring spin 1 swaps the
    roles and transposes T.
    """
    dirs = np.atleast_2d(np.asarray(dirs, dtype=float))
    r, s, t = ref_pauli_correlations(rho)
    if measured == 1:
        local, remote, tmat = r, s, t.T
    else:
        local, remote, tmat = s, r, t
    proj = dirs @ local
    tn = dirs @ tmat.T
    total = np.zeros(len(dirs))
    for sign in (1.0, -1.0):
        pk = (1.0 + sign * proj) / 2.0
        ok = pk > 1e-14
        safe = np.where(ok, pk, 1.0)
        length = np.linalg.norm(remote[None, :] + sign * tn, axis=1) / (2.0 * safe)
        total += np.where(ok, pk * _binary_entropy((1.0 + np.clip(length, 0.0, 1.0)) / 2.0), 0.0)
    return total


@lru_cache(maxsize=1)
def _grid_chunks(n_theta, n_phi, chunks):
    # the directions of dense_grid_min's (theta, phi) grid, chunk by chunk and read-only:
    # built once per grid shape (2M directions take ~0.2 s), not once per state
    thetas = np.linspace(0.0, np.pi, n_theta)
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    out = []
    for chunk in np.array_split(thetas, chunks):
        tt, pp = np.meshgrid(chunk, phis, indexing="ij")
        dirs = np.stack(
            [np.sin(tt) * np.cos(pp), np.sin(tt) * np.sin(pp), np.cos(tt)], axis=-1
        ).reshape(-1, 3)
        dirs.flags.writeable = False
        out.append(dirs)
    return tuple(out)


def dense_grid_min(rho, measured=2, n_theta=1024, n_phi=2048, chunks=16):
    """Minimum conditional entropy over a full (theta, phi) grid."""
    best = np.inf
    best_dir = None
    for dirs in _grid_chunks(n_theta, n_phi, chunks):
        vals = bloch_conditional_entropy(rho, dirs, measured)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best = float(vals[i])
            best_dir = dirs[i].copy()
    return best, best_dir


def zoomed_grid_min(rho, measured=2, zooms=4, n_side=33, **grid):
    """dense_grid_min, then square grids in the tangent plane at the best point.

    The first square spans one coarse grid spacing on each side of the best
    grid point; each following one is 1/8 as wide, centred on the best point
    so far. The 1024 x 2048 grid alone brackets a smooth minimum only to
    about 1e-6, its spacing squared times the curvature.
    """
    best, n0 = dense_grid_min(rho, measured, **grid)
    half = np.pi / (grid.get("n_theta", 1024) - 1)
    offsets = np.linspace(-1.0, 1.0, n_side)
    uu, vv = [g.reshape(-1, 1) for g in np.meshgrid(offsets, offsets)]
    for _ in range(zooms):
        e1 = np.cross(n0, np.eye(3)[np.argmin(np.abs(n0))])
        e1 /= np.linalg.norm(e1)
        e2 = np.cross(n0, e1)
        dirs = n0 + half * (uu * e1 + vv * e2)
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        vals = bloch_conditional_entropy(rho, dirs, measured)
        i = int(np.argmin(vals))
        if vals[i] < best:
            best, n0 = float(vals[i]), dirs[i]
        half /= 8.0
    return best, n0


def rank2_min_cond_entropy(rho, measured=2):
    """Closed-form minimum over all measurements on spin `measured` of the conditional
    entropy of a state of rank <= 2, in bits. By Koashi and Winter it is the entanglement
    of formation of the unmeasured spin and a purifying qubit, which Wootters' formula
    gives from the concurrence C = |s0 - s1|, the singular values of Phi^T (sy x sy) Phi,
    where column j of Phi is <j|_measured of the purification."""
    w, v = np.linalg.eigh(np.asarray(rho, dtype=complex))
    purification = (v[:, 2:] * np.sqrt(np.clip(w[2:], 0.0, None))).reshape(2, 2, 2)
    if measured == 2:
        purification = purification.transpose(1, 0, 2)
    phi = purification.reshape(2, 4).T
    s = np.linalg.svd(phi.T @ np.kron(SY, SY) @ phi, compute_uv=False)
    c = min(1.0, abs(s[0] - s[1]))
    return float(_binary_entropy(np.array([(1.0 + np.sqrt(1.0 - c * c)) / 2.0]))[0])


def random_amplitudes(rng):
    v = rng.normal(size=4)
    alpha = complex(v[0], v[1])
    beta = complex(v[2], v[3])
    scale = np.sqrt(abs(alpha) ** 2 + abs(beta) ** 2)
    return alpha / scale, beta / scale


def random_directions(rng, n):
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def random_density_matrix(rng, dim=4):
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def random_rank_state(rng, rank, smallest):
    """Density matrix with a Haar-random eigenbasis and `rank` nonzero
    eigenvalues, the smallest of which is `smallest`."""
    w = np.zeros(4)
    w[: rank - 1] = rng.uniform(0.2, 1.0, size=rank - 1)
    w[: rank - 1] *= (1.0 - smallest) / w.sum()
    w[rank - 1] = smallest
    u = haar_unitary(rng, 4)
    return (u * w) @ u.conj().T


def haar_unitary(rng, dim=2):
    z = (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def bell_phi_plus():
    psi = np.zeros(4, dtype=complex)
    psi[0] = psi[3] = 1.0 / np.sqrt(2.0)
    return np.outer(psi, psi.conj())


REF_CSV_COLUMNS = ("tau_bar", "g0", "g2", "gm2", "j2", "concurrence", "discord")


def ref_write_csv(path, taus, columns):
    """Sweep CSV row by row: repr of each cell, a None or missing column empty."""
    n = len(taus)
    cells = [repeat("", n) if col is None else map(repr, np.asarray(col, dtype=float).tolist())
             for col in (taus, *map(columns.get, REF_CSV_COLUMNS[1:]))]
    with open(path, "w", encoding="ascii") as handle:
        handle.write(",".join(REF_CSV_COLUMNS) + "\n")
        handle.writelines(",".join(row) + "\n" for row in zip(*cells, strict=True))


def ref_m4_rows(px, y):
    """M4 run by run: of each run of consecutive rows with one pixel column px, the
    first and last row and the first rows of the least and greatest y, in order."""
    rows, start = [], 0
    for end in range(1, len(px) + 1):
        if end == len(px) or px[end] != px[start]:
            run = range(start, end)
            lo = min(run, key=lambda i: y[i])  # min and max return the first of equals
            hi = max(run, key=lambda i: y[i])
            rows += sorted({start, end - 1, lo, hi})
            start = end
    return rows


def ref_polyline_points(taus, series, width=880, height=560, rows=None):
    """The points attribute of each SVG polyline, point by point with scalar
    arithmetic: the y range spans every series and 0, padded by 5 %. rows(px, y),
    if given, picks the rows a polyline draws from its pixel columns px, the
    floor of each x coordinate, and its values y."""
    ml, mr, mt, mb = 72, 18, 18, 56
    plot_w, plot_h = width - ml - mr, height - mt - mb
    taus = np.asarray(taus, dtype=float)
    x_lo, x_hi = float(taus[0]), float(taus[-1])
    y_lo = min(0.0, min(float(np.min(v)) for v in series.values()))
    y_hi = max(float(np.max(v)) for v in series.values())
    if y_hi - y_lo < 1e-12:
        y_hi = y_lo + 1.0
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    def sx(x):
        return ml + (x - x_lo) / (x_hi - x_lo) * plot_w

    def sy(y):
        return mt + (y_hi - y) / (y_hi - y_lo) * plot_h

    lines = []
    for values in series.values():
        values = np.asarray(values, dtype=float).tolist()
        drawn = range(len(values))
        if rows is not None:
            drawn = rows([math.floor(sx(x)) for x in taus.tolist()], values)
        lines.append(" ".join(f"{sx(taus[i]):.2f},{sy(values[i]):.2f}" for i in drawn))
    return lines
