"""Particle ensemble: sampling, grid deposition, kernel smoothing, and forces.

The ensemble is a weighted empirical measure.  Moments are deposited on the
fluid grid with the cloud-in-cell stencil and read back with the identical
stencil, which makes deposit/interpolate an exact adjoint pair; the pairwise
interaction is evaluated through an FFT convolution of the deposited moments
with the periodized kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domain import BoxSpec, KernelSpec, eval_phi


@dataclass(eq=False)
class ParticleEnsemble:
    """Positions (n, d), velocities (n, d), and constant weights (n,)."""

    X: np.ndarray
    V: np.ndarray
    w: np.ndarray

    @property
    def n(self):
        return self.X.shape[0]


@dataclass(eq=False)
class MomentFields:
    """Grid moment densities and (after convolve_kernel) their smoothed fields."""

    rho: np.ndarray
    j: np.ndarray
    e: np.ndarray
    a: np.ndarray = None
    b: np.ndarray = None
    c_e: np.ndarray = None


def wrap_positions(X, box):
    """Positions folded into [0, L); np.mod rounds a tiny negative up to L."""
    Y = np.mod(X, box.L)
    return np.where(Y == box.L, 0.0, Y)


def cic_stencil(X, box):
    """Flattened corner indices (n, 2^d) and multilinear weights for each particle."""
    s = np.mod(X, box.L) / box.dx
    base = np.floor(s).astype(np.int64)
    frac = s - base
    lower, upper = base % box.N, (base + 1) % box.N
    d = X.shape[1]
    corners = np.array(list(itertools.product((False, True), repeat=d)))
    wts = np.ones((X.shape[0], corners.shape[0]))
    flat = np.zeros((X.shape[0], corners.shape[0]), dtype=np.int64)
    for a in range(d):
        up = corners[:, a]
        wts *= np.where(up, frac[:, None, a], 1.0 - frac[:, None, a])
        flat = flat * box.N + np.where(up, upper[:, None, a],
                                       lower[:, None, a])
    return flat, wts


def deposit_moments(ens, box, stencil=None):
    """Deposit the velocity moments of the ensemble as grid densities.

    rho carries the weights, j the momenta, e the speeds squared; each is a
    density (per unit volume), so grid sums times the cell volume reproduce
    the particle sums exactly.
    """
    flat, wts = cic_stencil(ens.X, box) if stencil is None else stencil
    fl = flat.ravel()
    size = box.N**box.d
    inv_cell = 1.0 / box.dx**box.d

    def dep(values):
        contrib = (wts * values[:, None]).ravel()
        return np.bincount(fl, weights=contrib,
                           minlength=size).reshape(box.shape) * inv_cell

    rho = dep(ens.w)
    j = np.stack([dep(ens.w * ens.V[:, a]) for a in range(ens.V.shape[1])])
    e = dep(ens.w * np.sum(ens.V * ens.V, axis=1))
    return MomentFields(rho, j, e)


@lru_cache(maxsize=32)
def kernel_hat(kernel, box):
    """Spectrum of the kernel sampled at minimal-image grid offsets (cached)."""
    off = (np.arange(box.N) + box.N // 2) % box.N - box.N // 2
    coords = np.meshgrid(*([off * box.dx] * box.d), indexing="ij")
    r = np.sqrt(sum(cc * cc for cc in coords))
    phi, _ = eval_phi(kernel, r)
    return np.fft.rfftn(phi, norm="forward").real


def convolve_kernel(m, kernel, box):
    """Fill the smoothed interaction fields a = K*rho, b = K*j, c_e = K*e."""
    if kernel.kind == "constant":
        cell = box.dx**box.d
        a = np.full(box.shape, np.sum(m.rho) * cell)
        b = np.stack([np.full(box.shape, np.sum(m.j[i]) * cell)
                      for i in range(m.j.shape[0])])
        ce = np.full(box.shape, np.sum(m.e) * cell)
    else:
        khat = kernel_hat(kernel, box)

        def conv(g):
            ghat = np.fft.rfftn(g, norm="forward")
            return np.fft.irfftn(box.volume * khat * ghat, s=box.shape,
                                 axes=tuple(range(box.d)), norm="forward")

        a = conv(m.rho)
        b = np.stack([conv(m.j[i]) for i in range(m.j.shape[0])])
        ce = conv(m.e)
    return MomentFields(m.rho, m.j, m.e, a, b, ce)


def interpolate(field, X, box, stencil=None):
    """Read a grid field, or a stack of fields, at particle positions.

    The read uses the deposit stencil.  A stack is gathered corner-major, so
    its corners are added in stencil order over contiguous rows; the result
    has the bits and the particle-major layout of one fancy-index gather of
    all channels summed over the corners, at a fraction of its cost.
    """
    flat, wts = cic_stencil(X, box) if stencil is None else stencil
    flat_field = field.reshape(field.shape[:-box.d] + (-1,))
    if flat_field.ndim == 1:
        return np.sum(flat_field[flat] * wts, axis=1)
    corner_sum = np.sum(np.take(flat_field, flat.T, axis=-1) * wts.T, axis=-2)
    return np.ascontiguousarray(corner_sum.T).T


def interpolate_velocity(u_phys, X, box, stencil=None):
    """Fluid velocity at particle positions, shape (n, d)."""
    return interpolate(u_phys, X, box, stencil).T


def alignment_force(m, X, V, box, stencil=None):
    """Pairwise relaxation force b(X) - a(X) V read from the smoothed fields."""
    a_at = interpolate(m.a, X, box, stencil)
    b_at = interpolate(m.b, X, box, stencil).T
    return b_at - a_at[:, None] * V


def stage_rates(X, V, m, u_phys, box, stencil=None):
    """Characteristic right-hand sides (dX/dt, dV/dt) at one stage.

    Passing a precomputed stencil avoids rebuilding it for every field read
    at the same positions.
    """
    if stencil is None:
        stencil = cic_stencil(X, box)
    u_at = interpolate_velocity(u_phys, X, box, stencil)
    dv = alignment_force(m, X, V, box, stencil) + u_at - V
    return u_at, dv


def drag_field(m, u_phys, box):
    """Momentum exchange density on the grid: h = j - rho u."""
    return m.j - m.rho[None] * u_phys


def v_support_radius(ens):
    """Largest particle speed; zero for an empty ensemble."""
    if ens.n == 0:
        return 0.0
    return float(np.sqrt(np.max(np.sum(ens.V * ens.V, axis=1))))


def density_lp_norms(rho, box):
    """(L1, L2, Linf) norms of a grid density."""
    cell = box.dx**box.d
    l1 = float(np.sum(np.abs(rho)) * cell)
    l2 = float(np.sqrt(np.sum(rho * rho) * cell))
    linf = float(np.max(np.abs(rho))) if rho.size else 0.0
    return l1, l2, linf


def particle_momentum(ens):
    """Total particle momentum sum_i w_i V_i; zeros for an empty ensemble."""
    return ens.w @ ens.V


def sample_initial(init, n, r0, box, seed):
    """Draw the initial ensemble for a named profile; total weight is 1.

    All randomness comes from one counter-based generator seeded here, so a
    given (profile, n, seed) triple always produces the same ensemble.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    d = box.d
    if n == 0:
        return ParticleEnsemble(np.zeros((0, d)), np.zeros((0, d)), np.zeros(0))
    params = init.particle_params

    if init.particles == "gaussian":
        sigma_x = params.get("sigma_x", box.L / 8)
        sigma_v = params.get("sigma_v", r0 / 3)
        center = np.asarray(params.get("center", [box.L / 2] * d), dtype=float)
        X = wrap_positions(center + sigma_x * rng.standard_normal((n, d)), box)
        V = sigma_v * rng.standard_normal((n, d))
        # resample the tail so the speed support stays inside r0
        while True:
            out = np.sum(V * V, axis=1) > r0 * r0
            if not np.any(out):
                break
            V[out] = sigma_v * rng.standard_normal((int(np.sum(out)), d))
        w = np.full(n, 1.0 / n)

    elif init.particles == "uniform_ball":
        X = rng.uniform(0.0, box.L, (n, d))
        dirs = rng.standard_normal((n, d))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        radii = r0 * rng.uniform(0.0, 1.0, n) ** (1.0 / d)
        V = dirs * radii[:, None]
        w = np.full(n, 1.0 / n)

    elif init.particles == "lattice":
        m = params["m"]
        v0 = params.get("v0", r0 / 2)
        amp = params.get("density_amp", 0.0)
        axis = (np.arange(m) + 0.5) * (box.L / m)
        nodes = np.stack([g.ravel() for g in
                          np.meshgrid(*([axis] * d), indexing="ij")], axis=1)
        stencil = np.concatenate([v0 * np.eye(d), -v0 * np.eye(d)])
        X = np.repeat(nodes, 2 * d, axis=0)
        V = np.tile(stencil, (m**d, 1))
        node_w = 1.0 + amp * np.cos(2.0 * np.pi * nodes[:, 0] / box.L)
        w = np.repeat(node_w, 2 * d)
        w /= np.sum(w)

    elif init.particles == "flocked":
        vel = np.asarray(params["velocity"], dtype=float)
        X = rng.uniform(0.0, box.L, (n, d))
        V = np.tile(vel, (n, 1))
        w = np.full(n, 1.0 / n)

    else:
        raise ValueError(f"unknown particle profile {init.particles!r}")

    return ParticleEnsemble(X, V, w)
