"""Particle ensemble: sampling, grid deposition, kernel smoothing, and forces.

The ensemble is a weighted empirical measure.  Moments are deposited on the
fluid grid with the cloud-in-cell stencil and read back with the identical
stencil, which makes deposit/interpolate an exact adjoint pair; the pairwise
interaction is evaluated through an FFT convolution of the deposited moments
with the periodized kernel.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .domain import eval_phi


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
    """Grid moment densities of an ensemble and their smoothed fields.

    deposit_moments fills the weight density rho and the momentum density j
    and keeps the stencil it deposited with, so that every read at the same
    positions reuses it; convolve_kernel adds a = K*rho and b = K*j.  The
    stepper and the series row read nothing else: deposit and interpolate
    are an exact adjoint pair, so a particle sum of a read field is a grid
    inner product with rho or j.
    """

    stencil: tuple
    rho: np.ndarray
    j: np.ndarray
    a: np.ndarray = None
    b: np.ndarray = None


def wrap_positions(X, box):
    """Positions folded into [0, L); np.mod rounds a tiny negative up to L.

    Only the entries outside the box are folded, into a copy; with none
    outside, X itself is returned.  A -0.0 counts as outside, so that it
    leaves as +0.0, the value np.mod gives it.
    """
    out = np.signbit(X) | (X >= box.L)
    if not out.any():
        return X
    folded = np.mod(X[out], box.L)
    folded[folded == box.L] = 0.0
    Y = X.copy()
    Y[out] = folded
    return Y


def cic_stencil(X, box):
    """Flattened corner indices (n, 2^d) and multilinear weights for each particle.

    Corner k takes the upper node on axis a where bit d-1-a of k is set; its
    weight is the product of the axis factors, multiplied in axis order.
    Positions already inside [0, L), as wrap_positions leaves them, skip the
    fold into the box, which would return them unchanged.
    """
    n, d = X.shape
    if n and (X.min() < 0.0 or X.max() >= box.L):
        X = np.mod(X, box.L)
    # grid coordinates, reduced in place to their fractional part
    frac = np.divide(X.T, box.dx, order="C")
    base = np.floor(frac)
    frac -= base
    lower = base.astype(np.intp)
    lower %= box.N
    upper = lower + 1
    upper[upper == box.N] = 0
    # per side (lower, upper): rows of axis node offsets and weight factors
    stride = box.N ** np.arange(d - 1, -1, -1)[:, None]
    lower *= stride
    upper *= stride
    node = (lower, upper)
    factor = (1.0 - frac, frac)
    flat = np.empty((n, 2**d), dtype=np.intp)
    wts = np.empty((n, 2**d))
    for k in range(2**d):
        up = [(k >> (d - 1 - a)) & 1 for a in range(d)]
        col_flat, col_wts = flat[:, k], wts[:, k]
        np.add(node[up[0]][0], node[up[1]][1], out=col_flat)
        np.multiply(factor[up[0]][0], factor[up[1]][1], out=col_wts)
        for a in range(2, d):
            col_flat += node[up[a]][a]
            col_wts *= factor[up[a]][a]
    return flat, wts


def _deposit(stencil, values, box, contrib=None):
    """CIC density of per-particle values: the grid sum times the cell
    volume gives their total.  contrib, if given, is an (n, 2^d) buffer
    for the corner contributions."""
    flat, wts = stencil
    contrib = np.multiply(wts, values[:, None], out=contrib)
    return np.bincount(flat.ravel(), weights=contrib.ravel(),
                       minlength=box.N**box.d).reshape(box.shape) \
        * (1.0 / box.dx**box.d)


def deposit_moments(ens, box):
    """Deposit the weights (rho) and momenta (j) of the ensemble as grid
    densities; the result keeps the stencil for reads at the same positions.
    """
    stencil = cic_stencil(ens.X, box)
    contrib = np.empty(stencil[1].shape)
    rho = _deposit(stencil, ens.w, box, contrib)
    j = np.stack([_deposit(stencil, ens.w * ens.V[:, a], box, contrib)
                  for a in range(ens.V.shape[1])])
    return MomentFields(stencil, rho, j)


@lru_cache(maxsize=32)
def kernel_hat(kernel, box):
    """Spectrum of the kernel sampled at minimal-image grid offsets (cached,
    read-only)."""
    off = (np.arange(box.N) + box.N // 2) % box.N - box.N // 2
    coords = np.meshgrid(*([off * box.dx] * box.d), indexing="ij")
    r = np.sqrt(sum(cc * cc for cc in coords))
    phi, _ = eval_phi(kernel, r)
    spectrum = np.fft.rfftn(phi, norm="forward").real
    spectrum.setflags(write=False)
    return spectrum


def _smoothed(g, kernel, box):
    """The periodic convolution K*g of one grid density."""
    if kernel.kind == "constant":
        return np.full(box.shape, np.sum(g) * box.dx**box.d)
    ghat = np.fft.rfftn(g, norm="forward")
    return np.fft.irfftn(box.volume * kernel_hat(kernel, box) * ghat,
                         s=box.shape, axes=tuple(range(box.d)), norm="forward")


def convolve_kernel(m, kernel, box):
    """The moments with the smoothed interaction fields a = K*rho, b = K*j."""
    a = _smoothed(m.rho, kernel, box)
    b = np.stack([_smoothed(m.j[i], kernel, box) for i in range(m.j.shape[0])])
    return replace(m, a=a, b=b)


def interpolate(field, X, box, stencil=None):
    """Read a grid field, or a stack of fields, at particle positions.

    The read uses the deposit stencil.  Corners are added one at a time, in
    stencil order, to a zeroed sum: the association of numpy's add.reduce
    over the corners, so the bits are those of a gather summed over its
    corner axis, with no (channels, 2^d, n) temporary.  The result is laid
    out particle-major, as that sum is.  A single 3D field keeps the gather:
    numpy sums a contiguous 8-corner axis pairwise, not in order.
    """
    flat, wts = cic_stencil(X, box) if stencil is None else stencil
    flat_field = field.reshape(field.shape[:-box.d] + (-1,))
    if flat_field.ndim == 1 and box.d == 3:
        return np.sum(flat_field[flat] * wts, axis=1)
    out = np.zeros((flat.shape[0],) + flat_field.shape[:-1]).T
    for k in range(flat.shape[1]):
        corner = np.take(flat_field, flat[:, k], axis=-1)
        corner *= wts[:, k]
        out += corner
    return out


def interpolate_velocity(u_phys, X, box, stencil=None):
    """Fluid velocity at particle positions, shape (n, d)."""
    return interpolate(u_phys, X, box, stencil).T


def alignment_force(m, X, V, box):
    """Pairwise relaxation force b(X) - a(X) V read from the smoothed fields
    at the positions X the moments were deposited from."""
    a_at = interpolate(m.a, X, box, m.stencil)
    b_at = interpolate(m.b, X, box, m.stencil).T
    return b_at - a_at[:, None] * V


def stage_rates(X, V, m, u_phys, box):
    """Characteristic right-hand sides (dX/dt, dV/dt) at one stage.

    X are the positions the moments were deposited from, so every field
    read reuses the moments' stencil.
    """
    u_at = interpolate_velocity(u_phys, X, box, m.stencil)
    dv = alignment_force(m, X, V, box) + u_at - V
    return u_at, dv


def drag_field(m, u_phys, box):
    """Momentum exchange density on the grid: h = j - rho u."""
    h = m.rho[None] * u_phys
    return np.subtract(m.j, h, out=h)


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
