"""Pseudo-spectral incompressible flow on the periodic box.

Velocity fields are stored as half-spectrum rfft coefficients with the
'forward' normalization, so the zero mode is the spatial mean.  Spectral
arrays have shape (d, N, ..., N//2+1); physical arrays (d, N, ..., N).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .domain import BoxSpec, wavenumbers


def forward_transform(u, box):
    """Physical samples to rfft coefficients (mean-value normalization)."""
    return np.fft.rfftn(u, axes=tuple(range(-box.d, 0)), norm="forward")


def inverse_transform(c, box):
    """rfft coefficients back to physical samples."""
    return np.fft.irfftn(c, s=box.shape, axes=tuple(range(-box.d, 0)),
                         norm="forward")


@dataclass(eq=False)
class VelocityField:
    """Spectral velocity container passed around by the driver and the writers."""

    box: BoxSpec
    c: np.ndarray

    @classmethod
    def from_values(cls, box, u):
        return cls(box, forward_transform(np.asarray(u, dtype=float), box))

    def values(self):
        return inverse_transform(self.c, self.box)


def spectral_l2sq(c, box):
    """Squared L2 norm over the box via Parseval on the half spectrum."""
    grid = wavenumbers(box)
    return float(box.volume * np.sum(grid.parseval_weight
                                     * (c.real**2 + c.imag**2)))


def kinetic_energy(c, box):
    """Fluid energy (1/2) ||u||^2."""
    return 0.5 * spectral_l2sq(c, box)


def dissipation_rate(c, box, nu=1.0):
    """Viscous rate nu * ||grad u||^2."""
    grid = wavenumbers(box)
    return float(nu * box.volume * np.sum(grid.parseval_weight * grid.xi_sq
                                          * (c.real**2 + c.imag**2)))


def low_freq_energy(c, box, r):
    """||u||^2 restricted to the closed ball of modes with |xi| <= r."""
    grid = wavenumbers(box)
    shell = grid.xi_sq <= r * r
    return float(box.volume * np.sum(grid.parseval_weight * shell
                                     * (c.real**2 + c.imag**2)))


def _xi_dot(c, xi):
    """xi . c, accumulated over the components in axis order."""
    div = np.zeros(c.shape[1:], dtype=complex)
    for a in range(len(xi)):
        div = div + xi[a] * c[a]
    return div


def _projected(c, xi, inv_xi_sq):
    """c - xi (xi . c) / |xi|^2 over the modes the tables xi, inv_xi_sq cover."""
    div = _xi_dot(c, xi)
    div *= inv_xi_sq
    out = c.copy()
    for a in range(len(xi)):
        out[a] = out[a] - xi[a] * div
    return out


def leray_project(c, box):
    """Remove the gradient part: c - xi (xi . c) / |xi|^2, identity on the mean."""
    grid = wavenumbers(box)
    return _projected(c, grid.xi, grid.inv_xi_sq)


def max_divergence(c, box):
    """Spectral sup of |xi . c|; zero for a solenoidal field."""
    return float(np.max(np.abs(_xi_dot(c, wavenumbers(box).xi))))


@dataclass(eq=False)
class RetainedBlock:
    """The modes the 2/3 rule keeps, one block of the half spectrum.

    The block is the same retained rows (0..N/3 and N-N/3..N-1) of each
    leading axis and the first cols columns (0..N/3) of the last; index
    picks it out of a (N, ..., N//2+1) array, and xi, inv_xi_sq are the
    wavenumber tables restricted to it.
    """

    rows: np.ndarray
    cols: int
    index: tuple
    xi: tuple
    inv_xi_sq: np.ndarray


@lru_cache(maxsize=32)
def retained_block(box):
    """The RetainedBlock of a box, read off its dealias mask (cached; every
    array is read-only)."""
    grid = wavenumbers(box)
    per_axis = [np.flatnonzero(grid.dealias.any(
        axis=tuple(b for b in range(box.d) if b != a))) for a in range(box.d)]
    rows = per_axis[0]
    index = np.ix_(*per_axis)
    xi = tuple(np.take(grid.xi[a], per_axis[a], axis=a) for a in range(box.d))
    block = RetainedBlock(rows, len(per_axis[-1]), index, xi,
                          grid.inv_xi_sq[index])
    for arr in (rows, *index, *xi, block.inv_xi_sq):
        arr.setflags(write=False)
    return block


def _block_inverse(cb, block, box):
    """Physical samples of one component whose spectrum is zero off the block.

    These are the 1-D passes of np.fft.irfftn, in its axis order, run only
    on lines that can hold a retained mode: each leading axis is zero-padded
    to N just before its pass, and irfft pads the last axis itself.
    """
    for axis in range(box.d - 1):
        shape = list(cb.shape)
        shape[axis] = box.N
        full = np.zeros(shape, dtype=complex)
        full[(slice(None),) * axis + (block.rows,)] = cb
        cb = np.fft.ifft(full, axis=axis, norm="forward")
    return np.fft.irfft(cb, n=box.N, axis=-1, norm="forward")


def _block_forward(p, block, box):
    """The block of the rfft coefficients of one physical field.

    These are the 1-D passes of np.fft.rfftn, in its axis order, each cut to
    the retained modes of its axis before the next pass.
    """
    t = np.fft.rfft(p, axis=-1, norm="forward")[..., :block.cols]
    for axis in range(box.d - 2, -1, -1):
        t = np.take(np.fft.fft(t, axis=axis, norm="forward"), block.rows,
                    axis=axis)
    return t


def _advection_block(c, box):
    """-(u . grad) u in divergence form on the retained block, unprojected.

    u is the velocity of c dealiased by the 2/3 rule; every mode off the
    block is zero in the dealiased transform, so it is never computed.
    """
    block = retained_block(box)
    cb = c[(slice(None),) + block.index]
    u = [_block_inverse(cb[a], block, box) for a in range(box.d)]
    out = np.zeros_like(cb)
    for a in range(box.d):
        for b in range(a, box.d):
            t_hat = _block_forward(u[a] * u[b], block, box)
            out[a] = out[a] - 1j * block.xi[b] * t_hat
            if b != a:
                out[b] = out[b] - 1j * block.xi[a] * t_hat
    return out


def _scattered(gb, box):
    """The half-spectrum array that is gb on the retained block, zero off it."""
    out = np.zeros((gb.shape[0],) + box.spectral_shape, dtype=complex)
    out[(slice(None),) + retained_block(box).index] = gb
    return out


def nonlinear_term(c, box):
    """Projected advection term -P[(u . grad) u], dealiased by the 2/3 rule."""
    block = retained_block(box)
    return _scattered(_projected(_advection_block(c, box), block.xi,
                                 block.inv_xi_sq), box)


def pressure_solve(c, box, h_hat=None):
    """Pressure balancing the divergence of -(u . grad) u + h (mean set to zero)."""
    grid = wavenumbers(box)
    g = _scattered(_advection_block(c, box), box)
    if h_hat is not None:
        g = g + h_hat
    return inverse_transform(-1j * _xi_dot(g, grid.xi) * grid.inv_xi_sq, box)


@lru_cache(maxsize=4)
def _viscous_decay(box, nu, dt):
    """The integrating factor exp(-nu |xi|^2 dt) (cached, read-only)."""
    decay = np.exp(-nu * wavenumbers(box).xi_sq * dt)
    decay.setflags(write=False)
    return decay


def if_heun(c0, dt, nu, grid, g0, g_of):
    """One integrating-factor Heun step for c' = -nu |xi|^2 c + G(c).

    g0 is G at c0; g_of maps the predictor state to its G value and one
    extra output of that stage, which is handed back with the new state as
    (c1, extra).  The pure fluid stepper and the coupled stepper both go
    through this helper, so the fluid update is bit-identical when no
    particles are present.
    """
    decay = _viscous_decay(grid.box, nu, dt)
    c_star = decay * (c0 + dt * g0)
    g1, extra = g_of(c_star)
    return decay * (c0 + 0.5 * dt * g0) + 0.5 * dt * g1, extra


def ns_step(c, box, nu, dt, h_hat=None):
    """Advance the incompressible flow one step; h is an optional body force."""
    grid = wavenumbers(box)
    hp = None if h_hat is None else leray_project(h_hat, box)

    def rhs(cc):
        g = nonlinear_term(cc, box)
        return g if hp is None else g + hp

    return if_heun(c, dt, nu, grid, rhs(c), lambda cc: (rhs(cc), None))[0]


def fluid_momentum(c, box):
    """Integral of u over the box (volume times the mean mode)."""
    mean_mode = c[(Ellipsis,) + (0,) * box.d]
    return box.volume * np.real(mean_mode)


def max_speed(u):
    """Grid sup of |u| for a physical-space vector field."""
    return float(np.sqrt(np.max(np.sum(u * u, axis=0))))
