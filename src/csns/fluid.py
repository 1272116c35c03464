"""Pseudo-spectral incompressible flow on the periodic box.

Velocity fields are stored as half-spectrum rfft coefficients with the
'forward' normalization, so the zero mode is the spatial mean.  Spectral
arrays have shape (d, N, ..., N//2+1); physical arrays (d, N, ..., N).
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _xi_dot(c, box):
    """xi . c, accumulated over the components in axis order."""
    grid = wavenumbers(box)
    div = np.zeros(box.spectral_shape, dtype=complex)
    for a in range(box.d):
        div = div + grid.xi[a] * c[a]
    return div


def leray_project(c, box):
    """Remove the gradient part: c - xi (xi . c) / |xi|^2, identity on the mean."""
    grid = wavenumbers(box)
    div = _xi_dot(c, box)
    div *= grid.inv_xi_sq
    out = c.copy()
    for a in range(box.d):
        out[a] = out[a] - grid.xi[a] * div
    return out


def max_divergence(c, box):
    """Spectral sup of |xi . c|; zero for a solenoidal field."""
    return float(np.max(np.abs(_xi_dot(c, box))))


def _advection_hat(c, box):
    """Dealiased transform of -(u . grad) u in divergence form, unprojected."""
    grid = wavenumbers(box)
    u = inverse_transform(np.where(grid.dealias, c, 0.0), box)
    out = np.zeros_like(c)
    for a in range(box.d):
        for b in range(a, box.d):
            t_hat = forward_transform(u[a] * u[b], box)
            out[a] = out[a] - 1j * grid.xi[b] * t_hat
            if b != a:
                out[b] = out[b] - 1j * grid.xi[a] * t_hat
    return np.where(grid.dealias, out, 0.0)


def nonlinear_term(c, box):
    """Projected advection term -P[(u . grad) u], dealiased by the 2/3 rule."""
    return leray_project(_advection_hat(c, box), box)


def pressure_solve(c, box, h_hat=None):
    """Pressure balancing the divergence of -(u . grad) u + h (mean set to zero)."""
    grid = wavenumbers(box)
    g = _advection_hat(c, box)
    if h_hat is not None:
        g = g + h_hat
    return inverse_transform(-1j * _xi_dot(g, box) * grid.inv_xi_sq, box)


def if_heun(c0, dt, nu, grid, g0, g_of):
    """One integrating-factor Heun step for c' = -nu |xi|^2 c + G(c).

    g0 is G at c0; g_of maps the predictor state to its G value and one
    extra output of that stage, which is handed back with the new state as
    (c1, extra).  The pure fluid stepper and the coupled stepper both go
    through this helper, so the fluid update is bit-identical when no
    particles are present.
    """
    decay = np.exp(-nu * grid.xi_sq * dt)
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
