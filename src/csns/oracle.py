"""Closed-form and brute-force reference solutions used to pin the solvers down.

Nothing here touches solver internals; every formula is integrated by hand
(integrating factors, antisymmetry of the pairwise interaction) so that test
failures localize blame to exactly one side.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import TWO_PI, BoxSpec, eval_phi


@dataclass(frozen=True)
class MomentState:
    """Velocity moments of the ensemble: mass, momentum vector, second moment."""

    m0: float
    m1: np.ndarray
    m2: float


def moment_ode_solution(ms0, t):
    """Moments under the constant kernel with the fluid at rest (u = 0).

    Pairwise antisymmetry removes alignment from the momentum balance, so
    M1 relaxes as e^{-t}; the centered part of M2 contracts at rate
    2(M0 + 1) while the mean part follows |M1|^2 / M0.
    """
    m1_0 = np.asarray(ms0.m1, dtype=float)
    m1 = m1_0 * math.exp(-t)
    mean_part = float(m1_0 @ m1_0) / ms0.m0
    m2 = (ms0.m2 - mean_part) * math.exp(-2.0 * (ms0.m0 + 1.0) * t) \
        + mean_part * math.exp(-2.0 * t)
    return MomentState(ms0.m0, m1, m2)


def two_particle_solution(w1, w2, v1_0, v2_0, t):
    """Two constant-kernel particles with the fluid at rest: exact velocities.

    The weighted sum decays as e^{-t} and the difference as e^{-(1+m0)t};
    the pair is reconstructed from those two channels.
    """
    v1_0 = np.asarray(v1_0, dtype=float)
    v2_0 = np.asarray(v2_0, dtype=float)
    m0 = w1 + w2
    s = (w1 * v1_0 + w2 * v2_0) * math.exp(-t)
    d = (v1_0 - v2_0) * math.exp(-(1.0 + m0) * t)
    return (s + w2 * d) / m0, (s - w1 * d) / m0


def taylor_green(box, t=0.0, nu=1.0, amplitude=1.0):
    """Exact decaying vortex array on the 2-pi square: (u, pressure, energy).

    The advection term is a pure gradient, so the field decays mode-by-mode
    at rate 2 nu while the pressure balances -(u . grad) u exactly.
    """
    if box.d != 2:
        raise ValueError("taylor_green is a planar solution")
    x = np.arange(box.N) * box.dx
    xx, yy = np.meshgrid(x, x, indexing="ij")
    amp = amplitude * math.exp(-2.0 * nu * t)
    u = np.stack([amp * np.cos(xx) * np.sin(yy),
                  -amp * np.sin(xx) * np.cos(yy)])
    p = -0.25 * amp * amp * (np.cos(2 * xx) + np.cos(2 * yy))
    energy = math.pi**2 * amp * amp
    return u, p, energy


def heat_decay_reference(c0, box, t, nu=1.0):
    """Heat-semigroup evolution of data c0 on the whole half spectrum.

    Returns (per_mode_energy, total) where each mode's energy carries the
    factor e^{-2 nu |xi|^2 t} and the total is the Parseval sum ||u(t)||^2.
    The wavenumber and Parseval multiplicity tables are made here from
    np.fft.fftfreq, not taken from the solver.
    """
    N = box.N
    modes = [np.fft.fftfreq(N, 1.0 / N)] * (box.d - 1) \
        + [np.fft.rfftfreq(N, 1.0 / N)]
    xi_sq = sum((TWO_PI / box.L * k)**2 for k in np.ix_(*modes))
    weight = np.full(N // 2 + 1, 2.0)
    weight[[0, -1]] = 1.0  # the mean and Nyquist columns stand alone
    factor = np.exp(-2.0 * nu * xi_sq * t)
    mag = c0.real**2 + c0.imag**2
    if mag.ndim > box.d:
        mag = mag.sum(axis=0)
    per_mode = box.volume * weight * mag * factor
    return per_mode, float(per_mode.sum())


_erf = np.vectorize(math.erf, otypes=[float])


def flat_spectrum_energy(t, xi_cut, nu=1.0):
    """Continuum heat-kernel energy for data flat on the ball |xi| <= xi_cut,
    up to a constant factor: integral of xi^2 e^{-2 nu t xi^2} over [0, xi_cut]."""
    t = np.asarray(t, dtype=float)
    a = 2.0 * nu * t
    x = xi_cut * np.sqrt(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (0.25 * math.sqrt(math.pi) * _erf(x)
               - 0.5 * x * np.exp(-x * x)) / a**1.5
    out = np.where(a > 0, val, xi_cut**3 / 3.0)
    return float(out) if out.ndim == 0 else out


def pairwise_phi(X, kernel, box):
    """Matrix of kernel weights at minimal-image distances between all pairs."""
    diff = X[:, None, :] - X[None, :, :]
    diff -= box.L * np.round(diff / box.L)
    r = np.sqrt(np.sum(diff * diff, axis=-1))
    phi, _ = eval_phi(kernel, r)
    return phi


def direct_pairwise_alignment(X, V, w, kernel, box):
    """Brute-force alignment force on every particle: sum_j w_j phi_ij (V_j - V_i)."""
    phi = pairwise_phi(X, kernel, box)
    wphi = phi * w[None, :]
    return wphi @ V - np.sum(wphi, axis=1)[:, None] * V


def nbody_align_reference(X, V0, w, kernel, box, t_end, n_steps):
    """Heun integration of the exact pairwise system with the fluid at rest.

    Positions are frozen (the spatial transport velocity is u = 0), so the
    kernel matrix is fixed and only dV/dt = align(V) - V is integrated.
    """
    phi = pairwise_phi(X, kernel, box)
    wphi = phi * w[None, :]
    a_diag = np.sum(wphi, axis=1)[:, None]

    def rhs(v):
        return wphi @ v - a_diag * v - v

    dt = t_end / n_steps
    v = np.array(V0, dtype=float)
    for _ in range(n_steps):
        k1 = rhs(v)
        k2 = rhs(v + dt * k1)
        v = v + 0.5 * dt * (k1 + k2)
    return v
