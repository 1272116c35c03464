"""Named initial fluid fields, built on the retained block."""

from __future__ import annotations

import math

import numpy as np

from . import fluid, oracle


def broadband_field(box, xi_cut, u_rms, seed):
    """Solenoidal field with equal energy on every mode of 0 < |xi| <= xi_cut.

    Seeded white noise fixes phases and polarizations; the moduli are then
    flattened so the shell spectrum mimics whole-space data that is merely
    integrable at low frequency, and the total is rescaled to the exact rms.
    The noise transform is cut to the retained block, which holds the whole
    ball (validate_config bounds xi_cut), before it is projected.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    xi_sq = fluid.retained_block(box).xi_sq
    noise = rng.standard_normal((box.d,) + box.shape)
    c = fluid.leray_project(
        fluid.to_block(fluid.forward_transform(noise, box), box), box)
    ball = (xi_sq > 0) & (xi_sq <= xi_cut * xi_cut)
    mag = np.sqrt(np.sum(c.real**2 + c.imag**2, axis=0))
    safe = np.where(mag > 0, mag, 1.0)
    c = np.where(ball & (mag > 0), c / safe, 0.0)
    current = fluid.spectral_l2sq(c, box)
    if current == 0.0:
        raise ValueError("no spectral modes inside |xi| <= xi_cut")
    return c * math.sqrt(u_rms * u_rms * box.volume / current)


def fluid_initial(init, box, seed):
    """Initial velocity of a named profile, on the retained block."""
    params = init.fluid_params
    if init.fluid in ("zero", "uniform"):
        c = np.zeros((box.d,) + fluid.retained_block(box).shape, dtype=complex)
        if init.fluid == "uniform":
            c[(slice(None),) + (0,) * box.d] = params["velocity"]
        return c
    if init.fluid == "taylor_green":
        u, _, _ = oracle.taylor_green(
            box, amplitude=params.get("amplitude", 1.0))
        return fluid.to_block(fluid.forward_transform(u, box), box)
    if init.fluid == "broadband":
        return broadband_field(box, params["xi_cut"], params["u_rms"], seed)
    raise ValueError(f"unknown fluid profile {init.fluid!r}")
