"""Pseudo-spectral incompressible flow on the periodic box.

Velocity fields are stored as half-spectrum rfft coefficients with the
'forward' normalization, so the zero mode is the spatial mean.  Spectral
arrays have shape (d, N, ..., N//2+1); physical arrays (d, N, ..., N).
"""

from __future__ import annotations

import math
import os
import threading
# imported with the module, not on the first large call: made while a
# step's arrays are live, the import's allocations kept about 6 MB more of
# the heap resident on a 64^3 run
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import lru_cache, partial

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


# Rows of axis 0 per chunk of the block transforms: about 2^15 grid points,
# 256 kB of float64, so that a chunk's passes stay in a core's cache.
_CHUNK_POINTS = 2**15


def _chunk(flat, shape):
    """A contiguous array of shape at the start of the flat buffer flat."""
    return flat[:math.prod(shape)].reshape(shape)


class _Work:
    """One thread's work buffers for the block transforms of one grid.

    lines holds the block's lines padded to N on axis 0, the only array of
    block size.  Axis 0 is transformed on chunks of width columns of the
    last axis (column), every other pass on chunks of step rows of axis 0,
    starting from the chunk of the product, so no full-grid complex array
    is formed; each 1-D line and its transform stay as they were, so the
    bits do not change.  Two flat chunk buffers (flat) hold a chunk's half
    spectrum (half), its real product (product) and, in 3D, the padded
    lines of axis 1 (pad) and their transform (mid); for axis 0, a column
    chunk and its transform, cut to the block's rows.  Written for d = 2
    and 3, the dimensions validate_config allows.
    """

    def __init__(self, box):
        block = retained_block(box)
        N, d = box.N, box.d
        self.box, self.block = box, block
        self.step = step = max(1, min(N, _CHUNK_POINTS // N ** (d - 1)))
        lines = (N,) + (len(block.rows),) * (d - 2) + (block.cols,)
        self.lines = np.empty(lines, dtype=complex)
        self.half = np.empty((step,) + box.spectral_shape[1:], dtype=complex)
        self.flat = (self.half.reshape(-1), np.empty(self.half.size,
                                                     dtype=complex))
        self.product = _chunk(self.flat[1].view(float),
                              (step,) + box.shape[1:])
        mid = (step,) + (N,) * (d - 2) + (block.cols,)
        self.pad, self.mid = (_chunk(f, mid) for f in self.flat)
        self.width = max(1, self.half.size // math.prod(lines[:-1]))


def _block_inverse(cb, out, work):
    """Write into out the physical samples of one component whose spectrum
    is zero off the block.

    These are the 1-D passes of np.fft.irfftn, in its axis order, run only
    on lines that can hold a retained mode: each leading axis is zero-padded
    to N just before its pass, and irfft pads the last axis itself.
    """
    rows, step, width = work.block.rows, work.step, work.width
    t0 = work.lines
    for c0 in range(0, t0.shape[-1], width):
        cut = slice(c0, c0 + width)
        pad = _chunk(work.flat[0], t0[..., cut].shape)
        pad.fill(0)
        pad[rows] = cb[..., cut]
        np.fft.ifft(pad, axis=0, norm="forward", out=t0[..., cut])
    N = len(out)
    for r0 in range(0, N, step):
        chunk = slice(r0, r0 + step)
        t = t0[chunk]
        if t.ndim == 3:
            k = len(t)
            pad = work.pad[:k]
            pad.fill(0)
            pad[:, rows] = t
            t = np.fft.ifft(pad, axis=1, norm="forward", out=work.mid[:k])
        np.fft.irfft(t, n=N, axis=-1, norm="forward", out=out[chunk])
    return out


def _product_block(ua, ub, out, work):
    """Write into out the block of the rfft coefficients of ua * ub.

    These are the 1-D passes of np.fft.rfftn, in its axis order, each cut to
    the retained modes of its axis before the next pass.
    """
    rows, cols, step = work.block.rows, work.block.cols, work.step
    lines, width = work.lines, work.width
    N = len(ua)
    for r0 in range(0, N, step):
        chunk = slice(r0, r0 + step)
        k = min(step, N - r0)
        p = np.multiply(ua[chunk], ub[chunk], out=work.product[:k])
        t = np.fft.rfft(p, axis=-1, norm="forward",
                        out=work.half[:k])[..., :cols]
        if t.ndim == 2:
            lines[chunk] = t
        else:
            t = np.fft.fft(t, axis=1, norm="forward", out=work.mid[:k])
            np.take(t, rows, axis=1, out=lines[chunk], mode="clip")
    for c0 in range(0, cols, width):
        column = lines[..., c0:c0 + width]
        t = np.fft.fft(column, axis=0, norm="forward",
                       out=_chunk(work.flat[0], column.shape))
        out[..., c0:c0 + width] = np.take(
            t, rows, axis=0, mode="clip",
            out=_chunk(work.flat[1], (len(rows),) + column.shape[1:]))
    return out


# Transform lanes: the block transforms of one call are independent jobs,
# and numpy's FFT releases the GIL, so on grids of at least
# _LANE_MIN_POINTS points they run on a pool of one thread per usable CPU,
# at most _MAX_LANES, while the caller waits for them in order.  Each
# thread owns its work buffers and every output is allocated by the caller,
# so no large array is allocated or freed on a pool thread.  Each transform
# runs whole on one thread, so the bytes do not depend on the lane count.
_LANE_MIN_POINTS = 2**17
# Each lane is a pool thread with its own work buffers (1.5 MB at 64^3) and
# malloc arena: with 2.5 MB buffers, each lane past the second added about
# 2.5 MB to fluid3d's peak RSS, measured up to 6 lanes.  Only 2 lanes have
# been timed, so the cap is 2 until a host with more CPUs has been measured.
_MAX_LANES = 2
_lanes = None  # the pool, or False with one usable CPU; set on first large call
_lanes_lock = threading.Lock()
_owned = threading.local()


def _thread_work(box):
    """The _Work the current thread owns for box, made on first use and
    made again when the grid changes."""
    work = getattr(_owned, "work", None)
    if work is None or work.box != box:
        work = _owned.work = _Work(box)
    return work


def _lane_pool(box):
    """The pool of transform lanes; None below the gate or with one usable
    CPU."""
    global _lanes
    if box.N ** box.d < _LANE_MIN_POINTS:
        return None
    with _lanes_lock:
        if _lanes is None:
            count = min(len(os.sched_getaffinity(0)), _MAX_LANES)
            _lanes = count > 1 and ThreadPoolExecutor(
                count, thread_name_prefix="csns-fft",
                initializer=_thread_work, initargs=(box,))
    return _lanes or None


def _lane_map(jobs, box):
    """fn(out, work) for each (fn, out) of jobs, in order, each run whole
    on one thread in the work buffers that thread owns."""
    pool = _lane_pool(box)
    if pool is None:
        work = _thread_work(box)
        return (fn(out, work) for fn, out in jobs)
    return pool.map(lambda job: job[0](job[1], _thread_work(box)), jobs)


def _advection_block(c, box):
    """-(u . grad) u in divergence form on the retained block, unprojected.

    u is the velocity of c dealiased by the 2/3 rule; every mode off the
    block is zero in the dealiased transform, so it is never computed.  The
    d inverse and d(d+1)/2 forward block transforms run over the lanes, and
    each product's transform is added in as it comes, in the order of the
    serial sum, and then dropped.
    """
    block = retained_block(box)
    cb = c[(slice(None),) + block.index]
    u = [np.empty(box.shape) for _ in range(box.d)]
    for _ in _lane_map([(partial(_block_inverse, cb[a]), u[a])
                        for a in range(box.d)], box):
        pass
    pairs = [(a, b) for a in range(box.d) for b in range(a, box.d)]
    out = np.zeros_like(cb)
    for (a, b), t_hat in zip(pairs, _lane_map(
            ((partial(_product_block, u[a], u[b]), np.empty_like(cb[0]))
             for a, b in pairs), box)):
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
