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
from concurrent.futures import ThreadPoolExecutor, wait
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


def _parseval_sum(c, table, scale):
    """scale * sum(table * |c|^2) over the half spectrum; table carries the
    Parseval multiplicities times any per-mode factor, scale the volume
    times any constant (kept as one factor, which fixes the bits)."""
    return float(scale * np.sum(table * (c.real**2 + c.imag**2)))


def spectral_l2sq(c, box):
    """Squared L2 norm over the box via Parseval on the half spectrum."""
    return _parseval_sum(c, wavenumbers(box).parseval_weight, box.volume)


def kinetic_energy(c, box):
    """Fluid energy (1/2) ||u||^2."""
    return 0.5 * spectral_l2sq(c, box)


def dissipation_rate(c, box, nu=1.0):
    """Viscous rate nu * ||grad u||^2."""
    grid = wavenumbers(box)
    return _parseval_sum(c, grid.parseval_weight * grid.xi_sq,
                         nu * box.volume)


def low_freq_energy(c, box, r):
    """||u||^2 restricted to the closed ball of modes with |xi| <= r."""
    grid = wavenumbers(box)
    return _parseval_sum(c, grid.parseval_weight * (grid.xi_sq <= r * r),
                         box.volume)


def _xi_dot(c, xi, div=None, tmp=None):
    """xi . c, accumulated over the components in axis order, into div with
    tmp as scratch (both fresh when not given)."""
    if div is None:
        div = np.empty(c.shape[1:], dtype=complex)
        tmp = np.empty_like(div)
    div.fill(0)
    for a in range(len(xi)):
        div += np.multiply(xi[a], c[a], out=tmp)
    return div


def _project_into(c, xi, inv_xi_sq, out, div, tmp):
    """Write c - xi (xi . c) / |xi|^2 into out (which may be c) over the modes
    the tables xi, inv_xi_sq cover; div and tmp are scratch of one
    component's shape."""
    _xi_dot(c, xi, div, tmp)
    div *= inv_xi_sq
    for a in range(len(xi)):
        np.subtract(c[a], np.multiply(xi[a], div, out=tmp), out=out[a])
    return out


def leray_project(c, box):
    """Remove the gradient part: c - xi (xi . c) / |xi|^2, identity on the mean."""
    grid = wavenumbers(box)
    div = np.empty(c.shape[1:], dtype=complex)
    return _project_into(c, grid.xi, grid.inv_xi_sq,
                         np.empty(c.shape, dtype=complex), div,
                         np.empty_like(div))


def max_divergence(c, box):
    """Spectral sup of |xi . c|; zero for a solenoidal field."""
    return float(np.max(np.abs(_xi_dot(c, wavenumbers(box).xi))))


@dataclass(eq=False)
class RetainedBlock:
    """The modes the 2/3 rule keeps, one block of the half spectrum.

    The block is the same retained rows (0..N/3 and N-N/3..N-1) of each
    leading axis and the first cols columns (0..N/3) of the last; index
    picks it out of a (N, ..., N//2+1) array, and xi, inv_xi_sq are the
    wavenumber tables restricted to it, i_xi the products 1j * xi.  runs
    pairs the block slice and the
    spectrum slice of each run of consecutive rows, and inner the block and
    spectrum index tuples of the axes between the first and the last (one
    empty pair in 2D), so the block is read and written by basic slices.
    """

    rows: np.ndarray
    cols: int
    index: tuple
    xi: tuple
    i_xi: tuple
    inv_xi_sq: np.ndarray
    runs: tuple
    inner: tuple


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
    ends = [0, *(np.flatnonzero(np.diff(rows) != 1) + 1), len(rows)]
    runs = tuple((slice(lo, hi), slice(int(rows[lo]), int(rows[hi - 1]) + 1))
                 for lo, hi in zip(ends, ends[1:]))
    inner = (((), ()),) if box.d == 2 else tuple(
        ((b,), (s,)) for b, s in runs)
    i_xi = tuple(1j * x for x in xi)
    block = RetainedBlock(rows, len(per_axis[-1]), index, xi, i_xi,
                          grid.inv_xi_sq[index], runs, inner)
    for arr in (rows, *index, *xi, *i_xi, block.inv_xi_sq):
        arr.setflags(write=False)
    return block


# Rows of axis 0 per chunk of the block transforms: about 2^15 grid points,
# 256 kB of float64, so that a chunk's passes stay in a core's cache.
_CHUNK_POINTS = 2**15


def _chunk(flat, shape):
    """A contiguous array of shape at the start of the flat buffer flat."""
    return flat[:math.prod(shape)].reshape(shape)


class _Work:
    """One thread's work buffers for the lane jobs of one grid.

    lines holds the block's lines padded to N on axis 0, the only array of
    block size.  Axis 0 is transformed on chunks of width columns of the
    last axis (column), every other pass on chunks of step rows of axis 0,
    starting from the chunk of the product, so no full-grid complex array
    is formed; each 1-D line and its transform stay as they were, so the
    bits do not change.  Two flat chunk buffers (flat) hold a chunk's half
    spectrum (half), its real product (product) and, in 3D, the padded
    lines of axis 1 (pad) and their transform (mid); for axis 0, a column
    chunk and its transform, cut to the block's rows.  The per-mode passes
    take as many rows of all d components as fit the same two buffers (one
    row at least): finish_rows block rows for the finish of the right-hand
    side (acc, with div and tmp for the projection), heun_rows spectrum
    rows for the Heun stages (heun).  A spectrum of at
    most 2^13 values (128 kB) is one Heun chunk, because on those grids a
    second chunk costs more than the larger buffers.  Written for d = 2 and
    3, the dimensions validate_config allows.
    """

    def __init__(self, box):
        block = retained_block(box)
        N, d = box.N, box.d
        self.box, self.block = box, block
        self.step = step = max(1, min(N, _CHUNK_POINTS // N ** (d - 1)))
        lines = (N,) + (len(block.rows),) * (d - 2) + (block.cols,)
        self.lines = np.empty(lines, dtype=complex)
        half = (step,) + box.spectral_shape[1:]
        size = math.prod(half)
        block_row = block.inv_xi_sq[0].size
        self.finish_rows = max(1, min(len(block.rows),
                                      size // (d * block_row)))
        whole = d * math.prod(box.spectral_shape) <= _CHUNK_POINTS // 4
        self.heun_rows = N if whole else max(1, step // d)
        size = max(size, d * self.finish_rows * block_row,
                   d * self.heun_rows * size // step)
        self.flat = tuple(np.empty(size, dtype=complex) for _ in range(2))
        self.half = _chunk(self.flat[0], half)
        self.product = _chunk(self.flat[1].view(float),
                              (step,) + box.shape[1:])
        mid = (step,) + (N,) * (d - 2) + (block.cols,)
        self.pad, self.mid = (_chunk(f, mid) for f in self.flat)
        rest = block.inv_xi_sq.shape[1:]
        self.acc = _chunk(self.flat[0], (d, self.finish_rows) + rest)
        self.div, self.tmp = (_chunk(f, (self.finish_rows,) + rest) for f in (
            self.flat[1], self.flat[1][self.finish_rows * block_row:]))
        self.heun = tuple(_chunk(f, (d, self.heun_rows) + half[1:])
                          for f in self.flat)
        self.width = max(1, self.half.size // math.prod(lines[:-1]))


def _block_inverse(c, out, work):
    """Write into out the physical samples of one component of the half
    spectrum c, dealiased by the 2/3 rule.

    These are the 1-D passes of np.fft.irfftn, in its axis order, run only
    on lines that can hold a retained mode: each leading axis is zero-padded
    to N just before its pass, and irfft pads the last axis itself.  The
    block is read out of c by its runs of rows.
    """
    block, step, width = work.block, work.step, work.width
    t0 = work.lines
    for c0 in range(0, block.cols, width):
        cut = slice(c0, min(c0 + width, block.cols))
        pad = _chunk(work.flat[0], t0[..., cut].shape)
        pad.fill(0)
        for _, full in block.runs:
            for b, s in block.inner:
                pad[(full,) + b] = c[(full,) + s + (cut,)]
        np.fft.ifft(pad, axis=0, norm="forward", out=t0[..., cut])
    N = len(out)
    for r0 in range(0, N, step):
        chunk = slice(r0, r0 + step)
        t = t0[chunk]
        if t.ndim == 3:
            k = len(t)
            pad = work.pad[:k]
            pad.fill(0)
            pad[:, block.rows] = t
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


@lru_cache(maxsize=None)
def _pairs(d):
    """The component pairs (a, b), a <= b, in the order of the serial sum."""
    return tuple((a, b) for a in range(d) for b in range(a, d))


def _finish_rows(t_hat, g, project, lo, hi, work):
    """Write block rows lo:hi of the right-hand side into the zeroed half
    spectrum g.

    t_hat holds the block transforms of the products u_a u_b in _pairs
    order.  Each chunk of rows starts from zero, subtracts i xi_b t_ab from
    component a (and i xi_a t_ab from b) pair by pair in that order, is
    projected when project, and is copied to its place in g.
    """
    block, d = work.block, len(g)
    cols = slice(0, block.cols)
    for r0 in range(lo, hi, work.finish_rows):
        rows = slice(r0, min(r0 + work.finish_rows, hi))
        k = rows.stop - r0
        acc, div, tmp = work.acc[:, :k], work.div[:k], work.tmp[:k]
        # the axis-0 tables are the only ones with more than one row
        xi = (block.xi[0][rows],) + block.xi[1:]
        i_xi = (block.i_xi[0][rows],) + block.i_xi[1:]
        acc.fill(0)
        for p, (a, b) in enumerate(_pairs(d)):
            acc[a] -= np.multiply(i_xi[b], t_hat[p, rows], out=tmp)
            if b != a:
                acc[b] -= np.multiply(i_xi[a], t_hat[p, rows], out=tmp)
        if project:
            _project_into(acc, xi, block.inv_xi_sq[rows], acc, div, tmp)
        for b0, full in block.runs:
            r1, r2 = max(r0, b0.start), min(rows.stop, b0.stop)
            if r1 >= r2:
                continue
            to = slice(r1 + full.start - b0.start, r2 + full.start - b0.start)
            for b, s in block.inner:
                g[(slice(None), to) + s + (cols,)] = \
                    acc[(slice(None), slice(r1 - r0, r2 - r0)) + b]
    return g


# Transform lanes: the per-mode passes and block transforms of a fluid
# step are jobs, and numpy's FFT and ufuncs release the GIL, so on grids of
# at least _LANE_MIN_POINTS points they run on a pool of one thread per
# usable CPU, at most _MAX_LANES, while the caller waits for them.  A job
# that needs the output of others waits only for those (a product for its
# two velocity components, the finish for every product).  Each thread owns
# its work buffers, and every output and the scratch of the right-hand side
# belong to the caller, so no large array is allocated or freed on a pool
# thread.  Each transform runs whole
# on one thread, and the per-mode passes are the same elementwise
# operations on rows, so the bytes do not depend on the lane count.
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


def _row_jobs(fn, rows, pool, after=()):
    """Jobs fn(lo, hi, work) over rows 0..rows, one contiguous range per
    lane the pool may have (one range without a pool), each waiting for the
    jobs after."""
    parts = _MAX_LANES if pool else 1
    ends = [rows * i // parts for i in range(parts + 1)]
    return [(partial(fn, lo, hi), after) for lo, hi in zip(ends, ends[1:])
            if lo < hi]


def _run_lanes(jobs, pool, box):
    """Run fn(work) for each (fn, after) of jobs, after naming the earlier
    jobs fn needs, in the work buffers of the thread that runs it.

    Without a pool the jobs run in order on the calling thread.  On the
    pool each job first waits for the events of the jobs it needs, and sets
    its own in a finally block; once a job has raised, the jobs not yet
    begun are skipped.  So a failure never leaves a job waiting, and the
    caller, which waits for every job, raises the first exception in job
    order.  A job waits only for jobs listed before it, and the pool takes
    jobs in the order they were queued, so every job a waiting job needs
    was taken by a thread before it, and the earliest unfinished job waits
    for nothing: callers sharing the pool cannot deadlock.
    """
    if pool is None:
        work = _thread_work(box)
        for fn, _ in jobs:
            fn(work)
        return
    done = [threading.Event() for _ in jobs]
    failed = []

    def run(k):
        fn, after = jobs[k]
        try:
            for j in after:
                done[j].wait()
            if not failed:
                fn(_thread_work(box))
        except BaseException:
            failed.append(k)
            raise
        finally:
            done[k].set()

    futures = [pool.submit(run, k) for k in range(len(jobs))]
    try:
        wait(futures)
    except BaseException:
        # interrupted: the jobs write into the caller's buffers, so skip
        # those not yet begun and let the others end before leaving
        failed.append(None)
        wait(futures)
        raise
    for future in futures:
        future.result()


def _rhs_scratch(box):
    """The velocity samples u and the block transforms of the products of
    one right-hand side.

    On grids of at least _LANE_MIN_POINTS points the calling thread owns
    them and keeps them for its next call on the same grid: made afresh on
    each call, these 10 MB at 64^3 were handed back to the system and
    faulted in again, about 2700 page faults and 10 ms of system time per
    fluid3d step.  Below the gate they are made for each call, which kept
    0.3 MB less resident on a 128^2 coupled run.
    """
    scratch = getattr(_owned, "rhs", None)
    if scratch is None or scratch[0] != box:
        products = (len(_pairs(box.d)),) + retained_block(box).inv_xi_sq.shape
        scratch = (box, np.empty((box.d,) + box.shape),
                   np.empty(products, dtype=complex))
        if box.N ** box.d >= _LANE_MIN_POINTS:
            _owned.rhs = scratch
    return scratch[1:]


def _right_hand_side(c, box, project):
    """-(u . grad) u in divergence form, projected when project, as a half
    spectrum.

    u is the velocity of c dealiased by the 2/3 rule; every mode off the
    retained block is zero in the dealiased transform, so it is never
    computed.  One job list holds the d inverse and d(d+1)/2 product block
    transforms and the row jobs that finish the block into the result.
    """
    block = retained_block(box)
    d, pool = box.d, _lane_pool(box)
    u, t_hat = _rhs_scratch(box)
    g = np.zeros((d,) + box.spectral_shape, dtype=complex)
    jobs = [(partial(_block_inverse, c[a], u[a]), ()) for a in range(d)]
    jobs += [(partial(_product_block, u[a], u[b], t_hat[p]), (a, b))
             for p, (a, b) in enumerate(_pairs(d))]
    jobs += _row_jobs(partial(_finish_rows, t_hat, g, project),
                      len(block.rows), pool, range(d, len(jobs)))
    _run_lanes(jobs, pool, box)
    return g


def nonlinear_term(c, box):
    """Projected advection term -P[(u . grad) u], dealiased by the 2/3 rule."""
    return _right_hand_side(c, box, project=True)


def pressure_solve(c, box, h_hat=None):
    """Pressure balancing the divergence of -(u . grad) u + h (mean set to zero)."""
    grid = wavenumbers(box)
    g = _right_hand_side(c, box, project=False)
    if h_hat is not None:
        g += h_hat
    return inverse_transform(-1j * _xi_dot(g, grid.xi) * grid.inv_xi_sq, box)


@lru_cache(maxsize=4)
def _viscous_decay(box, nu, dt):
    """The integrating factor exp(-nu |xi|^2 dt) (cached, read-only)."""
    decay = np.exp(-nu * wavenumbers(box).xi_sq * dt)
    decay.setflags(write=False)
    return decay


def _heun_rows(c0, g0, h, decay, g1, out, lo, hi, work):
    """Write rows lo:hi of decay * (c0 + h g0), plus h g1 when g1 is not
    None, into out: the operations of the Heun formulas, on chunks of rows."""
    for r0 in range(lo, hi, work.heun_rows):
        rows = slice(r0, min(r0 + work.heun_rows, hi))
        k = rows.stop - r0
        t, s = work.heun[0][:, :k], work.heun[1][:, :k]
        np.add(c0[:, rows], np.multiply(h, g0[:, rows], out=t), out=t)
        if g1 is None:
            np.multiply(decay[rows], t, out=out[:, rows])
        else:
            np.add(np.multiply(decay[rows], t, out=t),
                   np.multiply(h, g1[:, rows], out=s), out=out[:, rows])
    return out


def if_heun(c0, dt, nu, grid, g0, g_of):
    """One integrating-factor Heun step for c' = -nu |xi|^2 c + G(c).

    g0 is G at c0; g_of maps the predictor state to its G value and one
    extra output of that stage, which is handed back with the new state as
    (c1, extra).  The pure fluid stepper and the coupled stepper both go
    through this helper, so the fluid update is bit-identical when no
    particles are present.  The predictor decay (c0 + dt g0) and the
    corrector decay (c0 + dt/2 g0) + dt/2 g1 run as row jobs on the lanes.
    """
    box = grid.box
    pool = _lane_pool(box)
    decay = _viscous_decay(box, nu, dt)
    c_star = np.empty(c0.shape, dtype=complex)
    _run_lanes(_row_jobs(partial(_heun_rows, c0, g0, dt, decay, None, c_star),
                         box.N, pool), pool, box)
    g1, extra = g_of(c_star)
    del c_star  # the corrector does not read it: c1 may take its memory
    c1 = np.empty(c0.shape, dtype=complex)
    _run_lanes(_row_jobs(partial(_heun_rows, c0, g0, 0.5 * dt, decay, g1, c1),
                         box.N, pool), pool, box)
    return c1, extra


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
