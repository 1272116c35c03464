"""Pseudo-spectral incompressible flow on the periodic box.

Fourier coefficients use the 'forward' normalization, so the zero mode is
the spatial mean.  Physical arrays have shape (d, N, ..., N);
forward_transform makes the whole half spectrum, shape (d, N, ..., N//2+1).
The flow lives on the retained block, the modes the 2/3 rule keeps
(retained_block), the program's one spectral layout: every mode off it is
exactly zero, so a velocity (VelocityField), the right-hand side
(nonlinear_term), the Heun stages (if_heun), the norms, the projection and
the divergence hold and read only the block, shape (d, R, ..., C) with
R = 2 (N//3) + 1 rows per leading axis and C = N//3 + 1 columns, 30% of
the half spectrum at 64^3.  to_block and from_block cut a half spectrum to
the block and scatter a block back, for the checkpoint, which stores the
half spectrum.
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

from .domain import TWO_PI, BoxSpec


def forward_transform(u, box):
    """Physical samples to rfft coefficients (mean-value normalization)."""
    return np.fft.rfftn(u, axes=tuple(range(-box.d, 0)), norm="forward")


@dataclass(eq=False)
class RetainedBlock:
    """The modes the 2/3 rule keeps, one block of the half spectrum.

    The block is the same retained rows (modes 0..N/3, then -N/3..-1, at
    half-spectrum rows 0..N/3 and N-N/3..N-1) of each leading axis and the
    first cols columns (modes 0..N/3) of the last; shape is the block's
    shape and index the np.ix_ index that cuts it out of a half spectrum.
    xi holds the wavenumber 2 pi k / L of each axis, broadcasting against
    the block, i_xi the products 1j * xi, xi_sq and inv_xi_sq |xi|^2 and
    its inverse (0 at the mean) over the block, and parseval_weight the
    Parseval multiplicities, a row along the last axis: 2 on the columns
    past 0, which stand for a conjugate pair, since the Nyquist column is
    not kept.  runs pairs the block slice and the spectrum slice of each
    run of consecutive rows.
    """

    rows: np.ndarray
    cols: int
    shape: tuple
    index: tuple
    xi: tuple
    i_xi: tuple
    xi_sq: np.ndarray
    inv_xi_sq: np.ndarray
    parseval_weight: np.ndarray
    runs: tuple


@lru_cache(maxsize=32)
def retained_block(box):
    """The RetainedBlock of a box, built from the mode numbers |k| <= N//3
    of each axis (cached; every array is read-only)."""
    d, N, top = box.d, box.N, box.N // 3
    modes = np.r_[0:top + 1, -top:0]
    rows, cols = modes % N, top + 1
    index = np.ix_(*[rows] * (d - 1), np.arange(cols))
    xi = tuple(TWO_PI / box.L * k for k in np.ix_(*[modes] * (d - 1),
                                                  np.arange(cols)))
    xi_sq = sum(x**2 for x in xi)
    inv_xi_sq = np.divide(1.0, xi_sq, out=np.zeros_like(xi_sq),
                          where=xi_sq > 0)
    weight = np.full((1,) * (d - 1) + (cols,), 2.0)
    weight[..., 0] = 1.0
    runs = ((slice(0, top + 1), slice(0, top + 1)),
            (slice(top + 1, len(rows)), slice(N - top, N)))
    block = RetainedBlock(rows, cols, xi_sq.shape, index, xi,
                          tuple(1j * x for x in xi), xi_sq, inv_xi_sq,
                          weight, runs)
    for arr in (rows, *index, *xi, *block.i_xi, xi_sq, inv_xi_sq, weight):
        arr.setflags(write=False)
    return block


def to_block(c, box):
    """The retained block of the half spectrum c (leading axes kept)."""
    return c[(Ellipsis,) + retained_block(box).index]


def from_block(b, box):
    """The half spectrum whose retained block is b and every other mode
    zero."""
    c = np.zeros(b.shape[:-box.d] + box.spectral_shape, dtype=complex)
    c[(Ellipsis,) + retained_block(box).index] = b
    return c


@dataclass(eq=False)
class VelocityField:
    """Spectral velocity passed around by the driver and the writers.

    block holds the coefficients on the retained block, every other mode
    being zero; c is the whole half spectrum, scattered on each access.
    """

    box: BoxSpec
    block: np.ndarray

    @property
    def c(self):
        return from_block(self.block, self.box)

    def values(self):
        """The physical samples, bit for bit np.fft.irfftn of self.c."""
        return block_values(self.block, self.box)


def _parseval_sum(c, table, scale):
    """scale * sum(table * |c|^2) over the modes c holds; table carries the
    Parseval multiplicities times any per-mode factor, scale the volume
    times any constant (kept as one factor, which fixes the bits)."""
    return float(scale * np.sum(table * (c.real**2 + c.imag**2)))


def spectral_l2sq(c, box):
    """Squared L2 norm over the box via Parseval."""
    return _parseval_sum(c, retained_block(box).parseval_weight, box.volume)


def kinetic_energy(c, box):
    """Fluid energy (1/2) ||u||^2."""
    return 0.5 * spectral_l2sq(c, box)


def dissipation_rate(c, box, nu=1.0):
    """Viscous rate nu * ||grad u||^2."""
    block = retained_block(box)
    return _parseval_sum(c, block.parseval_weight * block.xi_sq,
                         nu * box.volume)


def low_freq_energy(c, box, r):
    """||u||^2 restricted to the closed ball of modes with |xi| <= r."""
    block = retained_block(box)
    return _parseval_sum(c, block.parseval_weight * (block.xi_sq <= r * r),
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
    """Remove the gradient part: c - xi (xi . c) / |xi|^2, identity on the
    mean."""
    block = retained_block(box)
    div = np.empty(c.shape[1:], dtype=complex)
    return _project_into(c, block.xi, block.inv_xi_sq,
                         np.empty(c.shape, dtype=complex), div,
                         np.empty_like(div))


def max_divergence(c, box):
    """Spectral sup of |xi . c|; zero for a solenoidal field."""
    return float(np.max(np.abs(_xi_dot(c, retained_block(box).xi))))


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
    (the finish of the right-hand side and the Heun stages) take rows
    block rows of all d components at a time, as many as fit the same two
    buffers (one row at least): the Heun stages in heun, the finish in
    div and tmp for the projection.  A block of at most 2^13 values
    (128 kB) is one chunk, because on those grids a second chunk costs
    more than the larger buffers.  Written for d = 2 and 3, the dimensions
    validate_config allows.
    """

    def __init__(self, box):
        block = retained_block(box)
        N, d = box.N, box.d
        self.box, self.block = box, block
        self.step = step = max(1, min(N, _CHUNK_POINTS // N ** (d - 1)))
        lines = (N,) + block.shape[1:]
        self.lines = np.empty(lines, dtype=complex)
        half = (step,) + box.spectral_shape[1:]
        size = math.prod(half)
        rest = block.shape[1:]
        whole = d * math.prod(block.shape) <= _CHUNK_POINTS // 4
        self.rows = block.shape[0] if whole else max(
            1, min(block.shape[0], size // (d * math.prod(rest))))
        chunk = self.rows * math.prod(rest)
        size = max(size, d * chunk)
        self.flat = tuple(np.empty(size, dtype=complex) for _ in range(2))
        self.half = _chunk(self.flat[0], half)
        self.product = _chunk(self.flat[1].view(float),
                              (step,) + box.shape[1:])
        mid = (step,) + (N,) * (d - 2) + (block.cols,)
        self.pad, self.mid = (_chunk(f, mid) for f in self.flat)
        self.heun = tuple(_chunk(f, (d, self.rows) + rest) for f in self.flat)
        self.div, self.tmp = (_chunk(self.flat[1][k * chunk:],
                                     (self.rows,) + rest) for k in (0, 1))
        self.width = max(1, self.half.size // math.prod(lines[:-1]))


def _block_inverse(c, out, work):
    """Write into out the physical samples of one component c of the
    retained block.

    These are the 1-D passes of np.fft.irfftn, in its axis order, run only
    on lines that can hold a retained mode: each leading axis is zero-padded
    to N just before its pass, and irfft pads the last axis itself, so the
    samples equal those of the whole half spectrum bit for bit.
    """
    block, step, width = work.block, work.step, work.width
    t0 = work.lines
    for c0 in range(0, block.cols, width):
        cut = slice(c0, min(c0 + width, block.cols))
        pad = _chunk(work.flat[0], t0[..., cut].shape)
        pad.fill(0)
        for rows, full in block.runs:
            pad[full] = c[rows, ..., cut]
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
    """Write into out the block of the rfft of ua * ub, or of ua if ub is None.

    These are the 1-D passes of np.fft.rfftn, in its axis order, each cut to
    the retained modes of its axis before the next pass.
    """
    rows, cols, step = work.block.rows, work.block.cols, work.step
    lines, width = work.lines, work.width
    N = len(ua)
    for r0 in range(0, N, step):
        chunk = slice(r0, r0 + step)
        k = min(step, N - r0)
        p = ua[chunk] if ub is None else np.multiply(
            ua[chunk], ub[chunk], out=work.product[:k])
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
    """Write block rows lo:hi of the right-hand side into the block g.

    t_hat holds the block transforms of the products u_a u_b in _pairs
    order, then those of any forcing.  Each chunk of rows starts from zero,
    subtracts i xi_b t_ab from component a (and i xi_a t_ab from b) pair by
    pair in that order, adds the forcing, and is projected when project.
    """
    block, pairs = work.block, _pairs(len(g))
    for r0 in range(lo, hi, work.rows):
        rows = slice(r0, min(r0 + work.rows, hi))
        k = rows.stop - r0
        acc, div, tmp = g[:, rows], work.div[:k], work.tmp[:k]
        # the axis-0 tables are the only ones with more than one row
        xi = (block.xi[0][rows],) + block.xi[1:]
        i_xi = (block.i_xi[0][rows],) + block.i_xi[1:]
        acc.fill(0)
        for p, (a, b) in enumerate(pairs):
            acc[a] -= np.multiply(i_xi[b], t_hat[p, rows], out=tmp)
            if b != a:
                acc[b] -= np.multiply(i_xi[a], t_hat[p, rows], out=tmp)
        for a, t in enumerate(t_hat[len(pairs):]):
            acc[a] += t[rows]
        if project:
            _project_into(acc, xi, block.inv_xi_sq[rows], acc, div, tmp)
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
    pool each job is submitted with the futures of the jobs it needs and
    first takes their results, so a failure passes on to every job that
    needs the failed one, and the caller, which takes the results in job
    order, raises the first exception in job order.  Whether it leaves
    with the results, a job's exception or an interrupt, it then cancels
    the jobs not yet begun and waits for the rest, since the jobs write
    into its buffers.  A job waits only for jobs listed before it, and
    the pool takes jobs in the order they were queued, so every job a
    waiting job needs was taken by a thread (or cancelled) before it, and
    the earliest unfinished job waits for nothing: callers sharing the
    pool cannot deadlock.
    """
    if pool is None:
        work = _thread_work(box)
        for fn, _ in jobs:
            fn(work)
        return

    def run(fn, needs):
        for future in needs:
            future.result()
        fn(_thread_work(box))

    futures = []
    try:
        for fn, after in jobs:
            futures.append(pool.submit(run, fn, [futures[j] for j in after]))
        for future in futures:
            future.result()
    finally:
        for future in futures:
            future.cancel()
        wait(futures)


def _rhs_scratch(box, transforms):
    """Room for the velocity samples u and transforms block transforms.

    On grids of at least _LANE_MIN_POINTS points the calling thread owns
    them and keeps them for its next call on the same grid and as many
    transforms or fewer: made afresh on each call, these 10 MB at 64^3 were
    handed back to the system and faulted in again, about 2700 page faults
    and 10 ms of system time per fluid3d step.  Below the gate they are
    made for each call, which kept 0.3 MB less resident on a 128^2 run.
    """
    scratch = getattr(_owned, "rhs", None)
    if scratch is None or scratch[0] != box or len(scratch[2]) < transforms:
        shape = (transforms,) + retained_block(box).shape
        scratch = (box, np.empty((box.d,) + box.shape),
                   np.empty(shape, dtype=complex))
        if box.N ** box.d >= _LANE_MIN_POINTS:
            _owned.rhs = scratch
    return scratch[1], scratch[2][:transforms]


def _inverse_jobs(c, u):
    """The jobs that write the samples of each component of the block c
    into u."""
    return [(partial(_block_inverse, c[a], u[a]), ()) for a in range(len(c))]


def block_values(c, box):
    """The physical samples of the block coefficients c, bit for bit
    np.fft.irfftn of from_block(c, box): one block inverse per component,
    on the lanes."""
    u = np.empty((len(c),) + box.shape)
    pool = _lane_pool(box)
    _run_lanes(_inverse_jobs(c, u), pool, box)
    return u


def _right_hand_side(c, box, project, h, u):
    """-(u . grad) u + h, the advection in divergence form, projected when
    project, on the retained block.

    u is the velocity of the block c, given as its samples or made here;
    both terms are dealiased by the 2/3 rule, so every mode off the
    retained block is zero and never computed.  One job list holds the d
    inverse (when u is not given), d(d+1)/2 product and, when the body
    force h is given, d forcing block transforms, and the row jobs that
    finish the result.
    """
    d, pool, pairs = box.d, _lane_pool(box), _pairs(box.d)
    forcing = () if h is None else range(d)
    own, t_hat = _rhs_scratch(box, len(pairs) + len(forcing))
    g = np.empty(c.shape, dtype=complex)
    jobs = _inverse_jobs(c, own) if u is None else []
    u, inverses = own if u is None else u, len(jobs)
    jobs += [(partial(_product_block, u[a], u[b], t_hat[p]),
              (a, b) if inverses else ())
             for p, (a, b) in enumerate(pairs)]
    jobs += [(partial(_product_block, h[a], None, t_hat[len(pairs) + a]), ())
             for a in forcing]
    jobs += _row_jobs(partial(_finish_rows, t_hat, g, project),
                      g.shape[1], pool, range(inverses, len(jobs)))
    _run_lanes(jobs, pool, box)
    return g


def nonlinear_term(c, box, h=None, u=None):
    """Projected right-hand side -P[(u . grad) u - h] of the block c,
    dealiased by the 2/3 rule, on the block; h is an optional body force
    given by its grid samples, and u the velocity samples of c, as
    block_values makes them, when the caller has them."""
    return _right_hand_side(c, box, True, h, u)


def pressure_solve(c, box, h=None):
    """Pressure balancing the divergence of -(u . grad) u + h (mean set to
    zero), both dealiased; c is on the block, h an optional body force on
    the grid."""
    block = retained_block(box)
    g = _right_hand_side(c, box, False, h, None)
    p = -1j * _xi_dot(g, block.xi) * block.inv_xi_sq
    return block_values(p[None], box)[0]


@lru_cache(maxsize=4)
def _viscous_decay(box, nu, dt):
    """The integrating factor exp(-nu |xi|^2 dt) on the retained block
    (cached, read-only)."""
    decay = np.exp(-nu * retained_block(box).xi_sq * dt)
    decay.setflags(write=False)
    return decay


def _heun_rows(c0, g0, h, decay, g1, out, lo, hi, work):
    """Write rows lo:hi of decay * (c0 + h g0), plus h g1 when g1 is not
    None, into out: the operations of the Heun formulas, on chunks of rows."""
    for r0 in range(lo, hi, work.rows):
        rows = slice(r0, min(r0 + work.rows, hi))
        k = rows.stop - r0
        t, s = work.heun[0][:, :k], work.heun[1][:, :k]
        np.add(c0[:, rows], np.multiply(h, g0[:, rows], out=t), out=t)
        if g1 is None:
            np.multiply(decay[rows], t, out=out[:, rows])
        else:
            np.add(np.multiply(decay[rows], t, out=t),
                   np.multiply(h, g1[:, rows], out=s), out=out[:, rows])
    return out


def if_heun(c0, dt, nu, box, g0, g_of):
    """One integrating-factor Heun step for c' = -nu |xi|^2 c + G(c), on
    the retained block.

    g0 is G at c0; g_of maps the predictor state to its G value and one
    extra output of that stage, which is handed back with the new state as
    (c1, extra).  The pure fluid stepper and the coupled stepper both go
    through this helper, so the fluid update is bit-identical when no
    particles are present.  The predictor decay (c0 + dt g0) and the
    corrector decay (c0 + dt/2 g0) + dt/2 g1 run as row jobs on the lanes.
    The corrector does not read the predictor state, so the new state is
    written over it: g_of must not keep it.
    """
    pool = _lane_pool(box)
    decay = _viscous_decay(box, nu, dt)
    rows = c0.shape[1]
    c1 = np.empty(c0.shape, dtype=complex)
    _run_lanes(_row_jobs(partial(_heun_rows, c0, g0, dt, decay, None, c1),
                         rows, pool), pool, box)
    g1, extra = g_of(c1)
    _run_lanes(_row_jobs(partial(_heun_rows, c0, g0, 0.5 * dt, decay, g1, c1),
                         rows, pool), pool, box)
    return c1, extra


def ns_step(c, box, nu, dt, h=None):
    """Advance the flow on the block c one step; h is an optional body
    force on the grid."""
    return if_heun(c, dt, nu, box, nonlinear_term(c, box, h),
                   lambda cc: (nonlinear_term(cc, box, h), None))[0]


def fluid_momentum(c, box):
    """Integral of u over the box (volume times the mean mode)."""
    mean_mode = c[(Ellipsis,) + (0,) * box.d]
    return box.volume * np.real(mean_mode)


def max_speed(u):
    """Grid sup of |u| for a physical-space vector field."""
    return float(np.sqrt(np.max(np.sum(u * u, axis=0))))
