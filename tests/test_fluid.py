import itertools
import math
import signal
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csns.domain import BoxSpec, InitSpec, KernelSpec, OutputSpec, SimConfig
from csns import driver, fluid, oracle, particles
from conftest import half_spectrum_tables

BOX2 = BoxSpec(2, 2 * math.pi, 32)
BOX3 = BoxSpec(3, 2 * math.pi, 16)


def random_field(box, seed, ncomp=None):
    rng = np.random.Generator(np.random.PCG64(seed))
    shape = ((ncomp,) if ncomp else ()) + box.shape
    return rng.standard_normal(shape)


def random_solenoidal(box, seed):
    """A random divergence-free field on the retained block."""
    c = fluid.forward_transform(random_field(box, seed, box.d), box)
    return fluid.leray_project(fluid.to_block(c, box), box)


def on_block(u, box):
    """The block coefficients of the physical field u."""
    return fluid.to_block(fluid.forward_transform(u, box), box)


def irfftn(c, box):
    """The physical samples of the half spectrum c, by numpy's irfftn."""
    return np.fft.irfftn(c, s=box.shape, axes=tuple(range(-box.d, 0)),
                         norm="forward")


def grid_mesh(box):
    x = np.arange(box.N) * box.dx
    return np.meshgrid(*([x] * box.d), indexing="ij")


@pytest.mark.parametrize("box", [BOX2, BOX3])
def test_transform_round_trip(box):
    u = random_field(box, 7, box.d)
    back = irfftn(fluid.forward_transform(u, box), box)
    assert np.max(np.abs(back - u)) < 1e-12


def test_forward_transform_mean_mode():
    u = np.full(BOX2.shape, 3.25)
    c = fluid.forward_transform(u, BOX2)
    assert c[0, 0] == pytest.approx(3.25)


@pytest.mark.parametrize("box", [BOX2, BOX3])
def test_parseval(box):
    c = on_block(random_field(box, 11, box.d), box)
    u = fluid.block_values(c, box)
    direct = np.sum(u * u) * box.dx**box.d
    assert fluid.spectral_l2sq(c, box) == pytest.approx(direct, rel=1e-10)


def test_kinetic_energy_single_mode():
    xx, _ = grid_mesh(BOX2)
    c = on_block(np.stack([np.sin(xx), np.zeros_like(xx)]), BOX2)
    assert fluid.kinetic_energy(c, BOX2) == pytest.approx(math.pi**2, rel=1e-12)
    # |xi| = 1 for this mode, so the viscous rate is ||u||^2
    assert fluid.dissipation_rate(c, BOX2, nu=1.0) == pytest.approx(
        2 * math.pi**2, rel=1e-12)


def test_low_freq_energy_shells():
    xx, yy = grid_mesh(BOX2)
    u = np.stack([np.sin(xx) + 0.5, np.zeros_like(yy)])
    c = on_block(u, BOX2)
    total = fluid.spectral_l2sq(c, BOX2)
    mean_only = BOX2.volume * 0.25
    assert fluid.low_freq_energy(c, BOX2, 0.0) == pytest.approx(mean_only)
    # the |xi| = 1 shell is included exactly at r = 1 (closed ball)
    assert fluid.low_freq_energy(c, BOX2, 0.999) == pytest.approx(mean_only)
    assert fluid.low_freq_energy(c, BOX2, 1.0) == pytest.approx(total, rel=1e-12)
    assert fluid.low_freq_energy(c, BOX2, 50.0) == pytest.approx(total, rel=1e-12)


@pytest.mark.parametrize("box", [BOX2, BoxSpec(2, 2 * math.pi, 128),
                                 BOX3, BoxSpec(3, 100.0, 16)])
def test_parseval_sums_keep_their_bits(box):
    # the formulas each function wrote out before they shared one sum
    grid = fluid.retained_block(box)
    rng = np.random.Generator(np.random.PCG64(box.N))
    c = (rng.standard_normal((box.d,) + grid.shape)
         + 1j * rng.standard_normal((box.d,) + grid.shape))
    sq = c.real**2 + c.imag**2
    w = grid.parseval_weight
    assert fluid.spectral_l2sq(c, box) == float(box.volume * np.sum(w * sq))
    nu = 0.3
    assert fluid.dissipation_rate(c, box, nu) == float(
        nu * box.volume * np.sum(w * grid.xi_sq * sq))
    r = 3.0 * 2 * math.pi / box.L
    assert fluid.low_freq_energy(c, box, r) == float(
        box.volume * np.sum(w * (grid.xi_sq <= r * r) * sq))


def test_leray_annihilates_gradients():
    xx, yy = grid_mesh(BOX2)
    grad = np.stack([np.cos(xx + yy), np.cos(xx + yy)])
    c = on_block(grad, BOX2)
    proj = fluid.leray_project(c, BOX2)
    assert np.max(np.abs(proj)) < 1e-14


def test_leray_keeps_shear_and_splits_mixture():
    xx, yy = grid_mesh(BOX2)
    shear = np.stack([np.sin(yy), np.zeros_like(xx)])
    grad = np.stack([np.cos(xx + yy), np.cos(xx + yy)])
    c_shear = on_block(shear, BOX2)
    c_mix = on_block(shear + grad, BOX2)
    proj = fluid.leray_project(c_mix, BOX2)
    assert np.max(np.abs(proj - c_shear)) < 1e-13
    assert np.max(np.abs(fluid.leray_project(proj, BOX2) - proj)) < 1e-15
    assert fluid.max_divergence(proj, BOX2) < 1e-13


def test_leray_keeps_mean_mode():
    c = on_block(np.full((2,) + BOX2.shape, 1.5), BOX2)
    proj = fluid.leray_project(c, BOX2)
    assert proj[0, 0, 0] == pytest.approx(1.5)


def test_nonlinear_term_vanishes_on_taylor_green():
    u, _, _ = oracle.taylor_green(BOX2)
    c = on_block(u, BOX2)
    assert np.max(np.abs(fluid.nonlinear_term(c, BOX2))) < 1e-14


@settings(deadline=None, max_examples=20)
@given(st.integers(0, 10_000))
def test_nonlinear_term_conserves_energy(seed):
    # advection in divergence form moves energy between modes without creating it
    c = random_solenoidal(BOX2, seed)
    g = fluid.nonlinear_term(c, BOX2)
    grid = fluid.retained_block(BOX2)
    pairing = np.sum(grid.parseval_weight * np.real(np.conj(c) * g))
    scale = np.sum(grid.parseval_weight * np.abs(c) * np.abs(g)) + 1e-30
    assert abs(pairing) / scale < 1e-12
    assert fluid.max_divergence(g, BOX2) < 1e-12 * (1 + np.max(np.abs(g)))


def test_pressure_solve_gradient_forcing():
    xx, yy = grid_mesh(BOX2)
    h = np.stack([np.cos(xx), np.zeros_like(yy)])
    c = np.zeros((2,) + fluid.retained_block(BOX2).shape, dtype=complex)
    p = fluid.pressure_solve(c, BOX2, h=h)
    assert np.max(np.abs(p - np.sin(xx))) < 1e-12


def test_pressure_solve_taylor_green():
    u, p_exact, _ = oracle.taylor_green(BOX2)
    c = on_block(u, BOX2)
    p = fluid.pressure_solve(c, BOX2)
    assert np.max(np.abs(p - p_exact)) < 1e-12


def test_ns_step_shear_exact_decay():
    xx, yy = grid_mesh(BOX2)
    c = on_block(np.stack([np.sin(yy), np.zeros_like(xx)]), BOX2)
    nu, dt = 0.7, 2e-2
    for _ in range(10):
        c = fluid.ns_step(c, BOX2, nu, dt)
    exact = math.exp(-nu * 1.0 * 10 * dt)
    got = fluid.block_values(c, BOX2)[0]
    assert np.max(np.abs(got - exact * np.sin(yy))) < 1e-14


def test_ns_step_constant_field_unchanged():
    c = on_block(np.full((2,) + BOX2.shape, 0.3), BOX2)
    c1 = fluid.ns_step(c, BOX2, 1.0, 1e-2)
    assert np.max(np.abs(c1 - c)) < 1e-15


def test_ns_step_taylor_green_matches_oracle():
    u0, _, _ = oracle.taylor_green(BOX2)
    c = on_block(u0, BOX2)
    nu, dt, n = 1.0, 1e-3, 200
    for _ in range(n):
        c = fluid.ns_step(c, BOX2, nu, dt)
    u_exact, _, e_exact = oracle.taylor_green(BOX2, t=n * dt, nu=nu)
    assert np.max(np.abs(c - on_block(u_exact, BOX2))) < 1e-12
    assert fluid.kinetic_energy(c, BOX2) == pytest.approx(e_exact, rel=1e-10)


def test_ns_step_preserves_divergence_and_momentum():
    c = random_solenoidal(BOX2, 3)
    mom0 = fluid.fluid_momentum(c, BOX2)
    e_prev = fluid.kinetic_energy(c, BOX2)
    for _ in range(20):
        c = fluid.ns_step(c, BOX2, 1.0, 1e-3)
        e = fluid.kinetic_energy(c, BOX2)
        assert e <= e_prev + 1e-12
        e_prev = e
        assert fluid.max_divergence(c, BOX2) < 1e-10 * (1 + np.max(np.abs(c)))
    assert np.max(np.abs(fluid.fluid_momentum(c, BOX2) - mom0)) < 1e-14


def test_ns_step_forced_momentum_gain():
    # a mean force adds volume * h * dt of momentum per step, exactly
    c = np.zeros((2,) + fluid.retained_block(BOX2).shape, dtype=complex)
    h = np.zeros((2,) + BOX2.shape)
    h[0] = 0.25
    dt = 1e-2
    c1 = fluid.ns_step(c, BOX2, 1.0, dt, h=h)
    gain = fluid.fluid_momentum(c1, BOX2)[0]
    assert gain == pytest.approx(BOX2.volume * 0.25 * dt, rel=1e-14)


def test_max_speed():
    xx, yy = grid_mesh(BOX2)
    u = np.stack([3.0 * np.sin(xx), 4.0 * np.sin(xx)])
    assert fluid.max_speed(u) == pytest.approx(5.0, rel=1e-12)


def test_velocity_field_round_trip():
    # the field keeps the retained block of its spectrum, and its samples
    # are those of the dealiased field
    c = fluid.forward_transform(random_field(BOX2, 5, 2), BOX2)
    kept = dealiased(c, BOX2)
    vf = fluid.VelocityField(BOX2, fluid.to_block(c, BOX2))
    assert_same_bits(vf.c, kept)
    u = irfftn(kept, BOX2)
    assert np.max(np.abs(vf.values() - u)) < 1e-12
    vf = fluid.VelocityField(BOX2, on_block(u, BOX2))
    assert np.max(np.abs(vf.values() - u)) < 1e-12


# The full-grid formula the retained-block right-hand side replaced: the
# dealiased field through irfftn, one rfftn per product, the dealias mask
# on the whole half spectrum, then the full-array projection, with the
# tables of half_spectrum_tables.

def reference_advection(c, box):
    grid = half_spectrum_tables(box)
    u = irfftn(np.where(grid.dealias, c, 0.0), box)
    out = np.zeros_like(c)
    for a in range(box.d):
        for b in range(a, box.d):
            t_hat = fluid.forward_transform(u[a] * u[b], box)
            out[a] = out[a] - 1j * grid.xi[b] * t_hat
            if b != a:
                out[b] = out[b] - 1j * grid.xi[a] * t_hat
    return np.where(grid.dealias, out, 0.0)


def reference_divergence(g, grid):
    div = np.zeros(g.shape[1:], dtype=complex)
    for a in range(len(g)):
        div = div + grid.xi[a] * g[a]
    return div


def reference_project(c, box):
    grid = half_spectrum_tables(box)
    div = reference_divergence(c, grid) * grid.inv_xi_sq
    return np.stack([c[a] - grid.xi[a] * div for a in range(box.d)])


def reference_nonlinear(c, box):
    return reference_project(reference_advection(c, box), box)


def reference_forcing(h, box):
    # the body force on the grid, masked like the advection
    return dealiased(fluid.forward_transform(h, box), box)


def reference_forced(c, box, h):
    return reference_project(
        reference_advection(c, box) + reference_forcing(h, box), box)


def reference_pressure(c, box, h):
    grid = half_spectrum_tables(box)
    g = reference_advection(c, box) + reference_forcing(h, box)
    return irfftn(-1j * reference_divergence(g, grid) * grid.inv_xi_sq, box)


def reference_ns_step(c, box, nu, dt, h):
    decay = np.exp(-nu * half_spectrum_tables(box).xi_sq * dt)
    g0 = reference_forced(c, box, h)
    g1 = reference_forced(decay * (c + dt * g0), box, h)
    return decay * (c + 0.5 * dt * g0) + 0.5 * dt * g1


def rhs(c, box, h=None):
    """nonlinear_term of the retained block of the half spectrum c,
    scattered back to the half spectrum."""
    return fluid.from_block(
        fluid.nonlinear_term(fluid.to_block(c, box), box, h), box)


def pressure(c, box, h=None):
    return fluid.pressure_solve(fluid.to_block(c, box), box, h)


def step(c, box, nu, dt, h=None):
    """ns_step of the retained block of c, scattered back."""
    return fluid.from_block(
        fluid.ns_step(fluid.to_block(c, box), box, nu, dt, h), box)


def dealiased(c, box):
    return np.where(half_spectrum_tables(box).dealias, c, 0.0)


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # signed zeros too


BIT_BOXES = [BoxSpec(2, 2 * math.pi, 8), BoxSpec(2, 2 * math.pi, 32),
             BoxSpec(2, 2 * math.pi, 128), BoxSpec(3, 2 * math.pi, 8),
             BoxSpec(3, 2 * math.pi, 16)]


@pytest.mark.parametrize("box", BIT_BOXES, ids=lambda b: f"{b.d}d{b.N}")
def test_retained_block_rhs_matches_full_grid_bits(box):
    c = fluid.forward_transform(random_field(box, 21, box.d), box)
    h = random_field(box, 22, box.d)
    assert_same_bits(rhs(c, box), reference_nonlinear(c, box))
    assert_same_bits(rhs(c, box, h),
                     reference_forced(c, box, h))
    assert_same_bits(pressure(c, box, h),
                     reference_pressure(c, box, h))
    zero = np.zeros_like(h)
    assert_same_bits(pressure(c, box),
                     reference_pressure(c, box, zero))
    for _ in range(2):  # the second call takes the cached integrating factor
        assert_same_bits(step(c, box, 0.7, 1e-2, h),
                         reference_ns_step(dealiased(c, box), box, 0.7,
                                           1e-2, h))


@pytest.mark.parametrize("box", BIT_BOXES, ids=lambda b: f"{b.d}d{b.N}")
def test_retained_block_is_the_dealias_mask(box):
    block = fluid.retained_block(box)
    mask = np.zeros(box.spectral_shape, dtype=bool)
    index = np.ix_(*[block.rows] * (box.d - 1), np.arange(block.cols))
    mask[index] = True
    assert np.array_equal(mask, half_spectrum_tables(box).dealias)
    assert block.inv_xi_sq.shape == mask[index].shape


@pytest.mark.parametrize("box", [BOX2, BOX3], ids=["2d", "3d"])
def test_retained_block_tables_match_fftfreq(box):
    # the block's tables are the fftfreq tables of the half spectrum cut
    # to the block, bit for bit
    block, want = fluid.retained_block(box), half_spectrum_tables(box)
    full = np.ones(box.spectral_shape)
    for got, table in ((block.xi_sq, want.xi_sq),
                       (block.inv_xi_sq, want.inv_xi_sq),
                       (block.parseval_weight, want.parseval_weight),
                       *zip(block.xi, want.xi)):
        table = (full * table)[block.index]
        assert_same_bits(np.broadcast_to(got, table.shape), table)


@pytest.mark.parametrize("table", [
    lambda: fluid.retained_block(BOX2).xi_sq,
    lambda: fluid.retained_block(BOX2).xi[0],
    lambda: fluid.retained_block(BOX2).index[-1],
    lambda: fluid.retained_block(BOX2).parseval_weight,
    lambda: fluid.retained_block(BOX3).inv_xi_sq,
    lambda: fluid.retained_block(BOX3).xi[2],
    lambda: fluid.retained_block(BOX3).rows,
    lambda: fluid._viscous_decay(BOX2, 1.0, 1e-3),
    lambda: particles.kernel_hat(KernelSpec("inverse_power", 2.0), BOX2),
], ids=["xi_sq", "xi", "dealias", "parseval_weight",
        "block_inv_xi_sq", "block_xi", "block_rows", "decay", "kernel_hat"])
def test_cached_tables_are_read_only(table):
    arr = table()
    with pytest.raises(ValueError, match="read-only"):
        arr[(0,) * arr.ndim] = 1
    with pytest.raises(ValueError, match="read-only"):
        arr *= 2


# Transform lanes: on grids of at least fluid._LANE_MIN_POINTS points the
# block transforms of one call run on a pool of one thread per usable CPU,
# at most fluid._MAX_LANES.  The fixtures set the usable CPUs and start from no
# pool, so the tests run the same on any machine.

BOX64 = BoxSpec(3, 2 * math.pi, 64)
C64 = fluid.forward_transform(random_field(BOX64, 44, 3), BOX64)
B64 = fluid.to_block(C64, BOX64)


@pytest.fixture
def usable_cpus(monkeypatch):
    """use(count) makes count CPUs usable and drops the pool, so that the
    next large call makes its own; that pool is shut down after the test."""
    monkeypatch.setattr(fluid, "_lanes", None)

    def use(count):
        monkeypatch.setattr(fluid.os, "sched_getaffinity",
                            lambda pid: set(range(count)))
        monkeypatch.setattr(fluid, "_lanes", None)

    yield use
    if fluid._lanes:
        fluid._lanes.shutdown()


@pytest.mark.parametrize("lanes", [2, 3])
def test_lanes_match_full_grid_bits_at_64(usable_cpus, monkeypatch, lanes):
    monkeypatch.setattr(fluid, "_MAX_LANES", lanes)
    usable_cpus(lanes)
    box = BOX64
    c = fluid.forward_transform(random_field(box, 31, box.d), box)
    h = random_field(box, 32, box.d)
    assert_same_bits(rhs(c, box), reference_nonlinear(c, box))
    assert fluid._lanes._max_workers == lanes
    if lanes == 3:
        return
    assert_same_bits(rhs(c, box, h),
                     reference_forced(c, box, h))
    assert_same_bits(pressure(c, box, h),
                     reference_pressure(c, box, h))
    assert_same_bits(pressure(c, box),
                     reference_pressure(c, box, np.zeros_like(h)))
    for _ in range(2):
        assert_same_bits(step(c, box, 0.7, 1e-2, h),
                         reference_ns_step(dealiased(c, box), box, 0.7,
                                           1e-2, h))


def test_forcing_takes_lane_scratch_only_when_given(usable_cpus,
                                                   monkeypatch):
    # a call without a body force, as in a particle-free run, keeps room
    # for the product transforms alone; a forced call adds room for h's,
    # and a later call without one reuses the larger scratch
    monkeypatch.delattr(fluid._owned, "rhs", raising=False)
    usable_cpus(2)
    h = random_field(BOX64, 24, 3)
    assert_same_bits(rhs(C64, BOX64),
                     reference_nonlinear(C64, BOX64))
    assert len(fluid._owned.rhs[2]) == 6
    assert_same_bits(rhs(C64, BOX64, h),
                     reference_forced(C64, BOX64, h))
    scratch = fluid._owned.rhs
    assert len(scratch[2]) == 9
    assert_same_bits(rhs(C64, BOX64),
                     reference_nonlinear(C64, BOX64))
    assert fluid._owned.rhs is scratch


def test_lane_count_is_capped(usable_cpus):
    # every pool thread keeps its own buffers, so more usable CPUs than
    # the cap start no more threads than the cap
    usable_cpus(32)
    c = fluid.forward_transform(random_field(BOX64, 40, 3), BOX64)
    before = threading.active_count()
    for _ in range(2):
        assert_same_bits(rhs(c, BOX64),
                         reference_nonlinear(c, BOX64))
    assert fluid._lanes._max_workers == fluid._MAX_LANES
    assert 0 < threading.active_count() - before <= fluid._MAX_LANES


def test_small_grid_starts_no_thread(usable_cpus):
    usable_cpus(2)
    box = BoxSpec(2, 2 * math.pi, 128)
    assert box.N ** box.d < fluid._LANE_MIN_POINTS
    c = fluid.forward_transform(random_field(box, 33, box.d), box)
    before = threading.active_count()
    assert_same_bits(rhs(c, box), reference_nonlinear(c, box))
    assert threading.active_count() == before
    assert fluid._lanes is None


def test_one_usable_cpu_starts_no_thread(usable_cpus):
    usable_cpus(1)
    c = fluid.forward_transform(random_field(BOX64, 34, 3), BOX64)
    before = threading.active_count()
    assert_same_bits(rhs(c, BOX64),
                     reference_nonlinear(c, BOX64))
    assert threading.active_count() == before
    assert fluid._lanes is False


def test_concurrent_callers_get_serial_bits(usable_cpus, monkeypatch):
    # each pool thread owns its scratch, so two callers sharing the pool
    # cannot write into each other's transforms; and they cannot deadlock,
    # though products wait for inverses and the finish for products: every
    # job a waiting job needs was queued before it by the same caller, so
    # a thread has already taken it
    fields = [fluid.forward_transform(random_field(BOX64, s, 3), BOX64)
              for s in (35, 36)]
    monkeypatch.setattr(fluid, "_lanes", False)
    serial = [rhs(c, BOX64) for c in fields]
    usable_cpus(2)
    start = threading.Barrier(2)
    got = [[], []]

    def call(k):
        start.wait()
        for _ in range(3):
            got[k].append(rhs(fields[k], BOX64))

    threads = [threading.Thread(target=call, args=(k,)) for k in (0, 1)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for k in (0, 1):
        assert len(got[k]) == 3
        for g in got[k]:
            assert_same_bits(g, serial[k])


def test_lane_buffers_follow_the_grid(usable_cpus, monkeypatch):
    big = BoxSpec(3, 2 * math.pi, 72)
    c64 = fluid.forward_transform(random_field(BOX64, 37, 3), BOX64)
    c72 = fluid.forward_transform(random_field(big, 38, 3), big)
    monkeypatch.setattr(fluid, "_lanes", False)
    serial = [rhs(c64, BOX64), rhs(c72, big)]
    usable_cpus(2)
    assert_same_bits(rhs(c64, BOX64), serial[0])
    assert_same_bits(rhs(c72, big), serial[1])


# The state on the retained block: the full-grid coupled step of the
# drag-on-block design (velocity samples by irfftn, the right-hand side by
# the reference formula, Heun on the whole half spectrum) keeps every mode
# off the block exactly zero, so the block state steps to its bits.

def coupled_config(box, seed):
    return SimConfig(
        box=box, dt=1e-3, t_end=1.0,
        kernel=KernelSpec("inverse_power", 2.0), particle_count=300,
        init_profile=InitSpec(fluid="broadband",
                              fluid_params={"xi_cut": 2.5, "u_rms": 0.5},
                              particles="gaussian"),
        seed=seed, output=OutputSpec(dir="unused"))


def reference_stage(c, ens, cfg):
    box = cfg.box
    m = particles.convolve_kernel(particles.deposit_moments(ens, box),
                                  cfg.kernel, box)
    u = irfftn(c, box)
    return (reference_forced(c, box, particles.drag_field(m, u, box)),
            particles.stage_rates(particles.read_fields(m, u, ens.X, box),
                                  ens.V))


def reference_coupled_step(c, ens, cfg, dt):
    box = cfg.box
    decay = np.exp(-cfg.viscosity * half_spectrum_tables(box).xi_sq * dt)
    g0, r0 = reference_stage(c, ens, cfg)
    g1, r1 = reference_stage(decay * (c + dt * g0),
                             driver._moved(ens, dt, *r0, box), cfg)
    return (decay * (c + 0.5 * dt * g0) + 0.5 * dt * g1,
            driver._moved(ens, 0.5 * dt, r0[0] + r1[0], r0[1] + r1[1], box))


@pytest.mark.parametrize("box, lanes", [
    (BoxSpec(2, 2 * math.pi, 32), 2), (BOX64, 2)], ids=["2d32", "64-lanes"])
def test_off_block_modes_stay_zero_over_coupled_steps(usable_cpus, box,
                                                      lanes):
    usable_cpus(lanes)
    cfg = coupled_config(box, 8)
    state = driver.initial_state(cfg)
    c, ens = state.u.c, state.ens
    off = ~half_spectrum_tables(box).dealias
    for _ in range(3):
        state = driver.coupled_step(state, cfg, cfg.dt)
        c, ens = reference_coupled_step(c, ens, cfg, cfg.dt)
        assert c[:, off].tobytes() == np.zeros_like(c[:, off]).tobytes()
        assert_same_bits(state.u.c, c)
        assert_same_bits(state.ens.X, ens.X)
        assert_same_bits(state.ens.V, ens.V)
    assert bool(fluid._lanes) == (box is BOX64)


@pytest.mark.parametrize("box, lanes", [
    (BoxSpec(2, 2 * math.pi, 32), 2), (BoxSpec(3, 2 * math.pi, 16), 1),
    (BOX64, 2)], ids=["2d32", "3d16", "64-lanes"])
def test_stage_samples_are_the_inverse_transform_bits(usable_cpus,
                                                      monkeypatch, box,
                                                      lanes):
    # the samples the drag, the particle rates and the right-hand side of a
    # stage read are the block inverses of the state, the bits of irfftn
    usable_cpus(lanes)
    cfg = coupled_config(box, 9)
    state = driver.initial_state(cfg)
    seen = []
    original = particles.stage_rates
    monkeypatch.setattr(particles, "stage_rates", lambda m, V: (
        seen.append(m.u), original(m, V))[1])
    driver._stage(cfg, state)
    want = irfftn(state.u.c, box)
    assert len(seen) == 1
    assert_same_bits(seen[0], want)
    assert_same_bits(state.u.values(), want)


def test_step_allocates_no_full_spectrum(usable_cpus):
    # after a warm-up call, nonlinear_term allocates its block result and
    # if_heun the new state, each under a third of one half spectrum, plus
    # the job lists, the futures and numpy's buffers for casting the real
    # decay factor to complex (about 0.3 MB)
    usable_cpus(2)
    c, g = B64, fluid.nonlinear_term(B64, BOX64)
    block_bytes = B64.nbytes
    assert block_bytes < 0.31 * 16 * 3 * math.prod(BOX64.spectral_shape)
    for call in (lambda: fluid.nonlinear_term(c, BOX64),
                 lambda: fluid.if_heun(c, 1e-2, 0.7, BOX64, g,
                                       lambda c_star: (g, None))):
        call()
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < block_bytes + 2**19


def old_if_heun(c0, dt, nu, box, g0, g_of):
    # the three-line formula the row jobs replaced
    decay = fluid._viscous_decay(box, nu, dt)
    c_star = decay * (c0 + dt * g0)
    g1, extra = g_of(c_star)
    return decay * (c0 + 0.5 * dt * g0) + 0.5 * dt * g1, extra


def random_spectrum(box, seed):
    rng = np.random.Generator(np.random.PCG64(seed))
    shape = (box.d,) + fluid.retained_block(box).shape
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@pytest.mark.parametrize("box, lanes", [
    (BOX64, 1), (BOX64, 2), (BOX64, 3), (BoxSpec(2, 2 * math.pi, 32), 2),
], ids=["64-serial", "64-2lanes", "64-3lanes", "2d32"])
def test_if_heun_rows_match_the_formula_bits(usable_cpus, monkeypatch, box,
                                             lanes):
    monkeypatch.setattr(fluid, "_MAX_LANES", max(lanes, 2))
    usable_cpus(lanes)
    c0, g0, g1 = (random_spectrum(box, s) for s in (41, 42, 43))
    kept = c0.copy(), g0.copy()
    seen = []

    def g_of(c_star):
        seen.append(c_star.copy())
        return g1 * 0.5 + c_star, len(seen)

    got = fluid.if_heun(c0, 0.03, 0.7, box, g0, g_of)
    want = old_if_heun(c0, 0.03, 0.7, box, g0, g_of)
    assert got[1] == 1 and want[1] == 2
    assert_same_bits(seen[0], seen[1])
    assert_same_bits(got[0], want[0])
    assert_same_bits(c0, kept[0])
    assert_same_bits(g0, kept[1])
    assert bool(fluid._lanes) == (box is BOX64 and lanes > 1)


class Boom(RuntimeError):
    pass


def failing(monkeypatch, name, when):
    """Make fluid.name raise Boom on the calls whose arguments pass when."""
    original = getattr(fluid, name)
    calls = itertools.count()

    def job(*args):
        if when(next(calls), *args):
            raise Boom(name)
        return original(*args)

    monkeypatch.setattr(fluid, name, job)
    return lambda: monkeypatch.setattr(fluid, name, original)


def ended(fn, timeout=60.0):
    """fn() on a thread joined with a timeout: its result or exception."""
    out = {}

    def target():
        try:
            out["result"] = fn()
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            out["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "the call did not end"
    return out


def nonlinear_call():
    return (lambda: fluid.nonlinear_term(B64, BOX64),
            fluid.to_block(reference_nonlinear(C64, BOX64), BOX64))


def ns_step_call():
    h = np.zeros((3,) + BOX64.shape)
    return (lambda: fluid.ns_step(B64, BOX64, 0.7, 1e-2, h),
            fluid.to_block(reference_ns_step(dealiased(C64, BOX64), BOX64,
                                             0.7, 1e-2, h), BOX64))


@pytest.mark.parametrize("name, when, call", [
    ("_block_inverse", lambda k, c, out, work: np.shares_memory(c, B64[1]),
     nonlinear_call),
    ("_product_block", lambda k, *args: k == 2, nonlinear_call),
    ("_finish_rows", lambda k, *args: args[3] == 0, nonlinear_call),
    ("_heun_rows", lambda k, *args: args[4] is None and args[6] > 0,
     ns_step_call),
], ids=["inverse", "product", "finish", "heun"])
def test_failed_lane_job_reaches_the_caller(usable_cpus, monkeypatch, name,
                                            when, call):
    usable_cpus(2)
    fn, want = call()
    restore = failing(monkeypatch, name, when)
    out = ended(fn)
    assert isinstance(out.get("error"), Boom), out
    # no lane is left waiting: each takes one of these and meets the others
    meet = threading.Barrier(fluid._MAX_LANES)
    for future in [fluid._lanes.submit(meet.wait, 20)
                   for _ in range(fluid._MAX_LANES)]:
        future.result(timeout=30)
    restore()
    assert_same_bits(ended(fn)["result"], want)


class Interrupt(Exception):
    pass


def test_interrupted_caller_waits_for_begun_lane_jobs(usable_cpus):
    # the caller is interrupted while the first job blocks and the second
    # waits for it: the third, queued behind them, never runs, and the
    # first has ended before the exception reaches the caller
    usable_cpus(2)
    pool = fluid._lane_pool(BOX64)
    log = []

    def block(work):
        time.sleep(0.5)
        log.append("block")

    def interrupt(signum, frame):
        raise Interrupt

    jobs = [(block, ()), (lambda work: log.append("after"), (0,)),
            (lambda work: log.append("queued"), ())]
    previous = signal.signal(signal.SIGALRM, interrupt)
    try:
        signal.setitimer(signal.ITIMER_REAL, 0.1)
        with pytest.raises(Interrupt):
            try:
                fluid._run_lanes(jobs, pool, BOX64)
            finally:
                seen = list(log)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert seen[:1] == ["block"]
    meet = threading.Barrier(fluid._MAX_LANES)
    for future in [pool.submit(meet.wait, 20)
                   for _ in range(fluid._MAX_LANES)]:
        future.result(timeout=30)
    assert "queued" not in log
