import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csns.domain import BoxSpec, InitSpec, KernelSpec, SimConfig
from csns import driver, fluid, oracle, particles

BOX = BoxSpec(2, 2.0, 16)
CONST = KernelSpec("constant")
POWER = KernelSpec("inverse_power", 2.0)


def make_ensemble(box, n, seed, speed=1.0):
    rng = np.random.Generator(np.random.PCG64(seed))
    X = rng.uniform(0, box.L, (n, box.d))
    V = speed * rng.standard_normal((n, box.d))
    w = rng.uniform(0.5, 1.5, n)
    w /= w.sum()
    return particles.ParticleEnsemble(X, V, w)


def frozen_flow(ens, u, kernel, box):
    """State and config whose coupled step moves only the particles.

    With the back-reaction off, a zero or uniform flow stays as it is, so
    the step is the particle Heun step under a frozen fluid field.
    """
    state = driver.SimState(
        0.0, 0, fluid.VelocityField(box, fluid.to_block(fluid.forward_transform(u, box), box)),
        ens)
    cfg = SimConfig(box=box, dt=1e-3, t_end=1.0, kernel=kernel,
                    particle_count=ens.n, coupling_enabled=False)
    return state, cfg


def node_ensemble(box, nodes, V, w):
    X = np.asarray(nodes, dtype=float) * box.dx
    return particles.ParticleEnsemble(X, np.asarray(V, float),
                                       np.asarray(w, float))


def test_cic_stencil_on_node():
    X = np.array([[3 * BOX.dx, 5 * BOX.dx]])
    flat, wts = particles.cic_stencil(X, BOX)
    on = wts > 0
    assert np.sum(on) == 1
    assert flat[0][on[0]][0] == 3 * BOX.N + 5
    assert wts[0][on[0]][0] == pytest.approx(1.0)


def test_cic_stencil_cell_center():
    X = np.array([[0.5 * BOX.dx, 0.5 * BOX.dx]])
    _, wts = particles.cic_stencil(X, BOX)
    assert np.allclose(wts, 0.25)


def test_cic_stencil_wraps_at_boundary():
    X = np.array([[BOX.L - 0.25 * BOX.dx, 0.0]])
    flat, wts = particles.cic_stencil(X, BOX)
    # corners split between the last column and column zero
    cols = flat[0][wts[0] > 0] // BOX.N
    assert set(cols.tolist()) == {0, BOX.N - 1}
    assert wts.sum() == pytest.approx(1.0)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_deposit_conserves_particle_sums(seed):
    ens = make_ensemble(BOX, 40, seed)
    m = particles.deposit_moments(ens, BOX)
    cell = BOX.dx**BOX.d
    assert np.sum(m.rho) * cell == pytest.approx(np.sum(ens.w), rel=1e-13)
    assert np.sum(m.j, axis=(1, 2)) * cell == pytest.approx(
        ens.w @ ens.V, rel=1e-12, abs=1e-14)


def test_deposit_empty_ensemble():
    ens = particles.ParticleEnsemble(np.zeros((0, 2)), np.zeros((0, 2)),
                                     np.zeros(0))
    m = particles.deposit_moments(ens, BOX)
    assert np.all(m.rho == 0) and np.all(m.j == 0)


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10_000))
def test_deposit_interpolate_adjoint(seed):
    # sum_g u.j dx^d equals sum_i w_i V_i . u(X_i) exactly for the CIC pair
    rng = np.random.Generator(np.random.PCG64(seed + 77))
    u = rng.standard_normal((BOX.d,) + BOX.shape)
    ens = make_ensemble(BOX, 30, seed)
    m = particles.deposit_moments(ens, BOX)
    lhs = np.sum(u * m.j) * BOX.dx**BOX.d
    u_at = particles.interpolate_velocity(u, ens.X, BOX)
    rhs = np.sum(ens.w * np.sum(u_at * ens.V, axis=1))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-14)


def test_interpolate_reads_nodes_exactly():
    rng = np.random.Generator(np.random.PCG64(5))
    field = rng.standard_normal(BOX.shape)
    X = np.array([[2 * BOX.dx, 9 * BOX.dx], [15 * BOX.dx, 0.0]])
    vals = particles.interpolate(field, X, BOX)
    assert vals == pytest.approx([field[2, 9], field[15, 0]], rel=1e-14)


@pytest.mark.parametrize("d, n_grid", [(2, 16), (3, 8)])
def test_cic_stencil_matches_corner_product_formula(d, n_grid):
    box = BoxSpec(d, 2.0, n_grid)
    X = make_ensemble(box, 200, 4).X * 3.0 - box.L
    X[0], X[1] = -1e-17, box.L
    s = np.mod(X, box.L) / box.dx
    base = np.floor(s).astype(np.int64)
    frac = s - base
    corners = np.array(list(itertools.product((0, 1), repeat=d)))
    idx = np.mod(base[:, None, :] + corners[None], box.N)
    flat_ref = np.ravel_multi_index(tuple(np.moveaxis(idx, -1, 0)), box.shape)
    wts_ref = np.ones(flat_ref.shape)
    for a in range(d):
        wts_ref *= np.where(corners[:, a] == 1, frac[:, None, a],
                            1.0 - frac[:, None, a])
    flat, wts = particles.cic_stencil(X, box)
    assert np.array_equal(flat, flat_ref)
    assert np.array_equal(wts, wts_ref)


@pytest.mark.parametrize("d, n_grid", [(2, 16), (3, 8)])
def test_cic_stencil_skips_the_fold_to_the_same_bits(d, n_grid):
    # positions shifted by +-L take the np.mod path; the same positions
    # folded into [0, L) skip it, and the stencil keeps its bits
    box = BoxSpec(d, 2.0, n_grid)
    X = make_ensemble(box, 300, 12).X
    shift = np.random.Generator(np.random.PCG64(13)).integers(-1, 2, X.shape)
    Y = X + shift * box.L
    Y[0, 0] = -1e-17
    inside = particles.wrap_positions(Y, box)
    assert inside.min() >= 0.0 and inside.max() < box.L
    flat, wts = particles.cic_stencil(Y, box)
    flat_in, wts_in = particles.cic_stencil(inside, box)
    assert np.array_equal(flat, flat_in)
    assert np.array_equal(wts, wts_in)


@pytest.mark.parametrize("d", [2, 3])
def test_cic_stencil_empty_ensemble(d):
    flat, wts = particles.cic_stencil(np.zeros((0, d)), BoxSpec(d, 2.0, 8))
    assert flat.shape == wts.shape == (0, 2**d)
    assert flat.dtype == np.intp and wts.dtype == np.float64


@pytest.mark.parametrize("d, n_grid", [(2, 16), (3, 8)])
def test_interpolate_stack_matches_single_gather_sum(d, n_grid):
    # a field, or a stack of fields, reads to the same bits and layout as
    # one fancy-index gather of all channels summed over the corner axis
    box = BoxSpec(d, 2.0, n_grid)
    X = make_ensemble(box, 300, 6).X
    # particles on grid nodes; the one at the origin reads -0.0 times one
    # and negative values times zero, which a sum from zero makes +0.0
    X[:3] = np.array([[1, 2, 3], [0, 0, 0], [5, 4, 1]])[:, :d] * box.dx
    stencil = particles.cic_stencil(X, box)
    flat, wts = stencil
    near_origin = (Ellipsis,) + (slice(0, 2),) * d
    rng = np.random.Generator(np.random.PCG64(8))
    for channels in ((), (d,), (d + 1,)):
        field = rng.standard_normal(channels + box.shape)
        field[near_origin] = -np.abs(field[near_origin])
        field[(Ellipsis,) + (0,) * d] = -0.0
        ref = np.sum(field.reshape(channels + (-1,))[..., flat] * wts,
                     axis=-1)
        out = particles.interpolate(field, X, box, stencil)
        assert np.array_equal(out, ref)
        assert np.array_equal(np.signbit(out), np.signbit(ref))
        assert out.strides == ref.strides


def test_interpolate_stack_builds_no_corner_temporary():
    # a 2-channel read at 10k particles peaks below one (2, 4, n) array,
    # the size of a gather of every corner at once
    box = BoxSpec(2, 2.0 * math.pi, 128)
    n = 10_000
    X = make_ensemble(box, n, 3).X
    stencil = particles.cic_stencil(X, box)
    field = np.random.Generator(np.random.PCG64(4)).standard_normal(
        (2,) + box.shape)
    particles.interpolate(field, X, box, stencil)
    tracemalloc.start()
    try:
        particles.interpolate(field, X, box, stencil)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 4 * n * 8


def test_convolve_constant_kernel_gives_integrals():
    ens = make_ensemble(BOX, 25, 3)
    m = particles.convolve_kernel(particles.deposit_moments(ens, BOX), CONST, BOX)
    assert np.allclose(m.a, np.sum(ens.w), rtol=1e-13)
    mom = ens.w @ ens.V
    for i in range(BOX.d):
        assert np.allclose(m.b[i], mom[i], atol=1e-14)


def test_convolve_single_particle_matches_direct_kernel():
    ens = node_ensemble(BOX, [[4, 7]], [[0.0, 0.0]], [1.0])
    m = particles.convolve_kernel(particles.deposit_moments(ens, BOX), POWER, BOX)
    idx = np.arange(BOX.N)
    off = (idx + BOX.N // 2) % BOX.N - BOX.N // 2
    gx, gy = np.meshgrid(off, off, indexing="ij")
    r = BOX.dx * np.sqrt((gx**2 + gy**2).astype(float))
    phi = (1.0 + r**2) ** -1.0
    direct = np.roll(np.roll(phi, 4, axis=0), 7, axis=1)
    assert np.max(np.abs(m.a - direct)) < 1e-13


def test_alignment_force_single_particle_cancels():
    ens = node_ensemble(BOX, [[3, 3]], [[2.0, -1.5]], [0.7])
    m = particles.convolve_kernel(particles.deposit_moments(ens, BOX), POWER, BOX)
    f = particles.alignment_force(m, ens.X, ens.V, BOX)
    assert np.max(np.abs(f)) < 1e-13


def test_alignment_force_two_node_particles_exact():
    V = np.array([[1.0, 0.0], [0.0, 2.0]])
    w = np.array([0.4, 0.6])
    ens = node_ensemble(BOX, [[2, 2], [2, 6]], V, w)
    m = particles.convolve_kernel(particles.deposit_moments(ens, BOX), POWER, BOX)
    f = particles.alignment_force(m, ens.X, ens.V, BOX)
    r = 4 * BOX.dx
    phi = 1.0 / (1.0 + r * r)
    assert np.allclose(f[0], w[1] * phi * (V[1] - V[0]), atol=1e-13)
    assert np.allclose(f[1], w[0] * phi * (V[0] - V[1]), atol=1e-13)


def test_alignment_force_matches_pairwise_oracle_on_nodes():
    rng = np.random.Generator(np.random.PCG64(9))
    nodes = rng.integers(0, BOX.N, (12, 2))
    V = rng.standard_normal((12, 2))
    w = np.full(12, 1.0 / 12)
    ens = node_ensemble(BOX, nodes, V, w)
    m = particles.convolve_kernel(particles.deposit_moments(ens, BOX), POWER, BOX)
    f = particles.alignment_force(m, ens.X, ens.V, BOX)
    direct = oracle.direct_pairwise_alignment(ens.X, V, w, POWER, BOX)
    assert np.max(np.abs(f - direct)) < 1e-12


def test_alignment_force_off_node_error_refines():
    # smoothing error of the grid pipeline shrinks at second order in dx
    errs = []
    for N in (16, 32, 64):
        box = BoxSpec(2, 2.0, N)
        ens = make_ensemble(box, 20, 31)
        m = particles.convolve_kernel(particles.deposit_moments(ens, box),
                                      POWER, box)
        f = particles.alignment_force(m, ens.X, ens.V, box)
        direct = oracle.direct_pairwise_alignment(ens.X, ens.V, ens.w, POWER, box)
        errs.append(np.max(np.abs(f - direct)))
    assert errs[1] < errs[0] / 2.5
    assert errs[2] < errs[1] / 2.5


def test_total_alignment_momentum_cancels():
    ens = make_ensemble(BOX, 50, 13)
    m = particles.convolve_kernel(particles.deposit_moments(ens, BOX), POWER, BOX)
    f = particles.alignment_force(m, ens.X, ens.V, BOX)
    total = np.sum(ens.w[:, None] * f, axis=0)
    assert np.max(np.abs(total)) < 1e-14


def test_characteristic_step_matches_two_particle_law():
    box = BoxSpec(2, 2 * math.pi, 8)
    v1_0 = np.array([0.8, -0.2])
    v2_0 = np.array([-0.5, 0.6])
    ens = particles.ParticleEnsemble(
        np.array([[1.0, 1.0], [4.0, 5.0]]),
        np.stack([v1_0, v2_0]), np.array([0.5, 0.5]))
    state, cfg = frozen_flow(ens, np.zeros((2,) + box.shape), CONST, box)
    dt, n = 1e-3, 100
    for _ in range(n):
        state = driver.coupled_step(state, cfg, dt)
    ens = state.ens
    v1, v2 = oracle.two_particle_solution(0.5, 0.5, v1_0, v2_0, n * dt)
    # Heun is second order; the constant here is ~0.07 per unit time
    assert np.max(np.abs(ens.V[0] - v1)) < 2e-7
    assert np.max(np.abs(ens.V[1] - v2)) < 2e-7
    # the spatial transport velocity is u = 0, so positions are frozen
    assert np.array_equal(ens.X, np.array([[1.0, 1.0], [4.0, 5.0]]))


def test_characteristic_step_positions_follow_uniform_flow():
    box = BoxSpec(2, 2 * math.pi, 8)
    ens = particles.ParticleEnsemble(np.array([[0.0, 0.0]]),
                                     np.array([[0.0, 0.0]]),
                                     np.array([1.0]))
    u = np.zeros((2,) + box.shape)
    u[0] = 0.5
    state, cfg = frozen_flow(ens, u, CONST, box)
    out = driver.coupled_step(state, cfg, 0.2).ens
    assert out.X[0, 0] == pytest.approx(0.1, rel=1e-13)
    assert out.X[0, 1] == 0.0


def test_wrap_positions_stays_inside_the_box():
    X = np.array([[-1e-17, BOX.L], [0.5, BOX.L + 0.25]])
    out = particles.wrap_positions(X, BOX)
    assert np.all(out >= 0.0) and np.all(out < BOX.L)
    assert out[0].tolist() == [0.0, 0.0]
    assert out[1].tolist() == [0.5, 0.25]


def test_drag_field_values():
    ens = node_ensemble(BOX, [[0, 0]], [[1.0, 0.0]], [1.0])
    m = particles.deposit_moments(ens, BOX)
    u = np.zeros((2,) + BOX.shape)
    u[0] = 2.0
    h = particles.drag_field(m, u, BOX)
    assert np.allclose(h, m.j - m.rho[None] * u)
    assert h[0, 0, 0] == pytest.approx(m.j[0, 0, 0] - 2.0 * m.rho[0, 0])


def test_v_support_radius():
    ens = node_ensemble(BOX, [[0, 0], [1, 1]], [[3.0, 4.0], [0.0, 1.0]],
                        [0.5, 0.5])
    assert particles.v_support_radius(ens) == pytest.approx(5.0)
    empty = particles.ParticleEnsemble(np.zeros((0, 2)), np.zeros((0, 2)),
                                       np.zeros(0))
    assert particles.v_support_radius(empty) == 0.0


def test_density_lp_norms_uniform():
    rho = np.full(BOX.shape, 3.0)
    l1, l2, linf = particles.density_lp_norms(rho, BOX)
    assert l1 == pytest.approx(3.0 * BOX.volume)
    assert l2 == pytest.approx(3.0 * math.sqrt(BOX.volume))
    assert linf == 3.0


@pytest.mark.parametrize("profile, params", [
    ("gaussian", {}),
    ("uniform_ball", {}),
    ("flocked", {"velocity": [0.3, -0.1]}),
])
def test_sample_initial_profiles(profile, params):
    init = InitSpec(particles=profile, particle_params=params)
    ens = particles.sample_initial(init, 200, 1.0, BOX, seed=42)
    assert ens.n == 200
    assert np.sum(ens.w) == pytest.approx(1.0, rel=1e-13)
    assert np.all(ens.X >= 0) and np.all(ens.X < BOX.L)
    assert particles.v_support_radius(ens) <= 1.0 + 1e-12
    again = particles.sample_initial(init, 200, 1.0, BOX, seed=42)
    assert np.array_equal(ens.X, again.X) and np.array_equal(ens.V, again.V)


def test_sample_initial_lattice_structure():
    init = InitSpec(particles="lattice",
                    particle_params={"m": 4, "v0": 0.25, "density_amp": 0.5})
    ens = particles.sample_initial(init, 64, 1.0, BOX, seed=0)
    assert ens.n == 64
    assert np.sum(ens.w) == pytest.approx(1.0)
    # velocities come in +/- axis pairs, so total momentum starts at zero
    assert np.allclose(ens.w @ ens.V, 0.0, atol=1e-16)
    assert np.allclose(np.sqrt(np.sum(ens.V**2, axis=1)), 0.25)
    assert particles.sample_initial(init, 64, 1.0, BOX, seed=1).X.tolist() \
        == ens.X.tolist()


def test_sample_initial_empty():
    ens = particles.sample_initial(InitSpec(), 0, 1.0, BOX, seed=5)
    assert ens.n == 0
