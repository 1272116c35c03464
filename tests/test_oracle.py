import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from csns.domain import BoxSpec, KernelSpec
from csns import fluid, oracle


def test_import_leaves_out_scipy_special():
    # csns needs no scipy: scipy.special is slow to import, and scipy.fft
    # would load it too, while the transforms are numpy's.
    code = ("import sys, csns; "
            "print('scipy.special' in sys.modules, 'scipy.fft' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False False"


def test_moment_solution_at_zero_is_identity():
    ms0 = oracle.MomentState(1.0, np.array([0.3, -0.2]), 0.9)
    ms = oracle.moment_ode_solution(ms0, 0.0)
    assert np.allclose(ms.m1, ms0.m1) and ms.m2 == pytest.approx(ms0.m2)


def test_moment_momentum_decay():
    ms0 = oracle.MomentState(2.0, np.array([1.0, 0.0]), 3.0)
    ms = oracle.moment_ode_solution(ms0, 1.0)
    assert np.allclose(ms.m1, ms0.m1 * math.exp(-1.0), rtol=1e-14)


def test_moment_centered_case():
    # zero momentum, unit mass: second moment contracts at rate 4
    ms0 = oracle.MomentState(1.0, np.zeros(2), 0.7)
    ms = oracle.moment_ode_solution(ms0, 0.5)
    assert ms.m2 == pytest.approx(0.7 * math.exp(-2.0), rel=1e-14)


@settings(deadline=None, max_examples=30)
@given(st.floats(0.2, 5.0), st.floats(-2, 2), st.floats(-2, 2), st.floats(0.01, 3.0))
def test_moment_solution_satisfies_ode(m0, m1x, m1y, t):
    m1_0 = np.array([m1x, m1y])
    m2_0 = float(m1_0 @ m1_0) / m0 + 1.0
    ms0 = oracle.MomentState(m0, m1_0, m2_0)
    eps = 1e-5
    lo = oracle.moment_ode_solution(ms0, t - eps)
    mid = oracle.moment_ode_solution(ms0, t)
    hi = oracle.moment_ode_solution(ms0, t + eps)
    dm1 = (hi.m1 - lo.m1) / (2 * eps)
    dm2 = (hi.m2 - lo.m2) / (2 * eps)
    assert np.max(np.abs(dm1 + mid.m1)) < 1e-8
    rhs = -2.0 * (m0 * mid.m2 - float(mid.m1 @ mid.m1)) - 2.0 * mid.m2
    assert abs(dm2 - rhs) < 1e-7 * max(1.0, abs(rhs))


def test_two_particle_equal_velocities():
    v = np.array([0.4, -0.1])
    v1, v2 = oracle.two_particle_solution(0.3, 0.7, v, v, 1.3)
    assert np.allclose(v1, v * math.exp(-1.3), rtol=1e-14)
    assert np.allclose(v1, v2)


def test_two_particle_antisymmetric_pair():
    v = np.array([1.0, 0.0])
    v1, v2 = oracle.two_particle_solution(0.5, 0.5, v, -v, 0.8)
    assert np.allclose(v1, v * math.exp(-1.6), rtol=1e-14)
    assert np.allclose(v2, -v1)


def test_two_particle_channels_superpose():
    rng = np.random.Generator(np.random.PCG64(4))
    v1_0, v2_0 = rng.standard_normal((2, 3))
    w1, w2, t = 0.4, 0.9, 0.6
    v1, v2 = oracle.two_particle_solution(w1, w2, v1_0, v2_0, t)
    m0 = w1 + w2
    assert np.allclose(w1 * v1 + w2 * v2,
                       (w1 * v1_0 + w2 * v2_0) * math.exp(-t), rtol=1e-13)
    assert np.allclose(v1 - v2, (v1_0 - v2_0) * math.exp(-(1 + m0) * t), rtol=1e-13)


def test_two_particle_matches_moment_solution():
    # the pair's moments must follow the general moment law
    w1, w2, t = 0.6, 0.4, 0.9
    v1_0 = np.array([1.0, 0.5])
    v2_0 = np.array([-0.3, 0.2])
    v1, v2 = oracle.two_particle_solution(w1, w2, v1_0, v2_0, t)
    ms0 = oracle.MomentState(1.0, w1 * v1_0 + w2 * v2_0,
                             w1 * float(v1_0 @ v1_0) + w2 * float(v2_0 @ v2_0))
    ms = oracle.moment_ode_solution(ms0, t)
    assert np.allclose(w1 * v1 + w2 * v2, ms.m1, rtol=1e-12)
    assert w1 * float(v1 @ v1) + w2 * float(v2 @ v2) == pytest.approx(ms.m2, rel=1e-12)


def test_taylor_green_is_discretely_divergence_free():
    box = BoxSpec(2, 2 * math.pi, 32)
    u, _, e = oracle.taylor_green(box, t=0.3, nu=0.5)
    c = fluid.to_block(fluid.forward_transform(u, box), box)
    assert fluid.max_divergence(c, box) < 1e-14
    assert fluid.kinetic_energy(c, box) == pytest.approx(e, rel=1e-12)
    assert e == pytest.approx(math.pi**2 * math.exp(-4 * 0.5 * 0.3), rel=1e-14)


def test_heat_decay_reference_single_mode():
    box = BoxSpec(2, 2 * math.pi, 16)
    x = np.arange(box.N) * box.dx
    xx, yy = np.meshgrid(x, x, indexing="ij")
    c = fluid.forward_transform(np.stack([np.sin(xx), np.zeros_like(yy)]), box)
    per0, tot0 = oracle.heat_decay_reference(c, box, 0.0)
    per1, tot1 = oracle.heat_decay_reference(c, box, 1.0)
    assert tot0 == pytest.approx(
        fluid.spectral_l2sq(fluid.to_block(c, box), box), rel=1e-13)
    assert tot1 == pytest.approx(tot0 * math.exp(-2.0), rel=1e-13)
    assert per1.shape == box.spectral_shape


def test_flat_spectrum_limits():
    xc = 0.45
    assert oracle.flat_spectrum_energy(0.0, xc) == pytest.approx(xc**3 / 3)
    # large-time tail is the pure power law t^{-3/2}
    e1 = oracle.flat_spectrum_energy(4.0e3, xc)
    e2 = oracle.flat_spectrum_energy(1.6e4, xc)
    assert e1 / e2 == pytest.approx(8.0, rel=1e-3)


def test_flat_spectrum_slope_window():
    t = np.linspace(5.0, 50.0, 200)
    e = oracle.flat_spectrum_energy(t, 0.45)
    a = np.vstack([np.log1p(t), np.ones_like(t)]).T
    slope = np.linalg.lstsq(a, np.log(e), rcond=None)[0][0]
    assert slope == pytest.approx(-1.5, abs=0.05)


def test_direct_pairwise_alignment_single_particle():
    box = BoxSpec(2, 1.0, 8)
    X = np.array([[0.3, 0.4]])
    V = np.array([[2.0, -1.0]])
    f = oracle.direct_pairwise_alignment(X, V, np.array([1.0]),
                                         KernelSpec("inverse_power", 2.0), box)
    assert np.max(np.abs(f)) == 0.0


def test_direct_pairwise_alignment_two_particles():
    box = BoxSpec(2, 2.0, 8)
    kernel = KernelSpec("inverse_power", 2.0)
    # separation 0.5 through the periodic boundary, not 1.5
    X = np.array([[0.1, 0.0], [1.6, 0.0]])
    V = np.array([[1.0, 0.0], [0.0, 1.0]])
    w = np.array([0.25, 0.75])
    f = oracle.direct_pairwise_alignment(X, V, w, kernel, box)
    phi = 1.0 / (1.0 + 0.25)
    assert np.allclose(f[0], w[1] * phi * (V[1] - V[0]), rtol=1e-14)
    assert np.allclose(f[1], w[0] * phi * (V[0] - V[1]), rtol=1e-14)


def test_nbody_reference_matches_two_particle_law():
    box = BoxSpec(2, 2 * math.pi, 8)
    X = np.array([[0.0, 0.0], [1.0, 1.0]])
    v1_0 = np.array([0.8, -0.2])
    v2_0 = np.array([-0.5, 0.6])
    w = np.array([0.5, 0.5])
    v = oracle.nbody_align_reference(X, np.stack([v1_0, v2_0]), w,
                                     KernelSpec("constant"), box, 1.0, 20000)
    v1, v2 = oracle.two_particle_solution(0.5, 0.5, v1_0, v2_0, 1.0)
    assert np.max(np.abs(v[0] - v1)) < 1e-8
    assert np.max(np.abs(v[1] - v2)) < 1e-8


def test_nbody_reference_matches_moment_law():
    rng = np.random.Generator(np.random.PCG64(21))
    n = 64
    box = BoxSpec(2, 2 * math.pi, 8)
    X = rng.uniform(0, box.L, (n, 2))
    V0 = rng.standard_normal((n, 2))
    w = np.full(n, 1.0 / n)
    v = oracle.nbody_align_reference(X, V0, w, KernelSpec("constant"),
                                     box, 0.7, 14000)
    ms0 = oracle.MomentState(1.0, w @ V0, float(np.sum(w * np.sum(V0**2, axis=1))))
    ms = oracle.moment_ode_solution(ms0, 0.7)
    assert np.max(np.abs(w @ v - ms.m1)) < 1e-9
    assert float(np.sum(w * np.sum(v**2, axis=1))) == pytest.approx(ms.m2, abs=1e-8)
