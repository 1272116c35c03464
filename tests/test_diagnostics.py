"""Checks for the per-row functionals, the energy ledger, and the fitters."""

import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from csns import BoxSpec, KernelSpec, diagnostics, fluid, oracle, particles


def make_state(box, u_values, X, V, w, kernel, t=0.0):
    ens = particles.ParticleEnsemble(np.asarray(X, float),
                                     np.asarray(V, float),
                                     np.asarray(w, float))
    m = particles.convolve_kernel(particles.deposit_moments(ens, box),
                                  kernel, box)
    vf = fluid.VelocityField(box, fluid.to_block(fluid.forward_transform(u_values, box), box))
    m = particles.read_fields(m, vf.values(), ens.X, box)
    return SimpleNamespace(t=t, u=vf, ens=ens, moments=m)


def two_particle_state(box, u_values=None):
    if u_values is None:
        u_values = np.zeros((2,) + box.shape)
    return make_state(box, u_values,
                      X=[[1.0, 2.0], [4.0, 2.5]],
                      V=[[0.3, -0.4], [-0.3, 0.4]],
                      w=[0.5, 0.5],
                      kernel=KernelSpec(kind="constant"))


def one_row(state):
    """The row of state, as the recorder of a one-row series finishes it."""
    rec = diagnostics.SeriesRecorder(nu=1.0, c_sq=6.0)
    assert rec.record(state, diagnostics.energy(state)) == []
    [row] = rec.finish()
    return row


def row_terms(state, nu=1.0):
    return diagnostics.dissipation_terms(state, nu)


def test_csv_columns_2d():
    cols = diagnostics.csv_columns(2)
    assert cols == ["t", "E", "E_fluid", "E_kinetic", "grad_rate",
                    "drag_rate", "align_rate", "ledger_residual", "R",
                    "b_inf", "u_inf", "rho_l1", "rho_l2", "rho_linf",
                    "momentum_x", "momentum_y", "lowfreq_energy",
                    "fs_residual", "alignment_gap", "tw_drag_cum"]


def test_csv_columns_3d_adds_momentum_z():
    cols = diagnostics.csv_columns(3)
    assert "momentum_z" in cols
    assert cols.index("momentum_z") == cols.index("momentum_y") + 1
    assert len(cols) == len(diagnostics.csv_columns(2)) + 1


def test_energy_splits_fluid_and_kinetic():
    box = BoxSpec(d=2, L=2.0 * math.pi, N=32)
    u, _, e_ref = oracle.taylor_green(box)
    state = make_state(box, u, X=[[0.5, 0.5]], V=[[2.0, 0.0]], w=[1.0],
                       kernel=KernelSpec(kind="constant"))
    e, e_fluid, e_kin = diagnostics.energy(state)
    assert e_fluid == pytest.approx(e_ref, rel=1e-12)
    assert e_kin == pytest.approx(2.0)
    assert e == e_fluid + e_kin


def test_two_particle_alignment_rate():
    # opposite velocities, unit kernel: double sum is 2 |V0|^2 = 0.5
    box = BoxSpec(d=2, L=2.0 * math.pi, N=16)
    state = two_particle_state(box)
    grad, drag, align, _ = row_terms(state)
    assert grad == 0.0
    assert drag == pytest.approx(0.25, abs=1e-14)
    assert align == pytest.approx(0.5, abs=1e-14)


def test_alignment_gap_at_rest_fluid():
    box = BoxSpec(d=2, L=2.0 * math.pi, N=16)
    state = two_particle_state(box)
    gap = row_terms(state)[3]
    e, _, e_kin = diagnostics.energy(state)
    assert gap == pytest.approx(2.0 * e_kin, abs=1e-14)


def test_flocked_state_dissipates_nothing():
    box = BoxSpec(d=2, L=2.0 * math.pi, N=16)
    shared = np.array([0.7, -0.2])
    u = np.zeros((2,) + box.shape)
    u[0] = shared[0]
    u[1] = shared[1]
    state = make_state(box, u,
                       X=np.array([[0.3, 0.8], [2.0, 5.0], [4.4, 1.1]]),
                       V=np.tile(shared, (3, 1)),
                       w=[0.2, 0.5, 0.3],
                       kernel=KernelSpec(kind="inverse_power", beta=2.0))
    grad, drag, align, gap = row_terms(state)
    assert grad == pytest.approx(0.0, abs=1e-15)
    assert drag == pytest.approx(0.0, abs=1e-13)
    assert align == pytest.approx(0.0, abs=1e-13)
    assert gap == pytest.approx(0.0, abs=1e-13)


def test_dissipation_without_particles():
    box = BoxSpec(d=2, L=2.0 * math.pi, N=16)
    u, _, _ = oracle.taylor_green(box)
    state = make_state(box, u, X=np.zeros((0, 2)), V=np.zeros((0, 2)),
                       w=np.zeros(0), kernel=KernelSpec(kind="constant"))
    grad, drag, align, gap = row_terms(state, nu=0.5)
    assert grad == pytest.approx(2.0 * math.pi**2, rel=1e-12)
    assert drag == 0.0 and align == 0.0 and gap == 0.0


def test_b_field_sup():
    m = SimpleNamespace(b=np.stack([np.full((4, 4), 3.0),
                                    np.full((4, 4), 4.0)]))
    assert fluid.max_speed(m.b) == pytest.approx(5.0)


def test_ledger_trapezoid_and_residual():
    led = diagnostics.EnergyLedger.start(e0=10.0, t=0.0,
                                         grad=1.0, drag=0.5, align=2.0)
    led.advance(t=1.0, e=7.0, grad=1.0, drag=0.5, align=2.0)
    assert led.cum_grad == pytest.approx(1.0)
    assert led.cum_drag == pytest.approx(0.5)
    assert led.cum_align == pytest.approx(2.0)
    # 7 + 1 + 0.5 + 1 - 10 = -0.5
    assert diagnostics.energy_identity_residual(led) == pytest.approx(-0.5)


@given(g0=st.floats(0.0, 5.0), g1=st.floats(0.0, 5.0),
       h=st.floats(0.01, 2.0))
@settings(max_examples=40, deadline=None)
def test_ledger_trapezoid_exact_for_linear_rates(g0, g1, h):
    led = diagnostics.EnergyLedger.start(e0=1.0, t=0.0,
                                         grad=g0, drag=0.0, align=0.0)
    led.advance(t=h, e=1.0, grad=0.5 * (g0 + g1), drag=0.0, align=0.0)
    led.advance(t=2.0 * h, e=1.0, grad=g1, drag=0.0, align=0.0)
    exact = 2.0 * h * 0.5 * (g0 + g1)
    assert led.cum_grad == pytest.approx(exact, rel=1e-12, abs=1e-12)


def test_ledger_dict_round_trip():
    led = diagnostics.EnergyLedger.start(5.0, 0.0, 1.0, 2.0, 3.0)
    led.advance(0.5, 4.0, 1.1, 2.1, 3.1)
    back = diagnostics.EnergyLedger(**dataclasses.asdict(led))
    assert back == led


@given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0),
       c=st.floats(-3.0, 3.0))
@settings(max_examples=40, deadline=None)
def test_lagrange_derivative_exact_on_quadratics(a, b, c):
    ts = np.array([0.2, 0.9, 2.3])
    fs = a * ts * ts + b * ts + c
    for at in (0.2, 0.9, 2.3, 1.5):
        want = 2.0 * a * at + b
        got = diagnostics.lagrange_derivative(ts, fs, at)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-10)


def test_lagrange_derivative_nonuniform_endpoints():
    ts = np.array([0.0, 0.3, 1.0])
    fs = ts**2
    assert diagnostics.lagrange_derivative(ts, fs, 0.0) == pytest.approx(0.0, abs=1e-12)
    assert diagnostics.lagrange_derivative(ts, fs, 1.0) == pytest.approx(2.0, rel=1e-12)


def test_splitting_radius_shrinks():
    assert diagnostics.splitting_radius(0.0, 6.0) == pytest.approx(1.0)
    assert diagnostics.splitting_radius(6.0, 6.0) == pytest.approx(1.0 / math.sqrt(2.0))


def test_fs_residual_arithmetic():
    val = diagnostics.fs_residual(t=2.0, e=3.0, dedt=-1.0, lowfreq=4.0,
                                  c_sq=6.0)
    assert val == pytest.approx(6.0 / 8.0 * 4.0 + 1.0 - 9.0 / 8.0)


def test_r_bound_margins_on_conforming_series():
    t = np.linspace(0.0, 2.0, 21)
    b_inf = np.full_like(t, 0.3)
    u_inf = np.full_like(t, 0.2)
    r = 1.0 + 0.25 * t
    e_kin = np.full_like(t, 0.5)
    r_margin, b_margin = diagnostics.r_bound_check(t, r, b_inf, u_inf, e_kin)
    # slack (b+u-0.25) t is tightest at t = 0; sqrt(2*0.5) = 1 over 0.3
    assert r_margin == pytest.approx(0.0, abs=1e-12)
    assert b_margin == pytest.approx(0.7, rel=1e-12)


def test_r_bound_flags_violation():
    t = np.linspace(0.0, 1.0, 11)
    r = 1.0 + 2.0 * t
    r_margin, _ = diagnostics.r_bound_check(t, r, np.full_like(t, 0.3),
                                            np.full_like(t, 0.2),
                                            np.ones_like(t))
    assert r_margin == pytest.approx(-1.5, rel=1e-12)


def test_fit_decay_exponent_recovers_power_law():
    t = np.linspace(0.5, 60.0, 600)
    e = 2.7 * (1.0 + t) ** -1.5
    fit = diagnostics.fit_decay_exponent(t, e, 5.0, 50.0, box_length=100.0,
                                         nu=1.0)
    assert fit.slope == pytest.approx(-1.5, abs=1e-10)
    assert fit.intercept == pytest.approx(math.log(2.7), abs=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    assert fit.warnings == ()
    assert fit.n_samples >= 10


def test_fit_decay_window_too_small():
    t = np.linspace(0.0, 1.0, 50)
    e = np.exp(-t)
    with pytest.raises(ValueError, match="need >= 10"):
        diagnostics.fit_decay_exponent(t, e, 0.0, 0.1)


def test_fit_decay_rejects_nonpositive_energy():
    t = np.linspace(0.0, 10.0, 50)
    e = 1.0 - 0.2 * t
    with pytest.raises(ValueError, match="nonpositive"):
        diagnostics.fit_decay_exponent(t, e, 0.0, 10.0)


def test_fit_decay_warnings():
    t = np.linspace(0.0, 30.0, 400)
    e = (1.0 + t) ** -1.2
    fit = diagnostics.fit_decay_exponent(t, e, 10.0, 30.0,
                                         box_length=2.0 * math.pi, nu=1.0)
    assert len(fit.warnings) == 2
    assert "validity" in fit.warnings[0]
    assert "factor 5" in fit.warnings[1]


def good_table(n=40, d=2):
    cols = diagnostics.csv_columns(d)
    data = np.zeros(n, dtype=[(c, float) for c in cols])
    t = np.linspace(0.0, 4.0, n)
    e = 2.0 * np.exp(-t)
    data["t"] = t
    data["E"] = e
    data["E_fluid"] = 0.5 * e
    data["E_kinetic"] = 0.5 * e
    data["grad_rate"] = e
    data["drag_rate"] = 0.5 * e
    data["align_rate"] = 0.1 * e
    data["ledger_residual"] = 1e-8
    data["R"] = 1.0
    data["b_inf"] = 0.5 * np.sqrt(2.0 * data["E_kinetic"])
    data["u_inf"] = 0.3
    data["rho_l1"] = 1.0
    data["rho_l2"] = 1.2
    data["rho_linf"] = 2.0
    data["lowfreq_energy"] = e
    data["fs_residual"] = 0.1
    data["fs_residual"][0] = np.nan
    data["alignment_gap"] = 0.2 * e
    data["tw_drag_cum"] = diagnostics.cumulative_trapezoid(
        t, (1.0 + t) ** diagnostics.TW_EXPONENT * data["drag_rate"])
    return data


def test_verify_timeseries_all_pass():
    checks = diagnostics.verify_timeseries(good_table())
    assert len(checks) == 10
    assert all(c.passed for c in checks), \
        [c for c in checks if not c.passed]


@pytest.mark.parametrize("column,row,value,name", [
    ("rho_l1", 3, 1.0 + 1e-11, "mass_constant"),
    ("E", 5, 2.5, "energy_monotone"),
    ("align_rate", 2, -1e-6, "rates_nonnegative"),
    ("ledger_residual", 4, 0.5, "ledger_residual"),
    ("fs_residual", 6, -1.0, "fourier_splitting"),
    ("b_inf", 7, 9.0, "momentum_field_sup"),
    ("R", 8, 9.0, "support_radius_bound"),
    ("momentum_x", 9, 1e-6, "momentum_constant"),
    ("tw_drag_cum", 10, -1.0, "weighted_drag_monotone"),
    ("E_fluid", 11, 0.0, "energy_equivalence"),
])
def test_verify_timeseries_flags_each_violation(column, row, value, name):
    data = good_table()
    data[column][row] = value
    if name == "energy_equivalence":
        data["alignment_gap"][row] = 0.0
    failed = {c.name for c in diagnostics.verify_timeseries(data)
              if not c.passed}
    assert name in failed


def test_verify_timeseries_single_row():
    checks = diagnostics.verify_timeseries(good_table(n=1))
    assert all(c.passed for c in checks)


def test_series_recorder_rows_and_resume():
    box = BoxSpec(d=2, L=2.0 * math.pi, N=16)
    state = two_particle_state(box)
    energies = diagnostics.energy(state)
    rec = diagnostics.SeriesRecorder(nu=1.0, c_sq=6.0)
    assert rec.record(state, energies) == []
    saved = json.loads(json.dumps(rec.state_dict()))
    state.t = 0.5
    assert rec.record(state, energies) == []
    row0, row1 = rec.finish()
    assert set(row0) == set(diagnostics.csv_columns(2))
    assert row0["t"] == 0.0
    assert row0["ledger_residual"] == 0.0
    assert row0["tw_drag_cum"] == 0.0
    assert row0["E_kinetic"] == pytest.approx(0.125)
    assert row0["R"] == pytest.approx(0.5)
    # constant rates: residual picks up t*(grad + drag + align/2)
    assert row1["ledger_residual"] == pytest.approx(0.5 * (0.25 + 0.25))
    assert row1["tw_drag_cum"] > 0.0

    other = diagnostics.SeriesRecorder.from_state_dict(saved)
    assert other.record(state, energies) == []
    row0_again, row1_again = other.finish()
    for row in (row0, row1, row0_again, row1_again):
        assert math.isnan(row.pop("fs_residual"))
    assert (row0_again, row1_again) == (row0, row1)


def test_series_recorder_builds_one_stencil(monkeypatch):
    # the deposit's stencil travels with the moments and serves the row
    box = BoxSpec(d=2, L=2.0 * math.pi, N=16)
    rng = np.random.Generator(np.random.PCG64(21))
    n = 40
    calls = []
    stencil = particles.cic_stencil

    def counted(*args, **kwargs):
        calls.append(args)
        return stencil(*args, **kwargs)

    monkeypatch.setattr(particles, "cic_stencil", counted)
    state = make_state(box, 0.3 * rng.standard_normal((2,) + box.shape),
                       X=rng.uniform(0.0, box.L, (n, 2)),
                       V=rng.standard_normal((n, 2)), w=np.full(n, 1.0 / n),
                       kernel=KernelSpec(kind="inverse_power", beta=2.0))
    row = one_row(state)
    assert len(calls) == 1
    # the same figures come out of the row's functional
    assert (row["grad_rate"], row["drag_rate"], row["align_rate"],
            row["alignment_gap"]) == row_terms(state)
    assert len(calls) == 1


def test_coupled_row_reads_the_velocity_at_the_particles_once(monkeypatch):
    # the drag rate and the alignment gap share one interpolation of u, the
    # one the state's moment record holds
    box = BoxSpec(d=2, L=2.0 * math.pi, N=16)
    rng = np.random.Generator(np.random.PCG64(23))
    n = 40
    calls = []
    read = particles.interpolate

    def counted(*args, **kwargs):
        calls.append(args)
        return read(*args, **kwargs)

    monkeypatch.setattr(particles, "interpolate", counted)
    state = make_state(box, 0.3 * rng.standard_normal((2,) + box.shape),
                       X=rng.uniform(0.0, box.L, (n, 2)),
                       V=rng.standard_normal((n, 2)), w=np.full(n, 1.0 / n),
                       kernel=KernelSpec(kind="inverse_power", beta=2.0))
    one_row(state)
    assert sum(args[0] is state.moments.u for args in calls) == 1


def test_row_deposits_and_convolves_nothing(monkeypatch):
    # the rates are inner products of the state's own moments, and the
    # samples and particle reads are those its moment record holds
    box = BoxSpec(d=2, L=2.0 * math.pi, N=16)
    rng = np.random.Generator(np.random.PCG64(24))
    n = 40
    state = make_state(box, 0.3 * rng.standard_normal((2,) + box.shape),
                       X=rng.uniform(0.0, box.L, (n, 2)),
                       V=rng.standard_normal((n, 2)), w=np.full(n, 1.0 / n),
                       kernel=KernelSpec(kind="inverse_power", beta=2.0))
    calls = {}
    for module, name in ((particles, "_deposit"), (particles, "_smoothed"),
                         (particles, "cic_stencil"),
                         (particles, "interpolate"), (fluid, "block_values")):
        def counted(*args, _name=name, _original=getattr(module, name),
                    **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        calls[name] = 0
        monkeypatch.setattr(module, name, counted)
    rec = diagnostics.SeriesRecorder(nu=1.0, c_sq=6.0)
    rec.record(state, diagnostics.energy(state))
    assert calls == {"_deposit": 0, "_smoothed": 0, "cic_stencil": 0,
                     "interpolate": 0, "block_values": 0}


@pytest.mark.parametrize("kernel", [KernelSpec(kind="constant"),
                                    KernelSpec(kind="inverse_power", beta=2.0)],
                         ids=["constant", "inverse_power"])
@pytest.mark.parametrize("d, N", [(2, 16), (3, 8)], ids=["2d", "3d"])
def test_rates_match_the_particle_read_reference(d, N, kernel):
    # the reference reads |u|^2 at the particles and deposits and smooths
    # the speed-squared density e; with a symmetric sampled kernel the
    # adjoint pair turns both rates into grid inner products of the moments
    box = BoxSpec(d=d, L=2.0 * math.pi, N=N)
    rng = np.random.Generator(np.random.PCG64(22))
    n = 60
    state = make_state(box, 0.3 * rng.standard_normal((d,) + box.shape),
                       X=rng.uniform(0.0, box.L, (n, d)),
                       V=rng.standard_normal((n, d)),
                       w=rng.uniform(0.5, 1.5, n) / n, kernel=kernel)
    m, ens = state.moments, state.ens
    u = state.u.values()
    vsq = np.sum(ens.V * ens.V, axis=1)
    flat, wts = m.stencil
    contrib = wts * (ens.w * vsq)[:, None]
    e = np.bincount(flat.ravel(), weights=contrib.ravel(),
                    minlength=box.N**d).reshape(box.shape) / box.dx**d
    c_e = np.fft.irfftn(box.volume * particles.kernel_hat(kernel, box)
                        * np.fft.rfftn(e, norm="forward"),
                        s=box.shape, axes=tuple(range(d)), norm="forward")

    def read(field):
        return particles.interpolate(field, ens.X, box, m.stencil)

    u_at, b_at = read(u).T, read(m.b).T
    drag = np.sum(ens.w * (read(np.sum(u * u, axis=0))
                           - 2.0 * np.sum(u_at * ens.V, axis=1) + vsq))
    align = np.sum(ens.w * (read(m.a) * vsq
                            - 2.0 * np.sum(b_at * ens.V, axis=1) + read(c_e)))
    _, drag_rate, align_rate, _ = row_terms(state)
    assert drag_rate == pytest.approx(drag, rel=1e-14, abs=0.0)
    assert align_rate == pytest.approx(align, rel=1e-14, abs=0.0)


def test_particle_free_row_reads_zero_density():
    box = BoxSpec(d=2, L=2.0 * math.pi, N=16)
    u, _, _ = oracle.taylor_green(box)
    vf = fluid.VelocityField(box, fluid.to_block(fluid.forward_transform(u, box), box))
    state = SimpleNamespace(t=0.0, u=vf,
                            ens=particles.ParticleEnsemble(
                                np.zeros((0, 2)), np.zeros((0, 2)),
                                np.zeros(0)),
                            moments=None)
    row = one_row(state)
    for name in ("rho_l1", "rho_l2", "rho_linf", "b_inf", "drag_rate",
                 "align_rate", "alignment_gap"):
        assert math.copysign(1.0, row[name]) == 1.0 and row[name] == 0.0
