"""End-to-end acceptance runs for the coupled solver.

Each test checks one numbered requirement at its stated tolerance; the long
runs are session fixtures shared between criteria; their configurations
come from csns.presets.  The whole file took 319 s on a 2-CPU host (numpy
2.4), most of it in the set-up of criteria 05, 01 and 02 and the call of
criterion 04.
"""

import math

import numpy as np
import pytest

from csns import diagnostics, domain, driver, fluid, initial, io, oracle, \
    particles, presets


@pytest.fixture(scope="session")
def run_coupled(tmp_path_factory):
    """Coupled 2D reference run: 128^2 grid, 10k particles, t = 5."""
    out = tmp_path_factory.mktemp("acc_coupled")
    cfg = presets.coupled(out)
    return cfg, driver.run(cfg)


@pytest.fixture(scope="session")
def run_coupled_fine(tmp_path_factory):
    """Same run with dt halved; the output cadence in steps is unchanged."""
    out = tmp_path_factory.mktemp("acc_coupled_fine")
    cfg = presets.coupled(out, dt=5e-4)
    return cfg, driver.run(cfg)


@pytest.fixture(scope="session")
def run_heat_limit(tmp_path_factory):
    """Fluid-only run at tiny amplitude, where the dynamics are linear."""
    out = tmp_path_factory.mktemp("acc_heat")
    cfg = domain.validate_config(domain.SimConfig(
        box=domain.BoxSpec(2, 2.0 * np.pi, 64), dt=1e-3, t_end=2.0,
        viscosity=1.0, particle_count=0,
        init_profile=domain.InitSpec(
            fluid="broadband", fluid_params={"u_rms": 1e-9, "xi_cut": 3.5}),
        seed=12,
        output=domain.OutputSpec(dir=str(out), series_every_steps=20)))
    return cfg, driver.run(cfg)


@pytest.fixture(scope="session")
def run_decay_3d(tmp_path_factory):
    """3D box large enough to hold an algebraic-decay window to t = 50."""
    out = tmp_path_factory.mktemp("acc_decay3d")
    cfg = presets.decay3d(out)
    return cfg, driver.run(cfg)


@pytest.fixture(scope="session")
def run_alignment(tmp_path_factory):
    """Coupled run to t = 10, long enough for the velocity gap to collapse."""
    out = tmp_path_factory.mktemp("acc_align")
    cfg = presets.coupled(out, N=64, particle_count=2000, t_end=10.0,
                          series_every=50, seed=3)
    return cfg, driver.run(cfg)


@pytest.fixture(scope="session")
def refinement_pair(tmp_path_factory):
    """The refinement study's two levels (see presets.refinement)."""
    runs = {}
    for tag in presets.REFINEMENT_LEVELS:
        cfg = presets.refinement(tmp_path_factory.mktemp(f"acc_rho_{tag}"),
                                 tag)
        runs[tag] = (cfg, driver.run(cfg))
    return runs


@pytest.fixture(scope="session")
def all_runs(run_coupled, run_coupled_fine, run_heat_limit, run_decay_3d,
             run_alignment, refinement_pair):
    return [
        ("coupled", run_coupled),
        ("coupled_fine", run_coupled_fine),
        ("heat_limit", run_heat_limit),
        ("decay_3d", run_decay_3d),
        ("alignment", run_alignment),
        ("refinement_coarse", refinement_pair["coarse"]),
        ("refinement_fine", refinement_pair["fine"]),
    ]


def test_criterion_01_mass_conservation(run_coupled_fine):
    cfg, res = run_coupled_fine
    assert res.n_steps == 10000
    w0 = driver.initial_state(cfg).ens.w
    assert np.array_equal(res.state.ens.w, w0)
    assert float(np.sum(res.state.ens.w)) == float(np.sum(w0))
    data = io.read_timeseries(res.series_path)
    spread = float(np.max(data["rho_l1"]) - np.min(data["rho_l1"]))
    assert spread <= 1e-13


def test_criterion_02_energy_ledger(run_coupled, run_coupled_fine):
    residuals = {}
    for tag, (cfg, res) in (("coarse", run_coupled),
                            ("fine", run_coupled_fine)):
        data = io.read_timeseries(res.series_path)
        residuals[tag] = float(np.max(np.abs(data["ledger_residual"])))
        if tag == "coarse":
            assert residuals[tag] <= 1e-2 * res.e0
    assert residuals["coarse"] / residuals["fine"] >= 3.0


def test_criterion_03_vortex_oracle():
    box = domain.BoxSpec(2, 2.0 * np.pi, 64)
    u0, _, _ = oracle.taylor_green(box)
    c = fluid.forward_transform(u0, box)
    dt = 1e-3
    worst = 0.0
    for k in range(1, 1001):
        c = fluid.ns_step(c, box, 1.0, dt)
        expect = oracle.taylor_green(box, t=k * dt)[2]
        worst = max(worst, abs(fluid.kinetic_energy(c, box) - expect)
                    / expect)
    assert worst <= 1e-6

    # temporal order, measured on perturbed data so the nonlinear term acts
    pert = initial.broadband_field(box, 3.5, 0.1, np.random.SeedSequence(17))
    c0 = fluid.forward_transform(u0, box) + pert
    finals = []
    for dt_k, steps in ((4e-3, 80), (2e-3, 160), (1e-3, 320)):
        c = c0.copy()
        for _ in range(steps):
            c = fluid.ns_step(c, box, 1.0, dt_k)
        finals.append(c)
    err_coarse = float(np.max(np.abs(finals[0] - finals[1])))
    err_fine = float(np.max(np.abs(finals[1] - finals[2])))
    order = math.log2(err_coarse / err_fine)
    assert order == pytest.approx(2.0, abs=0.2)


def test_criterion_04_kinetic_oracles():
    box = domain.BoxSpec(2, 2.0 * np.pi, 8)
    kernel = domain.KernelSpec("constant")
    u_zero = fluid.VelocityField.from_values(box, np.zeros((2, 8, 8)))

    def frozen_fluid_run(ens, dt, steps):
        # no back-reaction: the fluid stays at rest, only particles move
        cfg = domain.SimConfig(box=box, dt=dt, t_end=1.0, kernel=kernel,
                               particle_count=ens.n, coupling_enabled=False)
        state = driver.SimState(0.0, 0, u_zero, ens)
        for _ in range(steps):
            state = driver.coupled_step(state, cfg, dt)
        return state.ens

    V0 = np.array([[0.3, -0.4], [-0.2, 0.1]])
    ens = particles.ParticleEnsemble(
        np.array([[1.0, 2.0], [4.0, 2.5]]), V0.copy(),
        np.array([0.3, 0.7]))
    ens = frozen_fluid_run(ens, 1e-5, 100000)
    v1, v2 = oracle.two_particle_solution(0.3, 0.7, V0[0], V0[1], 1.0)
    assert np.max(np.abs(ens.V - np.stack([v1, v2]))) <= 1e-8

    init = domain.InitSpec(particles="uniform_ball")
    ens = particles.sample_initial(init, 512, 1.0, box,
                                   np.random.SeedSequence(9))
    ms0 = oracle.MomentState(float(np.sum(ens.w)), ens.w @ ens.V,
                             float(ens.w @ np.sum(ens.V**2, axis=1)))
    ens = frozen_fluid_run(ens, 1e-3, 2000)
    ref = oracle.moment_ode_solution(ms0, 2.0)
    m1 = ens.w @ ens.V
    m2 = float(ens.w @ np.sum(ens.V**2, axis=1))
    assert np.linalg.norm(m1 - ref.m1) / np.linalg.norm(ref.m1) <= 1e-4
    assert abs(m2 - ref.m2) / ref.m2 <= 1e-4


def test_criterion_05_monotone_energy(all_runs):
    for name, (cfg, res) in all_runs:
        assert res.max_energy_step_increase <= 1e-10, name


def test_criterion_06_fourier_splitting(run_heat_limit, run_coupled):
    for name, (cfg, res) in (("heat_limit", run_heat_limit),
                             ("coupled", run_coupled)):
        data = io.read_timeseries(res.series_path)
        fs = data["fs_residual"]
        ok = np.isfinite(fs)
        assert np.all(fs[ok] >= -1e-4 * data["E"][ok]), name


def test_criterion_07_decay_exponent(run_decay_3d):
    cfg, res = run_decay_3d
    data = io.read_timeseries(res.series_path)
    fit = diagnostics.fit_decay_exponent(data["t"], data["E"], 5.0, 50.0,
                                         box_length=cfg.box.L,
                                         nu=cfg.viscosity)
    assert not fit.warnings
    assert -1.8 <= fit.slope <= -1.2
    speed_fit = diagnostics.fit_decay_exponent(
        data["t"], np.sqrt(2.0 * data["E"]), 5.0, 50.0,
        box_length=cfg.box.L, nu=cfg.viscosity)
    assert -0.9 <= speed_fit.slope <= -0.6


def test_criterion_08_alignment_decay(run_alignment):
    cfg, res = run_alignment
    data = io.read_timeseries(res.series_path)
    gap = data["alignment_gap"]
    assert gap[-1] <= 1e-2 * gap[0]
    rises = np.nonzero(np.diff(gap) > 1e-12 * gap[0])[0]
    assert rises.size == 0 or rises[-1] < gap.size // 2


def test_criterion_09_apriori_bounds(all_runs):
    for name, (cfg, res) in all_runs:
        data = io.read_timeseries(res.series_path)
        r_margin, b_margin = diagnostics.r_bound_check(
            data["t"], data["R"], data["b_inf"], data["u_inf"],
            data["E_kinetic"])
        assert r_margin >= -1e-3, name
        assert b_margin >= -1e-10, name
        checks = {c.name: c for c in diagnostics.verify_timeseries(data)}
        assert checks["support_radius_bound"].passed, name
        assert checks["momentum_field_sup"].passed, name


def test_criterion_10_density_norm_invariance(refinement_pair):
    drifts = {}
    for tag, (cfg, res) in refinement_pair.items():
        data = io.read_timeseries(res.series_path)
        spread = float(np.max(data["rho_l1"]) - np.min(data["rho_l1"]))
        assert spread <= 1e-13, tag
        drifts[tag] = {col: float(np.max(np.abs(data[col] - data[col][0])))
                       for col in ("rho_l2", "rho_linf")}
    for col in ("rho_l2", "rho_linf"):
        assert drifts["coarse"][col] >= 2.0 * drifts["fine"][col], col


def test_criterion_11_determinism(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        cfg = presets.coupled(tmp_path / tag, N=64, particle_count=1000,
                              t_end=0.2, series_every=50, snapshot_every=100,
                              seed=77)
        res = driver.run(cfg)
        assert res.max_energy_step_increase <= 1e-10
        blobs = [res.series_path.read_bytes()]
        blobs += [p.read_bytes() for p in res.snapshot_paths]
        outputs.append(blobs)
    assert len(outputs[0]) == 3
    assert outputs[0] == outputs[1]
