"""Coupled stepper and run orchestration checks."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from csns import (diagnostics, driver, fluid, initial, io, oracle, particles,
                  presets)
from csns.domain import (BoxSpec, ConfigError, InitSpec, KernelSpec,
                         OutputSpec, SimConfig, validate_config)
from conftest import half_spectrum_tables

BOX2 = BoxSpec(d=2, L=2.0 * math.pi, N=16)


def coupled_config(outdir, **overrides):
    base = dict(
        box=BOX2, dt=1e-3, t_end=0.05,
        kernel=KernelSpec(kind="inverse_power", beta=2.0),
        particle_count=40,
        init_profile=InitSpec(fluid="broadband",
                              fluid_params={"xi_cut": 2.5, "u_rms": 0.3},
                              particles="gaussian"),
        seed=3,
        output=OutputSpec(dir=str(outdir), series="series.csv",
                          series_every_steps=4))
    base.update(overrides)
    return SimConfig(**base)


def random_coupled_state(cfg):
    state = driver.initial_state(cfg)
    driver.ensure_moments(state, cfg.kernel, cfg.box)
    return state


def test_initial_state_is_seeded(tmp_path):
    cfg = coupled_config(tmp_path)
    s1 = driver.initial_state(cfg)
    s2 = driver.initial_state(cfg)
    assert np.array_equal(s1.u.c, s2.u.c)
    assert np.array_equal(s1.ens.X, s2.ens.X)
    s3 = driver.initial_state(coupled_config(tmp_path, seed=4))
    assert not np.array_equal(s3.ens.X, s1.ens.X)


def test_flocked_state_is_a_fixed_point(tmp_path):
    vel = [0.4, -0.1]
    cfg = coupled_config(
        tmp_path, particle_count=30,
        kernel=KernelSpec(kind="inverse_power", beta=2.0),
        init_profile=InitSpec(fluid="uniform",
                              fluid_params={"velocity": vel},
                              particles="flocked",
                              particle_params={"velocity": vel}))
    state = driver.initial_state(cfg)
    e0 = diagnostics.energy(state)[0]
    for _ in range(20):
        state = driver.coupled_step(state, cfg, cfg.dt)
    assert np.max(np.abs(state.ens.V - np.asarray(vel))) < 1e-12
    u = state.u.values()
    assert np.max(np.abs(u[0] - vel[0])) < 1e-12
    assert np.max(np.abs(u[1] - vel[1])) < 1e-12
    assert diagnostics.energy(state)[0] == pytest.approx(e0, abs=1e-12)


def test_no_particles_matches_pure_fluid_stepper(tmp_path):
    cfg = coupled_config(tmp_path, particle_count=0)
    state = driver.initial_state(cfg)
    c_ref = state.u.block.copy()
    for _ in range(10):
        c_ref = fluid.ns_step(c_ref, cfg.box, cfg.viscosity, cfg.dt)
    for _ in range(10):
        state = driver.coupled_step(state, cfg, cfg.dt)
    assert np.array_equal(state.u.block, c_ref)


def counting(monkeypatch, module, name):
    """Calls to module.name, recorded as argument tuples."""
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_particle_free_steps_deposit_nothing(tmp_path, monkeypatch):
    cfg = coupled_config(tmp_path, particle_count=0)
    state = driver.initial_state(cfg)
    calls = counting(monkeypatch, particles, "deposit_moments")
    for _ in range(10):
        state = driver.coupled_step(state, cfg, cfg.dt)
    assert calls == []


@pytest.mark.parametrize("particle_count, series_every, adaptive, calls", [
    (50, 1, False, (101, 303, 101, 101)),
    (50, 25, True, (101, 303, 101, 101)),
    (0, 1, False, (51, 0, 0, 0)),
], ids=["row_every_step", "adaptive", "fluid_only"])
def test_a_state_is_read_once(tmp_path, monkeypatch, particle_count,
                              series_every, adaptive, calls):
    # the row, the adaptive dt and the next predictor of a state share the
    # samples and particle reads of its moment record: per step, the
    # predictor's state and the corrector's are each sampled and read once
    # (3.02, 3.06 and 8.04 calls per step when each remade them)
    cfg = validate_config(dataclasses.replace(
        presets.coupled(tmp_path, N=16, particle_count=particle_count,
                        t_end=0.05, series_every=series_every),
        adaptive=adaptive))
    counted = [counting(monkeypatch, module, name) for module, name in (
        (fluid, "block_values"), (particles, "interpolate"),
        (particles, "deposit_moments"), (particles, "cic_stencil"))]
    assert driver.run(cfg).n_steps == 50
    assert tuple(map(len, counted)) == calls


def test_particle_free_run_deposits_nothing(tmp_path, monkeypatch):
    cfg = coupled_config(
        tmp_path, particle_count=0, t_end=0.005,
        output=OutputSpec(dir=str(tmp_path), series="series.csv",
                          series_every_steps=1))
    calls = counting(monkeypatch, particles, "deposit_moments")
    res = driver.run(cfg)
    assert calls == []
    data = io.read_timeseries(res.series_path)
    assert data.size == 6
    for name in ("rho_l1", "rho_l2", "rho_linf", "b_inf"):
        assert np.all(data[name] == 0.0)


def test_run_builds_one_stencil_per_set_of_positions(tmp_path, monkeypatch):
    # each step builds the stencil of its start and of its predicted
    # positions; a series row and a snapshot reuse the step's
    steps = 6
    cfg = coupled_config(
        tmp_path, t_end=steps * 1e-3,
        output=OutputSpec(dir=str(tmp_path), series="series.csv",
                          series_every_steps=1, snapshot_every_steps=1))
    calls = counting(monkeypatch, particles, "cic_stencil")
    res = driver.run(cfg)
    assert res.n_steps == steps
    assert len(calls) == 1 + 2 * steps
    assert len({c[0].tobytes() for c in calls}) == len(calls)


def test_run_computes_the_energy_once_per_step(tmp_path, monkeypatch):
    # a row step's series row takes the energy of the step's nonfinite
    # check; the start computes it once for the first row and the first rise
    steps = 6
    cfg = coupled_config(
        tmp_path, t_end=steps * 1e-3,
        output=OutputSpec(dir=str(tmp_path), series="series.csv",
                          series_every_steps=2))
    calls = counting(monkeypatch, diagnostics, "energy")
    res = driver.run(cfg)
    assert res.n_steps == steps
    assert len(calls) == 1 + steps
    data = io.read_timeseries(res.series_path)
    assert data.size == 1 + steps // 2
    assert float(data["E"][-1]) == diagnostics.energy(res.state)[0]


def test_stage_deposits_rho_and_j_only(tmp_path, monkeypatch):
    cfg = coupled_config(tmp_path)
    state = driver.initial_state(cfg)
    fresh = driver.SimState(state.t, state.step_index, state.u, state.ens)
    channels = counting(monkeypatch, particles, "_deposit")
    driver._stage(cfg, fresh)
    assert len(channels) == cfg.box.d + 1
    assert "e" not in vars(fresh.moments)


def advance_copy(state, cfg, dt, steps):
    cur = driver.SimState(state.t, state.step_index, state.u,
                          particles.ParticleEnsemble(state.ens.X.copy(),
                                                     state.ens.V.copy(),
                                                     state.ens.w),
                          None)
    for _ in range(steps):
        cur = driver.coupled_step(cur, cfg, dt)
    return cur


def coupled_difference(a, b):
    return (np.max(np.abs(a.u.c - b.u.c))
            + np.max(np.abs(a.ens.V - b.ens.V))
            + np.max(np.abs(a.ens.X - b.ens.X)))


def test_coupled_step_is_second_order(tmp_path):
    cfg = coupled_config(tmp_path, particle_count=60, seed=9)
    state = driver.initial_state(cfg)
    dt = 4e-3
    coarse = advance_copy(state, cfg, dt, 8)
    mid = advance_copy(state, cfg, dt / 2, 16)
    fine = advance_copy(state, cfg, dt / 4, 32)
    order = math.log2(coupled_difference(coarse, mid)
                      / coupled_difference(mid, fine))
    assert order == pytest.approx(2.0, abs=0.2)


def test_total_momentum_conserved_through_coupling(tmp_path):
    cfg = coupled_config(tmp_path, particle_count=80, seed=5)
    state = driver.initial_state(cfg)
    p0 = diagnostics.total_momentum(state)
    for _ in range(50):
        state = driver.coupled_step(state, cfg, cfg.dt)
    drift = np.max(np.abs(diagnostics.total_momentum(state) - p0))
    assert drift < 1e-13


def test_small_amplitude_flow_follows_heat_decay(tmp_path):
    cfg = coupled_config(
        tmp_path, particle_count=0, viscosity=1.0,
        init_profile=InitSpec(fluid="broadband",
                              fluid_params={"xi_cut": 3.5, "u_rms": 1e-9}))
    state = driver.initial_state(cfg)
    c0 = state.u.c.copy()
    steps = 50
    for _ in range(steps):
        state = driver.coupled_step(state, cfg, cfg.dt)
    ref, _ = oracle.heat_decay_reference(c0, cfg.box, steps * cfg.dt,
                                         cfg.viscosity)
    xi_sq = half_spectrum_tables(cfg.box).xi_sq
    exact = c0 * np.exp(-cfg.viscosity * xi_sq * steps * cfg.dt)
    err = np.max(np.abs(state.u.c - exact)) / np.max(np.abs(c0))
    assert err < 1e-7


def test_initial_state_builds_no_whole_spectrum_table(tmp_path):
    # with the tables cached, set-up holds the noise, its transform and the
    # block state: a field projected and normalised on the whole half
    # spectrum, with its tables, peaked at 4.3 half spectra
    cfg = presets.decay3d(tmp_path)
    cfg = validate_config(dataclasses.replace(
        cfg, box=dataclasses.replace(cfg.box, N=32)))
    driver.initial_state(cfg)
    tracemalloc.start()
    try:
        driver.initial_state(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    half_spectrum = 16 * 3 * math.prod(cfg.box.spectral_shape)
    assert peak <= 3.5 * half_spectrum, peak / half_spectrum


def test_adaptive_dt_value():
    u = np.zeros((2,) + BOX2.shape)
    u[0] = 2.0
    state = driver.SimState(
        0.0, 0, fluid.VelocityField(BOX2, fluid.to_block(fluid.forward_transform(u, BOX2), BOX2)),
        particles.ParticleEnsemble(np.zeros((0, 2)), np.zeros((0, 2)),
                                   np.zeros(0)))
    got = driver.adaptive_dt(state, 0.5, BOX2)
    assert got == pytest.approx(0.5 * BOX2.dx / 2.0)
    state.u = fluid.VelocityField(BOX2, np.zeros(
        (2,) + fluid.retained_block(BOX2).shape, dtype=complex))
    assert driver.adaptive_dt(state, 0.5, BOX2) == pytest.approx(0.5)


def test_run_zero_time_emits_initial_row(tmp_path):
    cfg = coupled_config(tmp_path, t_end=0.0)
    res = driver.run(cfg)
    data = io.read_timeseries(res.series_path)
    assert data.shape == (1,)
    assert data["t"][0] == 0.0
    assert res.n_steps == 0


def test_run_emits_final_row_off_cadence(tmp_path):
    cfg = coupled_config(tmp_path, t_end=0.013,
                         output=OutputSpec(dir=str(tmp_path),
                                           series="series.csv",
                                           series_every_steps=5))
    res = driver.run(cfg)
    data = io.read_timeseries(res.series_path)
    assert data["t"].tolist() == pytest.approx([0.0, 0.005, 0.010, 0.013])


def test_run_adaptive_reaches_t_end(tmp_path):
    cfg = coupled_config(tmp_path, adaptive=True, t_end=0.02)
    res = driver.run(cfg)
    assert res.state.t == pytest.approx(0.02, abs=1e-12)
    data = io.read_timeseries(res.series_path)
    assert float(np.atleast_1d(data["t"])[-1]) == pytest.approx(0.02)


def test_run_writes_snapshots_and_checkpoints(tmp_path):
    cfg = coupled_config(tmp_path,
                         output=OutputSpec(dir=str(tmp_path),
                                           series="series.csv",
                                           series_every_steps=10,
                                           snapshot_every_steps=25,
                                           checkpoint_every_steps=25))
    res = driver.run(cfg)
    assert [p.name for p in res.snapshot_paths] == ["snapshot_00000025.csns",
                                                    "snapshot_00000050.csns"]
    snap = io.read_snapshot(res.snapshot_paths[0])
    assert snap["t"] == pytest.approx(0.025)
    assert snap["X"].shape == (40, 2)
    assert len(res.checkpoint_paths) == 2


def test_interrupted_resume_is_byte_identical(tmp_path, killed_run):
    full = coupled_config(tmp_path / "full")
    r_full = driver.run(full)
    split = coupled_config(tmp_path / "split")
    checkpoint, _ = killed_run(split, 23)
    r_resumed = driver.resume_run(checkpoint)
    assert (tmp_path / "full" / "series.csv").read_bytes() \
        == (tmp_path / "split" / "series.csv").read_bytes()
    assert np.array_equal(r_full.state.u.c, r_resumed.state.u.c)
    assert np.array_equal(r_full.state.ens.X, r_resumed.state.ens.X)
    assert np.array_equal(r_full.state.ens.V, r_resumed.state.ens.V)


def test_resume_from_stale_checkpoint_rewrites_tail(tmp_path):
    cfg = coupled_config(tmp_path, output=OutputSpec(
        dir=str(tmp_path), series="series.csv", series_every_steps=4,
        checkpoint_every_steps=20))
    r_full = driver.run(cfg)
    finished = (tmp_path / "series.csv").read_bytes()
    # the completed file has rows past the checkpoint; they must be dropped
    r_again = driver.resume_run(r_full.checkpoint_paths[0])
    assert (tmp_path / "series.csv").read_bytes() == finished
    assert np.array_equal(r_full.state.u.c, r_again.state.u.c)
    assert np.array_equal(r_full.state.ens.V, r_again.state.ens.V)


def test_blowup_raises_and_keeps_partial_series(tmp_path):
    cfg = coupled_config(
        tmp_path, dt=0.5, t_end=40.0, particle_count=0, viscosity=1e-4,
        init_profile=InitSpec(fluid="broadband",
                              fluid_params={"xi_cut": 4.5, "u_rms": 20.0}),
        output=OutputSpec(dir=str(tmp_path), series="series.csv",
                          series_every_steps=1))
    with np.errstate(all="ignore"), pytest.raises(
            driver.SimulationUnstable, match="nonfinite fluid energy") as exc:
        driver.run(cfg)
    assert (tmp_path / "series.csv").exists()
    err = exc.value
    assert err.quantity == "fluid energy"
    assert err.checkpoint is None and "no checkpoint written" in str(err)
    assert f"step {err.step};" in str(err)
    # the CFL number of the state before the failing step, from its velocity
    good = driver.initial_state(cfg)
    with np.errstate(all="ignore"):
        while good.step_index < err.step - 1:
            good = driver.coupled_step(good, cfg, cfg.dt)
    cfl = fluid.max_speed(good.u.values()) * cfg.dt / cfg.box.dx
    assert math.isfinite(cfl) and err.cfl == cfl
    assert f"CFL u_inf*dt/dx = {cfl:.3g}" in str(err)


def test_blowup_names_particle_energy_and_checkpoint(tmp_path, monkeypatch):
    cfg = coupled_config(tmp_path, output=OutputSpec(
        dir=str(tmp_path), series="series.csv", series_every_steps=1,
        checkpoint_every_steps=2))
    energy = diagnostics.energy

    def particles_blow_up_at_step_3(state):
        e, e_fluid, e_kin = energy(state)
        return (e, e_fluid, e_kin) if state.step_index < 3 \
            else (math.inf, e_fluid, math.inf)

    monkeypatch.setattr(diagnostics, "energy", particles_blow_up_at_step_3)
    with pytest.raises(driver.SimulationUnstable,
                       match="nonfinite particle energy") as exc:
        driver.run(cfg)
    assert exc.value.quantity == "particle energy"
    assert exc.value.step == 3
    assert exc.value.checkpoint == tmp_path / "checkpoint_00000002.npz"
    assert f"last checkpoint {exc.value.checkpoint}" in str(exc.value)


def test_run_series_passes_verification(tmp_path):
    cfg = coupled_config(tmp_path, t_end=0.1, particle_count=60)
    res = driver.run(cfg)
    checks = diagnostics.verify_timeseries(io.read_timeseries(res.series_path))
    assert all(c.passed for c in checks), \
        [(c.name, c.detail) for c in checks if not c.passed]
    assert res.max_energy_step_increase <= 1e-10


def test_weighted_drag_column_is_the_trapezoid_of_its_rows(tmp_path):
    # the recorder's running sum adds the same trapezoids in the same order
    res = driver.run(coupled_config(tmp_path, t_end=0.1))
    data = io.read_timeseries(res.series_path)
    t = data["t"]
    expected = diagnostics.cumulative_trapezoid(
        t, (1.0 + t) ** diagnostics.TW_EXPONENT * data["drag_rate"])
    assert expected[-1] > 0.0
    assert np.array_equal(data["tw_drag_cum"], expected)


def physical_energy(state):
    u = state.u.values()
    return 0.5 * float(np.sum(u * u)) * state.u.box.dx ** state.u.box.d


def test_coupled_energy_is_the_physical_energy(tmp_path):
    # the drag is dealiased and projected on the retained block, so the
    # velocity keeps Hermitian symmetry and Parseval's energy is the grid's
    cfg = coupled_config(tmp_path)
    state = driver.initial_state(cfg)
    for _ in range(50):
        state = driver.coupled_step(state, cfg, cfg.dt)
    e = fluid.kinetic_energy(state.u.block, cfg.box)
    assert abs(e - physical_energy(state)) <= 1e-14 * e


def test_coupled_run_from_off_block_data_passes_verification(tmp_path):
    # on 8^2 a cut of 3.5 reaches modes the 2/3 rule drops: validate_config
    # refuses it, and a state made without that check holds the part of
    # the ball on the retained block, and runs
    box = BoxSpec(d=2, L=2.0 * math.pi, N=8)
    cfg = coupled_config(
        tmp_path, box=box, particle_count=64, t_end=0.5,
        init_profile=InitSpec(fluid="broadband",
                              fluid_params={"xi_cut": 3.5, "u_rms": 0.3},
                              particles="gaussian"),
        output=OutputSpec(dir=str(tmp_path), series="series.csv",
                          series_every_steps=5))
    with pytest.raises(ConfigError, match="xi_cut"):
        validate_config(cfg)
    off = ~half_spectrum_tables(box).dealias
    fluid_seed = np.random.SeedSequence(cfg.seed).spawn(2)[0]
    assert initial.fluid_initial(cfg.init_profile, box, fluid_seed).shape \
        == (2,) + fluid.retained_block(box).shape
    assert not np.any(driver.initial_state(cfg).u.c[:, off])
    res = driver.run(cfg)
    checks = diagnostics.verify_timeseries(io.read_timeseries(res.series_path))
    assert all(c.passed for c in checks), \
        [(c.name, c.detail) for c in checks if not c.passed]
