"""Time integration of the coupled system.

One integrating-factor Heun step advances the fluid modes and the particle
characteristics together: the predictor stage sees the time-t drag force and
moment fields, the corrector stage the predicted ones, so the pair converges
at second order and reduces bit-for-bit to the pure fluid stepper when no
particles are present.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import diagnostics, fluid, initial, io, particles


class SimulationUnstable(RuntimeError):
    """A step left a nonfinite energy.

    quantity names it ("fluid energy", "particle energy" or both), step is
    the failing step, cfl the advective number u_inf dt / dx of the last
    good state with the dt it stepped with, and checkpoint the last one
    written (or None).
    """

    def __init__(self, message, quantity, step, cfl, checkpoint):
        super().__init__(message)
        self.quantity = quantity
        self.step = step
        self.cfl = cfl
        self.checkpoint = checkpoint


@dataclass(eq=False)
class SimState:
    t: float
    step_index: int
    u: fluid.VelocityField
    ens: particles.ParticleEnsemble
    moments: particles.MomentFields = None


def ensure_moments(state, kernel, box):
    """Fill the state's moment record if it is stale: the deposited and
    smoothed moments, the velocity samples and the particle reads, which
    the state's row, adaptive dt, snapshot and predictor share.  An empty
    ensemble deposits nothing and keeps moments None."""
    if state.moments is None and state.ens.n:
        m = particles.convolve_kernel(
            particles.deposit_moments(state.ens, box), kernel, box)
        state.moments = particles.read_fields(m, state.u.values(),
                                              state.ens.X, box)
    return state.moments


def _stage(cfg, state):
    """Right-hand side of the coupled system at one Heun stage.

    Returns the fluid rate g and the particle rates (rx, rv), or None for
    the particle rates of an empty ensemble, which deposits nothing.  The
    drag is dealiased and projected with the advection.  The velocity
    samples and particle reads of the state's moment record serve the drag,
    the particle rates and the right-hand side.
    """
    box, ens = cfg.box, state.ens
    if ens.n == 0:
        return fluid.nonlinear_term(state.u.block, box), None
    m = ensure_moments(state, cfg.kernel, box)
    h = particles.drag_field(m, m.u, box) if cfg.coupling_enabled else None
    return (fluid.nonlinear_term(state.u.block, box, h, m.u),
            particles.stage_rates(m, ens.V))


def _moved(ens, h, rx, rv, box):
    """The ensemble advanced by h along the rates (rx, rv), positions wrapped."""
    return particles.ParticleEnsemble(
        particles.wrap_positions(ens.X + h * rx, box), ens.V + h * rv, ens.w)


def coupled_step(state, cfg, dt):
    """Advance fluid and particles by one shared Heun step."""
    box = cfg.box
    t, k = state.t + dt, state.step_index + 1
    ens = state.ens
    g0, r0 = _stage(cfg, state)
    star = _moved(ens, dt, *r0, box) if ens.n else ens

    def g_of(c_star):
        return _stage(cfg, SimState(t, k, fluid.VelocityField(box, c_star),
                                    star))

    c1, r1 = fluid.if_heun(state.u.block, dt, cfg.viscosity, box, g0, g_of)
    if ens.n:
        ens = _moved(ens, 0.5 * dt, r0[0] + r1[0], r0[1] + r1[1], box)
    return SimState(t, k, fluid.VelocityField(box, c1), ens)


def adaptive_dt(state, cfl, box):
    """Advective CFL bound, capped at one."""
    u_inf = fluid.max_speed(diagnostics.velocity_samples(state))
    return cfl * min(box.dx / max(u_inf, 1e-12), 1.0)


def initial_state(cfg):
    """Sample the configured initial data, the fluid cut to the retained
    block; fluid and particles get independent streams spawned from the run
    seed."""
    fluid_seed, particle_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    c = initial.fluid_initial(cfg.init_profile, cfg.box, fluid_seed)
    ens = particles.sample_initial(cfg.init_profile, cfg.particle_count,
                                   cfg.r0, cfg.box, particle_seed)
    return SimState(0.0, 0, fluid.VelocityField(cfg.box, c), ens)


@dataclass(eq=False)
class RunResult:
    state: SimState
    series_path: Path
    snapshot_paths: list
    checkpoint_paths: list
    e0: float
    n_steps: int
    max_energy_step_increase: float


def run(cfg):
    """Integrate from the configured initial data to t_end.

    Writes the diagnostics series (and any snapshots/checkpoints) under the
    output directory.
    """
    outdir = Path(cfg.output.dir)
    outdir.mkdir(parents=True, exist_ok=True)
    state = initial_state(cfg)
    ensure_moments(state, cfg.kernel, cfg.box)
    rho_sup = float(np.max(state.moments.rho)) if state.ens.n else 0.0
    c_sq = 3.0 * (1.0 + rho_sup)
    recorder = diagnostics.SeriesRecorder(cfg.viscosity, c_sq)
    writer = io.TimeseriesWriter(outdir / cfg.output.series,
                                 diagnostics.csv_columns(cfg.box.d))
    energies = diagnostics.energy(state)
    for row in recorder.record(state, energies):
        writer.add_row(row)
    return _advance(cfg, state, recorder, writer, energies[0])


def resume_run(checkpoint_path):
    """Continue a checkpointed run; the finished series is byte-identical
    to the one the run would have produced had it never stopped.

    A checkpoint that does not decode whole raises io.BadCheckpoint before
    the series is touched.
    """
    saved = io.read_checkpoint(checkpoint_path)
    cfg = saved["cfg"]
    try:
        recorder = diagnostics.SeriesRecorder.from_state_dict(
            saved["recorder_state"])
    except (KeyError, TypeError, ValueError) as exc:
        raise io.BadCheckpoint(f"{checkpoint_path}: unreadable recorder state "
                               f"({type(exc).__name__}: {exc})") from exc
    state = SimState(saved["t"], saved["step_index"],
                     fluid.VelocityField(cfg.box, saved["c"]),
                     particles.ParticleEnsemble(saved["X"], saved["V"],
                                                saved["w"]))
    writer = io.TimeseriesWriter.restore(
        Path(cfg.output.dir) / cfg.output.series,
        diagnostics.csv_columns(cfg.box.d), saved["n_written"])
    return _advance(cfg, state, recorder, writer,
                    diagnostics.energy(state)[0])


def _unstable(state, good, dt, box, e_fluid, e_kin, series, checkpoints):
    """The SimulationUnstable for a step from the state good to state."""
    quantity = " and ".join(name for name, e in (("fluid energy", e_fluid),
                                                 ("particle energy", e_kin))
                            if not np.isfinite(e))
    cfl = fluid.max_speed(diagnostics.velocity_samples(good)) * dt / box.dx
    checkpoint = checkpoints[-1] if checkpoints else None
    where = f"; last checkpoint {checkpoint}" if checkpoint else \
        "; no checkpoint written"
    return SimulationUnstable(
        f"nonfinite {quantity} at t = {state.t:.6g}, step "
        f"{state.step_index}; the last good state (step {good.step_index}) "
        f"stepped with CFL u_inf*dt/dx = {cfl:.3g}; partial series kept at "
        f"{series}{where}", quantity, state.step_index, cfl, checkpoint)


def _advance(cfg, state, recorder, writer, prev_e):
    """Step from state to t_end; prev_e is the energy of state.  Each state
    stepped from or written is read once, into its moment record."""
    ensure_moments(state, cfg.kernel, cfg.box)
    outdir = Path(cfg.output.dir)
    out = cfg.output
    snapshots = []
    checkpoints = []
    e0 = recorder.ledger.e0
    max_rise = 0.0
    n_steps = 0
    t_tol = 1e-12 * max(1.0, abs(cfg.t_end))

    def due(every):
        return every > 0 and state.step_index % every == 0

    while state.t < cfg.t_end - t_tol:
        dt = cfg.dt
        if cfg.adaptive:
            dt = min(dt, adaptive_dt(state, cfg.cfl, cfg.box))
        dt = min(dt, cfg.t_end - state.t)
        good, state = state, coupled_step(state, cfg, dt)
        n_steps += 1

        energies = e_now, e_fluid, e_kin = diagnostics.energy(state)
        if not np.isfinite(e_now):
            writer.close()
            raise _unstable(state, good, dt, cfg.box, e_fluid, e_kin,
                            writer.path, checkpoints)
        del good
        ensure_moments(state, cfg.kernel, cfg.box)
        max_rise = max(max_rise, e_now - prev_e)
        prev_e = e_now

        if due(out.series_every_steps) or state.t >= cfg.t_end - t_tol:
            for row in recorder.record(state, energies):
                writer.add_row(row)
        if due(out.snapshot_every_steps):
            path = outdir / f"snapshot_{state.step_index:08d}.csns"
            io.write_snapshot(path, cfg.box, state.t,
                              diagnostics.velocity_samples(state),
                              state.ens.X, state.ens.V, state.ens.w)
            snapshots.append(path)
        if due(out.checkpoint_every_steps):
            path = outdir / f"checkpoint_{state.step_index:08d}.npz"
            io.write_checkpoint(path, cfg, state, recorder.state_dict(),
                                writer.n_written)
            checkpoints.append(path)

    for row in recorder.finish():
        writer.add_row(row)
    writer.close()
    return RunResult(state, writer.path, snapshots, checkpoints,
                     e0, n_steps, max_rise)
