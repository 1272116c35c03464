"""The named runs on which the paper's claims are checked.

Each function builds one validated SimConfig.  The scripts, the acceptance
tests and scripts/output_hashes.py take these runs from here and pass only
what they vary; the defaults are the full-length runs of the scripts.
"""

from .domain import (TWO_PI, BoxSpec, InitSpec, KernelSpec, OutputSpec,
                     SimConfig, validate_config)

# grid N, lattice count m per axis and dt of each refinement level; the
# lattice spacing refines faster than the grid because the deposit
# quadrature error scales with (spacing / cell)^2
REFINEMENT_LEVELS = {"coarse": (32, 32, 5e-3), "fine": (64, 128, 2.5e-3)}

_KERNEL = KernelSpec("inverse_power", beta=2.0)


def coupled(outdir, *, d=2, N=128, particle_count=10000, dt=1e-3,
            t_end=5.0, series_every=25, snapshot_every=0, checkpoint_every=0,
            seed=42):
    """The coupled demo flow: broadband fluid (u_rms 0.5, xi_cut 2.5) and
    Gaussian particles under the inverse-power kernel with beta = 2, in the
    box of side 2*pi with nu = 1."""
    return validate_config(SimConfig(
        box=BoxSpec(d, TWO_PI, N), dt=dt, t_end=t_end, kernel=_KERNEL,
        viscosity=1.0, particle_count=particle_count, r0=1.0,
        init_profile=InitSpec(
            fluid="broadband", fluid_params={"u_rms": 0.5, "xi_cut": 2.5},
            particles="gaussian", particle_params={}),
        seed=seed,
        output=OutputSpec(dir=str(outdir), series_every_steps=series_every,
                          snapshot_every_steps=snapshot_every,
                          checkpoint_every_steps=checkpoint_every)))


def decay3d(outdir, *, t_end=50.0, seed=5):
    """Fluid-only 3D decay on 64^3 in a box of side 100, large enough to
    hold an algebraic-decay window to t = 50: broadband u_rms 5e-3 and
    xi_cut 0.45, dt 0.1, a row every 10 steps."""
    return validate_config(SimConfig(
        box=BoxSpec(3, 100.0, 64), dt=0.1, t_end=t_end, viscosity=1.0,
        particle_count=0,
        init_profile=InitSpec(
            fluid="broadband", fluid_params={"u_rms": 5e-3, "xi_cut": 0.45}),
        seed=seed,
        output=OutputSpec(dir=str(outdir), series_every_steps=10)))


def refinement(outdir, level):
    """A lattice ensemble advected by a decaying Taylor-Green vortex
    (nu = 0.3) to t = 5, at one of REFINEMENT_LEVELS.

    Positions follow the divergence-free fluid map, so the continuum density
    norms are constant and their recorded drift is discretization error.
    """
    grid_n, m, dt = REFINEMENT_LEVELS[level]
    return validate_config(SimConfig(
        box=BoxSpec(2, TWO_PI, grid_n), dt=dt, t_end=5.0, kernel=_KERNEL,
        viscosity=0.3, particle_count=4 * m * m, r0=1.0,
        init_profile=InitSpec(
            fluid="taylor_green", fluid_params={"amplitude": 1.0},
            particles="lattice",
            particle_params={"m": m, "density_amp": 0.3}),
        seed=0,
        output=OutputSpec(dir=str(outdir), series_every_steps=100)))
