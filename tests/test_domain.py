import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from csns.domain import (
    BoxSpec,
    ConfigError,
    InitSpec,
    KernelSpec,
    OutputSpec,
    SimConfig,
    eval_phi,
    phi_slope_max,
    validate_config,
)
from csns.fluid import retained_block


def make_config(**overrides):
    base = dict(box=BoxSpec(2, 2 * math.pi, 32), dt=1e-3, t_end=0.1)
    base.update(overrides)
    return SimConfig(**base)


def test_box_derived_quantities():
    box = BoxSpec(3, 2.0, 16)
    assert box.dx == 0.125
    assert box.volume == 8.0
    assert box.shape == (16, 16, 16)
    assert box.spectral_shape == (16, 16, 9)


@pytest.mark.parametrize("kind, beta, r, expected", [
    ("constant", 0.0, 1.0, (1.0, 0.0)),
    ("constant", 0.0, 7.5, (1.0, 0.0)),
    ("inverse_power", 2.0, 1.0, (0.5, -0.5)),
    ("inverse_power", 2.0, 0.0, (1.0, 0.0)),
    ("inverse_power", 1.0, 1.0, (2 ** -0.5, -0.5 * 2 ** -0.5)),
])
def test_eval_phi_values(kind, beta, r, expected):
    phi, dphi = eval_phi(KernelSpec(kind, beta), r)
    assert phi == pytest.approx(expected[0], abs=1e-15)
    assert dphi == pytest.approx(expected[1], abs=1e-15)


def test_eval_phi_vectorized():
    phi, dphi = eval_phi(KernelSpec("inverse_power", 2.0), np.array([0.0, 1.0, 3.0]))
    assert phi == pytest.approx([1.0, 0.5, 0.1])
    assert dphi[0] == 0.0


@given(st.floats(0, 50), st.floats(0, 50), st.floats(0.1, 3.5))
def test_phi_nonincreasing_and_capped(r1, r2, beta):
    kernel = KernelSpec("inverse_power", beta)
    lo, hi = sorted([r1, r2])
    phi_lo, dphi_lo = eval_phi(kernel, lo)
    phi_hi, dphi_hi = eval_phi(kernel, hi)
    assert phi_hi <= phi_lo + 1e-15
    assert 0 < phi_lo <= 1.0
    assert max(abs(dphi_lo), abs(dphi_hi)) <= phi_slope_max(kernel) + 1e-12


def test_phi_slope_max_matches_grid_search():
    kernel = KernelSpec("inverse_power", 2.5)
    r = np.linspace(0, 10, 200001)
    _, dphi = eval_phi(kernel, r)
    assert phi_slope_max(kernel) == pytest.approx(np.max(np.abs(dphi)), rel=1e-8)


def test_validate_accepts_default():
    cfg = make_config()
    assert validate_config(cfg) is cfg


def test_validate_rejects_bad_grid_size():
    with pytest.raises(ConfigError, match="N must be even power of two"):
        validate_config(make_config(box=BoxSpec(2, 1.0, 48)))
    with pytest.raises(ConfigError):
        validate_config(make_config(box=BoxSpec(2, 1.0, 4)))


def test_validate_rejects_oversized_kernel():
    # steep inverse power breaks the slope cap
    with pytest.raises(ConfigError, match="slope"):
        validate_config(make_config(kernel=KernelSpec("inverse_power", 4.0)))
    validate_config(make_config(kernel=KernelSpec("inverse_power", 3.5)))


def test_validate_collects_all_errors():
    cfg = make_config(box=BoxSpec(5, -1.0, 17), dt=-1.0, cfl=2.0)
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    paths = {path for path, _ in err.value.errors}
    assert {"box.d", "box.N", "box.L", "dt", "cfl"} <= paths


def test_validate_reports_every_error_at_once():
    # bool is no count, and the taylor_green geometry is checked even when
    # earlier fields have failed
    cfg = make_config(
        box=BoxSpec(2, 1.0, True), dt=-1.0, seed=True, particle_count=True,
        init_profile=InitSpec(fluid="taylor_green", particles="lattice",
                              particle_params={"m": True}),
        output=OutputSpec(series_every_steps=True, snapshot_every_steps=True,
                          checkpoint_every_steps=True))
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert sorted(path for path, _ in err.value.errors) == sorted([
        "box.N", "dt", "particle_count", "seed", "init_profile.fluid",
        "init_profile.particle_params.m", "output.series_every_steps",
        "output.snapshot_every_steps", "output.checkpoint_every_steps"])


def test_validate_taylor_green_geometry():
    init = InitSpec(fluid="taylor_green", fluid_params={"amplitude": 1.0})
    validate_config(make_config(init_profile=init))
    with pytest.raises(ConfigError, match="taylor_green"):
        validate_config(make_config(box=BoxSpec(2, 1.0, 32), init_profile=init))


def test_validate_lattice_count():
    init = InitSpec(particles="lattice", particle_params={"m": 4, "v0": 0.5})
    validate_config(make_config(particle_count=2 * 2 * 16, init_profile=init))
    with pytest.raises(ConfigError, match="lattice"):
        validate_config(make_config(particle_count=100, init_profile=init))


@pytest.mark.parametrize("path, overrides", [
    ("init_profile.fluid_params.velocity", dict(init_profile=InitSpec(
        fluid="uniform", fluid_params={"velocity": ["0.1", "a"]}))),
    ("init_profile.particle_params.velocity", dict(init_profile=InitSpec(
        particles="flocked", particle_params={"velocity": ["a", 0.1]}))),
    ("init_profile.particle_params.velocity", dict(init_profile=InitSpec(
        particles="flocked", particle_params={"velocity": 0.1}))),
    ("init_profile.fluid_params", dict(init_profile=InitSpec(
        fluid="broadband", fluid_params=[2.0, 0.5]))),
    ("r0", dict(r0="1.0", init_profile=InitSpec(
        particles="lattice", particle_params={"m": 1}))),
    ("box.d", dict(box=BoxSpec("2", 2 * math.pi, 32), init_profile=InitSpec(
        particles="lattice", particle_params={"m": 1}))),
])
def test_validate_names_wrong_typed_values(path, overrides):
    with pytest.raises(ConfigError) as err:
        validate_config(make_config(particle_count=4, **overrides))
    assert path in {p for p, _ in err.value.errors}


def test_validate_unknown_profile_parameter():
    init = InitSpec(fluid="broadband", fluid_params={"xi_cut": 2.0, "u_rmss": 1.0})
    with pytest.raises(ConfigError, match="u_rmss"):
        validate_config(make_config(init_profile=init))


@pytest.mark.parametrize("particles, params, count, key", [
    # sample_initial redraws speeds above r0 until none is left: these hang
    ("gaussian", {"sigma_v": 1e6}, 8, "sigma_v"),
    ("gaussian", {"sigma_v": math.inf}, 8, "sigma_v"),
    # a one-node lattice at full amplitude has zero total weight
    ("lattice", {"m": 1, "density_amp": 1.0}, 4, "density_amp"),
])
def test_validate_rejects_particle_data_that_cannot_be_drawn(
        particles, params, count, key):
    init = InitSpec(particles=particles, particle_params=params)
    with pytest.raises(ConfigError) as err:
        validate_config(make_config(particle_count=count, init_profile=init))
    assert [p for p, _ in err.value.errors] == [
        f"init_profile.particle_params.{key}"]


@pytest.mark.parametrize("box, top", [
    (BoxSpec(2, 2 * math.pi, 8), 2.0), (BoxSpec(2, 2 * math.pi, 128), 42.0),
    (BoxSpec(3, 100.0, 64), 21 * 2 * math.pi / 100.0)],
    ids=["2d8", "2d128", "3d64"])
def test_validate_keeps_the_broadband_ball_on_the_retained_block(box, top):
    # the state holds only the modes with |k| <= N//3 on each axis: a cut
    # at that wavenumber keeps its ball there, a larger one is refused
    def broadband(cut):
        return make_config(box=box, init_profile=InitSpec(
            fluid="broadband", fluid_params={"xi_cut": cut, "u_rms": 0.3}))

    validate_config(broadband(top))
    with pytest.raises(ConfigError) as err:
        validate_config(broadband(top * (1 + 1e-9)))
    [(path, message)] = err.value.errors
    assert path == "init_profile.fluid_params.xi_cut"
    assert f"<= (N//3)*2*pi/L = {top:.6g}" in message


def test_validate_accepts_sigma_v_at_r0():
    init = InitSpec(particles="gaussian", particle_params={"sigma_v": 1.5})
    validate_config(make_config(particle_count=8, r0=1.5, init_profile=init))


def test_wavenumbers_tables():
    box = BoxSpec(2, 2 * math.pi, 8)
    block = retained_block(box)
    # on the 2*pi box the wavenumbers are the integer modes
    assert block.xi[0].ravel().tolist() == [0, 1, 2, -2, -1]
    assert block.xi[1].ravel().tolist() == [0, 1, 2]
    assert block.xi_sq.shape == block.shape == (5, 3)
    assert block.xi_sq[0, 0] == 0.0
    assert block.inv_xi_sq[0, 0] == 0.0
    assert block.xi_sq[1, 1] == pytest.approx(2.0)
    assert block.inv_xi_sq[1, 1] == pytest.approx(0.5)
    # conjugate-pair multiplicity: doubled away from column 0; the Nyquist
    # column, which stands alone, is not on the block
    assert block.parseval_weight.tolist() == [[1.0, 2.0, 2.0]]


def test_wavenumbers_scales_with_box_length():
    block = retained_block(BoxSpec(2, 4 * math.pi, 8))
    assert block.xi[0].ravel()[1] == pytest.approx(0.5)


def test_dealias_mask_cuts_high_modes():
    block = retained_block(BoxSpec(2, 2 * math.pi, 8))
    # keep |index| <= 2 on both axes for N = 8: rows 3, 4 and 5 (modes 3, 4
    # and -3) and columns 3 and 4 are cut
    assert block.rows.tolist() == [0, 1, 2, 6, 7]
    assert block.cols == 3
    assert [r.tolist() for r in np.broadcast_arrays(*block.index)] == [
        [[0] * 3, [1] * 3, [2] * 3, [6] * 3, [7] * 3], [[0, 1, 2]] * 5]


def test_wavenumbers_cached():
    assert retained_block(BoxSpec(2, 1.0, 8)) is \
        retained_block(BoxSpec(2, 1.0, 8))
