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
    full_order_indices,
    phi_slope_max,
    validate_config,
    wavenumbers,
)


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
    # constant kernel with phi = 2 breaks the unit cap
    with pytest.raises(ConfigError, match="cap"):
        validate_config(make_config(kernel=KernelSpec("constant", 0.0, cap=2.0)))
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


def test_full_order_indices():
    assert full_order_indices(4).tolist() == [0, 1, 2, -1]
    assert full_order_indices(8).tolist() == [0, 1, 2, 3, 4, -3, -2, -1]


@given(st.sampled_from([8, 16, 32, 64]))
def test_index_order_round_trips_through_fft(N):
    # the stated order must agree with numpy's own layout up to the Nyquist sign
    ours = full_order_indices(N)
    numpys = np.fft.fftfreq(N, d=1.0 / N)
    assert np.all((ours == numpys) | (np.abs(ours) == N // 2))


def test_wavenumbers_tables():
    box = BoxSpec(2, 2 * math.pi, 4)
    grid = wavenumbers(box)
    assert grid.axis_indices[0].tolist() == [0, 1, 2, -1]
    assert grid.axis_indices[1].tolist() == [0, 1, 2]
    assert grid.xi_sq.shape == (4, 3)
    assert grid.xi_sq[0, 0] == 0.0
    assert grid.inv_xi_sq[0, 0] == 0.0
    assert grid.xi_sq[1, 1] == pytest.approx(2.0)
    assert grid.inv_xi_sq[1, 1] == pytest.approx(0.5)
    # conjugate-pair multiplicity: doubled only away from column 0 and Nyquist
    assert grid.parseval_weight[0, 0] == 1.0
    assert grid.parseval_weight[0, 1] == 2.0
    assert grid.parseval_weight[0, 2] == 1.0


def test_wavenumbers_scales_with_box_length():
    grid = wavenumbers(BoxSpec(2, 4 * math.pi, 8))
    assert grid.axis_xi[0][1] == pytest.approx(0.5)


def test_dealias_mask_cuts_high_modes():
    grid = wavenumbers(BoxSpec(2, 2 * math.pi, 8))
    keep = grid.dealias
    # keep |index| <= 2 on both axes for N = 8
    assert keep[0, 0] and keep[2, 2] and keep[-2, 1]
    assert not keep[3, 0] and not keep[0, 3] and not keep[4, 2]


def test_wavenumbers_cached():
    assert wavenumbers(BoxSpec(2, 1.0, 8)) is wavenumbers(BoxSpec(2, 1.0, 8))
