"""The named runs survive the JSON that `csns run` reads, and the
benchmark's own copies of them match."""

import json
from pathlib import Path

import pytest

from csns import io, presets

WORKLOAD = Path(__file__).resolve().parent.parent / "perfbench" / "workload.py"

PRESETS = {
    "coupled": presets.coupled,
    "coupled3d": lambda d: presets.coupled(
        d, d=3, N=16, particle_count=2000, t_end=0.05, series_every=5,
        snapshot_every=10, checkpoint_every=25, seed=7),
    "decay3d": presets.decay3d,
    "refinement_coarse": lambda d: presets.refinement(d, "coarse"),
    "refinement_fine": lambda d: presets.refinement(d, "fine"),
}


def load_workload():
    """perfbench/workload.py as a namespace, run from its source so that no
    bytecode is written beside it."""
    namespace = {"__name__": "perfbench_workload"}
    exec(compile(WORKLOAD.read_text(), str(WORKLOAD), "exec"), namespace)
    return namespace


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_round_trips_through_json(tmp_path, name):
    cfg = PRESETS[name](tmp_path)
    text = io.serialize_config(cfg)
    back = io.config_from_data(json.loads(text))
    assert back == cfg
    assert io.serialize_config(back) == text


@pytest.mark.parametrize("name", sorted(PRESETS))
def test_preset_reals_are_floats(tmp_path, name):
    # an int would serialize as 100, not 100.0, and so change the
    # config_json that every checkpoint carries
    cfg = PRESETS[name](tmp_path)
    for value in (cfg.box.L, cfg.dt, cfg.t_end, cfg.viscosity, cfg.r0,
                  cfg.cfl, cfg.kernel.beta,
                  *cfg.init_profile.fluid_params.values()):
        assert type(value) is float


@pytest.mark.parametrize("workload, preset", [
    ("coupled2d_config", lambda d: presets.coupled(d, t_end=0.05, seed=7)),
    ("fluid3d_config", lambda d: presets.decay3d(d, t_end=2.0, seed=7)),
])
def test_benchmark_workload_is_the_preset(tmp_path, workload, preset):
    cfg = io.config_from_data(load_workload()[workload](7, tmp_path))
    assert cfg == preset(tmp_path)
    assert io.serialize_config(cfg) == io.serialize_config(preset(tmp_path))

