"""Round trips and failure paths for configs, the series writer, snapshots,
and checkpoints."""

import copy
import dataclasses
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from csns import diagnostics, driver, fluid, io, oracle, particles
from csns.domain import (BoxSpec, ConfigError, InitSpec, KernelSpec,
                         OutputSpec, SimConfig)
from conftest import half_spectrum_tables


def sample_config(outdir="out"):
    return SimConfig(
        box=BoxSpec(d=2, L=2.0 * math.pi, N=32),
        dt=1e-3, t_end=0.5,
        kernel=KernelSpec(kind="inverse_power", beta=2.0),
        viscosity=0.7, particle_count=100, r0=1.5,
        init_profile=InitSpec(fluid="broadband",
                              fluid_params={"xi_cut": 2.5, "u_rms": 0.4},
                              particles="gaussian"),
        cfl=0.4, seed=11,
        output=OutputSpec(dir=outdir, series="series.csv",
                          series_every_steps=5))


def test_config_round_trip():
    cfg = sample_config()
    back = io.config_from_data(json.loads(io.serialize_config(cfg)))
    assert back == cfg


def test_parse_config_file(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(io.serialize_config(sample_config()))
    assert io.parse_config(path) == sample_config()


def test_minimal_config_gets_defaults():
    cfg = io.config_from_data({
        "box": {"d": 2, "L": 2.0 * math.pi, "N": 16},
        "dt": 1e-3, "t_end": 1.0})
    assert cfg.viscosity == 1.0
    assert cfg.cfl == 0.5
    assert cfg.kernel.kind == "constant"
    assert cfg.output.series == "series.csv"


def test_config_accepts_retired_determinism_mode():
    # determinism_mode was a no-op flag; configs and checkpoints written
    # before its removal still load
    data = json.loads(io.serialize_config(sample_config()))
    data["determinism_mode"] = True
    assert io.config_from_data(data) == sample_config()


def test_config_accepts_retired_unit_cap():
    # kernel.cap could only be 1; configs and checkpoints written before its
    # removal carry "cap": 1.0, which loads and is not written back
    data = json.loads(io.serialize_config(sample_config()))
    data["kernel"]["cap"] = 1.0
    cfg = io.config_from_data(data)
    assert cfg == sample_config()
    assert "cap" not in json.loads(io.serialize_config(cfg))["kernel"]
    assert data["kernel"]["cap"] == 1.0


def test_unknown_top_level_key_is_named():
    data = {"box": {"d": 2, "L": 2.0 * math.pi, "N": 16},
            "dt": 1e-3, "t_end": 1.0, "visocity": 0.5}
    with pytest.raises(ConfigError) as err:
        io.config_from_data(data)
    assert ("visocity", "unknown key") in err.value.errors


def test_unknown_nested_keys_all_reported():
    data = {"box": {"d": 2, "L": 2.0 * math.pi, "N": 16, "M": 4},
            "dt": 1e-3, "t_end": 1.0,
            "output": {"dir": "out", "serie": "x.csv"}}
    with pytest.raises(ConfigError) as err:
        io.config_from_data(data)
    paths = [p for p, _ in err.value.errors]
    assert "box.M" in paths and "output.serie" in paths


def test_config_rejects_non_table():
    with pytest.raises(ConfigError, match="top level"):
        io.config_from_data([1, 2])
    with pytest.raises(ConfigError, match="expected a table"):
        io.config_from_data({"box": 3, "dt": 1e-3, "t_end": 1.0})


def test_parse_config_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="invalid JSON"):
        io.parse_config(path)


def test_config_validation_still_applies():
    data = {"box": {"d": 2, "L": 2.0 * math.pi, "N": 17},
            "dt": 1e-3, "t_end": 1.0}
    with pytest.raises(ConfigError, match="power of two"):
        io.config_from_data(data)


# Every leaf of a small coupled config and of its profile variants, set in
# turn to each of these values, must end in a ConfigError or in a run that
# starts: csns run must never meet a traceback or a hang on config input.
FUZZ_VALUES = ["x", "", True, None, [1, 2], {"a": 1}, math.nan, math.inf,
               -1, 0, 2.5]
FUZZ_BASE = {
    "box": {"d": 2, "L": 2.0 * math.pi, "N": 8},
    "dt": 1e-3, "t_end": 0.01, "viscosity": 1.0,
    "kernel": {"kind": "inverse_power", "beta": 2.0, "cap": 1.0},
    "particle_count": 8, "r0": 1.0, "cfl": 0.5, "adaptive": False,
    "seed": 3, "coupling_enabled": True,
    "init_profile": {
        "fluid": "broadband", "fluid_params": {"xi_cut": 2.0, "u_rms": 0.3},
        "particles": "gaussian",
        "particle_params": {"sigma_x": 0.5, "sigma_v": 0.3,
                            "center": [1.0, 2.0]}},
    "output": {"dir": "out", "series": "series.csv",
               "series_every_steps": 1, "snapshot_every_steps": 0,
               "checkpoint_every_steps": 0},
}
FUZZ_VARIANTS = {
    "coupled": {},
    "lattice": {"particle_count": 4, "init_profile": {
        "particles": "lattice",
        "particle_params": {"m": 1, "v0": 0.5, "density_amp": 0.3}}},
    "flocked": {"init_profile": {
        "particles": "flocked", "particle_params": {"velocity": [0.3, 0.4]}}},
    "uniform": {"init_profile": {
        "fluid": "uniform", "fluid_params": {"velocity": [0.1, -0.2]}}},
    "taylor_green": {"init_profile": {
        "fluid": "taylor_green", "fluid_params": {"amplitude": 0.5}}},
}


def fuzz_config(variant):
    data = copy.deepcopy(FUZZ_BASE)
    for key, value in FUZZ_VARIANTS[variant].items():
        if isinstance(value, dict):
            data[key].update(value)
        else:
            data[key] = value
    return data


def leaf_paths(table, prefix=()):
    for key, value in table.items():
        if isinstance(value, dict) and value:
            yield from leaf_paths(value, prefix + (key,))
        else:
            yield prefix + (key,)


def fuzz_cases(variant):
    """(path, value, data) for each leaf of the variant and fuzz value."""
    base = fuzz_config(variant)
    for path in leaf_paths(base):
        for value in FUZZ_VALUES:
            data = copy.deepcopy(base)
            table = data
            for key in path[:-1]:
                table = table[key]
            table[path[-1]] = copy.deepcopy(value)
            yield ".".join(path), value, data


@pytest.mark.parametrize("variant", sorted(FUZZ_VARIANTS))
def test_config_fuzz_fails_cleanly_or_starts(variant, tmp_path,
                                             monkeypatch):
    # an accepted config runs to t_end = 0: sampled, deposited, its first
    # row written under its output paths, and no step taken
    monkeypatch.chdir(tmp_path)
    faults = []
    for path, value, data in fuzz_cases(variant):
        try:
            cfg = io.config_from_data(data)
            driver.run(dataclasses.replace(cfg, t_end=0.0))
        except ConfigError:
            continue
        except Exception as exc:  # noqa: BLE001 - every fault is listed
            faults.append(f"{path} = {value!r}: {exc!r}")
    assert not faults, "\n".join(faults)


def particle_free_state(t):
    box = BoxSpec(d=2, L=2.0 * math.pi, N=8)
    u = oracle.taylor_green(box)[0]
    return SimpleNamespace(
        t=t, u=fluid.VelocityField(box, fluid.to_block(fluid.forward_transform(u, box), box)),
        ens=particles.ParticleEnsemble(np.zeros((0, 2)), np.zeros((0, 2)),
                                       np.zeros(0)),
        moments=None)


def record_rows(recorder, writer, ts, es):
    """Record a row at each time with energy E = e, and write those the
    recorder finishes."""
    for t, e in zip(ts, es):
        for row in recorder.record(particle_free_state(float(t)),
                                   (float(e), float(e), 0.0)):
            writer.add_row(row)


def finish_rows(recorder, writer):
    for row in recorder.finish():
        writer.add_row(row)
    writer.close()


def test_recorder_fills_fs_residual_with_correct_stencils(tmp_path):
    cols = diagnostics.csv_columns(2)
    path = tmp_path / "s.csv"
    rec = diagnostics.SeriesRecorder(nu=1.0, c_sq=6.0)
    w = io.TimeseriesWriter(path, cols)
    ts = [0.0, 0.1, 0.2, 0.3, 0.4]
    es = [math.exp(-t) for t in ts]
    record_rows(rec, w, ts, es)
    finish_rows(rec, w)
    data = io.read_timeseries(path)
    assert data.shape == (5,)
    for k in range(5):
        idx = [k - 1, k, k + 1]
        if k == 0:
            idx = [0, 1, 2]
        elif k == 4:
            idx = [2, 3, 4]
        dedt = diagnostics.lagrange_derivative(
            [ts[i] for i in idx], [es[i] for i in idx], ts[k])
        want = diagnostics.fs_residual(ts[k], es[k], dedt,
                                       data["lowfreq_energy"][k], 6.0)
        assert data["fs_residual"][k] == pytest.approx(want, rel=1e-12)


def test_recorder_short_series_pads_nan(tmp_path):
    cols = diagnostics.csv_columns(2)
    path = tmp_path / "short.csv"
    rec = diagnostics.SeriesRecorder(nu=1.0, c_sq=6.0)
    w = io.TimeseriesWriter(path, cols)
    record_rows(rec, w, [0.0, 0.1], [1.0, 0.9])
    finish_rows(rec, w)
    data = io.read_timeseries(path)
    assert np.all(np.isnan(data["fs_residual"]))
    assert data["t"].tolist() == [0.0, 0.1]


def test_writer_header_matches_columns(tmp_path):
    cols = diagnostics.csv_columns(3)
    path = tmp_path / "h.csv"
    io.TimeseriesWriter(path, cols).close()
    assert path.read_text() == ",".join(cols) + "\n"


def test_recorder_and_writer_close_restore_byte_identical(tmp_path):
    cols = diagnostics.csv_columns(2)
    ts = np.round(np.arange(10) * 0.1, 10)
    es = np.exp(-ts)

    full = tmp_path / "full.csv"
    rec = diagnostics.SeriesRecorder(nu=1.0, c_sq=6.0)
    w = io.TimeseriesWriter(full, cols)
    record_rows(rec, w, ts, es)
    finish_rows(rec, w)

    split = tmp_path / "split.csv"
    rec1 = diagnostics.SeriesRecorder(nu=1.0, c_sq=6.0)
    w1 = io.TimeseriesWriter(split, cols)
    record_rows(rec1, w1, ts[:6], es[:6])
    state = json.loads(json.dumps(rec1.state_dict()))
    w1.close()
    rec2 = diagnostics.SeriesRecorder.from_state_dict(state)
    w2 = io.TimeseriesWriter.restore(split, cols, w1.n_written)
    record_rows(rec2, w2, ts[6:], es[6:])
    finish_rows(rec2, w2)

    assert split.read_bytes() == full.read_bytes()


def test_snapshot_round_trip(tmp_path):
    box = BoxSpec(d=2, L=2.0 * math.pi, N=16)
    rng = np.random.Generator(np.random.PCG64(5))
    u = rng.standard_normal((2,) + box.shape)
    X = rng.uniform(0.0, box.L, (7, 2))
    V = rng.standard_normal((7, 2))
    w = rng.uniform(0.0, 1.0, 7)
    path = tmp_path / "state.csns"
    io.write_snapshot(path, box, 1.25, u, X, V, w)
    back = io.read_snapshot(path)
    assert back["box"] == box
    assert back["t"] == 1.25
    assert np.array_equal(back["u"], u)
    assert np.array_equal(back["X"], X)
    assert np.array_equal(back["V"], V)
    assert np.array_equal(back["w"], w)


def test_snapshot_no_particles(tmp_path):
    box = BoxSpec(d=3, L=1.0, N=8)
    u = np.zeros((3,) + box.shape)
    path = tmp_path / "empty.csns"
    io.write_snapshot(path, box, 0.0, u, np.zeros((0, 3)), np.zeros((0, 3)),
                      np.zeros(0))
    back = io.read_snapshot(path)
    assert back["X"].shape == (0, 3)
    assert back["u"].shape == (3, 8, 8, 8)


def test_snapshot_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.csns"
    path.write_bytes(b"NOPE" + bytes(100))
    with pytest.raises(io.BadSnapshot, match="magic"):
        io.read_snapshot(path)


def test_snapshot_rejects_truncation(tmp_path):
    box = BoxSpec(d=2, L=1.0, N=8)
    path = tmp_path / "trunc.csns"
    io.write_snapshot(path, box, 0.0, np.zeros((2,) + box.shape),
                      np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))
    path.write_bytes(path.read_bytes()[:30])
    with pytest.raises(io.BadSnapshot):
        io.read_snapshot(path)


def test_snapshot_rejects_partial_payload(tmp_path):
    box = BoxSpec(d=2, L=1.0, N=8)
    path = tmp_path / "cut.csns"
    io.write_snapshot(path, box, 0.0, np.zeros((2,) + box.shape),
                      np.zeros((3, 2)), np.zeros((3, 2)), np.ones(3))
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(io.BadSnapshot, match="8-byte"):
        io.read_snapshot(path)


def test_snapshot_rejects_non_utf8_field_name(tmp_path):
    box = BoxSpec(d=2, L=1.0, N=8)
    path = tmp_path / "name.csns"
    io.write_snapshot(path, box, 0.0, np.zeros((2,) + box.shape),
                      np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))
    raw = bytearray(path.read_bytes())
    raw[io._HEADER.size] = 0xff
    path.write_bytes(bytes(raw))
    with pytest.raises(io.BadSnapshot, match="UTF-8"):
        io.read_snapshot(path)


def test_snapshot_rejects_wrong_version(tmp_path):
    box = BoxSpec(d=2, L=1.0, N=8)
    path = tmp_path / "v9.csns"
    io.write_snapshot(path, box, 0.0, np.zeros((2,) + box.shape),
                      np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))
    raw = bytearray(path.read_bytes())
    raw[4:8] = (9).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(io.BadSnapshot, match="version"):
        io.read_snapshot(path)


def test_read_checkpoint_cuts_off_block_round_off(tmp_path):
    # a Taylor-Green field made by forward_transform holds round-off off
    # the retained block, as checkpoints written before the state lived on
    # the block stored it; the reader keeps the block alone
    cfg = dataclasses.replace(
        sample_config(outdir=str(tmp_path)), particle_count=0,
        init_profile=InitSpec(fluid="taylor_green"))
    box = cfg.box
    c = fluid.forward_transform(oracle.taylor_green(box)[0], box)
    off = ~half_spectrum_tables(box).dealias
    assert np.any(c[:, off] != 0)
    empty = np.zeros((0, 2))
    state = SimpleNamespace(t=0.0, step_index=0, u=SimpleNamespace(c=c),
                            ens=particles.ParticleEnsemble(empty, empty,
                                                           np.zeros(0)))
    rec_state = {"nu": 0.7, "c_sq": 3.0, "ledger": None, "tw_cum": 0.0,
                 "tw_last": None, "pending": [], "window": []}
    path = tmp_path / "ck.npz"
    io.write_checkpoint(path, cfg, state, rec_state, 0)
    back = io.read_checkpoint(path)["c"]
    assert back.tobytes() == fluid.to_block(c, box).tobytes()
    assert not np.any(fluid.from_block(back, box)[:, off])


def test_checkpoint_round_trip(tmp_path):
    cfg = sample_config(outdir=str(tmp_path))
    box = cfg.box
    rng = np.random.Generator(np.random.PCG64(2))
    c = rng.standard_normal((2,) + box.spectral_shape) \
        + 1j * rng.standard_normal((2,) + box.spectral_shape)
    n = cfg.particle_count
    ens = particles.ParticleEnsemble(rng.uniform(0, box.L, (n, 2)),
                                     rng.standard_normal((n, 2)),
                                     np.full(n, 1.0 / n))
    state = SimpleNamespace(t=0.75, step_index=750,
                            u=fluid.VelocityField(box, fluid.to_block(c, box)),
                            ens=ens)
    rec_state = {"nu": 0.7, "c_sq": 6.0, "ledger": None, "tw_cum": 0.0,
                 "tw_last": None, "pending": [], "window": [[0.0, 1.0]]}
    path = tmp_path / "ck.npz"
    io.write_checkpoint(path, cfg, state, rec_state, 3)
    back = io.read_checkpoint(path)
    assert back["cfg"] == cfg
    assert back["t"] == 0.75
    assert back["step_index"] == 750
    assert np.array_equal(back["c"], fluid.to_block(c, box))
    assert np.array_equal(back["X"], ens.X)
    assert back["recorder_state"] == rec_state
    assert back["n_written"] == 3


class FailingWrite(RuntimeError):
    pass


def test_snapshot_write_failing_midway_leaves_no_file(tmp_path, monkeypatch):
    box = BoxSpec(d=2, L=1.0, N=8)

    class HeaderThenFail:
        size = io._FIELD_ENTRY.size

        def pack(self, *args):
            raise FailingWrite("disk gone")

    monkeypatch.setattr(io, "_FIELD_ENTRY", HeaderThenFail())
    path = tmp_path / "snapshot_00000010.csns"
    with pytest.raises(FailingWrite):
        io.write_snapshot(path, box, 0.0, np.zeros((2,) + box.shape),
                          np.zeros((0, 2)), np.zeros((0, 2)), np.zeros(0))
    assert list(tmp_path.iterdir()) == []


def resting_state(cfg, step_index):
    """A state at rest that fits cfg: its grid and particle count."""
    box, n = cfg.box, cfg.particle_count
    return SimpleNamespace(
        t=1e-3 * step_index, step_index=step_index,
        u=fluid.VelocityField(box, np.zeros(
            (2,) + fluid.retained_block(box).shape, dtype=complex)),
        ens=particles.ParticleEnsemble(np.zeros((n, 2)), np.zeros((n, 2)),
                                       np.ones(n) / n))


def test_checkpoint_write_failing_midway_leaves_no_file(tmp_path,
                                                        monkeypatch):
    cfg = sample_config(outdir=str(tmp_path))
    state = resting_state(cfg, 500)
    path = tmp_path / "checkpoint_00000500.npz"
    io.write_checkpoint(path, cfg, state, {}, 0)
    good = path.read_bytes()

    def savez_fails_midway(fh, **arrays):
        fh.write(b"PK\x03\x04 a partial zip")
        raise FailingWrite("disk gone")

    monkeypatch.setattr(np, "savez", savez_fails_midway)
    with pytest.raises(FailingWrite):
        io.write_checkpoint(path, cfg, state, {}, 0)
    # the earlier checkpoint under the name is kept whole; no temp is left
    assert path.read_bytes() == good
    assert [p.name for p in tmp_path.iterdir()] == [path.name]
    fresh = tmp_path / "checkpoint_00000600.npz"
    with pytest.raises(FailingWrite):
        io.write_checkpoint(fresh, cfg, state, {}, 0)
    assert not fresh.exists()
    assert sorted(tmp_path.glob("checkpoint_*.npz")) == [path]


def test_checkpoint_keeps_its_name(tmp_path):
    cfg = sample_config(outdir=str(tmp_path))
    path = tmp_path / "ck"
    io.write_checkpoint(path, cfg, resting_state(cfg, 0), {}, 0)
    assert [p.name for p in tmp_path.iterdir()] == ["ck"]
    assert io.read_checkpoint(path)["step_index"] == 0


@pytest.mark.parametrize("content, reason", [
    (b"", "empty file"),
    (b"t,E\n", "no rows"),
    (b"t,E\n0.0,1.0\n\xff\xfe,2.0\n", "not UTF-8"),
    (b"t,E\n0.0,1.0\n0.1\n0.2,0.8\n", "got 1 columns instead of 2"),
], ids=["empty", "header_only", "non_utf8", "ragged"])
def test_read_timeseries_names_the_bad_file(tmp_path, content, reason):
    path = tmp_path / "bad.csv"
    path.write_bytes(content)
    with pytest.raises(io.BadSeries, match=reason) as exc:
        io.read_timeseries(path)
    assert str(path) in str(exc.value)


def test_read_timeseries_checks_columns(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("t,E\n0.0,1.0\n0.1,0.9\n")
    assert io.read_timeseries(path, ["t", "E"])["E"][1] == 0.9
    with pytest.raises(io.BadSeries, match="no column rho_l1"):
        io.read_timeseries(path, ["t", "E", "rho_l1"])
    # naming columns asks for nothing else: a last row without a newline
    # is read like any other
    path.write_text("t,E\n0.0,1.0\n0.1,0.9")
    assert io.read_timeseries(path)["E"][1] == 0.9
    assert io.read_timeseries(path, ["t", "E"])["E"][1] == 0.9


@pytest.mark.parametrize("kind", ["checkpoint", "snapshot", "series"])
def test_readers_fail_cleanly_on_cut_and_flipped_files(tmp_path, kind):
    # every probe returns or raises the reader's own error, which the CLI
    # reports with exit 1; a snapshot payload flip still parses (it has no
    # checksum), so what a probe returns is not checked
    # on 8^2 the 2/3 rule keeps |xi| <= 2, so the cut is 2
    cfg = dataclasses.replace(
        sample_config(), box=BoxSpec(d=2, L=2.0 * math.pi, N=8), t_end=0.004,
        particle_count=4,
        init_profile=InitSpec(fluid="broadband",
                              fluid_params={"xi_cut": 2.0, "u_rms": 0.4},
                              particles="gaussian"),
        output=OutputSpec(dir=str(tmp_path / "out"), series="series.csv",
                          series_every_steps=1, snapshot_every_steps=2,
                          checkpoint_every_steps=2))
    res = driver.run(cfg)
    path, read, bad = {
        "checkpoint": (res.checkpoint_paths[0], io.read_checkpoint,
                       io.BadCheckpoint),
        "snapshot": (res.snapshot_paths[0], io.read_snapshot, io.BadSnapshot),
        "series": (res.series_path, io.read_timeseries, io.BadSeries),
    }[kind]
    raw = path.read_bytes()
    rng = np.random.default_rng(11)
    probes = [raw[:cut] for cut in rng.integers(0, len(raw), 400)]
    for bit in rng.integers(0, 8 * len(raw), 400):
        flipped = bytearray(raw)
        flipped[bit // 8] ^= 1 << (bit % 8)
        probes.append(bytes(flipped))
    probe = tmp_path / "probe"
    failures = []
    for i, data in enumerate(probes):
        probe.write_bytes(data)
        try:
            read(probe)
        except bad:
            pass
        except Exception as exc:  # noqa: BLE001 - each one is a finding
            failures.append((i, repr(exc)))
    assert failures == []
