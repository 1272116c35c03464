"""End-to-end checks of the command-line surface."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from csns import cli, driver, io
from csns.domain import BoxSpec, InitSpec, KernelSpec, OutputSpec, SimConfig


def write_config(tmp_path, **overrides):
    cfg = SimConfig(
        box=BoxSpec(d=2, L=2.0 * math.pi, N=16),
        dt=1e-3, t_end=0.02,
        kernel=KernelSpec(kind="inverse_power", beta=2.0),
        particle_count=30,
        init_profile=InitSpec(fluid="broadband",
                              fluid_params={"xi_cut": 2.5, "u_rms": 0.3},
                              particles="gaussian"),
        seed=3,
        output=OutputSpec(dir=str(tmp_path / "out"), series="series.csv",
                          series_every_steps=5))
    cfg = dataclasses.replace(cfg, **overrides)
    path = tmp_path / "run.json"
    path.write_text(io.serialize_config(cfg))
    return path, cfg


def test_run_and_verify_round_trip(tmp_path, capsys):
    config_path, cfg = write_config(tmp_path)
    assert cli.main(["run", str(config_path)]) == 0
    out = capsys.readouterr().out
    assert "finished t = 0.02 after 20 steps" in out
    series = tmp_path / "out" / "series.csv"
    assert series.exists()

    assert cli.main(["verify", str(series)]) == 0
    table = capsys.readouterr().out
    assert "mass_constant" in table
    assert "FAIL" not in table


def test_run_seed_and_output_dir_overrides(tmp_path):
    config_path, _ = write_config(tmp_path)
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert cli.main(["run", str(config_path), "--seed", "9",
                     "--output-dir", str(a)]) == 0
    assert cli.main(["run", str(config_path), "--seed", "10",
                     "--output-dir", str(b)]) == 0
    # configured directory stays untouched; different seeds give different data
    assert not (tmp_path / "out").exists()
    ea = io.read_timeseries(a / "series.csv")["E"]
    eb = io.read_timeseries(b / "series.csv")["E"]
    assert not np.array_equal(ea, eb)


def test_run_requires_config_or_resume(tmp_path, capsys):
    assert cli.main(["run"]) == 2
    assert "required" in capsys.readouterr().err


def test_run_rejects_config_plus_resume(tmp_path, capsys):
    config_path, _ = write_config(tmp_path)
    assert cli.main(["run", str(config_path), "--resume", "x.npz"]) == 2
    assert "not both" in capsys.readouterr().err


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "box": {"d": 2, "L": 2.0 * math.pi, "N": 17},
        "dt": 1e-3, "t_end": 1.0, "visocity": 0.5}))
    assert cli.main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "visocity" in err


WRONG_TYPED = [
    ("dt", "0.001"), ("t_end", "0.02"), ("viscosity", "1.0"), ("r0", "1.0"),
    ("box.L", "6.283185307179586"), ("kernel.beta", "2.0"), ("cfl", "0.5"),
    ("coupling_enabled", "false"), ("adaptive", "no"),
    ("init_profile.fluid_params.u_rms", True), ("particle_count", "30"),
]


def write_data_with(config_path, values):
    data = json.loads(config_path.read_text())
    for path, value in values:
        *parents, key = path.split(".")
        table = data
        for name in parents:
            table = table[name]
        table[key] = value
    config_path.write_text(json.dumps(data))


@pytest.mark.parametrize("path, value", WRONG_TYPED)
def test_wrong_typed_config_value_exits_2(tmp_path, capsys, path, value):
    config_path, _ = write_config(tmp_path)
    write_data_with(config_path, [(path, value)])
    assert cli.main(["run", str(config_path)]) == 2
    assert f"config error at {path}: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_wrong_typed_config_values_are_named_together(tmp_path, capsys):
    config_path, _ = write_config(tmp_path)
    write_data_with(config_path, WRONG_TYPED)
    assert cli.main(["run", str(config_path)]) == 2
    err = capsys.readouterr().err
    for path, _ in WRONG_TYPED:
        assert f"config error at {path}: " in err


def test_resume_via_cli_matches_uninterrupted(tmp_path):
    _, cfg_full = write_config(tmp_path, t_end=0.04,
                               output=OutputSpec(dir=str(tmp_path / "full"),
                                                 series="series.csv",
                                                 series_every_steps=4))
    driver.run(cfg_full)
    _, cfg_split = write_config(tmp_path, t_end=0.04,
                                output=OutputSpec(dir=str(tmp_path / "split"),
                                                  series="series.csv",
                                                  series_every_steps=4))
    part = driver.run(cfg_split, stop_after_steps=17)
    assert part.interrupted
    assert cli.main(["run", "--resume", str(part.checkpoint_paths[-1])]) == 0
    assert (tmp_path / "full" / "series.csv").read_bytes() \
        == (tmp_path / "split" / "series.csv").read_bytes()


def split_run(tmp_path):
    """A run stopped after 10 of 20 steps, with its checkpoint."""
    _, cfg = write_config(tmp_path,
                          output=OutputSpec(dir=str(tmp_path / "out"),
                                            series="series.csv",
                                            series_every_steps=5))
    part = driver.run(cfg, stop_after_steps=10)
    return part.checkpoint_paths[-1], part.series_path


def test_resume_from_cut_checkpoint_exits_1(tmp_path, capsys):
    checkpoint, _ = split_run(tmp_path)
    cut = tmp_path / "cut.npz"
    cut.write_bytes(checkpoint.read_bytes()[:2000])
    empty = tmp_path / "empty.npz"
    empty.write_bytes(b"")
    for path in (cut, empty, tmp_path / "missing.npz"):
        assert cli.main(["run", "--resume", str(path)]) == 1
        assert str(path) in capsys.readouterr().err


def test_resume_without_series_exits_1(tmp_path, capsys):
    checkpoint, series = split_run(tmp_path)
    series.unlink()
    assert cli.main(["run", "--resume", str(checkpoint)]) == 1
    assert str(series) in capsys.readouterr().err


@pytest.mark.parametrize("module", ["csns", "csns.cli"])
def test_python_m_runs_the_cli(tmp_path, module):
    missing = tmp_path / "missing.csv"
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-m", module, "verify",
                          str(missing)], capture_output=True, text=True,
                         env=env, timeout=120)
    assert out.returncode == 1
    assert str(missing) in out.stderr


def test_verify_flags_bad_series(tmp_path, capsys):
    config_path, cfg = write_config(tmp_path)
    cli.main(["run", str(config_path)])
    capsys.readouterr()
    series = tmp_path / "out" / "series.csv"
    lines = series.read_text().splitlines()
    cols = lines[0].split(",")
    row = lines[2].split(",")
    row[cols.index("E")] = repr(float(row[cols.index("E")]) * 10.0)
    lines[2] = ",".join(row)
    series.write_text("\n".join(lines) + "\n")
    assert cli.main(["verify", str(series)]) == 1
    out = capsys.readouterr().out
    assert "energy_monotone" in out and "FAIL" in out


def test_verify_includes_snapshots(tmp_path, capsys):
    config_path, cfg = write_config(
        tmp_path,
        output=OutputSpec(dir=str(tmp_path / "out"), series="series.csv",
                          series_every_steps=5, snapshot_every_steps=10))
    cli.main(["run", str(config_path)])
    capsys.readouterr()
    series = tmp_path / "out" / "series.csv"
    snaps = sorted((tmp_path / "out").glob("snapshot_*.csns"))
    assert len(snaps) == 2
    assert cli.main(["verify", str(series)] + [str(s) for s in snaps]) == 0
    out = capsys.readouterr().out
    assert f"snapshot:{snaps[0].name}" in out

    bad = tmp_path / "out" / "broken.csns"
    bad.write_bytes(b"JUNKJUNKJUNK" + bytes(64))
    assert cli.main(["verify", str(series), str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_fails_cleanly_on_cut_snapshot(tmp_path, capsys):
    config_path, cfg = write_config(
        tmp_path,
        output=OutputSpec(dir=str(tmp_path / "out"), series="series.csv",
                          series_every_steps=5, snapshot_every_steps=10))
    cli.main(["run", str(config_path)])
    capsys.readouterr()
    series = tmp_path / "out" / "series.csv"
    snap = sorted((tmp_path / "out").glob("snapshot_*.csns"))[0]
    raw = snap.read_bytes()
    snap.write_bytes(raw[:len(raw) // 2 + 3])
    assert cli.main(["verify", str(series), str(snap)]) == 1
    out = capsys.readouterr().out
    assert f"snapshot:{snap.name}  FAIL" in out


def finished_series(tmp_path):
    config_path, _ = write_config(tmp_path)
    assert cli.main(["run", str(config_path)]) == 0
    return tmp_path / "out" / "series.csv"


def assert_verify_fails_on(path, capsys):
    assert cli.main(["verify", str(path)]) == 1
    out = capsys.readouterr().out
    assert f"series:{path.name}  FAIL  {path}" in out
    return out


def test_verify_fails_cleanly_on_empty_series(tmp_path, capsys):
    path = tmp_path / "empty.csv"
    path.write_bytes(b"")
    assert "empty file" in assert_verify_fails_on(path, capsys)


def test_verify_fails_cleanly_on_non_utf8_series(tmp_path, capsys):
    series = finished_series(tmp_path)
    capsys.readouterr()
    raw = bytearray(series.read_bytes())
    raw[raw.index(b"\n") + 1] = 0xff
    series.write_bytes(bytes(raw))
    assert "not UTF-8" in assert_verify_fails_on(series, capsys)


def test_verify_fails_cleanly_on_missing_columns(tmp_path, capsys):
    path = tmp_path / "decay.csv"
    path.write_text("t,E\n0.0,1.0\n0.1,0.9\n")
    assert "no column E_fluid" in assert_verify_fails_on(path, capsys)


def test_verify_fails_cleanly_on_series_cut_mid_row(tmp_path, capsys):
    series = finished_series(tmp_path)
    capsys.readouterr()
    raw = series.read_bytes()
    series.write_bytes(raw[:raw.index(b"\n", 200) + 40])
    assert "the last row is cut" in assert_verify_fails_on(series, capsys)


def test_verify_still_checks_snapshots_of_a_bad_series(tmp_path, capsys):
    config_path, _ = write_config(
        tmp_path,
        output=OutputSpec(dir=str(tmp_path / "out"), series="series.csv",
                          series_every_steps=5, snapshot_every_steps=10))
    cli.main(["run", str(config_path)])
    capsys.readouterr()
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
    snap = sorted((tmp_path / "out").glob("snapshot_*.csns"))[0]
    assert cli.main(["verify", str(empty), str(snap)]) == 1
    out = capsys.readouterr().out
    rows = [line.split()[:2] for line in out.splitlines()]
    assert rows == [["series:empty.csv", "FAIL"], [f"snapshot:{snap.name}",
                                                   "PASS"]]


def test_fit_decay_command(tmp_path, capsys):
    cols = ["t", "E"]
    path = tmp_path / "decay.csv"
    t = np.linspace(0.0, 60.0, 400)
    e = 3.0 * (1.0 + t) ** -1.5
    rows = [",".join(cols)] + [f"{repr(float(a))},{repr(float(b))}"
                               for a, b in zip(t, e)]
    path.write_text("\n".join(rows) + "\n")
    assert cli.main(["fit-decay", str(path), "--window", "5", "50",
                     "--box-length", "100"]) == 0
    out = capsys.readouterr().out
    assert "slope      -1.500000" in out
    assert "warning" not in out


def test_fit_decay_window_failure_exits_1(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("t,E\n0.0,1.0\n0.1,0.9\n")
    assert cli.main(["fit-decay", str(path), "--window", "0", "1"]) == 1
    assert "need >= 10" in capsys.readouterr().err


def test_oracle_check_passes(capsys):
    assert cli.main(["oracle-check"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    assert "FAIL" not in out


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
