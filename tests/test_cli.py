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


@pytest.mark.parametrize("seed", ["-1", str(2**64), "100000000000000000000000"])
def test_run_seed_override_out_of_range_exits_2(tmp_path, capsys, seed):
    # the override is validated like the configured seed, before anything
    # is written, so no run leaves checkpoints its own resume rejects
    config_path, _ = write_config(tmp_path)
    assert cli.main(["run", str(config_path), "--seed", seed]) == 2
    assert "config error at seed: must be a 64-bit unsigned integer" \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_config_that_is_not_utf8_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff\xfe" + json.dumps({"dt": 1e-3}).encode("utf-16-le"))
    assert cli.main(["run", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"config error at {bad}: not UTF-8 text (byte 0)" in err


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


def test_broadband_cut_below_the_lowest_mode_exits_2(tmp_path, capsys):
    # on a box of side 2.5 the lowest nonzero wavenumber is 2*pi/2.5 > 2.5
    box = BoxSpec(d=2, L=2.5, N=8)
    config_path, _ = write_config(tmp_path, box=box)
    assert cli.main(["run", str(config_path)]) == 2
    assert "config error at init_profile.fluid_params.xi_cut: " \
        in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    # a cut at that wavenumber holds its modes and runs
    write_data_with(config_path, [("init_profile.fluid_params.xi_cut",
                                   2.0 * math.pi / 2.5)])
    assert cli.main(["run", str(config_path)]) == 0


def test_box_volume_overflow_exits_2(tmp_path, capsys):
    # at 1e300 L**2 itself overflows; (L*N)**2 bounds the broadband Parseval
    # sum (at 1e154 it overflowed to a zero field and a false PASS), and
    # 2*(pi*N/L)**2 is the largest |xi|^2
    for L, xi_cut in [(1e300, 1.0), (1e154, 1.0), (1e-300, 1e301)]:
        case = tmp_path / repr(L)
        case.mkdir()
        config_path, _ = write_config(
            case, box=BoxSpec(d=2, L=L, N=8),
            init_profile=InitSpec(fluid="broadband",
                                  fluid_params={"xi_cut": xi_cut,
                                                "u_rms": 0.3},
                                  particles="gaussian"))
        assert cli.main(["run", str(config_path)]) == 2, L
        assert "config error at box.L: " in capsys.readouterr().err
        assert not (case / "out").exists()


@pytest.mark.parametrize("cap", [2.0, True])
def test_kernel_cap_other_than_one_exits_2(tmp_path, capsys, cap):
    config_path, _ = write_config(tmp_path)
    write_data_with(config_path, [("kernel.cap", cap)])
    assert cli.main(["run", str(config_path)]) == 2
    assert "config error at kernel.cap: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("outdir, series, named", [
    ("out", "sub/s.csv", "out/sub/s.csv"), ("out", "..", "out/.."),
    ("out", ".", "out"), ("file", "s.csv", "file"),
    ("file/sub", "s.csv", "file/sub"),
], ids=["missing-subdir", "parent", "dot", "dir-is-file", "dir-under-file"])
def test_run_that_cannot_write_exits_1(tmp_path, capsys, outdir, series,
                                       named):
    (tmp_path / "file").write_text("")
    # on 8^2 the 2/3 rule keeps |xi| <= 2, so the cut is 2
    config_path, _ = write_config(
        tmp_path, box=BoxSpec(d=2, L=2.0 * math.pi, N=8),
        init_profile=InitSpec(fluid="broadband",
                              fluid_params={"xi_cut": 2.0, "u_rms": 0.3},
                              particles="gaussian"),
        output=OutputSpec(dir=str(tmp_path / outdir), series=series))
    assert cli.main(["run", str(config_path)]) == 1
    assert str(tmp_path / named) in capsys.readouterr().err


def test_resume_via_cli_matches_uninterrupted(tmp_path, killed_run):
    _, cfg_full = write_config(tmp_path, t_end=0.04,
                               output=OutputSpec(dir=str(tmp_path / "full"),
                                                 series="series.csv",
                                                 series_every_steps=4))
    driver.run(cfg_full)
    _, cfg_split = write_config(tmp_path, t_end=0.04,
                                output=OutputSpec(dir=str(tmp_path / "split"),
                                                  series="series.csv",
                                                  series_every_steps=4))
    checkpoint, _ = killed_run(cfg_split, 17)
    assert cli.main(["run", "--resume", str(checkpoint)]) == 0
    assert (tmp_path / "full" / "series.csv").read_bytes() \
        == (tmp_path / "split" / "series.csv").read_bytes()


def test_resume_from_checkpoint_with_unit_cap(tmp_path, killed_run):
    # a checkpoint whose stored config carries "cap": 1.0, as written before
    # the key was retired, resumes to the uninterrupted series
    _, cfg_full = write_config(tmp_path, output=OutputSpec(
        dir=str(tmp_path / "full"), series="series.csv", series_every_steps=4))
    driver.run(cfg_full)
    _, cfg_split = write_config(tmp_path, output=OutputSpec(
        dir=str(tmp_path / "split"), series="series.csv", series_every_steps=4))
    checkpoint, _ = killed_run(cfg_split, 9)
    with np.load(checkpoint) as npz:
        arrays = dict(npz)
    stored = json.loads(str(arrays["config_json"]))
    stored["kernel"]["cap"] = 1.0
    arrays["config_json"] = json.dumps(stored, indent=2, sort_keys=True)
    np.savez(checkpoint, **arrays)
    assert cli.main(["run", "--resume", str(checkpoint)]) == 0
    assert (tmp_path / "full" / "series.csv").read_bytes() \
        == (tmp_path / "split" / "series.csv").read_bytes()


def to_parent_layout(checkpoint):
    """Rewrite a checkpoint into the layout written before the recorder held
    the series rows, where writer_json carried them; returns how many rows
    it holds."""
    with np.load(checkpoint) as npz:
        arrays = dict(npz)
    recorder = json.loads(str(arrays["recorder_json"]))
    n_written = json.loads(str(arrays["writer_json"]))["n_written"]
    writer = {"n_written": n_written, "window": recorder.pop("window"),
              "pending": recorder.pop("pending"), "c_sq": recorder["c_sq"]}
    arrays["recorder_json"] = json.dumps(recorder)
    arrays["writer_json"] = json.dumps(writer)
    np.savez(checkpoint, **arrays)
    return len(writer["pending"])


def test_resume_from_parent_layout_checkpoint(tmp_path, killed_run):
    _, cfg_full = write_config(tmp_path, output=OutputSpec(
        dir=str(tmp_path / "full"), series="series.csv", series_every_steps=4))
    driver.run(cfg_full)
    _, cfg_split = write_config(tmp_path, output=OutputSpec(
        dir=str(tmp_path / "split"), series="series.csv", series_every_steps=4))
    checkpoint, _ = killed_run(cfg_split, 9)
    assert to_parent_layout(checkpoint) == 1
    assert cli.main(["run", "--resume", str(checkpoint)]) == 0
    assert (tmp_path / "full" / "series.csv").read_bytes() \
        == (tmp_path / "split" / "series.csv").read_bytes()


@pytest.mark.parametrize("t_end, held", [(0.001, 2), (0.002, 1)])
def test_resume_from_parent_layout_checkpoint_with_held_rows(tmp_path, t_end,
                                                             held):
    # the run's last checkpoint, taken at t_end, holds the rows the series
    # gets when the run finishes; a resume from it rewrites them
    _, cfg = write_config(tmp_path, t_end=t_end, output=OutputSpec(
        dir=str(tmp_path / "out"), series="series.csv",
        series_every_steps=1, checkpoint_every_steps=1))
    res = driver.run(cfg)
    series = res.series_path.read_bytes()
    checkpoint = res.checkpoint_paths[-1]
    assert to_parent_layout(checkpoint) == held
    assert cli.main(["run", "--resume", str(checkpoint)]) == 0
    assert res.series_path.read_bytes() == series


def split_run(tmp_path, killed_run):
    """A run killed after its step-10 checkpoint, of 20 steps; returns the
    checkpoint and the series."""
    _, cfg = write_config(tmp_path,
                          output=OutputSpec(dir=str(tmp_path / "out"),
                                            series="series.csv",
                                            series_every_steps=5))
    return killed_run(cfg, 10)


def test_resume_from_cut_checkpoint_exits_1(tmp_path, capsys, killed_run):
    checkpoint, _ = split_run(tmp_path, killed_run)
    cut = tmp_path / "cut.npz"
    cut.write_bytes(checkpoint.read_bytes()[:2000])
    empty = tmp_path / "empty.npz"
    empty.write_bytes(b"")
    for path in (cut, empty, tmp_path / "missing.npz"):
        assert cli.main(["run", "--resume", str(path)]) == 1
        assert str(path) in capsys.readouterr().err


def snapshot_run(tmp_path):
    """A finished run with snapshots; returns its series and snapshots."""
    config_path, _ = write_config(
        tmp_path,
        output=OutputSpec(dir=str(tmp_path / "out"), series="series.csv",
                          series_every_steps=5, snapshot_every_steps=10))
    assert cli.main(["run", str(config_path)]) == 0
    out = tmp_path / "out"
    return out / "series.csv", sorted(out.glob("snapshot_*.csns"))


def test_resume_from_a_file_that_is_not_a_checkpoint_exits_1(tmp_path,
                                                              capsys):
    series, snaps = snapshot_run(tmp_path)
    capsys.readouterr()
    for path in (series, snaps[0]):
        assert cli.main(["run", "--resume", str(path)]) == 1
        err = capsys.readouterr().err
        assert f"{path}: not a checkpoint archive" in err
        assert "pickle" not in err


def test_resume_without_series_exits_1(tmp_path, capsys, killed_run):
    checkpoint, series = split_run(tmp_path, killed_run)
    series.unlink()
    assert cli.main(["run", "--resume", str(checkpoint)]) == 1
    assert str(series) in capsys.readouterr().err


def test_resume_with_a_counted_row_cut_exits_1(tmp_path, capsys,
                                               killed_run):
    # the series ends inside the last row its checkpoint counts
    checkpoint, series = split_run(tmp_path, killed_run)
    lines = series.read_bytes().splitlines(keepends=True)
    n_written = io.read_checkpoint(checkpoint)["n_written"]
    cut = b"".join(lines[:n_written]) + lines[n_written][:10]
    series.write_bytes(cut)
    assert cli.main(["run", "--resume", str(checkpoint)]) == 1
    assert str(series) in capsys.readouterr().err
    assert series.read_bytes() == cut


def with_arrays(**make):
    """An edit that sets each checkpoint array key to make[key](arrays)."""
    def edit(checkpoint):
        with np.load(checkpoint) as npz:
            arrays = dict(npz)
        np.savez(checkpoint, **{**arrays, **{key: f(arrays)
                                             for key, f in make.items()}})
    return edit


def in_central_directory(offset, patch):
    """An edit that sets the byte at offset in the checkpoint's first
    central-directory entry (version.npy's) to patch(byte)."""
    def edit(checkpoint):
        raw = bytearray(checkpoint.read_bytes())
        at = raw.index(b"PK\x01\x02") + offset
        raw[at] = patch(raw[at])
        checkpoint.write_bytes(bytes(raw))
    return edit


def with_recorder(**values):
    """An edit that sets keys of the checkpoint's recorder state."""
    return with_arrays(recorder_json=lambda a: json.dumps(
        {**json.loads(str(a["recorder_json"])), **values}))


@pytest.mark.parametrize("edit", [
    with_arrays(c=lambda a: a["c"][:, ::2, ::2]),
    with_arrays(X=lambda a: np.zeros((a["X"].shape[0], 3))),
    with_arrays(recorder_json=lambda a: "{}"),
    with_recorder(nu="x"),
    with_recorder(pending=[{}]),
    with_recorder(window=[[0.0]]),
    with_arrays(writer_json=lambda a: json.dumps({"n_written": "3"})),
    with_arrays(writer_json=lambda a: json.dumps({"n_written": -1})),
    with_arrays(t=lambda a: np.float64("nan")),
    in_central_directory(8, lambda flags: flags | 1),
    in_central_directory(10, lambda method: 99),
], ids=["c-shape", "X-shape", "recorder-empty", "recorder-nu-string",
        "recorder-pending-row-empty", "recorder-window-short",
        "n_written-string",
        "n_written-negative", "t-nan", "zip-encrypted", "zip-method"])
def test_resume_from_malformed_checkpoint_exits_1(tmp_path, capsys,
                                                  killed_run, edit):
    checkpoint, series = split_run(tmp_path, killed_run)
    before = series.read_bytes()
    edit(checkpoint)
    assert cli.main(["run", "--resume", str(checkpoint)]) == 1
    assert str(checkpoint) in capsys.readouterr().err
    assert series.read_bytes() == before


def test_resume_with_invalid_stored_config_names_the_checkpoint(
        tmp_path, capsys, killed_run):
    checkpoint, series = split_run(tmp_path, killed_run)
    before = series.read_bytes()

    def negative_dt(arrays):
        stored = json.loads(str(arrays["config_json"]))
        stored["dt"] = -1.0
        return json.dumps(stored)

    with_arrays(config_json=negative_dt)(checkpoint)
    assert cli.main(["run", "--resume", str(checkpoint)]) == 2
    assert (f"config error at {checkpoint}: dt: must be a positive number"
            in capsys.readouterr().err)
    assert series.read_bytes() == before


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
    series, snaps = snapshot_run(tmp_path)
    capsys.readouterr()
    assert len(snaps) == 2
    assert cli.main(["verify", str(series)] + [str(s) for s in snaps]) == 0
    out = capsys.readouterr().out
    assert f"snapshot:{snaps[0].name}" in out

    bad = tmp_path / "out" / "broken.csns"
    bad.write_bytes(b"JUNKJUNKJUNK" + bytes(64))
    assert cli.main(["verify", str(series), str(bad)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_verify_fails_cleanly_on_cut_snapshot(tmp_path, capsys):
    series, [snap, _] = snapshot_run(tmp_path)
    capsys.readouterr()
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


def test_verify_fails_cleanly_on_a_snapshot_given_as_the_series(tmp_path,
                                                                capsys):
    _, snaps = snapshot_run(tmp_path)
    capsys.readouterr()
    assert "not UTF-8 text" in assert_verify_fails_on(snaps[-1], capsys)


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


def test_verify_names_a_field_that_is_not_a_number(tmp_path, capsys):
    # one field of each column, in row 1 or 3, made unreadable as a number
    series = finished_series(tmp_path)
    capsys.readouterr()
    header, *rows = series.read_text().splitlines()
    for c, name in enumerate(header.split(",")):
        r = 1 + 2 * (c % 2)
        bad = rows[r - 1].split(",")
        bad[c] = "x" + bad[c]
        bad_rows = rows[:r - 1] + [",".join(bad)] + rows[r:]
        series.write_text("\n".join([header] + bad_rows) + "\n")
        out = assert_verify_fails_on(series, capsys)
        assert f"row {r}, column {name}: 'x" in out, name


def test_verify_still_checks_snapshots_of_a_bad_series(tmp_path, capsys):
    _, [snap, _] = snapshot_run(tmp_path)
    capsys.readouterr()
    empty = tmp_path / "empty.csv"
    empty.write_bytes(b"")
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


@pytest.mark.parametrize("option, value", [
    ("--viscosity", "0"), ("--viscosity", "-1"), ("--viscosity", "nan"),
    ("--box-length", "0"), ("--box-length", "inf"), ("--box-length", "x")])
def test_fit_decay_rejects_a_bad_viscosity_or_box_length(tmp_path, capsys,
                                                         option, value):
    path = tmp_path / "decay.csv"
    path.write_text("t,E\n" + "".join(f"{t},{(1 + t) ** -1.5}\n"
                                      for t in range(60)))
    with pytest.raises(SystemExit) as exc:
        cli.main(["fit-decay", str(path), "--window", "5", "50",
                  "--viscosity", "1", "--box-length", "6.28", option, value])
    assert exc.value.code == 2
    assert f"argument {option}" in capsys.readouterr().err


def test_oracle_check_passes(capsys):
    assert cli.main(["oracle-check"]) == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    assert "FAIL" not in out


def test_oracle_check_runs_without_scipy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = ("import sys; sys.modules['scipy'] = None; from csns import cli; "
            "sys.exit(cli.main(['oracle-check']))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=dict(os.environ, PYTHONPATH=str(src)),
                         timeout=300)
    assert out.returncode == 0, out.stderr
    assert "FAIL" not in out.stdout


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as exc:
        cli.main(["frobnicate"])
    assert exc.value.code == 2
