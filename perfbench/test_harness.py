"""Self-tests of the benchmark harness.

Every correctness check passes on a genuine small run and fails on a
deliberately broken copy of its input, so no check is vacuous.  The tracer
reports a missing function as absent instead of failing.

    PYTHONPATH=src python3 -m pytest perfbench/test_harness.py -q
"""

from __future__ import annotations

import contextlib
import io as stdio
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import csns  # noqa: E402
import csns.cli  # noqa: E402

import checks as C  # noqa: E402
import layers  # noqa: E402
import workload as W  # noqa: E402


def small_config(outdir):
    """The small_io workload cut to 20 steps."""
    data = W.small_io_config(3, outdir)
    data.update(t_end=0.02)
    data["output"].update(snapshot_every_steps=5, checkpoint_every_steps=10)
    return csns.io.config_from_data(data)


def heat_config(outdir):
    data = W.fluid3d_config(3, outdir)
    data.update(t_end=0.5)
    data["box"]["N"] = 16
    data["init_profile"]["fluid_params"]["xi_cut"] = 0.2
    return csns.io.config_from_data(data)


def make_workload(name, cfg, outdir):
    return W.Workload(name, csns, cfg, csns.driver.initial_state(cfg),
                      outdir)


@pytest.fixture(scope="module")
def small_round(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("small") / "out"
    wl = make_workload("small_io", small_config(outdir), outdir)
    steps, wall, found = wl.run_round()
    return wl, steps, found, wl.last_state


@pytest.fixture(scope="module")
def heat_round(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("heat") / "out"
    wl = make_workload("fluid3d", heat_config(outdir), outdir)
    steps, wall, found = wl.run_round()
    return wl, found, wl.last_state


def by_name(found):
    return {c.name: c for c in found}


def test_small_round_passes_every_check(small_round):
    _, steps, found, _ = small_round
    assert steps == 30
    assert sorted(by_name(found)) == sorted([
        "energy_matches_series", "divergence_free", "weights_unchanged",
        "deposited_mass", "momentum_conserved", "resume_identical",
        "snapshot_readback", "snapshot_sizes", "csns_verify"])
    assert all(c.passed for c in found), [c for c in found if not c.passed]


def test_heat_round_passes_every_check(heat_round):
    _, found, _ = heat_round
    assert sorted(by_name(found)) == sorted([
        "energy_matches_series", "divergence_free", "heat_semigroup",
        "energy_nonincreasing"])
    assert all(c.passed for c in found), [c for c in found if not c.passed]


def test_weight_change_fails(small_round):
    wl, _, _, final = small_round
    w = final.ens.w.copy()
    w[0] *= 1.0 + 1e-12
    assert C.weights_unchanged(wl.state0.ens.w, final.ens.w).passed
    assert not C.weights_unchanged(wl.state0.ens.w, w).passed


def test_mass_defect_fails(small_round):
    wl, _, _, final = small_round
    box = wl.cfg.box
    rho = final.moments.rho.copy()
    assert C.deposited_mass(rho, box.L, final.ens.w).passed
    rho[0, 0] += 1e-10 / box.dx**box.d
    assert not C.deposited_mass(rho, box.L, final.ens.w).passed


def test_momentum_perturbed_by_1e9_fails(small_round):
    wl, _, _, final = small_round
    box = wl.cfg.box
    u = C.physical(final.u.c, box.d, box.N)
    p0 = C.total_momentum(C.physical(wl.state0.u.c, box.d, box.N), box.L,
                          wl.state0.ens.V, wl.state0.ens.w)
    p1 = C.total_momentum(u, box.L, final.ens.V, final.ens.w)
    assert C.momentum_conserved(p0, p1).passed
    assert not C.momentum_conserved(p0, p1 + np.array([1e-9, 0.0])).passed


def test_energy_above_initial_fails(small_round):
    wl, _, _, final = small_round
    box = wl.cfg.box
    e0 = C.physical_energy(C.physical(wl.state0.u.c, box.d, box.N), box.L,
                           wl.state0.ens.V, wl.state0.ens.w)
    e1 = C.physical_energy(C.physical(final.u.c, box.d, box.N), box.L,
                           final.ens.V, final.ens.w)
    assert C.energy_matches_series(e1, e1, e0).passed
    raised = e0 * (1.0 + 1e-9)
    assert not C.energy_matches_series(raised, raised, e0).passed
    assert not C.energy_matches_series(e1, e1 * (1.0 + 1e-8), e0).passed


def test_gradient_component_fails(small_round):
    wl, _, _, final = small_round
    box = wl.cfg.box
    u = C.physical(final.u.c, box.d, box.N)
    assert C.divergence_free(u).passed
    x = np.arange(box.N) * box.dx
    broken = u.copy()
    broken[0] += 1e-6 * np.cos(x)[:, None]  # gradient of sin(x)
    assert not C.divergence_free(broken).passed


def test_divergence_check_ignores_nyquist(small_round):
    wl, _, _, final = small_round
    box = wl.cfg.box
    u = C.physical(final.u.c, box.d, box.N)
    nyquist = u.copy()
    nyquist[0] += 1e-3 * np.cos(np.pi * np.arange(box.N))[:, None]
    assert C.divergence_free(nyquist).passed


def test_heat_energy_off_fails(heat_round):
    wl, _, final = heat_round
    box = wl.cfg.box
    e1 = C.physical_energy(C.physical(final.u.c, box.d, box.N), box.L,
                           final.ens.V, final.ens.w)
    e_heat = C.heat_energy(wl.state0.u.c, box.L, box.N, wl.cfg.viscosity,
                           final.t)
    assert C.heat_semigroup(e1, e_heat).passed
    assert not C.heat_semigroup(e1 * (1.0 + 1e-4), e_heat).passed


def test_energy_rise_fails(heat_round):
    wl, _, _ = heat_round
    e = W.read_series_energy(wl.outdir / wl.cfg.output.series)
    assert C.energy_nonincreasing(e).passed
    assert not C.energy_nonincreasing(e + [e[0] * (1.0 + 1e-12)]).passed
    assert not C.energy_nonincreasing(e[:1]).passed


def test_flipped_byte_in_resumed_series_fails(small_round):
    wl, _, _, _ = small_round
    series = wl.outdir / wl.cfg.output.series
    before = {series.name: series.read_bytes()}
    assert C.files_identical(before, dict(before), "resume").passed
    flipped = bytearray(before[series.name])
    flipped[len(flipped) // 2] ^= 0x01
    assert not C.files_identical(before, {series.name: bytes(flipped)},
                                 "resume").passed
    assert not C.files_identical(before, {}, "resume").passed


def test_snapshot_readback_mismatch_fails(small_round):
    wl, _, _, final = small_round
    last = sorted(wl.outdir.glob("*.csns"))[-1]
    snap = csns.io.read_snapshot(last)
    args = (final.u.values(), final.ens.X, final.ens.V, final.ens.w)
    assert C.snapshot_matches_state(snap, *args).passed
    X = final.ens.X.copy()
    X[0, 0] = np.nextafter(X[0, 0], math.inf)
    assert not C.snapshot_matches_state(snap, args[0], X, *args[2:]).passed


def test_snapshot_size_formula(small_round):
    wl, _, _, _ = small_round
    box, n = wl.cfg.box, wl.cfg.particle_count
    sizes = {p.name: p.stat().st_size for p in wl.outdir.glob("*.csns")}
    assert C.snapshot_sizes(sizes, box.d, box.N, n).passed
    name = sorted(sizes)[0]
    assert not C.snapshot_sizes({**sizes, name: sizes[name] - 8},
                                box.d, box.N, n).passed
    assert not C.snapshot_sizes({}, box.d, box.N, n).passed


def test_verify_of_corrupted_series_fails(small_round):
    wl, _, _, _ = small_round
    series = wl.outdir / wl.cfg.output.series
    lines = series.read_text().splitlines()
    col = lines[0].split(",").index("momentum_x")
    row = lines[-1].split(",")
    row[col] = repr(float(row[col]) + 1e-6)
    broken = wl.outdir / "broken.csv"
    broken.write_text("\n".join(lines[:-1] + [",".join(row)]) + "\n")
    out = stdio.StringIO()
    with contextlib.redirect_stdout(out):
        code = csns.cli.main(["verify", str(broken)])
    assert not C.verify_exit(code, out.getvalue()).passed
    assert C.verify_exit(0, "").passed


def test_tracer_reports_missing_function_as_absent(monkeypatch, tmp_path):
    monkeypatch.delattr(csns.particles, "drag_field")
    tracer = layers.Tracer(csns)
    tracer.install()
    try:
        assert tracer.absent == ["particles.drag_field"]
        metrics = tracer.metrics(1, {}, 0.0, 0.0)
    finally:
        tracer.uninstall()
    assert metrics["particles.drag_field.self_ms"] == (0.0, "ms/step")
    assert csns.fluid.forward_transform is \
        tracer.originals["fluid.forward_transform"]


def test_traced_self_times_nest(tmp_path):
    cfg = small_config(tmp_path / "out")
    tracer = layers.Tracer(csns)
    tracer.install()
    try:
        t0 = W.clock()
        res = csns.driver.run(cfg)
        wall = W.clock() - t0
    finally:
        tracer.uninstall()
    total_self = sum(s for s, _ in tracer.stats.values())
    assert 0.5 * wall < total_self <= wall
    assert tracer.stats["driver.run"][1] == 1
    assert tracer.stats["driver.coupled_step"][1] == res.n_steps
    # positions are told apart within the run: two stencils per step
    # (time level and predictor) and no more
    metrics = tracer.metrics(res.n_steps, {}, 0.0, 0.0)
    distinct = tracer.counters["distinct_stencils"]
    assert distinct == 2 * res.n_steps + 1
    assert metrics["particles.stencil_reuse"][0] < 1.0


def test_benchmark_json_names_every_emitted_metric():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    tracer = layers.Tracer(csns)
    emitted = tracer.metrics(1, {"domain.wavenumbers": 1.0,
                                 "particles.kernel_hat": 1.0}, 0.0, 0.0)
    assert sorted(m["name"] for m in spec["per_layer"]) == sorted(emitted)
    assert all(m["unit"] == emitted[m["name"]][1] for m in spec["per_layer"])
    assert [w["name"] for w in spec["workloads"]] == list(W.CONFIGS)
