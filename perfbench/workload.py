"""One benchmark workload in a fresh process.

run.py starts this file with PYTHONPATH pointing at the checkout's src/.
It imports csns, builds the workload's config as plain data through
io.config_from_data, builds driver.initial_state (the set-up that run.py
times from the process's start), then repeats whole rounds of the workload
until the measuring time is spent, checking every round.  The last line of
standard output is one JSON object for run.py.

With --trace 1, rounds with the layer tracer installed alternate with
rounds without it; the per-layer figures come from the traced rounds and the
tracing overhead from the two round medians.
"""

from __future__ import annotations

import time


def clock():
    # system-wide monotonic clock, comparable with run.py's spawn time
    return time.clock_gettime(time.CLOCK_MONOTONIC)


import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import io as stdio  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

TWO_PI = 2.0 * math.pi


def coupled2d_config(seed, outdir):
    """The 2D coupled demo preset, cut to 50 steps per round."""
    return {
        "box": {"d": 2, "L": TWO_PI, "N": 128},
        "dt": 1e-3, "t_end": 0.05, "viscosity": 1.0,
        "kernel": {"kind": "inverse_power", "beta": 2.0},
        "particle_count": 10000, "r0": 1.0,
        "init_profile": {"fluid": "broadband",
                         "fluid_params": {"u_rms": 0.5, "xi_cut": 2.5},
                         "particles": "gaussian", "particle_params": {}},
        "seed": seed,
        "output": {"dir": str(outdir), "series_every_steps": 25},
    }


def fluid3d_config(seed, outdir):
    """The 3D large-box decay setting, 20 steps per round."""
    return {
        "box": {"d": 3, "L": 100.0, "N": 64},
        "dt": 0.1, "t_end": 2.0, "viscosity": 1.0,
        "particle_count": 0,
        "init_profile": {"fluid": "broadband",
                         "fluid_params": {"u_rms": 5e-3, "xi_cut": 0.45}},
        "seed": seed,
        "output": {"dir": str(outdir), "series_every_steps": 10},
    }


def small_io_config(seed, outdir):
    """Small coupled run whose cost is per-call overhead and file output."""
    return {
        "box": {"d": 2, "L": TWO_PI, "N": 32},
        "dt": 1e-3, "t_end": 0.2, "viscosity": 1.0,
        "kernel": {"kind": "inverse_power", "beta": 2.0},
        "particle_count": 1024, "r0": 1.0,
        "init_profile": {"fluid": "taylor_green",
                         "particles": "uniform_ball"},
        "seed": seed,
        "output": {"dir": str(outdir), "series_every_steps": 1,
                   "snapshot_every_steps": 10,
                   "checkpoint_every_steps": 50},
    }


CONFIGS = {"coupled2d": coupled2d_config, "fluid3d": fluid3d_config,
           "small_io": small_io_config}


def read_series_energy(path):
    with open(path, newline="") as fh:
        return [float(row["E"]) for row in csv.DictReader(fh)]


def folder_bytes(outdir, pattern):
    return {p.name: p.read_bytes() for p in sorted(outdir.glob(pattern))}


class Workload:
    """Runs and checks whole rounds of one workload."""

    def __init__(self, name, csns, cfg, state0, outdir):
        # imported only now, so that csns.import_ms in a traced run also
        # covers the numpy import that csns pulls in
        import checks
        self.checks = checks
        self.name = name
        self.csns = csns
        self.cfg = cfg
        self.state0 = state0
        self.outdir = outdir
        self.last_state = None

    def fresh_outdir(self):
        shutil.rmtree(self.outdir, ignore_errors=True)
        self.outdir.mkdir(parents=True)

    def run_round(self):
        """(coupled steps, timed wall seconds, list of Checks)."""
        self.last_state = None  # hold no earlier round's state in memory
        self.fresh_outdir()
        driver = self.csns.driver
        t0 = clock()
        res = driver.run(self.cfg)
        wall = clock() - t0
        self.last_state = res.state
        if self.name != "small_io":
            return res.n_steps, wall, self.check_run(res.state,
                                                     res.series_path)
        series = res.series_path
        before = folder_bytes(self.outdir, "*.csns")
        before[series.name] = series.read_bytes()
        mid = res.checkpoint_paths[len(res.checkpoint_paths) // 2 - 1]
        t0 = clock()
        resumed = driver.resume_run(mid)
        wall += clock() - t0
        self.last_state = resumed.state
        after = folder_bytes(self.outdir, "*.csns")
        after[series.name] = series.read_bytes()
        found = self.check_run(resumed.state, series)
        found += self.check_files(resumed.state, series, before, after)
        return res.n_steps + resumed.n_steps, wall, found

    def check_run(self, final, series_path):
        C = self.checks
        box = self.cfg.box
        d, N, L = box.d, box.N, box.L
        s0 = self.state0
        u0 = C.physical(s0.u.c, d, N)
        u1 = C.physical(final.u.c, d, N)
        e_series = read_series_energy(series_path)
        e0 = C.physical_energy(u0, L, s0.ens.V, s0.ens.w)
        e1 = C.physical_energy(u1, L, final.ens.V, final.ens.w)
        found = [C.energy_matches_series(e1, e_series[-1], e0),
                 C.divergence_free(u1)]
        if self.cfg.particle_count == 0:
            e_heat = C.heat_energy(s0.u.c, L, N, self.cfg.viscosity,
                                   final.t)
            found += [C.heat_semigroup(e1, e_heat),
                      C.energy_nonincreasing(e_series)]
        else:
            moments = final.moments
            if moments is None:
                moments = self.csns.particles.deposit_moments(final.ens, box)
            found += [
                C.weights_unchanged(s0.ens.w, final.ens.w),
                C.deposited_mass(moments.rho, L, final.ens.w),
                C.momentum_conserved(
                    C.total_momentum(u0, L, s0.ens.V, s0.ens.w),
                    C.total_momentum(u1, L, final.ens.V, final.ens.w)),
            ]
        return found

    def check_files(self, final, series, before, after):
        C = self.checks
        box = self.cfg.box
        snaps = sorted(self.outdir.glob("*.csns"))
        snap = self.csns.io.read_snapshot(snaps[-1])
        out = stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = self.csns.cli.main(["verify", str(series),
                                       *map(str, snaps)])
        return [
            C.files_identical(before, after, "resume"),
            C.snapshot_matches_state(snap, final.u.values(), final.ens.X,
                                     final.ens.V, final.ens.w),
            C.snapshot_sizes({p.name: p.stat().st_size for p in snaps},
                             box.d, box.N, self.cfg.particle_count),
            C.verify_exit(code, out.getvalue()),
        ]


class Rounds:
    """Tallies rounds: steps, timed walls, failures and failed checks."""

    def __init__(self):
        self.steps = 0
        self.rates = []
        self.walls = []
        self.attempted = 0
        self.failed = 0
        self.bad_checks = []

    def run_once(self, workload):
        self.attempted += 1
        try:
            steps, wall, found = workload.run_round()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return
        self.steps += steps
        self.walls.append(wall)
        self.rates.append(steps / wall)
        self.bad_checks += [c for c in found if not c.passed]
        print(f"  round {self.attempted}: {steps} steps in {wall:.3f} s, "
              f"{len(found)} checks, {sum(not c.passed for c in found)} "
              f"failed", file=sys.stderr)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(CONFIGS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--src", required=True,
                        help="the src/ directory csns must be imported from")
    parser.add_argument("--out", required=True,
                        help="scratch directory for the workload's files")
    args = parser.parse_args()

    t_import = clock()
    import csns
    import csns.cli
    import_s = clock() - t_import
    src = Path(args.src).resolve()
    if src not in Path(csns.__file__).resolve().parents:
        sys.exit(f"csns was imported from {csns.__file__}, not from {src}")

    tracer = None
    if args.trace:
        import layers
        tracer = layers.Tracer(csns)
        tracer.install()

    outdir = Path(args.out) / args.workload
    cfg = csns.io.config_from_data(
        CONFIGS[args.workload](args.seed % 2**64, outdir))
    state0 = csns.driver.initial_state(cfg)
    setup_done = clock()

    workload = Workload(args.workload, csns, cfg, state0, outdir)
    start = clock()
    result = {"setup_done": setup_done}
    rounds = Rounds()
    if tracer is None:
        while True:
            rounds.run_once(workload)
            if clock() >= start + args.seconds:
                break
        result["metrics"] = {
            "steps_per_s": (statistics.median(rounds.rates)
                            if rounds.rates else 0.0, "steps/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss * 1024 / 1e6, "MB"),
        }
    else:
        # traced and untraced rounds alternate, so that both medians see the
        # same machine; the first round of the fresh process is traced
        tracer.reset()
        plain = Rounds()
        ratios = {}
        while True:
            tracer.install()
            rounds.run_once(workload)
            tracer.uninstall()
            if not ratios:
                for name in ("domain.wavenumbers", "particles.kernel_hat"):
                    hm = tracer.cache_counts(name)
                    ratios[name] = hm[0] / sum(hm) if hm and sum(hm) else 0.0
            plain.run_once(workload)
            if clock() >= start + args.seconds:
                break
        overhead = (statistics.median(rounds.walls)
                    - statistics.median(plain.walls)) \
            if rounds.walls and plain.walls else 0.0
        result["metrics"] = tracer.metrics(max(rounds.steps, 1), ratios,
                                           import_s, overhead)
        result["absent"] = tracer.absent
        result["split"] = tracer.split()
        rounds.attempted += plain.attempted
        rounds.failed += plain.failed
        rounds.bad_checks += plain.bad_checks
    result.update(attempted=rounds.attempted, failed=rounds.failed,
                  bad_checks=[f"{c.name}: {c.detail}"
                              for c in rounds.bad_checks])
    shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
