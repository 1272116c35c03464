"""Command-line surface: run a configuration, verify a recorded series,
fit a decay exponent, or cross-check the closed-form references."""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from pathlib import Path

import numpy as np

from . import diagnostics, driver, fluid, initial, io, oracle
from .diagnostics import CheckResult
from .domain import BoxSpec, ConfigError, KernelSpec, validate_config


def positive_number(text):
    """argparse type: a finite number > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(
            f"must be a finite number > 0, not {text!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="csns",
        description="Coupled kinetic-fluid solver on a periodic box.")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="integrate a configured simulation")
    run_p.add_argument("config", nargs="?",
                       help="JSON run configuration")
    run_p.add_argument("--resume", metavar="CHECKPOINT",
                       help="continue from a checkpoint (its stored "
                            "configuration governs the run)")
    run_p.add_argument("--seed", type=int, help="override the run seed")
    run_p.add_argument("--output-dir", help="override the output directory")

    ver_p = sub.add_parser("verify",
                           help="replay every series invariant check")
    ver_p.add_argument("series", help="diagnostics CSV from a run")
    ver_p.add_argument("snapshots", nargs="*",
                       help="snapshot files to validate alongside")

    fit_p = sub.add_parser("fit-decay",
                           help="fit log E against log(1+t) on a window")
    fit_p.add_argument("series", help="diagnostics CSV from a run")
    fit_p.add_argument("--window", nargs=2, type=float, required=True,
                       metavar=("T_MIN", "T_MAX"))
    fit_p.add_argument("--column", default="E",
                       help="energy column to fit (default E)")
    fit_p.add_argument("--box-length", type=positive_number,
                       help="box side, enables the validity-time warning")
    fit_p.add_argument("--viscosity", type=positive_number, default=1.0)

    sub.add_parser("oracle-check",
                   help="cross-validate the closed-form references")
    return parser


def cmd_run(args):
    if args.resume and args.config:
        print("give either a config or --resume, not both", file=sys.stderr)
        return 2
    if not args.resume and not args.config:
        print("a config file is required unless --resume is given",
              file=sys.stderr)
        return 2
    try:
        if args.resume:
            result = driver.resume_run(args.resume)
        else:
            cfg = io.parse_config(args.config)
            if args.seed is not None:
                cfg = dataclasses.replace(cfg, seed=args.seed)
            if args.output_dir:
                cfg = dataclasses.replace(
                    cfg, output=dataclasses.replace(cfg.output,
                                                    dir=args.output_dir))
            result = driver.run(validate_config(cfg))  # the overrides too
    except driver.SimulationUnstable as exc:
        print(f"unstable: {exc}", file=sys.stderr)
        return 1
    except (OSError, io.BadCheckpoint) as exc:
        print(f"cannot run: {exc}", file=sys.stderr)  # exc names the file
        return 1
    print(f"finished t = {result.state.t:g} after {result.n_steps} steps")
    print(f"series: {result.series_path}")
    for path in result.snapshot_paths:
        print(f"snapshot: {path}")
    for path in result.checkpoint_paths:
        print(f"checkpoint: {path}")
    return 0


def snapshot_checks(path):
    name = f"snapshot:{path.name}"
    try:
        snap = io.read_snapshot(path)
    except (OSError, io.BadSnapshot) as exc:
        return [CheckResult(name, False, str(exc))]
    problems = []
    if not all(np.all(np.isfinite(snap[k])) for k in ("u", "X", "V", "w")):
        problems.append("nonfinite values")
    if snap["X"].size and (snap["X"].min() < 0.0
                           or snap["X"].max() >= snap["box"].L):
        problems.append("positions outside the box")
    if np.any(snap["w"] < 0.0):
        problems.append("negative weights")
    detail = f"t = {snap['t']:g}, {snap['X'].shape[0]} particles"
    if problems:
        detail += "; " + ", ".join(problems)
    return [CheckResult(name, not problems, detail)]


def print_checks(checks):
    width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{c.name:<{width}}  {status}  {c.detail}")
    return all(c.passed for c in checks)


def read_run_series(path):
    """The series a run wrote, or BadSeries naming the file.

    TimeseriesWriter ends every row with a newline, so a last row without
    one was cut.  A file that is not UTF-8 text is not a series at all, and
    read_timeseries names its first bad byte.
    """
    try:
        text = Path(path).read_bytes().decode("utf-8")
    except UnicodeDecodeError:
        text = ""
    if text and not text.endswith("\n"):
        raise io.BadSeries(f"{path}: the last row is cut")
    return io.read_timeseries(path, diagnostics.csv_columns(2))


def cmd_verify(args):
    try:
        data = read_run_series(args.series)
    except OSError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except io.BadSeries as exc:
        checks = [CheckResult(f"series:{Path(args.series).name}", False,
                              str(exc))]
    else:
        checks = list(diagnostics.verify_timeseries(data))
    for snap in args.snapshots:
        checks.extend(snapshot_checks(Path(snap)))
    return 0 if print_checks(checks) else 1


def cmd_fit_decay(args):
    try:
        data = io.read_timeseries(args.series)
        t = np.atleast_1d(np.asarray(data["t"], dtype=float))
        e = np.atleast_1d(np.asarray(data[args.column], dtype=float))
        fit = diagnostics.fit_decay_exponent(
            t, e, args.window[0], args.window[1],
            box_length=args.box_length, nu=args.viscosity)
    except (OSError, ValueError, KeyError) as exc:
        print(str(exc), file=sys.stderr)
        return 1
    print(f"window     [{fit.t_min:g}, {fit.t_max:g}] ({fit.n_samples} samples)")
    print(f"slope      {fit.slope:.6f}")
    print(f"intercept  {fit.intercept:.6f}")
    print(f"r_squared  {fit.r_squared:.8f}")
    for warning in fit.warnings:
        print(f"warning: {warning}")
    return 0


def oracle_checks():
    """Cross-validate every closed-form reference against an independent
    computation; returns one CheckResult per reference."""
    checks = []

    ms0 = oracle.MomentState(1.0, np.array([0.4, -0.2]), 0.9)
    h = 1e-5
    worst = 0.0
    for t in (0.1, 0.5, 2.0):
        plus = oracle.moment_ode_solution(ms0, t + h)
        minus = oracle.moment_ode_solution(ms0, t - h)
        now = oracle.moment_ode_solution(ms0, t)
        d1 = (plus.m1 - minus.m1) / (2.0 * h)
        d2 = (plus.m2 - minus.m2) / (2.0 * h)
        r1 = float(np.max(np.abs(d1 + now.m1)))
        r2 = abs(d2 + 2.0 * (ms0.m0 + 1.0) * now.m2
                 - 2.0 * float(np.dot(now.m1, now.m1)))
        worst = max(worst, r1, r2)
    checks.append(CheckResult("moment_law_satisfies_ode", worst < 1e-7,
                              f"max finite-difference residual {worst:.3e}"))

    box = BoxSpec(d=2, L=2.0 * math.pi, N=16)
    kernel = KernelSpec(kind="constant")
    X = np.array([[1.0, 2.0], [4.0, 3.0]])
    V0 = np.array([[0.5, 0.2], [-0.1, -0.4]])
    w = np.array([0.3, 0.7])
    v_num = oracle.nbody_align_reference(X, V0, w, kernel, box, 0.5, 5000)
    v_ref = oracle.two_particle_solution(0.3, 0.7, V0[0], V0[1], 0.5)
    err = float(np.max(np.abs(v_num - np.stack(v_ref))))
    checks.append(CheckResult("two_particle_vs_nbody", err < 1e-8,
                              f"max velocity deviation {err:.3e}"))

    rng = np.random.Generator(np.random.PCG64(12))
    n = 128
    Xn = rng.uniform(0.0, box.L, (n, 2))
    Vn = 0.5 * rng.standard_normal((n, 2))
    wn = rng.uniform(0.5, 1.5, n)
    wn /= np.sum(wn)
    v_end = oracle.nbody_align_reference(Xn, Vn, wn, kernel, box, 0.4, 4000)
    want = oracle.moment_ode_solution(
        oracle.MomentState(1.0, wn @ Vn,
                           float(np.sum(wn * np.sum(Vn * Vn, axis=1)))), 0.4)
    m1_err = float(np.max(np.abs(wn @ v_end - want.m1)))
    m2_err = abs(float(np.sum(wn * np.sum(v_end * v_end, axis=1))) - want.m2)
    checks.append(CheckResult("moment_law_vs_nbody",
                              max(m1_err, m2_err) < 1e-6,
                              f"moment deviations {m1_err:.3e}, {m2_err:.3e}"))

    tg_box = BoxSpec(d=2, L=2.0 * math.pi, N=32)
    u, p, e0 = oracle.taylor_green(tg_box)
    c = fluid.to_block(fluid.forward_transform(u, tg_box), tg_box)
    div = fluid.max_divergence(c, tg_box)
    adv = float(np.max(np.abs(
        fluid.block_values(fluid.nonlinear_term(c, tg_box), tg_box))))
    p_err = float(np.max(np.abs(fluid.pressure_solve(c, tg_box) - p)))
    checks.append(CheckResult(
        "vortex_stationary_identities", max(div, adv, p_err) < 1e-12,
        f"divergence {div:.3e}, projected advection {adv:.3e}, "
        f"pressure {p_err:.3e}"))

    steps, dt, nu = 100, 1e-3, 1.0
    ct = c.copy()
    for _ in range(steps):
        ct = fluid.ns_step(ct, tg_box, nu, dt)
    e_num = fluid.kinetic_energy(ct, tg_box)
    e_ref = e0 * math.exp(-4.0 * nu * steps * dt)
    tg_err = abs(e_num - e_ref) / e0
    checks.append(CheckResult("vortex_decay_rate", tg_err < 1e-10,
                              f"relative energy error {tg_err:.3e}"))

    hb = BoxSpec(d=2, L=2.0 * math.pi, N=16)
    c0 = initial.broadband_field(hb, xi_cut=3.5, u_rms=1e-9, seed=4)
    ch = c0
    for _ in range(50):
        ch = fluid.ns_step(ch, hb, 1.0, 1e-3)
    _, l2sq_heat = oracle.heat_decay_reference(fluid.from_block(c0, hb), hb,
                                               0.05, 1.0)
    heat_err = abs(fluid.spectral_l2sq(ch, hb) - l2sq_heat) \
        / fluid.spectral_l2sq(c0, hb)
    checks.append(CheckResult("small_amplitude_heat_decay", heat_err < 1e-8,
                              f"relative energy error {heat_err:.3e}"))

    ts = np.linspace(0.0, 60.0, 601)
    es = oracle.flat_spectrum_energy(ts, xi_cut=0.45)
    fit = diagnostics.fit_decay_exponent(ts, es, 5.0, 50.0)
    checks.append(CheckResult(
        "flat_spectrum_decay_slope", -1.6 < fit.slope < -1.4,
        f"log-log slope {fit.slope:.4f} on [5, 50]"))

    return checks


def cmd_oracle_check(_args):
    return 0 if print_checks(oracle_checks()) else 1


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler = {"run": cmd_run, "verify": cmd_verify,
               "fit-decay": cmd_fit_decay,
               "oracle-check": cmd_oracle_check}[args.command]
    try:
        return handler(args)
    except ConfigError as exc:
        for path, message in exc.errors:
            print(f"config error at {path}: {message}", file=sys.stderr)
        return 2


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
