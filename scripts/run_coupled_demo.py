"""Run a coupled particle-fluid demo and verify its conservation laws.

Ten thousand alignment-coupled particles ride a decaying 2D turbulent
field; afterwards every recorded invariant is checked and the energy
budget is printed.
"""

import argparse

from csns import diagnostics, driver, io, presets


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="out/coupled_demo")
    parser.add_argument("--seed", type=int, default=42)
    args = parser.parse_args()

    cfg = presets.coupled(args.output_dir, seed=args.seed)
    res = driver.run(cfg)
    print(f"run finished: t = {res.state.t:g} after {res.n_steps} steps")
    print(f"series: {res.series_path}")

    data = io.read_timeseries(res.series_path)
    last = data[-1]
    print(f"energy: {res.e0:.6f} -> {float(last['E']):.6f}")
    print(f"ledger residual: {float(last['ledger_residual']):.3e} "
          f"({abs(float(last['ledger_residual'])) / res.e0:.2e} of E0)")
    print(f"alignment gap: {float(data['alignment_gap'][0]):.4f} -> "
          f"{float(last['alignment_gap']):.3e}")

    failed = 0
    for check in diagnostics.verify_timeseries(data):
        mark = "PASS" if check.passed else "FAIL"
        print(f"  {check.name:<24} {mark}  {check.detail}")
        failed += not check.passed
    if failed:
        raise SystemExit(f"{failed} checks failed")


if __name__ == "__main__":
    main()
