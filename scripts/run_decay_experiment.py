"""Run the 3D energy-decay experiment and fit the algebraic exponent.

A large periodic box with low-wavenumber initial data mimics whole-space
decay until the spectral gap takes over near t = (L/4)^2 / nu; the fit
window stays inside that range.
"""

import argparse

import numpy as np

from csns import diagnostics, driver, io, presets

FIT_WINDOW = (5.0, 50.0)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="out/decay3d")
    parser.add_argument("--seed", type=int, default=5)
    args = parser.parse_args()

    cfg = presets.decay3d(args.output_dir, seed=args.seed)
    res = driver.run(cfg)
    print(f"run finished: t = {res.state.t:g} after {res.n_steps} steps")
    print(f"series: {res.series_path}")

    data = io.read_timeseries(res.series_path)
    fit = diagnostics.fit_decay_exponent(data["t"], data["E"], *FIT_WINDOW,
                                         box_length=cfg.box.L,
                                         nu=cfg.viscosity)
    speed_fit = diagnostics.fit_decay_exponent(
        data["t"], np.sqrt(2.0 * data["E"]), *FIT_WINDOW,
        box_length=cfg.box.L, nu=cfg.viscosity)
    print(f"window t in [{FIT_WINDOW[0]:g}, {FIT_WINDOW[1]:g}], "
          f"{fit.n_samples} samples")
    print(f"energy slope vs (1+t): {fit.slope:.4f}  "
          f"(r^2 = {fit.r_squared:.6f})")
    print(f"speed slope vs (1+t):  {speed_fit.slope:.4f}")
    for note in fit.warnings:
        print(f"warning: {note}")


if __name__ == "__main__":
    main()
