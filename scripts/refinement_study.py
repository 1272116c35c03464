"""Density-norm refinement study for the transported particle ensemble.

Positions follow the divergence-free fluid map, so the continuum density
norms are time-invariant; the recorded drift of the deposited L2 and Linf
norms is discretization error and must shrink as grid, timestep, and
lattice spacing refine together.
"""

import argparse

import numpy as np

from csns import driver, io, presets


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output-dir", default="out/refinement")
    args = parser.parse_args()

    drifts = {}
    for tag in presets.REFINEMENT_LEVELS:
        cfg = presets.refinement(f"{args.output_dir}/{tag}", tag)
        res = driver.run(cfg)
        data = io.read_timeseries(res.series_path)
        drifts[tag] = {col: float(np.max(np.abs(data[col] - data[col][0])))
                       for col in ("rho_l1", "rho_l2", "rho_linf")}
        m = cfg.init_profile.particle_params["m"]
        print(f"{tag}: N = {cfg.box.N}, lattice {m}^2, dt = {cfg.dt:g}, "
              f"{res.n_steps} steps")
        for col, drift in drifts[tag].items():
            print(f"  {col} drift: {drift:.4e}")

    coarse, fine = drifts["coarse"], drifts["fine"]
    for col in ("rho_l2", "rho_linf"):
        ratio = coarse[col] / fine[col] if fine[col] else float("inf")
        print(f"{col} drift ratio coarse/fine: {ratio:.2f}")


if __name__ == "__main__":
    main()
