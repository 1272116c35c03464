"""Print sha256 digests of every output of fixed csns runs.

Each run writes its series CSV, snapshots and checkpoints into a fresh
directory; the script prints one line per file (checkpoints one line per
stored array) plus the final c, X and V, so that two checkouts can be shown
to produce byte-identical output:

    PYTHONPATH=src python scripts/output_hashes.py --out /tmp/hashes > a.txt

and the same from the other checkout, then `diff a.txt b.txt`.  The
checkpoint's config_json is hashed with its output directory blanked, since
that path differs between runs.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import shutil
from pathlib import Path

import numpy as np

from csns import driver, io, presets
from csns.domain import validate_config

TWO_PI = 2.0 * math.pi
SEED = 7


def coupled2d(outdir):
    """The 2D demo preset, 50 steps."""
    return presets.coupled(outdir, t_end=0.05, seed=SEED)


def small_io(outdir):
    """32^2 grid, a row every step, snapshots and checkpoints; resumed."""
    return io.config_from_data({
        "box": {"d": 2, "L": TWO_PI, "N": 32},
        "dt": 1e-3, "t_end": 0.2, "viscosity": 1.0,
        "kernel": {"kind": "inverse_power", "beta": 2.0},
        "particle_count": 1024, "r0": 1.0,
        "init_profile": {"fluid": "taylor_green",
                         "particles": "uniform_ball"},
        "seed": SEED,
        "output": {"dir": str(outdir), "series_every_steps": 1,
                   "snapshot_every_steps": 10,
                   "checkpoint_every_steps": 50},
    })


def determinism(outdir):
    """The configuration of acceptance criterion 11."""
    return presets.coupled(outdir, N=64, particle_count=1000, t_end=0.2,
                           series_every=50, snapshot_every=100, seed=77)


def coupled3d(outdir):
    """3D 16^3 coupled run, 2000 particles, 50 steps."""
    return presets.coupled(outdir, d=3, N=16, particle_count=2000,
                           t_end=0.05, series_every=5, snapshot_every=10,
                           checkpoint_every=25, seed=SEED)


def adaptive2d(outdir):
    """32^2 coupled run at nu = 0.05 whose dt the CFL bound sets on every
    step, with a row every step and snapshots."""
    cfg = presets.coupled(outdir, N=32, particle_count=64, dt=0.5, t_end=2.0,
                          series_every=1, snapshot_every=4, seed=SEED)
    return validate_config(dataclasses.replace(cfg, viscosity=0.05,
                                               adaptive=True))


def fluid3d(outdir):
    """64^3 decay without particles, 20 steps."""
    return presets.decay3d(outdir, t_end=2.0, seed=SEED)


CONFIGS = {"coupled2d": coupled2d, "small_io": small_io,
           "determinism": determinism, "coupled3d": coupled3d,
           "adaptive2d": adaptive2d, "fluid3d": fluid3d}
# runs that also resume from their middle checkpoint into the same series
RESUMED = ("small_io",)


def digest(data):
    return hashlib.sha256(data).hexdigest()


def checkpoint_digests(path):
    with np.load(path, allow_pickle=False) as npz:
        for key in sorted(npz.files):
            arr = npz[key]
            if key == "config_json":
                cfg = json.loads(str(arr))
                cfg["output"]["dir"] = ""
                yield key, digest(json.dumps(cfg, sort_keys=True).encode())
            else:
                yield key, digest(np.ascontiguousarray(arr).tobytes())


def run_digests(name, outdir):
    """(label, sha256) of every output of one configured run."""
    shutil.rmtree(outdir, ignore_errors=True)
    res = driver.run(CONFIGS[name](outdir))
    if name in RESUMED:
        res = driver.resume_run(
            res.checkpoint_paths[len(res.checkpoint_paths) // 2 - 1])
    out = []
    for path in sorted(outdir.iterdir()):
        if path.suffix == ".npz":
            out += [(f"{path.name}:{key}", h)
                    for key, h in checkpoint_digests(path)]
        else:
            out.append((path.name, digest(path.read_bytes())))
    state = res.state
    for label, arr in (("final.c", state.u.c), ("final.X", state.ens.X),
                       ("final.V", state.ens.V)):
        out.append((label, digest(np.ascontiguousarray(arr).tobytes())))
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", required=True,
                        help="scratch directory for the runs' files")
    parser.add_argument("names", nargs="*", metavar="name",
                        help=f"runs to hash, from {', '.join(CONFIGS)} "
                             "(default: all)")
    args = parser.parse_args()
    unknown = set(args.names) - set(CONFIGS)
    if unknown:
        parser.error(f"unknown run(s): {', '.join(sorted(unknown))}")
    root = Path(args.out)
    for name in args.names or CONFIGS:
        for label, h in run_digests(name, root / name):
            print(f"{name} {label} {h}")
    shutil.rmtree(root, ignore_errors=True)


if __name__ == "__main__":
    main()
