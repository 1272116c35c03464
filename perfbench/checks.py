"""Correctness checks for the benchmark workloads.

Each check compares a solver output against a value computed here with
plain numpy, or against a property the method must have.  Every check takes
plain arrays, numbers or bytes and returns a Check, so the harness
self-tests can feed it a deliberately broken result.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

# Snapshot layout as documented for the .csns format: a fixed header
# (magic, version, d, N, L, t, n, field count), one table entry
# (16-byte name, offset, count) per field, then float64 payloads.
SNAPSHOT_HEADER_BYTES = struct.calcsize("<4sIIIddQI")
SNAPSHOT_ENTRY_BYTES = struct.calcsize("<16sQQ")

# Relative or absolute tolerances, each far below the effect of a broken
# step and far above the roundoff measured on every workload seed.
MASS_TOL = 1e-13
MOMENTUM_TOL = 1e-12
ENERGY_RTOL = 1e-10
DIVERGENCE_RTOL = 1e-12
HEAT_RTOL = 1e-5


@dataclass(frozen=True)
class Check:
    name: str
    passed: bool
    detail: str


def physical(c, d, N):
    """Physical samples of a half-spectrum field (mean-value normalisation)."""
    return np.fft.irfftn(c, s=(N,) * d, axes=tuple(range(-d, 0)),
                         norm="forward")


def spectral(u, d):
    return np.fft.rfftn(u, axes=tuple(range(-d, 0)), norm="forward")


def mode_indices(d, N):
    """Broadcastable integer mode numbers on the rfft layout, one per axis."""
    full = np.fft.fftfreq(N, 1.0 / N)
    half = np.arange(N // 2 + 1, dtype=float)
    out = []
    for a in range(d):
        shape = [1] * d
        axis = half if a == d - 1 else full
        shape[a] = axis.size
        out.append(axis.reshape(shape))
    return out


def parseval_weight(d, N):
    w = np.full(N // 2 + 1, 2.0)
    w[0] = 1.0
    w[N // 2] = 1.0
    return w.reshape((1,) * (d - 1) + (N // 2 + 1,))


def fluid_momentum(u, L):
    """Integral of a physical field over the box: mean times volume."""
    d = u.ndim - 1
    return u.reshape(d, -1).mean(axis=1) * L**d


def total_momentum(u, L, V, w):
    return fluid_momentum(u, L) + (w @ V if w.size else 0.0)


def physical_energy(u, L, V, w):
    """(1/2) sum |u|^2 cell + (1/2) sum w |V|^2, summed in physical space."""
    d = u.ndim - 1
    cell = (L / u.shape[-1]) ** d
    e = 0.5 * float(np.sum(u * u)) * cell
    if w.size:
        e += 0.5 * float(np.sum(w * np.sum(V * V, axis=1)))
    return e


def heat_energy(c0, L, N, nu, t):
    """Energy of the initial modes under the heat semigroup exp(nu t Lap)."""
    d = c0.shape[0]
    k = mode_indices(d, N)
    xi_sq = sum((2.0 * np.pi / L * ka) ** 2 for ka in k)
    amp = np.sum(c0.real**2 + c0.imag**2, axis=0)
    return 0.5 * L**d * float(np.sum(parseval_weight(d, N) * amp
                                     * np.exp(-2.0 * nu * xi_sq * t)))


def weights_unchanged(w0, w1):
    s0, s1 = float(np.sum(w0)), float(np.sum(w1))
    return Check("weights_unchanged", s0 == s1,
                 f"sum w {s0!r} -> {s1!r}")


def deposited_mass(rho, L, w):
    d = rho.ndim
    cell = (L / rho.shape[-1]) ** d
    err = abs(float(np.sum(rho)) * cell - float(np.sum(w)))
    return Check("deposited_mass", err <= MASS_TOL,
                 f"|sum rho cell - sum w| = {err:.3e} (tol {MASS_TOL:g})")


def momentum_conserved(p0, p1):
    drift = float(np.max(np.abs(np.asarray(p1) - np.asarray(p0))))
    return Check("momentum_conserved", drift <= MOMENTUM_TOL,
                 f"max component drift {drift:.3e} (tol {MOMENTUM_TOL:g})")


def energy_matches_series(e_phys, e_series, e0):
    """Physical-space energy equals the series' Parseval energy; neither
    exceeds the initial energy."""
    err = abs(e_phys - e_series) / e0
    ok = err <= ENERGY_RTOL and e_phys <= e0 and e_series <= e0
    return Check("energy_matches_series", ok,
                 f"physical {e_phys!r}, series {e_series!r}, E0 {e0!r}, "
                 f"relative gap {err:.3e}")


def divergence_free(u):
    """Spectral divergence of a physical field, Nyquist modes excluded."""
    d, N = u.ndim - 1, u.shape[-1]
    c = spectral(u, d)
    k = mode_indices(d, N)
    keep = np.ones(c.shape[1:], dtype=bool)
    for ka in k:
        keep &= np.abs(ka) < N // 2
    div = sum(ka * c[a] for a, ka in enumerate(k))
    size = np.sqrt(sum((ka * ka) * (c[a].real**2 + c[a].imag**2)
                       for a, ka in enumerate(k)))
    scale = float(np.max(size[keep]))
    worst = float(np.max(np.abs(div[keep]))) / scale if scale > 0 else 0.0
    return Check("divergence_free", worst <= DIVERGENCE_RTOL,
                 f"max |k.c| / max |k||c| = {worst:.3e} "
                 f"(tol {DIVERGENCE_RTOL:g})")


def heat_semigroup(e_final, e_heat):
    err = abs(e_final - e_heat) / e_heat
    return Check("heat_semigroup", err <= HEAT_RTOL,
                 f"final {e_final!r} vs heat {e_heat!r}, relative "
                 f"{err:.3e} (tol {HEAT_RTOL:g})")


def energy_nonincreasing(energies):
    e = np.asarray(energies, dtype=float)
    rise = float(np.max(np.diff(e))) if e.size > 1 else 0.0
    return Check("energy_nonincreasing", e.size > 1 and rise <= 0.0,
                 f"{e.size} rows, largest rise {rise:.3e}")


def files_identical(before, after, what):
    """Two {name: bytes} maps hold the same files with the same bytes."""
    differ = sorted(name for name in set(before) | set(after)
                    if before.get(name) != after.get(name))
    return Check(f"{what}_identical", not differ and bool(before),
                 f"{len(before)} files, differing: {differ[:3]}")


def snapshot_matches_state(snap, u, X, V, w):
    same = all(a.shape == b.shape and a.tobytes() == b.tobytes()
               for a, b in ((snap["u"], u), (snap["X"], X),
                            (snap["V"], V), (snap["w"], w)))
    return Check("snapshot_readback", same,
                 f"last snapshot at t = {snap['t']!r} "
                 f"{'equals' if same else 'differs from'} the final state")


def snapshot_bytes(d, N, n):
    return (SNAPSHOT_HEADER_BYTES + (d + 3) * SNAPSHOT_ENTRY_BYTES
            + 8 * (d * N**d + 2 * n * d + n))


def snapshot_sizes(sizes, d, N, n):
    want = snapshot_bytes(d, N, n)
    bad = sorted(name for name, size in sizes.items() if size != want)
    return Check("snapshot_sizes", bool(sizes) and not bad,
                 f"{len(sizes)} snapshots, expected {want} bytes each, "
                 f"wrong size: {bad[:3]}")


def verify_exit(code, output):
    return Check("csns_verify", code == 0,
                 f"exit {code}" + ("" if code == 0 else f": {output[-300:]}"))
