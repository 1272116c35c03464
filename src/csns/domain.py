"""Shared geometry, kernel, and run-configuration types with validation.

Everything in this module is immutable after validation and safe to share.
Units are nondimensional; the viscous coefficient defaults to 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

TWO_PI = 2.0 * math.pi

KERNEL_KINDS = ("constant", "inverse_power")
FLUID_PROFILES = ("zero", "uniform", "taylor_green", "broadband")
PARTICLE_PROFILES = ("gaussian", "uniform_ball", "lattice", "flocked")

FLUID_PARAM_KEYS = {
    "zero": set(),
    "uniform": {"velocity"},
    "taylor_green": {"amplitude"},
    "broadband": {"xi_cut", "u_rms"},
}
PARTICLE_PARAM_KEYS = {
    "gaussian": {"sigma_x", "sigma_v", "center"},
    "uniform_ball": set(),
    "lattice": {"m", "v0", "density_amp"},
    "flocked": {"velocity"},
}


class ConfigError(ValueError):
    """One or more configuration invariants failed; carries (path, message) pairs."""

    def __init__(self, errors):
        self.errors = list(errors)
        super().__init__("; ".join(f"{path}: {msg}" for path, msg in self.errors))


@dataclass(frozen=True)
class BoxSpec:
    """Periodic box: d axes of length L sampled at N points each."""

    d: int
    L: float
    N: int

    @property
    def dx(self):
        return self.L / self.N

    @property
    def volume(self):
        return self.L**self.d

    @property
    def shape(self):
        return (self.N,) * self.d

    @property
    def spectral_shape(self):
        return (self.N,) * (self.d - 1) + (self.N // 2 + 1,)


@dataclass(frozen=True)
class KernelSpec:
    """Interaction weight phi(r): 'constant' is phi = 1, 'inverse_power' is
    phi(r) = (1 + r^2)^(-beta/2).  Both phi and phi' must stay within the unit cap."""

    kind: str
    beta: float = 0.0
    cap: float = 1.0


@dataclass(frozen=True)
class InitSpec:
    """Named initial-data descriptor for the fluid field and the particle ensemble."""

    fluid: str = "zero"
    fluid_params: dict = field(default_factory=dict)
    particles: str = "uniform_ball"
    particle_params: dict = field(default_factory=dict)


@dataclass(frozen=True)
class OutputSpec:
    dir: str = "out"
    series: str = "series.csv"
    series_every_steps: int = 10
    snapshot_every_steps: int = 0
    checkpoint_every_steps: int = 0


@dataclass(frozen=True)
class SimConfig:
    box: BoxSpec
    dt: float
    t_end: float
    kernel: KernelSpec = KernelSpec("constant")
    viscosity: float = 1.0
    particle_count: int = 0
    r0: float = 1.0
    init_profile: InitSpec = field(default_factory=InitSpec)
    cfl: float = 0.5
    adaptive: bool = False
    seed: int = 0
    coupling_enabled: bool = True
    output: OutputSpec = field(default_factory=OutputSpec)


def eval_phi(kernel, r):
    """Evaluate (phi(r), phi'(r)); vectorized, total on r >= 0."""
    arr = np.asarray(r, dtype=float)
    if kernel.kind == "constant":
        phi = np.ones_like(arr)
        dphi = np.zeros_like(arr)
    else:
        q = 1.0 + arr * arr
        phi = q ** (-0.5 * kernel.beta)
        dphi = -kernel.beta * arr * q ** (-0.5 * kernel.beta - 1.0)
    if np.ndim(r) == 0:
        return float(phi), float(dphi)
    return phi, dphi


def phi_slope_max(kernel):
    """Closed-form max of |phi'| over r >= 0."""
    if kernel.kind == "constant" or kernel.beta == 0.0:
        return 0.0
    b = kernel.beta
    # maximizer of b*r*(1+r^2)^(-(b+2)/2) is r^2 = 1/(b+1)
    r = math.sqrt(1.0 / (b + 1.0))
    return b * r * ((b + 2.0) / (b + 1.0)) ** (-0.5 * b - 1.0)


def _is_int(value):
    """A true integer; bool is an int subclass but no count."""
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value):
    """A finite real number; a bool or a numeric string is no quantity."""
    try:
        return (isinstance(value, numbers.Real)
                and not isinstance(value, bool) and math.isfinite(value))
    except OverflowError:
        return False


def _is_vector(value, d):
    """A sequence of d finite real numbers."""
    try:
        return len(value) == d and all(_is_real(v) for v in value)
    except TypeError:
        return False


def _is_pow_two(n):
    return n >= 1 and (n & (n - 1)) == 0


def _check_profile_params(errors, path, params, allowed):
    if not isinstance(params, dict):
        errors.append((path, "must be a table of parameters"))
        return
    for key in params:
        if key not in allowed:
            errors.append((f"{path}.{key}", "unknown parameter"))


def validate_config(cfg):
    """Validate every invariant; returns the config or raises ConfigError listing
    all violations with field paths."""
    errors = []
    box = cfg.box

    if not (_is_int(box.d) and box.d in (2, 3)):
        errors.append(("box.d", "dimension must be 2 or 3"))
    if not (_is_int(box.N) and _is_pow_two(box.N) and box.N >= 8):
        errors.append(("box.N", "N must be even power of two (>= 8)"))
    if not (_is_real(box.L) and box.L > 0):
        errors.append(("box.L", "box side must be a positive number"))

    k = cfg.kernel
    if k.kind not in KERNEL_KINDS:
        errors.append(("kernel.kind", f"unknown kind {k.kind!r}"))
    else:
        if not (_is_real(k.beta) and k.beta >= 0):
            errors.append(("kernel.beta", "exponent must be a number >= 0"))
        elif k.cap != 1.0:
            errors.append(("kernel.cap", "unit cap is fixed at 1 in this version"))
        else:
            smax = phi_slope_max(k)
            if smax > 1.0 + 1e-12:
                errors.append(
                    ("kernel.beta",
                     f"kernel slope exceeds the unit cap (max |phi'| = {smax:.4f})"))

    if not (_is_real(cfg.viscosity) and cfg.viscosity > 0):
        errors.append(("viscosity", "must be a positive number"))
    if not (_is_real(cfg.dt) and cfg.dt > 0):
        errors.append(("dt", "must be a positive number"))
    if not (_is_real(cfg.t_end) and cfg.t_end >= 0):
        errors.append(("t_end", "must be a number >= 0"))
    if not (_is_real(cfg.cfl) and 0 < cfg.cfl <= 1):
        errors.append(("cfl", "Courant factor must be a number in (0, 1]"))
    for name in ("adaptive", "coupling_enabled"):
        if not isinstance(getattr(cfg, name), bool):
            errors.append((name, "must be true or false"))
    if not (_is_int(cfg.particle_count) and cfg.particle_count >= 0):
        errors.append(("particle_count", "must be an integer >= 0"))
    r0_ok = _is_real(cfg.r0) and cfg.r0 > 0
    if not r0_ok:
        errors.append(("r0", "initial v-support radius must be a positive "
                             "number"))
    if not (_is_int(cfg.seed) and 0 <= cfg.seed < 2**64):
        errors.append(("seed", "must be a 64-bit unsigned integer"))

    init = cfg.init_profile
    if init.fluid not in FLUID_PROFILES:
        errors.append(("init_profile.fluid", f"unknown profile {init.fluid!r}"))
    else:
        _check_profile_params(errors, "init_profile.fluid_params",
                              init.fluid_params, FLUID_PARAM_KEYS[init.fluid])
        fp = init.fluid_params if isinstance(init.fluid_params, dict) else {}
        if init.fluid == "taylor_green":
            if (box.d != 2 or not _is_real(box.L)
                    or abs(box.L - TWO_PI) > 1e-12):
                errors.append(("init_profile.fluid",
                               "taylor_green requires d=2 and L=2*pi"))
        if init.fluid == "uniform":
            if not _is_vector(fp.get("velocity"), box.d):
                errors.append(("init_profile.fluid_params.velocity",
                               f"must be a vector of {box.d} numbers"))
        if init.fluid == "broadband":
            for key in ("xi_cut", "u_rms"):
                val = fp.get(key)
                if not (_is_real(val) and val > 0):
                    errors.append((f"init_profile.fluid_params.{key}",
                                   "broadband needs a positive number"))

    if init.particles not in PARTICLE_PROFILES:
        errors.append(("init_profile.particles", f"unknown profile {init.particles!r}"))
    elif (isinstance(cfg.particle_count, numbers.Real)
          and cfg.particle_count > 0):
        pp = init.particle_params
        _check_profile_params(errors, "init_profile.particle_params",
                              pp, PARTICLE_PARAM_KEYS[init.particles])
        if init.particles == "lattice" and isinstance(pp, dict):
            m = pp.get("m")
            if not (_is_int(m) and m >= 1):
                errors.append(("init_profile.particle_params.m",
                               "lattice needs an integer per-axis count m >= 1"))
            elif box.d in (2, 3) and cfg.particle_count != 2 * box.d * m**box.d:
                errors.append(("particle_count",
                               f"lattice with m={m} needs {2 * box.d * m**box.d} particles"))
            v0 = pp.get("v0", 0.0)
            if r0_ok and not (_is_real(v0) and 0 <= v0 <= cfg.r0):
                errors.append(("init_profile.particle_params.v0",
                               "stencil speed must lie in [0, r0]"))
        if init.particles == "flocked" and isinstance(pp, dict):
            vel = pp.get("velocity")
            if not _is_vector(vel, box.d):
                errors.append(("init_profile.particle_params.velocity",
                               f"must be a vector of {box.d} numbers"))
            elif (r0_ok and math.sqrt(sum(float(v) ** 2 for v in vel))
                  > cfg.r0 + 1e-12):
                errors.append(("init_profile.particle_params.velocity",
                               "flocked speed exceeds r0"))

    out = cfg.output
    if not (_is_int(out.series_every_steps) and out.series_every_steps >= 1):
        errors.append(("output.series_every_steps", "must be an integer >= 1"))
    for name in ("snapshot_every_steps", "checkpoint_every_steps"):
        if not (_is_int(getattr(out, name)) and getattr(out, name) >= 0):
            errors.append((f"output.{name}", "must be an integer >= 0 (0 disables)"))

    if errors:
        raise ConfigError(errors)
    return cfg


def full_order_indices(N):
    """Per-axis integer modes in transform order: 0, 1, ..., N/2, -N/2+1, ..., -1."""
    k = np.arange(N)
    return np.where(k <= N // 2, k, k - N)


@dataclass(eq=False)
class WavenumberGrid:
    """Wavenumber tables on the half-spectrum (rfft) layout.

    axis_indices hold the full per-axis transform order; the broadcastable xi
    arrays, |xi|^2 table, Parseval multiplicities, and the 2/3 dealias mask all
    live on the (N, ..., N//2+1) layout.
    """

    box: BoxSpec
    axis_indices: tuple
    axis_xi: tuple
    xi: tuple
    xi_sq: np.ndarray
    inv_xi_sq: np.ndarray
    parseval_weight: np.ndarray
    dealias: np.ndarray


@lru_cache(maxsize=32)
def wavenumbers(box):
    """Build the WavenumberGrid for a box (cached; one table per geometry).

    Every array of the grid is read-only, since all callers share it.
    """
    d, N = box.d, box.N
    scale = TWO_PI / box.L
    full = full_order_indices(N)
    half = np.arange(N // 2 + 1)
    per_axis_idx = tuple([full.copy() for _ in range(d - 1)] + [half])
    per_axis_xi = tuple(scale * idx for idx in per_axis_idx)

    xi = []
    for a in range(d):
        shape = [1] * d
        shape[a] = len(per_axis_idx[a])
        xi.append(per_axis_xi[a].astype(float).reshape(shape))
    xi = tuple(xi)

    xi_sq = np.zeros(box.spectral_shape)
    for a in range(d):
        xi_sq = xi_sq + xi[a] ** 2
    inv = np.zeros_like(xi_sq)
    nz = xi_sq > 0
    inv[nz] = 1.0 / xi_sq[nz]

    weight = np.ones(N // 2 + 1)
    weight[1:N // 2] = 2.0  # interior last-axis modes stand for a conjugate pair
    weight = weight.reshape((1,) * (d - 1) + (N // 2 + 1,)) * np.ones(box.spectral_shape)

    cut = N // 3
    mask = np.ones(box.spectral_shape, dtype=bool)
    for a in range(d):
        shape = [1] * d
        shape[a] = len(per_axis_idx[a])
        mask &= (np.abs(per_axis_idx[a]) <= cut).reshape(shape)

    for arr in (*per_axis_idx, *per_axis_xi, *xi, xi_sq, inv, weight, mask):
        arr.setflags(write=False)
    return WavenumberGrid(box, per_axis_idx, per_axis_xi, xi, xi_sq, inv,
                          weight, mask)
