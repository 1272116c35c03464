"""Shared geometry, kernel, and run-configuration types with validation.

Everything in this module is immutable after validation and safe to share.
Units are nondimensional; the viscous coefficient defaults to 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

TWO_PI = 2.0 * math.pi

KERNEL_KINDS = ("constant", "inverse_power")

# Each profile's parameters: name -> (kind, required).  An optional one
# left out takes the default that initial.py or particles.py gives it.
FLUID_PARAMS = {
    "zero": {},
    "uniform": {"velocity": ("vector", True)},
    "taylor_green": {"amplitude": ("number", False)},
    "broadband": {"xi_cut": ("positive", True), "u_rms": ("positive", True)},
}
PARTICLE_PARAMS = {
    "gaussian": {"sigma_x": ("positive", False),
                 "sigma_v": ("positive", False), "center": ("vector", False)},
    "uniform_ball": {},
    "lattice": {"m": ("count", True), "v0": ("nonnegative", False),
                "density_amp": ("fraction", False)},
    "flocked": {"velocity": ("vector", True)},
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
    phi(r) = (1 + r^2)^(-beta/2).  Both phi and phi' must stay within the unit
    cap, which is fixed at 1."""

    kind: str
    beta: float = 0.0


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


# kind -> (test(value, d), message); a message is formatted with the value
# and d, the box dimension
_KINDS = {
    "number": (lambda v, d: _is_real(v), "must be a number"),
    "positive": (lambda v, d: _is_real(v) and v > 0,
                 "must be a positive number"),
    "nonnegative": (lambda v, d: _is_real(v) and v >= 0,
                    "must be a number >= 0"),
    # |amp| = 1 gives a one-node lattice no weight at all
    "fraction": (lambda v, d: _is_real(v) and abs(v) < 1,
                 "must be a number in (-1, 1)"),
    "vector": (_is_vector, "must be a vector of {d} numbers"),
    "count": (lambda v, d: _is_int(v) and v >= 1, "must be an integer >= 1"),
    "size": (lambda v, d: _is_int(v) and v >= 0, "must be an integer >= 0"),
    "period": (lambda v, d: _is_int(v) and v >= 0,
               "must be an integer >= 0 (0 disables)"),
    "flag": (lambda v, d: isinstance(v, bool), "must be true or false"),
    "dimension": (lambda v, d: _is_int(v) and v in (2, 3),
                  "dimension must be 2 or 3"),
    "grid": (lambda v, d: _is_int(v) and v >= 8 and v & (v - 1) == 0,
             "N must be even power of two (>= 8)"),
    "courant": (lambda v, d: _is_real(v) and 0 < v <= 1,
                "Courant factor must be a number in (0, 1]"),
    "seed": (lambda v, d: _is_int(v) and 0 <= v < 2**64,
             "must be a 64-bit unsigned integer"),
    "text": (lambda v, d: isinstance(v, str), "must be a string"),
    "file name": (lambda v, d: isinstance(v, str) and v != "",
                  "must be a non-empty file name"),
    "kernel": (lambda v, d: isinstance(v, str) and v in KERNEL_KINDS,
               "unknown kind {!r}"),
    "fluid": (lambda v, d: isinstance(v, str) and v in FLUID_PARAMS,
              "unknown profile {!r}"),
    "particles": (lambda v, d: isinstance(v, str) and v in PARTICLE_PARAMS,
                  "unknown profile {!r}"),
}

# (dotted path in SimConfig, kind) of every scalar field
_FIELDS = (
    ("box.d", "dimension"), ("box.N", "grid"), ("box.L", "positive"),
    ("kernel.kind", "kernel"), ("kernel.beta", "nonnegative"),
    ("viscosity", "positive"), ("dt", "positive"),
    ("t_end", "nonnegative"), ("cfl", "courant"), ("adaptive", "flag"),
    ("coupling_enabled", "flag"), ("particle_count", "size"),
    ("r0", "positive"), ("seed", "seed"),
    ("init_profile.fluid", "fluid"), ("init_profile.particles", "particles"),
    ("output.dir", "text"), ("output.series", "file name"),
    ("output.series_every_steps", "count"),
    ("output.snapshot_every_steps", "period"),
    ("output.checkpoint_every_steps", "period"),
)


def validate_config(cfg):
    """Validate every invariant; returns the config or raises ConfigError listing
    all violations with field paths."""
    errors, d = [], cfg.box.d
    checks = [(path, attrgetter(path)(cfg), kind) for path, kind in _FIELDS]
    init = cfg.init_profile
    for path, name, params, declared in (
            ("init_profile.fluid_params", init.fluid, init.fluid_params,
             FLUID_PARAMS),
            # particles are sampled only when there are some
            ("init_profile.particle_params", init.particles,
             init.particle_params,
             PARTICLE_PARAMS if cfg.particle_count != 0 else {})):
        if not (isinstance(name, str) and name in declared):
            continue
        if not isinstance(params, dict):
            errors.append((path, "must be a table of parameters"))
            continue
        errors += [(f"{path}.{key}", "unknown parameter") for key in params
                   if key not in declared[name]]
        checks += [(f"{path}.{key}", params.get(key), kind)
                   for key, (kind, required) in declared[name].items()
                   if required or key in params]

    good = {}
    for path, value, kind in checks:
        test, message = _KINDS[kind]
        if test(value, d):
            good[path] = value
        else:
            errors.append((path, message.format(value, d=d)))

    # rules across fields, each checked once the fields it reads are good
    fp, pp = "init_profile.fluid_params.", "init_profile.particle_params."
    box, r0 = cfg.box, good.get("r0", math.inf)
    if {"kernel.kind", "kernel.beta"} <= good.keys():
        smax = phi_slope_max(cfg.kernel)
        if smax > 1.0 + 1e-12:
            errors.append(("kernel.beta", "kernel slope exceeds the unit cap "
                           f"(max |phi'| = {smax:.4f})"))
    if {"box.d", "box.N", "box.L"} <= good.keys():
        # (L*N)**d bounds the Parseval sums of broadband_field, and
        # d*(pi*N/L)**2 is the largest |xi|^2 on the grid
        try:
            finite = all(map(math.isfinite, (
                float(box.L * box.N) ** d, d * (math.pi * box.N / box.L)**2)))
        except OverflowError:
            finite = False
        if not finite:
            errors.append(("box.L", f"(L*N)**{d} and {d}*(pi*N/L)**2 must "
                           "both be finite floats"))
    if init.fluid == "taylor_green" and (
            d != 2 or not _is_real(box.L) or abs(box.L - TWO_PI) > 1e-12):
        errors.append(("init_profile.fluid",
                       "taylor_green requires d=2 and L=2*pi"))
    if fp + "xi_cut" in good and "box.L" in good:
        # |xi|^2 as retained_block builds it, so that broadband_field agrees
        scale, cut = TWO_PI / box.L, good[fp + "xi_cut"]
        if scale * scale > cut * cut:
            errors.append((fp + "xi_cut", f"must be >= 2*pi/L = {scale:.6g}"))
        # the state holds only the modes the 2/3 rule keeps, |k| <= N//3 on
        # each axis, so a ball reaching past them would lose its energy
        top = box.N // 3 * scale if "box.N" in good else math.inf
        if cut > top:
            errors.append((fp + "xi_cut", f"must be <= (N//3)*2*pi/L = "
                           f"{top:.6g}, the largest wavenumber the 2/3 "
                           "rule keeps on each axis"))
    m = good.get(pp + "m")
    if (m is not None and {"box.d", "particle_count"} <= good.keys()
            and cfg.particle_count != 2 * d * m**d):
        errors.append(("particle_count",
                       f"lattice with m={m} needs {2 * d * m**d} particles"))
    if good.get(pp + "v0", 0.0) > r0:
        errors.append((pp + "v0", "stencil speed must lie in [0, r0]"))
    # sample_initial redraws each speed above r0; with sigma_v <= r0 a draw
    # lands inside with probability at least 39% in 2D and 19.9% in 3D
    if good.get(pp + "sigma_v", 0.0) > r0:
        errors.append((pp + "sigma_v", "must not exceed r0"))
    if math.hypot(*good.get(pp + "velocity", ())) > r0 + 1e-12:
        errors.append((pp + "velocity", "flocked speed exceeds r0"))

    if errors:
        raise ConfigError(errors)
    return cfg

