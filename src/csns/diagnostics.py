"""Output-step functionals: energies, dissipation channels, the running
energy ledger, inequality residuals, and the decay-exponent fitter.

Everything is a pure function of state snapshots or of the recorded series,
so a failing check names exactly one violated estimate.
"""

from __future__ import annotations

import math
import numbers as _numbers
from dataclasses import asdict, dataclass

import numpy as np

from . import fluid, particles

TW_EXPONENT = 17.0 / 16.0


def _is_number(value):
    """A real number; a bool is none.  NaN stands for a value not yet
    known, as in a held row's fs_residual."""
    return isinstance(value, _numbers.Real) and not isinstance(value, bool)


def csv_columns(d):
    """Diagnostic record schema, in column order."""
    cols = ["t", "E", "E_fluid", "E_kinetic", "grad_rate", "drag_rate",
            "align_rate", "ledger_residual", "R", "b_inf", "u_inf",
            "rho_l1", "rho_l2", "rho_linf", "momentum_x", "momentum_y"]
    if d == 3:
        cols.append("momentum_z")
    cols += ["lowfreq_energy", "fs_residual", "alignment_gap", "tw_drag_cum"]
    return cols


def energy(state):
    """(E, E_fluid, E_kinetic)."""
    e_fluid = fluid.kinetic_energy(state.u.block, state.u.box)
    ens = state.ens
    e_kin = 0.5 * float(np.sum(ens.w * np.sum(ens.V * ens.V, axis=1)))
    return e_fluid + e_kin, e_fluid, e_kin


def total_momentum(state):
    """Fluid plus particle momentum; the drag exchange conserves it."""
    return fluid.fluid_momentum(state.u.block, state.u.box) \
        + particles.particle_momentum(state.ens)


def velocity_samples(state):
    """The velocity samples of state: those its moment record holds (filled
    by driver.ensure_moments) when it has particles, made afresh when not."""
    return state.moments.u if state.ens.n else state.u.values()


def dissipation_terms(state, nu):
    """(grad_rate, drag_rate, align_rate, alignment_gap) of the energy balance.

    Deposit and interpolate are an exact adjoint pair, sum_i w_i F(X_i) =
    dx^d <F, rho> (and so with j and w V), so the exchange rates are grid
    inner products of the state's moments:

        drag_rate  = dx^d (<rho, |u|^2> - 2 <j, u>) + sum w |V|^2
        align_rate = 2 (sum w a(X) |V|^2 - dx^d <b, j>)

    align_rate is the raw double sum (the ledger halves it): its term
    sum w (K*e)(X) of the speed-squared density e equals sum w a(X) |V|^2
    for the symmetric sampled kernel.  drag_rate dominates the alignment gap
    sum w |V - u(X)|^2 by the stencil's Jensen defect.  The samples and
    the reads u(X) and a(X) are those the state's moment record holds.
    """
    box = state.u.box
    grad = fluid.dissipation_rate(state.u.block, box, nu)
    ens = state.ens
    if ens.n == 0:
        return grad, 0.0, 0.0, 0.0
    m = state.moments
    cell = box.dx**box.d
    wvsq = ens.w * np.sum(ens.V * ens.V, axis=1)
    drag = float(cell * (np.vdot(m.rho, np.sum(m.u * m.u, axis=0))
                         - 2.0 * np.vdot(m.j, m.u)) + np.sum(wvsq))
    align = float(2.0 * (np.dot(wvsq, m.a_at) - cell * np.vdot(m.b, m.j)))
    diff = ens.V - m.u_at
    gap = float(np.sum(ens.w * np.sum(diff * diff, axis=1)))
    return grad, drag, align, gap


def trapezoid(h, f_prev, f_now):
    """Trapezoid-rule integral of f over a step of length h."""
    return 0.5 * h * (f_prev + f_now)


def cumulative_trapezoid(t, f):
    """Running trapezoid integral of f over the samples t; starts at zero."""
    t = np.asarray(t, dtype=float)
    f = np.asarray(f, dtype=float)
    if t.size == 0:
        return np.zeros(0)
    return np.concatenate(
        [[0.0], np.cumsum(trapezoid(np.diff(t), f[:-1], f[1:]))])


@dataclass
class EnergyLedger:
    """Running balance: E(t) plus time-integrated dissipation channels vs E0.

    Channel integrals use the trapezoid rule at the output cadence.  The
    alignment channel stores the raw double sum; the balance halves it.
    """

    e0: float
    e: float
    t: float
    cum_grad: float = 0.0
    cum_drag: float = 0.0
    cum_align: float = 0.0
    last_grad: float = 0.0
    last_drag: float = 0.0
    last_align: float = 0.0

    @classmethod
    def start(cls, e0, t, grad, drag, align):
        return cls(e0=e0, e=e0, t=t,
                   last_grad=grad, last_drag=drag, last_align=align)

    def advance(self, t, e, grad, drag, align):
        h = t - self.t
        self.cum_grad += trapezoid(h, self.last_grad, grad)
        self.cum_drag += trapezoid(h, self.last_drag, drag)
        self.cum_align += trapezoid(h, self.last_align, align)
        self.t = t
        self.e = e
        self.last_grad, self.last_drag, self.last_align = grad, drag, align


def energy_identity_residual(ledger):
    """E(t) + cum_grad + cum_drag + cum_align/2 - E0; zero for the continuum."""
    return ledger.e + ledger.cum_grad + ledger.cum_drag \
        + 0.5 * ledger.cum_align - ledger.e0


def lagrange_derivative(ts, fs, at):
    """Derivative of the quadratic through three (t, f) samples, at `at`.

    Handles non-uniform spacing; centered when `at` is the middle sample,
    one-sided at the ends.
    """
    t0, t1, t2 = ts
    f0, f1, f2 = fs
    return (f0 * (2 * at - t1 - t2) / ((t0 - t1) * (t0 - t2))
            + f1 * (2 * at - t0 - t2) / ((t1 - t0) * (t1 - t2))
            + f2 * (2 * at - t0 - t1) / ((t2 - t0) * (t2 - t1)))


def splitting_radius(t, c_sq):
    """Shrinking frequency-splitting radius sqrt(c^2/(t + c^2))."""
    return math.sqrt(c_sq / (t + c_sq))


def fs_residual(t, e, dedt, lowfreq, c_sq):
    """Residual of the frequency-splitting inequality.

    RHS minus LHS of  dE/dt + 3E/(t+c^2) <= c^2/(t+c^2) * lowfreq(r(t));
    nonnegative when the decay inequality holds at this instant.
    """
    denom = t + c_sq
    return c_sq / denom * lowfreq - dedt - 3.0 * e / denom


def r_bound_check(t, r, b_inf, u_inf, e_kinetic):
    """Margins of the two a priori bounds along a series.

    Returns (r_margin, b_margin): the worst slack of
    R(t) <= R(0) + integral of (||b||_inf + ||u||_inf), and of
    ||b||_inf <= sqrt(2 E_kinetic).
    """
    r = np.asarray(r, dtype=float)
    b_inf = np.asarray(b_inf, dtype=float)
    cum = cumulative_trapezoid(t, b_inf + np.asarray(u_inf, dtype=float))
    r_margin = float(np.min(r[0] + cum - r))
    b_margin = float(np.min(np.sqrt(2.0 * np.asarray(e_kinetic, float)) - b_inf))
    return r_margin, b_margin


@dataclass(frozen=True)
class DecayFit:
    t_min: float
    t_max: float
    slope: float
    intercept: float
    r_squared: float
    n_samples: int
    warnings: tuple


def fit_decay_exponent(t, e, t_min, t_max, box_length=None, nu=1.0):
    """Least-squares slope of log E against log(1+t) on a window.

    Raises on windows with fewer than 10 samples or nonpositive energies.
    Warns when the window leaves the spectral-gap validity range
    t <= (L/4)^2/nu, or spans less than a factor 5 in time.
    """
    t = np.asarray(t, dtype=float)
    e = np.asarray(e, dtype=float)
    sel = (t >= t_min) & (t <= t_max)
    n = int(np.sum(sel))
    if n < 10:
        raise ValueError(
            f"decay window [{t_min}, {t_max}] holds {n} samples; need >= 10")
    ts, es = t[sel], e[sel]
    if np.any(es <= 0.0):
        raise ValueError("nonpositive energies in decay window")
    x = np.log1p(ts)
    y = np.log(es)
    a = np.vstack([x, np.ones_like(x)]).T
    coeff, *_ = np.linalg.lstsq(a, y, rcond=None)
    slope, intercept = float(coeff[0]), float(coeff[1])
    ss_res = float(np.sum((y - a @ coeff) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    warns = []
    if box_length is not None:
        t_valid = (box_length / 4.0) ** 2 / nu
        if t_max > t_valid:
            warns.append(f"window end {t_max:g} exceeds the box validity "
                         f"time {t_valid:g}; decay turns exponential there")
    if t_max < 5.0 * t_min:
        warns.append("window spans less than a factor 5 in time; "
                     "the fitted exponent is poorly constrained")
    return DecayFit(float(t_min), float(t_max), slope, intercept,
                    r_squared, n, tuple(warns))


class SeriesRecorder:
    """Builds the diagnostics rows, one per output step.

    Owns the energy ledger and the weighted-drag accumulator, so rows carry
    running integrals consistent with the output cadence.  fs_residual needs
    the energy derivative, so each row is held until the three-row stencil
    around it is complete: interior rows get the centered derivative, the
    first and last rows one-sided ones.  A series of fewer than three rows
    keeps fs_residual NaN.
    """

    def __init__(self, nu, c_sq):
        self.nu = nu
        self.c_sq = c_sq
        self.ledger = None
        self.tw_cum = 0.0
        self._tw_last = None
        self._pending = []
        self._window = []

    def record(self, state, energies):
        """The rows finished by the row of state, whose energy(state) triple
        is energies: none, one, or two when the (t, E) window first fills."""
        self._pending.append(self._row(state, energies))
        self._window.append((float(state.t), float(energies[0])))
        if len(self._window) > 3:
            self._window.pop(0)
        if len(self._window) < 3:
            return []
        if len(self._pending) == 3:
            return [self._finished(0), self._finished(1)]
        return [self._finished(1)]

    def finish(self):
        """The rows still held; the last gets the one-sided end stencil."""
        if len(self._window) < 3:
            rows, self._pending = self._pending, []
            return rows
        return [self._finished(2)]

    def _finished(self, stencil_index):
        """The oldest held row, with the fs_residual of its stencil place."""
        row = self._pending.pop(0)
        ts = [w[0] for w in self._window]
        es = [w[1] for w in self._window]
        dedt = lagrange_derivative(ts, es, ts[stencil_index])
        row["fs_residual"] = fs_residual(row["t"], row["E"], dedt,
                                         row["lowfreq_energy"], self.c_sq)
        return row

    def _row(self, state, energies):
        box = state.u.box
        e, e_fluid, e_kin = energies
        grad, drag, align, gap = dissipation_terms(state, self.nu)
        if self.ledger is None:
            self.ledger = EnergyLedger.start(e, state.t, grad, drag, align)
        else:
            self.ledger.advance(state.t, e, grad, drag, align)

        tw_g = (1.0 + state.t) ** TW_EXPONENT * drag
        if self._tw_last is not None:
            t_prev, g_prev = self._tw_last
            self.tw_cum += trapezoid(state.t - t_prev, g_prev, tw_g)
        self._tw_last = (state.t, tw_g)

        # an empty ensemble has no moments, and its densities are zero
        rho_l1 = rho_l2 = rho_linf = b_inf = 0.0
        if state.ens.n:
            m = state.moments
            rho_l1, rho_l2, rho_linf = particles.density_lp_norms(m.rho, box)
            b_inf = fluid.max_speed(m.b)
        mom = total_momentum(state)
        r = splitting_radius(state.t, self.c_sq)
        row = {
            "t": state.t,
            "E": e,
            "E_fluid": e_fluid,
            "E_kinetic": e_kin,
            "grad_rate": grad,
            "drag_rate": drag,
            "align_rate": align,
            "ledger_residual": energy_identity_residual(self.ledger),
            "R": particles.v_support_radius(state.ens),
            "b_inf": b_inf,
            "u_inf": fluid.max_speed(velocity_samples(state)),
            "rho_l1": rho_l1,
            "rho_l2": rho_l2,
            "rho_linf": rho_linf,
            "momentum_x": mom[0],
            "momentum_y": mom[1],
            "lowfreq_energy": fluid.low_freq_energy(state.u.block, box, r),
            "fs_residual": float("nan"),
            "alignment_gap": gap,
            "tw_drag_cum": self.tw_cum,
        }
        if box.d == 3:
            row["momentum_z"] = mom[2]
        return row

    def state_dict(self):
        return {
            "nu": self.nu,
            "c_sq": self.c_sq,
            "ledger": None if self.ledger is None else asdict(self.ledger),
            "tw_cum": self.tw_cum,
            "tw_last": list(self._tw_last) if self._tw_last else None,
            "pending": self._pending,
            "window": [list(w) for w in self._window],
        }

    @classmethod
    def from_state_dict(cls, d):
        """The recorder whose state_dict() was d.

        A missing key raises KeyError and a value of the wrong type or
        length ValueError naming its key, so that a resume fails before it
        steps: every value is a real number, tw_last a pair of them or None,
        the ledger a table of them or None, pending at most three rows
        holding the columns of a 2D or 3D series and window at most three
        (t, E) pairs.
        """
        def numbers(key, values, count):
            if not (isinstance(values, list) and len(values) == count
                    and all(map(_is_number, values))):
                raise ValueError(f"{key} is {values!r}, not {count} numbers")
            return values

        def table(key, value, columns=None):
            if not (isinstance(value, dict) and (
                    columns is None or set(value) in columns)):
                raise ValueError(f"{key} is {value!r}, not a table of the "
                                 f"{'series columns' if columns else key}")
            return dict(zip(value, numbers(key, list(value.values()),
                                           len(value))))

        def at_most_3(key, values):
            if not (isinstance(values, list) and len(values) <= 3):
                raise ValueError(f"{key} is {values!r}, not a list of at "
                                 "most 3")
            return values

        nu, c_sq, tw_cum = numbers("nu, c_sq, tw_cum",
                                   [d["nu"], d["c_sq"], d["tw_cum"]], 3)
        rec = cls(nu, c_sq)
        rec.tw_cum = tw_cum
        if d["ledger"] is not None:
            rec.ledger = EnergyLedger(**table("ledger", d["ledger"]))
        if d["tw_last"] is not None:
            rec._tw_last = tuple(numbers("tw_last", d["tw_last"], 2))
        columns = (set(csv_columns(2)), set(csv_columns(3)))
        rec._pending = [table("pending row", row, columns)
                        for row in at_most_3("pending", d["pending"])]
        rec._window = [tuple(numbers("window entry", w, 2))
                       for w in at_most_3("window", d["window"])]
        return rec


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def verify_timeseries(data):
    """Run every per-series invariant on a recorded diagnostics table.

    `data` is a structured array with the csv_columns fields.  Returns a list
    of CheckResult; all-pass means every conservation law, sign condition,
    and inequality residual held along the run.
    """
    checks = []
    t, e = data["t"], data["E"]
    e0 = e[0]
    scale = max(1.0, abs(e0))

    mass = data["rho_l1"]
    spread = float(np.max(mass) - np.min(mass))
    # deposition preserves mass exactly; only bincount summation order varies
    checks.append(CheckResult(
        "mass_constant", spread <= 1e-13 * max(1.0, float(np.max(mass))),
        f"L1 density spread {spread:.3e}"))

    rise = float(np.max(np.diff(e))) if e.size > 1 else 0.0
    checks.append(CheckResult(
        "energy_monotone", rise <= 1e-10,
        f"largest energy increase between records {rise:.3e}"))

    worst_rate = min(float(np.min(data[name]))
                     for name in ("grad_rate", "drag_rate", "align_rate"))
    checks.append(CheckResult(
        "rates_nonnegative", worst_rate >= -1e-12 * scale,
        f"most negative dissipation rate {worst_rate:.3e}"))

    res = float(np.max(np.abs(data["ledger_residual"])))
    bound = 1e-2 * scale if e0 > 0 else 1e-12
    checks.append(CheckResult(
        "ledger_residual", res <= bound,
        f"max |residual| {res:.3e} vs bound {bound:.3e}"))

    fs = data["fs_residual"]
    have = np.isfinite(fs)
    fs_margin = float(np.min(fs[have] + 1e-4 * e[have])) if np.any(have) else 0.0
    checks.append(CheckResult(
        "fourier_splitting", fs_margin >= 0.0,
        f"worst residual margin {fs_margin:.3e}"))

    b_inf = data["b_inf"]
    e_kin = data["E_kinetic"]
    r_margin, b_margin = r_bound_check(t, data["R"], b_inf,
                                       data["u_inf"], e_kin)
    checks.append(CheckResult(
        "support_radius_bound", r_margin >= -1e-3,
        f"worst margin {r_margin:.3e}"))
    checks.append(CheckResult(
        "momentum_field_sup", b_margin >= -1e-10,
        f"worst sqrt(2 E_kin) - ||b||_inf margin {b_margin:.3e}"))

    names = ["momentum_x", "momentum_y"]
    if "momentum_z" in (data.dtype.names or ()):
        names.append("momentum_z")
    drift = max(float(np.max(np.abs(data[nm] - data[nm][0])))
                for nm in names)
    checks.append(CheckResult(
        "momentum_constant", drift <= 1e-9,
        f"max component drift {drift:.3e}"))

    tw = data["tw_drag_cum"]
    tw_drop = float(np.min(np.diff(tw))) if tw.size > 1 else 0.0
    checks.append(CheckResult(
        "weighted_drag_monotone", tw_drop >= -1e-12,
        f"most negative increment {tw_drop:.3e}"))

    rho0 = data["rho_linf"][0]
    rhs = 2.0 * (1.0 + rho0) * (2.0 * data["E_fluid"]
                                + data["alignment_gap"])
    eq_margin = float(np.min(rhs - e))
    checks.append(CheckResult(
        "energy_equivalence", eq_margin >= -1e-9 * scale,
        f"worst 2(1+rho0)(||u||^2 + gap) - E margin {eq_margin:.3e}"))

    return checks
