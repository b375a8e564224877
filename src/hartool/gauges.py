"""Young functions, moduli of continuity, and Morrey weight functions.

A Young function here is a parametric convex gauge A with A(0) = 0,
nondecreasing and continuous, superlinear except for the quasi-Young
linear case A(t) = t.  The module provides

* closed-form evaluation per family, an inverse (a one-row Luxemburg
  solve), and the conjugate sup_t (s t - A(t)) as a gauge of its own
  (`ConjugateGauge`: closed form for powers, a table of exact Legendre
  pairs otherwise),
* both Luxemburg norms over a cube: the mean-normalized norm
  inf {lam : avg_Q A(|f|/lam) <= 1} and the raw norm with the plain
  integral in place of the average.  Every Luxemburg solve in the package
  is a row of `batched_mean_norms`, which takes the closed form for
  pure-power gauges and otherwise a doubling/halving bracket, then per-row
  Illinois steps in log-log coordinates to LUXEMBURG_RTOL, guarded by a
  midpoint fallback for a NaN secant and a minimum step; the scalar norms
  are one-row batches,
* the Dini integral of a modulus of continuity, and
* the bump norm ( int_1^inf A(t)^(q/p) t^-q dt/t )^(1/q) with 1/q = 1/p - alpha,
  whose finiteness defines the integrability classes used by the
  two-weight results.

Every divergence verdict is exact and comes from declared tails, not from
samples of the integrand.  Each gauge family states its growth at infinity,
`tail()` = (P, b) with A(t) ~ t^P (log t)^b, and each modulus its decay at
zero, `tail()` = (delta, b) with omega(t) ~ t^delta (log 1/t)^b.  Both
integrals, and `thm42`'s lambda tail, reduce to int^inf t^E (log t)^B dt/t,
which `tail_converges` decides: finite iff E < 0, or E = 0 and B < -1.  A
divergent integral is (inf, True).  A convergent one is the midpoint rule
up to a cutoff plus the exact integral of the declared tail beyond it, an
upper incomplete gamma function when E < 0 (`_declared_integral`).

Each family states its traits once.  A descriptor (`to_json`, and the
`*_from_json` constructors) is the family name plus the dataclass fields by
name; only the conjugate (its `base`) and the tabulated weight (`t`,
`values`) spell theirs out.  A gauge with a power form a t^p is doubling
with constant 2^p, and its conjugate with 2^p'.
"""

from __future__ import annotations

import functools
import math
from dataclasses import MISSING, dataclass, fields

import numpy as np

from .geometry import Box, Cube, SampledFunction

__all__ = [
    "YoungFunction",
    "PowerGauge",
    "ScaledPowerGauge",
    "PowerLogGauge",
    "ExpPowerGauge",
    "LinearGauge",
    "ConjugateGauge",
    "ModulusOmega",
    "HolderModulus",
    "LogModulus",
    "BorderlineLogModulus",
    "MorreyWeight",
    "PowerLawWeight",
    "TabulatedWeight",
    "evaluate",
    "inverse",
    "conjugate",
    "luxemburg_mean_norm",
    "luxemburg_raw_norm",
    "tail_converges",
    "dini_integral",
    "bump_norm",
    "young_from_json",
    "modulus_from_json",
    "morrey_weight_from_json",
]

LUXEMBURG_RTOL = 1e-13
TAIL_ATOL = 1e-12


class _Family:
    """A member of a parametric family: its JSON descriptor is the family
    name plus its dataclass fields by name."""

    family = "abstract"

    def to_json(self) -> dict:
        return {"family": self.family, **{f.name: getattr(self, f.name) for f in fields(self)}}


class YoungFunction(_Family):
    """Base class for the parametric gauges; subclasses define value()."""

    def value(self, t):
        raise NotImplementedError

    def tail(self) -> tuple[float, float]:
        """(P, b) with A(t) ~ t^P (log t)^b as t -> inf; (p, 0) for a power
        form.  P = inf marks growth beyond every power, and then b is the a
        of A ~ exp(t^a) (inf for an indicator)."""
        return (self.power_form()[0], 0.0)

    # (p, scale) such that A(t) = scale * t^p, or None.  Pure-power gauges
    # admit exact closed forms used by the vectorized cube sweeps.
    def power_form(self) -> tuple[float, float] | None:
        return None

    def doubling_constant(self) -> float | None:
        """A bound on sup_t A(2t)/A(t): exactly 2^p for a power form a t^p,
        and None where a family states none (exp(t^a) - 1 is not doubling)."""
        power = self.power_form()
        return None if power is None else 2.0 ** power[0]

    def inverse(self, u: float) -> float:
        """t with A(t) = u: A(1/lam) <= u exactly when lam >= 1/t, so 1/t is
        the one-row Luxemburg norm of [1] at scale 1/u (closed form for powers)."""
        if u < 0:
            raise ValueError("inverse requires u >= 0")
        if u == 0:
            return 0.0
        return 1.0 / float(batched_mean_norms(np.ones((1, 1)), self, scale=1.0 / u)[0])


@dataclass(frozen=True)
class PowerGauge(YoungFunction):
    """A(t) = t^p, p > 1."""

    p: float
    family = "power"

    def __post_init__(self):
        if not self.p > 1:
            raise ValueError("power gauge requires p > 1")

    def value(self, t):
        return np.power(t, self.p)

    def power_form(self):
        return (self.p, 1.0)


@dataclass(frozen=True)
class ScaledPowerGauge(YoungFunction):
    """A(t) = a t^p, a > 0, p > 1."""

    p: float
    a: float
    family = "power_scaled"

    def __post_init__(self):
        if not (self.p > 1 and self.a > 0):
            raise ValueError("scaled power gauge requires p > 1 and a > 0")

    def value(self, t):
        return self.a * np.power(t, self.p)

    def power_form(self):
        return (self.p, self.a)


@dataclass(frozen=True)
class PowerLogGauge(YoungFunction):
    """A(t) = t^p (log(e + t))^a.  Requires p >= max(1, -a) for monotonicity."""

    p: float
    a: float
    family = "power_log"

    def __post_init__(self):
        if not self.p >= 1:
            raise ValueError("power-log gauge requires p >= 1")
        if self.a < -self.p:
            raise ValueError("power-log gauge requires a >= -p")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.power(t, self.p) * np.log(np.e + t) ** self.a

    def legendre_pair(self, t):
        """(log A'(t), t A'(t) - A(t)) with L = log(e + t), r = t/(e + t):
        A' = t^(p-1) L^(a-1) (p L + a r) and t A' - A = t^p L^(a-1) ((p-1) L + a r).
        L - 1 = log1p(t/e) keeps log A' resolved just above A'(0+) when p = 1."""
        l1, r = np.log1p(t / np.e), t / (np.e + t)
        log_s = ((self.p - 1.0) * np.log(t) + (self.a - 1.0) * np.log1p(l1)
                 + math.log(self.p) + np.log1p(l1 + self.a / self.p * r))
        return log_s, (t**self.p * (1.0 + l1) ** (self.a - 1.0)
                       * ((self.p - 1.0) * (1.0 + l1) + self.a * r))

    def tail(self):
        return (self.p, self.a)

    def doubling_constant(self):
        return 2.0**self.p * 2.0 ** max(self.a, 0.0)


@dataclass(frozen=True)
class ExpPowerGauge(YoungFunction):
    """A(t) = exp(t^a) - 1, a >= 1.  Not doubling."""

    a: float
    family = "exp_power"

    def __post_init__(self):
        if not self.a >= 1:
            raise ValueError("exp-power gauge requires a >= 1")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(over="ignore"):
            return np.expm1(np.power(t, self.a))

    def legendre_pair(self, t):
        """(log A'(t), t A'(t) - A(t)) with u = t^a: log A' = log a + (a-1) log t + u
        and t A' - A = (a-1) u e^u + (u e^u - expm1(u)), the last term by its
        series sum_n (n-1) u^n / n! for u < 0.01, where it cancels."""
        u = t**self.a
        series = u * u * (1/2 + u * (1/3 + u * (1/8 + u * (1/30 + u * (1/144 + u / 840)))))
        ue = u * np.exp(u)
        return (math.log(self.a) + (self.a - 1.0) * np.log(t) + u,
                (self.a - 1.0) * ue + np.where(u < 0.01, series, ue - np.expm1(u)))

    def tail(self):
        return (math.inf, self.a)


@dataclass(frozen=True)
class LinearGauge(YoungFunction):
    """A(t) = t^r with r >= 1 admitted as quasi-Young; r = 1 is the plain mean."""

    r: float = 1.0
    family = "linear"

    def __post_init__(self):
        if not self.r >= 1:
            raise ValueError("linear gauge requires r >= 1")

    def value(self, t):
        return np.power(t, self.r)

    def power_form(self):
        return (self.r, 1.0)


@functools.lru_cache(maxsize=None)
def _legendre_table(base: YoungFunction) -> tuple[np.ndarray, np.ndarray]:
    """(log s, log A*(s)) at the exact Legendre pairs of a convex base, built once.

    For differentiable convex A the conjugate is parametrized by t:
    (s, A*(s)) = (A'(t), t A'(t) - A(t)) (Rockafellar 1970, section 26), which
    `base.legendre_pair` evaluates without cancellation.  The knots are those
    pairs on a log grid of 2^17 + 1 values of t from 1e-20 to the last t (of
    a coarse grid up to 1e60) with A* finite and s <= 1e15.  A base whose A'
    is not increasing there is not convex and is rejected."""
    with np.errstate(over="ignore", invalid="ignore"):  # A* overflows to inf at the top
        t = np.geomspace(1e-20, 1e60, 4097)
        log_s, vals = base.legendre_pair(t)
        t_max = t[np.isfinite(vals) & (log_s <= math.log(1e15))][-1]
        log_s, vals = base.legendre_pair(np.geomspace(1e-20, t_max, (1 << 17) + 1))
    if not np.all(np.diff(log_s) > 0):
        raise ValueError(f"conjugate needs a convex base: A' of {base.to_json()} is not increasing")
    keep = vals > 0  # knots whose A* underflows to 0 lie below the first kept one
    return log_s[keep], np.log(vals[keep])


@dataclass(frozen=True)
class ConjugateGauge(YoungFunction):
    """Conjugate A*(s) = sup_t (s t - A(t)) of a base gauge, usable wherever a
    gauge is expected.  The route depends on the base only, never on the
    shape of the input:

    * a power base a t^p, p > 1, has the closed form
      (p - 1) a^(-1/(p-1)) p^(-p') s^p' with p' = p/(p-1) (Rao & Ren 1991,
      section 1.3), reported as `power_form`, so the norm solvers take their
      power fast paths;
    * a linear base a t has the indicator A*(s) = 0 for s <= a, else inf;
    * every other base must be convex and differentiable; it reads a table
      of exact Legendre pairs (A'(t), t A'(t) - A(t)) built once per base
      (`_legendre_table`), log-log interpolated in s by one `np.interp`.
      The knots run from t = 1e-20 up to s <= 1e15 with t <= 1e60 (for
      t log(e + t) that is s ~ 139); above the last knot the value is inf,
      and below the first it is exactly 0, so A* = 0 on s <= A'(0+) for
      exp(t) - 1 and t log(e + t).  A base whose A' is not increasing
      raises ValueError on first use.  Against a ternary search the table
      is within 4e-8 relative for the bases measured (3e-7 for
      t log(e + t), whose knots span 80 decades of t); README, "Numerical
      policy", lists the measurements.

    Its tail follows from the base's through the same Legendre pair: with
    s = A'(t) ~ p t^(p-1) (log t)^b, A* = t A' - A ~ (1 - 1/p) t s, so a
    base tail (p, b) with p > 1 gives (p', -b/(p-1)); exp(t^a) gives
    s (log s)^(1/a), that is (1, 1/a); and a base with p = 1 gives P = inf,
    since the conjugate of a t is an indicator and that of t (log t)^b
    grows like exp(s^(1/b))."""

    base: YoungFunction
    family = "conjugate"

    def tail(self):
        p, b = self.base.tail()
        if p == math.inf:
            return (1.0, 1.0 / b)
        if p == 1.0:
            return (math.inf, 1.0 / b if b > 0 else math.inf)
        return (p / (p - 1.0), -b / (p - 1.0))

    def power_form(self):
        power = self.base.power_form()
        if power is None or power[0] == 1.0:
            return None
        p, a = power
        q = p / (p - 1.0)
        return (q, (p - 1.0) * a ** (-1.0 / (p - 1.0)) * p ** (-q))

    def value(self, t):
        s = np.asarray(t, dtype=float)
        power = self.power_form()
        if power is not None:
            q, b = power
            return b * np.power(s, q)
        linear = self.base.power_form()
        if linear is not None:
            return np.where(s <= linear[1], 0.0, math.inf)[()]
        log_s, log_v = _legendre_table(self.base)
        with np.errstate(divide="ignore"):
            return np.exp(np.interp(np.log(s), log_s, log_v, left=-math.inf, right=math.inf))[()]

    def to_json(self):
        return {"family": "conjugate", "base": self.base.to_json()}


class ModulusOmega(_Family):
    """Nondecreasing modulus of continuity on (0, infinity)."""

    def value(self, t):
        raise NotImplementedError

    def tail(self) -> tuple[float, float]:
        """(delta, b) with omega(t) ~ t^delta (log 1/t)^b as t -> 0."""
        raise NotImplementedError


@dataclass(frozen=True)
class HolderModulus(ModulusOmega):
    """omega(t) = t^delta, delta > 0."""

    delta: float
    family = "holder"

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError("holder modulus requires delta > 0")

    def value(self, t):
        return np.power(t, self.delta)

    def tail(self):
        return (self.delta, 0.0)


@dataclass(frozen=True)
class LogModulus(ModulusOmega):
    """omega(t) = (log(e + 1/t))^-(1+eps), eps > 0; Dini-convergent."""

    eps: float
    family = "log"

    def __post_init__(self):
        if not self.eps > 0:
            raise ValueError("log modulus requires eps > 0")

    def value(self, t):
        t = np.asarray(t, dtype=float)
        return np.log(np.e + 1.0 / t) ** (-(1.0 + self.eps))

    def tail(self):
        return (0.0, -(1.0 + self.eps))


@dataclass(frozen=True)
class BorderlineLogModulus(ModulusOmega):
    """omega(t) = 1/log(e/t), capped at 1 for t >= 1; Dini-divergent."""

    family = "log_borderline"

    def value(self, t):
        t = np.minimum(np.asarray(t, dtype=float), 1.0)
        return 1.0 / np.log(np.e / t)

    def tail(self):
        return (0.0, -1.0)


class MorreyWeight(_Family):
    """Positive function phi(x, t), nonincreasing in t, for Morrey norms."""

    def value(self, x, t):
        raise NotImplementedError


@dataclass(frozen=True)
class PowerLawWeight(MorreyWeight):
    """phi(x, t) = t^sigma with sigma < 0 (so phi(x, 0+) = infinity)."""

    sigma: float
    family = "power_law"

    def __post_init__(self):
        if not self.sigma < 0:
            raise ValueError("power-law Morrey weight requires sigma < 0")

    def value(self, x, t):
        return np.power(t, self.sigma)


@dataclass(frozen=True)
class TabulatedWeight(MorreyWeight):
    """Table of phi values over t, log-linear interpolation, constant ends.

    Tables are spatially uniform: the x argument is accepted and ignored.
    """

    t_values: tuple[float, ...]
    values: tuple[float, ...]
    family = "tabulated"

    def __post_init__(self):
        t = np.asarray(self.t_values, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if t.size != v.size or t.size < 2:
            raise ValueError("tabulated weight needs matching t/value tables of length >= 2")
        if not (np.all(np.diff(t) > 0) and np.all(t > 0)):
            raise ValueError("t table must be positive and strictly increasing")
        if not np.all(v > 0):
            raise ValueError("phi values must be positive")
        if np.any(np.diff(v) > 0):
            raise ValueError("phi must be nonincreasing in t")

    def value(self, x, t):
        logt = np.log(np.asarray(t, dtype=float))
        table_t = np.log(np.asarray(self.t_values))
        table_v = np.asarray(self.values)
        return np.interp(logt, table_t, table_v)

    def to_json(self):
        return {"family": "tabulated", "t": list(self.t_values), "values": list(self.values)}


# ---------------------------------------------------------------------------
# spec-named operation wrappers

def evaluate(A: YoungFunction, t: float) -> float:
    if np.any(np.asarray(t) < 0):
        raise ValueError("gauges are defined for t >= 0")
    return A.value(t)


def inverse(A: YoungFunction, u: float) -> float:
    return A.inverse(u)


def conjugate(A: YoungFunction, s: float) -> float:
    """A*(s) by the route `ConjugateGauge` takes for A (its docstring gives
    the table's range and accuracy for non-power bases)."""
    if np.any(np.asarray(s) < 0):
        raise ValueError("conjugate requires s >= 0")
    return ConjugateGauge(A).value(s)


# ---------------------------------------------------------------------------
# Luxemburg norms

_BRACKET_STEPS = 300  # doublings / halvings allowed while bracketing lambda
_SECANT_STEPS = 200   # Illinois steps; measured at most ~10 per row, and the
                      # midpoint fallback alone needs ~44 on a factor-2 bracket


def _power_norms(sums: np.ndarray, ncols: int, power: tuple[float, float],
                 scale: float) -> np.ndarray:
    """Closed form for A(t) = a t^p: lam = (scale * a * sum|w|^p / ncols)^(1/p).

    The sums may come from prefix sums, whose cancellation can leave tiny
    negatives where the exact sum is zero."""
    p, a = power
    return (scale * a * np.maximum(sums, 0.0) / ncols) ** (1.0 / p)


def batched_mean_norms(windows: np.ndarray, A: YoungFunction, scale: float = 1.0) -> np.ndarray:
    """Per row of a (k, ncols) matrix, the smallest lam with
    scale * mean_row A(|w| / lam) <= 1.

    scale = 1 gives the mean-normalized Luxemburg norm, scale = |Q| the raw
    norm, and scale = ncols / N a row that vanishes off its listed columns
    inside a region of N cells.  Pure-power gauges use the closed form.
    Other gauges bracket lam by doubling/halving from max|w|, then run
    Illinois (regula falsi with the stale end's value halved when one end
    moves twice; Dowell & Jarratt 1971) on the excess
    h(u) = log(scale * mean A(|w| e^-u)) in u = log lam, which is linear for
    powers and nearly so for the other gauges; h <= 0 is feasible.  A secant
    that is NaN (an end's excess is +-inf) falls back to the midpoint, and
    every point is clamped 0.4 LUXEMBURG_RTOL hi inside the bracket, so a
    secant landing on an end closes the bracket next step.  Each row stops
    when hi - lo <= LUXEMBURG_RTOL hi and returns its feasible hi; a stopped
    row stops updating, so every row's result is independent of the rest of
    the batch."""
    w = np.abs(np.asarray(windows, dtype=float))
    power = A.power_form()
    if power is not None:
        return _power_norms(np.sum(w ** power[0], axis=1), w.shape[1], power, scale)
    out = np.zeros(w.shape[0])
    live = np.flatnonzero(w.max(axis=1, initial=0.0) > 0.0)
    if live.size == 0:
        return out
    w = w[live]

    def excess(rows, lam):
        with np.errstate(divide="ignore"):
            return np.log(scale * np.mean(A.value(w[rows] / lam[:, None]), axis=1))

    hi = w.max(axis=1)
    rows = np.arange(hi.size)
    h_hi = excess(rows, hi)
    h_lo = np.full(hi.size, np.nan)
    grow, shrink = rows[~(h_hi <= 0.0)], rows[h_hi <= 0.0]
    for _ in range(_BRACKET_STEPS):
        if grow.size == 0:
            break
        h_lo[grow] = h_hi[grow]
        hi[grow] *= 2.0
        h_hi[grow] = excess(grow, hi[grow])
        grow = grow[~(h_hi[grow] <= 0.0)]
    for _ in range(_BRACKET_STEPS):
        if shrink.size == 0:
            break
        cand = hi[shrink] / 2.0
        h = excess(shrink, cand)
        ok = h <= 0.0
        hi[shrink[ok]], h_hi[shrink[ok]] = cand[ok], h[ok]
        h_lo[shrink[~ok]] = h[~ok]
        shrink = shrink[ok]
    lo = hi / 2.0  # infeasible: the bracket search just rejected it
    moved = np.zeros(hi.size, dtype=np.int8)  # +1: hi moved last, -1: lo did
    for _ in range(_SECANT_STEPS):
        if rows.size == 0:
            break
        a, b, ha, hb = lo[rows], hi[rows], h_lo[rows], h_hi[rows]
        # the secant root in log lam, a convex combination of the ends; NaN
        # when an end's excess is +-inf
        with np.errstate(invalid="ignore", divide="ignore"):
            lam = np.exp((ha * np.log(b) - hb * np.log(a)) / (ha - hb))
        lam = np.where(np.isnan(lam), 0.5 * (a + b), lam)
        step = 0.4 * LUXEMBURG_RTOL * b
        lam = np.minimum(np.maximum(lam, a + step), b - step)
        h = excess(rows, lam)
        ok = h <= 0.0
        up, down = rows[ok], rows[~ok]
        hi[up], h_hi[up] = lam[ok], h[ok]
        lo[down], h_lo[down] = lam[~ok], h[~ok]
        h_lo[up[moved[up] > 0]] *= 0.5
        h_hi[down[moved[down] < 0]] *= 0.5
        moved[up], moved[down] = 1, -1
        rows = rows[hi[rows] - lo[rows] > LUXEMBURG_RTOL * hi[rows]]
    out[live] = hi
    return out


def _region_values(f: SampledFunction, Q: Cube | Box) -> np.ndarray:
    if Q.grid != f.grid:
        raise ValueError("cube grid does not match function grid")
    return f.values[Q.slices].reshape(1, -1)


def luxemburg_mean_norm(f: SampledFunction, Q: Cube | Box, A: YoungFunction) -> float:
    """inf { lam > 0 : avg_Q A(|f|/lam) <= 1 }, as a one-row batch."""
    return float(batched_mean_norms(_region_values(f, Q), A)[0])


def luxemburg_raw_norm(f: SampledFunction, Q: Cube | Box, A: YoungFunction) -> float:
    """inf { lam > 0 : int_Q A(|f|/lam) <= 1 }, as a one-row batch with scale |Q|.

    The unit-level condition is the standard <= 1 infimum; for continuous
    strictly increasing gauges this coincides with requiring equality.
    """
    return float(batched_mean_norms(_region_values(f, Q), A, scale=Q.measure)[0])


# ---------------------------------------------------------------------------
# declared-tail integrals: the Dini integral and the bump norm

DINI_LOG_SPAN = 40.0
DINI_PANELS = 100_000
BUMP_LOG_HI = math.log(1e8)
BUMP_PANELS = 200_000


def tail_converges(E: float, B: float) -> bool:
    """True iff int^inf t^E (log t)^B dt/t is finite: E < 0, or E = 0 and
    B < -1.  E = 0 and B = -1 are decided within TAIL_ATOL = 1e-12, since
    exponents that agree exactly can come out of different float formulas
    (p' and (q/r)', say)."""
    return E < -TAIL_ATOL or (E <= TAIL_ATOL and B < -1.0 - TAIL_ATOL)


def _tail_ratio(s: float, x: float) -> float:
    """x^(1-s) e^x Gamma(s, x) = int_0^inf e^-w (1 + w/x)^(s-1) dw for x > 0
    and any real s, and 1 exactly at s = 1.  Above 1 the recurrence
    R(s) = 1 + (s - 1) R(s - 1) / x, a sum of positive terms, brings s down.
    For s < 1, Legendre's continued fraction for e^y y^-s Gamma(s, y) at
    y = max(x, 1) is summed from its 200th level up; modified Lentz (Press
    et al., Numerical Recipes, section 6.2) settles within 85 levels for
    every s <= 1 and y >= 1 tried.  Below 1, Gamma(s, x) adds
    int_x^1 v^(s-1) e^-v dv, summed termwise over the series of e^-v; its
    terms' magnitudes sum to at most e^2 times its value."""
    if s == 1.0:
        return 1.0
    if s > 1.0:
        return 1.0 + (s - 1.0) / x * _tail_ratio(s - 1.0, x)
    y, cf = max(x, 1.0), 0.0
    for i in range(200, 0, -1):
        cf = -i * (i - s) / (y + 1.0 - s + 2 * i + cf)
    h = 1.0 / (y + 1.0 - s + cf)
    if x >= 1.0:
        return x * h
    lx = math.log(x)
    terms = [(-1) ** k / math.factorial(k) * (-math.expm1((s + k) * lx) / (s + k) if s + k else -lx)
             for k in range(max(0, math.ceil(-s)) + 30)]
    return x ** (1.0 - s) * math.exp(x) * (h / math.e + math.fsum(terms))


def _declared_integral(g, lo: float, hi: float, panels: int, E: float, B: float) -> float:
    """int_lo^inf g(u) du for a g ~ e^(E u) u^B that `tail_converges`: the
    midpoint rule on [lo, hi] plus the declared tail g(hi) e^(E (u - hi))
    (u/hi)^B integrated exactly from the end of the last panel.  For E < 0
    that is g(hi)/(-E) times `_tail_ratio`(B + 1, -E hi), the upper
    incomplete gamma function in closed form, and just g(hi)/(-E) when
    B = 0; for E = 0 it is g(hi) hi / (-B - 1)."""
    u = np.linspace(lo, hi, panels + 1)
    du = u[1] - u[0]
    body = float(np.sum(g(0.5 * (u[1:] + u[:-1])) * du))
    end = float(g(np.array(hi)))
    if E < -TAIL_ATOL:
        return body + end / -E * _tail_ratio(B + 1.0, -E * hi)
    return body + end * hi / (-B - 1.0)


def dini_integral(omega: ModulusOmega, c_n: float) -> tuple[float, bool]:
    """(int_0^1 omega(c_n t) dt/t, divergent), and (inf, True) when divergent.

    With u = log 1/(c_n t) the integrand is omega(e^-u) ~ e^(-delta u) u^b,
    so the verdict is `tail_converges(-delta, b)` from `omega.tail()`.  A
    convergent value is the midpoint rule down to t = e^-40 plus the declared
    tail below c_n e^-40: exact for a Holder modulus (c_n^delta / delta),
    and (40 - log c_n)^-eps / eps for the log modulus."""
    if not c_n > 0:
        raise ValueError("c_n must be positive")
    delta, b = omega.tail()
    if not tail_converges(-delta, b):
        return math.inf, True
    lo = -math.log(c_n)
    return _declared_integral(lambda u: omega.value(np.exp(-u)), lo, lo + DINI_LOG_SPAN,
                              DINI_PANELS, -delta, b), False


def bump_norm(A: YoungFunction, alpha: float, p: float) -> tuple[float, bool]:
    """(( int_1^inf A(t)^(q/p) t^-q dt/t )^(1/q), divergent) with
    1/q = 1/p - alpha, and (inf, True) when divergent.

    With A.tail() = (P, b) the integrand is ~ t^E (log t)^B with
    E = P q/p - q and B = b q/p, so membership in the bump class is
    `tail_converges(E, B)` (Perez 1995, Proc. London Math. Soc. 71).  A
    convergent value is log-spaced quadrature up to t = 1e8 plus the declared
    tail beyond it.  The lower limit is fixed at 1, so reported values are
    relative to that choice (membership does not depend on it).
    """
    if not (0 <= alpha < 1):
        raise ValueError("bump norm requires 0 <= alpha < 1")
    if not p > 1:
        raise ValueError("bump norm requires p > 1")
    if alpha > 0 and p >= 1.0 / alpha:
        raise ValueError("bump norm requires p < 1/alpha when alpha > 0")
    q = 1.0 / (1.0 / p - alpha)
    P, b = A.tail()
    E, B = P * q / p - q, b * q / p
    if not tail_converges(E, B):
        return math.inf, True
    with np.errstate(over="ignore", divide="ignore"):  # A(t) = 0 gives g = 0
        g = lambda u: np.exp((q / p) * np.log(A.value(np.exp(u))) - q * u)
        return _declared_integral(g, 0.0, BUMP_LOG_HI, BUMP_PANELS, E, B) ** (1.0 / q), False


# ---------------------------------------------------------------------------
# JSON constructors

def _from_json(classes: tuple, data: dict, kind: str):
    """The member of data["family"] among `classes`, each dataclass field
    read from data as a float; extra keys are ignored."""
    cls = {c.family: c for c in classes}.get(data.get("family"))
    if cls is None:
        raise ValueError(f"unknown {kind} family {data.get('family')!r}")
    return cls(**{f.name: float(data[f.name]) for f in fields(cls)
                  if f.name in data or f.default is MISSING})


def young_from_json(data: dict) -> YoungFunction:
    if data.get("family") == "conjugate":
        return ConjugateGauge(young_from_json(data["base"]))
    return _from_json((PowerGauge, ScaledPowerGauge, PowerLogGauge, ExpPowerGauge, LinearGauge),
                      data, "Young-function")


def modulus_from_json(data: dict) -> ModulusOmega:
    return _from_json((HolderModulus, LogModulus, BorderlineLogModulus), data, "modulus")


def morrey_weight_from_json(data: dict) -> MorreyWeight:
    if data.get("family") == "tabulated":
        return TabulatedWeight(t_values=tuple(data["t"]), values=tuple(data["values"]))
    return _from_json((PowerLawWeight,), data, "Morrey weight")
