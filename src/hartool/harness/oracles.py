"""Brute-force oracle suites.

Each oracle checks an implementation route against an independent one:
closed forms for power gauges, exhaustive enumeration over subsets,
candidate centers, or cubes, and analytic integrals.  They back the
acceptance tests and are runnable from the CLI (`hartool oracle <name>`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product

import numpy as np

from ..gauges import (BorderlineLogModulus, ConjugateGauge, ExpPowerGauge, HolderModulus,
                      LinearGauge, LogModulus, PowerGauge, PowerLawWeight, PowerLogGauge,
                      ScaledPowerGauge, YoungFunction, batched_mean_norms, bump_norm, conjugate,
                      dini_integral, luxemburg_mean_norm, luxemburg_raw_norm)
from ..geometry import (_SNAP, Cube, CubeFamily, Grid, SampledFunction, concentric_box, dilate,
                        enumerate_cubes, integrate, unclipped_dilate_measure)
from ..maximal import (_window_count, fractional_maximal, lemma41_rhs, local_sharp_maximal,
                       sharp_median, sup_inf_over_cubes)
from ..operators import LambdaSequence, RieszKernel, apply_kernel
from ..spaces import TRUNCATION_FACTOR, campanato_seminorm, morrey_norm, prop51_gap
from ..weights import subset_ratio_exact

__all__ = ["OracleCase", "run_oracle", "ORACLE_NAMES", "brute_force_sharp",
           "exhaustive_subset_ratio", "ternary_conjugate", "bisection_mean_norm",
           "golden_section_min", "CountingGauge", "per_box_prop51", "per_box_lemma41",
           "BUMP_VERDICTS", "DINI_VERDICTS"]

CONJUGATE_RTOL = 1e-12
NUMERIC_NORM_RTOL = 1e-12  # numeric Luxemburg route against its references

# Integrals with a known verdict.  Bump rows are (gauge, alpha, p, divergent):
# at p = 2 power_log(2, a) integrates (log(e + t))^a dt/t, divergent for every
# a >= -1; the conjugate of t^4 (log(e + t))^2 grows like s^(4/3) (log s)^(-2/3),
# so thm42's two conjA memberships at its default exponents ((q/r)' = q' = 4/3,
# alpha2 = 1/8) integrate (log t)^(-2/3) and (log t)^(-0.8) dt/t and diverge;
# exp(t) - 1 outgrows every power, and its conjugate grows like s log s.
BUMP_VERDICTS = (
    (PowerGauge(1.5), 0.0, 2.0, False),
    (PowerGauge(2.0), 0.0, 2.0, True),  # E = 0, B = 0
    (PowerLogGauge(2.0, -1.5), 0.0, 2.0, False),  # E = 0, B = -1.5
    (PowerLogGauge(2.0, -1.0), 0.0, 2.0, True),  # E = 0, B = -1
    (PowerLogGauge(2.0, -0.9), 0.0, 2.0, True),
    (PowerLogGauge(2.0, -0.5), 0.0, 2.0, True),
    (PowerLogGauge(2.0, -0.1), 0.0, 2.0, True),
    (ConjugateGauge(PowerLogGauge(4.0, 2.0)), 0.0, 4.0 / 3.0, True),
    (ConjugateGauge(PowerLogGauge(4.0, 2.0)), 0.125, 4.0 / 3.0, True),
    (ConjugateGauge(PowerLogGauge(2.0, 1.0)), 0.0, 3.0, False),  # E = -1
    (ExpPowerGauge(1.0), 0.0, 2.0, True),
    (ConjugateGauge(ExpPowerGauge(1.0)), 0.0, 2.0, False),
    (ConjugateGauge(LinearGauge(1.0)), 0.0, 2.0, True),  # the indicator
)
# Dini rows are (modulus, c, divergent): int_0^1 t^delta dt/t = 1/delta, and
# (log 1/t)^-(1+eps) dt/t converges for every eps > 0, but not at eps = 0.
DINI_VERDICTS = (
    (HolderModulus(1.0), 1.0, False),
    (HolderModulus(0.02), 1.0, False),
    (HolderModulus(0.01), 1.0, False),
    (LogModulus(0.05), 1.0, False),
    (LogModulus(0.01), 1.0, False),
    (LogModulus(1.0), 2.0, False),
    (BorderlineLogModulus(), 1.0, True),
)
# int_0^1 (log(e + 1/t))^-1.5 dt/t, by mpmath adaptive quadrature of
# (log(e + e^u))^-1.5 over u in [0, inf)
DINI_LOG_EPS05 = 2.2975656106


@dataclass(frozen=True)
class OracleCase:
    name: str
    passed: bool
    detail: str


def _rel_err(a: float, b: float) -> float:
    """|a - b| relative to the larger magnitude: 0 for equal values (equal
    infinities included) and inf when they differ and either is inf or NaN,
    since a NaN error would vanish in the `max` that reduces a case."""
    if a == b:
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------------------
# independent references

def brute_force_sharp(values: np.ndarray, s: float) -> float:
    """inf_c of the level-(1-s) median of |values - c| over candidate centers.

    The objective is piecewise linear in c with vertices at pairwise
    midpoints, so scanning midpoints and the values themselves is exact."""
    v = np.sort(np.asarray(values, dtype=float).ravel())
    n = v.size
    kp = _window_count(s, n)
    cands = np.concatenate([v, (v[:, None] + v[None, :]).ravel() / 2.0])
    best = math.inf
    for c in cands:
        d = np.sort(np.abs(v - c))
        best = min(best, d[kp - 1])
    return float(best)


def exhaustive_subset_ratio(wv: np.ndarray, vv: np.ndarray, k: int) -> float:
    """max over |E| = k of w(E)/v(Q minus E) by full enumeration."""
    vtot = vv.sum()
    best = 0.0
    for comb in combinations(range(wv.size), k):
        idx = list(comb)
        den = vtot - vv[idx].sum()
        num = wv[idx].sum()
        if den <= 0:
            if num > 0:
                return math.inf
            continue
        best = max(best, num / den)
    return float(best)


def ternary_conjugate(A: YoungFunction, s: float) -> float:
    """sup_{t>=0} (s t - A(t)), ternary search on the concave objective."""
    if s < 0:
        raise ValueError("conjugate requires s >= 0")
    if s == 0:
        return 0.0
    g = lambda t: s * t - A.value(t)
    hi = 1.0
    for _ in range(400):
        if g(2.0 * hi) <= g(hi):
            break
        hi *= 2.0
    else:
        return math.inf
    lo, hi = 0.0, 2.0 * hi
    for _ in range(300):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if g(m1) < g(m2):
            lo = m1
        else:
            hi = m2
        if hi - lo <= CONJUGATE_RTOL * max(1.0, hi):
            break
    return max(0.0, g(0.5 * (lo + hi)))


def golden_section_min(fun, lo: float, hi: float, steps: int = 200) -> float:
    """min of a convex scalar function on [lo, hi] by golden-section search."""
    r = (math.sqrt(5.0) - 1.0) / 2.0
    for _ in range(steps):
        c1, c2 = hi - r * (hi - lo), lo + r * (hi - lo)
        if not lo < c1 < c2 < hi:
            break
        if fun(c1) < fun(c2):
            hi = c2
        else:
            lo = c1
    return min(fun(lo), fun(hi), fun(0.5 * (lo + hi)))


def bisection_mean_norm(w: np.ndarray, A: YoungFunction, scale: float = 1.0) -> float:
    """Smallest lam with scale * mean A(|w|/lam) <= 1, one row at a time: a
    doubling/halving bracket, then plain bisection down to adjacent floats."""
    w = np.abs(np.asarray(w, dtype=float)).ravel()
    if not w.max(initial=0.0) > 0.0:
        return 0.0
    feasible = lambda lam: scale * float(np.mean(A.value(w / lam))) <= 1.0
    lo = hi = float(w.max())
    for _ in range(2000):
        if feasible(hi):
            break
        hi *= 2.0
    for _ in range(2000):
        if not feasible(lo):
            break
        lo /= 2.0
    for _ in range(2000):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


class CountingGauge(YoungFunction):
    """A gauge's values with its `power_form` hidden, so the Luxemburg
    solvers take the numeric route; counts the `value` calls."""

    def __init__(self, base: YoungFunction):
        self.base, self.calls = base, 0

    def value(self, t):
        self.calls += 1
        return self.base.value(t)


def per_box_prop51(f: SampledFunction, Phi: YoungFunction, Psi: YoungFunction,
                   gamma: float, Q: Cube, cn_dn: float,
                   mf: SampledFunction) -> tuple[float, float, float]:
    """`prop51_gap`'s (lhs, rhs_i, rhs_ii), one box, one integral and one
    Luxemburg solve per concentric side."""
    grid = f.grid
    h = grid.h
    t_cap = int(round(TRUNCATION_FACTOR * grid.side_length / h))
    j_lo_excl = int(math.floor(cn_dn * Q.side_cells + _SNAP)) + 1
    j_lo_incl = int(math.ceil(cn_dn * Q.side_cells - _SNAP))
    psi_inv = lambda meas: Psi.inverse(1.0 / meas)
    absf = abs(f)
    sup_i = sup_ii = 0.0
    for j in range(min(j_lo_incl, j_lo_excl), t_cap + 1):
        box = concentric_box(grid, Q.center2, j)
        if box.is_empty:
            continue
        unclipped = (j * h) ** grid.dim
        if j >= j_lo_excl:
            sup_i = max(sup_i, integrate(absf, box) / unclipped ** (1.0 - gamma))
        if j >= j_lo_incl:
            sup_ii = max(sup_ii, psi_inv(unclipped) * luxemburg_raw_norm(f, box, Phi))
    head = luxemburg_raw_norm(f, dilate(Q, 1), Phi)
    return (luxemburg_raw_norm(mf, Q, Psi), head + sup_i / psi_inv(Q.measure),
            sup_ii / psi_inv(Q.measure))


def per_box_lemma41(f: SampledFunction, Q: Cube, lam: LambdaSequence,
                    gamma: float, r: float) -> float:
    """`lemma41_rhs` with one clipped dilate and one integral per term."""
    absr = SampledFunction(f.grid, np.abs(f.values) ** r)
    total = 0.0
    for m, lam_m in enumerate(lam.values, start=1):
        U = unclipped_dilate_measure(Q, m)
        total += lam_m * U**gamma * (integrate(absr, dilate(Q, m)) / U) ** (1.0 / r)
    return total


# ---------------------------------------------------------------------------
# oracle suites

def _oracle_luxemburg(seed: int) -> list[OracleCase]:
    rng = np.random.default_rng(seed)
    cases = []
    worst = 0.0
    for trial in range(100):
        n = int(rng.choice([16, 32, 64, 128]))
        grid = Grid(1, n, float(rng.uniform(0.5, 2.0)))
        f = SampledFunction(grid, rng.uniform(0, 3, size=n) * rng.choice([1.0, -1.0], size=n))
        m = int(rng.integers(1, n + 1))
        corner = int(rng.integers(0, n - m + 1))
        Q = Cube(grid, (corner,), m)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        gauge = PowerGauge(p)
        sub = np.abs(f.values[Q.slices])
        mean_ref = float(np.mean(sub**p) ** (1.0 / p))
        raw_ref = float((np.sum(sub**p) * grid.h) ** (1.0 / p))
        worst = max(worst,
                    _rel_err(luxemburg_mean_norm(f, Q, gauge), mean_ref),
                    _rel_err(luxemburg_raw_norm(f, Q, gauge), raw_ref))
    cases.append(OracleCase("luxemburg/power-closed-forms", worst <= 1e-9,
                            f"max relative error {worst:.3e} over 100 trials"))
    # the numeric route: powers with power_form hidden against their closed
    # form, every other gauge against the scalar bisection
    rows = rng.uniform(-1, 1, (40, 24)) * 10.0 ** rng.uniform(-6, 6, (40, 1))
    rows[0], rows[1, 1:], rows[2] = 0.0, 0.0, rows[2, 0]  # zero, one-nonzero, constant
    worst_power = worst_other = 0.0
    most_calls = 0
    for scale in (0.05, 1.0, 40.0):
        for gauge in (PowerGauge(1.5), PowerGauge(3.0), ScaledPowerGauge(2.5, 7.0),
                      PowerLogGauge(2.0, 1.0), ExpPowerGauge(1.0),
                      ConjugateGauge(PowerLogGauge(2.0, 1.0)), ConjugateGauge(ExpPowerGauge(1.0))):
            counted = CountingGauge(gauge)
            got = batched_mean_norms(rows, counted, scale)
            most_calls = max(most_calls, counted.calls)
            if gauge.power_form() is not None:
                ref = batched_mean_norms(rows, gauge, scale)
                worst_power = max([worst_power] + list(map(_rel_err, got, ref)))
            else:
                ref = [bisection_mean_norm(r, gauge, scale) for r in rows]
                worst_other = max([worst_other] + list(map(_rel_err, got, ref)))
    cases.append(OracleCase(
        "luxemburg/numeric-route", max(worst_power, worst_other) <= NUMERIC_NORM_RTOL,
        f"max relative error {worst_power:.3e} for hidden powers against the closed form, "
        f"{worst_other:.3e} for power_log, exp_power and the conjugate tables against "
        f"scalar bisection (bound {NUMERIC_NORM_RTOL:.0e}); at most {most_calls} gauge "
        f"evaluations per batch of {rows.shape[0]} rows"))
    return cases


def _oracle_sharp_median(seed: int) -> list[OracleCase]:
    rng = np.random.default_rng(seed)
    exact = True
    detail = ""
    for trial in range(200):
        n = int(rng.integers(2, 65))
        # dyadic lattice keeps midpoint arithmetic exact in floats
        vals = rng.integers(-5 * 2**20, 5 * 2**20, size=n) * 2.0**-20
        s = float(rng.choice([0.5, 0.4, 0.25]))
        grid = Grid(1, 64)
        padded = np.zeros(64)
        padded[:n] = vals
        f = SampledFunction(grid, padded)
        got = sharp_median(f, s, Cube(grid, (0,), n))
        ref = brute_force_sharp(vals, s)
        if got != ref:
            exact = False
            detail = f"trial {trial}: window {got!r} vs brute {ref!r}"
            break
    return [OracleCase("sharp-median/brute-force-centers", exact,
                       detail or "exact equality on 200 random value sets")]


def _oracle_condition_f(seed: int) -> list[OracleCase]:
    rng = np.random.default_rng(seed)
    worst = 0.0
    for trial in range(50):
        ncells = int(rng.integers(2, 17))
        wv = rng.uniform(0, 2, size=ncells)
        vv = rng.uniform(0.05, 2, size=ncells)
        k = int(rng.integers(1, max(2, ncells // 2 + 1)))
        lam, _ = subset_ratio_exact(wv, vv, k)
        ref = exhaustive_subset_ratio(wv, vv, k)
        worst = max(worst, _rel_err(lam, ref))
    return [OracleCase("condition-f/exhaustive-subsets", worst <= 1e-9,
                       f"max relative error {worst:.3e} over 50 trials")]


def _containing_sup_case(name: str, engine: np.ndarray, family: CubeFamily, q0: Cube,
                         stat) -> OracleCase:
    """engine[x] == max of stat(Q) over the family cubes Q with x in Q inside
    q0, exactly, at every cell x of q0; cubes come from `iter_cubes`."""
    last = lambda Q: tuple(c + Q.side_cells - 1 for c in Q.corner)
    per_cube: dict[Cube, float] = {}
    for x in product(*(range(c, c + q0.side_cells) for c in q0.corner)):
        best = -math.inf
        for Q in family.iter_cubes(containing=x):
            if q0.contains_cell(Q.corner) and q0.contains_cell(last(Q)):
                if Q not in per_cube:
                    per_cube[Q] = stat(Q)
                best = max(best, per_cube[Q])
        if engine[x] != best:
            return OracleCase(name, False, f"mismatch at cell {x}: "
                              f"engine {float(engine[x])!r} vs brute {best!r}")
    return OracleCase(name, True, f"exhaustive agreement over {len(per_cube)} cubes")


def _oracle_local_sharp(seed: int) -> list[OracleCase]:
    """Both the all (shift 1) and dyadic (shift m) steps of the engine's
    containment recursion, in 1D on the whole grid and in 2D on a base cube
    off the dyadic lattice."""
    rng = np.random.default_rng(seed)
    cases = []
    for dim, n, corner, side in ((1, 32, (0,), 32), (2, 8, (1, 2), 5)):
        grid = Grid(dim, n)
        f = SampledFunction(grid, rng.integers(-2 * 2**20, 2 * 2**20, size=grid.shape) * 2.0**-20)
        q0 = Cube(grid, corner, side)
        for kind in ("all", "dyadic"):
            family = CubeFamily(grid, kind)
            tag = f"{dim}d-{kind}-N{n}"
            cases.append(_containing_sup_case(
                f"local-sharp/{tag}", local_sharp_maximal(f, 0.5, q0, family).values, family, q0,
                lambda Q: brute_force_sharp(f.values[Q.slices], 0.5)))
            if dim == 2:
                cases.append(_containing_sup_case(
                    f"sup-inf/{tag}", sup_inf_over_cubes(f, family, q0).values, family, q0,
                    lambda Q: float(f.values[Q.slices].min())))
    return cases


def _oracle_conjugate(seed: int) -> list[OracleCase]:
    cases = []
    for p in (1.5, 2.0, 3.0):
        gauge = ScaledPowerGauge(p, 1.0 / p)  # A = t^p / p is self-dual family
        q = p / (p - 1.0)
        worst = max(_rel_err(conjugate(gauge, s), s**q / q) for s in (0.25, 1.0, 2.0, 7.5))
        cases.append(OracleCase(f"conjugate/power-p{p}", worst <= 1e-6,
                                f"max relative error {worst:.3e}"))
    # Legendre table against the ternary search; the bounds are about three
    # times the measured errors (3.9e-9, 3.5e-8 and 3.8e-7), which are the
    # linear log-log interpolation between knots.  The p = 1 table reads inf
    # from s ~ 139, so its range stops at 1e2.
    for name, gauge, top, bound in (("power_log", PowerLogGauge(2.0, 1.0), 3, 1e-8),
                                    ("exp_power", ExpPowerGauge(1.0), 3, 1e-7),
                                    ("power_log-p1", PowerLogGauge(1.0, 1.0), 2, 1e-6)):
        ss = np.logspace(-3, top, 200)
        got = conjugate(gauge, ss)
        worst = max(_rel_err(g, ternary_conjugate(gauge, s)) for g, s in zip(got, ss))
        cases.append(OracleCase(f"conjugate/table-{name}", worst <= bound,
                                f"max relative error {worst:.3e} against the ternary "
                                f"search on logspace(-3, {top}) (bound {bound:.0e})"))
    # just above the kink of exp(t) - 1 at s = 1, against the closed form
    # s log s - s + 1 = sum_n (-d)^n / (n (n - 1)) with d = s - 1, summed for d < 0.01
    d = (1.0 + np.logspace(-12, math.log10(0.2), 2000)) - 1.0  # exact: s = 1 + d
    ref = np.where(d < 0.01, d * d * (1/2 - d * (1/6 - d * (1/12 - d * (1/20 - d / 30)))),
                   (1.0 + d) * np.log1p(d) - d)
    got = conjugate(ExpPowerGauge(1.0), 1.0 + d)
    worst, zeros = float(np.max(np.abs(got - ref) / ref)), int(np.count_nonzero(got == 0.0))
    cases.append(OracleCase("conjugate/table-exp_power-kink", worst <= 1e-6 and zeros == 0,
                            f"max relative error {worst:.3e} and {zeros} zero readings on "
                            f"2000 s in (1, 1.2] against the closed form (bound 1e-6)"))
    return cases


def _oracle_dini(seed: int) -> list[OracleCase]:
    cases = []
    val, div = dini_integral(HolderModulus(1.0), 1.0)
    cases.append(OracleCase("dini/holder-1", (not div) and _rel_err(val, 1.0) <= 1e-6,
                            f"value {val:.8f}, divergent={div}"))
    val, div = dini_integral(HolderModulus(0.5), 2.0)
    cases.append(OracleCase("dini/holder-0.5", (not div) and _rel_err(val, 2 * math.sqrt(2)) <= 1e-5,
                            f"value {val:.8f}, divergent={div}"))
    _, div = dini_integral(BorderlineLogModulus(), 1.0)
    cases.append(OracleCase("dini/log-borderline", div, f"divergent={div}"))
    _, div = dini_integral(LogModulus(1.0), 1.0)
    cases.append(OracleCase("dini/log-eps1-convergent", not div, f"divergent={div}"))
    cases.append(_verdict_case("dini/verdicts", [
        (omega.to_json(), div, dini_integral(omega, c)) for omega, c, div in DINI_VERDICTS]))
    val, div = dini_integral(HolderModulus(0.01), 1.0)
    cases.append(OracleCase("dini/holder-small-delta", (not div) and _rel_err(val, 100.0) <= 1e-9,
                            f"value {val!r} against 1/delta = 100 (bound 1e-9), divergent={div}"))
    val, div = dini_integral(LogModulus(0.5), 1.0)
    err = _rel_err(val, DINI_LOG_EPS05)
    cases.append(OracleCase("dini/log-eps0.5", (not div) and err <= 1e-8,
                            f"value {val!r} against {DINI_LOG_EPS05}, relative error {err:.3e} "
                            f"(bound 1e-8), divergent={div}"))
    return cases


def _verdict_case(name: str, rows) -> OracleCase:
    """One case over rows (label, expected divergent, (value, divergent)): the
    verdict must match, and the value is inf exactly when divergent."""
    wrong = [label for label, expect, (val, div) in rows
             if div != expect or math.isfinite(val) == div]
    return OracleCase(name, not wrong, f"{len(rows) - len(wrong)}/{len(rows)} verdicts right"
                      + (f"; wrong: {wrong}" if wrong else ""))


def _oracle_bump(seed: int) -> list[OracleCase]:
    """The three bump memberships of thm42 at its default exponents, for
    power bases, whose conjugates a s^P make the integral a closed form:
    ( int_1^inf a^(q/p) t^E dt/t )^(1/q) = (a^(q/p) / -E)^(1/q) with
    E = P q/p - q; and the verdict table."""
    p, q, r = 2.0, 4.0, 1.0
    alpha = 1.0 / p - 1.0 / q
    a1 = a2 = alpha / 2.0
    worst = 0.0
    for base, alpha_b, p_b in ((PowerGauge(5.0), 0.0, (q / r) / (q / r - 1.0)),
                               (PowerGauge(5.0), a2, q / (q - 1.0)),
                               (PowerGauge(3.0), a1 * r, p / r)):
        P, a = ConjugateGauge(base).power_form()
        q_b = 1.0 / (1.0 / p_b - alpha_b)
        ref = (a ** (q_b / p_b) / -(P * q_b / p_b - q_b)) ** (1.0 / q_b)
        val, div = bump_norm(ConjugateGauge(base), alpha_b, p_b)
        worst = max(worst, math.inf if div else _rel_err(val, ref))
    return [OracleCase("bump/power-closed-form", worst <= 1e-9,
                       f"max relative error {worst:.3e} over thm42's three memberships "
                       f"with power gauges 5 and 3 (bound 1e-9)"),
            _verdict_case("bump/verdicts", [
                (f"{A.to_json()} alpha={alpha_b} p={p_b:.4g}", div, bump_norm(A, alpha_b, p_b))
                for A, alpha_b, p_b, div in BUMP_VERDICTS])]


def _oracle_kernel(seed: int) -> list[OracleCase]:
    """T1 = apply_kernel(kernel, 1) on [0, 1]^n against closed forms, with the
    observed order log2(err_N / err_2N) over N = 16, 32, 64.  In 1D,
    int_0^1 |x - y|^(gamma - 1) dy = (x^gamma + (1 - x)^gamma) / gamma; in 2D
    at gamma = 0.5 the kernel is 1/|x - y|, whose integral over [0, a] x [0, b]
    from a corner is a asinh(b/a) + b asinh(a/b), summed over the four
    rectangles that meet at x.  The bounds sit under 10% above the errors
    measured at N = 64 (9.2e-3, 4.6e-3 and 6.0e-3); the midpoint-rule weights
    of the cells next to the singular one keep the 1D order below gamma."""
    corner = lambda a, b: a * np.arcsinh(b / a) + b * np.arcsinh(a / b)
    cases = []
    for dim, gamma, bound in ((1, 0.25, 1.0e-2), (1, 0.5, 5.0e-3), (2, 0.5, 6.5e-3)):
        errs = []
        for n in (16, 32, 64):
            grid = Grid(dim, n)
            x = grid.cell_centers()
            t1 = apply_kernel(RieszKernel(dim, gamma), SampledFunction.constant(grid, 1.0))
            if dim == 1:
                ref = (x[:, 0] ** gamma + (1.0 - x[:, 0]) ** gamma) / gamma
            else:
                u, v = x[:, 0], x[:, 1]
                ref = corner(u, v) + corner(1 - u, v) + corner(u, 1 - v) + corner(1 - u, 1 - v)
            errs.append(float(np.max(np.abs(t1.values.ravel() - ref) / ref)))
        orders = ", ".join(f"{math.log2(e0 / e1):.2f}" for e0, e1 in zip(errs, errs[1:]))
        cases.append(OracleCase(
            f"kernel/riesz-{dim}d-gamma{gamma}", errs[-1] <= bound,
            f"max relative error {errs[0]:.3e}, {errs[1]:.3e}, {errs[2]:.3e} at N = 16, 32, 64 "
            f"(bound {bound:.1e} at 64), observed order {orders}"))
    return cases


def _oracle_morrey(seed: int) -> list[OracleCase]:
    rng = np.random.default_rng(seed)
    n = 64
    grid = Grid(1, n)
    family = CubeFamily(grid, "all")
    worst = 0.0
    for _ in range(5):
        f = SampledFunction(grid, rng.uniform(-2, 2, size=n))
        p, lam = 2.0, 0.5
        sigma = (lam - grid.dim) / p
        phi = PowerLawWeight(sigma)
        got = morrey_norm(f, PowerGauge(p), phi, family)
        ref = 0.0
        for Q in enumerate_cubes(family):
            l = Q.side_length
            ref = max(ref, l ** (-lam / p) * float(np.sum(np.abs(f.values[Q.slices]) ** p) * grid.h) ** (1 / p))
        worst = max(worst, _rel_err(got, ref))
    return [OracleCase("morrey/classical-reduction", worst <= 1e-9,
                       f"max relative error {worst:.3e} over 5 functions")]


def _oracle_campanato(seed: int) -> list[OracleCase]:
    """The Campanato seminorm against every enumerated cube.  With
    Phi(t) = t^p, Phi^{-1}(1/|Q|) inf_c ||f - c||_{Phi,Q} is
    inf_c (mean_Q |f - c|^p)^(1/p): for p = 2 the standard deviation of f on
    Q, for p = 1 its mean deviation from a median, and for p = 3 a
    golden-section search over c finds it."""
    rng = np.random.default_rng(seed)
    phi = PowerLawWeight(-0.15)
    cases = []
    for dim, n in ((1, 32), (2, 8)):
        grid = Grid(dim, n)
        for kind in ("all", "dyadic"):
            family = CubeFamily(grid, kind)
            worst = 0.0
            for _ in range(3):
                f = SampledFunction(grid, rng.uniform(-2, 2, size=grid.shape))
                got = campanato_seminorm(f, PowerGauge(2.0), phi, family)
                ref = max(float(np.std(f.values[Q.slices]) / phi.value(None, Q.side_length))
                          for Q in enumerate_cubes(family))
                worst = max(worst, _rel_err(got, ref))
            cases.append(OracleCase(f"campanato/variance-{dim}d-{kind}", worst <= 1e-12,
                                    f"max relative error {worst:.3e} over 3 functions"))
    for p, gauge, best in (
            (1, LinearGauge(1.0), lambda w: float(np.mean(np.abs(w - np.median(w))))),
            (3, PowerGauge(3.0), lambda w: golden_section_min(
                lambda c: float(np.mean(np.abs(w - c) ** 3)), float(w.min()), float(w.max()))
             ** (1.0 / 3.0))):
        worst = 0.0
        for dim, n, kind in ((1, 32, "all"), (1, 32, "dyadic"), (2, 8, "all")):
            family = CubeFamily(Grid(dim, n), kind)
            f = SampledFunction(family.grid, rng.uniform(-2, 2, size=family.grid.shape))
            got = campanato_seminorm(f, gauge, phi, family)
            ref = max(best(f.values[Q.slices].ravel()) / float(phi.value(None, Q.side_length))
                      for Q in enumerate_cubes(family))
            worst = max(worst, _rel_err(got, ref))
        cases.append(OracleCase(f"campanato/power-p{p}", worst <= 1e-9,
                                f"max relative error {worst:.3e} against enumerate_cubes on "
                                f"1D all and dyadic and 2D all (bound 1e-9)"))
    return cases


def _oracle_concentric(seed: int) -> list[OracleCase]:
    """The nested-box sums of `prop51_gap` and `lemma41_rhs` against one
    box per side, on random cubes, functions and scale thresholds."""
    rng = np.random.default_rng(seed)
    gamma = 0.25
    Psi = PowerGauge(4.0)  # 1/4 = 1/2 - gamma
    cases = []
    for dim, n in ((1, 64), (2, 16)):
        grid = Grid(dim, n)
        worst_51 = worst_41 = 0.0
        for Phi in (PowerGauge(2.0), ScaledPowerGauge(2.0, 3.0)):
            f = SampledFunction(grid, rng.uniform(-2, 2, size=grid.shape))
            mf = fractional_maximal(f, gamma, LinearGauge(1.0), CubeFamily(grid, "all"))
            for _ in range(6):
                side = int(rng.integers(1, n + 1))
                Q = Cube(grid, tuple(int(c) for c in rng.integers(0, n - side + 1, size=dim)), side)
                cn_dn = float(rng.uniform(0.0, 3.0))
                rec = prop51_gap(f, Phi, Psi, gamma, Q, cn_dn, mf)
                ref = per_box_prop51(f, Phi, Psi, gamma, Q, cn_dn, mf)
                worst_51 = max(worst_51, *(_rel_err(a, b) for a, b in
                                           zip((rec.lhs, rec.rhs_i, rec.rhs_ii), ref)))
                lam = LambdaSequence(tuple(rng.choice([0.0, 0.5, 2.0], size=8)), "from_omega")
                r = float(rng.choice([1.0, 1.5, 2.0]))
                worst_41 = max(worst_41, _rel_err(lemma41_rhs(f, Q, lam, gamma, r),
                                                  per_box_lemma41(f, Q, lam, gamma, r)))
        for name, worst in (("prop51", worst_51), ("lemma41", worst_41)):
            cases.append(OracleCase(f"concentric/{name}-{dim}d", worst <= 1e-12,
                                    f"max relative error {worst:.3e} against one box per "
                                    f"side over 12 cubes"))
    return cases


def _oracle_cubes(seed: int) -> list[OracleCase]:
    grid = Grid(1, 4)
    all4 = enumerate_cubes(CubeFamily(grid, "all"))
    dy = enumerate_cubes(CubeFamily(grid, "dyadic"))
    at0 = enumerate_cubes(CubeFamily(grid, "all"), containing=(0,))
    ok = len(all4) == 10 and len(dy) == 7 and len(at0) == 4
    return [OracleCase("cubes/enumeration-counts", ok,
                       f"counts all={len(all4)} dyadic={len(dy)} at0={len(at0)}")]


ORACLE_NAMES = {
    "luxemburg": _oracle_luxemburg,
    "sharp_median": _oracle_sharp_median,
    "condition_f": _oracle_condition_f,
    "local_sharp": _oracle_local_sharp,
    "conjugate": _oracle_conjugate,
    "dini": _oracle_dini,
    "bump": _oracle_bump,
    "kernel": _oracle_kernel,
    "morrey": _oracle_morrey,
    "campanato": _oracle_campanato,
    "concentric": _oracle_concentric,
    "cubes": _oracle_cubes,
}


def run_oracle(name: str, seed: int = 0) -> list[OracleCase]:
    if name == "all":
        out = []
        for key in ORACLE_NAMES:
            out.extend(ORACLE_NAMES[key](seed))
        return out
    if name not in ORACLE_NAMES:
        raise ValueError(f"unknown oracle {name!r}; known: {sorted(ORACLE_NAMES)} or 'all'")
    return ORACLE_NAMES[name](seed)
