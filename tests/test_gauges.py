import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hartool import (BorderlineLogModulus, ConjugateGauge, Cube, CubeFamily,
                     ExpPowerGauge, Grid, HolderModulus, LinearGauge, LogModulus, PowerGauge,
                     PowerLawWeight, PowerLogGauge, SampledFunction,
                     ScaledPowerGauge, TabulatedWeight, bump_norm, conjugate,
                     dini_integral, evaluate, inverse, luxemburg_mean_norm,
                     luxemburg_raw_norm, modulus_from_json, morrey_weight_from_json,
                     young_from_json)
from hartool.gauges import (LUXEMBURG_RTOL, _legendre_table, _power_norms, _tail_ratio,
                            batched_mean_norms, tail_converges)
from hartool.harness.oracles import (BUMP_VERDICTS, DINI_VERDICTS, CountingGauge,
                                     ternary_conjugate)

NUMERIC_GAUGES = [PowerLogGauge(2.0, 1.0), ExpPowerGauge(1.0),
                  ConjugateGauge(PowerLogGauge(2.0, 1.0)), ConjugateGauge(ExpPowerGauge(1.0))]
NUMERIC_IDS = ["power_log", "exp_power", "conjugate_power_log", "conjugate_exp_power"]

ALL_GAUGES = [
    PowerGauge(2.0),
    PowerGauge(1.5),
    ScaledPowerGauge(2.0, 0.5),
    PowerLogGauge(2.0, 1.0),
    ExpPowerGauge(1.0),
    LinearGauge(1.0),
    LinearGauge(2.5),
]


def test_eval_examples():
    assert evaluate(PowerGauge(2.0), 3.0) == 9.0
    assert evaluate(LinearGauge(1.0), 5.0) == 5.0
    assert evaluate(PowerLogGauge(2.0, 1.0), 0.0) == 0.0
    with pytest.raises(ValueError):
        evaluate(PowerGauge(2.0), -1.0)


def test_inverse_examples():
    assert inverse(PowerGauge(2.0), 9.0) == pytest.approx(3.0, abs=1e-11)
    assert inverse(PowerGauge(3.0), 8.0) == pytest.approx(2.0, abs=1e-11)
    a = PowerLogGauge(2.0, 1.0)
    u = evaluate(a, 1.7)
    assert inverse(a, u) == pytest.approx(1.7, abs=1e-10)
    assert inverse(a, 0.0) == 0.0


@pytest.mark.parametrize("gauge", ALL_GAUGES, ids=lambda g: g.family + str(g.to_json()))
def test_inverse_round_trip(gauge):
    for t in (1e-3, 0.1, 1.0, 7.3, 120.0, 1e6):
        u = float(gauge.value(t))
        if not math.isfinite(u):
            continue
        assert inverse(gauge, u) == pytest.approx(t, rel=1e-9)


def test_inverse_strictly_increasing():
    a = PowerLogGauge(2.0, 1.0)
    us = np.linspace(0.1, 50, 40)
    ts = [inverse(a, u) for u in us]
    assert all(t2 > t1 for t1, t2 in zip(ts, ts[1:]))


def test_conjugate_examples():
    assert conjugate(ScaledPowerGauge(2.0, 0.5), 3.0) == pytest.approx(4.5, abs=1e-8)
    assert conjugate(PowerGauge(2.0), 0.0) == 0.0
    expected = 2.0 ** 1.5 * (2.0 / 3.0)  # closed form s^{p'}/p', p' = 3/2
    assert conjugate(ScaledPowerGauge(3.0, 1.0 / 3.0), 2.0) == pytest.approx(expected, rel=1e-6)
    assert conjugate(LinearGauge(1.0), 0.7) == 0.0
    assert conjugate(LinearGauge(1.0), 1.5) == math.inf


@pytest.mark.parametrize("gauge", [PowerGauge(2.0), ScaledPowerGauge(3.0, 0.25),
                                   PowerLogGauge(2.0, 1.0), ExpPowerGauge(1.0)],
                         ids=lambda g: g.family)
def test_youngs_inequality_on_log_grid(gauge):
    ts = np.logspace(-3, 3, 100)
    ss = np.logspace(-3, 3, 100)
    a_vals = np.asarray(gauge.value(ts), dtype=float)
    prod = ss[:, None] * ts[None, :]
    reference = np.array([ternary_conjugate(gauge, s) for s in ss])
    # the reference, then the closed form (powers) or the Legendre table (the
    # rest) that the package evaluates.  The table errs by at most ~4e-8 of
    # A* (`hartool oracle conjugate`); on this grid no pair was measured with
    # s t > A*(s) + A(t) for the table either
    for conj_vals in (reference, ConjugateGauge(gauge).value(ss)):
        bound = conj_vals[:, None] + a_vals[None, :]
        scale = np.maximum(1.0, np.abs(bound))
        finite = np.isfinite(bound)
        assert np.all(prod[finite] <= bound[finite] + 1e-9 * scale[finite])


def test_conjugate_table_matches_ternary():
    # the power base takes the closed form, the power-log base the table
    for base in (PowerGauge(2.5), PowerLogGauge(2.0, 1.0)):
        conj = ConjugateGauge(base)
        s = np.logspace(-3, 3, 50)
        exact = np.array([ternary_conjugate(conj.base, x) for x in s])
        table = conj.value(np.tile(s, (400, 1)))[0]
        assert np.allclose(table, exact, rtol=1e-5)


@pytest.mark.parametrize("base", [PowerGauge(2.0), ScaledPowerGauge(3.0, 0.25), LinearGauge(1.0),
                                  LinearGauge(2.0), PowerLogGauge(2.0, 1.0), ExpPowerGauge(1.0)],
                         ids=lambda g: g.family + str(g.to_json()))
def test_conjugate_value_does_not_depend_on_input_shape(base):
    conj = ConjugateGauge(base)
    for s in (0.0, 0.3, 1.0, 1.035, 3.0, 250.0):
        scalar = conj.value(s)
        assert np.array_equal(conj.value(np.array([s])), [scalar])
        assert np.array_equal(conj.value(np.full((3, 4), s)), np.full((3, 4), scalar))
        assert np.array_equal(conjugate(base, s), scalar)


@pytest.mark.parametrize("base", [PowerGauge(2.0), PowerGauge(1.5), ScaledPowerGauge(3.0, 0.25),
                                  ScaledPowerGauge(2.5, 7.0), LinearGauge(2.0), LinearGauge(1.0),
                                  PowerLogGauge(2.0, 1.0), ExpPowerGauge(1.0)],
                         ids=lambda g: g.family + str(g.to_json()))
def test_conjugate_power_form_matches_ternary(base):
    power = ConjugateGauge(base).power_form()
    if base.power_form() is None or base.power_form()[0] == 1.0:
        assert power is None  # the indicator or the table
        return
    q, b = power
    p = base.power_form()[0]
    assert q == pytest.approx(p / (p - 1.0), rel=1e-15)
    for s in np.logspace(-3, 3, 25):
        assert b * s**q == pytest.approx(ternary_conjugate(base, s), rel=1e-10)


def test_table_conjugate_is_inf_where_the_maximizer_leaves_the_grid():
    # the maximizer of s t - t log(e + t) is about e^(s - 1), past 1e60 for s > ~139
    conj = ConjugateGauge(PowerLogGauge(1.0, 1.0))
    assert conj.value(100.0) == pytest.approx(ternary_conjugate(conj.base, 100.0), rel=1e-5)
    assert conj.value(150.0) == math.inf
    assert ConjugateGauge(PowerLogGauge(2.0, 1.0)).value(2e15) == math.inf


def test_legendre_table_of_an_overflowing_base_builds_without_warnings():
    # exp(t^a) - 1 overflows long before t = 1e60, the end of the table's t grid
    for base in (ExpPowerGauge(1.0), ExpPowerGauge(2.0)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log_s, log_v = _legendre_table.__wrapped__(base)
        assert np.all(np.isfinite(log_s)) and not np.any(np.isnan(log_v))


TABLE_BASES = [PowerLogGauge(2.0, 1.0), PowerLogGauge(1.0, 1.0), ExpPowerGauge(1.0),
               ExpPowerGauge(2.0)]


@pytest.mark.parametrize("base", TABLE_BASES, ids=lambda g: g.family + str(g.to_json()))
def test_legendre_pairs_match_ternary(base):
    log_s, vals = base.legendre_pair(np.logspace(-3, 1, 9))
    ref = [ternary_conjugate(base, math.exp(x)) for x in log_s]
    assert np.allclose(vals, ref, rtol=1e-9, atol=0.0)


@given(base=st.sampled_from(TABLE_BASES), x=st.floats(-3.0, 2.0), y=st.floats(-3.0, 2.0),
       w=st.floats(0.0, 1.0))
def test_table_conjugate_is_nondecreasing_and_convex(base, x, y, w):
    conj = ConjugateGauge(base)
    s1, s2 = sorted((10.0**x, 10.0**y))
    v1, v2, v = conj.value(np.array([s1, s2, w * s1 + (1.0 - w) * s2]))
    assert v1 <= v2
    # the interpolant's relative error (below 4e-8) bounds the tolerance
    assert v <= (w * v1 + (1.0 - w) * v2) * (1.0 + 1e-7)


@given(base=st.sampled_from(TABLE_BASES), lo=st.floats(-4.0, 1.0), width=st.floats(0.5, 3.0))
def test_table_conjugate_satisfies_youngs_inequality(base, lo, width):
    ts = np.logspace(lo, lo + width, 40)
    ss = np.logspace(-3.0, 2.0, 40)
    a_vals = np.asarray(base.value(ts), dtype=float)
    bound = ConjugateGauge(base).value(ss)[:, None] + a_vals[None, :]
    finite = np.isfinite(bound)
    assert np.all((ss[:, None] * ts[None, :])[finite] <= bound[finite] * (1.0 + 1e-7))


@given(base=st.sampled_from([ExpPowerGauge(1.0), PowerLogGauge(1.0, 1.0)]),
       s=st.floats(0.0, 1.0), d=st.floats(1e-12, 0.2))
def test_table_conjugate_vanishes_exactly_up_to_the_kink(base, s, d):
    # A'(0+) = 1 for both bases: A* is 0 on [0, 1] and positive above
    conj = ConjugateGauge(base)
    assert conj.value(s) == 0.0
    assert conj.value(1.0 + d) > 0.0


def test_conjugate_of_a_nonconvex_base_is_rejected():
    # t log(e + t)^-0.5 passes the gauge's validation but its slope falls
    with pytest.raises(ValueError, match="convex"):
        ConjugateGauge(PowerLogGauge(1.0, -0.5)).value(1.0)
    assert ConjugateGauge(PowerLogGauge(1.0, 1.0)).value(1.0) == 0.0


def test_luxemburg_examples():
    g = Grid(1, 8)
    q = Cube(g, (0,), 8)
    f3 = SampledFunction.constant(g, 3.0)
    assert luxemburg_mean_norm(f3, q, PowerGauge(2.0)) == pytest.approx(3.0, rel=1e-11)
    half = SampledFunction(g, [1, 1, 1, 1, 0, 0, 0, 0])
    assert luxemburg_mean_norm(half, q, PowerGauge(2.0)) == pytest.approx(
        math.sqrt(0.5), abs=1e-10)
    zero = SampledFunction.constant(g, 0.0)
    assert luxemburg_mean_norm(zero, q, PowerGauge(2.0)) == 0.0
    assert luxemburg_raw_norm(zero, q, PowerGauge(2.0)) == 0.0
    # raw norm of 1 over |Q| = 0.25 with p = 2 is 0.5
    g4 = Grid(1, 4)
    one = SampledFunction.constant(g4, 1.0)
    assert luxemburg_raw_norm(one, Cube(g4, (0,), 1), PowerGauge(2.0)) == pytest.approx(
        0.5, rel=1e-11)


def test_luxemburg_power_closed_forms_random():
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.choice([8, 16, 32]))
        g = Grid(1, n, float(rng.uniform(0.5, 3.0)))
        f = SampledFunction(g, rng.uniform(-2, 2, n))
        m = int(rng.integers(1, n + 1))
        q = Cube(g, (int(rng.integers(0, n - m + 1)),), m)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        sub = np.abs(f.values[q.slices])
        mean_ref = float(np.mean(sub ** p) ** (1 / p))
        raw_ref = float((np.sum(sub ** p) * g.h) ** (1 / p))
        assert luxemburg_mean_norm(f, q, PowerGauge(p)) == pytest.approx(mean_ref, rel=1e-9, abs=1e-12)
        assert luxemburg_raw_norm(f, q, PowerGauge(p)) == pytest.approx(raw_ref, rel=1e-9, abs=1e-12)
        # power-law identity raw = mean * |Q|^{1/p}
        assert luxemburg_raw_norm(f, q, PowerGauge(p)) == pytest.approx(
            luxemburg_mean_norm(f, q, PowerGauge(p)) * q.measure ** (1 / p), rel=1e-9, abs=1e-12)


def test_luxemburg_homogeneity_and_monotonicity():
    rng = np.random.default_rng(12)
    g = Grid(1, 16)
    q = Cube(g, (2,), 9)
    for gauge in (PowerGauge(2.0), PowerLogGauge(2.0, 1.0), ExpPowerGauge(1.0)):
        f = SampledFunction(g, rng.uniform(-1, 1, 16))
        alpha = 3.7
        assert luxemburg_mean_norm(f.scaled(alpha), q, gauge) == pytest.approx(
            alpha * luxemburg_mean_norm(f, q, gauge), rel=1e-10)
        bigger = SampledFunction(g, np.abs(f.values) + rng.uniform(0, 1, 16))
        assert luxemburg_mean_norm(bigger, q, gauge) >= luxemburg_mean_norm(f, q, gauge) - 1e-12
        assert luxemburg_raw_norm(f.scaled(-alpha), q, gauge) == pytest.approx(
            alpha * luxemburg_raw_norm(f, q, gauge), rel=1e-10)


@pytest.mark.parametrize("gauge", [PowerLogGauge(2.0, 1.0), ExpPowerGauge(1.0),
                                   ConjugateGauge(PowerLogGauge(2.0, 1.0))],
                         ids=["power_log", "exp_power", "conjugate"])
def test_batched_norms_match_one_row_batches_and_scalar_norms(gauge):
    rng = np.random.default_rng(14)
    for g in (Grid(1, 16, 2.0), Grid(2, 8, 2.0)):
        vals = rng.uniform(-2, 2, g.shape)
        vals.ravel()[:2] = 0.0  # a zero window at m = 1
        f = SampledFunction(g, vals)
        for m in (1, 3, 5):
            cubes = [q for q in CubeFamily(g, "all").iter_cubes() if q.side_cells == m]
            rows = np.array([f.values[q.slices].ravel() for q in cubes])
            scale = 0.3
            batch = batched_mean_norms(rows, gauge, scale)
            singles = [batched_mean_norms(r[None, :], gauge, scale)[0] for r in rows]
            assert np.array_equal(batch, singles)
            # smallest feasible lambda, to the solver's relative tolerance
            live = batch > 0
            cond = lambda lam: scale * np.mean(
                gauge.value(np.abs(rows[live]) / lam[:, None]), axis=1)
            assert np.all(cond(batch[live]) <= 1.0)
            assert np.all(cond(batch[live] * (1 - 1e-12)) > 1.0)
            assert np.array_equal(batched_mean_norms(rows, gauge),
                                  [luxemburg_mean_norm(f, q, gauge) for q in cubes])
            assert np.array_equal(batched_mean_norms(rows, gauge, cubes[0].measure),
                                  [luxemburg_raw_norm(f, q, gauge) for q in cubes])


@pytest.mark.parametrize("gauge", NUMERIC_GAUGES, ids=NUMERIC_IDS)
def test_numeric_solve_makes_few_gauge_evaluations(gauge):
    # bracket plus Illinois took 9-12 evaluations per batch here; bisection took 47-48
    rng = np.random.default_rng(15)
    rows = rng.uniform(-1, 1, (300, 16)) * 10.0 ** rng.uniform(-6, 6, (300, 1))
    counted = CountingGauge(gauge)
    norms = batched_mean_norms(rows, counted)
    assert counted.calls <= 16
    assert np.array_equal(norms, batched_mean_norms(rows, gauge))


def test_numeric_solve_of_a_hidden_power_matches_the_closed_form():
    rng = np.random.default_rng(16)
    rows = rng.uniform(-1, 1, (300, 16)) * 10.0 ** rng.uniform(-6, 6, (300, 1))
    rows[0] = 0.0
    for scale in (0.05, 1.0, 40.0):
        numeric = batched_mean_norms(rows, CountingGauge(PowerGauge(3.0)), scale)
        exact = _power_norms(np.sum(np.abs(rows) ** 3, axis=1), rows.shape[1], (3.0, 1.0), scale)
        assert numeric[0] == exact[0] == 0.0
        assert np.allclose(numeric, exact, rtol=2e-13, atol=0.0)


_MAGNITUDES = st.floats(1e-6, 1e6)


@st.composite
def _norm_rows(draw):
    """A batch of rows of one width: spread over 1e-6..1e6 with signs and
    zeros, all zero, one nonzero entry, or constant."""
    ncols = draw(st.integers(1, 12))
    rows = []
    for kind in draw(st.lists(st.sampled_from(["spread", "zero", "single", "constant"]),
                              min_size=1, max_size=5)):
        row = np.zeros(ncols)
        if kind == "spread":
            entry = st.one_of(st.just(0.0), _MAGNITUDES, _MAGNITUDES.map(lambda x: -x))
            row[:] = draw(st.lists(entry, min_size=ncols, max_size=ncols))
        elif kind == "single":
            row[draw(st.integers(0, ncols - 1))] = draw(_MAGNITUDES)
        elif kind == "constant":
            row[:] = draw(_MAGNITUDES)
        rows.append(row)
    return np.array(rows)


@given(gauge=st.sampled_from(NUMERIC_GAUGES), rows=_norm_rows(),
       scale=st.sampled_from([0.05, 1.0, 40.0]), factor=st.floats(1e-3, 1e3),
       growth=st.floats(0.0, 1.0))
# a constant row: exp_power's bracket doubles from max|w|
@example(gauge=ExpPowerGauge(1.0), rows=np.full((1, 4), 3.0), scale=1.0, factor=7.0,
         growth=0.5)
def test_numeric_norm_properties(gauge, rows, scale, factor, growth):
    lam = batched_mean_norms(rows, gauge, scale)
    # each row is solved on its own
    assert np.array_equal(lam, [batched_mean_norms(r[None, :], gauge, scale)[0] for r in rows])
    assert np.all((lam > 0) == np.any(rows != 0, axis=1))
    # the smallest feasible lambda, to the solver's relative tolerance
    live = lam > 0
    level = lambda x: scale * np.mean(gauge.value(np.abs(rows[live]) / x[:, None]), axis=1)
    assert np.all(level(lam[live]) <= 1.0)
    assert np.all(level(lam[live] * (1.0 - 2.0 * LUXEMBURG_RTOL)) > 1.0)
    # homogeneous of degree one, and monotone in |w|
    scaled = batched_mean_norms(factor * rows, gauge, scale)
    assert np.allclose(scaled, factor * lam, rtol=4.0 * LUXEMBURG_RTOL, atol=0.0)
    bigger = batched_mean_norms(np.abs(rows) * (1.0 + growth), gauge, scale)
    assert np.all(bigger >= lam * (1.0 - 2.0 * LUXEMBURG_RTOL))


def test_holder_inequality_mean_norms():
    # avg_Q |f| <= 2 ||f||_Phi,Q ||1||_conjPhi,Q with the numeric conjugate
    rng = np.random.default_rng(13)
    g = Grid(1, 32)
    one = SampledFunction.constant(g, 1.0)
    for p in (1.5, 2.0, 3.0):
        phi = PowerGauge(p)
        conj = ConjugateGauge(phi)
        for _ in range(5):
            f = SampledFunction(g, rng.uniform(-3, 3, 32))
            m = int(rng.integers(2, 33))
            q = Cube(g, (int(rng.integers(0, 32 - m + 1)),), m)
            avg = float(np.mean(np.abs(f.values[q.slices])))
            bound = 2.0 * luxemburg_mean_norm(f, q, phi) * luxemburg_mean_norm(one, q, conj)
            assert avg <= bound * (1 + 1e-9)


def test_dini_examples():
    val, div = dini_integral(HolderModulus(1.0), 1.0)
    assert not div and val == pytest.approx(1.0, abs=1e-6)
    val, div = dini_integral(HolderModulus(0.5), 2.0)
    assert not div and val == pytest.approx(2 * math.sqrt(2), abs=1e-5)
    _, div = dini_integral(BorderlineLogModulus(), 1.0)
    assert div
    _, div = dini_integral(LogModulus(0.5), 1.0)
    assert not div
    with pytest.raises(ValueError):
        dini_integral(HolderModulus(1.0), 0.0)


def test_bump_norm_examples():
    val, div = bump_norm(LinearGauge(1.0), 0.0, 2.0)
    assert not div and val == pytest.approx(1.0, abs=1e-4)
    _, div = bump_norm(PowerGauge(2.0), 0.0, 2.0)
    assert div
    for s, expect_in in ((1.5, True), (3.0, False)):
        _, div = bump_norm(PowerGauge(s) if s > 1 else LinearGauge(s), 0.0, 2.0)
        assert div != expect_in
    with pytest.raises(ValueError):
        bump_norm(PowerGauge(2.0), 0.5, 3.0)  # p >= 1/alpha


def test_bump_norm_fractional_index():
    # alpha > 0 shifts the tail exponent: t^s integrand with q = 1/(1/p - alpha)
    val, div = bump_norm(LinearGauge(1.0), 0.25, 2.0)
    assert not div and math.isfinite(val)


@pytest.mark.parametrize("gauge, alpha, p, divergent", BUMP_VERDICTS,
                         ids=[f"{g.to_json()}-alpha{a}-p{p:.4g}" for g, a, p, _ in BUMP_VERDICTS])
def test_bump_verdict_is_exact(gauge, alpha, p, divergent):
    # each row's truth is stated with the table in `hartool.harness.oracles`
    val, div = bump_norm(gauge, alpha, p)
    assert div == divergent
    assert math.isfinite(val) != divergent


@pytest.mark.parametrize("omega, c, divergent", DINI_VERDICTS,
                         ids=[str(m.to_json()) for m, _, _ in DINI_VERDICTS])
def test_dini_verdict_is_exact(omega, c, divergent):
    val, div = dini_integral(omega, c)
    assert div == divergent
    assert math.isfinite(val) != divergent


def test_declared_tail_integrals_match_closed_forms():
    for delta in (1.0, 0.1, 0.02, 0.01):  # int_0^1 (c t)^delta dt/t = c^delta / delta
        assert dini_integral(HolderModulus(delta), 2.0)[0] == pytest.approx(
            2.0**delta / delta, rel=1e-8)
    # the log modulus includes its tail below t = e^-40: (40 - log c)^-eps / eps
    assert dini_integral(LogModulus(0.1), 1.0)[0] == pytest.approx(10.415, abs=1e-3)
    # power_log(2, -1.5) at p = 2: int_1^inf (log(e + t))^-1.5 dt/t, by mpmath
    assert bump_norm(PowerLogGauge(2.0, -1.5), 0.0, 2.0)[0] == pytest.approx(
        1.51577228, rel=1e-8)


# ( int_1^inf A(t)^(q/p) t^-q dt/t )^(1/q) at alpha = 0, by mpmath quadrature
# at 30 digits; the declared tails have E = 2 - p < 0 and B = a q/p != 0
BUMP_POWER_LOG_REFS = [
    ((2.0, 1.0), 2.02, 48.117179556816),
    ((2.0, 1.0), 2.2, 4.4317587764035),
    ((2.0, -0.5), 2.05, 2.5149100843602),
    ((2.0, -1.5), 2.05, 1.2616186156633),  # B = -1.5
]


@pytest.mark.parametrize("params, p, ref", BUMP_POWER_LOG_REFS)
def test_bump_norm_log_factor_tail_is_exact(params, p, ref):
    val, div = bump_norm(PowerLogGauge(*params), 0.0, p)
    assert not div and val == pytest.approx(ref, rel=1e-8)


def test_tail_ratio_matches_incomplete_gamma():
    # x^(1-s) e^x Gamma(s, x) in closed form: s = 1 gives 1, s = 2 gives 1 + 1/x,
    # s = 0 gives x e^x E1(x), and s = 1/2 gives sqrt(pi x) e^x erfc(sqrt x)
    for x in (1e-6, 0.05, 0.92, 1.0, 18.4, 200.0):
        assert _tail_ratio(1.0, x) == 1.0
        assert _tail_ratio(2.0, x) == pytest.approx(1.0 + 1.0 / x, rel=1e-13)
        assert _tail_ratio(0.5, x) == pytest.approx(
            math.sqrt(math.pi * x) * math.exp(x) * math.erfc(math.sqrt(x)), rel=1e-11)
    # E1(1) = 0.21938393439552027 (Abramowitz & Stegun 5.1)
    assert _tail_ratio(0.0, 1.0) == pytest.approx(math.e * 0.21938393439552027, rel=1e-13)


def test_tail_converges_decides_the_borderline_within_tolerance():
    assert tail_converges(-1e-11, 0.0) and not tail_converges(-1e-13, 0.0)
    assert tail_converges(1e-13, -1.5) and not tail_converges(1e-11, -1.5)
    assert not tail_converges(0.0, -1.0) and not tail_converges(0.0, -1.0 - 1e-13)
    assert tail_converges(0.0, -1.0 - 1e-11)


def test_conjugate_tail_follows_the_legendre_pair():
    inf = math.inf
    assert ConjugateGauge(PowerGauge(3.0)).tail() == (1.5, 0.0)
    assert ConjugateGauge(PowerLogGauge(4.0, 2.0)).tail() == pytest.approx((4 / 3, -2 / 3))
    assert ConjugateGauge(ExpPowerGauge(2.0)).tail() == (1.0, 0.5)
    assert ConjugateGauge(LinearGauge(1.0)).tail()[0] == inf
    assert ConjugateGauge(PowerLogGauge(1.0, 2.0)).tail() == (inf, 0.5)
    assert ConjugateGauge(ConjugateGauge(PowerGauge(3.0))).tail() == pytest.approx((3.0, 0.0))
    # the table values follow the declared tail: A*(s) / (s^P (log s)^b)
    # drifts by at most 16% over eight decades of s (lower-order log terms),
    # where flipping the sign of b would move it by a factor of 2.3 or more
    s = np.logspace(6, 14, 9)
    for base in (PowerLogGauge(4.0, 2.0), PowerLogGauge(2.0, -1.5), ExpPowerGauge(2.0)):
        P, b = ConjugateGauge(base).tail()
        ratio = conjugate(base, s) / (s**P * np.log(s) ** b)
        assert ratio.max() / ratio.min() < 1.25, base.to_json()


def test_modulus_monotone():
    ts = np.linspace(0.01, 0.99, 50)
    for mod in (HolderModulus(0.5), LogModulus(0.7), BorderlineLogModulus()):
        vals = np.asarray(mod.value(ts))
        assert np.all(np.diff(vals) >= -1e-15)
        assert np.all(vals >= 0)


def test_doubling_constants():
    assert PowerGauge(2.0).doubling_constant() == pytest.approx(4.0)
    a = PowerLogGauge(2.0, 1.0)
    bound = a.doubling_constant()
    ts = np.logspace(-3, 6, 200)
    assert np.all(a.value(2 * ts) <= bound * a.value(ts) * (1 + 1e-12))
    assert ExpPowerGauge(1.0).doubling_constant() is None
    # a conjugate of a power base is a power, t^p' up to scale: exactly 2^p'
    assert ConjugateGauge(PowerGauge(3.0)).doubling_constant() == 2 ** 1.5
    assert ConjugateGauge(PowerLogGauge(2.0, 1.0)).doubling_constant() is None


def test_json_constructors():
    for gauge in ALL_GAUGES:
        back = young_from_json(gauge.to_json())
        assert back == gauge
    conj = ConjugateGauge(PowerGauge(2.0))
    assert young_from_json(conj.to_json()) == conj
    for mod in (HolderModulus(0.5), LogModulus(0.7), BorderlineLogModulus()):
        assert modulus_from_json(mod.to_json()) == mod
    assert young_from_json({"family": "linear"}) == LinearGauge(1.0)
    for from_json in (young_from_json, modulus_from_json, morrey_weight_from_json):
        with pytest.raises(ValueError, match="unknown"):
            from_json({"family": "nope"})
    with pytest.raises(KeyError):
        young_from_json({"family": "power"})


# every registered family, with the descriptor it writes, spelled out
DESCRIPTORS = [
    (young_from_json, PowerGauge(3.0), {"family": "power", "p": 3.0}),
    (young_from_json, ScaledPowerGauge(2.0, 0.5), {"family": "power_scaled", "p": 2.0, "a": 0.5}),
    (young_from_json, PowerLogGauge(2.0, -1.5), {"family": "power_log", "p": 2.0, "a": -1.5}),
    (young_from_json, ExpPowerGauge(2.0), {"family": "exp_power", "a": 2.0}),
    (young_from_json, LinearGauge(1.5), {"family": "linear", "r": 1.5}),
    (young_from_json, ConjugateGauge(PowerGauge(3.0)),
     {"family": "conjugate", "base": {"family": "power", "p": 3.0}}),
    (young_from_json, ConjugateGauge(PowerLogGauge(2.0, 1.0)),
     {"family": "conjugate", "base": {"family": "power_log", "p": 2.0, "a": 1.0}}),
    (modulus_from_json, HolderModulus(0.5), {"family": "holder", "delta": 0.5}),
    (modulus_from_json, LogModulus(0.7), {"family": "log", "eps": 0.7}),
    (modulus_from_json, BorderlineLogModulus(), {"family": "log_borderline"}),
    (morrey_weight_from_json, PowerLawWeight(-0.5), {"family": "power_law", "sigma": -0.5}),
    (morrey_weight_from_json, TabulatedWeight((0.1, 1.0), (2.0, 1.0)),
     {"family": "tabulated", "t": [0.1, 1.0], "values": [2.0, 1.0]}),
]


@pytest.mark.parametrize("from_json, member, descriptor", DESCRIPTORS,
                         ids=[d["family"] + ("-" + d["base"]["family"] if "base" in d else "")
                              for _, _, d in DESCRIPTORS])
def test_descriptor_is_family_name_plus_parameters(from_json, member, descriptor):
    assert member.to_json() == descriptor
    assert list(member.to_json()) == list(descriptor)  # the family comes first
    assert from_json(descriptor) == member
    # parameters are read as floats, and extra keys are ignored
    spelled = {k: int(v) if isinstance(v, float) and v.is_integer() else v
               for k, v in descriptor.items()}
    assert repr(from_json(dict(spelled, note="ignored")).to_json()) == repr(descriptor)


def test_gauge_parameter_validation():
    with pytest.raises(ValueError):
        PowerGauge(1.0)
    with pytest.raises(ValueError):
        LinearGauge(0.5)
    with pytest.raises(ValueError):
        PowerLogGauge(2.0, -3.0)
    with pytest.raises(ValueError):
        HolderModulus(0.0)


def test_morrey_weight_families():
    w = PowerLawWeight(-0.5)
    assert w.value(None, 4.0) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        PowerLawWeight(0.1)
    tab = TabulatedWeight((0.1, 1.0, 10.0), (3.0, 2.0, 1.0))
    assert tab.value(None, 1.0) == pytest.approx(2.0)
    assert 1.0 < tab.value(None, 3.0) < 2.0
    with pytest.raises(ValueError):
        TabulatedWeight((0.1, 1.0), (1.0, 2.0))  # increasing in t
