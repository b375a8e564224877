import math

import numpy as np
import pytest

from hartool import (Cube, CubeFamily, Grid, PowerGauge,
                     PowerLawWeight, SampledFunction, ScaledPowerGauge, campanato_seminorm,
                     compat_52, compat_53, luxemburg_raw_norm, morrey_norm,
                     prop51_gap)


def _classical_morrey(f, p, lam, family):
    best = 0.0
    g = f.grid
    for q in family.iter_cubes():
        l = q.side_length
        best = max(best, l ** (-lam / p) *
                   float((np.sum(np.abs(f.values[q.slices]) ** p) * g.h ** g.dim) ** (1 / p)))
    return best


def test_morrey_zero_and_constant():
    g = Grid(1, 16)
    fam = CubeFamily(g, "all")
    phi = PowerLawWeight((0.5 - 1.0) / 2.0)  # classical lambda = 1/2, p = 2
    zero = SampledFunction.constant(g, 0.0)
    assert morrey_norm(zero, PowerGauge(2.0), phi, fam) == 0.0
    one = SampledFunction.constant(g, 1.0)
    # the sup of l^{1/4} over available sides is attained at l = 1
    assert morrey_norm(one, PowerGauge(2.0), phi, fam) == pytest.approx(1.0, rel=1e-9)


def test_morrey_classical_reduction_random():
    rng = np.random.default_rng(30)
    g = Grid(1, 64)
    fam = CubeFamily(g, "all")
    p, lam = 2.0, 0.5
    phi = PowerLawWeight((lam - g.dim) / p)
    for _ in range(5):
        f = SampledFunction(g, rng.uniform(-2, 2, 64))
        got = morrey_norm(f, PowerGauge(p), phi, fam)
        ref = _classical_morrey(f, p, lam, fam)
        assert got == pytest.approx(ref, rel=1e-9)


def test_morrey_homogeneous():
    rng = np.random.default_rng(31)
    g = Grid(1, 32)
    fam = CubeFamily(g, "dyadic")
    phi = PowerLawWeight(-0.25)
    f = SampledFunction(g, rng.uniform(-1, 1, 32))
    a = 4.2
    assert morrey_norm(f.scaled(a), PowerGauge(2.0), phi, fam) == pytest.approx(
        a * morrey_norm(f, PowerGauge(2.0), phi, fam), rel=1e-9)
    assert campanato_seminorm(f.scaled(a), PowerGauge(2.0), phi, fam) == pytest.approx(
        a * campanato_seminorm(f, PowerGauge(2.0), phi, fam), rel=1e-6)


def test_campanato_annihilates_constants_and_shifts():
    g = Grid(1, 16)
    fam = CubeFamily(g, "all")
    phi = PowerLawWeight(-0.25)
    const = SampledFunction.constant(g, 7.0)
    assert campanato_seminorm(const, PowerGauge(2.0), phi, fam) <= 1e-10
    rng = np.random.default_rng(32)
    f = SampledFunction(g, rng.uniform(-1, 1, 16))
    shifted = f.shifted(5.0)
    assert campanato_seminorm(shifted, PowerGauge(2.0), phi, fam) == pytest.approx(
        campanato_seminorm(f, PowerGauge(2.0), phi, fam), rel=1e-6, abs=1e-9)


def test_campanato_single_cube_quadratic_minimum():
    # two cells [0, 1]: the best constant for p = 2 is the mean 1/2
    g = Grid(1, 2)
    f = SampledFunction(g, [0.0, 1.0])
    phi = PowerLawWeight(-0.25)
    fam = CubeFamily(g, "dyadic")
    q = Cube(g, (0,), 2)
    centered = SampledFunction(g, [-0.5, 0.5])
    expect = (1.0 / phi.value(None, 1.0)) * PowerGauge(2.0).inverse(1.0) * \
        luxemburg_raw_norm(centered, q, PowerGauge(2.0))
    got = campanato_seminorm(f, PowerGauge(2.0), phi, fam)
    assert got == pytest.approx(expect, rel=1e-8)


def test_campanato_ternary_matches_bruteforce():
    rng = np.random.default_rng(33)
    g = Grid(1, 8)
    fam = CubeFamily(g, "all")
    phi = PowerLawWeight(-0.25)
    gauge = PowerGauge(3.0)
    f = SampledFunction(g, rng.uniform(-2, 2, 8))
    got = campanato_seminorm(f, gauge, phi, fam)
    best = 0.0
    for q in fam.iter_cubes():
        cands = np.linspace(f.values[q.slices].min(), f.values[q.slices].max(), 1000)
        per_cube = min(
            luxemburg_raw_norm(SampledFunction(g, f.values - c), q, gauge) for c in cands)
        best = max(best, per_cube * gauge.inverse(1.0 / q.measure) / phi.value(None, q.side_length))
    assert got == pytest.approx(best, rel=1e-4)


@pytest.mark.parametrize("dim,n", [(1, 32), (2, 8)])
@pytest.mark.parametrize("kind", ["all", "dyadic"])
@pytest.mark.parametrize("gauge", [PowerGauge(2.0), ScaledPowerGauge(2.0, 3.0)])
def test_campanato_quadratic_matches_per_cube_closed_form(dim, n, kind, gauge):
    # A(t) = a t^2: the best constant is the cube mean, so each cube gives
    # sqrt(a sum (w - mean)^2 h^dim) times the Morrey factor A^{-1}(1/|Q|) / phi(l)
    rng = np.random.default_rng(35)
    g = Grid(dim, n, 0.75)
    fam = CubeFamily(g, kind)
    phi = PowerLawWeight(-0.25)
    a = gauge.power_form()[1]
    f = SampledFunction(g, rng.uniform(-2, 2, g.shape) + 3.0)
    best = 0.0
    for q in fam.iter_cubes():
        w = f.values[q.slices]
        norm = math.sqrt(a * float(np.sum((w - w.mean()) ** 2)) * g.h**dim)
        factor = math.sqrt(1.0 / (a * q.measure)) / float(phi.value(None, q.side_length))
        best = max(best, factor * norm)
    assert campanato_seminorm(f, gauge, phi, fam) == pytest.approx(best, rel=1e-12)


def test_campanato_bounded_by_centered_morrey():
    rng = np.random.default_rng(34)
    g = Grid(1, 32)
    fam = CubeFamily(g, "all")
    phi = PowerLawWeight(-0.25)
    f = SampledFunction(g, rng.uniform(-2, 2, 32))
    centered = f.shifted(-float(f.values.mean()))
    camp = campanato_seminorm(f, PowerGauge(2.0), phi, fam)
    assert camp <= 2.0 * morrey_norm(centered, PowerGauge(2.0), phi, fam) + 1e-9


def test_prop51_zero_function():
    g = Grid(1, 64)
    zero = SampledFunction.constant(g, 0.0)
    rec = prop51_gap(zero, PowerGauge(2.0), PowerGauge(4.0), 0.25,
                     Cube(g, (24,), 4), 4.0)
    assert rec.lhs == 0.0 and rec.rhs_i == 0.0 and rec.rhs_ii == 0.0


def test_prop51_constant_and_bumps_have_finite_gap():
    g = Grid(1, 64)
    one = SampledFunction.constant(g, 1.0)
    rec = prop51_gap(one, PowerGauge(2.0), PowerGauge(4.0), 0.25,
                     Cube(g, (28,), 4), 4.0)
    assert rec.lhs > 0 and rec.rhs_i > 0 and rec.rhs_ii > 0
    assert rec.lhs <= 10.0 * rec.rhs_ii
    rng = np.random.default_rng(35)
    x = g.cell_centers()[:, 0]
    for _ in range(3):
        c = rng.uniform(0.3, 0.7)
        f = SampledFunction(g, np.exp(-((x - c) ** 2) * 60))
        rec = prop51_gap(f, PowerGauge(2.0), PowerGauge(4.0), 0.25,
                         Cube(g, (30,), 2), 4.0)
        assert math.isfinite(rec.lhs / rec.rhs_ii)


def test_prop51_empty_t_range_flagged():
    g = Grid(1, 16)
    one = SampledFunction.constant(g, 1.0)
    rec = prop51_gap(one, PowerGauge(2.0), PowerGauge(4.0), 0.25,
                     Cube(g, (0,), 16), 4.0)  # c_n d_n l = 4 > truncation 2
    assert rec.t_range_empty


def test_prop51_requires_matched_exponents():
    g = Grid(1, 16)
    one = SampledFunction.constant(g, 1.0)
    with pytest.raises(ValueError):
        prop51_gap(one, PowerGauge(2.0), PowerGauge(3.0), 0.25, Cube(g, (4,), 2), 4.0)


def test_compat_52_examples():
    g = Grid(1, 64)
    phi = PowerLawWeight(-0.25)
    # gamma = 0 and phi = psi: ratio is (t/r)^sigma <= 1, sup = 1 at t = r
    assert compat_52(phi, phi, 0.0, g) == pytest.approx(1.0)
    # sigma + n gamma <= 0: sup at t = r, bounded by r^{n gamma} <= 1 on [h, L]
    psi = PowerLawWeight(-0.25)
    val = compat_52(phi, psi, 0.1, g)
    assert val <= 1.0 + 1e-12


def test_compat_52_grows_with_range_when_incompatible():
    phi, psi = PowerLawWeight(-0.1), PowerLawWeight(-0.1)
    gamma = 0.5  # sigma + n gamma = 0.4 > 0: sup grows like L^{0.5}
    small = compat_52(phi, psi, gamma, Grid(1, 32, 1.0))
    large = compat_52(phi, psi, gamma, Grid(1, 32, 16.0))
    assert large >= 3.9 * small


def test_compat_53_closed_form():
    g = Grid(1, 64)
    sigma_phi, sigma_psi = -0.5, -0.25
    phi, psi = PowerLawWeight(sigma_phi), PowerLawWeight(sigma_psi)
    got = compat_53(phi, psi, g)
    d = g.diameter
    sides = np.arange(1, 65) * g.h
    ref = max(l ** sigma_psi * (d ** -sigma_phi - l ** -sigma_phi) / (-sigma_phi)
              for l in sides if l < d)
    assert got == pytest.approx(ref, rel=1e-5)


def test_compat_53_scales_with_psi():
    g = Grid(1, 32)
    phi = PowerLawWeight(-0.5)
    tab_small = PowerLawWeight(-0.01)
    big = compat_53(phi, PowerLawWeight(-0.9), g)
    small = compat_53(phi, tab_small, g)
    assert small < big


def test_morrey_2d_indicator_no_nan():
    # zero regions once caused prefix-sum cancellation to go slightly negative
    import warnings
    g = Grid(2, 16)
    vals = np.zeros((16, 16))
    vals[2:5, 3:7] = 1.0
    f = SampledFunction(g, vals)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = morrey_norm(f, PowerGauge(2.0), PowerLawWeight(-0.25), CubeFamily(g, "all"))
    assert math.isfinite(got) and got > 0
