import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hartool import (Cube, CubeFamily, Grid, LinearGauge, PowerGauge,
                     SampledFunction, fractional_maximal,
                     lemma41_rhs, local_sharp_maximal, median, sharp_median,
                     sharp_median_plugin, sup_inf_over_cubes)
from hartool.harness.oracles import brute_force_sharp
from hartool.operators import LambdaSequence


def _grid_fn(values):
    g = Grid(1, len(values))
    return g, SampledFunction(g, values)


def test_median_examples():
    g, f = _grid_fn([1.0, 2.0, 3.0, 4.0])
    q = Cube(g, (0,), 4)
    assert median(f, 0.5, q) == 3.0
    const = SampledFunction.constant(g, 2.5)
    for t in (0.1, 0.5, 0.9):
        assert median(const, t, q) == 2.5
    with pytest.raises(ValueError):
        median(f, 0.0, q)


def test_median_continuum_quantile():
    n = 2048
    g = Grid(1, n)
    f = SampledFunction(g, g.cell_centers()[:, 0])
    got = median(f, 0.5, Cube(g, (0,), n))
    assert got == pytest.approx(0.5, abs=2.0 / n)


def test_median_equivariance_exact():
    rng = np.random.default_rng(5)
    g, f = _grid_fn(rng.uniform(-3, 3, 16).tolist())
    q = Cube(g, (3,), 9)
    a, b = 2.5, -1.75
    scaled = SampledFunction(g, a * f.values + b)
    for t in (0.3, 0.5, 0.75):
        assert median(scaled, t, q) == a * median(f, t, q) + b


def test_sharp_median_examples():
    g, f = _grid_fn([0.0, 1.0, 2.0, 10.0])
    q = Cube(g, (0,), 4)
    assert sharp_median(f, 0.5, q) == 1.0
    assert sharp_median(SampledFunction.constant(g, 7.0), 0.5, q) == 0.0
    with pytest.raises(ValueError):
        sharp_median(f, 0.6, q)


def test_sharp_median_continuum():
    n = 2048
    g = Grid(1, n)
    f = SampledFunction(g, g.cell_centers()[:, 0])
    got = sharp_median(f, 0.5, Cube(g, (0,), n))
    assert got == pytest.approx(0.25, abs=2.0 / n)


def test_sharp_median_equals_brute_force():
    rng = np.random.default_rng(6)
    for _ in range(30):
        n = int(rng.integers(2, 65))
        vals = rng.integers(-4 * 2**20, 4 * 2**20, size=n) * 2.0**-20
        g = Grid(1, 64)
        padded = np.zeros(64)
        padded[:n] = vals
        f = SampledFunction(g, padded)
        s = float(rng.choice([0.5, 0.35, 0.25]))
        assert sharp_median(f, s, Cube(g, (0,), n)) == brute_force_sharp(vals, s)


def test_local_sharp_constant_zero():
    g = Grid(2, 8)
    f = SampledFunction.constant(g, 4.2)
    out = local_sharp_maximal(f, 0.5, Cube(g, (0, 0), 8), CubeFamily(g, "all"))
    assert np.all(out.values == 0.0)


def test_local_sharp_two_cell_replicates_single_cube():
    g = Grid(1, 2)
    f = SampledFunction(g, [1.0, 4.0])
    out = local_sharp_maximal(f, 0.5, Cube(g, (0,), 2), CubeFamily(g, "dyadic"))
    # singletons contribute 0; the only other family cube is the full one
    expect = sharp_median(f, 0.5, Cube(g, (0,), 2))
    assert out.values[0] == expect and out.values[1] == expect


def test_local_sharp_matches_exhaustive():
    rng = np.random.default_rng(7)
    n = 32
    g = Grid(1, n)
    f = SampledFunction(g, rng.integers(-2 * 2**20, 2 * 2**20, size=n) * 2.0**-20)
    family = CubeFamily(g, "all")
    q0 = Cube(g, (0,), n)
    engine = local_sharp_maximal(f, 0.5, q0, family).values
    for x in range(0, n, 5):
        best = max(brute_force_sharp(f.values[q.slices], 0.5)
                   for q in family.iter_cubes(containing=(x,)))
        assert engine[x] == best


def test_local_sharp_masks_outside_base_cube():
    g = Grid(1, 8)
    f = SampledFunction(g, np.arange(8.0))
    out = local_sharp_maximal(f, 0.5, Cube(g, (2,), 4), CubeFamily(g, "all"))
    assert np.isnan(out.values[0]) and np.isnan(out.values[7])
    assert np.isfinite(out.values[3])


def test_local_sharp_monotone_in_s():
    rng = np.random.default_rng(8)
    g = Grid(1, 16)
    f = SampledFunction(g, rng.uniform(-1, 1, 16))
    q0 = Cube(g, (0,), 16)
    fam = CubeFamily(g, "all")
    hi = local_sharp_maximal(f, 0.5, q0, fam).values
    lo = local_sharp_maximal(f, 0.25, q0, fam).values
    assert np.all(hi <= lo + 1e-15)  # larger s means a weaker requirement


def test_fractional_maximal_constant():
    g = Grid(1, 32, 2.0)
    f = SampledFunction.constant(g, 1.0)
    out = fractional_maximal(f, 0.5, LinearGauge(1.0), CubeFamily(g, "all"))
    np.testing.assert_allclose(out.values, math.sqrt(2.0), rtol=1e-12)
    capped = fractional_maximal(f, 0.5, LinearGauge(1.0), CubeFamily(g, "all", max_side=16))
    np.testing.assert_allclose(capped.values, 1.0, rtol=1e-12)


def test_fractional_maximal_indicator_continuum():
    g = Grid(1, 512, 2.0)
    x = g.cell_centers()[:, 0]
    f = SampledFunction(g, (x < 1.0).astype(float))
    out = fractional_maximal(f, 0.5, LinearGauge(1.0), CubeFamily(g, "all"))
    i = g.cell_of_point([1.5])[0]
    assert out.values[i] == pytest.approx(1.0 / math.sqrt(1.5), rel=0.02)


def test_fractional_maximal_jensen_ordering():
    rng = np.random.default_rng(9)
    g = Grid(1, 64)
    f = SampledFunction(g, rng.uniform(-2, 2, 64))
    fam = CubeFamily(g, "all")
    m1 = fractional_maximal(f, 0.3, LinearGauge(1.0), fam).values
    m2 = fractional_maximal(f, 0.3, LinearGauge(2.0), fam).values
    assert np.all(m1 <= m2 + 1e-12)


def test_fractional_maximal_generic_gauge_matches_power_fast_path():
    class OpaquePower(PowerGauge):
        def power_form(self):
            return None

    rng = np.random.default_rng(10)
    for dim, n in ((1, 32), (2, 8)):
        g = Grid(dim, n)
        f = SampledFunction(g, rng.uniform(-2, 2, g.shape))
        for kind in ("all", "dyadic"):
            fam = CubeFamily(g, kind)
            fast = fractional_maximal(f, 0.25, PowerGauge(2.0), fam).values
            slow = fractional_maximal(f, 0.25, OpaquePower(2.0), fam).values
            np.testing.assert_allclose(slow, fast, rtol=1e-10)


def test_fractional_maximal_dyadic_families():
    rng = np.random.default_rng(11)
    for dim in (1, 2):
        g = Grid(dim, 16)
        f = SampledFunction(g, rng.uniform(0, 2, g.shape))
        dy = fractional_maximal(f, 0.25, LinearGauge(1.0), CubeFamily(g, "dyadic")).values
        full = fractional_maximal(f, 0.25, LinearGauge(1.0), CubeFamily(g, "all")).values
        assert np.all(dy <= full + 1e-12)
        assert np.all(dy >= np.abs(f.values) * (g.h ** (dim * 0.25)) - 1e-12)


def test_sup_inf_bounded_by_pointwise():
    rng = np.random.default_rng(12)
    g = Grid(1, 32)
    f = SampledFunction(g, rng.uniform(0.5, 2.0, 32))
    fam = CubeFamily(g, "all")
    si = sup_inf_over_cubes(f, fam).values
    np.testing.assert_array_equal(si, f.values)  # the side-1 cube {x} attains the sup
    const = SampledFunction.constant(g, 3.0)
    np.testing.assert_allclose(sup_inf_over_cubes(const, fam).values, 3.0)


@given(dim=st.sampled_from((1, 2)), log_n=st.integers(1, 5),
       kind=st.sampled_from(("all", "dyadic")), max_side=st.one_of(st.none(), st.integers(1, 6)),
       seed=st.integers(0, 2**16), data=st.data())
def test_sup_inf_over_cubes_is_the_point_value(dim, log_n, kind, max_side, seed, data):
    # capped families and base cubes off the dyadic lattice included
    n = 2**log_n
    g = Grid(dim, n)
    f = SampledFunction(g, np.random.default_rng(seed).integers(-8, 8, g.shape) * 0.25)
    side = data.draw(st.integers(1, n))
    q0 = Cube(g, tuple(data.draw(st.integers(0, n - side)) for _ in range(dim)), side)
    out = sup_inf_over_cubes(f, CubeFamily(g, kind, max_side=max_side), q0).values
    inside = np.zeros(g.shape, dtype=bool)
    inside[q0.slices] = True
    np.testing.assert_array_equal(out[inside], f.values[inside])
    assert np.all(np.isnan(out[~inside]))


def test_sup_inf_over_cubes_empty_family_reads_absent():
    for dim, kind in ((1, "all"), (2, "dyadic")):
        g = Grid(dim, 8)
        f = SampledFunction(g, np.arange(8.0**dim).reshape(g.shape))
        assert np.all(np.isnan(sup_inf_over_cubes(f, CubeFamily(g, kind, max_side=0)).values))


def test_lemma41_rhs_cases():
    g = Grid(1, 4)
    lam = LambdaSequence((1.0, 1.0), "from_omega")
    zero = SampledFunction.constant(g, 0.0)
    one = SampledFunction.constant(g, 1.0)
    q_corner = Cube(g, (0,), 1)
    assert lemma41_rhs(zero, q_corner, lam, 0.0, 1.0) == 0.0
    assert lemma41_rhs(one, q_corner, LambdaSequence((0.0, 0.0), "from_omega"), 0.0, 1.0) == 0.0
    # corner cell: both dilates keep only half their cells inside the grid
    assert lemma41_rhs(one, q_corner, lam, 0.0, 1.0) == pytest.approx(1.0)
    # interior cell of the 4-cell grid: dilates are fully inside
    assert lemma41_rhs(one, Cube(g, (2,), 1), lam, 0.0, 1.0) == pytest.approx(2.0)


def test_sharp_median_plugin_dominates_exact():
    rng = np.random.default_rng(13)
    g = Grid(1, 32)
    q = Cube(g, (4,), 21)
    for _ in range(20):
        f = SampledFunction(g, rng.uniform(-3, 3, 32))
        exact = sharp_median(f, 0.5, q)
        plug = sharp_median_plugin(f, 0.5, q)
        assert plug >= exact - 1e-15
    const = SampledFunction.constant(g, 2.0)
    assert sharp_median_plugin(const, 0.5, q) == 0.0


def test_local_sharp_empty_family_marks_absent():
    g = Grid(1, 4)
    f = SampledFunction(g, [1.0, 2.0, 3.0, 4.0])
    out = local_sharp_maximal(f, 0.5, Cube(g, (0,), 4), CubeFamily(g, "all", max_side=0))
    assert np.all(np.isnan(out.values))


def test_2d_engine_matches_exhaustive_enumeration():
    rng = np.random.default_rng(42)
    g = Grid(2, 8)
    f = SampledFunction(g, rng.integers(-2 * 2**20, 2 * 2**20, size=(8, 8)) * 2.0**-20)
    q0 = Cube(g, (0, 0), 8)
    # capped families start the descending size chain below the grid side
    for fam in (CubeFamily(g, "all"), CubeFamily(g, "dyadic"),
                CubeFamily(g, "all", max_side=3), CubeFamily(g, "dyadic", max_side=2)):
        ls = local_sharp_maximal(f, 0.5, q0, fam).values
        mf = fractional_maximal(f, 0.25, LinearGauge(1.0), fam).values
        si = sup_inf_over_cubes(f, fam).values
        for i in range(8):
            for j in range(8):
                cubes = list(fam.iter_cubes(containing=(i, j)))
                assert ls[i, j] == max(brute_force_sharp(f.values[q.slices], 0.5) for q in cubes)
                ref_max = max(q.measure**0.25 * np.mean(np.abs(f.values[q.slices])) for q in cubes)
                assert mf[i, j] == pytest.approx(ref_max, rel=1e-12)
                assert si[i, j] == max(f.values[q.slices].min() for q in cubes)


def test_2d_local_sharp_restricted_base_cube_exhaustive():
    rng = np.random.default_rng(43)
    g = Grid(2, 8)
    f = SampledFunction(g, rng.integers(-2 * 2**20, 2 * 2**20, size=(8, 8)) * 2.0**-20)
    q0 = Cube(g, (1, 2), 5)  # not aligned to the dyadic lattice
    for kind in ("all", "dyadic"):
        fam = CubeFamily(g, kind)
        out = local_sharp_maximal(f, 0.5, q0, fam).values
        si = sup_inf_over_cubes(f, fam, q0).values
        for i in range(1, 6):
            for j in range(2, 7):
                cubes = [q for q in fam.iter_cubes(containing=(i, j))
                         if all(q0.corner[d] <= q.corner[d]
                                and q.corner[d] + q.side_cells <= q0.corner[d] + 5
                                for d in range(2))]
                assert out[i, j] == max(brute_force_sharp(f.values[q.slices], 0.5) for q in cubes)
                assert si[i, j] == max(f.values[q.slices].min() for q in cubes)
        outside = np.ones(g.shape, dtype=bool)
        outside[q0.slices] = False
        assert np.all(np.isnan(out[outside])) and np.all(np.isnan(si[outside]))
