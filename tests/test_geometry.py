from fractions import Fraction
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from hartool import (Cube, CubeFamily, Grid, SampledFunction, concentric_box,
                     concentric_rank, dilate, enumerate_cubes, integrate, measure,
                     unclipped_dilate_measure)
from hartool.geometry import _halving_sum


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(3, 8)
    with pytest.raises(ValueError):
        Grid(1, 10)  # not a power of 2
    with pytest.raises(ValueError):
        Grid(1, 8, -1.0)
    g = Grid(2, 8, 2.0)
    assert g.h == 0.25
    assert g.ncells == 64
    assert g.origin == (0.0, 0.0)


def test_cube_must_fit():
    g = Grid(1, 4)
    with pytest.raises(ValueError):
        Cube(g, (3,), 2)
    with pytest.raises(ValueError):
        Cube(g, (0,), 0)


def test_enumeration_counts():
    g = Grid(1, 4)
    assert len(enumerate_cubes(CubeFamily(g, "all"))) == 10
    assert len(enumerate_cubes(CubeFamily(g, "dyadic"))) == 7
    assert len(enumerate_cubes(CubeFamily(g, "all"), containing=(0,))) == 4


def test_enumeration_order_lexicographic():
    g = Grid(1, 4)
    cubes = enumerate_cubes(CubeFamily(g, "all"))
    keys = [(c.corner, c.side_cells) for c in cubes]
    assert keys == sorted(keys)
    dy = enumerate_cubes(CubeFamily(g, "dyadic"))
    assert [(c.corner[0], c.side_cells) for c in dy] == [
        (0, 1), (0, 2), (0, 4), (1, 1), (2, 1), (2, 2), (3, 1)]


def test_enumeration_empty_when_max_side_below_one():
    g = Grid(1, 4)
    assert enumerate_cubes(CubeFamily(g, "all", max_side=0)) == []


def test_measure_examples():
    g2 = Grid(2, 4, 2.0)  # h = 0.5
    assert measure(Cube(g2, (0, 0), 2)) == pytest.approx(1.0)
    g1 = Grid(1, 8)  # h = 0.125
    assert measure(Cube(g1, (3,), 1)) == pytest.approx(0.125)


def test_integrate_examples():
    g = Grid(1, 4)
    f = SampledFunction(g, [1.0, 2.0, 3.0, 4.0])
    assert integrate(f, Cube(g, (0,), 4)) == pytest.approx(2.5)
    zero = SampledFunction.constant(g, 0.0)
    assert integrate(zero, Cube(g, (1,), 2)) == 0.0
    g2 = Grid(2, 4)
    one = SampledFunction.constant(g2, 1.0)
    q = Cube(g2, (0, 0), 2)  # |Q| = 0.25
    assert integrate(one, q) == pytest.approx(0.25)


def test_integrate_rejects_foreign_grid():
    f = SampledFunction.constant(Grid(1, 4), 1.0)
    with pytest.raises(ValueError):
        integrate(f, Cube(Grid(1, 8), (0,), 2))


def test_integrate_linear():
    rng = np.random.default_rng(0)
    g = Grid(2, 8)
    f = SampledFunction(g, rng.uniform(-1, 1, g.shape))
    h = SampledFunction(g, rng.uniform(-1, 1, g.shape))
    q = Cube(g, (1, 2), 5)
    combo = SampledFunction(g, 2.5 * f.values - 0.75 * h.values)
    lhs = integrate(combo, q)
    rhs = 2.5 * integrate(f, q) - 0.75 * integrate(h, q)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_integrate_dyadic_additivity_exact():
    rng = np.random.default_rng(1)
    for dim in (1, 2):
        g = Grid(dim, 16)
        f = SampledFunction(g, rng.uniform(-1, 1, g.shape))
        parent = Cube(g, (4,) * dim, 8)
        total = 0.0
        for corner in ([(4,), (8,)] if dim == 1 else
                       [(4, 4), (4, 8), (8, 4), (8, 8)]):
            total += integrate(f, Cube(g, corner, 4))
        assert integrate(f, parent) == total  # exact, by halving summation


@given(shape=st.lists(st.integers(0, 40), min_size=1, max_size=2).map(tuple),
       steps=st.tuples(st.integers(1, 3), st.sampled_from([1, -1])),
       seed=st.integers(0, 2**32 - 1))
@example(shape=(1, 37), steps=(1, 1), seed=0)
@example(shape=(37, 1), steps=(2, -1), seed=1)
@example(shape=(33, 17), steps=(2, 1), seed=2)
def test_halving_sum_within_pairwise_error_bound(shape, steps, seed):
    # Pairwise summation over a tree of height h errs by at most
    # gamma_h * sum|a|, gamma_h = h u / (1 - h u) (Higham 2002, sec. 4.2);
    # halving splits each axis ceil(log2 n) times.  Values spread over many
    # decades, and the reference is the exact rational sum.
    rng = np.random.default_rng(seed)
    stride, direction = steps
    big = tuple(n * stride for n in shape)
    base = rng.standard_normal(big) * 10.0 ** rng.integers(-12, 12, size=big)
    view = base[tuple(slice(None, None, stride * direction) for _ in shape)]
    assert view.shape == shape
    h = sum(max(n - 1, 0).bit_length() for n in shape)
    gamma_h = Fraction(h, 2**53 - h)  # h u / (1 - h u), u = 2^-53
    exact = sum(map(Fraction, view.ravel().tolist()), Fraction(0))
    err = abs(Fraction(_halving_sum(view)) - exact)
    assert err <= gamma_h * sum(map(Fraction, np.abs(view).ravel().tolist()), Fraction(0))


def test_dilate_clipped_measure_bound():
    rng = np.random.default_rng(2)
    for dim in (1, 2):
        g = Grid(dim, 16)
        for _ in range(50):
            m_side = int(rng.integers(1, 9))
            corner = tuple(int(rng.integers(0, 16 - m_side + 1)) for _ in range(dim))
            q = Cube(g, corner, m_side)
            for k in (1, 2, 3):
                box = dilate(q, k)
                assert box.measure <= 2 ** (k * dim) * q.measure + 1e-15
                # the dilate always contains the original cube
                for d in range(dim):
                    assert box.corner[d] <= q.corner[d]
                    assert box.corner[d] + box.shape[d] >= q.corner[d] + m_side


def test_dilate_even_side_is_exact():
    g = Grid(1, 8)
    box = dilate(Cube(g, (2,), 2), 1)
    assert box.corner == (1,) and box.shape == (4,)
    assert box.measure == pytest.approx(4 * g.h)
    assert unclipped_dilate_measure(Cube(g, (2,), 2), 1) == pytest.approx(4 * g.h)


def test_concentric_box_center_and_clip():
    g = Grid(1, 8)
    q = Cube(g, (3,), 2)  # center2 = 8
    box = concentric_box(g, q.center2, 4)
    assert box.corner == (2,) and box.shape == (4,)
    big = concentric_box(g, q.center2, 100)
    assert big.corner == (0,) and big.shape == (8,)


@pytest.mark.parametrize("dim, n", [(1, 64), (2, 16)])
def test_concentric_rank_marks_every_concentric_box(dim, n):
    # every half-cell center a cube can have, every side up to past the clip
    g = Grid(dim, n)
    for c2 in product(range(1, 2 * n), repeat=dim):
        rank = concentric_rank(g, c2)
        assert rank.shape == g.shape
        for j in range(3 * n):
            box = concentric_box(g, c2, j)
            inside = np.zeros(g.shape, dtype=bool)
            if not box.is_empty:
                inside[box.slices] = True
            assert np.array_equal(rank <= j, inside), (c2, j)


def test_sampled_function_requires_finite():
    g = Grid(1, 4)
    with pytest.raises(ValueError):
        SampledFunction(g, [1.0, np.nan, 0.0, 0.0])
    SampledFunction(g, [1.0, np.nan, 0.0, 0.0], masked=True)  # masked is allowed


def test_csv_round_trip():
    rng = np.random.default_rng(3)
    for dim in (1, 2):
        g = Grid(dim, 4, 2.0, (-1.0,) * dim)
        f = SampledFunction(g, rng.uniform(-5, 5, g.shape), name="x")
        back = SampledFunction.from_csv(f.to_csv())
        assert back.grid == g
        np.testing.assert_array_equal(back.values, f.values)


def test_cell_of_point():
    g = Grid(1, 4, 2.0, (-1.0,))
    assert g.cell_of_point([-0.99]) == (0,)
    assert g.cell_of_point([0.99]) == (3,)
    assert g.cell_of_point([1.01]) is None
