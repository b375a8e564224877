import math
import warnings

import numpy as np
import pytest

from hartool import (Cube, DiniKernel, Grid, HolderModulus, HomogeneousKernel,
                     LinearGauge, PowerGauge, RieszKernel, SampledFunction, SphereFunction,
                     apply_kernel, dilate, hormander_lambda, kernel_from_json,
                     kernel_smoothness_ratio, omega_lambda, unclipped_dilate_measure)
from hartool.gauges import batched_mean_norms
from hartool.operators import SUBDIVISION_LEVELS, LambdaSequence, kernel_matrix


def test_riesz_analytic_value():
    # f = 1 on [0,1]: Tf(1/2) = int_0^1 |1/2 - y|^{-1/2} dy = 2 sqrt(2)
    g = Grid(1, 256)
    f = SampledFunction.constant(g, 1.0)
    tf = apply_kernel(RieszKernel(1, 0.5), f)
    expect = 2.0 * math.sqrt(2.0)
    got = 0.5 * (tf.values[127] + tf.values[128])  # the two cells around 1/2
    assert got == pytest.approx(expect, rel=0.02)


def test_homogeneous_reduces_to_riesz_1d():
    g = Grid(1, 64)
    rng = np.random.default_rng(0)
    f = SampledFunction(g, rng.uniform(-1, 1, 64))
    t1 = apply_kernel(RieszKernel(1, 0.5), f)
    t2 = apply_kernel(HomogeneousKernel(1, 0.5, (1.0,), (0.5,)), f)
    np.testing.assert_allclose(t2.values, t1.values, rtol=1e-12, atol=1e-12)


def test_homogeneous_reduces_to_riesz_2d():
    g = Grid(2, 16)
    rng = np.random.default_rng(1)
    f = SampledFunction(g, rng.uniform(0, 1, (16, 16)))
    ident = ((1.0, 0.0), (0.0, 1.0))
    t1 = apply_kernel(RieszKernel(2, 0.5), f)
    t2 = apply_kernel(HomogeneousKernel(2, 0.5, (ident,), (1.0,)), f)
    np.testing.assert_allclose(t2.values, t1.values, rtol=1e-12, atol=1e-12)


def test_dini_odd_kernel_antisymmetric_on_even_function():
    g = Grid(1, 128)
    x = g.cell_centers()[:, 0]
    even = SampledFunction(g, np.exp(-((x - 0.5) ** 2) * 40.0))
    k = DiniKernel(1, 0.5, SphereFunction(1, pos=1.0, neg=-1.0), HolderModulus(1.0))
    tf = apply_kernel(k, even)
    # f is even about the domain center, which falls between two cells: the
    # transform must be exactly antisymmetric across that center
    assert np.abs(tf.values + tf.values[::-1]).max() < 1e-10


def test_apply_kernel_linear():
    g = Grid(1, 32)
    rng = np.random.default_rng(2)
    f = SampledFunction(g, rng.uniform(-1, 1, 32))
    h = SampledFunction(g, rng.uniform(-1, 1, 32))
    k = RieszKernel(1, 0.3)
    lhs = apply_kernel(k, SampledFunction(g, 2.0 * f.values + 3.0 * h.values)).values
    rhs = 2.0 * apply_kernel(k, f).values + 3.0 * apply_kernel(k, h).values
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12)


def test_riesz_positivity():
    g = Grid(2, 8)
    rng = np.random.default_rng(3)
    f = SampledFunction(g, rng.uniform(0, 2, (8, 8)))
    tf = apply_kernel(RieszKernel(2, 0.4), f)
    assert np.all(tf.values >= 0)


def test_kernel_validation():
    with pytest.raises(ValueError):
        RieszKernel(1, 0.0)
    with pytest.raises(ValueError):
        RieszKernel(1, 1.0)
    with pytest.raises(ValueError):
        HomogeneousKernel(1, 0.5, (1.0, 1.0), (0.25, 0.25))  # equal coefficients
    with pytest.raises(ValueError):
        HomogeneousKernel(1, 0.5, (1.0,), (0.7,))  # exponents must sum to 1 - gamma
    with pytest.raises(ValueError):
        HomogeneousKernel(1, 0.5, (0.0,), (0.5,))  # singular coefficient
    with pytest.raises(ValueError):
        SphereFunction(1, pos=1.0, neg=-0.5)  # not mean zero


def test_kernel_json_round_trip():
    kernels = [
        RieszKernel(2, 0.25),
        DiniKernel(1, 0.5, SphereFunction(1, pos=2.0, neg=-2.0), HolderModulus(0.5)),
        HomogeneousKernel(1, 0.5, (1.0, -1.0), (0.25, 0.25)),
        HomogeneousKernel(2, 0.5, (((1.0, 0.0), (0.0, 1.0)), ((-1.0, 0.0), (0.0, -1.0))),
                          (0.5, 0.5)),
    ]
    for k in kernels:
        assert kernel_from_json(k.to_json()) == k


def test_smoothness_ratio_stability():
    k = RieszKernel(1, 0.5)
    om = HolderModulus(1.0)
    r1 = kernel_smoothness_ratio(k, om, 10_000, seed=1)
    r2 = kernel_smoothness_ratio(k, om, 10_000, seed=2)
    assert math.isfinite(r1) and r1 > 0
    assert abs(r1 - r2) <= 0.2 * max(r1, r2)


def test_smoothness_ratio_dini_variant_and_rejections():
    k = DiniKernel(1, 0.5, SphereFunction(1, pos=1.0, neg=-1.0), HolderModulus(1.0))
    assert math.isfinite(kernel_smoothness_ratio(k, HolderModulus(1.0), 2000, seed=0))
    hk = HomogeneousKernel(1, 0.5, (1.0,), (0.5,))
    with pytest.raises(ValueError):
        kernel_smoothness_ratio(hk, HolderModulus(1.0), 100, seed=0)


def test_omega_lambda_examples():
    lam = omega_lambda(HolderModulus(1.0), 3, 1.0)
    assert lam.values == pytest.approx((0.5, 0.25, 0.125))
    lam = omega_lambda(HolderModulus(0.5), 2, 4.0)
    assert lam.values == pytest.approx((math.sqrt(2.0), 1.0))
    lam = omega_lambda(HolderModulus(1.0), 1, 3.0)
    assert lam.values == pytest.approx((1.5,))
    assert lam.source == "from_omega"
    with pytest.raises(ValueError):
        omega_lambda(HolderModulus(1.0), 0, 1.0)


def test_lambda_sequence_invariants():
    with pytest.raises(ValueError):
        LambdaSequence((-1.0,), "from_omega")
    lam = LambdaSequence((1.0, 0.5), "from_omega")
    assert list(lam.partial_sums()) == [1.0, 1.5]


def test_hormander_lambda_zero_for_single_cell_cube():
    # a one-cell cube admits only u = v pairs, so all differences vanish
    g = Grid(1, 32)
    lam = hormander_lambda(RieszKernel(1, 0.5), Cube(g, (15,), 1), 3, LinearGauge(1.0))
    assert lam.values == pytest.approx((0.0, 0.0, 0.0))


def test_hormander_lambda_decreasing_and_clipped():
    g = Grid(1, 64)
    q = Cube(g, (28,), 4)
    lam = hormander_lambda(RieszKernel(1, 0.5), q, 7, LinearGauge(1.0))
    vals = lam.values
    live = [v for v, c in zip(vals, lam.clipped) if not c]
    assert all(b <= a * (1 + 1e-12) for a, b in zip(live, live[1:]))
    assert lam.clipped[-1]  # the grid cannot hold arbitrarily deep dilates
    assert vals[-1] == 0.0


def test_kernel_matrix_cache_consistency():
    g = Grid(1, 16)
    f = SampledFunction.constant(g, 1.0)
    k = RieszKernel(1, 0.5)
    a = apply_kernel(k, f).values
    b = apply_kernel(k, f).values  # second call hits the cache
    np.testing.assert_array_equal(a, b)


def test_smoothness_ratio_near_vs_far_observation():
    # over sampled point configurations in the unit cube, placements of y
    # just outside the doubled cube dominate the far-field placements
    k = RieszKernel(1, 0.5)
    om = HolderModulus(1.0)

    def ratio(x, xp, y):
        if x == xp:
            return 0.0
        num = abs(k.value_at(np.array([x]), np.array([[y]]))[0]
                  - k.value_at(np.array([xp]), np.array([[y]]))[0])
        return num * abs(x - y) ** 0.5 / om.value(abs(x - xp) / abs(x - y))

    xs = np.linspace(-0.5, 0.5, 21)
    near = max(ratio(x, xp, y) for x in xs for xp in xs
               for y in np.linspace(1.01, 2.0, 30))
    far = max(ratio(x, xp, y) for x in xs for xp in xs
              for y in np.linspace(8.0, 64.0, 30))
    assert far <= near


def test_dini_2d_trig_sphere():
    g = Grid(2, 16)
    sphere = SphereFunction(2, cos_coeffs=(1.0,), sin_coeffs=(0.5, 0.25))
    k = DiniKernel(2, 0.5, sphere, HolderModulus(1.0))
    rng = np.random.default_rng(4)
    f = SampledFunction(g, rng.uniform(-1, 1, (16, 16)))
    tf = apply_kernel(k, f)
    assert np.all(np.isfinite(tf.values))
    lhs = apply_kernel(k, SampledFunction(g, 2.0 * f.values)).values
    np.testing.assert_allclose(lhs, 2.0 * tf.values, rtol=1e-12)


def test_homogeneous_2d_two_terms():
    g = Grid(2, 8, 1.0, (-0.5, -0.5))
    ident = ((1.0, 0.0), (0.0, 1.0))
    neg = ((-1.0, 0.0), (0.0, -1.0))
    k = HomogeneousKernel(2, 0.5, (ident, neg), (0.5, 0.5))
    rng = np.random.default_rng(5)
    f = SampledFunction(g, rng.uniform(0, 1, (8, 8)))
    tf = apply_kernel(k, f)
    assert np.all(np.isfinite(tf.values)) and np.all(tf.values > 0)


def test_hormander_lambda_sampled_pairs_deterministic():
    # 128-cell cube exceeds the all-pairs budget and falls back to sampling
    g = Grid(1, 1024)
    q = Cube(g, (448,), 128)
    k = RieszKernel(1, 0.5)
    a = hormander_lambda(k, q, 2, LinearGauge(1.0))
    b = hormander_lambda(k, q, 2, LinearGauge(1.0))
    assert a.values == b.values
    assert all(v > 0 for v in a.values)
    assert not any(a.clipped)


@pytest.mark.parametrize("dim, n, corner, side", [(1, 32, (13,), 3), (1, 32, (0,), 2),
                                                  (2, 16, (5, 6), 2), (2, 16, (11, 1), 3)])
def test_hormander_lambda_matches_explicit_dilate_annuli(dim, n, corner, side):
    # the annulus of each lambda_m rebuilt from the two clipped dilate boxes
    g = Grid(dim, n)
    q = Cube(g, corner, side)
    kernel, gauge, M = RieszKernel(dim, 0.5), PowerGauge(2.0), 4
    qrows = kernel_matrix(kernel, g)[np.arange(g.ncells).reshape(g.shape)[q.slices].ravel()]
    expect = []
    for m in range(1, M + 1):
        outer, inner = dilate(q, m + 1), dilate(q, m)
        mask = np.zeros(g.shape, dtype=bool)
        mask[outer.slices] = True
        mask[inner.slices] = False
        if not mask.any():
            expect.append(0.0)
            continue
        rows = qrows[:, mask.ravel()]
        u, v = np.divmod(np.arange(len(rows) ** 2), len(rows))  # every pair
        diffs = np.abs(rows[u] - rows[v])
        norms = batched_mean_norms(diffs, gauge, mask.sum() / outer.ncells)
        expect.append(unclipped_dilate_measure(q, m + 1) ** (1.0 - kernel.gamma) * norms.max())
    assert hormander_lambda(kernel, q, M, gauge).values == tuple(expect)


def test_hormander_lambda_singular_preimage_on_annulus_centre():
    # the rotation maps the preimage of some u in Q onto an annulus cell
    # centre; the matrix row carries that cell's refined value, not k = inf
    k = HomogeneousKernel(2, 0.5, (IDENT, ROT), (0.5, 0.5))
    q = Cube(Grid(2, 32), (12, 12), 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        lam = hormander_lambda(k, q, 3, PowerGauge(2.0))
    assert math.isfinite(lam.values[1]) and lam.values[1] > 0


ROT = ((0.8, -0.6), (0.6, 0.8))
IDENT = ((1.0, 0.0), (0.0, 1.0))
NEG = ((-1.0, 0.0), (0.0, -1.0))
DINI_1D = DiniKernel(1, 0.5, SphereFunction(1, pos=1.0, neg=-1.0), HolderModulus(1.0))
DINI_2D = DiniKernel(2, 0.4, SphereFunction(2, cos_coeffs=(1.0,), sin_coeffs=(0.5, 0.25)),
                     HolderModulus(1.0))


def _cell_by_cell_subdivision(kernel, x, lo, hi, sing, depth=0):
    """Reference: one cell at a time, the kernel at one point at a time."""
    if depth >= SUBDIVISION_LEVELS:
        return 0.0
    dim = lo.size
    mid = 0.5 * (lo + hi)
    total = 0.0
    for mask in range(1 << dim):
        clo = np.array([mid[d] if (mask >> d) & 1 else lo[d] for d in range(dim)])
        chi = np.array([hi[d] if (mask >> d) & 1 else mid[d] for d in range(dim)])
        inside = [p for p in sing if np.all((p >= clo - 1e-15) & (p <= chi + 1e-15))]
        if inside:
            total += _cell_by_cell_subdivision(kernel, x, clo, chi, inside, depth + 1)
        else:
            center = 0.5 * (clo + chi)
            total += float(kernel.value_at(x, center[None, :])[0]) * float(np.prod(chi - clo))
    return total


@pytest.mark.parametrize("kernel, grid", [
    (RieszKernel(2, 0.5), Grid(2, 16)),
    (DINI_2D, Grid(2, 16, 0.7, (0.1, -0.2))),
    (HomogeneousKernel(2, 0.5, (IDENT, NEG), (0.5, 0.5)), Grid(2, 16, 1.0, (-0.5, -0.5))),
    (HomogeneousKernel(2, 0.5, (IDENT, ROT), (0.4, 0.6)), Grid(2, 8, 0.7, (-0.3, -0.4))),
    # row (0, 0)'s second point 2x is the corner its cell shares with cell (1, 1),
    # which owns it: the refinement of cell (0, 0) must not see it
    (HomogeneousKernel(2, 0.5, (IDENT, ((0.5, 0.0), (0.0, 0.5))), (0.5, 0.5)), Grid(2, 8)),
    # a cell centre at h/10: both singular points x and -x/2 fall in its cell
    (HomogeneousKernel(1, 0.5, (1.0, -2.0), (0.25, 0.25)), Grid(1, 16, 1.0, (-0.5 - 1 / 32 + 1 / 160,))),
])
def test_singular_entries_match_cell_by_cell_subdivision(kernel, grid):
    K = kernel_matrix(kernel, grid)
    centers = grid.cell_centers()
    shared = 0
    for i, x in enumerate(centers):
        cells = {}
        for p in kernel.singular_points(x):
            idx = grid.cell_of_point(p)
            if idx is not None:
                cells.setdefault(idx, []).append(p)
        for idx, pts in cells.items():
            if grid.dim == 1 and len(pts) == 1:
                continue  # closed-form cell integral
            shared += len(pts) > 1
            lo = np.array([grid.origin[d] + idx[d] * grid.h for d in range(grid.dim)])
            ref = _cell_by_cell_subdivision(kernel, x, lo, lo + grid.h, pts) / grid.h**grid.dim
            assert K[i, np.ravel_multi_index(idx, grid.shape)] == ref
    if grid.dim == 1:
        assert shared > 0


@pytest.mark.parametrize("kernel", [
    RieszKernel(1, 0.3), RieszKernel(2, 0.5), DINI_1D, DINI_2D,
    HomogeneousKernel(1, 0.5, (1.0, -2.0), (0.25, 0.25)),
    HomogeneousKernel(2, 0.5, (IDENT, ROT), (0.4, 0.6)),
])
def test_value_at_broadcasts_points_against_rows(kernel):
    rng = np.random.default_rng(6)
    X = rng.uniform(-1, 1, (7, kernel.dim))
    Y = rng.uniform(-1, 1, (11, kernel.dim))
    block = kernel.value_at(X[:, None], Y)
    assert block.shape == (7, 11)
    np.testing.assert_array_equal(block, np.stack([kernel.value_at(x, Y) for x in X]))
    # paired one-row evaluations, as the singular-cell subdivision makes them
    paired = kernel.value_at(X[:, None], Y[:7, None])[:, 0]
    np.testing.assert_array_equal(paired, [kernel.value_at(x, y[None])[0] for x, y in zip(X, Y)])


# cos(theta) + 0.5 sin(theta) is not symmetric under any axis flip, so a
# transposed or unflipped stencil gather changes the matrix
DINI_2D_ASYM = DiniKernel(2, 0.5, SphereFunction(2, cos_coeffs=(1.0,), sin_coeffs=(0.5,)),
                          HolderModulus(1.0))


@pytest.mark.parametrize("kernel, n", [
    (RieszKernel(1, 0.25), 64), (RieszKernel(2, 0.5), 16), (DINI_1D, 64), (DINI_2D_ASYM, 16),
])
@pytest.mark.parametrize("side, origin", [(1.0, ()), (3.0, (-0.3,))])
def test_stencil_build_matches_row_loop(kernel, n, side, origin):
    grid = Grid(kernel.dim, n, side, origin * kernel.dim)
    K = kernel_matrix(kernel, grid)
    centers = grid.cell_centers()
    ref = np.stack([kernel.value_at(c, centers) for c in centers])
    regular = np.ones(K.shape, dtype=bool)
    for i, x in enumerate(centers):
        for p in kernel.singular_points(x):
            idx = grid.cell_of_point(p)
            if idx is not None:
                regular[i, np.ravel_multi_index(idx, grid.shape)] = False
    if not origin:
        np.testing.assert_array_equal(K[regular], ref[regular])
    else:  # offsets rounded differently: equal to rounding at the scale of the entries
        assert np.max(np.abs(K[regular] - ref[regular])) <= 1e-13 * np.max(np.abs(ref[regular]))
