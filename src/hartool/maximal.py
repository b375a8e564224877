"""Medians, sharp medians, local sharp maximal functions, and gauge-bump
fractional maximal functions.

The (maximal) median of f over a cube at level t is the largest M whose
strict sublevel set {f < M} fills at most a t-fraction of the cube; on cell
values this is an order statistic.  The sharp median at level 1-s is the
best-constant median oscillation inf_c median(|f - c|), which on sorted
values reduces exactly to half the narrowest window spanning the required
number of points.  Local sharp maximal functions take suprema of sharp
medians over admissible cubes inside a base cube, and the fractional
maximal function takes suprema of |Q|^gamma times mean-normalized
Luxemburg norms over cubes containing the point.
"""

from __future__ import annotations

import math

import numpy as np

from ._sweeps import containing_max, cube_sweep, norms_by_size
from .gauges import YoungFunction
from .geometry import (_SNAP, Cube, CubeFamily, SampledFunction, concentric_rank,
                       unclipped_dilate_measure)
from .operators import LambdaSequence

__all__ = [
    "median",
    "sharp_median",
    "sharp_median_plugin",
    "narrowest_windows",
    "local_sharp_maximal",
    "fractional_maximal",
    "sup_inf_over_cubes",
    "lemma41_rhs",
]


def _median_index(t: float, n: int) -> int:
    """0-based index of the level-t maximal median among n sorted values."""
    k = int(math.floor(t * n + _SNAP))
    return min(k, n - 1)


def _window_count(s: float, n: int) -> int:
    """Points a window must span: smallest k with #{|f-c| > alpha} < s n."""
    k = n - int(math.ceil(s * n - _SNAP)) + 1
    return max(1, min(k, n))


def median(f: SampledFunction, t: float, Q: Cube) -> float:
    """Largest M with #{cells of Q with f < M} <= t * ncells."""
    if not 0 < t < 1:
        raise ValueError("median level t must lie in (0, 1)")
    vals = np.sort(f.values[Q.slices], axis=None)
    return float(vals[_median_index(t, vals.size)])


def narrowest_windows(rows: np.ndarray, s: float) -> tuple[np.ndarray, np.ndarray]:
    """Per row of sorted values, half the width of the narrowest window
    spanning the points a level-(1-s) sharp median needs, and the index
    where that window starts (the first on ties).

    Half the width is the sharp median; the window's midpoint is an
    optimal center."""
    n = rows.shape[1]
    kp = _window_count(s, n)
    widths = rows[:, kp - 1:] - rows[:, : n - kp + 1]
    start = widths.argmin(axis=1)
    return 0.5 * np.take_along_axis(widths, start[:, None], axis=1)[:, 0], start


def sharp_median(f: SampledFunction, s: float, Q: Cube) -> float:
    """inf_c median(|f - c|) at level 1-s over Q, computed exactly."""
    if not 0 < s <= 0.5:
        raise ValueError("sharp-median level s must lie in (0, 1/2]")
    vals = np.sort(f.values[Q.slices], axis=None)
    return float(narrowest_windows(vals[None, :], s)[0][0])


def sharp_median_plugin(f: SampledFunction, s: float, Q: Cube) -> float:
    """Plug-in variant: the level-(1-s) median of |f - m| with m the
    level-(1-s) median of f itself.

    Dominates the exact inf-over-centers value; both are reported so the
    equivalence constant between them can be observed empirically."""
    if not 0 < s <= 0.5:
        raise ValueError("sharp-median level s must lie in (0, 1/2]")
    m = median(f, 1.0 - s, Q)
    vals = np.sort(np.abs(f.values[Q.slices] - m), axis=None)
    return float(vals[_median_index(1.0 - s, vals.size)])


def _masked_points(grid, Q0: Cube, best: np.ndarray, name: str) -> SampledFunction:
    """Embed Q0-local maxima in the grid; cells outside Q0, and points no
    family cube covers (-inf), are marked absent (NaN)."""
    out = np.full(grid.shape, np.nan)
    out[Q0.slices] = np.where(np.isneginf(best), np.nan, best)
    return SampledFunction(grid, out, name=name, masked=True)


def local_sharp_maximal(f: SampledFunction, s: float, Q0: Cube,
                        family: CubeFamily) -> SampledFunction:
    """Sup of sharp medians over family cubes Q with x in Q inside Q0.

    Cells outside Q0 are marked absent (NaN)."""
    if not 0 < s <= 0.5:
        raise ValueError("sharp-median level s must lie in (0, 1/2]")
    sub = f.values[Q0.slices]
    best = containing_max(sub.shape, (
        (sweep, narrowest_windows(np.sort(sweep.rows(sub), axis=1), s)[0].reshape(sweep.corners))
        for sweep in cube_sweep(family, Q0)))
    return _masked_points(f.grid, Q0, best, f"sharp[{f.name}]")


def fractional_maximal(f: SampledFunction, gamma: float, A: YoungFunction,
                       family: CubeFamily) -> SampledFunction:
    """M f(x) = sup over family cubes Q containing x of |Q|^gamma ||f||_Q.

    ||.||_Q is the mean-normalized Luxemburg norm (closed form for pure-power
    gauges, one batched solve per cube size otherwise)."""
    if not 0 <= gamma < 1:
        raise ValueError("gamma must lie in [0, 1)")
    grid = f.grid
    best = containing_max(grid.shape, (
        (sweep, ((sweep.m * grid.h) ** grid.dim) ** gamma * norms)
        for sweep, norms in norms_by_size(f.values, A, family)))
    # cube stats are nonnegative; a point no cube covers reads 0
    return SampledFunction(grid, np.maximum(0.0, best), name=f"M[{f.name}]")


def sup_inf_over_cubes(g: SampledFunction, family: CubeFamily,
                       Q0: Cube | None = None) -> SampledFunction:
    """sup over family cubes Q (x in Q, Q inside Q0) of inf over Q of g.

    Realizes the localized right-hand sides of the pointwise bounds; with
    no Q0 the sup runs over all family cubes of the grid.

    The sup is g(x) itself.  Every nonempty family holds the side-1 cubes,
    and these tile Q0 on both lattices, so the cell {x} is one of the cubes;
    it gives inf = g(x), and every other cube Q containing x gives
    inf_Q g <= g(x).  An empty family (max_side 0) covers no point, so every
    cell reads absent (NaN), as do the cells outside Q0.

    Nothing is lost against the cube-wise form of the local bounds: when
    h(x) is the sup of a_Q >= 0 over the family cubes Q containing x (a
    local sharp maximal function) and g > 0, the max over x of h(x) / g(x)
    equals the max over family cubes Q of a_Q / min_{x in Q} g(x).
    For finite g this equals the window-minimum sweep exactly; a NaN cell
    of a masked g stays at that cell instead of spreading to its cubes."""
    grid = g.grid
    if Q0 is None:
        Q0 = Cube(grid, (0,) * grid.dim, grid.cells_per_side)
    sub = g.values[Q0.slices]
    best = sub if family.sizes(cap=Q0.side_cells) else np.full(sub.shape, -np.inf)
    return _masked_points(grid, Q0, best, f"supinf[{g.name}]")


def lemma41_rhs(f: SampledFunction, Q: Cube, lam: LambdaSequence,
                gamma: float, r: float) -> float:
    """sum_m lambda_m |2^m Q|^gamma ( |2^m Q|^-1 int_{2^m Q : grid} |f|^r )^(1/r).

    Normalizing measures are unclipped, integrals run over the clipped
    dilates.  The dilates are nested, so their integrals come from one pass
    over the cells in order of `concentric_rank`."""
    if r < 1:
        raise ValueError("r must be >= 1")
    rank = concentric_rank(f.grid, Q.center2).ravel()
    box_sums = np.cumsum(np.bincount(rank, np.abs(f.values.ravel()) ** r))
    total = 0.0
    for m, lam_m in enumerate(lam.values, start=1):
        if lam_m == 0.0:
            continue
        U = unclipped_dilate_measure(Q, m)
        I = box_sums[min((1 << m) * Q.side_cells, box_sums.size - 1)] * f.grid.h**f.grid.dim
        total += lam_m * U**gamma * (I / U) ** (1.0 / r)
    return total
