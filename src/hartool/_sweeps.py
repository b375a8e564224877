"""The cube-sweep engine: per-cube statistics over an admissible cube family.

Every supremum over a cube family in the package runs through `cube_sweep`,
and nothing outside this module branches on the family kind.  For each cube
side m of the family, in descending order, `cube_sweep` yields a `Sweep`:
the lattice of corners of the size-m family cubes inside a base cube Q0
(the whole grid by default).  The "all" family takes every corner (start 0,
stride 1); the dyadic family takes the corners on the global m-lattice
(start (-corner0) % m, stride m).  A Sweep computes corner-indexed
statistics on that lattice -- window sums and window rows -- and
`containing_max` turns the statistics of all sizes into the point-indexed
max over the family cubes containing each point.  `norms_by_size` adds one
Luxemburg norm per cube.

Windows are strided views of the value array; rows (one window per row) are
materialized only where a solver needs them.  Overlapping windows (stride 1)
are summed with prefix sums, non-overlapping ones (stride m) as exact block
sums, so zero blocks give exact zeros.  All reductions run in a fixed
size-major order, so results are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .gauges import YoungFunction, _power_norms, batched_mean_norms
from .geometry import Cube, CubeFamily

__all__ = [
    "Sweep",
    "cube_sweep",
    "norms_by_size",
    "window_sums",
    "window_matrix",
    "containing_max",
]


# Corner lattices are given per axis as start + stride * k (start a tuple).

def _lattice(start: tuple[int, ...], stride: int) -> tuple[slice, ...]:
    return tuple(slice(s, None, stride) for s in start)


def window_sums(values: np.ndarray, m: int, start: tuple[int, ...], stride: int) -> np.ndarray:
    """Sum over each m-window (m x m in 2D) at the corner lattice."""
    dim = values.ndim
    if stride == m:  # the windows tile their span: exact block sums
        counts = [(n - m - s) // m + 1 for n, s in zip(values.shape, start)]
        span = values[tuple(slice(s, s + k * m) for s, k in zip(start, counts))]
        blocks = span.reshape([d for k in counts for d in (k, m)])
        return blocks.sum(axis=tuple(range(1, 2 * dim, 2)))
    if dim == 1:
        p = np.concatenate([[0.0], np.cumsum(values)])
        sums = p[m:] - p[:-m]
    else:
        p = np.zeros((values.shape[0] + 1, values.shape[1] + 1))
        p[1:, 1:] = values.cumsum(axis=0).cumsum(axis=1)
        sums = p[m:, m:] - p[:-m, m:] - p[m:, :-m] + p[:-m, :-m]
    return sums[_lattice(start, stride)]


def window_matrix(values: np.ndarray, m: int, start: tuple[int, ...], stride: int) -> np.ndarray:
    """The m-windows at the corner lattice flattened to rows: (ncorners, m^dim)."""
    view = sliding_window_view(values, (m,) * values.ndim)[_lattice(start, stride)]
    return view.reshape(-1, m**values.ndim)


@dataclass(frozen=True)
class Sweep:
    """The size-m family cubes inside an n0-cell base cube: their corners are
    start + stride * k per axis, in local cell indices."""

    m: int
    n0: int
    start: tuple[int, ...]
    stride: int

    @property
    def corners(self) -> tuple[int, ...]:
        """Shape of the corner lattice."""
        return tuple(max(0, (self.n0 - self.m - s) // self.stride + 1) for s in self.start)

    def sums(self, values: np.ndarray) -> np.ndarray:
        return window_sums(values, self.m, self.start, self.stride)

    def rows(self, values: np.ndarray) -> np.ndarray:
        return window_matrix(values, self.m, self.start, self.stride)


def cube_sweep(family: CubeFamily, Q0: Cube | None = None) -> Iterator[Sweep]:
    """One Sweep per family cube side that fits inside Q0 (default: the grid),
    largest side first.

    Sizes with no family cube inside Q0 are skipped."""
    grid = family.grid
    corner0 = (0,) * grid.dim if Q0 is None else Q0.corner
    n0 = grid.cells_per_side if Q0 is None else Q0.side_cells
    for m in reversed(family.sizes(cap=n0)):
        if family.kind == "all":
            sweep = Sweep(m, n0, (0,) * grid.dim, 1)
        else:  # dyadic: corners on the global m-lattice
            sweep = Sweep(m, n0, tuple((-c) % m for c in corner0), m)
        if min(sweep.corners) > 0:
            yield sweep


def _grow(out: np.ndarray, d: int) -> np.ndarray:
    """Max of out shifted by 0 and by d on every axis, -inf where a shift runs off."""
    for axis in range(out.ndim):
        n = out.shape[axis]
        head = (slice(None),) * axis
        grown = np.full(out.shape[:axis] + (n + d,) + out.shape[axis + 1:], -np.inf)
        grown[head + (slice(0, n),)] = out
        shifted = grown[head + (slice(d, None),)]
        np.maximum(shifted, out, out=shifted)
        out = grown
    return out


def containing_max(shape: tuple[int, ...],
                   stats: Iterable[tuple[Sweep, np.ndarray]]) -> np.ndarray:
    """Point-indexed max over the family cubes containing each point.

    stats yields (sweep, corner values) in `cube_sweep`'s descending size
    order.  The running max W at side m lives on the full corner grid of side
    n0 - m + 1, -inf off the lattice.  Per axis, a cube of the previous side
    m + d contains the m-cube at corner c exactly when its corner is c - d or
    c (d = 1 for all cubes; d = m for dyadic ones, where just one of the two
    is on the 2m-lattice), so W_m is the size-m values maxed with the
    previous W shifted by 0 and by d.  Side 1 ends the chain at the points;
    with no cubes every point reads -inf."""
    out = np.full((0,) * len(shape), -np.inf)
    for sweep, vals in stats:
        out = _grow(out, sweep.n0 - sweep.m + 1 - out.shape[0])
        corners = out[_lattice(sweep.start, sweep.stride)]
        np.maximum(corners, vals, out=corners)
    return _grow(out, shape[0] - out.shape[0])


def norms_by_size(values: np.ndarray, A: YoungFunction, family: CubeFamily,
                  raw: bool = False) -> Iterator[tuple[Sweep, np.ndarray]]:
    """Yield (sweep, Luxemburg norm of |values| on each cube, corner-indexed).

    Norms are mean-normalized, or raw (scale |Q|) when raw is set.  Pure-power
    gauges take the closed form from window sums of |values|^p; other gauges
    solve one batched row per cube."""
    grid = family.grid
    absvals = np.abs(values)
    power = A.power_form()
    pw = absvals ** power[0] if power is not None else None
    for sweep in cube_sweep(family):
        scale = (sweep.m * grid.h) ** grid.dim if raw else 1.0
        if power is not None:
            norms = _power_norms(sweep.sums(pw), sweep.m**grid.dim, power, scale)
        else:
            norms = batched_mean_norms(sweep.rows(absvals), A, scale).reshape(sweep.corners)
        yield sweep, norms
