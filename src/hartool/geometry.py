"""Grids, cubes, dyadic lattices, and sampled functions.

Everything downstream works on a uniform grid over a cube-shaped domain in
dimension 1 or 2.  Functions are sampled at cell centers (midpoint rule), so
all integrals are plain cell sums times the cell measure, and every cube or
box is described by integer cell coordinates.  Dilated cubes, which may stick
out of the domain, are clipped to the grid; their unclipped measure is kept
separately because normalizing factors use it.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import product
from typing import Iterator, Sequence

import numpy as np

__all__ = [
    "Grid",
    "Cube",
    "Box",
    "CubeFamily",
    "SampledFunction",
    "enumerate_cubes",
    "integrate",
    "measure",
    "dilate",
    "unclipped_dilate_measure",
    "concentric_box",
    "concentric_rank",
]


_SNAP = 1e-9  # guards floor/ceil of a real multiple of a cell count (t*n) against float noise


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class Grid:
    """Uniform grid of N^dim cells over the cube [origin, origin + side]^dim."""

    dim: int
    cells_per_side: int
    side_length: float = 1.0
    origin: tuple[float, ...] = ()

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ValueError(f"dim must be 1 or 2, got {self.dim}")
        if not _is_power_of_two(self.cells_per_side):
            raise ValueError(f"cells_per_side must be a power of 2, got {self.cells_per_side}")
        if not self.side_length > 0:
            raise ValueError("side_length must be positive")
        origin = tuple(float(x) for x in self.origin) if self.origin else (0.0,) * self.dim
        if len(origin) != self.dim:
            raise ValueError(f"origin must have {self.dim} coordinates")
        object.__setattr__(self, "origin", origin)

    @property
    def h(self) -> float:
        """Cell width."""
        return self.side_length / self.cells_per_side

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.cells_per_side,) * self.dim

    @property
    def ncells(self) -> int:
        return self.cells_per_side**self.dim

    def axis_centers(self, axis: int = 0) -> np.ndarray:
        n = self.cells_per_side
        return self.origin[axis] + (np.arange(n) + 0.5) * self.h

    def cell_centers(self) -> np.ndarray:
        """All cell centers, shape (ncells, dim), C order (lexicographic)."""
        axes = [self.axis_centers(d) for d in range(self.dim)]
        if self.dim == 1:
            return axes[0][:, None]
        xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
        return np.stack([xx.ravel(), yy.ravel()], axis=1)

    def cell_of_point(self, point: Sequence[float]) -> tuple[int, ...] | None:
        """Cell containing a real point (half-open cells), or None if outside."""
        idx = []
        for d in range(self.dim):
            j = int(np.floor((point[d] - self.origin[d]) / self.h))
            if j < 0 or j >= self.cells_per_side:
                return None
            idx.append(j)
        return tuple(idx)

    @property
    def diameter(self) -> float:
        return self.side_length * np.sqrt(self.dim)


@dataclass(frozen=True)
class Cube:
    """Axis-parallel grid cube: corner cell index plus side length in cells."""

    grid: Grid
    corner: tuple[int, ...]
    side_cells: int

    def __post_init__(self):
        corner = tuple(int(c) for c in self.corner)
        object.__setattr__(self, "corner", corner)
        if len(corner) != self.grid.dim:
            raise ValueError("corner has wrong dimension")
        if self.side_cells < 1:
            raise ValueError("side_cells must be >= 1")
        n = self.grid.cells_per_side
        for c in corner:
            if c < 0 or c + self.side_cells > n:
                raise ValueError(f"cube {corner}+{self.side_cells} does not fit in grid of {n} cells")

    @property
    def side_length(self) -> float:
        return self.side_cells * self.grid.h

    @property
    def measure(self) -> float:
        return self.side_length**self.grid.dim

    @property
    def ncells(self) -> int:
        return self.side_cells**self.grid.dim

    @property
    def center(self) -> np.ndarray:
        return np.array([self.grid.origin[d] + (self.corner[d] + self.side_cells / 2.0) * self.grid.h
                         for d in range(self.grid.dim)])

    @property
    def center2(self) -> tuple[int, ...]:
        """Center in half-cell units (always an integer)."""
        return tuple(2 * c + self.side_cells for c in self.corner)

    @property
    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(c, c + self.side_cells) for c in self.corner)

    def contains_cell(self, idx: Sequence[int]) -> bool:
        return all(c <= i < c + self.side_cells for c, i in zip(self.corner, idx))

    def to_json(self) -> dict:
        return {"corner": list(self.corner), "side_cells": self.side_cells}


@dataclass(frozen=True)
class Box:
    """Axis-parallel block of cells; shape may differ per axis (clipped dilates)."""

    grid: Grid
    corner: tuple[int, ...]
    shape: tuple[int, ...]

    @property
    def is_empty(self) -> bool:
        return any(s <= 0 for s in self.shape)

    @property
    def ncells(self) -> int:
        return 0 if self.is_empty else int(np.prod(self.shape))

    @property
    def measure(self) -> float:
        return self.ncells * self.grid.h**self.grid.dim

    @property
    def slices(self) -> tuple[slice, ...]:
        return tuple(slice(c, c + s) for c, s in zip(self.corner, self.shape))

    def to_json(self) -> dict:
        return {"corner": list(self.corner), "shape": list(self.shape)}


def dilate(cube: Cube, m: int) -> Box:
    """Concentric dilate 2^m Q, clipped to the grid (see `concentric_box`).

    Keeps measure(clipped) <= 2^(m dim) measure(Q) exact even for odd side
    counts."""
    if m < 0:
        raise ValueError("dilation exponent must be >= 0")
    return concentric_box(cube.grid, cube.center2, (1 << m) * cube.side_cells)


def unclipped_dilate_measure(cube: Cube, m: int) -> float:
    """|2^m Q| before clipping, used in normalizing factors."""
    return ((1 << m) * cube.side_length)**cube.grid.dim


def concentric_box(grid: Grid, center2: Sequence[int], side_cells: int) -> Box:
    """Box of given side (in cells) centered at a half-cell lattice point, clipped.

    Computed on the half-cell integer lattice: a cell k belongs to the box
    iff its center 2k + 1 lies in [c2 - side, c2 + side) on every axis."""
    n = grid.cells_per_side
    first = [max(0, (c2 - side_cells) // 2) for c2 in center2]
    last = [min(n - 1, (c2 + side_cells - 2) // 2) for c2 in center2]
    return Box(grid, tuple(first), tuple(b - a + 1 for a, b in zip(first, last)))


def concentric_rank(grid: Grid, center2: Sequence[int]) -> np.ndarray:
    """Per cell, the smallest side j whose `concentric_box(grid, center2, j)`
    holds it (an int array of the grid's shape, every entry >= 1).

    Boxes around one center are nested, so the box of side j is exactly the
    cells of rank <= j.  On an axis, cell k has center 2k + 1 in half-cell
    units, which lies in [c2 - j, c2 + j) iff j >= max(c2 - 2k - 1, 2k + 2 - c2);
    a cell's rank is the max of that over the axes."""
    k2 = 2 * np.arange(grid.cells_per_side)
    axes = [np.maximum(c2 - k2 - 1, k2 + 2 - c2) for c2 in center2]
    return axes[0] if grid.dim == 1 else np.maximum.outer(axes[0], axes[1])


@dataclass(frozen=True)
class CubeFamily:
    """Admissible cube family: every grid-aligned cube up to a side cap, or dyadic.

    Dyadic members have side 2^k with corners on the matching 2^k lattice.
    """

    grid: Grid
    kind: str = "all"  # "all" | "dyadic"
    max_side: int | None = None

    def __post_init__(self):
        if self.kind not in ("all", "dyadic"):
            raise ValueError(f"unknown family kind {self.kind!r}")

    def sizes(self, cap: int | None = None) -> list[int]:
        n = self.grid.cells_per_side
        top = n if self.max_side is None else min(self.max_side, n)
        if cap is not None:
            top = min(top, cap)
        if self.kind == "all":
            return list(range(1, top + 1))
        return [1 << k for k in range((top).bit_length()) if (1 << k) <= top]

    def iter_cubes(self, containing: Sequence[int] | None = None) -> Iterator[Cube]:
        """Cubes in lexicographic-by-corner, then ascending-size order."""
        n = self.grid.cells_per_side
        sizes = self.sizes()
        if not sizes:
            return
        for corner in product(range(n), repeat=self.grid.dim):
            for m in sizes:
                if any(c + m > n for c in corner):
                    continue
                if self.kind == "dyadic" and any(c % m for c in corner):
                    continue
                if containing is not None and not all(c <= i < c + m for c, i in zip(corner, containing)):
                    continue
                yield Cube(self.grid, corner, m)

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.max_side is not None:
            out["max_side"] = self.max_side
        return out

    @classmethod
    def from_json(cls, grid: Grid, data: dict) -> "CubeFamily":
        max_side = data.get("max_side")
        if max_side is not None and (type(max_side) is not int or max_side < 1):
            raise ValueError(f"max_side must be null or an integer >= 1, got {max_side!r}")
        return cls(grid, kind=data.get("kind", "all"), max_side=max_side)


def enumerate_cubes(family: CubeFamily, containing: Sequence[int] | None = None) -> list[Cube]:
    return list(family.iter_cubes(containing))


class SampledFunction:
    """Real-valued function sampled at cell centers; also used for weights.

    Treated as immutable after construction.  Values must be finite.
    """

    __slots__ = ("grid", "values", "name")

    def __init__(self, grid: Grid, values, name: str = "", masked: bool = False):
        arr = np.asarray(values, dtype=float)
        if arr.shape != grid.shape:
            arr = arr.reshape(grid.shape)
        if not masked and not np.all(np.isfinite(arr)):
            raise ValueError("sampled values must be finite")
        if masked and np.any(np.isinf(arr)):
            raise ValueError("masked functions may hold NaN for absent cells, not inf")
        self.grid = grid
        self.values = arr
        self.name = name

    @classmethod
    def constant(cls, grid: Grid, c: float, name: str = "") -> "SampledFunction":
        return cls(grid, np.full(grid.shape, float(c)), name)

    def __abs__(self) -> "SampledFunction":
        return SampledFunction(self.grid, np.abs(self.values), self.name)

    def scaled(self, a: float) -> "SampledFunction":
        return SampledFunction(self.grid, a * self.values, self.name)

    def shifted(self, b: float) -> "SampledFunction":
        return SampledFunction(self.grid, self.values + b, self.name)

    def is_nonnegative(self) -> bool:
        return bool(np.all(self.values >= 0))

    def to_csv(self) -> str:
        """One row per cell in lexicographic order, after a metadata header."""
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        g = self.grid
        w.writerow(["dim", "N", "L", "origin"])
        w.writerow([g.dim, g.cells_per_side, repr(g.side_length), ";".join(repr(x) for x in g.origin)])
        idx_cols = [f"i{d}" for d in range(g.dim)]
        w.writerow(idx_cols + ["value"])
        flat = self.values.ravel()
        for k, idx in enumerate(product(range(g.cells_per_side), repeat=g.dim)):
            w.writerow(list(idx) + [repr(float(flat[k]))])
        return buf.getvalue()

    @classmethod
    def from_csv(cls, text: str, name: str = "") -> "SampledFunction":
        rows = list(csv.reader(io.StringIO(text)))
        if rows[0][:4] != ["dim", "N", "L", "origin"]:
            raise ValueError("bad header")
        dim, n = int(rows[1][0]), int(rows[1][1])
        side = float(rows[1][2])
        origin = tuple(float(x) for x in rows[1][3].split(";"))
        grid = Grid(dim, n, side, origin)
        vals = np.empty(grid.ncells)
        for k, row in enumerate(rows[3:]):
            vals[k] = float(row[-1])
        return cls(grid, vals.reshape(grid.shape), name)


def measure(region: Cube | Box) -> float:
    return region.measure


def _halving_sum(a: np.ndarray) -> float:
    # Recursive halving keeps dyadic parent == sum of children exact in floats.
    if a.size == 0:
        return 0.0
    if a.size == 1:
        return float(a.reshape(()))
    axis = int(np.argmax(a.shape))
    k = a.shape[axis] // 2
    lo = a.take(indices=range(0, k), axis=axis)
    hi = a.take(indices=range(k, a.shape[axis]), axis=axis)
    return _halving_sum(lo) + _halving_sum(hi)


def integrate(f: SampledFunction, region: Cube | Box) -> float:
    """Midpoint-rule integral of f over a cube or box of its grid."""
    if region.grid != f.grid:
        raise ValueError("region grid does not match function grid")
    if isinstance(region, Box) and region.is_empty:
        return 0.0
    sub = f.values[region.slices]
    return _halving_sum(sub) * f.grid.h**f.grid.dim
