"""Weight-class diagnostics.

Provides the classical Muckenhoupt-type constants (the p-mean diagnostic
and the geometric-mean form of the infinity constant), the two-weight
small-subset condition

    w(E) <= c (|E|/|Q|)^beta v(Q \\ E)   for all E subset Q, |E| <= alpha |Q|,

whose optimal constant is computed exactly per cube and subset size by
Dinkelbach fractional programming (each iterate is a top-k vertex
solution, so convergence is finite), and the two-weight bump product

    sup_Q |Q|^(gamma r) |Q|^(r/q - r/p) ||w^(r/q)||_A,Q ||v^(-r/p)||_B,Q

with mean-normalized Luxemburg norms.  Subsets are unions of whole cells,
the measurable atoms of the discretization, so reported small-subset
constants are lower bounds for the continuum ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sweeps import cube_sweep, norms_by_size
from .gauges import YoungFunction
from .geometry import _SNAP, Cube, CubeFamily, SampledFunction

__all__ = [
    "ConditionFParams",
    "FWitness",
    "condition_f_constant",
    "subset_ratio_exact",
    "ap_constant",
    "ainfty_constant",
    "bump_condition",
]


@dataclass(frozen=True)
class ConditionFParams:
    """Small-subset condition parameters: fraction cap alpha, exponent beta."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not 0 < self.alpha < 1:
            raise ValueError("alpha must lie in (0, 1)")
        if not self.beta > 0:
            raise ValueError("beta must be positive")


@dataclass(frozen=True)
class FWitness:
    """Attaining configuration for the small-subset constant."""

    cube: Cube
    subset: tuple[tuple[int, ...], ...]  # cell multi-indices
    ratio: float
    required_c: float

    def to_json(self) -> dict:
        return {
            "cube": self.cube.to_json(),
            "subset": [list(idx) for idx in self.subset],
            "ratio": _json_num(self.ratio),
            "required_c": _json_num(self.required_c),
        }


def _json_num(x: float):
    return x if math.isfinite(x) else ("inf" if x > 0 else "-inf")


def subset_ratio_exact(wv: np.ndarray, vv: np.ndarray, k: int) -> tuple[float, np.ndarray]:
    """max over |E| = k of w(E) / v(Q minus E), by Dinkelbach iteration.

    Returns (ratio, selected flat indices); ratio is inf when the optimal
    complement carries no v-mass but E carries w-mass."""
    vtot = float(vv.sum())
    sel = np.argpartition(-wv, k - 1)[:k]
    lam = -1.0
    for _ in range(200):
        num = float(wv[sel].sum())
        den = vtot - float(vv[sel].sum())
        if den <= 0.0:
            return (math.inf, sel) if num > 0 else (0.0, sel)
        new_lam = num / den
        if new_lam <= lam * (1.0 + 1e-15) + 1e-300:
            break
        lam = new_lam
        scores = wv + lam * vv
        sel = np.argpartition(-scores, k - 1)[:k]
    return max(lam, 0.0), sel


def condition_f_constant(w: SampledFunction, v: SampledFunction,
                         params: ConditionFParams,
                         family: CubeFamily) -> tuple[float, FWitness | None]:
    """Smallest constant making the small-subset inequality hold on the family.

    For each cube Q and admissible cell count k <= alpha * ncells the exact
    optimum lambda*(Q, k) = max_{|E|=k} w(E)/v(Q \\ E) is computed, and the
    result is max over (Q, k) of lambda* / (k/ncells)^beta with the
    attaining witness."""
    if not (w.is_nonnegative() and v.is_nonnegative()):
        raise ValueError("weights must be nonnegative")
    best_c = 0.0
    witness = None
    for Q in family.iter_cubes():
        wv = w.values[Q.slices].ravel()
        vv = v.values[Q.slices].ravel()
        ncells = wv.size
        kmax = int(math.floor(params.alpha * ncells + _SNAP))
        for k in range(1, kmax + 1):
            lam, sel = subset_ratio_exact(wv, vv, k)
            if lam == 0.0:
                continue
            required = lam / (k / ncells) ** params.beta
            if required > best_c:
                best_c = required
                subset = tuple(_global_index(Q, i) for i in sorted(int(i) for i in sel))
                witness = FWitness(Q, subset, lam, required)
                if math.isinf(required):
                    return best_c, witness
    return best_c, witness


def _global_index(Q: Cube, flat_local: int) -> tuple[int, ...]:
    local = np.unravel_index(flat_local, (Q.side_cells,) * Q.grid.dim)
    return tuple(int(c + o) for c, o in zip(local, Q.corner))


def ap_constant(w: SampledFunction, p: float, family: CubeFamily) -> float:
    """max over family cubes of (mean w) (mean w^(-1/(p-1)))^(p-1)."""
    if not p > 1:
        raise ValueError("p must exceed 1")
    if np.any(w.values <= 0):
        raise ValueError("weight must be strictly positive for this diagnostic")
    winv = w.values ** (-1.0 / (p - 1.0))
    best = 0.0
    for sweep in cube_sweep(family):
        ncells = sweep.m**w.grid.dim
        mean_w, mean_wi = sweep.sums(w.values) / ncells, sweep.sums(winv) / ncells
        best = max(best, float((mean_w * mean_wi ** (p - 1.0)).max()))
    return best


def ainfty_constant(w: SampledFunction, family: CubeFamily) -> float:
    """max over family cubes of (mean w) exp(mean of -log w).

    Single-sweep geometric-mean form of the infinity-class diagnostic."""
    if np.any(w.values <= 0):
        raise ValueError("weight must be strictly positive for this diagnostic")
    neglog = -np.log(w.values)
    best = 0.0
    for sweep in cube_sweep(family):
        ncells = sweep.m**w.grid.dim
        mean_w, mean_nl = sweep.sums(w.values) / ncells, sweep.sums(neglog) / ncells
        best = max(best, float((mean_w * np.exp(mean_nl)).max()))
    return best


def bump_condition(w: SampledFunction, v: SampledFunction, A: YoungFunction,
                   B: YoungFunction, p: float, q: float, r: float, gamma: float,
                   family: CubeFamily) -> float:
    """sup over family cubes of the two-weight bump product.

    Setting r = 1 with a plain power gauge on the w side recovers the
    single-bump form of the condition."""
    if not (r >= 1 and r < p < q):
        raise ValueError("need 1 <= r < p < q")
    if np.any(v.values <= 0):
        raise ValueError("v must be strictly positive (its negative power enters)")
    if not w.is_nonnegative():
        raise ValueError("w must be nonnegative")
    h = family.grid.h
    dim = family.grid.dim
    wpow = w.values ** (r / q)
    vpow = v.values ** (-r / p)
    exponent = gamma * r + r / q - r / p
    norms_v = [norms for _, norms in norms_by_size(vpow, B, family)]
    best = 0.0
    for (sweep, norms_w), nv in zip(norms_by_size(wpow, A, family), norms_v):
        meas = (sweep.m * h) ** dim
        prod = meas**exponent * norms_w * nv
        best = max(best, float(prod.max()))
    return best
