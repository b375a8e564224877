"""Generalized Orlicz-Morrey norms and Campanato seminorms.

For a gauge Phi and a positive weight phi(x, t) that decreases in t, the
Morrey norm is the sup over cubes Q = Q(x, l) (center x, side l) of

    (1 / phi(x, l)) Phi^{-1}(1/|Q|) ||f||_{Phi, Q}

with the raw (integral-normalized) Luxemburg norm.  The Campanato
seminorm replaces ||f||_{Phi, Q} by inf_c ||f - c||_{Phi, Q}.  For a
quadratic gauge a t^2 the infimum is attained at the window mean; for
every other gauge the map c -> norm is convex and the infimum is found by
ternary search, with a brute-force scan as a test oracle.  The module
also provides the localization gap record behind the Morrey-boundedness
of the fractional maximal operator, and the two weight-compatibility
checks used to pre-qualify (phi, psi) pairs.

All sups over the auxiliary scale t are truncated at twice the domain
side; the truncation radius is part of the harness report metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._sweeps import cube_sweep, norms_by_size
from .gauges import (LinearGauge, MorreyWeight, YoungFunction, _power_norms, batched_mean_norms,
                     luxemburg_raw_norm)
from .geometry import _SNAP, Cube, CubeFamily, Grid, SampledFunction, concentric_rank
from .maximal import fractional_maximal

__all__ = [
    "morrey_norm",
    "campanato_seminorm",
    "Prop51Record",
    "prop51_gap",
    "compat_52",
    "compat_53",
]

TRUNCATION_FACTOR = 2.0  # sup over t runs up to this multiple of the domain side
CAMPANATO_TERNARY_ITERS = 90  # ternary steps for the per-cube best constant


def morrey_norm(f: SampledFunction, Phi: YoungFunction, phi: MorreyWeight,
                family: CubeFamily) -> float:
    """sup over family cubes of (1/phi(x, l)) Phi^{-1}(1/|Q|) ||f||_{Phi,Q}."""
    h = f.grid.h
    best = 0.0
    for sweep, norms in norms_by_size(f.values, Phi, family, raw=True):
        l = sweep.m * h
        factor = Phi.inverse(1.0 / l**f.grid.dim) / float(phi.value(None, l))
        best = max(best, factor * float(norms.max(initial=0.0)))
    return best


def campanato_seminorm(f: SampledFunction, Phi: YoungFunction, phi: MorreyWeight,
                       family: CubeFamily) -> float:
    """Morrey-type sup with the per-cube best constant removed.

    For a gauge whose power form is a t^2, the norm of f - c on a cube is
    monotone in sum_Q |f - c|^2, which the window mean minimizes exactly.
    For every other gauge the per-cube map c -> ||f - c||_{Phi,Q} is convex
    and is minimized by CAMPANATO_TERNARY_ITERS steps of ternary search on
    [min_Q f, max_Q f].  Constants are annihilated and the seminorm is
    shift invariant."""
    h = f.grid.h
    power = Phi.power_form()
    best = 0.0
    for sweep in cube_sweep(family):
        rows = sweep.rows(f.values)
        l = sweep.m * h
        meas = l**f.grid.dim
        raw = lambda c: batched_mean_norms(rows - c[:, None], Phi, meas)
        if power is not None and power[0] == 2.0:
            norms = raw(rows.mean(axis=1))
        else:
            lo = rows.min(axis=1)
            hi = rows.max(axis=1)
            for _ in range(CAMPANATO_TERNARY_ITERS):
                c1 = lo + (hi - lo) / 3.0
                c2 = hi - (hi - lo) / 3.0
                take = raw(c1) < raw(c2)
                hi = np.where(take, c2, hi)
                lo = np.where(take, lo, c1)
            norms = raw(0.5 * (lo + hi))
        factor = Phi.inverse(1.0 / meas) / float(phi.value(None, l))
        best = max(best, factor * float(norms.max(initial=0.0)))
    return best


@dataclass(frozen=True)
class Prop51Record:
    """Both sides of the localization bound for the fractional maximal
    operator on one cube, for the harness to ratio."""

    lhs: float
    rhs_i: float
    rhs_ii: float
    t_range_empty: bool
    truncation: float

    def to_json(self) -> dict:
        return {
            "lhs": self.lhs,
            "rhs_i": self.rhs_i,
            "rhs_ii": self.rhs_ii,
            "t_range_empty": self.t_range_empty,
            "truncation": self.truncation,
        }


def _power_exponents(Phi: YoungFunction, Psi: YoungFunction, gamma: float):
    pf, qf = Phi.power_form(), Psi.power_form()
    if pf is None or qf is None:
        raise ValueError("localization gap is implemented for power gauges")
    p, q = pf[0], qf[0]
    if abs(1.0 / q - (1.0 / p - gamma)) > 1e-9:
        raise ValueError("gauges must satisfy the matched-exponent relation 1/q = 1/p - gamma")
    return p, q


def prop51_gap(f: SampledFunction, Phi: YoungFunction, Psi: YoungFunction,
               gamma: float, Q: Cube, cn_dn: float,
               mf: SampledFunction | None = None) -> Prop51Record:
    """Record ||M f||_{Psi,Q} against the two localized majorants.

    mf is the fractional maximal function M f; a caller that checks many
    cubes computes it once and passes it in.  When it is None it is
    computed here over the family of all cubes.  The sup over scales
    t > cn_dn * l runs over concentric boxes centered at Q's center with
    sides in whole cells, clipped to the grid, up to the truncation radius;
    normalizing measures stay unclipped.  The boxes are nested, so the sums
    of |f| and |f|^p over every box come from one pass over the cells in
    order of `concentric_rank`, and the power gauges' raw Luxemburg norms
    from their closed form."""
    p, q = _power_exponents(Phi, Psi, gamma)
    grid = f.grid
    if mf is None:
        mf = fractional_maximal(f, gamma, LinearGauge(1.0), CubeFamily(grid, "all"))
    lhs = luxemburg_raw_norm(mf, Q, Psi)
    h = grid.h
    cellm = h**grid.dim
    t_cap = int(round(TRUNCATION_FACTOR * grid.side_length / h))
    j_lo_excl = int(math.floor(cn_dn * Q.side_cells + _SNAP)) + 1  # t strictly above
    j_lo_incl = int(math.ceil(cn_dn * Q.side_cells - _SNAP))
    psi_inv_q = Psi.inverse(1.0 / Q.measure)
    # entry j - 1 is the box of side j cells, j = 1..t_cap; none is empty
    rank = concentric_rank(grid, Q.center2).ravel()
    box_sums = lambda w: np.bincount(rank, w.ravel(), t_cap + 1)[1:t_cap + 1].cumsum()
    absf = np.abs(f.values)
    norm_f = _power_norms(box_sums(absf**p), 1, Phi.power_form(), cellm)  # raw norm on each box
    j = np.arange(1, t_cap + 1)
    unclipped = (j * h) ** grid.dim
    sup_i = (cellm * box_sums(absf) / unclipped ** (1.0 - gamma))[j >= j_lo_excl]
    # Psi^{-1}(1/|B|) / Psi^{-1}(1/|Q|) = (|Q|/|B|)^(1/q) for the power gauge Psi
    sup_ii = ((Q.measure / unclipped) ** (1.0 / q) * norm_f)[j >= j_lo_incl]
    empty = j_lo_excl > t_cap and j_lo_incl > t_cap
    rhs_i = norm_f[2 * Q.side_cells - 1] + sup_i.max(initial=0.0) / psi_inv_q
    rhs_ii = sup_ii.max(initial=0.0)
    return Prop51Record(lhs, rhs_i, rhs_ii, empty, t_cap * h)


def compat_52(phi: MorreyWeight, psi: MorreyWeight, gamma: float, grid: Grid) -> float:
    """max over scales r <= t of t^(n gamma) phi(x, t) / psi(x, r).

    Finiteness certifies the scale-compatibility hypothesis on the
    discretized range.  The implemented weight families are spatially
    uniform, so the sweep over centers x is trivial."""
    sides = np.arange(1, grid.cells_per_side + 1) * grid.h
    x = None
    num = sides ** (grid.dim * gamma) * np.asarray(phi.value(x, sides), dtype=float)
    den = np.asarray(psi.value(x, sides), dtype=float)
    # sup over t >= r realized by a reversed running max
    tail_max = np.maximum.accumulate(num[::-1])[::-1]
    return float((tail_max / den).max())


def compat_53(phi: MorreyWeight, psi: MorreyWeight, grid: Grid) -> float:
    """max over l of psi(x, l) int_l^D (1/phi(x, t)) dt/t, D the domain diameter,
    each integral a midpoint sum over 4000 panels uniform in log t."""
    D = grid.diameter
    sides = np.arange(1, grid.cells_per_side + 1) * grid.h
    sides = sides[sides < D]
    best = 0.0
    x = None
    for l in sides:
        u = np.linspace(math.log(l), math.log(D), 4001)
        mid = 0.5 * (u[1:] + u[:-1])
        du = u[1] - u[0]
        integral = float(np.sum(du / np.asarray(phi.value(x, np.exp(mid)), dtype=float)))
        best = max(best, float(psi.value(x, l)) * integral)
    return best
