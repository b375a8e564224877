"""Inequality runners: per-grid empirical constants, witnesses, stability.

Each catalog entry computes the two sides of its inequality for every
suite member on every configured grid, forms the empirical constant
c_emp = max LHS/RHS over the suite, and checks refinement stability
(the ratio of c_emp between the two finest grids must not exceed the
stability factor).  What a runner reads, and so whether its context holds
a kernel and a weight suite, is the id's ``params`` entry in
``INEQUALITY_CATALOG``.

Every LHS/RHS pair of a grid, a pointwise array or a scalar (a 0-d array),
goes into one `RatioCollector`, whose `finalize` reduces them all in one
vectorised pass over their concatenation: pairs where the right side is
zero together with the left are skipped; a zero right side against a
positive left side, or a non-finite value, is a failure witness (the
first five in insertion order, with the grid point for array pairs);
near-zero right sides (below 1e-14 of the largest finite right side) are
excluded to avoid 0/0 noise, with exclusion counts reported; and one
argmax over the remaining ratios gives c_emp and its witness, the first
pair and point attaining it.

Each runner is one serial loop over the suite, adding rows in suite
order; the config's ``threads`` field is accepted and ignored, so reports
are byte-identical for any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from ..gauges import (ConjugateGauge, LinearGauge, PowerGauge, bump_norm, luxemburg_mean_norm,
                      tail_converges)
from ..geometry import Cube, CubeFamily, SampledFunction
from ..maximal import (_window_count, fractional_maximal, lemma41_rhs,
                       local_sharp_maximal, median, narrowest_windows, sharp_median,
                       sharp_median_plugin, sup_inf_over_cubes)
from ..operators import SINGULAR_CELL_POLICY, apply_kernel, hormander_lambda, omega_lambda
from ..spaces import (TRUNCATION_FACTOR, campanato_seminorm, compat_52, compat_53, morrey_norm,
                      prop51_gap)
from ..weights import bump_condition
from .config import INEQUALITY_CATALOG, ConfigError, ExperimentConfig
from .report import GridRecord, Report, sanitize
from .suite import generate_suite

__all__ = ["run_inequality", "refinement_study", "median_decay_check",
           "MedianDecay", "reevaluate_witness"]

RATIO_FLOOR = 1e-14
DECAY_LAST_DROP = 0.95    # largest-window median must sit below 95% of the
                          # previous one and of the peak: material decay
MAX_REPORTED_FAILURES = 5


# ---------------------------------------------------------------------------
# ratio bookkeeping

class RatioCollector:
    """Accumulates LHS/RHS pairs and reduces them to c_emp plus witness.

    A pair is two arrays of one shape, pointwise values over the grid, or
    two scalars, kept as 0-d arrays; `finalize` reduces all of them in one
    pass over their concatenation."""

    def __init__(self):
        self._pairs: list[tuple[np.ndarray, np.ndarray, dict]] = []

    def add_array(self, lhs, rhs, tag: dict):
        self._pairs.append((np.asarray(lhs, float), np.asarray(rhs, float), tag))

    add_scalar = add_array

    def iter_csv_rows(self):
        for lhs, rhs, tag in self._pairs:
            yield tag, lhs.ravel(), rhs.ravel(), lhs.shape or (1,)

    def finalize(self) -> dict:
        lhs = np.concatenate([np.empty(0)] + [pair[0].ravel() for pair in self._pairs])
        rhs = np.concatenate([np.empty(0)] + [pair[1].ravel() for pair in self._pairs])
        starts = np.cumsum([0] + [pair[0].size for pair in self._pairs])
        floor = RATIO_FLOOR * float(rhs[np.isfinite(rhs)].max(initial=0.0))
        valid = np.isfinite(lhs) & np.isfinite(rhs)
        zero_rhs = valid & (rhs == 0.0)
        keep = valid & (rhs > 0.0) & (rhs >= floor)

        def locate(flat: int) -> tuple[dict, dict]:
            """The tag of the pair holding entry flat, and its point if an array pair."""
            i = int(np.searchsorted(starts, flat, side="right")) - 1
            pair_lhs, _, tag = self._pairs[i]
            if not pair_lhs.ndim:
                return tag, {}
            point = np.unravel_index(flat - starts[i], pair_lhs.shape)
            return tag, {"point": [int(v) for v in point]}

        failures = []
        for flat in np.flatnonzero(~valid | (zero_rhs & (lhs > 0.0)))[:MAX_REPORTED_FAILURES]:
            tag, where = locate(flat)
            if valid[flat]:
                failures.append({"reason": "rhs zero with positive lhs", "tag": tag, **where,
                                 "lhs": float(lhs[flat])})
            else:
                failures.append({"reason": "non-finite value", "tag": tag, **where,
                                 "lhs": float(lhs[flat]), "rhs": float(rhs[flat])})
        c_emp, witness = 0.0, None
        if keep.any():
            ratios = np.where(keep, lhs / np.where(keep, rhs, 1.0), -np.inf)
            flat = int(np.argmax(ratios))
            tag, where = locate(flat)
            c_emp = max(c_emp, float(ratios[flat]))
            witness = dict(tag, **where, lhs=float(lhs[flat]), rhs=float(rhs[flat]),
                           ratio=float(ratios[flat]))
        return {"c_emp": c_emp, "witness": witness, "failures": failures,
                "excluded": int(np.count_nonzero(valid & (rhs > 0.0) & (rhs < floor))),
                "skipped": int(np.count_nonzero(zero_rhs & (lhs == 0.0)))}


# ---------------------------------------------------------------------------
# shared context

@dataclass
class _Ctx:
    cfg: ExperimentConfig
    grid: object
    family: CubeFamily
    functions: list
    weights: list = field(default_factory=list)
    kernel: object = None

    @property
    def full_cube(self) -> Cube:
        return Cube(self.grid, (0,) * self.grid.dim, self.grid.cells_per_side)

    @property
    def cellm(self) -> float:
        return self.grid.h**self.grid.dim


def _build_ctx(cfg: ExperimentConfig, n: int) -> _Ctx:
    """Grid, family and suite of one run, with the weight suite and the kernel
    when the id's declared params call for them."""
    grid = cfg.grid_for(n)
    family = cfg.family_for(grid)
    functions = generate_suite(cfg.suite, grid, cfg.seed)
    weights = (generate_suite(cfg.weight_suite, grid, cfg.seed + 1000)
               if "weight_suite" in INEQUALITY_CATALOG[cfg.inequality_id]["params"] else [])
    kernel = cfg.resolved_kernel() if cfg.builds_kernel() else None
    return _Ctx(cfg, grid, family, functions, weights, kernel)


def _sharp_of_transform(ctx: _Ctx, f: SampledFunction) -> np.ndarray:
    """M#(Tf): the local sharp maximal function of the kernel transform."""
    tf = apply_kernel(ctx.kernel, f)
    return local_sharp_maximal(tf, ctx.cfg.s, ctx.full_cube, ctx.family).values


def _max_dilations(n: int) -> int:
    return int(math.log2(n)) + 1


# ---------------------------------------------------------------------------
# median decay gate

@dataclass(frozen=True)
class MedianDecay:
    flag: bool
    sides: tuple[int, ...]
    medians: tuple[float, ...]


def median_decay_check(tf: SampledFunction, t: float) -> MedianDecay:
    """Medians of a transform Tf over centered cubes of sides N/8, N/4, N/2
    and N (those >= 1); the flag certifies decay.

    The domain is bounded, so "medians tend to zero" is read as: in the
    largest available window the |median| drops materially, sitting below
    95% of both the previous value and the peak of the sequence.  A
    transform that is identically negligible passes vacuously; roughly
    constant output (no decay) fails."""
    grid = tf.grid
    n = grid.cells_per_side
    sides = tuple(s for s in (n // 8, n // 4, n // 2, n) if s >= 1)
    meds = []
    for m in sides:
        corner = ((n - m) // 2,) * grid.dim
        meds.append(abs(median(tf, t, Cube(grid, corner, m))))
    scale = float(np.abs(tf.values).max(initial=0.0))
    if scale == 0.0 or max(meds) <= 1e-14 * scale:
        return MedianDecay(True, sides, tuple(meds))
    if len(meds) < 2:
        return MedianDecay(False, sides, tuple(meds))
    flag = (meds[-1] <= DECAY_LAST_DROP * meds[-2]
            and meds[-1] <= DECAY_LAST_DROP * max(meds))
    return MedianDecay(flag, sides, tuple(meds))


# ---------------------------------------------------------------------------
# per-inequality grid runners

def _grid_eq12(cfg: ExperimentConfig, n: int) -> tuple[RatioCollector, dict]:
    ctx = _build_ctx(cfg, n)
    col = RatioCollector()
    for i, f in enumerate(ctx.functions):
        absf = abs(f)
        lhs = fractional_maximal(absf, cfg.gamma, LinearGauge(1.0), ctx.family).values
        rhs = apply_kernel(ctx.kernel, absf).values
        col.add_array(lhs, rhs, {"function": i, "name": f.name})
    bound = cfg.dim ** (cfg.dim * (1.0 - cfg.gamma) / 2.0)
    return col, {"explicit_bound": bound, "allowed": bound * 1.05}


def _grid_thm21(cfg, n):
    ctx = _build_ctx(cfg, n)
    col = RatioCollector()
    for i, f in enumerate(ctx.functions):
        rhs = fractional_maximal(f, cfg.gamma, LinearGauge(cfg.r), ctx.family).values
        col.add_array(_sharp_of_transform(ctx, f), rhs, {"function": i, "name": f.name})
    return col, {}


def _grid_thm22(cfg, n):
    ctx = _build_ctx(cfg, n)
    conj = ConjugateGauge(cfg.resolved_gauge("gauge_a"))
    col = RatioCollector()
    for i, f in enumerate(ctx.functions):
        mg = fractional_maximal(f, cfg.gamma, conj, ctx.family)
        rhs = sup_inf_over_cubes(mg, ctx.family).values
        col.add_array(_sharp_of_transform(ctx, f), rhs, {"function": i, "name": f.name})
    return col, {}


def _resample_through(g: SampledFunction, mat: np.ndarray) -> SampledFunction:
    """g(A^{-1} x) at cell centers, nearest-cell, clamped to the domain."""
    grid = g.grid
    pts = grid.cell_centers()
    pre = pts @ np.linalg.inv(mat).T
    n = grid.cells_per_side
    idx = np.clip(np.floor((pre - np.asarray(grid.origin)) / grid.h).astype(int), 0, n - 1)
    flat = idx @ n ** np.arange(grid.dim)[::-1]
    return SampledFunction(grid, g.values.ravel()[flat].reshape(grid.shape),
                           name=f"resampled[{g.name}]")


def _grid_thm23(cfg, n):
    ctx = _build_ctx(cfg, n)
    mats = ctx.kernel._matrices()
    col = RatioCollector()
    for i, f in enumerate(ctx.functions):
        mg = fractional_maximal(f, cfg.gamma, LinearGauge(1.0), ctx.family)
        rhs = np.zeros(ctx.grid.shape)
        for mat in mats:
            comp = _resample_through(mg, mat)
            rhs = rhs + sup_inf_over_cubes(comp, ctx.family).values
        col.add_array(_sharp_of_transform(ctx, f), rhs, {"function": i, "name": f.name})
    return col, {}


def _resolve_pair_weight(cfg, ctx, w: SampledFunction) -> SampledFunction:
    mode = cfg.weight_pair_mode
    if mode == "maximal":
        return fractional_maximal(w, 0.0, LinearGauge(float(cfg.weight_order)), ctx.family)
    if mode == "same":
        return w
    return SampledFunction.constant(ctx.grid, 1.0, "unit")


def _grid_thm31(cfg, n):
    ctx = _build_ctx(cfg, n)
    phi = cfg.resolved_gauge("gauge_phi")
    q0 = ctx.full_cube
    cellm = ctx.cellm
    pair_vs = [_resolve_pair_weight(cfg, ctx, w) for w in ctx.weights]
    collectors = {t: RatioCollector() for t in cfg.t_scan}
    for i, f in enumerate(ctx.functions):
        tf = apply_kernel(ctx.kernel, f)
        mf = fractional_maximal(f, cfg.gamma, LinearGauge(cfg.r), ctx.family)
        phi_m = phi.value(np.abs(mf.values))
        for t in cfg.t_scan:
            osc = phi.value(np.abs(tf.values - median(tf, t, q0)))
            for j, (w, v) in enumerate(zip(ctx.weights, pair_vs)):
                lhs = cellm * float(np.sum(osc * w.values))
                rhs = cellm * float(np.sum(phi_m * v.values))
                collectors[t].add_scalar(lhs, rhs, {"function": i, "weight": j, "t": t,
                                                    "name": f.name})
    results = {t: c.finalize() for t, c in collectors.items()}
    best_t = min(results, key=lambda t: results[t]["c_emp"] if results[t]["c_emp"] > 0 else math.inf)
    extra = {"t_scan": {str(t): results[t]["c_emp"] for t in cfg.t_scan}, "best_t": best_t}
    return collectors[best_t], extra


def _decay_gate(ctx: _Ctx) -> tuple[list[tuple[int, SampledFunction, SampledFunction]], dict]:
    """(i, f, Tf) for the suite functions whose transform passes the median
    decay gate at the last median level, and the gate's report fields."""
    kept = []
    for i, f in enumerate(ctx.functions):
        tf = apply_kernel(ctx.kernel, f)
        if median_decay_check(tf, ctx.cfg.t_scan[-1]).flag:
            kept.append((i, f, tf))
    extra = {"gated_functions": len(ctx.functions) - len(kept)}
    if not kept:
        extra.update(grid_ok=False, note="median decay gate rejected every suite function")
    return kept, extra


def _grid_eq33(cfg, n):
    ctx = _build_ctx(cfg, n)
    phi = cfg.resolved_gauge("gauge_phi")
    cellm = ctx.cellm
    pair_vs = [_resolve_pair_weight(cfg, ctx, w) for w in ctx.weights]
    kept, extra = _decay_gate(ctx)
    col = RatioCollector()
    for i, f, tf in kept:
        mf = fractional_maximal(f, cfg.gamma, LinearGauge(cfg.r), ctx.family)
        phi_t = phi.value(np.abs(tf.values))
        phi_m = phi.value(np.abs(mf.values))
        for j, (w, v) in enumerate(zip(ctx.weights, pair_vs)):
            col.add_scalar(cellm * float(np.sum(phi_t * w.values)),
                           cellm * float(np.sum(phi_m * v.values)),
                           {"function": i, "weight": j, "name": f.name})
    return col, extra


def _sample_cubes(ctx, count: int, max_frac: int = 1) -> list[Cube]:
    rng = np.random.default_rng(ctx.cfg.seed + 500)
    n = ctx.grid.cells_per_side
    sizes = ctx.family.sizes(cap=max(1, n // max_frac))
    cubes = []
    for _ in range(count):
        m = int(rng.choice(sizes))
        corner = tuple(int(rng.integers(0, n - m + 1)) for _ in range(ctx.grid.dim))
        cubes.append(Cube(ctx.grid, corner, m))
    return cubes


def _grid_lem41(cfg, n):
    ctx = _build_ctx(cfg, n)
    M = _max_dilations(n)
    # cap cube sides at a quarter of the domain so dilates have room; a cube
    # covering the whole grid has empty annuli and a vacuous right-hand side
    cubes = _sample_cubes(ctx, cfg.cube_samples, max_frac=4)
    if cfg.lambda_source == "hormander":
        gauge = cfg.resolved_gauge("gauge_a")
        lams = [hormander_lambda(ctx.kernel, Q, M, gauge) for Q in cubes]
        lam_meta = lams[0].to_json()
    else:
        lam = omega_lambda(cfg.resolved_omega(), M, cfg.resolved_c_n())
        lams = [lam] * len(cubes)
        lam_meta = lam.to_json()
    col = RatioCollector()
    plugin_ratio = 0.0
    for i, f in enumerate(ctx.functions):
        tf = apply_kernel(ctx.kernel, f)
        for Q, lam in zip(cubes, lams):
            lhs = sharp_median(tf, cfg.s, Q)
            plug = sharp_median_plugin(tf, cfg.s, Q)
            rhs = lemma41_rhs(f, Q, lam, cfg.gamma, cfg.r)
            col.add_scalar(lhs, rhs, {"function": i, "cube": Q.to_json(), "name": f.name})
            if lhs > 0:
                plugin_ratio = max(plugin_ratio, plug / lhs)
    return col, {"lambda": lam_meta, "max_dilations": M,
                 "plugin_over_exact_sharp": plugin_ratio}


def _grid_eq45(cfg, n):
    ctx = _build_ctx(cfg, n)
    vs = generate_suite({"kind": "noise_weight", "count": len(ctx.weights)},
                        ctx.grid, cfg.seed + 2000)
    A = cfg.resolved_gauge("gauge_a")
    B = cfg.resolved_gauge("gauge_b")
    col = RatioCollector()
    for j, (w, v) in enumerate(zip(ctx.weights, vs)):
        value = bump_condition(w, v, A, B, cfg.p, cfg.q, cfg.r, cfg.gamma, ctx.family)
        col.add_scalar(value, 1.0, {"pair": j, "w": w.name, "v": v.name})
    return col, {}


def _grid_thm42(cfg, n):
    ctx = _build_ctx(cfg, n)
    alpha, a1, a2 = cfg.resolved_alphas()
    A = cfg.resolved_gauge("gauge_a")
    B = cfg.resolved_gauge("gauge_b")
    conj_a = ConjugateGauge(A)
    conj_b = ConjugateGauge(B)
    qr_conj = (cfg.q / cfg.r) / (cfg.q / cfg.r - 1.0)
    qprime = cfg.q / (cfg.q - 1.0)
    memberships = {
        "conjA_in_B_(q/r)'": bump_norm(conj_a, 0.0, qr_conj),
        "conjA_in_B_alpha2_q'": bump_norm(conj_a, a2, qprime),
        "conjB_in_B_alpha1r_p/r": bump_norm(conj_b, a1 * cfg.r, cfg.p / cfg.r),
    }
    # sum_m omega(c 2^-m) 2^(m n/q) with omega(t) ~ t^delta (log 1/t)^b
    delta, b = cfg.resolved_omega().tail()
    lam_tail_divergent = not tail_converges(cfg.dim / cfg.q - delta, b)
    if cfg.weight_pair_mode == "unit":
        pairs = [(SampledFunction.constant(ctx.grid, 1.0, "unit"),
                  SampledFunction.constant(ctx.grid, 1.0, "unit"))]
    else:
        pairs = [(w, _resolve_pair_weight(cfg, ctx, w)) for w in ctx.weights]
    bump_values = [bump_condition(w, v, A, B, cfg.p, cfg.q, cfg.r, cfg.gamma, ctx.family)
                   for w, v in pairs]
    cellm = ctx.cellm
    kept, gate = _decay_gate(ctx)
    col = RatioCollector()
    for i, f, tf in kept:
        for j, (w, v) in enumerate(pairs):
            lhs = (cellm * float(np.sum(np.abs(tf.values) ** cfg.q * w.values))) ** (1.0 / cfg.q)
            rhs = (cellm * float(np.sum(np.abs(f.values) ** cfg.p * v.values))) ** (1.0 / cfg.p)
            col.add_scalar(lhs, rhs, {"function": i, "pair": j, "name": f.name})
    extra = {
        "alpha": alpha, "alpha1": a1, "alpha2": a2,
        "bump_memberships": {k: {"value": v, "divergent": d}
                             for k, (v, d) in memberships.items()},
        "lambda_tail_divergent": lam_tail_divergent,
        "bump_condition_values": bump_values,
    }
    failed = [k for k, (_, div) in memberships.items() if div]
    if lam_tail_divergent:
        failed.append("lambda_tail")
    if failed:
        extra.update(grid_ok=False, note=f"hypothesis failed: {', '.join(failed)}")
    extra.update(gate)  # its note, when it sets one, takes precedence
    return col, extra


def _grid_prop51(cfg, n):
    ctx = _build_ctx(cfg, n)
    p, q = cfg.morrey_exponent_pair()
    Phi, Psi = PowerGauge(p), PowerGauge(q)
    cn_dn = cfg.resolved_c_n() * cfg.resolved_d_n()
    cubes = _sample_cubes(ctx, cfg.cube_samples, max_frac=8)
    col_i, col_ii, col_scaled = RatioCollector(), RatioCollector(), RatioCollector()
    flagged = 0
    for i, f in enumerate(ctx.functions):
        mf = fractional_maximal(f, cfg.gamma, LinearGauge(1.0), ctx.family)
        for Q in cubes:
            rec = prop51_gap(f, Phi, Psi, cfg.gamma, Q, cn_dn, mf)
            if rec.t_range_empty:
                flagged += 1
                continue
            tag = {"function": i, "cube": Q.to_json(), "name": f.name}
            col_i.add_scalar(rec.lhs, rec.rhs_i, dict(tag, variant="i"))
            col_ii.add_scalar(rec.lhs, rec.rhs_ii, dict(tag, variant="ii"))
            scaled = prop51_gap(f, Phi, Psi, cfg.gamma, Q, 1.5 * cn_dn, mf)
            if not scaled.t_range_empty:
                col_scaled.add_scalar(scaled.lhs, scaled.rhs_ii, dict(tag, variant="ii-scaled"))
    res_i = col_i.finalize()
    res_scaled = col_scaled.finalize()
    extra = {"c_emp_variant_i": res_i["c_emp"], "t_range_flagged": flagged,
             "truncation_radius": TRUNCATION_FACTOR * cfg.side_length,
             "cn_dn": cn_dn,
             "cn_dn_sensitivity": {"scale": 1.5, "c_emp_variant_ii": res_scaled["c_emp"]}}
    return col_ii, extra


def _grid_thm52(cfg, n):
    ctx = _build_ctx(cfg, n)
    p, q = cfg.morrey_exponent_pair()
    Phi, Psi = PowerGauge(p), PowerGauge(q)
    phi = cfg.resolved_morrey("morrey_phi")
    psi = cfg.resolved_morrey("morrey_psi")
    compat = compat_52(phi, psi, cfg.gamma, ctx.grid)
    col = RatioCollector()
    for i, f in enumerate(ctx.functions):
        mf = fractional_maximal(f, cfg.gamma, LinearGauge(1.0), ctx.family)
        lhs = morrey_norm(mf, Psi, psi, ctx.family)
        rhs = morrey_norm(f, Phi, phi, ctx.family)
        col.add_scalar(lhs, rhs, {"function": i, "name": f.name})
    return col, {"compat_52": compat}


def _grid_thm53(cfg, n):
    ctx = _build_ctx(cfg, n)
    p, q = cfg.morrey_exponent_pair()
    Phi, Psi = PowerGauge(p), PowerGauge(q)
    phi = cfg.resolved_morrey("morrey_phi")
    psi = cfg.resolved_morrey("morrey_psi")
    compat = compat_53(phi, psi, ctx.grid)
    col = RatioCollector()
    per_op: dict[str, RatioCollector] = {op: RatioCollector() for op in cfg.operators}
    for i, f in enumerate(ctx.functions):
        rhs = morrey_norm(f, Phi, phi, ctx.family)
        for op in cfg.operators:
            if op == "maximal":
                sf = fractional_maximal(f, cfg.gamma, LinearGauge(1.0), ctx.family)
            else:
                sf = abs(apply_kernel(ctx.kernel, f))
            lhs = morrey_norm(sf, Psi, psi, ctx.family)
            tag = {"function": i, "operator": op, "name": f.name}
            col.add_scalar(lhs, rhs, tag)
            per_op[op].add_scalar(lhs, rhs, tag)
    extra = {"compat_53": compat,
             "per_operator": {op: per_op[op].finalize()["c_emp"] for op in cfg.operators}}
    return col, extra


def _grid_eq19(cfg, n):
    ctx = _build_ctx(cfg, n)
    Psi = PowerGauge(cfg.q)
    psi = cfg.resolved_morrey("morrey_psi")
    col = RatioCollector()
    for i, f in enumerate(ctx.functions):
        tf = apply_kernel(ctx.kernel, f)
        mf = fractional_maximal(f, cfg.gamma, LinearGauge(1.0), ctx.family)
        lhs = campanato_seminorm(tf, Psi, psi, ctx.family)
        rhs = morrey_norm(mf, Psi, psi, ctx.family)
        col.add_scalar(lhs, rhs, {"function": i, "name": f.name})
    return col, {}


_RUNNERS = {
    "eq12": _grid_eq12,
    "thm21": _grid_thm21,
    "thm22": _grid_thm22,
    "thm23": _grid_thm23,
    "thm31": _grid_thm31,
    "eq33": _grid_eq33,
    "lem41": _grid_lem41,
    "eq45_check": _grid_eq45,
    "thm42": _grid_thm42,
    "prop51": _grid_prop51,
    "thm52": _grid_thm52,
    "thm53": _grid_thm53,
    "eq19": _grid_eq19,
}


# ---------------------------------------------------------------------------
# top level

def _metadata(cfg: ExperimentConfig) -> dict:
    return {
        "c_n": cfg.resolved_c_n(),
        "d_n": cfg.resolved_d_n(),
        "truncation_radius": TRUNCATION_FACTOR * cfg.side_length,
        "singular_cell_policy": SINGULAR_CELL_POLICY,
        "ainfty_diagnostic": "geometric-mean (single sweep)",
        "ratio_floor": RATIO_FLOOR,
    }


def run_inequality(cfg: ExperimentConfig, csv_sink=None) -> Report:
    """Run one inequality over all configured grid sizes and build the report."""
    cfg.validate()
    runner = _RUNNERS[cfg.inequality_id]
    grids: list[GridRecord] = []
    for n in cfg.grid_sizes:
        col, extra = runner(cfg, n)
        result = col.finalize()
        if csv_sink is not None:
            for tag, lhs, rhs, shape in col.iter_csv_rows():
                csv_sink(cfg.inequality_id, n, tag, lhs, rhs, shape)
        grids.append(GridRecord(
            n=n, c_emp=result["c_emp"], witness=sanitize(result["witness"]),
            excluded=result["excluded"], skipped=result["skipped"],
            failures=sanitize(result["failures"]), extra=sanitize(extra)))
    c_emps = [g.c_emp for g in grids]
    stability_ratio = None
    stability_verdict = None
    if len(c_emps) >= 2:
        prev, last = c_emps[-2], c_emps[-1]
        if prev == 0.0 and last == 0.0:
            stability_ratio, stability_verdict = 1.0, True
        elif prev == 0.0:
            stability_ratio, stability_verdict = math.inf, False
        else:
            stability_ratio = last / prev
            stability_verdict = (stability_ratio <= cfg.stability_factor
                                 and math.isfinite(last) and math.isfinite(prev))
    passed = stability_verdict in (None, True) and all(
        not g.failures and math.isfinite(g.c_emp) and g.extra.get("grid_ok", True)
        and g.c_emp <= g.extra.get("allowed", math.inf) for g in grids)
    config_echo = cfg.to_json_dict()
    config_echo.pop("threads")  # execution detail; reports must not depend on it
    return Report(
        inequality_id=cfg.inequality_id,
        config=sanitize(config_echo),
        metadata=sanitize(_metadata(cfg)),
        grids=grids,
        stability_ratio=stability_ratio,
        stability_verdict=stability_verdict,
        passed=passed,
    )


def refinement_study(cfg: ExperimentConfig, csv_sink=None) -> Report:
    """run_inequality with the cross-grid verdict mandatory (>= 2 sizes)."""
    if len(cfg.grid_sizes) < 2:
        raise ConfigError("refinement study requires at least two grid sizes")
    return run_inequality(cfg, csv_sink=csv_sink)


def reevaluate_witness(cfg: ExperimentConfig, n: int, witness: dict) -> tuple[float, float]:
    """(lhs, rhs) of the witness of a fresh run of grid size n.

    Reruns the grid runner from scratch and returns both sides of the
    witness it finds; ``witness`` itself is not consulted, so this checks
    that a run repeats, not that the witnessed entry has an independent
    derivation."""
    runner = _RUNNERS[cfg.inequality_id]
    col, _ = runner(cfg, n)
    w = col.finalize()["witness"]
    if w is None:
        raise ValueError("run produced no witness")
    return w["lhs"], w["rhs"]


def witness_diagnostics(cfg: ExperimentConfig, n: int, witness: dict) -> dict | None:
    """Per-cube diagnostics at a pointwise witness: the cube attaining the
    sharp-median supremum with its optimal center, and the cube attaining
    the maximal-function supremum.  Emitted with --witnesses."""
    if witness is None or "point" not in witness:
        return None
    ctx = _build_ctx(cfg, n)
    f = ctx.functions[witness["function"]]
    cubes = ctx.family.iter_cubes(containing=tuple(witness["point"]))
    if cfg.inequality_id == "eq12":
        absf, gauge = abs(f), LinearGauge(1.0)
        best = max(((Q.measure**cfg.gamma * luxemburg_mean_norm(absf, Q, gauge), Q) for Q in cubes),
                   key=itemgetter(0))
        return {"argmax_cube": best[1].to_json(), "argmax_value": best[0]}
    tf = apply_kernel(ctx.kernel, f)

    def sharp(Q: Cube) -> tuple[float, Cube, float]:
        """(sharp median of Tf on Q, Q, its optimal center)."""
        vals = np.sort(tf.values[Q.slices], axis=None)
        half, start = narrowest_windows(vals[None, :], cfg.s)
        i, kp = int(start[0]), _window_count(cfg.s, vals.size)
        return float(half[0]), Q, 0.5 * float(vals[i] + vals[i + kp - 1])

    best = max(map(sharp, cubes), key=itemgetter(0))
    return {"argmax_cube": best[1].to_json(), "sharp_value": best[0], "witness_center": best[2]}
