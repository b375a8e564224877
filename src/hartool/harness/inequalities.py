"""Inequality runners: per-grid empirical constants, witnesses, stability.

Each catalog entry computes the two sides of its inequality for every
suite member on every configured grid, forms the empirical constant
c_emp = max LHS/RHS over the suite, and checks refinement stability
(the ratio of c_emp between the two finest grids must not exceed the
stability factor).  Ratios where the right side is zero together with
the left are skipped; a zero right side against a positive left side is
a failure witness; near-zero right sides (below 1e-14 of the suite
scale) are excluded to avoid 0/0 noise, with exclusion counts reported.

Each runner is one serial loop over the suite, adding rows in suite
order; the config's ``threads`` field is accepted and ignored, so reports
are byte-identical for any thread count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..gauges import (ConjugateGauge, LinearGauge, PowerGauge, _classify_decay,
                      bump_norm, luxemburg_mean_norm)
from ..geometry import Cube, CubeFamily, SampledFunction
from ..maximal import (_window_count, fractional_maximal, lemma41_rhs,
                       local_sharp_maximal, median, narrowest_windows, sharp_median,
                       sharp_median_plugin, sup_inf_over_cubes)
from ..operators import apply_kernel, hormander_lambda, omega_lambda
from ..spaces import campanato_seminorm, compat_52, compat_53, morrey_norm, prop51_gap
from ..weights import bump_condition
from .config import ConfigError, ExperimentConfig
from .report import GridRecord, Report, sanitize
from .suite import generate_suite

__all__ = ["run_inequality", "refinement_study", "median_decay_check",
           "MedianDecay", "reevaluate_witness"]

RATIO_FLOOR = 1e-14
DECAY_LAST_DROP = 0.95    # largest-window median must sit below 95% of the
                          # previous one and of the peak: material decay
MAX_REPORTED_FAILURES = 5

SINGULAR_CELL_POLICY = ("1d: exact singular-factor integral; "
                        "2d: 4-level dyadic subdivision, innermost dropped")


# ---------------------------------------------------------------------------
# ratio bookkeeping

class RatioCollector:
    """Accumulates LHS/RHS pairs and reduces them to c_emp plus witness."""

    def __init__(self):
        self._arrays: list[tuple[np.ndarray, np.ndarray, dict, tuple]] = []
        self._scalars: list[tuple[float, float, dict]] = []

    def add_array(self, lhs: np.ndarray, rhs: np.ndarray, tag: dict):
        self._arrays.append((np.asarray(lhs, float).ravel(),
                             np.asarray(rhs, float).ravel(), tag, np.asarray(lhs).shape))

    def add_scalar(self, lhs: float, rhs: float, tag: dict):
        self._scalars.append((float(lhs), float(rhs), tag))

    def iter_csv_rows(self):
        for lhs, rhs, tag, shape in self._arrays:
            yield tag, lhs, rhs, shape
        for lhs, rhs, tag in self._scalars:
            yield tag, np.array([lhs]), np.array([rhs]), (1,)

    def finalize(self) -> dict:
        scale = 0.0
        for _, rhs, _, _ in self._arrays:
            finite = rhs[np.isfinite(rhs)]
            if finite.size:
                scale = max(scale, float(finite.max(initial=0.0)))
        for _, rhs, _ in self._scalars:
            if math.isfinite(rhs):
                scale = max(scale, rhs)
        floor = RATIO_FLOOR * scale
        c_emp, witness = 0.0, None
        excluded = skipped = 0
        failures: list[dict] = []

        def consider(ratio, lhs, rhs, tag, point):
            nonlocal c_emp, witness
            if witness is None or ratio > c_emp:
                c_emp = max(c_emp, ratio)
                w = dict(tag)
                if point is not None:
                    w["point"] = point
                w.update(lhs=lhs, rhs=rhs, ratio=ratio)
                witness = w

        for lhs, rhs, tag, shape in self._arrays:
            valid = np.isfinite(lhs) & np.isfinite(rhs)
            zero_rhs = valid & (rhs == 0.0)
            skipped += int(np.count_nonzero(zero_rhs & (lhs == 0.0)))
            for flat in np.flatnonzero(zero_rhs & (lhs > 0.0))[:MAX_REPORTED_FAILURES]:
                failures.append({"reason": "rhs zero with positive lhs", "tag": tag,
                                 "point": [int(v) for v in np.unravel_index(flat, shape)],
                                 "lhs": float(lhs[flat])})
            excluded += int(np.count_nonzero(valid & (rhs > 0.0) & (rhs < floor)))
            keep = valid & (rhs >= floor) & (rhs > 0.0)
            if keep.any():
                ratios = np.where(keep, lhs / np.where(keep, rhs, 1.0), -np.inf)
                flat = int(np.argmax(ratios))
                consider(float(ratios[flat]), float(lhs[flat]), float(rhs[flat]), tag,
                         [int(v) for v in np.unravel_index(flat, shape)])
        for lhs, rhs, tag in self._scalars:
            if not (math.isfinite(lhs) and math.isfinite(rhs)):
                failures.append({"reason": "non-finite value", "tag": tag, "lhs": lhs, "rhs": rhs})
            elif rhs == 0.0 and lhs == 0.0:
                skipped += 1
            elif rhs == 0.0:
                failures.append({"reason": "rhs zero with positive lhs", "tag": tag, "lhs": lhs})
            elif rhs < floor:
                excluded += 1
            else:
                consider(lhs / rhs, lhs, rhs, tag, None)
        # one cap per grid over both paths; each array contributed at most the cap
        return {"c_emp": c_emp, "witness": witness, "excluded": excluded,
                "skipped": skipped, "failures": failures[:MAX_REPORTED_FAILURES]}


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


def _build_ctx(cfg: ExperimentConfig, n: int, need_weights=False, need_kernel=True) -> _Ctx:
    grid = cfg.grid_for(n)
    family = cfg.family_for(grid)
    functions = generate_suite(cfg.suite, grid, cfg.seed)
    weights = generate_suite(cfg.weight_suite, grid, cfg.seed + 1000) if need_weights else []
    kernel = cfg.resolved_kernel() if need_kernel else None
    return _Ctx(cfg, grid, family, functions, weights, kernel)


def _max_dilations(n: int) -> int:
    return int(math.log2(n)) + 1


# ---------------------------------------------------------------------------
# median decay gate

@dataclass(frozen=True)
class MedianDecay:
    flag: bool
    sides: tuple[int, ...]
    medians: tuple[float, ...]


def median_decay_check(tf: SampledFunction, t: float,
                       sides: tuple[int, ...] | None = None) -> MedianDecay:
    """Medians of a transform Tf over growing centered cubes; the flag
    certifies decay.

    The domain is bounded, so "medians tend to zero" is read as: in the
    largest available window the |median| drops materially, sitting below
    95% of both the previous value and the peak of the sequence.  A
    transform that is identically negligible passes vacuously; roughly
    constant output (no decay) fails."""
    grid = tf.grid
    n = grid.cells_per_side
    if sides is None:
        sides = tuple(s for s in (n // 8, n // 4, n // 2, n) if s >= 1)
    meds = []
    for m in sides:
        corner = ((n - m) // 2,) * grid.dim
        meds.append(abs(median(tf, t, Cube(grid, corner, m))))
    scale = float(np.abs(tf.values).max(initial=0.0))
    if scale == 0.0 or max(meds) <= 1e-14 * scale:
        return MedianDecay(True, tuple(sides), tuple(meds))
    if len(meds) < 2:
        return MedianDecay(False, tuple(sides), tuple(meds))
    flag = (meds[-1] <= DECAY_LAST_DROP * meds[-2]
            and meds[-1] <= DECAY_LAST_DROP * max(meds))
    return MedianDecay(flag, tuple(sides), tuple(meds))


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
        tf = apply_kernel(ctx.kernel, f)
        lhs = local_sharp_maximal(tf, cfg.s, ctx.full_cube, ctx.family).values
        rhs = fractional_maximal(f, cfg.gamma, LinearGauge(cfg.r), ctx.family).values
        col.add_array(lhs, rhs, {"function": i, "name": f.name})
    return col, {}


def _grid_thm22(cfg, n):
    ctx = _build_ctx(cfg, n)
    conj = ConjugateGauge(cfg.resolved_gauge("gauge_a"))
    col = RatioCollector()
    for i, f in enumerate(ctx.functions):
        tf = apply_kernel(ctx.kernel, f)
        lhs = local_sharp_maximal(tf, cfg.s, ctx.full_cube, ctx.family).values
        mg = fractional_maximal(f, cfg.gamma, conj, ctx.family)
        rhs = sup_inf_over_cubes(mg, ctx.family).values
        col.add_array(lhs, rhs, {"function": i, "name": f.name})
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
        tf = apply_kernel(ctx.kernel, f)
        lhs = local_sharp_maximal(tf, cfg.s, ctx.full_cube, ctx.family).values
        mg = fractional_maximal(f, cfg.gamma, LinearGauge(1.0), ctx.family)
        rhs = np.zeros(ctx.grid.shape)
        for mat in mats:
            comp = _resample_through(mg, mat)
            rhs = rhs + sup_inf_over_cubes(comp, ctx.family).values
        col.add_array(lhs, rhs, {"function": i, "name": f.name})
    return col, {}


def _resolve_pair_weight(cfg, ctx, w: SampledFunction) -> SampledFunction:
    mode = cfg.weight_pair.get("mode", "maximal")
    if mode == "maximal":
        order = float(cfg.weight_pair.get("order", cfg.weight_order))
        return fractional_maximal(w, 0.0, LinearGauge(order), ctx.family)
    if mode == "same":
        return w
    if mode == "unit":
        return SampledFunction.constant(ctx.grid, 1.0, "unit")
    raise ConfigError(f"unknown weight_pair mode {mode!r}")  # validate() rejects it first


def _grid_thm31(cfg, n):
    ctx = _build_ctx(cfg, n, need_weights=True)
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


def _grid_eq33(cfg, n):
    ctx = _build_ctx(cfg, n, need_weights=True)
    phi = cfg.resolved_gauge("gauge_phi")
    cellm = ctx.cellm
    t_gate = cfg.t_scan[-1]
    pair_vs = [_resolve_pair_weight(cfg, ctx, w) for w in ctx.weights]
    col = RatioCollector()
    gated = 0
    for i, f in enumerate(ctx.functions):
        tf = apply_kernel(ctx.kernel, f)
        if not median_decay_check(tf, t_gate).flag:
            gated += 1
            continue
        mf = fractional_maximal(f, cfg.gamma, LinearGauge(cfg.r), ctx.family)
        phi_t = phi.value(np.abs(tf.values))
        phi_m = phi.value(np.abs(mf.values))
        for j, (w, v) in enumerate(zip(ctx.weights, pair_vs)):
            col.add_scalar(cellm * float(np.sum(phi_t * w.values)),
                           cellm * float(np.sum(phi_m * v.values)),
                           {"function": i, "weight": j, "name": f.name})
    extra = {"gated_functions": gated}
    if gated == len(ctx.functions):
        extra["grid_ok"] = False
        extra["note"] = "median decay gate rejected every suite function"
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
    ctx = _build_ctx(cfg, n, need_weights=True, need_kernel=False)
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
    ctx = _build_ctx(cfg, n, need_weights=True)
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
    hypotheses_ok = all(not div for _, div in memberships.values())
    omega = cfg.resolved_omega()
    M = _max_dilations(n)
    lam = omega_lambda(omega, M, cfg.resolved_c_n())
    terms = np.array(lam.values) * 2.0 ** (np.arange(1, M + 1) * cfg.dim / cfg.q)
    lam_tail_divergent = bool(_classify_decay(terms))
    mode = cfg.weight_pair.get("mode", "unit")
    if mode == "unit":
        pairs = [(SampledFunction.constant(ctx.grid, 1.0, "unit"),
                  SampledFunction.constant(ctx.grid, 1.0, "unit"))]
    else:
        pairs = [(w, _resolve_pair_weight(cfg, ctx, w)) for w in ctx.weights]
    bump_values = [bump_condition(w, v, A, B, cfg.p, cfg.q, cfg.r, cfg.gamma, ctx.family)
                   for w, v in pairs]
    t_gate = cfg.t_scan[-1]
    cellm = ctx.cellm
    col = RatioCollector()
    gated = 0
    for i, f in enumerate(ctx.functions):
        tf = apply_kernel(ctx.kernel, f)
        if not median_decay_check(tf, t_gate).flag:
            gated += 1
            continue
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
        "gated_functions": gated,
    }
    if not hypotheses_ok or lam_tail_divergent:
        extra["grid_ok"] = False
        extra["note"] = "bump-class or lambda-tail hypothesis failed"
    if gated == len(ctx.functions):
        extra["grid_ok"] = False
        extra["note"] = "median decay gate rejected every suite function"
    return col, extra


def _grid_prop51(cfg, n):
    ctx = _build_ctx(cfg, n, need_kernel=False)
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
             "truncation_radius": 2.0 * cfg.side_length,
             "cn_dn": cn_dn,
             "cn_dn_sensitivity": {"scale": 1.5, "c_emp_variant_ii": res_scaled["c_emp"]}}
    return col_ii, extra


def _grid_thm52(cfg, n):
    ctx = _build_ctx(cfg, n, need_kernel=False)
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
    ctx = _build_ctx(cfg, n, need_kernel=("riesz" in cfg.operators))
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
        "truncation_radius": 2.0 * cfg.side_length,
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
    passed = all(not g.failures for g in grids)
    passed = passed and all(math.isfinite(g.c_emp) for g in grids)
    passed = passed and all(g.extra.get("grid_ok", True) for g in grids)
    if cfg.inequality_id == "eq12":
        passed = passed and all(g.c_emp <= g.extra.get("allowed", math.inf) for g in grids)
    if stability_verdict is not None:
        passed = passed and stability_verdict
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
    if witness is None or "point" not in witness or "function" not in witness:
        return None
    if cfg.inequality_id not in ("eq12", "thm21", "thm22", "thm23"):
        return None
    ctx = _build_ctx(cfg, n)
    f = ctx.functions[witness["function"]]
    point = tuple(witness["point"])
    out: dict = {}
    if cfg.inequality_id == "eq12":
        target = abs(f)
        gauge = LinearGauge(1.0)
        best = None
        for Q in ctx.family.iter_cubes(containing=point):
            val = Q.measure**cfg.gamma * luxemburg_mean_norm(target, Q, gauge)
            if best is None or val > best[0]:
                best = (val, Q)
        out["argmax_cube"] = best[1].to_json()
        out["argmax_value"] = best[0]
        return out
    tf = apply_kernel(ctx.kernel, f)
    best = None
    for Q in ctx.family.iter_cubes(containing=point):
        vals = np.sort(tf.values[Q.slices], axis=None)
        half, start = narrowest_windows(vals[None, :], cfg.s)
        i, kp = int(start[0]), _window_count(cfg.s, vals.size)
        val, c_opt = float(half[0]), 0.5 * float(vals[i] + vals[i + kp - 1])
        if best is None or val > best[0]:
            best = (val, Q, c_opt)
    out["argmax_cube"] = best[1].to_json()
    out["sharp_value"] = best[0]
    out["witness_center"] = best[2]
    return out
