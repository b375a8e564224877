import math
from dataclasses import replace

import numpy as np
import pytest

from hartool import (Cube, Grid, LinearGauge, PowerGauge, RieszKernel, SampledFunction,
                     apply_kernel, integrate)
from hartool.harness import (ConfigError, ExperimentConfig, default_config,
                             generate_suite, median_decay_check,
                             reevaluate_witness, refinement_study, run_inequality)
from hartool.harness import oracles
from hartool.harness.config import INEQUALITY_CATALOG, SHARED_FIELDS
from hartool.harness.inequalities import _RUNNERS, RatioCollector, witness_diagnostics
from hartool.harness.report import sanitize
from hartool.harness.suite import draw_suite_params


# ----------------------------------------------------------------- config

def test_config_rejects_unknown_id_and_fields():
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"inequality_id": "thm99"})
    with pytest.raises(ConfigError):
        ExperimentConfig.from_json({"inequality_id": "eq12", "bogus": 1})


def test_config_named_hypothesis_messages():
    with pytest.raises(ConfigError, match="r < p < q"):
        default_config("thm42", p=5.0, q=2.0)
    with pytest.raises(ConfigError, match="gamma \\* r < 1"):
        default_config("thm42", gamma=0.6, r=2.0, p=3.0, q=4.0)
    with pytest.raises(ConfigError, match="alpha1 \\+ alpha2"):
        default_config("thm42", alpha1=0.3, alpha2=0.3)
    with pytest.raises(ConfigError, match="matched-exponent"):
        default_config("thm52", gamma=0.6, p=2.0)
    with pytest.raises(ConfigError, match="powers of 2"):
        default_config("eq12", grid_sizes=(48,))
    with pytest.raises(ConfigError, match="homogeneous"):
        default_config("thm23", kernel={"variant": "riesz", "gamma": 0.5})
    for ineq in ("thm31", "eq33", "thm42"):
        with pytest.raises(ConfigError, match="condition_f requires explicit weight pairs"):
            default_config(ineq, weight_pair={"mode": "condition_f"})


@pytest.mark.parametrize("ineq", sorted(INEQUALITY_CATALOG))
def test_null_gauge_is_the_default_gauge(ineq):
    # a null gauge field takes the id's catalog default, else t^2, t^3 and the plain mean
    expected = {"gauge_a": PowerGauge(5.0 if ineq in ("thm42", "eq45_check") else 2.0),
                "gauge_b": PowerGauge(3.0), "gauge_phi": LinearGauge(1.0)}
    for slot, gauge in expected.items():
        assert default_config(ineq, **{slot: None}).resolved_gauge(slot) == gauge
        assert default_config(ineq).resolved_gauge(slot) == gauge


_SPHERES = {1: {"pos": 1.0, "neg": -1.0}, 2: {"cos": [1.0], "sin": [0.0, 0.5]}}


@pytest.mark.parametrize("ineq,variant,dim", [
    ("eq12", "riesz", 1), ("eq12", "riesz", 2), ("thm21", "dini", 1), ("thm21", "dini", 2),
    ("lem41", "dini", 1), ("thm23", "homogeneous", 1)])
def test_kernel_descriptor_takes_shared_values_from_config(ineq, variant, dim):
    # a descriptor that omits dim and gamma (and a Dini omega and sphere.dim)
    # resolves to the kernel that spells the config's values
    omega = {"family": "log", "eps": 0.5}
    cfg = default_config(ineq, dim=dim, gamma=0.3, omega=omega, grid_sizes=(16, 32))
    short = {"variant": variant}
    if variant == "dini":
        short["sphere"] = _SPHERES[dim]
    if variant == "homogeneous":
        short.update(coeffs=[1.0, -2.0], exponents=[0.5, 0.2])
    full = dict(short, dim=dim, gamma=0.3)
    if variant == "dini":
        full.update(omega=omega, sphere=dict(_SPHERES[dim], dim=dim))
    kernel = replace(cfg, kernel=short).resolved_kernel()
    assert kernel == replace(cfg, kernel=full).resolved_kernel()
    assert (kernel.dim, kernel.gamma) == (dim, 0.3)
    if variant == "dini":
        assert kernel.omega == cfg.resolved_omega()


def test_config_round_trip():
    cfg = default_config("thm21")
    back = ExperimentConfig.from_json(cfg.to_json_dict())
    assert back.to_json_dict() == cfg.to_json_dict()


# ----------------------------------------------------------------- suites

def test_suite_params_grid_independent_and_deterministic():
    desc = {"kind": "mixed", "count": 6}
    p1 = draw_suite_params(desc, 1, seed=9)
    p2 = draw_suite_params(desc, 1, seed=9)
    assert p1 == p2
    assert draw_suite_params(desc, 1, seed=10) != p1


def test_suite_realization_properties():
    g = Grid(1, 64)
    fns = generate_suite({"kind": "mixed", "count": 8}, g, seed=4)
    assert len(fns) == 8
    ind = fns[0]
    assert ind.name.startswith("indicator")
    # an indicator integrates to the measure of its cell set
    full = Cube(g, (0,), 64)
    assert integrate(ind, full) == pytest.approx(np.count_nonzero(ind.values) * g.h)
    step = fns[2]
    assert len(np.unique(step.values)) >= 3
    weights = generate_suite({"kind": "mixed_weights", "count": 4}, g, seed=4)
    for w in weights:
        assert np.all(w.values > 0)


def test_suite_same_seed_same_bytes():
    g = Grid(2, 16)
    a = generate_suite({"kind": "compact", "count": 5}, g, seed=1)
    b = generate_suite({"kind": "compact", "count": 5}, g, seed=1)
    for fa, fb in zip(a, b):
        np.testing.assert_array_equal(fa.values, fb.values)


# ----------------------------------------------------------------- collector

def test_collector_zero_cases():
    col = RatioCollector()
    col.add_array(np.zeros(4), np.zeros(4), {"function": 0})
    res = col.finalize()
    assert res["c_emp"] == 0.0 and res["skipped"] == 4 and not res["failures"]

    col = RatioCollector()
    col.add_array(np.array([1.0, 0.0]), np.array([0.0, 0.0]), {"function": 0})
    res = col.finalize()
    assert res["failures"] and res["failures"][0]["reason"] == "rhs zero with positive lhs"


def test_collector_reports_at_most_five_failures_per_grid():
    col = RatioCollector()
    for i in range(7):
        col.add_scalar(math.nan, 1.0, {"function": i})
    assert len(col.finalize()["failures"]) == 5
    col = RatioCollector()
    for i in range(3):
        col.add_array(np.ones(6), np.zeros(6), {"function": i})
    col.add_scalar(1.0, 0.0, {"function": 3})
    res = col.finalize()
    assert len(res["failures"]) == 5 and res["c_emp"] == 0.0


def test_collector_excludes_near_zero_rhs():
    col = RatioCollector()
    col.add_array(np.array([1.0, 1.0]), np.array([1.0, 1e-20]), {"function": 0})
    res = col.finalize()
    assert res["excluded"] == 1 and res["c_emp"] == pytest.approx(1.0)


def test_collector_array_non_finite_entry_is_a_failure_with_point():
    col = RatioCollector()
    col.add_array(np.array([[1.0, 2.0], [math.nan, 1.0]]), np.ones((2, 2)), {"function": 0})
    res = col.finalize()
    assert sanitize(res["failures"]) == [{"reason": "non-finite value", "tag": {"function": 0},
                                          "point": [1, 0], "lhs": "nan", "rhs": 1.0}]
    assert res["c_emp"] == 2.0 and res["witness"]["point"] == [0, 1]


@pytest.mark.parametrize("lhs, rhs", [(2.0, 1.0), (0.0, 0.0), (1.0, 0.0), (1.0, 1e-20),
                                      (math.nan, 1.0), (1.0, math.inf)])
def test_collector_scalar_pair_reduces_like_one_element_array(lhs, rhs):
    results = []
    for add in ("add_scalar", "add_array"):
        col = RatioCollector()
        col.add_scalar(3.0, 1.0, {"function": 0})  # sets the scale: 1e-20 is excluded
        value = (lhs, rhs) if add == "add_scalar" else (np.array([lhs]), np.array([rhs]))
        getattr(col, add)(*value, {"function": 1})
        results.append(col.finalize())
    scalar, array = results
    for key in ("c_emp", "excluded", "skipped"):
        assert scalar[key] == array[key]
    assert scalar["witness"] == array["witness"]
    for fs, fa in zip(scalar["failures"], array["failures"], strict=True):
        assert "point" not in fs and fa.pop("point") == [0]
        assert sanitize(fs) == sanitize(fa)


# ----------------------------------------------------------------- oracles

def test_oracle_case_fails_on_one_inf_reading(monkeypatch):
    # an inf among finite readings must fail its case, not vanish in a max
    true_conjugate = oracles.conjugate

    def one_inf(gauge, s):
        got = true_conjugate(gauge, s)
        if np.ndim(got) == 0:
            return got
        got = np.array(got, dtype=float)
        got[7] = math.inf
        return got

    monkeypatch.setattr(oracles, "conjugate", one_inf)
    verdicts = {case.name: case.passed for case in oracles.run_oracle("conjugate")}
    tables = [name for name in verdicts if name.startswith("conjugate/table-")]
    assert len(tables) == 4 and not any(verdicts[name] for name in tables)
    assert all(verdicts[name] for name in verdicts if name.startswith("conjugate/power-"))


# ----------------------------------------------------------------- declared params

class _RecordingConfig(ExperimentConfig):
    """Records which config fields are read once `reads` is set."""

    def __getattribute__(self, name):
        reads = object.__getattribute__(self, "__dict__").get("reads")
        if reads is not None and name in ExperimentConfig.__dataclass_fields__:
            reads.add(name)
        return object.__getattribute__(self, name)


# the default config of each id, plus configs that reach conditional reads
DECLARATION_VARIANTS = {"lem41": [{"lambda_source": "hormander"}],
                        "thm42": [{"weight_pair": {"mode": "maximal"}}]}


@pytest.mark.parametrize("ineq", sorted(INEQUALITY_CATALOG))
def test_runner_reads_exactly_its_declared_params(ineq):
    reads = set()
    for overrides in [{}] + DECLARATION_VARIANTS.get(ineq, []):
        cfg = default_config(ineq, grid_sizes=(16,), suite={"kind": "mixed", "count": 2},
                             weight_suite={"kind": "mixed_weights", "count": 2}, **overrides)
        rec = _RecordingConfig(**{f: getattr(cfg, f) for f in ExperimentConfig.__dataclass_fields__})
        rec.reads = set()
        _RUNNERS[ineq](rec, 16)
        reads |= rec.reads
    assert reads - set(SHARED_FIELDS) == set(INEQUALITY_CATALOG[ineq]["params"])


# ----------------------------------------------------------------- gates

def test_median_decay_cases():
    g = Grid(1, 64)
    k = RieszKernel(1, 0.5)
    zero = SampledFunction.constant(g, 0.0)
    assert median_decay_check(apply_kernel(k, zero), 0.75).flag
    x = g.cell_centers()[:, 0]
    bump = SampledFunction(g, np.exp(-((x - 0.5) ** 2) * 200.0))
    assert median_decay_check(apply_kernel(k, bump), 0.75).flag
    one = SampledFunction.constant(g, 1.0)
    assert not median_decay_check(apply_kernel(k, one), 0.75).flag


# ----------------------------------------------------------------- runs

def test_run_inequality_reports_and_stability():
    cfg = default_config("eq12", grid_sizes=(32, 64), suite={"kind": "mixed", "count": 4})
    rep = run_inequality(cfg)
    assert rep.passed and rep.stability_verdict
    assert [g.n for g in rep.grids] == [32, 64]
    for g in rep.grids:
        assert g.witness is not None
        assert g.c_emp <= g.extra["allowed"]
    payload = rep.to_json_dict()
    assert payload["schema_version"] == 1
    assert payload["config"]["inequality_id"] == "eq12"
    assert "singular_cell_policy" in payload["metadata"]


def test_reports_byte_identical_across_runs_and_threads(fresh_report):
    kw = dict(grid_sizes=(32, 64), suite={"kind": "mixed", "count": 4})
    base = run_inequality(default_config("thm21", **kw)).to_json_bytes()
    again = run_inequality(default_config("thm21", **kw)).to_json_bytes()
    threaded = run_inequality(default_config("thm21", threads=4, **kw)).to_json_bytes()
    assert base == again
    assert base == threaded  # thread count is an execution detail, not report content
    # the in-process runs share the kernel-matrix cache; a new interpreter starts empty
    assert fresh_report(default_config("thm21", **kw)) == base
    assert fresh_report(default_config("thm21", threads=4, **kw)) == base


def test_witness_reevaluation_reproduces_ratio():
    cfg = default_config("eq12", grid_sizes=(32,), suite={"kind": "mixed", "count": 3})
    rep = run_inequality(cfg)
    wit = rep.grids[0].witness
    lhs, rhs = reevaluate_witness(cfg, 32, wit)
    assert lhs / rhs == pytest.approx(wit["ratio"], rel=1e-12)
    cfg = default_config("lem41", grid_sizes=(32,), suite={"kind": "compact", "count": 2},
                         cube_samples=4)
    rep = run_inequality(cfg)
    wit = rep.grids[0].witness
    lhs, rhs = reevaluate_witness(cfg, 32, wit)
    assert lhs / rhs == pytest.approx(wit["ratio"], rel=1e-12)


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("ineq", ["eq12", "thm21", "thm22", "thm23"])
def test_witness_diagnostics_explain_the_witness(ineq, dim):
    # the diagnosed argmax cube contains the witness point and attains its
    # left side: the sharp median exactly; for eq12 the maximal average up
    # to rounding (in 2D it goes through the scalar Luxemburg norm)
    cfg = default_config(ineq, dim=dim, grid_sizes=(16,))
    wit = run_inequality(cfg).grids[0].witness
    diag = witness_diagnostics(cfg, 16, wit)
    cube = diag["argmax_cube"]
    assert all(c <= x < c + cube["side_cells"] for c, x in zip(cube["corner"], wit["point"]))
    if ineq == "eq12":
        assert diag["argmax_value"] == pytest.approx(wit["lhs"], rel=1e-12)
    else:
        assert diag["sharp_value"] == wit["lhs"]


def test_refinement_study_requires_two_sizes():
    cfg = default_config("eq12", grid_sizes=(32,))
    with pytest.raises(ConfigError):
        refinement_study(cfg)
    rep = refinement_study(default_config("eq12", grid_sizes=(32, 64),
                                          suite={"kind": "mixed", "count": 3}))
    assert rep.stability_verdict is not None


def test_thm31_t_scan_reported():
    cfg = default_config("thm31", grid_sizes=(32,), suite={"kind": "mixed", "count": 3},
                         weight_suite={"kind": "mixed_weights", "count": 2})
    rep = run_inequality(cfg)
    extra = rep.grids[0].extra
    assert set(extra["t_scan"]) == {"0.55", "0.65", "0.75", "0.85"}
    assert float(extra["best_t"]) in (0.55, 0.65, 0.75, 0.85)
    assert rep.grids[0].witness["t"] == float(extra["best_t"])


def test_thm42_metadata_hypotheses():
    cfg = default_config("thm42", grid_sizes=(32,), suite={"kind": "compact", "count": 2})
    rep = run_inequality(cfg)
    extra = rep.grids[0].extra
    assert set(extra["bump_memberships"]) == {
        "conjA_in_B_(q/r)'", "conjA_in_B_alpha2_q'", "conjB_in_B_alpha1r_p/r"}
    assert all(not m["divergent"] for m in extra["bump_memberships"].values())
    assert not extra["lambda_tail_divergent"]
    assert rep.passed


def test_thm42_fails_when_a_conjugate_bump_diverges():
    # A = t^4 (log(e + t))^2 has A* ~ s^(4/3) (log s)^(-2/3), so both conjA
    # integrals at (q/r)' = q' = 4/3 behave like (log t)^-B dt/t with B < 1
    cfg = default_config("thm42", gauge_a={"family": "power_log", "p": 4.0, "a": 2.0},
                         grid_sizes=(32, 64))
    rep = run_inequality(cfg)
    assert not rep.passed
    for g in rep.grids:
        bumps = {k: m["divergent"] for k, m in g.extra["bump_memberships"].items()}
        assert bumps == {"conjA_in_B_(q/r)'": True, "conjA_in_B_alpha2_q'": True,
                         "conjB_in_B_alpha1r_p/r": False}
        assert g.extra["note"] == "hypothesis failed: conjA_in_B_(q/r)', conjA_in_B_alpha2_q'"


@pytest.mark.parametrize("delta, c_n, divergent", [(0.3, None, False), (0.3, 100.0, False),
                                                    (0.25, None, True), (0.2, None, True)])
def test_thm42_lambda_tail_compares_delta_with_n_over_q(delta, c_n, divergent):
    # sum_m omega(c 2^-m) 2^(m n/q) converges iff delta > n/q = 1/4
    cfg = default_config("thm42", omega={"family": "holder", "delta": delta}, c_n=c_n,
                         grid_sizes=(16,), suite={"kind": "compact", "count": 2})
    extra = run_inequality(cfg).grids[0].extra
    assert extra["lambda_tail_divergent"] == divergent
    assert (extra.get("note") == "hypothesis failed: lambda_tail") == divergent


@pytest.mark.parametrize("name", ["bump", "dini", "kernel", "campanato"])
def test_oracle_suite_passes(name):
    cases = oracles.run_oracle(name)
    assert cases and all(case.passed for case in cases), [c for c in cases if not c.passed]


def test_thm42_empty_weight_pair_is_the_maximal_pair():
    # one default mode for every id: thm42 runs v = M w on an empty weight_pair
    kw = dict(grid_sizes=(16,), suite={"kind": "compact", "count": 2})
    grids = {mode: run_inequality(default_config("thm42", weight_pair=pair, **kw)).grids[0]
             for mode, pair in (("empty", {}), ("maximal", {"mode": "maximal"}),
                                ("unit", {"mode": "unit"}))}
    assert grids["empty"].to_json_dict() == grids["maximal"].to_json_dict()
    assert grids["unit"].c_emp != grids["maximal"].c_emp


def test_thm53_per_operator_constants():
    cfg = default_config("thm53", grid_sizes=(16, 32), suite={"kind": "mixed", "count": 3})
    rep = run_inequality(cfg)
    per_op = rep.grids[-1].extra["per_operator"]
    assert set(per_op) == {"maximal", "riesz"}
    assert all(math.isfinite(v) for v in per_op.values())


def test_prop51_variant_constants_reported(monkeypatch):
    from hartool import maximal, spaces
    from hartool.harness import inequalities as ineq
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return maximal.fractional_maximal(*args, **kwargs)

    monkeypatch.setattr(ineq, "fractional_maximal", counted)
    monkeypatch.setattr(spaces, "fractional_maximal", counted)
    cfg = default_config("prop51", grid_sizes=(32,), suite={"kind": "mixed", "count": 3},
                         cube_samples=4)
    rep = run_inequality(cfg)
    extra = rep.grids[0].extra
    assert "c_emp_variant_i" in extra and extra["c_emp_variant_i"] > 0
    assert rep.grids[0].c_emp > 0
    assert len(calls) == 3  # once per suite function, not per (cube, variant)


def test_sanitize_handles_non_finite():
    out = sanitize({"a": math.inf, "b": [math.nan, 1.0], "c": np.float64(2.0)})
    assert out == {"a": "inf", "b": ["nan", 1.0], "c": 2.0}


def test_eq33_gate_counts_reported():
    cfg = default_config("eq33", grid_sizes=(32,), suite={"kind": "compact", "count": 3},
                         weight_suite={"kind": "mixed_weights", "count": 2})
    rep = run_inequality(cfg)
    assert "gated_functions" in rep.grids[0].extra


def test_lem41_hormander_lambda_source():
    cfg = default_config("lem41", grid_sizes=(32,), suite={"kind": "compact", "count": 2},
                         cube_samples=3, lambda_source="hormander",
                         gauge_a={"family": "linear", "r": 1.0})
    rep = run_inequality(cfg)
    rec = rep.grids[0]
    assert rec.extra["lambda"]["source"] == "from_hormander"
    assert math.isfinite(rec.c_emp)
    assert rec.extra["plugin_over_exact_sharp"] >= 1.0


def test_prop51_sensitivity_reported():
    cfg = default_config("prop51", grid_sizes=(32,), suite={"kind": "mixed", "count": 2},
                         cube_samples=3)
    rep = run_inequality(cfg)
    sens = rep.grids[0].extra["cn_dn_sensitivity"]
    assert sens["scale"] == 1.5 and math.isfinite(sens["c_emp_variant_ii"])


def test_thm21_runs_in_2d():
    cfg = default_config("thm21", dim=2, grid_sizes=(16,),
                         suite={"kind": "mixed", "count": 2})
    rep = run_inequality(cfg)
    assert math.isfinite(rep.grids[0].c_emp) and rep.grids[0].c_emp > 0


def test_refinement_verdict_fails_on_growth(monkeypatch):
    from hartool.harness import inequalities as ineq

    def fake_runner(cfg, n):
        col = ineq.RatioCollector()
        col.add_scalar(float(n), 1.0, {"function": 0})  # c_emp grows like N
        return col, {}

    monkeypatch.setitem(ineq._RUNNERS, "eq12", fake_runner)
    rep = run_inequality(default_config("eq12", grid_sizes=(32, 128)))
    assert rep.stability_ratio == pytest.approx(4.0)
    assert rep.stability_verdict is False and rep.passed is False
    assert [g.c_emp for g in rep.grids] == [32.0, 128.0]  # the growth trace


def test_thm53_gamma_zero_needs_maximal_only():
    with pytest.raises(ConfigError, match="gamma > 0"):
        default_config("thm53", gamma=0.0)
    cfg = default_config("thm53", gamma=0.0, operators=("maximal",),
                         grid_sizes=(16, 32), suite={"kind": "mixed", "count": 2})
    rep = run_inequality(cfg)
    assert math.isfinite(rep.grids[-1].c_emp)


def test_eq19_gauge_exponent_guard():
    with pytest.raises(ConfigError, match="q > 1"):
        default_config("eq19", q=1.0)


def test_thm21_single_indicator_example():
    cfg = default_config("thm21", grid_sizes=(128, 256), gamma=0.5, s=0.5, r=1.0,
                         suite={"kind": "indicator", "count": 1})
    rep = run_inequality(cfg)
    assert all(math.isfinite(g.c_emp) and g.c_emp > 0 for g in rep.grids)
    assert rep.stability_ratio <= 2.0


def test_tabulated_morrey_weight_through_config():
    cfg = default_config(
        "thm52", grid_sizes=(32, 64), gamma=0.25, p=2.0,
        morrey_phi={"family": "tabulated",
                    "t": [0.01, 0.1, 1.0], "values": [3.0, 2.0, 1.0]},
        morrey_psi={"family": "power_law", "sigma": -0.15},
        suite={"kind": "mixed", "count": 3})
    rep = run_inequality(cfg)
    assert all(math.isfinite(g.c_emp) for g in rep.grids)
