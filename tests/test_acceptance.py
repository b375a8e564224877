"""Acceptance criteria, one test per criterion, each printing a verdict line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion
PASS lines and timings.
"""

import math
import time

import numpy as np

from hartool import (BorderlineLogModulus, Cube, CubeFamily, Grid, HolderModulus,
                     LinearGauge, PowerGauge, SampledFunction, bump_norm,
                     dini_integral, luxemburg_mean_norm, luxemburg_raw_norm,
                     sharp_median)
from hartool.harness import default_config, run_inequality
from hartool.harness.oracles import brute_force_sharp, exhaustive_subset_ratio
from hartool.weights import subset_ratio_exact


def _report(k, name, detail, t0):
    print(f"ACCEPTANCE {k} ({name}): PASS  [{detail}; {time.time() - t0:.2f}s]")


def test_acceptance_01_luxemburg_oracle_equivalence():
    t0 = time.time()
    rng = np.random.default_rng(100)
    worst = 0.0
    for _ in range(100):
        n = int(rng.choice([16, 32, 64]))
        grid = Grid(1, n, float(rng.uniform(0.5, 2.0)))
        f = SampledFunction(grid, rng.uniform(-3, 3, n))
        m = int(rng.integers(1, n + 1))
        q = Cube(grid, (int(rng.integers(0, n - m + 1)),), m)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        sub = np.abs(f.values[q.slices])
        mean_ref = float(np.mean(sub ** p) ** (1 / p))
        raw_ref = float((np.sum(sub ** p) * grid.h) ** (1 / p))
        scale = max(mean_ref, 1e-300)
        worst = max(worst, abs(luxemburg_mean_norm(f, q, PowerGauge(p)) - mean_ref) / scale,
                    abs(luxemburg_raw_norm(f, q, PowerGauge(p)) - raw_ref) / max(raw_ref, 1e-300))
    assert worst <= 1e-9
    assert time.time() - t0 < 1.0
    _report(1, "luxemburg oracle equivalence", f"max rel err {worst:.2e} over 100 triples", t0)


def test_acceptance_02_sharp_median_exactness():
    t0 = time.time()
    rng = np.random.default_rng(101)
    for trial in range(200):
        n = int(rng.integers(2, 65))
        # dyadic-lattice values make +, -, /2 exact in floats, so the window
        # reduction and the brute force agree bit for bit, not just closely
        vals = rng.integers(-5 * 2**20, 5 * 2**20, size=n) * 2.0**-20
        g = Grid(1, 64)
        padded = np.zeros(64)
        padded[:n] = vals
        f = SampledFunction(g, padded)
        s = float(rng.choice([0.5, 0.4, 0.3, 0.25]))
        got = sharp_median(f, s, Cube(g, (0,), n))
        ref = brute_force_sharp(vals, s)
        assert got == ref, f"trial {trial}: {got!r} != {ref!r}"
    assert time.time() - t0 < 5.0
    _report(2, "sharp-median exactness", "exact equality on 200 value sets", t0)


def test_acceptance_03_condition_f_solver_exactness():
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(50):
        ncells = int(rng.integers(2, 17))
        wv = rng.uniform(0, 2, ncells)
        vv = rng.uniform(0.05, 2, ncells)
        k = int(rng.integers(1, ncells))
        lam, _ = subset_ratio_exact(wv, vv, k)
        ref = exhaustive_subset_ratio(wv, vv, k)
        worst = max(worst, abs(lam - ref) / max(abs(ref), 1e-300))
    assert worst <= 1e-9
    assert time.time() - t0 < 30.0
    _report(3, "condition-F solver exactness", f"max rel err {worst:.2e} over 50 pairs", t0)


def test_acceptance_04_pointwise_domination_with_explicit_constant():
    t0 = time.time()
    for dim, n in ((1, 256), (2, 64)):
        for gamma in (0.25, 0.5, 0.75):
            cfg = default_config("eq12", dim=dim, grid_sizes=(n,), gamma=gamma,
                                 suite={"kind": "mixed", "count": 20})
            rep = run_inequality(cfg)
            rec = rep.grids[0]
            bound = dim ** (dim * (1.0 - gamma) / 2.0) * 1.05
            assert not rec.failures
            assert rec.c_emp <= bound, (dim, gamma, rec.c_emp, bound)
    assert time.time() - t0 < 120.0
    _report(4, "explicit-constant domination", "all points within n^(n(1-g)/2)*1.05", t0)


def test_acceptance_05_sharp_control_by_fractional_maximal():
    t0 = time.time()
    cfg = default_config("thm21", grid_sizes=(128, 256), gamma=0.5, s=0.5, r=1.0,
                         suite={"kind": "mixed", "count": 20})
    rep = run_inequality(cfg)
    assert all(math.isfinite(g.c_emp) and g.c_emp > 0 for g in rep.grids)
    assert rep.stability_ratio <= 2.0
    assert rep.passed
    assert time.time() - t0 < 300.0
    _report(5, "sharp maximal controlled by fractional maximal",
            f"c_emp {[round(g.c_emp, 4) for g in rep.grids]}, ratio {rep.stability_ratio:.3f}", t0)


def test_acceptance_06_homogeneous_kernel_bound():
    t0 = time.time()
    gamma = 0.5
    cfg = default_config(
        "thm23", grid_sizes=(128, 256), gamma=gamma, s=0.5,
        kernel={"variant": "homogeneous", "gamma": gamma,
                "coeffs": [1.0, -1.0],
                "exponents": [(1 - gamma) / 2.0, (1 - gamma) / 2.0]},
        suite={"kind": "compact", "count": 6})
    rep = run_inequality(cfg)
    assert all(math.isfinite(g.c_emp) and g.c_emp > 0 for g in rep.grids)
    assert rep.stability_ratio <= 2.0
    assert rep.passed
    assert time.time() - t0 < 300.0
    _report(6, "homogeneous-kernel sharp bound",
            f"c_emp {[round(g.c_emp, 4) for g in rep.grids]}, ratio {rep.stability_ratio:.3f}", t0)


def test_acceptance_07_dilate_sum_bound():
    t0 = time.time()
    cfg = default_config("lem41", grid_sizes=(128, 256), gamma=0.5, s=0.5, r=1.0,
                         cube_samples=20, suite={"kind": "compact", "count": 5})
    rep = run_inequality(cfg)
    assert all(math.isfinite(g.c_emp) and g.c_emp > 0 for g in rep.grids)
    assert not any(g.failures for g in rep.grids)
    assert rep.stability_ratio <= 2.0
    assert time.time() - t0 < 120.0
    _report(7, "sharp median vs dilate sums",
            f"c_emp {[round(g.c_emp, 4) for g in rep.grids]}, ratio {rep.stability_ratio:.3f}", t0)


def test_acceptance_08_weighted_local_mean_control():
    t0 = time.time()
    cfg = default_config("thm31", grid_sizes=(128, 256),
                         suite={"kind": "mixed", "count": 10},
                         weight_suite={"kind": "mixed_weights", "count": 10})
    # default gauge_phi is the identity and the weight pair is (w, Mw)
    assert cfg.resolved_gauge("gauge_phi").to_json() == {"family": "linear", "r": 1.0}
    assert cfg.weight_pair["mode"] == "maximal" and cfg.weight_order == 1.0
    rep = run_inequality(cfg)
    assert all(math.isfinite(g.c_emp) and g.c_emp > 0 for g in rep.grids)
    assert rep.stability_ratio <= 2.0
    assert rep.passed
    assert time.time() - t0 < 300.0
    _report(8, "weighted local-mean control",
            f"c_emp {[round(g.c_emp, 4) for g in rep.grids]}, ratio {rep.stability_ratio:.3f}", t0)


def test_acceptance_09_dini_and_bump_classification():
    t0 = time.time()
    _, div = dini_integral(HolderModulus(1.0), 1.0)
    assert not div
    _, div = dini_integral(HolderModulus(0.5), 1.0)
    assert not div
    _, div = dini_integral(BorderlineLogModulus(), 1.0)
    assert div
    for gauge, expect_in in ((LinearGauge(1.0), True), (PowerGauge(1.5), True),
                             (PowerGauge(2.0), False), (PowerGauge(3.0), False)):
        _, div = bump_norm(gauge, 0.0, 2.0)
        assert div != expect_in, gauge.to_json()
    assert time.time() - t0 < 10.0
    _report(9, "Dini and bump classification", "all six memberships correct", t0)


def test_acceptance_10_morrey_boundedness_and_reduction():
    t0 = time.time()
    cfg = default_config("thm52", grid_sizes=(128, 256), gamma=0.25, p=2.0,
                         suite={"kind": "mixed", "count": 8})
    rep = run_inequality(cfg)
    assert all(math.isfinite(g.c_emp) and g.c_emp > 0 for g in rep.grids)
    assert rep.stability_ratio <= 2.0
    assert math.isfinite(rep.grids[0].extra["compat_52"])
    # closed-form reduction of the Morrey norm for power data
    from hartool import PowerLawWeight, morrey_norm
    rng = np.random.default_rng(103)
    g = Grid(1, 64)
    fam = CubeFamily(g, "all")
    p, lam = 2.0, 0.5
    phi = PowerLawWeight((lam - 1.0) / p)
    worst = 0.0
    for _ in range(5):
        f = SampledFunction(g, rng.uniform(-2, 2, 64))
        got = morrey_norm(f, PowerGauge(p), phi, fam)
        ref = max(q.side_length ** (-lam / p) *
                  float((np.sum(np.abs(f.values[q.slices]) ** p) * g.h) ** (1 / p))
                  for q in fam.iter_cubes())
        worst = max(worst, abs(got - ref) / ref)
    assert worst <= 1e-9
    assert time.time() - t0 < 180.0
    _report(10, "Morrey boundedness and classical reduction",
            f"c_emp {[round(g.c_emp, 4) for g in rep.grids]}, reduction err {worst:.2e}", t0)


def test_acceptance_11_determinism_across_threads(fresh_report):
    t0 = time.time()
    kw = dict(grid_sizes=(64, 128), suite={"kind": "mixed", "count": 6})
    rep1 = run_inequality(default_config("thm21", threads=1, **kw))
    rep4 = run_inequality(default_config("thm21", threads=4, **kw))
    assert rep1.to_json_bytes() == rep4.to_json_bytes()
    rep1b = run_inequality(default_config("thm21", threads=1, **kw))
    assert rep1.to_json_bytes() == rep1b.to_json_bytes()
    # the in-process runs share the kernel-matrix cache; a new interpreter does not
    assert fresh_report(default_config("thm21", threads=4, **kw)) == rep1.to_json_bytes()
    _report(11, "determinism across threads", "byte-identical reports", t0)
