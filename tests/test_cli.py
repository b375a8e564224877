import json
import subprocess
import sys
from pathlib import Path

import pytest

from hartool import RieszKernel
from hartool.harness import ExperimentConfig, default_config
from hartool.harness.cli import main


def run_cli(*argv):
    return main(list(argv))


def test_list_prints_catalog(capsys):
    assert run_cli("list") == 0
    out = capsys.readouterr().out
    for name in ("eq12", "thm21", "thm42", "thm52", "eq19"):
        assert name in out


def test_run_writes_report_and_exits_zero(tmp_path, capsys):
    cfg = default_config("eq12", grid_sizes=(32,), suite={"kind": "mixed", "count": 3})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg.to_json_dict()))
    out_path = tmp_path / "report.json"
    code = run_cli("run", "--config", str(cfg_path), "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["inequality_id"] == "eq12"
    assert report["passed"] is True
    assert "PASS" in capsys.readouterr().out


def test_run_with_witnesses_and_csv(tmp_path):
    # thm21 dumps one pointwise array per suite function; thm31 one scalar
    # pair per (function, weight) at the best median level t
    for ineq, nfiles in (("thm21", 2), ("thm31", 2 * 10)):
        cfg = default_config(ineq, grid_sizes=(16,), suite={"kind": "mixed", "count": 2})
        cfg_path = tmp_path / f"{ineq}.json"
        cfg_path.write_text(json.dumps(cfg.to_json_dict()))
        out_path = tmp_path / f"{ineq}_report.json"
        csv_dir = tmp_path / "csv"
        code = run_cli("run", "--config", str(cfg_path), "--out", str(out_path),
                       "--witnesses", "--csv", str(csv_dir))
        assert code == 0
        report = json.loads(out_path.read_text())
        if ineq == "thm21":
            diag = report["witness_diagnostics"]["16"]
            assert "argmax_cube" in diag and "witness_center" in diag
        files = sorted(csv_dir.glob(f"{ineq}_N16_*.csv"))
        assert len(files) == nfiles
        header = files[0].read_text().splitlines()
        assert header[1].split(",") == ["i0", "lhs", "rhs"]


def test_run_rejects_bad_config(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"inequality_id": "thm42", "p": 5.0, "q": 2.0}))
    assert run_cli("run", "--config", str(cfg_path)) == 2
    assert "r < p < q" in capsys.readouterr().err


def test_run_rejects_condition_f_weight_pair(tmp_path, capsys):
    cfg_path = tmp_path / "cond.json"
    cfg_path.write_text(json.dumps({"inequality_id": "eq33", "grid_sizes": [16, 32],
                                    "weight_pair": {"mode": "condition_f"}}))
    assert run_cli("run", "--config", str(cfg_path)) == 2
    err = capsys.readouterr().err
    assert "config rejected" in err and "condition_f" in err


def test_run_rejects_dense_kernel_over_budget(tmp_path, capsys):
    # 2D N=128 asks for a (128^2)^2 float64 kernel matrix: 2 GiB
    cfg_path = tmp_path / "big.json"
    cfg_path.write_text(json.dumps({"inequality_id": "eq12", "dim": 2, "grid_sizes": [64, 128]}))
    assert run_cli("run", "--config", str(cfg_path)) == 2
    err = capsys.readouterr().err
    assert "config rejected" in err and "N=128" in err and "2147483648 bytes" in err
    default_config("eq12", dim=2, grid_sizes=(32, 64))  # 128 MiB fits
    default_config("prop51", dim=2, grid_sizes=(64, 128))  # builds no kernel


# Each descriptor below fails to construct (or, for the power_log base, is
# not convex, so its conjugate does not exist; or it sets an input that no
# runner reads; or it leaves the run nothing to check; or it contradicts the
# config); the run must stop at validation with exit 2 and name the field.
BAD_DESCRIPTORS = {
    "thm22_gauge_a_power_below_1": (
        {"inequality_id": "thm22", "gauge_a": {"family": "power", "p": 0.5}}, "gauge_a"),
    "lem41_hormander_gauge_a_power_below_1": (
        {"inequality_id": "lem41", "lambda_source": "hormander",
         "gauge_a": {"family": "power", "p": 0.5}}, "gauge_a"),
    "unknown_gauge_family": (
        {"inequality_id": "thm22", "gauge_a": {"family": "weird", "p": 2.0}}, "gauge_a"),
    "thm42_gauge_b_power_below_1": (
        {"inequality_id": "thm42", "gauge_b": {"family": "power", "p": 0.5}}, "gauge_b"),
    "unknown_family_kind": ({"inequality_id": "eq12", "family": {"kind": "weird"}}, "family"),
    "unknown_suite_kind": (
        {"inequality_id": "eq12", "suite": {"kind": "weird", "count": 2}}, "suite"),
    "thm52_morrey_phi_positive_sigma": (
        {"inequality_id": "thm52", "gamma": 0.25,
         "morrey_phi": {"family": "power_law", "sigma": 0.5}}, "morrey_phi"),
    "thm22_nonconvex_power_log": (
        {"inequality_id": "thm22", "gauge_a": {"family": "power_log", "p": 1.0, "a": -0.5}},
        "gauge_a"),
    "weight_pair_not_an_object": (
        {"inequality_id": "thm31", "weight_pair": "unit"}, "weight_pair"),
    "weight_order_below_1": ({"inequality_id": "thm31", "weight_order": 0.5}, "weight_order"),
    "weight_pair_order_key": (
        {"inequality_id": "thm31", "weight_pair": {"mode": "maximal", "order": 2}},
        "weight_pair"),
    "alpha_set": ({"inequality_id": "thm42", "alpha": 0.3}, "alpha"),
    "beta_set": ({"inequality_id": "eq33", "beta": 7}, "beta"),
    # configs that would check nothing: a family without side-1 cubes, an
    # empty suite, no sampled cube, no median level, no operator
    "family_max_side_fractional": (
        {"inequality_id": "thm21", "family": {"kind": "all", "max_side": 2.5}}, "max_side"),
    "family_max_side_zero": (
        {"inequality_id": "thm22", "family": {"kind": "dyadic", "max_side": 0}}, "max_side"),
    "suite_count_zero": (
        {"inequality_id": "eq12", "suite": {"kind": "mixed", "count": 0}}, "suite"),
    "thm31_weight_suite_count_zero": (
        {"inequality_id": "thm31", "weight_suite": {"kind": "mixed_weights", "count": 0}},
        "weight_suite"),
    "lem41_cube_samples_zero": ({"inequality_id": "lem41", "cube_samples": 0}, "cube_samples"),
    "lem41_hormander_cube_samples_zero": (
        {"inequality_id": "lem41", "lambda_source": "hormander", "cube_samples": 0},
        "cube_samples"),
    "prop51_cube_samples_fractional": (
        {"inequality_id": "prop51", "gamma": 0.25, "cube_samples": 2.5}, "cube_samples"),
    "prop51_cube_samples_zero": (
        {"inequality_id": "prop51", "gamma": 0.25, "cube_samples": 0}, "cube_samples"),
    "thm53_no_operators": ({"inequality_id": "thm53", "gamma": 0.25, "operators": []}, "operators"),
    "thm31_empty_t_scan": ({"inequality_id": "thm31", "t_scan": []}, "t_scan"),
    "eq33_empty_t_scan": ({"inequality_id": "eq33", "t_scan": []}, "t_scan"),
    # sizes that are not integers
    "grid_size_fractional": (
        {"inequality_id": "prop51", "gamma": 0.25, "grid_sizes": [16, 32.0]}, "grid_sizes"),
    "suite_count_fractional": (
        {"inequality_id": "prop51", "gamma": 0.25, "suite": {"kind": "mixed", "count": 2.5}},
        "suite"),
    "thm31_weight_suite_count_fractional": (
        {"inequality_id": "thm31", "weight_suite": {"kind": "mixed_weights", "count": 2.5}},
        "weight_suite"),
    # a kernel descriptor that contradicts a value the config holds
    "eq12_kernel_gamma_differs": (
        {"inequality_id": "eq12", "kernel": {"variant": "riesz", "gamma": 0.6}}, "kernel"),
    "thm21_kernel_gamma_differs": (
        {"inequality_id": "thm21", "kernel": {"variant": "riesz", "gamma": 0.75}}, "kernel"),
    "kernel_dim_differs": (
        {"inequality_id": "eq12", "kernel": {"variant": "riesz", "dim": 2, "gamma": 0.5}},
        "kernel"),
    "lem41_dini_omega_differs": (
        {"inequality_id": "lem41", "kernel": {
            "variant": "dini", "gamma": 0.5, "sphere": {"dim": 1, "pos": 1.0, "neg": -1.0},
            "omega": {"family": "log", "eps": 0.5}}}, "kernel"),
    "thm23_homogeneous_gamma_differs": (
        {"inequality_id": "thm23", "gamma": 0.5, "kernel": {
            "variant": "homogeneous", "gamma": 0.3, "coeffs": [1.0, -1.0],
            "exponents": [0.35, 0.35]}}, "kernel"),
}


@pytest.mark.parametrize("name", sorted(BAD_DESCRIPTORS))
def test_run_rejects_bad_descriptor(name, tmp_path, capsys):
    data, field = BAD_DESCRIPTORS[name]
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text(json.dumps({"grid_sizes": [16, 32], **data}))
    assert run_cli("run", "--config", str(cfg_path)) == 2
    err = capsys.readouterr().err
    assert "config rejected" in err and field in err


def test_readme_example_config_validates():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    example = readme.split("Minimal example:")[1].split("```json")[1].split("```")[0]
    cfg = ExperimentConfig.from_json(example)
    assert cfg.resolved_kernel() == RieszKernel(cfg.dim, cfg.gamma)


def test_oracle_command(capsys):
    assert run_cli("oracle", "cubes") == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out
    assert run_cli("oracle", "definitely-not-an-oracle") == 2
    err = capsys.readouterr().err
    assert "known:" in err and "'luxemburg'" in err


def test_run_path_does_not_import_the_oracles():
    # the oracles are verification code: only `hartool oracle` imports them
    proc = subprocess.run([sys.executable, "-c", "import sys, hartool.harness.cli; "
                           "print('hartool.harness.oracles' in sys.modules)"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and proc.stdout.strip() == "False", proc.stderr


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "hartool.harness.cli", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0 and "thm21" in proc.stdout
