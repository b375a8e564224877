"""Print the sha256 of every canonical report over a fixed set of configs.

The set is every config of ``perfbench/configs.json`` (all workloads) at
seeds 0, 3 and 7, and ``default_config(id, dim=d, grid_sizes=(16, 32))``
of every catalog id in 1D and 2D, plus four configs with an explicit
kernel descriptor (thm21 with a Dini kernel in 1D and 2D, lem41 with a Dini
kernel, eq12 with a Riesz one): 75 reports.  Each descriptor spells every
key it shares with its config, so a checkout that reads the descriptor
alone runs them too.  For the pointwise ids (eq12, thm21, thm22, thm23) the
``--witnesses`` diagnostics of the default configs get a digest line of
their own: 83 lines in all.  A change that keeps the
arithmetic route keeps every line, so a byte-identity check of two
checkouts is

    python tools/report_digests.py --src OLD/src > old.txt
    python tools/report_digests.py > new.txt
    diff old.txt new.txt

``--src`` names the package source to import (default: this checkout's
``src``); the configs are always read from this checkout's ``perfbench``.
It runs serially in one process and takes about a minute on a desk CPU.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 3, 7)
POINTWISE_IDS = ("eq12", "thm21", "thm22", "thm23")
_LOG_OMEGA = {"family": "log", "eps": 0.5}
DESCRIPTOR_CONFIGS = {
    "thm21-dini/1d": {"inequality_id": "thm21", "kernel": {
        "variant": "dini", "dim": 1, "gamma": 0.5, "sphere": {"dim": 1, "pos": 1.0, "neg": -1.0},
        "omega": {"family": "holder", "delta": 1.0}}},
    "thm21-dini/2d": {"inequality_id": "thm21", "dim": 2, "kernel": {
        "variant": "dini", "dim": 2, "gamma": 0.5,
        "sphere": {"dim": 2, "cos": [1.0], "sin": [0.0, 0.5]},
        "omega": {"family": "holder", "delta": 1.0}}},
    "lem41-dini/1d": {"inequality_id": "lem41", "omega": _LOG_OMEGA, "kernel": {
        "variant": "dini", "dim": 1, "gamma": 0.5, "sphere": {"dim": 1, "pos": 1.0, "neg": -1.0},
        "omega": _LOG_OMEGA}},
    "eq12-riesz/1d": {"inequality_id": "eq12",
                      "kernel": {"variant": "riesz", "dim": 1, "gamma": 0.5}},
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="directory holding the hartool package to run")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(Path(args.src).resolve()))
    from hartool.harness import ExperimentConfig, default_config, run_inequality
    from hartool.harness.config import INEQUALITY_CATALOG
    from hartool.harness.inequalities import witness_diagnostics
    from hartool.harness.report import sanitize

    configs = json.loads((ROOT / "perfbench" / "configs.json").read_text())
    for workload, by_id in sorted(configs.items()):
        for ineq, data in sorted(by_id.items()):
            for seed in SEEDS:
                cfg = ExperimentConfig.from_json(dict(data, seed=seed))
                print(f"{workload}/{ineq}/seed{seed} {_sha(run_inequality(cfg).to_json_bytes())}",
                      flush=True)
    for ineq in sorted(INEQUALITY_CATALOG):
        for dim in (1, 2):
            cfg = default_config(ineq, dim=dim, grid_sizes=(16, 32))
            report = run_inequality(cfg)
            print(f"default/{ineq}/{dim}d {_sha(report.to_json_bytes())}", flush=True)
            if ineq in POINTWISE_IDS:
                diags = {str(g.n): witness_diagnostics(cfg, g.n, g.witness) for g in report.grids}
                payload = json.dumps(sanitize(diags), sort_keys=True).encode()
                print(f"witnesses/{ineq}/{dim}d {_sha(payload)}", flush=True)
    for name, fields in DESCRIPTOR_CONFIGS.items():
        report = run_inequality(default_config(**fields, grid_sizes=(16, 32)))
        print(f"descriptor/{name} {_sha(report.to_json_bytes())}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
