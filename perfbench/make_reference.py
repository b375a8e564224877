"""Record the reference c_emp of every op config for the reference seeds.

    python3 perfbench/make_reference.py

Runs each config of every workload as a cold ``hartool run`` for each seed in
REFERENCE_SEEDS and writes each grid's c_emp to ``perfbench/reference.json``,
replacing it.  Run it only on the commit whose constants are the reference;
a seed on which any run of a workload does not pass is left out of that
workload and reported.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from proc import ROOT, run_child
from workloads import HERE, WORKLOADS, op_configs

REFERENCE_SEEDS = list(range(16)) + [23]


def record(workload: str, seed: int, workdir: Path) -> dict | None:
    table = {}
    for ineq, cfg in op_configs(workload, seed):
        cfg_path = workdir / f"{ineq}.json"
        out_path = workdir / f"{ineq}.report.json"
        cfg_path.write_text(json.dumps(cfg))
        res = run_child([sys.executable, "-m", "hartool.harness.cli", "run",
                         "--config", str(cfg_path), "--out", str(out_path)])
        if res.returncode != 0:
            print(f"{workload} seed {seed}: {ineq} exited {res.returncode}; seed left out",
                  file=sys.stderr)
            return None
        report = json.loads(out_path.read_text())
        table[ineq] = {str(g["N"]): g["c_emp"] for g in report["grids"]}
    return table


def main() -> int:
    reference = {}
    work = ROOT / "perfbench" / "_work"
    work.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=work) as tmp:
        for workload in WORKLOADS:
            for seed in REFERENCE_SEEDS:
                table = record(workload, seed, Path(tmp))
                if table is not None:
                    reference.setdefault(workload, {})[str(seed)] = table
                    print(f"{workload} seed {seed}: recorded", flush=True)
    (HERE / "reference.json").write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
