"""Self-tests of the benchmark itself (under a minute on 2 CPUs).

    python3 perfbench/selftest.py

1. The correctness gate: an op checked against a reference perturbed
   beyond C_EMP_RTOL counts as failed; one perturbed well inside it passes.
2. Tracing is deterministic: two traced runs with a 2-thread pool give
   exactly the same count metrics (calls, elems, bytes, keys, rows, cells).
3. Every per-layer metric BENCHMARK.json names is produced by a traced op.
4. Outside a full checkout (only BENCHMARK.json and perfbench/), the
   benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run
from proc import ROOT
from workloads import C_EMP_RTOL, DEFAULT_SEED, op_configs, reference_for

# cheap catalog configs; eq12, thm22 and lem41 fan out to the thread pool
CHEAP = ("eq12", "eq45_check", "lem41", "thm22")
COUNT_SUFFIXES = (".calls", ".elems", ".bytes", ".keys", ".rows", ".cells", ".distinct")


def _runs(workdir: Path, threads: int = 1, scale: float = 1.0) -> list[run.Run]:
    runs = []
    for ineq, cfg in op_configs("catalog", DEFAULT_SEED):
        if ineq not in CHEAP:
            continue
        path = workdir / f"{ineq}.config.json"
        path.write_text(json.dumps(dict(cfg, threads=threads)))
        ref = {n: c * scale for n, c in reference_for("catalog", DEFAULT_SEED, ineq).items()}
        runs.append(run.Run(ineq, path, ref))
    return runs


def test_correctness_gate(workdir: Path) -> None:
    exact = run.cold_op(_runs(workdir)[:1], workdir)
    assert not exact.failures, exact.failures
    inside = run.cold_op(_runs(workdir, scale=1 + C_EMP_RTOL / 100)[:1], workdir)
    assert not inside.failures, inside.failures
    outside = run.cold_op(_runs(workdir, scale=1 + C_EMP_RTOL * 10)[:1], workdir)
    assert outside.failures and outside.verified == 0, "perturbed reference was accepted"


def test_trace_counts_repeat(workdir: Path) -> dict:
    trace_dir = workdir / "trace"
    trace_dir.mkdir()
    runs = _runs(workdir, threads=2)
    first, second = (run.traced_op(runs, workdir, trace_dir, "selftest") for _ in range(2))
    assert not first.failures and not second.failures, first.failures + second.failures
    counts = [{k: v for k, v in op.metrics.items() if k.endswith(COUNT_SUFFIXES)}
              for op in (first, second)]
    assert counts[0] == counts[1], {k: (counts[0].get(k), counts[1].get(k))
                                    for k in set(counts[0]) | set(counts[1])
                                    if counts[0].get(k) != counts[1].get(k)}
    assert counts[0]["gauges.value.elems"] > 0 and counts[0]["sweeps.calls"] > 0
    return run.per_layer([first, second], run.probe())


def test_metric_names(values: dict) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    missing = [m["name"] for m in spec["per_layer"] if m["name"] not in values]
    assert not missing, f"per-layer metrics not produced: {missing}"


def test_refuses_partial_checkout() -> None:
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "catalog",
                               "--seed", "1", "--seconds", "1", "--trace", "0"],
                              cwd=tmp, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and '"correct"' not in proc.stdout, proc.stdout


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.WORK) as tmp:
        workdir = Path(tmp)
        test_correctness_gate(workdir)
        print("ok  correctness gate rejects a perturbed reference", flush=True)
        values = test_trace_counts_repeat(workdir)
        print("ok  traced count metrics repeat exactly", flush=True)
        test_metric_names(values)
        print("ok  every per-layer metric is produced", flush=True)
    test_refuses_partial_checkout()
    print("ok  refuses to run outside a full checkout")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
