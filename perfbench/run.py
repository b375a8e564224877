"""The hartool benchmark: closed-loop cold ``hartool run`` workloads.

    python3 perfbench/run.py --workload {kernel2d,orlicz_sweep,catalog}
                             --seed N --seconds S --trace {0,1}

One client, closed loop: an op starts only after the previous one ended,
and ops start until S seconds have passed.  Every run of an op is a cold
``hartool run --config ... --out ...`` in a fresh child process, since a CLI
user pays interpreter start-up, import and kernel build on every run.  Each
report is checked against the reference c_emp recorded for its config seed
(see workloads.py); an op fails when any of its runs exits non-zero or
leaves the reference tolerance.

--trace 0 prints the end-to-end metrics.  --trace 1 instead runs each
config in process twice per op, once plain and once with every layer
boundary wrapped in spans (tracer.py), and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the metric names and units are
those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from proc import ROOT, SRC, run_child
from workloads import (C_EMP_RTOL, DEFAULT_SEED, WORKLOADS, check_report, config_seed,
                       op_configs, reference_for)

HERE = Path(__file__).resolve().parent
WORK = HERE / "_work"
# set-up is sampled in batches before each op and topped up after the loop,
# so its median spans the run's time window as run_s_p50 does
SETUP_REPEATS = 15
SETUP_BATCH = 5
PY = sys.executable

# per-layer metrics derived from two counters: distinct inputs over calls
RATIOS = {
    "operators.apply_kernel.useful_ratio": ("operators.apply_kernel.distinct",
                                            "operators.apply_kernel.calls"),
    "maximal.fractional_maximal.useful_ratio": ("maximal.fractional_maximal.distinct",
                                                "maximal.fractional_maximal.calls"),
}


@dataclass
class Run:
    """One config of an op, written to disk with its reference constants."""
    ineq: str
    config: Path
    reference: dict


@dataclass
class OpResult:
    wall_s: float = 0.0
    failures: list = field(default_factory=list)
    verified: int = 0
    peak_rss_mib: float = 0.0
    metrics: Counter = field(default_factory=Counter)   # trace mode, summed over runs
    plain_run_s: float = 0.0
    traced_run_s: float = 0.0
    notes: list = field(default_factory=list)            # trace mode, one line per run


def _check(res, run: Run, report: Path, op: OpResult) -> None:
    if res.returncode != 0:
        op.failures.append(f"{run.ineq}: exit code {res.returncode}")
        return
    reason = check_report(report, run.reference)
    if reason is not None:
        op.failures.append(f"{run.ineq}: {reason}")
    else:
        op.verified += 1


def cold_op(runs: list[Run], workdir: Path) -> OpResult:
    """One op as a CLI user runs it: a fresh `hartool run` per config."""
    op = OpResult()
    start = time.perf_counter()
    for run in runs:
        report = workdir / f"{run.ineq}.report.json"
        report.unlink(missing_ok=True)
        res = run_child([PY, "-m", "hartool.harness.cli", "run",
                         "--config", str(run.config), "--out", str(report)],
                        log_path=workdir / f"{run.ineq}.log")
        _check(res, run, report, op)
        op.peak_rss_mib = max(op.peak_rss_mib, res.maxrss_mib)
    op.wall_s = time.perf_counter() - start
    return op


def traced_op(runs: list[Run], workdir: Path, trace_dir: Path, workload: str) -> OpResult:
    """One op run in process twice per config: plain, then traced."""
    op = OpResult()
    start = time.perf_counter()
    for run in runs:
        for traced in (False, True):
            report = workdir / f"{run.ineq}.report.json"
            result = workdir / f"{run.ineq}.result.json"
            report.unlink(missing_ok=True)
            argv = [PY, str(HERE / "opchild.py"), "op", str(run.config), str(report), str(result)]
            res = run_child(argv + (["--trace"] if traced else []),
                            log_path=workdir / f"{run.ineq}.log")
            _check(res, run, report, op)
            if res.returncode != 0:
                continue
            data = json.loads(result.read_text())
            if traced:
                op.traced_run_s += data["run_s"]
                op.metrics.update(data["metrics"])
                top = sorted(((v, k) for k, v in data["metrics"].items()
                              if k.endswith(".s") and k.count(".") >= 2
                              and not k.startswith("harness.runner.")), reverse=True)[:4]
                op.notes.append(f"trace {run.ineq}: traced run {data['run_s']:.3f} s; "
                                + ", ".join(f"{k} {v:.3f}" for v, k in top))
                shutil.copyfile(result, trace_dir / f"{workload}.{run.ineq}.json")
            else:
                op.plain_run_s += data["run_s"]
                op.metrics["harness.import_s"] += data["import_s"]
                op.metrics["harness.cpu_s"] += res.cpu_s
                op.peak_rss_mib = max(op.peak_rss_mib, res.maxrss_mib)
    op.wall_s = time.perf_counter() - start
    return op


def setup_samples(runs: list[Run], count: int) -> list[float]:
    """CPU time (user + system, from the child's own rusage) of `count` fresh
    interpreters each importing hartool and parsing and validating every
    config of the workload.  CPU time is used rather than wall time because
    the wall time of these short children follows the machine's speed swings."""
    argv = [PY, str(HERE / "opchild.py"), "setup"] + [str(r.config) for r in runs]
    times = []
    for _ in range(count):
        res = run_child(argv)
        if res.returncode != 0:
            raise RuntimeError("set-up child failed: the configs do not parse")
        times.append(res.cpu_s)
    return times


def probe() -> dict:
    with tempfile.TemporaryDirectory(dir=WORK) as tmp:
        result = Path(tmp) / "probe.json"
        if run_child([PY, str(HERE / "opchild.py"), "probe", str(result)]).returncode != 0:
            raise RuntimeError("quadrature probe failed")
        return json.loads(result.read_text())


def environment() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower()}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    model = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip() if (ROOT / ".git").exists() else ""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_model": model, "caches": caches,
            "python": platform.python_version(), "numpy": importlib.metadata.version("numpy"),
            "commit": commit or None, "source_sha256": digest.hexdigest()}


def end_to_end(ops: list[OpResult], loop_s: float, setup_s: float) -> dict:
    attempted = len(ops)
    return {
        "run_s_p50": statistics.median(op.wall_s for op in ops),
        "reports_per_min": 60.0 * sum(op.verified for op in ops) / loop_s,
        "setup_s": setup_s,
        "peak_rss_mib": max(op.peak_rss_mib for op in ops),
        "verified_frac": sum(not op.failures for op in ops) / attempted,
    }


def per_layer(ops: list[OpResult], probe_values: dict) -> dict:
    names = set().union(*(op.metrics for op in ops))
    out = {name: statistics.median(op.metrics.get(name, 0) for op in ops) for name in names}
    for name, (num, den) in RATIOS.items():
        calls = sum(op.metrics.get(den, 0) for op in ops)
        out[name] = sum(op.metrics.get(num, 0) for op in ops) / calls if calls else 1.0
    plain_s = sum(op.plain_run_s for op in ops)
    out["harness.trace_overhead_frac"] = sum(op.traced_run_s for op in ops) / plain_s if plain_s else 0.0
    out.update(probe_values)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="closed-loop hartool benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "hartool" / "__init__.py").is_file():
        print(f"hartool sources not found under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    cseed = config_seed(args.workload, args.seed)
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK))
    try:
        runs = []
        for ineq, cfg in op_configs(args.workload, cseed):
            path = workdir / f"{ineq}.config.json"
            path.write_text(json.dumps(cfg))
            runs.append(Run(ineq, path, reference_for(args.workload, cseed, ineq)))
        # first import writes the bytecode cache; users have it, so it is not timed
        run_child([PY, "-c", "import hartool.harness.cli"])

        trace_dir = WORK / "trace"
        if args.trace:
            trace_dir.mkdir(exist_ok=True)
        setup: list[float] = []
        ops: list[OpResult] = []
        # the loop's time is the ops' own; set-up samples between ops do not count
        loop_s = 0.0
        while not ops or loop_s < args.seconds:
            if args.trace:
                ops.append(traced_op(runs, workdir, trace_dir, args.workload))
            else:
                setup += setup_samples(runs, SETUP_BATCH)
                ops.append(cold_op(runs, workdir))
            loop_s += ops[-1].wall_s
        if args.trace:
            values = per_layer(ops, probe())
        else:
            setup += setup_samples(runs, max(0, SETUP_REPEATS - len(setup)))
            values = end_to_end(ops, loop_s, statistics.median(setup))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(bool(op.failures) for op in ops)
    for i, op in enumerate(ops):
        for reason in op.failures:
            print(f"op {i} failed: {reason}", file=sys.stderr)
    for note in ops[-1].notes:
        print(note)
    print("env " + json.dumps(environment(), sort_keys=True))
    print(f"{args.workload}: seed {args.seed} (config seed {cseed}), {len(ops)} ops "
          f"in {loop_s:.1f} s, op times {[round(op.wall_s, 3) for op in ops]}, "
          f"c_emp rtol {C_EMP_RTOL:g}")
    # a per-layer metric no op reached (every run failed) reads 0; selftest.py
    # checks that each name BENCHMARK.json lists is produced
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
