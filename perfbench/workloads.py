"""Workload definitions, reference constants and the per-op correctness check.

An op is what one CLI user waits for: one cold ``hartool run`` per config,
and for ``catalog`` one pass over every catalog id.  ``configs.json`` holds
every config of every workload with all fields spelled out, as the commit the
benchmark was defined on resolved them, so a later change to the package
defaults does not silently change what is measured.
"""

from __future__ import annotations

import json
import math
import os
from pathlib import Path

HERE = Path(__file__).resolve().parent

# Relative tolerance on each grid's c_emp against the reference.  Tight
# enough to catch a wrong constant, loose enough for FFT rounding or a
# differently bracketed Luxemburg bisection (last-digit changes).
C_EMP_RTOL = 1e-6

DEFAULT_SEED = 7

WORKLOADS = ("kernel2d", "orlicz_sweep", "catalog")


def _load(name: str) -> dict:
    return json.loads((HERE / name).read_text())


CONFIGS = _load("configs.json")
REFERENCE = _load("reference.json") if (HERE / "reference.json").exists() else {}


def op_configs(workload: str, seed: int) -> list[tuple[str, dict]]:
    """(inequality id, config dict) for every run of one op, in run order."""
    if workload not in CONFIGS:
        raise ValueError(f"unknown workload {workload!r}; known: {list(WORKLOADS)}")
    # no op uses more threads than this process may run on (what nproc reports)
    nproc = len(os.sched_getaffinity(0))
    return [(ineq, dict(cfg, seed=seed, threads=min(cfg["threads"], nproc)))
            for ineq, cfg in sorted(CONFIGS[workload].items())]


def reference_seeds(workload: str) -> list[int]:
    return sorted(int(s) for s in REFERENCE.get(workload, {}))


def config_seed(workload: str, seed: int) -> int:
    """The config seed an op runs with for the benchmark's --seed.

    Seeds with a recorded reference are used as given; any other seed maps
    onto the recorded ones, so every op can be checked."""
    seeds = reference_seeds(workload)
    if not seeds:
        raise ValueError(f"no reference constants recorded for workload {workload!r}")
    return seed if seed in seeds else seeds[seed % len(seeds)]


def reference_for(workload: str, seed: int, ineq: str) -> dict[int, float]:
    """Reference c_emp per grid size N."""
    table = REFERENCE[workload][str(seed)][ineq]
    return {int(n): float(c) for n, c in table.items()}


def check_report(path: Path, reference: dict[int, float], rtol: float = C_EMP_RTOL) -> str | None:
    """None when the report matches the reference, else the reason it does not."""
    try:
        report = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return f"report unreadable: {exc}"
    if report.get("passed") is not True:
        return "report verdict is not passed"
    grids = {int(g["N"]): float(g["c_emp"]) for g in report.get("grids", [])}
    if set(grids) != set(reference):
        return f"grid sizes {sorted(grids)} differ from reference {sorted(reference)}"
    for n, ref in sorted(reference.items()):
        got = grids[n]
        if not (math.isfinite(got) and abs(got - ref) <= rtol * abs(ref)):
            return f"N={n}: c_emp {got!r} differs from reference {ref!r} (rtol {rtol:g})"
    return None
