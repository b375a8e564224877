"""Work run inside a fresh interpreter for the benchmark.

    python3 perfbench/opchild.py setup CONFIG...
        import hartool, then parse and validate every config (timed from
        outside, as the child's CPU time from its own rusage)
    python3 perfbench/opchild.py op CONFIG REPORT RESULT [--trace]
        one in-process run_inequality, timed inside the child; with --trace
        the layer boundaries are wrapped with spans, and RESULT also holds
        the per-layer metrics and the spans
    python3 perfbench/opchild.py probe RESULT
        quadrature accuracy of the 1D Riesz operator against its closed form
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

# Riesz T1 closed form on [0, 1]: int_0^1 |x - y|^(gamma - 1) dy
PROBE_GAMMA = 0.25
PROBE_SIZES = (64, 256)


def cmd_setup(configs: list[str]) -> None:
    import hartool  # noqa: F401  (the import is what is timed)
    from hartool.harness.config import ExperimentConfig
    for path in configs:
        ExperimentConfig.from_json(Path(path).read_text())


def cmd_op(config: str, report: str, result: str, trace: bool) -> None:
    start = time.perf_counter()
    from hartool.harness.config import ExperimentConfig
    from hartool.harness import inequalities
    import_s = time.perf_counter() - start
    tracer = None
    if trace:
        from tracer import Tracer, install
        tracer = Tracer()
        install(tracer)
    config_text = Path(config).read_text()
    start = time.perf_counter()
    cfg = ExperimentConfig.from_json(config_text)
    payload = inequalities.run_inequality(cfg).to_json_bytes()
    Path(report).write_bytes(payload)
    run_s = time.perf_counter() - start
    out = {"import_s": import_s, "run_s": run_s}
    if tracer is not None:
        out["metrics"] = tracer.summary()
        out["spans"] = tracer.spans
        out["spans_dropped"] = tracer.dropped
    Path(result).write_text(json.dumps(out))


def cmd_probe(result: str) -> None:
    import numpy as np
    from hartool.geometry import Grid, SampledFunction
    from hartool.operators import RieszKernel, apply_kernel
    kernel = RieszKernel(1, PROBE_GAMMA)
    out = {}
    for n in PROBE_SIZES:
        grid = Grid(1, n, 1.0, (0.0,))
        x = grid.cell_centers()[:, 0]
        exact = (x**PROBE_GAMMA + (1.0 - x) ** PROBE_GAMMA) / PROBE_GAMMA
        got = apply_kernel(kernel, SampledFunction.constant(grid, 1.0, "one")).values
        out[f"operators.riesz1d_relerr_n{n}"] = float(np.max(np.abs(got - exact) / exact))
    Path(result).write_text(json.dumps(out))


def main(argv: list[str]) -> int:
    cmd, rest = argv[0], argv[1:]
    if cmd == "setup":
        cmd_setup(rest)
    elif cmd == "op":
        cmd_op(*rest[:3], trace="--trace" in rest[3:])
    elif cmd == "probe":
        cmd_probe(rest[0])
    else:
        raise SystemExit(f"unknown command {cmd!r}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
