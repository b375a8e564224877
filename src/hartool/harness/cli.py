"""Command-line interface.

    hartool run --config cfg.json --out report.json [--witnesses] [--csv DIR]
    hartool list
    hartool oracle NAME [--seed S]

`run` executes one inequality config and writes the canonical JSON report;
the exit code is 0 iff every verdict passes and 2 for a config that
`ExperimentConfig.validate` rejects, with the reason on stderr.  Runs are
serial; the config's `threads` field changes nothing.
`list` prints the inequality catalog with the config fields each id reads.
`oracle` runs a named brute-force oracle suite and prints one pass/fail
line per case.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from pathlib import Path

import numpy as np

from .config import INEQUALITY_CATALOG, ConfigError, ExperimentConfig
from .inequalities import run_inequality, witness_diagnostics
from .report import sanitize

__all__ = ["main"]


def _csv_sink_factory(outdir: Path):
    outdir.mkdir(parents=True, exist_ok=True)
    counters: dict[tuple, int] = {}

    def sink(inequality_id, n, tag, lhs, rhs, shape):
        key = (inequality_id, n)
        idx = counters.get(key, 0)
        counters[key] = idx + 1
        path = outdir / f"{inequality_id}_N{n}_{idx:03d}.csv"
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["tag", json.dumps(sanitize(tag), sort_keys=True)])
            dim = len(shape)
            writer.writerow([f"i{d}" for d in range(dim)] + ["lhs", "rhs"])
            for flat in range(lhs.size):
                point = list(np.unravel_index(flat, shape))
                writer.writerow([int(v) for v in point] + [repr(float(lhs[flat])), repr(float(rhs[flat]))])

    return sink


def _cmd_run(args) -> int:
    try:
        cfg = ExperimentConfig.from_json(json.loads(Path(args.config).read_text()))
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"config rejected: {exc}", file=sys.stderr)
        return 2
    sink = _csv_sink_factory(Path(args.csv)) if args.csv else None
    report = run_inequality(cfg, csv_sink=sink)
    payload = report.to_json_dict()
    if args.witnesses:
        details = {}
        for rec in report.grids:
            diag = witness_diagnostics(cfg, rec.n, rec.witness)
            if diag is not None:
                details[str(rec.n)] = sanitize(diag)
        payload["witness_diagnostics"] = details
    out = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    if args.out:
        Path(args.out).write_text(out)
    for rec in report.grids:
        print(f"{report.inequality_id} N={rec.n}: c_emp={rec.c_emp:.6g} "
              f"excluded={rec.excluded} failures={len(rec.failures)}")
    if report.stability_ratio is not None:
        verdict = "pass" if report.stability_verdict else "FAIL"
        print(f"stability ratio {report.stability_ratio:.4g} [{verdict}]")
    print("PASS" if report.passed else "FAIL")
    return 0 if report.passed else 1


def _cmd_list(_args) -> int:
    for name in sorted(INEQUALITY_CATALOG):
        entry = INEQUALITY_CATALOG[name]
        print(f"{name:10s} {entry['summary']}")
        print(f"{'':10s}   params: {', '.join(entry['params'])}")
    return 0


def _cmd_oracle(args) -> int:
    from .oracles import run_oracle  # verification code, kept off the run path

    try:
        cases = run_oracle(args.name, seed=args.seed)
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    failed = 0
    for case in cases:
        mark = "PASS" if case.passed else "FAIL"
        print(f"[{mark}] {case.name}: {case.detail}")
        failed += 0 if case.passed else 1
    print(f"{len(cases) - failed}/{len(cases)} oracle cases passed")
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="hartool",
        description="Numerical verification harness for fractional maximal and "
                    "integral operator inequalities on grid-sampled functions.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one inequality config")
    p_run.add_argument("--config", required=True, help="path to the JSON config")
    p_run.add_argument("--out", help="path for the JSON report")
    p_run.add_argument("--witnesses", action="store_true",
                       help="include per-cube witness diagnostics")
    p_run.add_argument("--csv", help="directory for per-point LHS/RHS CSV dumps")
    p_run.set_defaults(func=_cmd_run)

    p_list = sub.add_parser("list", help="list inequality ids and their parameters")
    p_list.set_defaults(func=_cmd_list)

    p_oracle = sub.add_parser("oracle", help="run a brute-force oracle suite")
    p_oracle.add_argument("name", help="an oracle suite name, or 'all'")
    p_oracle.add_argument("--seed", type=int, default=0)
    p_oracle.set_defaults(func=_cmd_oracle)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
