#!/usr/bin/env python3
"""Run the benchmark once per seed and summarise each metric across runs.

    python3 perfbench/repeat.py --workload suite --seeds 0-9 [--trace 0] [--out F]
        [--label L]

Each run is a fresh ``run.py`` process, one after another. For every
metric the summary holds the values, their median, first and third
quartile (``statistics.quantiles(values, n=4)``) and the quartile spread
as a share of the median. With ``--out`` the summary is merged into that
JSON file under ``<workload>/trace<n>``, or ``<workload>/trace<n>-<L>``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

from run import quartiles

HERE = Path(__file__).resolve().parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float]) -> dict:
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("0-9"))
    parser.add_argument("--seconds", type=int,
                        default=json.loads((HERE.parent / "BENCHMARK.json").read_text())
                        ["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=None)
    parser.add_argument("--label", default=None)
    args = parser.parse_args(argv)

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=HERE.parent, capture_output=True, text=True, timeout=600,
        )
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(result)
        shown = " ".join(f"{k}={m['value']:.4g}" for k, m in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} {shown}", flush=True)

    summary = {
        "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                   f"Python {platform.python_version()}",
        "seeds": args.seeds,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"unit": metric["unit"],
                   **summarise([r["metrics"][name]["value"] for r in results])}
            for name, metric in results[0]["metrics"].items()
        },
    }
    for name, s in summary["metrics"].items():
        print(f"{args.workload} {name}: median {s['median']:.6g} {s['unit']} "
              f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.2%} n={s['n']}")
    if args.out is not None:
        merged = json.loads(args.out.read_text()) if args.out.exists() else {}
        key = f"{args.workload}/trace{args.trace}"
        merged[f"{key}-{args.label}" if args.label else key] = summary
        args.out.write_text(json.dumps(merged, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
