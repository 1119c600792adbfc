"""Self-test: two traced runs of one seed repeat every counter exactly.

    python3 perfbench/selftest.py [--workload nchiplet_sweep] [--seed 7]

Runs ``run.py --trace 1`` twice for the workload and seed and compares
the output digest and every ``count`` metric.  Exits 0 when they agree
and 1 (listing the differences) when they do not.  Each run starts cold,
so a counter that differs means hidden state leaks between runs or the
program is nondeterministic.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

def traced_run(workload: str, seed: int):
    """``(digest line, {metric: value})`` of one traced run."""
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
        timeout=600).stdout.splitlines()
    result = json.loads(out[-1])
    declared = {m["name"]: m["unit"] for m in json.loads(
        (HERE.parent / "BENCHMARK.json").read_text())["per_layer"]}
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    if printed != declared:
        diff = sorted(set(printed.items()) ^ set(declared.items()))
        raise SystemExit(f"per-layer metrics differ from BENCHMARK.json: "
                         f"{diff}")
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: output checks failed:\n"
                         + "\n".join(out[:-1]))
    digest = next(line for line in out if line.startswith("digest "))
    counts = {k: v["value"] for k, v in result["metrics"].items()
              if v["unit"] == "count"}
    return digest, counts


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="nchiplet_sweep",
                        choices=("nchiplet_sweep", "paper_six"))
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args(argv)
    first = traced_run(args.workload, args.seed)
    second = traced_run(args.workload, args.seed)
    diffs = [f"{k}: {first[1][k]} != {second[1][k]}" for k in first[1]
             if first[1][k] != second[1][k]]
    if first[0] != second[0]:
        diffs.append(f"{first[0]} != {second[0]}")
    for line in diffs:
        print(f"differs: {line}")
    print(f"selftest {args.workload} seed={args.seed}: "
          f"{'ok' if not diffs else 'FAILED'} "
          f"({len(first[1])} counters, {first[0].split()[-1]})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
