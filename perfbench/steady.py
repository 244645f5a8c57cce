"""Steadiness of the end-to-end metrics over runs with different seeds.

    python3 perfbench/steady.py --workload rainfs-mix --runs 10

Runs ``run.py`` once per seed (1, 2, ..., ``--runs``) for the
``run_seconds`` of ``BENCHMARK.json``, each in a fresh process, one after
another, and prints for every
end-to-end metric the median, the first and third quartiles as
``statistics.quantiles(values, n=4)`` gives them, and the spread
``(q3 - q1) / median``, plus the share of failed operations of each run.
The bounds in ``BENCHMARK.json`` were set from this output: each spread
should stay below a third of its metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    args = p.parse_args(argv)
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    values: dict[str, list[float]] = {name: [] for name in bounds}
    shares = []
    for seed in range(1, args.runs + 1):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            sys.stderr.write(proc.stderr)
            print(f"seed {seed}: outputs failed their checks")
            return 1
        shares.append(result["failed"] / result["attempted"])
        line = []
        for name in values:
            v = result["metrics"][name]["value"]
            values[name].append(v)
            line.append(f"{name}={v:.6g}")
        print(f"seed {seed}: " + " ".join(line), flush=True)
    print(f"{args.workload}: {args.runs} runs of {seconds} s")
    for name, xs in values.items():
        q1, med, q3 = statistics.quantiles(xs, n=4)
        spread = (q3 - q1) / med
        print(
            f"  {name:12s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
            f"spread {spread:.4f}  (bound {bounds[name]}, a third of it {bounds[name] / 3:.4f})"
        )
    print(f"  failed share per run: {sorted(set(shares))}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
