"""Digest of each workload's simulated statistics, written anew.

    python3 perfbench/digest.py

Runs every workload once at full size with seed 1 (untimed) and rewrites
``perfbench/digest.json``: for each workload, the SHA-256 of its
ClusterReport JSON, its operation counts and its registry counts.  It then
prints which workloads drifted from the file's previous content.  The
simulator is deterministic, so a change meant only to make it faster
leaves every digest as it was; drift is reported here, not gated.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE / "digest.json"


def main() -> int:
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import WORKLOADS, run_once

    digest = {"seed": 1, "workloads": {}}
    for name in WORKLOADS:
        out = run_once(name, 1)
        if out.errors:
            print(f"{name}: outputs failed their checks: {out.errors[:3]}")
            return 1
        digest["workloads"][name] = {
            "report_sha256": hashlib.sha256(out.report.encode()).hexdigest(),
            "attempted": out.attempted,
            "failed": out.failed,
            "completed": out.completed,
            "counts": out.counts,
        }
    previous = json.loads(OUT.read_text()) if OUT.exists() else {"workloads": {}}
    OUT.write_text(json.dumps(digest, indent=2, sort_keys=True) + "\n")
    for name, now in digest["workloads"].items():
        before = previous["workloads"].get(name)
        if before is None:
            print(f"{name}: recorded {now['report_sha256'][:16]}")
        elif before == now:
            print(f"{name}: unchanged")
        else:
            moved = sorted(k for k in now["counts"] if now["counts"][k] != before["counts"].get(k))
            print(f"{name}: DRIFT {before['report_sha256'][:16]} -> {now['report_sha256'][:16]}"
                  f"; counts that moved: {', '.join(moved) or 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
