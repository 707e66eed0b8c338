"""Show that the per-layer counts repeat exactly.

    python3 perfbench/check_counts.py [--workloads verify-all quick-topics]

Makes two traced runs of each workload and compares every ``*.calls`` and
``*.cells`` metric.  verify-all and quick-topics take fixed inputs, so the
two runs use different seeds; integrate draws its inputs from the seed, so
its two runs share one.  Takes about three minutes for all three.  Exits 0
when every count repeats.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys

from bench import BENCH_DIR, ROOT

SEEDS = {"verify-all": (1, 2), "quick-topics": (1, 2), "integrate": (1, 1)}


def traced_counts(workload, seed):
    out = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=300)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: traced run was not correct")
    return {name: m["value"] for name, m in result["metrics"].items()
            if name.endswith((".calls", ".cells"))}


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workloads", nargs="+", choices=sorted(SEEDS), default=sorted(SEEDS))
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        a, b = (traced_counts(workload, seed) for seed in SEEDS[workload])
        differ = {name: (a[name], b[name]) for name in a if a[name] != b[name]}
        ok &= not differ
        seeds = " and ".join(f"seed {s}" for s in SEEDS[workload])
        print(f"{workload} ({seeds}): {len(a)} counts, {len(differ)} differ")
        for name in sorted(a):
            mark = "DIFFERS" if name in differ else ""
            print(f"  {name:<40} {a[name]:>10} {b[name]:>10} {mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
