"""Capture the golden reports the correctness gates compare against.

    python3 perfbench/capture_golden.py

Runs ``cayleygr verify all`` and every quick topic once and stores, per
check, its ``id``, ``status``, ``computed`` and ``expected`` under
``perfbench/golden/``.  The committed files were captured at the seed
commit; re-capture only when a change of a reported value is intended.
"""

from __future__ import annotations

import json
import sys
import time

from bench import GOLDEN_DIR, QUICK_TOPICS, VERIFY_ALL, cli_argv, parse_report, run_child


def capture(args):
    checks, error = parse_report(run_child(cli_argv(args), time.perf_counter() + 600))
    if error:
        raise SystemExit(f"cayleygr {' '.join(args)}: {error}")
    return checks


def main():
    GOLDEN_DIR.mkdir(exist_ok=True)
    docs = {
        "verify-all": capture(VERIFY_ALL),
        "quick-topics": {topic: capture(args) for topic, args in QUICK_TOPICS.items()},
    }
    for name, doc in docs.items():
        with open(GOLDEN_DIR / f"{name}.json", "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
