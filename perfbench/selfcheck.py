"""Self-check of the correctness gates; takes a few seconds.

    python3 perfbench/selfcheck.py

Shows that the gates the workloads use count a wrong answer as a failed
operation: a tampered golden value, a changed status, a missing check, a
non-zero exit, a perturbed expected integral, a non-vanishing under-degree
integral and an integral that raises.  The integrals go through the
integrate worker's own pass and counting.  Exits 0 when every case is
caught.
"""

from __future__ import annotations

import argparse
import copy
import dataclasses
import sys
import time

from bench import QUICK_TOPICS, SRC, cli_argv, judge_integral, load_golden, run_child
from child import Tally, run_pass
from run import Run

TOPIC = "octonion"


def gate(result, golden):
    """(attempted, failed) of one report, counted per check as verify-all does."""
    run = Run(argparse.Namespace(trace=0))
    run.judge_report(result, golden, per_check=True)
    return run.attempted, run.failed


def integrate_pass(classes, ops):
    """(attempted, failed) of one pass of the integrate worker."""
    tally = Tally()
    run_pass(tally, classes, ops)
    return tally.attempted, tally.failed


def main():
    result = run_child(cli_argv(QUICK_TOPICS[TOPIC]), time.perf_counter() + 60)
    golden = load_golden("quick-topics")[TOPIC]
    first = sorted(golden)[0]
    n = len(golden)

    tampered = copy.deepcopy(golden)
    tampered[first]["expected"] = ["tampered", tampered[first]["expected"]]
    bad_status = copy.deepcopy(golden)
    bad_status[first]["status"] = "fail"
    extra = dict(copy.deepcopy(golden), **{"octonion.not-reported": golden[first]})
    crashed = dataclasses.replace(result, status=1, stderr="boom")

    cases = [
        ("report matches its golden", gate(result, golden), (n, 0)),
        ("tampered golden value", gate(result, tampered), (n, 1)),
        ("status differs from golden", gate(result, bad_status), (n, 1)),
        ("golden check missing from the report", gate(result, extra), (n + 1, 1)),
        ("process exits non-zero", gate(crashed, golden), (n, n)),
    ]
    # One pass of the integrate worker over the hyperplane class sigma_1,
    # which needs no class solve.  The degree of the variety is 182.
    sys.path.insert(0, str(SRC))
    from cayleygr import equivariant as eq

    classes = {"1": eq.hyperplane_class()}
    top, under = ("1",) * 8, ("1",) * 3
    cases += [
        ("integrals match the table route", integrate_pass(classes, [(top, 182), (under, 0)]), (2, 0)),
        ("perturbed expected integral", integrate_pass(classes, [(top, 182), (top, 183), (under, 0)]), (3, 1)),
    ]
    # Wrong values the engine does not produce at the seed: judged directly.
    integral_cases = [
        ("under-degree integral not 0", judge_integral(under, 5, 5), True),
        ("integral raises", judge_integral(top, ArithmeticError("no"), 182), True),
    ]

    ok = True
    for name, got, want in cases:
        good = got == want
        ok &= good
        print(f"{'ok ' if good else 'BAD'}  {name}: attempted/failed {got}, want {want}")
    for name, problem, want_failed in integral_cases:
        good = (problem is not None) == want_failed
        ok &= good
        print(f"{'ok ' if good else 'BAD'}  {name}: {problem or 'accepted'}")
    print("self-check passed" if ok else "self-check FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
