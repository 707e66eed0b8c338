"""Engine-side processes of the benchmark.

``child.py cli -- <cayleygr arguments>``
    Runs the CLI under the tracer.  The report goes to stdout unchanged;
    the trace summary is the last line of stderr.

``child.py integrate --seed N --seconds S --trace 0|1``
    The warm integration worker.  It sets up (class solve, multiplication
    table, one untimed integral), then integrates the seed's stream of
    Schubert monomials for S seconds and prints one JSON result line.  The
    reference kernel runs alongside the set-up and the timed part.  Each
    integral is checked against the multiplication-table route.  With
    ``--trace 1`` it traces the set-up and two passes, then repeats the
    same two passes untraced to measure the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from bench import Reference, judge_integral, pass_monomials
from tracer import Tracer

TRACED_PASSES = 2


def traced_cli(cli_args):
    from cayleygr import cli

    tracer = Tracer()
    tracer.install()
    try:
        code = cli.main(cli_args)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        print(json.dumps(tracer.summary()), file=sys.stderr)
    return code


class Tally:
    """Operations attempted and failed, with the reasons of the failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []


def run_pass(tally, classes, ops):
    """Integrate one pass of ``[(monomial, expected)]``; CPU seconds of each.

    Each operation is one ``pointwise_product`` then one ``ab_integrate``
    of the classes the monomial names.  The results are judged after the
    timed loop and counted in ``tally``.
    """
    from cayleygr import equivariant as eq

    results, cpu = [], []
    clock = time.process_time
    for mono, _ in ops:
        t0 = clock()
        try:
            got = eq.ab_integrate(eq.pointwise_product(*[classes[lab] for lab in mono]))
        except Exception as exc:  # a failed operation, judged below
            got = exc
        cpu.append(clock() - t0)
        results.append(got)
    for (mono, expected), got in zip(ops, results):
        tally.attempted += 1
        problem = judge_integral(mono, got, expected)
        if problem:
            tally.failed += 1
            tally.problems.append(problem)
    return cpu


def integrate_worker(seed, seconds, trace):
    reference = None if trace else Reference()
    try:
        print(json.dumps(integrate(seed, seconds, trace, reference)), flush=True)
    finally:
        if reference is not None:
            reference.stop()


def integrate(seed, seconds, trace, reference):
    """The worker's set-up and passes; its JSON-ready result."""
    started = time.perf_counter()
    from cayleygr import equivariant as eq

    tracer = Tracer() if trace else None
    if tracer:
        tracer.install()
    classes = eq.solve_all_classes()
    eq.multiplication_table()
    h = eq.hyperplane_class()
    warm = eq.ab_integrate(eq.pointwise_product(classes["0"], *[h] * 8))
    if warm != 182:
        raise ArithmeticError(f"warm-up integral of H^8 is {warm}, expected 182")
    setup_cpu, ready = time.process_time(), time.perf_counter()

    expected_of = {}

    def table_integral(mono):
        """The integral by the multiplication-table route, memoized."""
        if mono not in expected_of:
            vec = eq.basis_vector("0")
            for lab in mono:
                vec = eq.schubert_product(vec, eq.basis_vector(lab))
            expected_of[mono] = eq.integrate_vector(vec)
        return expected_of[mono]

    tally = Tally()
    passes, op_s = [], []
    if trace:
        # Draw the inputs untraced, so the trace holds only the engine's work.
        tracer.uninstall()
        plans = [pass_monomials(seed, i, table_integral) for i in range(TRACED_PASSES)]
        tracer.install()
        passes = [sum(run_pass(tally, classes, ops)) for ops in plans]
        tracer.uninstall()
        untraced = [sum(run_pass(tally, classes, ops)) for ops in plans]
    else:
        begin = time.perf_counter()
        index = 0
        while not passes or time.perf_counter() - begin < seconds:
            cpu = run_pass(tally, classes, pass_monomials(seed, index, table_integral))
            passes.append(sum(cpu))
            op_s.extend(cpu)
            index += 1
        end = time.perf_counter()

    result = {
        "attempted": tally.attempted, "failed": tally.failed, "problems": tally.problems[:20],
        "pass_s": passes, "op_s": op_s,
    }
    if trace:
        result["untraced_pass_s"] = untraced
        result["trace"] = tracer.summary()
    else:
        # The reference's units, and the clock readings that bound the
        # set-up and the passes, for the caller to match.
        result.update(setup_cpu_s=setup_cpu, units=reference.stop(), setup_window=[started, ready],
                      pass_window=[begin, end])
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    cli_p = sub.add_parser("cli")
    cli_p.add_argument("cli_args", nargs=argparse.REMAINDER)
    integ = sub.add_parser("integrate")
    integ.add_argument("--seed", type=int, required=True)
    integ.add_argument("--seconds", type=float, required=True)
    integ.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.mode == "cli":
        cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
        return traced_cli(cli_args)
    integrate_worker(args.seed, args.seconds, args.trace)
    return 0


if __name__ == "__main__":
    sys.exit(main())
