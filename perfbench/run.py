"""cayleygr benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload verify-all|integrate|quick-topics \
        --seed N --seconds S --trace 0|1

Workloads (each a closed loop with one client, driven from this process):

verify-all
    One fresh ``cayleygr verify all --format json`` process per pass: the
    headline a user pays cold on every invocation.  About half of it is
    the class solve, a third fixed-point integration through the repeated
    ``degrees()``, and 15 % the ambient Schubert calculus.
integrate
    One warm worker process.  Set-up solves the classes, builds the
    multiplication table and runs one integral; the timed part integrates
    a seeded stream of Schubert monomials (three quarters top degree, the
    rest under degree, which take the vanishing branch).  Isolates
    fixed-point integration from the class solve.
quick-topics
    One fresh process each for eight cheap verify topics, ``hilbert`` and
    ``series`` with ``--kmax 60``.  Dominated by interpreter start-up,
    import, the octonion and weight-model layers and the GKM graph; a
    change that moves work into import time shows here.

The run and every process it starts are pinned to one CPU, and the
reference kernel (``reference.py``) runs alongside the set-up and the
timed part on that CPU.  ``setup_s`` and ``pass_s`` are CPU seconds
rescaled by the reference to the host speed the benchmark was written
at; see the README for why.  With ``--trace 0`` the result carries the end-to-end metrics.
With ``--trace 1`` it carries the per-layer metrics of a traced run of
fixed size, plus the tracing overhead against the same work untraced.
The line before the result is a record with provenance, every raw sample
and the reasons of any failed operation.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import bench
from bench import (QUICK_TOPICS, VERIFY_ALL, Reference, cli_argv, in_reference_seconds, judge_checks,
                   load_golden, load_spec, parse_report, run_child, units_within)
from tracer import layer_metrics, merge

RUN_LIMIT_S = 170      # no pass starts that could not end by then; what is left is killed
CHILD_LIMIT_S = 120    # one CLI process or integrate worker is killed after this
IMPORT_SETUPS = 9      # fresh `import cayleygr.cli` processes timed per CLI run


class Run:
    """Counts and samples of one benchmark run."""

    def __init__(self, args):
        self.args = args
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.samples = {}
        self.metrics = {}
        self.detail = {}

    def fail(self, problem, count=1):
        self.failed += count
        if len(self.problems) < 20:
            self.problems.append(problem)

    def child_deadline(self):
        """Clock reading at which a child started now is killed."""
        return min(time.perf_counter() + CHILD_LIMIT_S, self.deadline)

    def time_for(self, seconds):
        """Whether work expected to take ``seconds`` can still end in time."""
        return time.perf_counter() + 1.5 * seconds < self.deadline

    def window(self, units, begin, end):
        """Reference unit CPU seconds within a window; none is a failure."""
        cpu = units_within(units, begin, end)
        if isinstance(cpu, str):
            self.attempted += 1
            self.fail(cpu)
            return []
        return cpu

    def judge_report(self, result, golden, per_check):
        """Gate one CLI process: per check, or as one operation per process."""
        checks, error = parse_report(result)
        if error:
            count = len(golden) if per_check else 1
            self.attempted += count
            self.fail(error, count)
            return
        attempted, failed, problems = judge_checks(checks, golden)
        if per_check:
            self.attempted += attempted
            self.failed += failed
        else:
            self.attempted += 1
            self.failed += bool(failed)
        for p in problems:
            if len(self.problems) < 20:
                self.problems.append(p)


def end_to_end(run, op_cpu, pass_cpu, pass_units, setup_cpu, setup_units, maxrss_kb):
    """End-to-end metrics from the samples; a failed run may lack some.

    ``op_cpu``, ``pass_cpu`` and ``setup_cpu`` are CPU seconds of each
    request, pass and set-up; ``pass_units`` and ``setup_units`` those of
    the reference units run alongside the passes and the set-ups.
    """
    def at_reference_speed(cpu, units):
        return in_reference_seconds(cpu, units) if cpu and units else 0.0

    pass_mean = statistics.fmean(pass_cpu) if pass_cpu else 0.0
    setup_median = statistics.median(setup_cpu) if setup_cpu else 0.0
    run.samples.update(setup_cpu_s=setup_cpu, pass_cpu_s=pass_cpu, op_cpu_s=op_cpu)
    run.metrics.update({
        "setup_s": at_reference_speed(setup_median, setup_units),
        "pass_s": at_reference_speed(pass_mean, pass_units),
        "peak_rss_mb": maxrss_kb / 1024,
    })
    run.detail.update(pass_cpu_s=pass_mean, setup_cpu_s=setup_median, passes=len(pass_cpu),
                      units=len(pass_units), setup_units=len(setup_units), op_samples=len(op_cpu))
    if pass_units:
        run.detail["unit_cpu_s"] = statistics.fmean(pass_units)
    if setup_units:
        run.detail["setup_unit_cpu_s"] = statistics.fmean(setup_units)
    if not op_cpu:
        return
    # Request CPU time percentiles are printed and recorded.  p90 counts
    # only with at least ten samples beyond it.  The median of integrate's
    # two-branch requests jumps between the branches from run to run.
    ordered = sorted(op_cpu)
    p90 = ordered[-1] if len(ordered) == 1 else statistics.quantiles(ordered, n=10, method="inclusive")[-1]
    beyond = sum(1 for s in ordered if s > p90)
    run.detail.update(op_samples_beyond_p90=beyond, **{"op_cpu_ms.p50": 1000 * statistics.median(ordered)})
    if beyond >= 10:
        run.detail["op_cpu_ms.p90"] = 1000 * p90


def exit_problem(result):
    if result.timed_out:
        return f"killed after {result.seconds:.0f} s"
    return f"exit status {result.status}: {result.stderr.strip()[-300:]}"


def alongside_reference(run, part):
    """Run ``part()`` with the reference kernel alongside; the CPU seconds
    of the reference units run wholly within it."""
    reference = Reference()
    begin = time.perf_counter()
    try:
        part()
    finally:
        units = reference.stop()
    return run.window(units, begin, time.perf_counter())


def import_setup(run):
    """CPU seconds of fresh interpreters importing the CLI, after one
    warm-up, and of the reference units alongside them.

    An import that fails is one failed operation.
    """
    argv = [sys.executable, "-c", "import cayleygr.cli"]
    samples = []

    def part():
        for i in range(IMPORT_SETUPS + 1):
            result = run_child(argv, run.child_deadline())
            if result.status != 0:
                run.attempted += 1
                run.fail(f"import cayleygr.cli: {exit_problem(result)}")
            elif i:
                samples.append(result.cpu_seconds)

    return samples, alongside_reference(run, part)


def trace_summary(run, result):
    """The trace a traced CLI child printed as its last stderr line."""
    lines = result.stderr.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        run.fail(f"no trace summary: {result.stderr.strip()[-300:]}")
        return None


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


def run_verify_all(run):
    golden = load_golden("verify-all")
    if run.args.trace:
        untraced = run_child(cli_argv(VERIFY_ALL), run.child_deadline())
        traced = run_child(cli_argv(VERIFY_ALL, traced=True), run.child_deadline())
        for result in (untraced, traced):
            run.judge_report(result, golden, per_check=True)
        run.samples.update(untraced_s=[untraced.seconds], traced_s=[traced.seconds])
        return trace_summary(run, traced), traced.seconds / untraced.seconds - 1
    setup_cpu, setup_units = import_setup(run)
    pass_cpu, maxrss = [], 0

    def timed_part():
        nonlocal maxrss
        begin, longest = time.perf_counter(), 0.0
        while (not pass_cpu or time.perf_counter() - begin < run.args.seconds) and run.time_for(longest):
            result = run_child(cli_argv(VERIFY_ALL), run.child_deadline())
            longest = max(longest, result.seconds)
            run.judge_report(result, golden, per_check=True)
            if result.status == 0:
                pass_cpu.append(result.cpu_seconds)
                maxrss = max(maxrss, result.maxrss_kb)

    units = alongside_reference(run, timed_part)
    end_to_end(run, pass_cpu, pass_cpu, units, setup_cpu, setup_units, maxrss)
    return None, None


def run_quick_topics(run):
    golden = load_golden("quick-topics")
    if run.args.trace:
        summaries, untraced_s, traced_s = [], [], []
        for topic, args in QUICK_TOPICS.items():
            untraced = run_child(cli_argv(args), run.child_deadline())
            traced = run_child(cli_argv(args, traced=True), run.child_deadline())
            for result in (untraced, traced):
                run.judge_report(result, golden[topic], per_check=False)
            summaries.append(trace_summary(run, traced))
            untraced_s.append(untraced.seconds)
            traced_s.append(traced.seconds)
        run.samples.update(untraced_s=untraced_s, traced_s=traced_s)
        return merge(s for s in summaries if s), sum(traced_s) / sum(untraced_s) - 1
    setup_cpu, setup_units = import_setup(run)
    per_topic = {topic: [] for topic in QUICK_TOPICS}
    op_cpu, round_cpu, maxrss = [], [], 0

    def timed_part():
        nonlocal maxrss
        begin, longest = time.perf_counter(), 0.0
        while (not round_cpu or time.perf_counter() - begin < run.args.seconds) and run.time_for(longest):
            start, this_round = time.perf_counter(), 0.0
            for topic, args in QUICK_TOPICS.items():
                result = run_child(cli_argv(args), run.child_deadline())
                run.judge_report(result, golden[topic], per_check=False)
                this_round += result.cpu_seconds
                if result.status == 0:
                    op_cpu.append(result.cpu_seconds)
                    per_topic[topic].append(result.cpu_seconds)
                    maxrss = max(maxrss, result.maxrss_kb)
            round_cpu.append(this_round)
            longest = max(longest, time.perf_counter() - start)

    units = alongside_reference(run, timed_part)
    end_to_end(run, op_cpu, round_cpu, units, setup_cpu, setup_units, maxrss)
    run.samples["per_topic_cpu_s"] = per_topic
    return None, None


def integrate_process(run, seconds):
    """One integrate worker: (its result line, its peak RSS), or None when
    it crashed or was killed, which counts as one failed operation."""
    argv = [sys.executable, str(bench.BENCH_DIR / "child.py"), "integrate",
            "--seed", str(run.args.seed), "--seconds", str(seconds), "--trace", str(run.args.trace)]
    result = run_child(argv, run.child_deadline())
    try:
        out = json.loads(result.stdout.strip().splitlines()[-1]) if result.status == 0 else None
    except (IndexError, ValueError):
        out = None
    if out is None:
        run.attempted += 1
        run.fail(f"integrate worker: {exit_problem(result)}")
        return None
    run.attempted += out["attempted"]
    run.failed += out["failed"]
    run.problems.extend(out["problems"][:20 - len(run.problems)])
    return out, result.maxrss_kb


def run_integrate(run):
    if run.args.trace:
        worker = integrate_process(run, 0)
        if worker is None:
            return None, 0.0
        out, _ = worker
        run.samples.update(untraced_s=out["untraced_pass_s"], traced_s=out["pass_s"])
        return out["trace"], sum(out["pass_s"]) / sum(out["untraced_pass_s"]) - 1
    worker = integrate_process(run, run.args.seconds)
    if worker is None:
        end_to_end(run, [], [], [], [], [], 0)
        return None, None
    out, maxrss = worker
    setup_units = run.window(out["units"], *out["setup_window"])
    pass_units = run.window(out["units"], *out["pass_window"])
    end_to_end(run, out["op_s"], out["pass_s"], pass_units, [out["setup_cpu_s"]], setup_units, maxrss)
    return None, None


WORKLOADS = {
    "verify-all": run_verify_all,
    "integrate": run_integrate,
    "quick-topics": run_quick_topics,
}


# ---------------------------------------------------------------------------
# provenance and output
# ---------------------------------------------------------------------------


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def source_digest():
    """sha256 over the engine sources, which names the code without git."""
    digest = hashlib.sha256()
    for path in sorted(bench.SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(bench.SRC)).encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    if not (bench.ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=bench.ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def pin_to_one_cpu():
    """Keep this process and every process it starts on one CPU.

    The reference kernel then runs on the CPU the work it scales ran on;
    on a shared host two CPUs can be slowed by different neighbours.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def provenance(args, cpu):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "commit": git_commit(),
        "src_sha256": source_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    missing = bench.missing_sources()
    if missing:
        print(f"perfbench: not a cayleygr checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    spec = load_spec()
    cpu = pin_to_one_cpu()
    run = Run(args)
    trace, overhead = WORKLOADS[args.workload](run)
    if args.trace:
        if trace is None:
            trace = merge([])
        elif not trace["solve_calls_matched"]:
            run.fail("solve_rational calls under solve_all_classes do not match the vertices")
        metrics = layer_metrics(trace, overhead, spec["per_layer"])
        run.detail.update(edges=trace["edges"], roots=trace["roots"])
    else:
        metrics = {m["name"]: {"value": run.metrics.get(m["name"], 0.0), "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    for name, metric in metrics.items():
        print(f"{args.workload:>12}  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    if run.attempted == 0:
        run.attempted = 1
        run.fail("no operation completed")
    failed_frac = run.failed / run.attempted
    print(f"{args.workload:>12}  {'failed_frac':<40} {failed_frac:>14.6g} ({run.failed} of {run.attempted})")
    for name, unit in (("pass_cpu_s", "s"), ("setup_cpu_s", "s"), ("unit_cpu_s", "s"),
                       ("op_cpu_ms.p50", "ms"), ("op_cpu_ms.p90", "ms")):
        if name in run.detail:
            print(f"{args.workload:>12}  {name:<40} {run.detail[name]:>14.6g} {unit}")
    counts = ("passes", "units", "setup_units", "op_samples", "op_samples_beyond_p90")
    print(f"{args.workload:>12}  " + ", ".join(f"{run.detail[c]} {c}" for c in counts if c in run.detail))
    record = {
        "provenance": provenance(args, cpu),
        "failed_frac": failed_frac,
        "problems": run.problems,
        "samples": run.samples,
        **run.detail,
    }
    print(json.dumps({"record": record}))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
