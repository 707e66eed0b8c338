"""Shared pieces of the benchmark: paths, child processes, inputs and gates.

The gates decide whether one operation's output is correct:

* a CLI report is compared with the golden report captured at the seed
  commit, check by check, on ``id``, ``status``, ``computed`` and
  ``expected`` (never on bytes, ``version`` or ``chamber``);
* an integral is compared with the independent multiplication-table route
  (``schubert_product`` then ``integrate_vector``), and an under-degree
  integral must be 0.
"""

from __future__ import annotations

import json
import os
import random
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_DIR = BENCH_DIR / "golden"
SPEC = ROOT / "BENCHMARK.json"  # the metric names and units the runs report

# CPU seconds of one reference unit, run alongside the work on the 2-vCPU
# host the benchmark was written on (median over the runs made there).
UNIT_S = 0.033

OK_STATUSES = ("pass", "paper-discrepancy")

VERIFY_ALL = ("verify", "all", "--format", "json")

# K for the hilbert and series topics: large enough that the dimension
# formulas do measurable work, small enough to stay quick.
QUICK_KMAX = "60"
QUICK_TOPICS = {
    "octonion": ("verify", "octonion", "--format", "json"),
    "orbits": ("verify", "orbits", "--format", "json"),
    "fixed-points": ("verify", "fixed-points", "--format", "json"),
    "tangents": ("verify", "tangents", "--format", "json"),
    "betti": ("verify", "betti", "--format", "json"),
    "gkm": ("verify", "gkm", "--format", "json"),
    "hilbert": ("verify", "hilbert", "--kmax", QUICK_KMAX, "--format", "json"),
    "series": ("verify", "series", "--kmax", QUICK_KMAX, "--format", "json"),
}

# Schubert labels by codimension; the leading digit is the codimension.
LABELS = ("1", "2", "2'", "3", "3'", "4", "4'", "4''", "5", "5'", "6", "6'", "7", "8")
TOP_CODIM = 8


def missing_sources():
    """Names of the inputs the benchmark cannot run without."""
    needed = [SPEC, SRC / "cayleygr" / "cli.py", GOLDEN_DIR / "verify-all.json",
              GOLDEN_DIR / "quick-topics.json"]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def load_spec():
    with open(SPEC, encoding="utf-8") as fh:
        return json.load(fh)


def child_env():
    """Environment of every engine process: the checkout's sources only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"  # set iteration order, so counts repeat exactly
    env["PYTHONDONTWRITEBYTECODE"] = "1"  # every run compiles alike and writes nothing
    env.pop("CAYLEY_FIXTURES", None)
    return env


def cli_argv(args, traced=False):
    if traced:
        return [sys.executable, str(BENCH_DIR / "child.py"), "cli", "--", *args]
    return [sys.executable, "-m", "cayleygr.cli", *args]


@dataclass(frozen=True)
class ChildResult:
    seconds: float     # from before the spawn until the child was reaped
    status: int
    stdout: str
    stderr: str
    maxrss_kb: int     # the child's own peak resident set
    timed_out: bool
    cpu_seconds: float  # the child's own user and system CPU time


def spawn(argv, stdin=subprocess.DEVNULL):
    return subprocess.Popen(argv, env=child_env(), cwd=ROOT, stdin=stdin,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def finish(proc, start, deadline):
    """Drain both pipes, reap the child with its own rusage and time it.

    ``start`` is the clock reading taken before the child was spawned.  The
    child is killed once ``deadline`` (a clock reading) passes.
    """
    chunks = {proc.stdout: [], proc.stderr: []}
    timed_out = False
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        while sel.get_map():
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                timed_out = True
                proc.send_signal(signal.SIGKILL)
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 65536)
                if not data:
                    sel.unregister(key.fileobj)
                    continue
                chunks[key.fileobj].append(data)
    _, wait_status, usage = os.wait4(proc.pid, 0)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(wait_status)
    proc.stdout.close()
    proc.stderr.close()
    return ChildResult(seconds, proc.returncode, b"".join(chunks[proc.stdout]).decode(),
                       b"".join(chunks[proc.stderr]).decode(), usage.ru_maxrss, timed_out,
                       usage.ru_utime + usage.ru_stime)


def run_child(argv, deadline):
    start = time.perf_counter()
    return finish(spawn(argv), start, deadline)


class Reference:
    """The reference kernel (``reference.py``) running alongside the work.

    Start it before the work and call ``stop`` after it, also when the
    work fails.  The work must run on the same CPU, which ``run.py``
    ensures by pinning itself and its children.
    """

    def __init__(self):
        self.proc = spawn([sys.executable, str(BENCH_DIR / "reference.py")], stdin=subprocess.PIPE)
        self.units = None

    def stop(self):
        """``[start, end, cpu]`` of every unit run, or a string saying why
        there are none.  Later calls return the same."""
        if self.units is None:
            self.units = self._stop()
        return self.units

    def _stop(self):
        try:
            out, err = self.proc.communicate(timeout=30)  # closes its stdin first
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.communicate()
            return "reference kernel did not stop"
        if self.proc.returncode != 0:
            return f"reference kernel: exit status {self.proc.returncode}: {err.decode().strip()[-300:]}"
        return json.loads(out)


def units_within(units, begin, end):
    """CPU seconds of the reference units run wholly between the clock
    readings ``begin`` and ``end``, or a string saying why there are none."""
    if isinstance(units, str):
        return units
    cpu = [c for start, stop, c in units if begin <= start and stop <= end]
    return cpu or "reference kernel ran no whole unit alongside the work"


def in_reference_seconds(cpu_seconds, unit_cpu):
    """CPU seconds of work, rescaled to the speed the reference kernel had
    where the benchmark was written: seconds at a fixed host speed."""
    return cpu_seconds / statistics.fmean(unit_cpu) * UNIT_S


# ---------------------------------------------------------------------------
# golden reports
# ---------------------------------------------------------------------------


def reduce_report(doc):
    """{id: {status, computed, expected}} of a JSON report."""
    return {
        r["id"]: {"status": r["status"], "computed": r["computed"], "expected": r["expected"]}
        for r in doc["results"]
    }


def load_golden(name):
    with open(GOLDEN_DIR / f"{name}.json", encoding="utf-8") as fh:
        return json.load(fh)


def judge_checks(checks, golden):
    """(attempted, failed, problems) for one report against its golden checks.

    Every check is one operation.  A check fails when its status is not an
    accepted one or when it differs from the golden entry; a golden check
    that is missing from the report counts as one failed operation.
    """
    attempted = failed = 0
    problems = []
    for cid, got in checks.items():
        attempted += 1
        want = golden.get(cid)
        if got["status"] not in OK_STATUSES:
            problems.append(f"{cid}: status {got['status']}")
        elif want is not None and got != want:
            problems.append(f"{cid}: differs from golden")
        else:
            continue
        failed += 1
    for cid in golden.keys() - checks.keys():
        attempted += 1
        failed += 1
        problems.append(f"{cid}: missing")
    return attempted, failed, problems


def parse_report(result):
    """Reduced checks of a CLI child's JSON report, or None with a reason."""
    if result.timed_out:
        return None, f"killed at its time limit after {result.seconds:.0f} s"
    if result.status != 0:
        return None, f"exit status {result.status}: {result.stderr.strip()[-300:]}"
    try:
        return reduce_report(json.loads(result.stdout)), None
    except (ValueError, KeyError, TypeError) as exc:
        return None, f"unreadable report: {exc}"


# ---------------------------------------------------------------------------
# integration inputs and gate
# ---------------------------------------------------------------------------

# One pass of the integrate workload.  Three quarters are top degree; a
# top-degree integral that is 0 (about one in eight of those drawn) takes
# the early zero-numerator branch, so each pass has a fixed number of each
# kind and the pass time does not depend on how many the seed happened to
# draw.  The under-degree ones take the vanishing branch.
TOP_NONZERO_PER_PASS = 11
TOP_ZERO_PER_PASS = 1
UNDER_PER_PASS = 4


def draw_monomial(rng, codim):
    """Labels of a Schubert monomial of the given total codimension."""
    parts = []
    left = codim
    while left:
        k = rng.randint(1, left)
        parts.append(rng.choice([lab for lab in LABELS if int(lab[0]) == k]))
        left -= k
    return tuple(parts)


def pass_monomials(seed, index, table_integral):
    """[(monomial, expected integral)] of one pass, shuffled.

    ``table_integral`` gives a monomial's integral by the multiplication-
    table route; it sorts the top-degree draws into zero and nonzero.
    """
    rng = random.Random(seed * 1_000_003 + index)
    wanted = {True: TOP_NONZERO_PER_PASS, False: TOP_ZERO_PER_PASS}
    ops = []
    for _ in range(100_000):
        if not any(wanted.values()):
            break
        mono = draw_monomial(rng, TOP_CODIM)
        expected = table_integral(mono)
        if wanted[expected != 0]:
            wanted[expected != 0] -= 1
            ops.append((mono, expected))
    else:
        raise RuntimeError("could not draw the top-degree monomials of a pass")
    for _ in range(UNDER_PER_PASS):
        mono = draw_monomial(rng, rng.randint(1, TOP_CODIM - 1))
        ops.append((mono, table_integral(mono)))
    rng.shuffle(ops)
    return ops


def judge_integral(monomial, got, expected):
    """None when the integral is right, else the reason it is not.

    ``got`` is the fixed-point integral or the exception it raised;
    ``expected`` is the value of the multiplication-table route.
    """
    if isinstance(got, BaseException):
        return f"{monomial}: raised {type(got).__name__}: {got}"
    if got != expected:
        return f"{monomial}: integral {got}, table route {expected}"
    if sum(int(lab[0]) for lab in monomial) < TOP_CODIM and got != 0:
        return f"{monomial}: under-degree integral {got} is not 0"
    return None
