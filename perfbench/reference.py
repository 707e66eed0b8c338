"""The reference kernel: units of exact arithmetic that never change.

    python3 perfbench/reference.py < /dev/null

On a shared host the speed of pure-Python work drifts with what the
neighbours do, in phases from a second to minutes long, by a quarter and
more.  So every run keeps this kernel running alongside its timed part,
on the same CPU as the work: the two share that CPU slice by slice, and
any slow phase slows both alike.  The timing metric is the work's CPU
time over the CPU time of one reference unit taken in the same interval;
it moves only when the engine does.

A unit is exact arithmetic of the engine's kind (bivariate forms with
Fraction coefficients, multiplied, divided by linear forms, and a
Gauss-Jordan solve), a few tens of milliseconds, written against the
standard library only.  The script runs units until its standard input
is closed, then prints one JSON list of ``[start, end, cpu]`` per unit:
``start`` and ``end`` are ``time.perf_counter()`` readings, comparable
with those of other processes on the host, and ``cpu`` is the unit's
CPU seconds.  It keeps the list in memory until then, so it never
blocks on a full pipe.
"""

from __future__ import annotations

import json
import random
import select
import sys
import time
from fractions import Fraction


def form_mul(a, b):
    out = {}
    for (p1, q1), c1 in a.items():
        for (p2, q2), c2 in b.items():
            k = (p1 + p2, q1 + q2)
            out[k] = out.get(k, Fraction(0)) + c1 * c2
    return out


def divide_linear(f, a, b, degree):
    """Quotient of the binary form f by a*x + b*y, by synthetic division."""
    rem = [f.get((degree - i, i), Fraction(0)) for i in range(degree + 1)]
    quotient = {}
    for i in range(degree):
        c = rem[i] / a
        quotient[(degree - 1 - i, i)] = c
        rem[i + 1] -= c * b
    return quotient


def forms(r):
    f, degree = {(0, 0): Fraction(1)}, 0
    for k in range(1, 15):
        f = form_mul(f, {(1, 0): Fraction(k + r), (0, 1): Fraction(2 * k - 7, k + 1)})
        degree += 1
    for k in range(1, 8):
        f = divide_linear(f, Fraction(k + r), Fraction(2 * k - 7, k + 1), degree)
        degree -= 1
    return sum(f.values())


def solve(n, seed):
    """Solution of a fixed random n x n rational system, Gauss-Jordan."""
    rng = random.Random(seed)
    rows = [[Fraction(rng.randint(-9, 9)) for _ in range(n + 1)] for _ in range(n)]
    for c in range(n):
        pivot = next(r for r in range(c, n) if rows[r][c])
        rows[c], rows[pivot] = rows[pivot], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [x * inv for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                f = rows[r][c]
                rows[r] = [a - f * b for a, b in zip(rows[r], rows[c])]
    return [row[-1] for row in rows]


def unit(r):
    """One unit of reference work."""
    total = sum(forms(r + k) for k in range(10))
    return total + sum(solve(16, r))


def main():
    units = []
    k = 0
    while not select.select([sys.stdin], [], [], 0)[0]:
        start, cpu = time.perf_counter(), time.process_time()
        unit(k % 64)
        units.append([start, time.perf_counter(), time.process_time() - cpu])
        k += 1
    json.dump(units, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
