"""Exact scalars, binary forms and integer/rational linear algebra.

Everything in this package reduces to arithmetic over three exact domains:
the rationals (``fractions.Fraction``), the Gaussian rationals, and
homogeneous polynomials in the two torus characters with rational
coefficients.  All values are immutable; every function is pure.
"""

from __future__ import annotations

from fractions import Fraction

Rational = Fraction


def _as_fraction(x):
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


class GaussianRational:
    """re + im*i with rational re, im and i^2 = -1."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", _as_fraction(re))
        object.__setattr__(self, "im", _as_fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def _coerce(cls, x):
        if isinstance(x, GaussianRational):
            return x
        if isinstance(x, (int, Fraction)):
            return cls(x)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n = other.re * other.re + other.im * other.im
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im))

    def __bool__(self):
        return bool(self.re) or bool(self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_gaussian(self)


GI_ZERO = GaussianRational(0)
GI_ONE = GaussianRational(1)
GI_I = GaussianRational(0, 1)


def format_gaussian(z: GaussianRational) -> str:
    """Render as "a/b+c/d i" (the wire format used by subspace fixtures)."""
    if not z.im:
        return str(z.re)
    if not z.re:
        return f"{z.im} i"
    sign = "+" if z.im >= 0 else "-"
    return f"{z.re}{sign}{abs(z.im)} i"


def parse_gaussian(s: str) -> GaussianRational:
    s = s.strip()
    if not s.endswith("i"):
        return GaussianRational(Fraction(s))
    body = s[:-1].strip()
    # split the imaginary part off at the last top-level +/- sign
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "+-/":
            re = Fraction(body[:k])
            im = Fraction(body[k:].replace("+", "", 1)) if body[k] == "+" else Fraction(body[k:])
            return GaussianRational(re, im)
    return GaussianRational(0, Fraction(body))


# ---------------------------------------------------------------------------
# homogeneous polynomials in the two characters (binary forms)
# ---------------------------------------------------------------------------


class HomogPoly:
    """Homogeneous polynomial in the characters a, b with rational coefficients.

    The third character g is never stored: it is eliminated through
    g = -a - b on input, which makes equality and divisibility canonical.
    Keys of ``coeffs`` are exponent pairs (p, q) with p + q == degree;
    zero coefficients are dropped.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs=None):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        clean = {}
        for (p, q), c in (coeffs or {}).items():
            c = _as_fraction(c)
            if p < 0 or q < 0 or p + q != degree:
                raise ValueError(f"monomial ({p},{q}) is not of degree {degree}")
            if c:
                clean[(p, q)] = c
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("HomogPoly is immutable")

    @classmethod
    def zero(cls, degree=0):
        return cls(degree, {})

    @classmethod
    def constant(cls, c):
        return cls(0, {(0, 0): _as_fraction(c)})

    @classmethod
    def linear(cls, a, b):
        """The linear form a*alpha + b*beta."""
        return cls(1, {(1, 0): _as_fraction(a), (0, 1): _as_fraction(b)})

    def is_zero(self):
        return not self.coeffs

    def __eq__(self, other):
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if self.is_zero() and other.is_zero():
            return True
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.degree if self.coeffs else -1, frozenset(self.coeffs.items())))

    def __add__(self, other):
        if not isinstance(other, HomogPoly):
            return NotImplemented
        if self.is_zero():
            return other
        if other.is_zero():
            return self
        if self.degree != other.degree:
            raise ValueError("cannot add forms of different degrees")
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, Fraction(0)) + c
        return HomogPoly(self.degree, out)

    def __neg__(self):
        return HomogPoly(self.degree, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = _as_fraction(c)
        if not c:
            return HomogPoly.zero(self.degree)
        return HomogPoly(self.degree, {k: c * v for k, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if not isinstance(other, HomogPoly):
            return NotImplemented
        return poly_mul(self, other)

    __rmul__ = __mul__

    def evaluate(self, a, b):
        a, b = _as_fraction(a), _as_fraction(b)
        total = Fraction(0)
        for (p, q), c in self.coeffs.items():
            total += c * a**p * b**q
        return total

    def to_json(self):
        terms = [[p, q, f"{c.numerator}/{c.denominator}"] for (p, q), c in sorted(self.coeffs.items())]
        return {"degree": self.degree, "terms": terms}

    @classmethod
    def from_json(cls, data):
        coeffs = {(p, q): Fraction(c) for p, q, c in data["terms"]}
        return cls(data["degree"], coeffs)

    def __repr__(self):
        if self.is_zero():
            return "0"
        bits = []
        for (p, q), c in sorted(self.coeffs.items(), reverse=True):
            parts = []
            if p:
                parts.append("a" if p == 1 else f"a^{p}")
            if q:
                parts.append("b" if q == 1 else f"b^{q}")
            mono = "*".join(parts) if parts else "1"
            bits.append(f"{c}*{mono}" if mono != "1" else f"{c}")
        return " + ".join(bits)


def poly_mul(a: HomogPoly, b: HomogPoly) -> HomogPoly:
    """Exact product; degree(result) = degree(a) + degree(b)."""
    if a.is_zero() or b.is_zero():
        return HomogPoly.zero(a.degree + b.degree)
    out = {}
    for (p1, q1), c1 in a.coeffs.items():
        for (p2, q2), c2 in b.coeffs.items():
            k = (p1 + p2, q1 + q2)
            out[k] = out.get(k, Fraction(0)) + c1 * c2
    return HomogPoly(a.degree + b.degree, out)


def divide_by_linear(f: HomogPoly, a, b):
    """Exact division of f by the linear form a*alpha + b*beta.

    Returns the quotient, or None when the form does not divide f.
    Divisibility is decided by restricting f to the zero line of the
    form (a binary form vanishes on that line iff the form divides it),
    after which synthetic division is exact.
    """
    a, b = _as_fraction(a), _as_fraction(b)
    if not a and not b:
        raise ZeroDivisionError("division by the zero linear form")
    if f.is_zero():
        return HomogPoly.zero(max(f.degree - 1, 0))
    if f.degree == 0:
        return None
    # the zero line of a*x + b*y is spanned by (-b, a)
    if f.evaluate(-b, a) != 0:
        return None
    d = f.degree
    # synthetic division, treating f as a polynomial in alpha when a != 0
    out = {}
    rem = dict(f.coeffs)
    if a:
        for p in range(d, 0, -1):
            c = rem.pop((p, d - p), Fraction(0))
            if not c:
                continue
            t = c / a
            out[(p - 1, d - p)] = t
            key = (p - 1, d - p + 1)
            rem[key] = rem.get(key, Fraction(0)) - b * t
    else:
        for q in range(d, 0, -1):
            c = rem.pop((d - q, q), Fraction(0))
            if not c:
                continue
            out[(d - q, q - 1)] = c / b
    assert all(v == 0 for v in rem.values()), "restriction vanished but division left a remainder"
    return HomogPoly(d - 1, out)


# ---------------------------------------------------------------------------
# linear algebra over an exact field (Fraction or GaussianRational)
# ---------------------------------------------------------------------------


def _row_reduce(rows, ncols):
    """In-place fraction-free-less Gaussian elimination; returns pivot columns."""
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def matrix_rank(rows):
    if not rows:
        return 0
    work = [list(r) for r in rows]
    return len(_row_reduce(work, len(work[0])))


def nullspace(rows, ncols):
    """Basis of the right kernel of the matrix given by ``rows``."""
    work = [list(r) for r in rows]
    pivots = _row_reduce(work, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for fc in free:
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -work[r][fc]
        basis.append(vec)
    return basis


class LinearSolution:
    """Outcome of an exact linear solve: unique, a family, or inconsistent."""

    __slots__ = ("status", "particular", "kernel")

    def __init__(self, status, particular=None, kernel=None):
        self.status = status  # "unique" | "family" | "inconsistent"
        self.particular = particular
        self.kernel = kernel or []

    def __repr__(self):
        return f"LinearSolution({self.status!r})"


def solve_rational(rows, rhs):
    """Solve A x = b exactly; entries may be Fractions or GaussianRationals."""
    m = len(rows)
    if m != len(rhs):
        raise ValueError("matrix/vector size mismatch")
    n = len(rows[0]) if m else 0
    work = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots = _row_reduce(work, n)
    for row in work[len(pivots):]:
        if row[n] != 0:
            return LinearSolution("inconsistent")
    particular = [0] * n
    for r, pc in enumerate(pivots):
        particular[pc] = work[r][n]
    kernel = nullspace(rows, n) if len(pivots) < n else []
    if kernel:
        return LinearSolution("family", particular, kernel)
    return LinearSolution("unique", particular)


# ---------------------------------------------------------------------------
# integer matrices and the Smith normal form
# ---------------------------------------------------------------------------


class IntMatrix:
    """Dense integer matrix with arbitrary-precision entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        entries = [list(map(int, row)) for row in entries]
        if entries and any(len(r) != len(entries[0]) for r in entries):
            raise ValueError("ragged matrix")
        self.rows = len(entries)
        self.cols = len(entries[0]) if entries else 0
        self.entries = entries

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other):
        return isinstance(other, IntMatrix) and self.entries == other.entries

    def __repr__(self):
        return f"IntMatrix({self.entries!r})"

    @classmethod
    def identity(cls, n):
        return cls([[1 if i == j else 0 for j in range(n)] for i in range(n)])

    def mul(self, other):
        assert self.cols == other.rows
        out = [
            [sum(self.entries[i][k] * other.entries[k][j] for k in range(self.cols)) for j in range(other.cols)]
            for i in range(self.rows)
        ]
        return IntMatrix(out)

    def det(self):
        """Exact determinant by fraction-free (Bareiss) elimination."""
        assert self.rows == self.cols
        n = self.rows
        a = [row[:] for row in self.entries]
        sign = 1
        prev = 1
        for k in range(n - 1):
            if a[k][k] == 0:
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        a[k], a[i] = a[i], a[k]
                        sign = -sign
                        break
                else:
                    return 0
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            prev = a[k][k]
        return sign * a[n - 1][n - 1] if n else 1


def smith_normal_form(M: IntMatrix):
    """U * M * V = D with U, V unimodular and D diagonal, d_i | d_{i+1}.

    Returns (diag, U, V) where diag lists the nonnegative diagonal entries
    of D (including zeros up to min(rows, cols)).
    """
    A = [row[:] for row in M.entries]
    m, n = M.rows, M.cols
    U = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    V = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def swap_rows(i, j):
        A[i], A[j] = A[j], A[i]
        U[i], U[j] = U[j], U[i]

    def swap_cols(i, j):
        for row in A:
            row[i], row[j] = row[j], row[i]
        for row in V:
            row[i], row[j] = row[j], row[i]

    def add_row(src, dst, c):
        A[dst] = [x + c * y for x, y in zip(A[dst], A[src])]
        U[dst] = [x + c * y for x, y in zip(U[dst], U[src])]

    def add_col(src, dst, c):
        for row in A:
            row[dst] += c * row[src]
        for row in V:
            row[dst] += c * row[src]

    def negate_row(i):
        A[i] = [-x for x in A[i]]
        U[i] = [-x for x in U[i]]

    t = 0
    while t < min(m, n):
        # find a nonzero entry with minimal absolute value in the block
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if A[i][j] != 0 and (best is None or abs(A[i][j]) < abs(A[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        swap_rows(t, best[0])
        swap_cols(t, best[1])
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if A[i][t] != 0:
                    q = A[i][t] // A[t][t]
                    add_row(t, i, -q)
                    if A[i][t] != 0:
                        swap_rows(t, i)
                        dirty = True
            for j in range(t + 1, n):
                if A[t][j] != 0:
                    q = A[t][j] // A[t][t]
                    add_col(t, j, -q)
                    if A[t][j] != 0:
                        swap_cols(t, j)
                        dirty = True
        if A[t][t] < 0:
            negate_row(t)
        # enforce the divisibility chain: fold any non-multiple into the pivot
        offender = None
        for i in range(t + 1, m):
            for j in range(t + 1, n):
                if A[i][j] % A[t][t] != 0:
                    offender = i
                    break
            if offender is not None:
                break
        if offender is not None:
            add_row(offender, t, 1)
            continue
        t += 1

    diag = [A[i][i] for i in range(min(m, n))]
    return diag, IntMatrix(U), IntMatrix(V)


def binomial(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out
