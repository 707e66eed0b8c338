"""Exact scalars, binary forms and integer/rational linear algebra.

Everything in this package reduces to arithmetic over three exact domains:
the rationals, the Gaussian rationals, and homogeneous polynomials in the
two torus characters with rational coefficients.  A rational scalar is
held as an ``int`` when it is integral and as a ``fractions.Fraction``
otherwise (see ``scalar``); every true division goes through ``Fraction``
and floats are rejected.  Integer matrices are plain lists of rows, and
of their Smith normal form only the invariant factors are computed.  Only
this module reads or builds a binary form's (p, q) coefficient table.  All
values are immutable and every function is pure, except that packed
weights (``PackedForms``) keep a memo of their packings, one per shift.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from operator import index


def scalar(x):
    """The canonical exact form of a rational: an int when integral.

    An ``int`` stays as it is, a ``Fraction`` with denominator 1 becomes
    its numerator, any other ``Fraction`` is kept, and anything else (a
    float, say) raises ``TypeError``.
    """
    if type(x) is int:
        return x
    if isinstance(x, Fraction):
        return x.numerator if x.denominator == 1 else x
    if isinstance(x, int):
        return int(x)
    raise TypeError(f"expected a rational, got {type(x).__name__}")


class GaussianRational:
    """re + im*i with rational re, im and i^2 = -1 (each part an exact scalar)."""

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", scalar(re))
        object.__setattr__(self, "im", scalar(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @classmethod
    def _coerce(cls, x):
        """x as a Gaussian rational; anything but one or a rational (``scalar``) raises TypeError."""
        return x if isinstance(x, GaussianRational) else cls(x)

    def __add__(self, other):
        other = self._coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        other = self._coerce(other)
        return GaussianRational(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        n = Fraction(other.re * other.re + other.im * other.im)
        if n == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * other.re + self.im * other.im) / n,
            (self.im * other.re - self.re * other.im) / n,
        )

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def __eq__(self, other):
        if not isinstance(other, (GaussianRational, int, Fraction)):
            return NotImplemented  # equality with a foreign value is False, never an error
        other = self._coerce(other)
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((self.re, self.im)) if self.im else hash(self.re)  # a real value equals, so hashes as, its real part

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
    """Render as "a/b+c/d i"."""
    if not z.im:
        return str(z.re)
    if not z.re:
        return f"{z.im} i"
    sign = "+" if z.im >= 0 else "-"
    return f"{z.re}{sign}{abs(z.im)} i"


# ---------------------------------------------------------------------------
# homogeneous polynomials in the two characters (binary forms)
# ---------------------------------------------------------------------------


class HomogPoly:
    """Homogeneous polynomial in the characters a, b with rational coefficients.

    The third character g is never stored: it is eliminated through
    g = -a - b on input, which makes equality and divisibility canonical.
    Keys of ``coeffs`` are exponent pairs (p, q) with p + q == degree;
    each coefficient is an exact scalar (see ``scalar``) and zero
    coefficients are dropped.
    """

    __slots__ = ("degree", "coeffs")

    def __init__(self, degree, coeffs=None):
        if degree < 0:
            raise ValueError("degree must be non-negative")
        clean = {}
        for (p, q), c in (coeffs or {}).items():
            c = scalar(c)
            if p < 0 or q < 0 or p + q != degree:
                raise ValueError(f"monomial ({p},{q}) is not of degree {degree}")
            if c:
                clean[(p, q)] = c
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("HomogPoly is immutable")

    @classmethod
    @cache
    def zero(cls, degree):
        """The zero form of ``degree``, one shared instance per degree (forms are immutable)."""
        return cls(degree, {})

    @classmethod
    def constant(cls, c):
        return cls(0, {(0, 0): c})

    @classmethod
    def linear(cls, a, b):
        """The linear form a*alpha + b*beta."""
        return cls(1, {(1, 0): a, (0, 1): b})

    def is_zero(self):
        return not self.coeffs

    def coefficient(self, p):
        """The coefficient of a^p b^(degree - p), 0 when the form has no such term."""
        return self.coeffs.get((p, self.degree - p), 0)

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
            out[k] = out.get(k, 0) + c
        return HomogPoly(self.degree, out)

    def __neg__(self):
        return HomogPoly(self.degree, {k: -c for k, c in self.coeffs.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c):
        c = scalar(c)
        if not c:
            return HomogPoly.zero(self.degree)
        return HomogPoly(self.degree, {k: c * v for k, v in self.coeffs.items()})

    def evaluate(self, a, b):
        a, b = scalar(a), scalar(b)
        total = 0
        for (p, q), c in self.coeffs.items():
            total += c * a**p * b**q
        return scalar(total)

    def to_json(self):
        terms = [[p, q, f"{c.numerator}/{c.denominator}"] for (p, q), c in sorted(self.coeffs.items())]
        return {"degree": self.degree, "terms": terms}

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


def sum_of_products(pairs, degree) -> HomogPoly:
    """The form sum_i a_i b_i of degree ``degree``, over pairs (a_i, b_i) of forms.

    Every product goes into one coefficient table, which is built into
    one form at the end.  A pair with a zero factor adds nothing; a
    product of another degree puts a monomial of that degree in the
    table, which the form rejects with ``ValueError``.
    """
    acc = {}
    for a, b in pairs:
        for (p1, q1), c1 in a.coeffs.items():
            for (p2, q2), c2 in b.coeffs.items():
                k = (p1 + p2, q1 + q2)
                acc[k] = acc.get(k, 0) + c1 * c2
    return HomogPoly(degree, acc)


def pointwise_product(*classes):
    """Vertexwise product of vertex maps {label: form}; returns {label: form}.

    Each vertex of the first map multiplies its factors in one (p, q) table,
    taken as built (its keys sum exponents of validated factors): only zero
    entries are dropped and scalars made canonical.  A vanishing product is
    the shared ``HomogPoly.zero``; degrees add even where a factor vanishes,
    and a vertex missing from a later map raises ``KeyError``.
    """
    first, *rest = classes
    out = {}
    for lab, form in first.items():
        degree, table = form.degree, form.coeffs
        for cls in rest:
            factor = cls[lab]
            degree += factor.degree
            if table:
                acc = {}
                for (p1, q1), c1 in table.items():
                    for (p2, q2), c2 in factor.coeffs.items():
                        k = (p1 + p2, q1 + q2)
                        acc[k] = acc.get(k, 0) + c1 * c2
                table = acc
        if table:
            product = out[lab] = object.__new__(HomogPoly)
            object.__setattr__(product, "degree", degree)
            object.__setattr__(product, "coeffs", {k: c if type(c) is int else scalar(c) for k, c in table.items() if c})
        else:
            out[lab] = HomogPoly.zero(degree)
    return out


def kronecker_value(form, shift) -> int:
    """The form at a = 2^shift, b = 1, as one integer.

    Each coefficient is shifted as it is, so a non-integral one raises
    ``TypeError``.
    """
    value = 0
    for (p, _), c in form.coeffs.items():
        value += c << shift * p
    return value


class PackedForms:
    """Forms w_k with integer coefficients, keyed and of one ``degree`` (carried, not checked), packed for ``sum_against``.

    ``sizes`` holds (#w_k, max|w_k|) per key, # being the number of terms,
    and ``packings`` the memo {s: {k: w_k(2^s)}} (``kronecker_value``): one
    packing per power-of-two shift s that a sum has needed.
    """

    __slots__ = ("forms", "degree", "sizes", "packings")

    def __init__(self, forms, degree):
        self.forms, self.degree, self.packings = forms, degree, {}
        self.sizes = {k: (len(w.coeffs), max(map(abs, w.coeffs.values()), default=0)) for k, w in forms.items()}

    def sum_against(self, firsts, degree):
        """sum_k a_k w_k of degree ``degree`` by Kronecker substitution, as its coefficients [N_0, ..., N_degree].

        ``firsts`` maps keys k to forms a_k with integer coefficients, and
        each product a_k w_k must be of degree ``degree`` (the caller checks
        that).  N_p is the coefficient of N at a^p b^(degree - p).  Every |N_p| is at
        most B = sum_k min(#a_k, #w_k) max|a_k| max|w_k|, and s is the least
        power of two with 2^(s-1) > B, so each N_p is one balanced base-2^s
        digit (``_balanced_digits``) of the integer N(2^s).  A pair with a
        zero factor adds nothing, a non-integral coefficient of an a_k with
        a nonzero w_k raises ``TypeError`` and a key with no weight ``KeyError``.
        """
        terms, bound = [], 0
        sizes = self.sizes
        for k, f in firsts.items():
            n, m = sizes[k]
            a = f.coeffs
            if a and m:
                terms.append((k, f))
                bound += min(len(a), n) * max(map(abs, a.values())) * m
        need = index(bound).bit_length() + 1  # a non-integral max|a_k| leaves B a Fraction, which raises here
        shift = 1 << (need - 1).bit_length()
        seconds = self.packings.get(shift)
        if seconds is None:
            seconds = self.packings[shift] = {k: kronecker_value(w, shift) for k, w in self.forms.items()}
        total = 0
        for k, f in terms:
            total += kronecker_value(f, shift) * seconds[k]
        return _balanced_digits(total, shift, degree + 1)


def _balanced_digits(x, shift, count):
    """The ``count`` lowest digits of x in balanced base 2^shift, lowest first, each in [-2^(shift-1), 2^(shift-1)).

    Each digit is x modulo 2^shift taken in that range, and x then becomes
    (x - digit) / 2^shift; anything left after the top digit raises
    ``ArithmeticError``.
    """
    half, mask = 1 << shift - 1, (1 << shift) - 1
    digits = []
    for _ in range(count):
        digit = ((x + half) & mask) - half
        digits.append(digit)
        x = (x - digit) >> shift
    if x:
        raise ArithmeticError("packed sum left a remainder above its top digit")
    return digits


def poly_mul(a: HomogPoly, b: HomogPoly) -> HomogPoly:
    """Exact product; degree(result) = degree(a) + degree(b)."""
    return sum_of_products(((a, b),), a.degree + b.degree)


def elementary_symmetric(weights):
    """[e_0, ..., e_n] of the linear forms of the n weights; e_n is their product.

    The product of the factors (1 + x a + y b) is expanded in place, e_k
    as its coefficients at a^p b^(k-p), from the top degree down, so
    e_(k-1) still holds its value before a factor when it feeds e_k.
    """
    e = [[1]]
    for x, y in weights:
        e.append([0] * (len(e) + 1))
        for k in range(len(e) - 1, 0, -1):
            row = e[k]
            for p, c in enumerate(e[k - 1]):
                if c:
                    row[p + 1] += x * c
                    row[p] += y * c
    return [HomogPoly(k, {(p, k - p): c for p, c in enumerate(row)}) for k, row in enumerate(e)]


def _exact_quotient(c, a):
    """c / a for nonzero a, as an int when both are ints and a divides c."""
    if type(c) is int and type(a) is int and not c % a:
        return c // a
    return scalar(Fraction(c) / a)


def divide_by_linear(f: HomogPoly, a, b):
    """Exact division of f by the linear form a*alpha + b*beta.

    Returns the quotient, or None when the form does not divide f.
    Divisibility is decided by restricting f to the zero line of the
    form (a binary form vanishes on that line iff the form divides it),
    after which synthetic division is exact.
    """
    a, b = scalar(a), scalar(b)
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
            c = rem.pop((p, d - p), 0)
            if not c:
                continue
            t = _exact_quotient(c, a)
            out[(p - 1, d - p)] = t
            key = (p - 1, d - p + 1)
            rem[key] = rem.get(key, 0) - b * t
    else:
        for q in range(d, 0, -1):
            c = rem.pop((d - q, q), 0)
            if not c:
                continue
            out[(d - q, q - 1)] = _exact_quotient(c, b)
    if any(rem.values()):
        raise ArithmeticError("restriction vanished but division left a remainder")
    return HomogPoly(d - 1, out)


# ---------------------------------------------------------------------------
# linear algebra over an exact field (Fraction or GaussianRational)
# ---------------------------------------------------------------------------


def permutation_sign(seq) -> int:
    """The sign of the permutation that sorts a sequence of distinct entries upwards: (-1)^(number of inversions)."""
    seq = list(seq)
    inversions = sum(a > b for i, a in enumerate(seq) for b in seq[i + 1:])
    return -1 if inversions % 2 else 1


def _row_reduce(rows, ncols):
    """In-place Gauss-Jordan elimination over the field; returns pivot columns.

    The first ``ncols`` columns are eliminated; any further columns (a
    right-hand side) are carried along.  Each step touches only the
    support of the pivot row: the row's entries left of the pivot column
    are already zero, and an entry of another row changes only where the
    pivot row is nonzero.  A pivot of 1 or -1 divides nothing, so integer
    entries stay ``int``s; any other rational pivot divides through
    ``Fraction``.  Zero entries keep the type they came with.
    """
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        row = rows[r]
        p = row[c]
        support = [j for j in range(c, len(row)) if row[j]]
        if p == -1:
            for j in support:
                row[j] = -row[j]
        elif p != 1:
            if isinstance(p, int):
                p = Fraction(p)  # int / int would be a float
            for j in support:
                row[j] = row[j] / p
        for i, other in enumerate(rows):
            f = other[c]
            if f and i != r:
                for j in support:
                    other[j] = other[j] - f * row[j]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return pivots


def _canonical(x):
    """A reduced entry as returned: a rational in its ``scalar`` form, a Gaussian rational as it is."""
    return x if isinstance(x, GaussianRational) else scalar(x)


def _kernel_basis(reduced, pivots, ncols):
    """Right kernel of a matrix from its reduced rows and pivot columns."""
    pivot_set = set(pivots)
    basis = []
    for fc in range(ncols):
        if fc in pivot_set:
            continue
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = _canonical(-reduced[r][fc])
        basis.append(vec)
    return basis


def matrix_rank(rows):
    if not rows:
        return 0
    work = [list(r) for r in rows]
    return len(_row_reduce(work, len(work[0])))


def nullspace(rows, ncols):
    """Basis of the right kernel of the matrix given by ``rows``."""
    work = [list(r) for r in rows]
    return _kernel_basis(work, _row_reduce(work, ncols), ncols)


def solve_rational(rows, rhs):
    """The unique solution of A x = b, by exact Gauss-Jordan elimination over the entries' field.

    Entries may be ints, Fractions or GaussianRationals.  An inconsistent
    system, or one whose solutions form a family, raises ArithmeticError.
    """
    if len(rows) != len(rhs):
        raise ValueError("matrix/vector size mismatch")
    n = len(rows[0]) if rows else 0
    work = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    pivots = _row_reduce(work, n)
    if any(row[n] != 0 for row in work[len(pivots):]):
        raise ArithmeticError("the linear system is inconsistent")
    if len(pivots) < n:
        raise ArithmeticError(f"the solutions form a family of dimension {n - len(pivots)}")
    return [_canonical(row[n]) for row in work[:n]]


# ---------------------------------------------------------------------------
# invariant factors of an integer matrix
# ---------------------------------------------------------------------------


def smith_normal_form(rows):
    """The invariant factors of the integer matrix given by ``rows``.

    These are the diagonal entries d_1, ..., d_min(m,n) of its Smith normal
    form: non-negative, d_i | d_(i+1), zeros last.  Unimodular row and
    column operations reduce a copy of the matrix; the transforms are
    not kept, because only the diagonal is read.  Entries go through ``operator.index``.
    """
    A = [list(map(index, row)) for row in rows]
    m = len(A)
    n = len(A[0]) if A else 0
    if any(len(row) != n for row in A):
        raise ValueError("ragged matrix")
    t = 0
    while t < min(m, n):
        # move a nonzero entry of least absolute value to the pivot
        nonzero = [(abs(A[i][j]), i, j) for i in range(t, m) for j in range(t, n) if A[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        A[t], A[i] = A[i], A[t]
        for row in A:
            row[t], row[j] = row[j], row[t]
        # reduce the pivot column and row modulo the pivot; a remainder is a
        # nonzero entry smaller than the pivot, which the next pass moves there
        d = A[t][t]
        for i in range(t + 1, m):
            q = A[i][t] // d
            A[i] = [x - q * y for x, y in zip(A[i], A[t])]
        for j in range(t + 1, n):
            q = A[t][j] // d
            for row in A:
                row[j] -= q * row[t]
        if any(A[i][t] for i in range(t + 1, m)) or any(A[t][j] for j in range(t + 1, n)):
            continue
        # enforce the divisibility chain: fold a row holding a non-multiple into the pivot row
        offender = next((i for i in range(t + 1, m) if any(A[i][j] % d for j in range(t + 1, n))), None)
        if offender is not None:
            A[t] = [x + y for x, y in zip(A[t], A[offender])]
            continue
        t += 1
    return [abs(A[i][i]) for i in range(min(m, n))]
