"""The Fano-plane model of the complexified octonions.

Provides the multiplication table, norm and three-form, the classification
of 4-dimensional subalgebras by the rank of the restricted norm, stabilizer
dimensions inside the Lie algebra g2 annihilating the three-form, and the
boundary-stratum membership predicates.
"""

from __future__ import annotations

import enum
from functools import cache
from itertools import combinations

from .exact import (
    GI_I,
    GI_ONE,
    GI_ZERO,
    GaussianRational,
    format_gaussian,
    matrix_rank,
    nullspace,
    permutation_sign,
)

# Oriented lines (i, j, k) with e_i e_j = e_k; covers each pair once.
# Pinned by the product relations e3=e1e2, e5=e3e4, e6=e2e4, e7=-e1e4,
# e5e6=e1, which fano_table re-verifies.
FANO_LINES = ((1, 2, 3), (2, 4, 6), (4, 1, 7), (3, 4, 5), (1, 5, 6), (2, 5, 7), (6, 3, 7))


class Octonion:
    """Octonion with Gaussian-rational coefficients in the basis e0..e7."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple([c if isinstance(c, GaussianRational) else GaussianRational(c) for c in coeffs])
        if len(coeffs) != 8:
            raise ValueError("an octonion has 8 coefficients")
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Octonion is immutable")

    @classmethod
    def basis(cls, i):
        return cls(tuple(GI_ONE if j == i else GI_ZERO for j in range(8)))

    @classmethod
    def zero(cls):
        return cls((GI_ZERO,) * 8)

    def __add__(self, other):
        return Octonion(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        return Octonion(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        return Octonion(tuple(-a for a in self.coeffs))

    def scale(self, c):
        return Octonion(tuple(c * a for a in self.coeffs))

    def __eq__(self, other):
        return isinstance(other, Octonion) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def imaginary(self):
        return Octonion((GI_ZERO,) + self.coeffs[1:])

    def is_imaginary(self):
        return not self.coeffs[0]

    def __repr__(self):
        bits = []
        for i, c in enumerate(self.coeffs):
            if c:
                bits.append(f"({format_gaussian(c)})e{i}")
        return " + ".join(bits) if bits else "0"


E = tuple(Octonion.basis(i) for i in range(8))
I = GI_I
NULL_PLANE = (E[1] + E[2].scale(I), E[6] + E[7].scale(I))  # e1 + i e2, e6 + i e7: product and norm vanish on their span


def fano_table(lines):
    """The oriented Fano-plane multiplication table of the lines, validated.

    ``table[i][j] = (k, s)`` means e_i e_j = s e_k.  Raises ValueError
    unless the lines cover each of the 21 pairs once and the table meets
    the pinned relations.
    """
    pairs = set()
    for line in lines:
        if len(set(line)) != 3 or not all(1 <= v <= 7 for v in line):
            raise ValueError(f"bad line {line}")
        for a, b in combinations(sorted(line), 2):
            if (a, b) in pairs:
                raise ValueError(f"pair {(a, b)} covered twice")
            pairs.add((a, b))
    if len(pairs) != 21:
        raise ValueError("the 7 lines must cover all 21 pairs")
    table = [[None] * 8 for _ in range(8)]
    for j in range(8):
        table[0][j] = (j, 1)
        table[j][0] = (j, 1)
    for i in range(1, 8):
        table[i][i] = (0, -1)
    for line in lines:
        for t in range(3):
            i, j, k = line[t], line[(t + 1) % 3], line[(t + 2) % 3]
            table[i][j] = (k, 1)
            table[j][i] = (k, -1)
    pinned = {
        (1, 2): (3, 1),   # e3 = e1 e2
        (3, 4): (5, 1),   # e5 = e3 e4
        (2, 4): (6, 1),   # e6 = e2 e4
        (1, 4): (7, -1),  # e7 = -e1 e4
        (5, 6): (1, 1),   # e5 e6 = e1
    }
    for (i, j), want in pinned.items():
        if table[i][j] != want:
            raise ValueError(f"multiplication table violates a pinned relation: {table[i][j]} != {want}")
    return table


_TABLE = fano_table(FANO_LINES)


def multiply(x: Octonion, y: Octonion) -> Octonion:
    """Bilinear product for the oriented Fano table; e0 is the identity.

    Real and imaginary parts are summed as exact scalars, so one Gaussian
    rational is built per nonzero coefficient of the product.
    """
    re, im = [0] * 8, [0] * 8
    ys = [(j, b.re, b.im) for j, b in enumerate(y.coeffs) if b.re or b.im]
    for i, a in enumerate(x.coeffs):
        if a.re or a.im:
            row = _TABLE[i]
            for j, br, bi in ys:
                k, s = row[j]
                re[k] += s * (a.re * br - a.im * bi)
                im[k] += s * (a.re * bi + a.im * br)
    return Octonion([GaussianRational(a, b) if a or b else GI_ZERO for a, b in zip(re, im)])


def norm(x: Octonion) -> GaussianRational:
    """q(x) = x * conj(x); multiplicative."""
    return norm_bilinear(x, x)


def norm_bilinear(x: Octonion, y: Octonion) -> GaussianRational:
    """Polarization q(x, y) = (q(x+y) - q(x) - q(y)) / 2, the sum of the coefficient products."""
    pairs = [(a, b) for a, b in zip(x.coeffs, y.coeffs) if a and b]
    return GaussianRational(sum(a.re * b.re - a.im * b.im for a, b in pairs), sum(a.re * b.im + a.im * b.re for a, b in pairs))


def minor(x, y, z, cols):
    """The 3 x 3 minor of the rows x, y, z on the columns cols."""
    i, j, k = cols
    return x[i] * (y[j] * z[k] - y[k] * z[j]) - x[j] * (y[i] * z[k] - y[k] * z[i]) + x[k] * (y[i] * z[j] - y[j] * z[i])


@cache
def three_form_table():
    """Line-based form as a dict {(i<j<k): +-1} over the oriented lines."""
    return {tuple(sorted(line)): permutation_sign(line) for line in FANO_LINES}


def three_form(x: Octonion, y: Octonion, z: Octonion) -> GaussianRational:
    """The alternating form Omega(x, y, z), the triple interior product of the table."""
    for v in (x, y, z):
        if not v.is_imaginary():
            raise ValueError("the three-form is defined on imaginary octonions")
    return _contract(z, _contract(y, _contract(x, three_form_table()))).get((), GI_ZERO)


def im_product_via_form(x: Octonion, y: Octonion) -> Octonion:
    """Im(xy) recovered as the double interior product i(y) i(x) Omega.

    The result is the one-form Omega(x, y, -); the basis e1..e7 is
    orthonormal for q, so raising the index is the identity on coordinates.
    """
    for v in (x, y):
        if not v.is_imaginary():
            raise ValueError("inputs must be imaginary")
    form = _contract(y, _contract(x, three_form_table()))
    return Octonion([GI_ZERO] + [form.get((k,), GI_ZERO) for k in range(1, 8)])


# ---------------------------------------------------------------------------
# exterior algebra on the 7 imaginary directions (for the volume identity)
# ---------------------------------------------------------------------------


def _contract(x: Octonion, form):
    """Interior product i(x) in the first slot, summed in real and imaginary parts.

    The coefficients of ``form`` are integers (the table) or Gaussian
    rationals (an earlier contraction).
    """
    support = {s: (a.re, a.im) for s, a in enumerate(x.coeffs) if a.re or a.im}
    out = {}
    for S, c in form.items():
        cr, ci = (c.re, c.im) if isinstance(c, GaussianRational) else (c, 0)
        for m, s in enumerate(S):
            if s in support:
                ar, ai = support[s]
                sign = -1 if m % 2 else 1
                rest = S[:m] + S[m + 1 :]
                re, im = out.get(rest, (0, 0))
                out[rest] = (re + sign * (ar * cr - ai * ci), im + sign * (ar * ci + ai * cr))
    return {k: GaussianRational(re, im) for k, (re, im) in out.items() if re or im}


def volume_identity_constant():
    """The unique c with q(x) * Theta = c * i(x)Omega ^ i(x)Omega ^ Omega.

    Theta is the standard generator e1^...^e7.  The constant is solved on
    the basis vectors and re-verified on four sums of them, one with a
    complex coefficient; an inconsistency means a broken multiplication
    table.  Only the top coefficient of the right side is formed, in real
    and imaginary parts: one term f_A f_B Omega_T for each line T of the
    form and each ordered split of the other four directions into pairs
    A, B, signed as e_A ^ e_B ^ e_T is against Theta.
    """
    omega = three_form_table()
    splits = []
    for T, c in omega.items():
        rest = [v for v in range(1, 8) if v not in T]
        for A in combinations(rest, 2):
            B = tuple(v for v in rest if v not in A)
            splits.append((A, B, c * permutation_sign(A + B + T)))

    def rhs_coeff(x):
        ix = {S: (v.re, v.im) for S, v in _contract(x, omega).items()}
        re = im = 0
        for A, B, sign in splits:
            if A in ix and B in ix:
                (ar, ai), (br, bi) = ix[A], ix[B]
                re += sign * (ar * br - ai * bi)
                im += sign * (ar * bi + ai * br)
        return GaussianRational(re, im)

    c = None
    samples = [E[i] for i in range(1, 8)]
    samples.append(E[1] + E[2])
    samples.append(E[1] + E[3] + E[5].scale(2))
    samples.append(E[2] + E[6].scale(3))
    samples.append(E[1] + E[2].scale(I) + E[3])
    for x in samples:
        lhs = norm(x)
        r = rhs_coeff(x)
        if not lhs and not r:
            continue
        if not r:
            raise ArithmeticError("volume identity fails: zero contraction with nonzero norm")
        cand = lhs / r
        if c is None:
            c = cand
        elif c != cand:
            raise ArithmeticError(f"volume identity constant is inconsistent: {c} vs {cand}")
    if c is None or not c:
        raise ArithmeticError("no nonzero constant found")
    return c


# ---------------------------------------------------------------------------
# subspaces and the classification of subalgebras
# ---------------------------------------------------------------------------


class OrbitType(enum.Enum):
    NON_DEGENERATE = "NonDegenerate"
    DEGENERATE_RANK_ONE = "DegenerateRankOne"
    ISOTROPIC = "Isotropic"


class Subspace:
    """Linear span of octonions; basis is kept independent."""

    def __init__(self, basis):
        basis = tuple(basis)
        if not basis:
            raise ValueError("empty basis")
        rows = [list(v.coeffs) for v in basis]
        if matrix_rank(rows) != len(basis):
            raise ValueError("basis vectors are linearly dependent")
        self.basis = basis
        self.dim = len(basis)

    def is_imaginary(self):
        return all(v.is_imaginary() for v in self.basis)


def model_h0():
    """Im H0 = <e1, e2, e3>: the non-degenerate (quaternion) model."""
    return Subspace([E[1], E[2], E[3]])


def model_h1():
    """Im H1 = <e1+ie2, e6+ie7, e3>: degenerate with rank-one norm."""
    return Subspace([*NULL_PLANE, E[3]])


def model_h2():
    """Im H2 = <e1+ie2, e6+ie7, e4-ie5>: totally isotropic."""
    return Subspace([*NULL_PLANE, E[4] - E[5].scale(I)])


def is_subalgebra(w: Subspace) -> bool:
    """True iff Im(x y) stays in w for all basis pairs (w of dimension 3)."""
    if w.dim != 3:
        raise ValueError("subalgebra test expects a 3-dimensional imaginary subspace")
    if not w.is_imaginary():
        raise ValueError("subspace must consist of imaginary octonions")
    return _closed_under_product(w.basis)


@cache
def _closed_under_product(basis):
    """True iff Im(x y) lies in the span of the basis for every pair; once per basis."""
    products = [multiply(x, y).imaginary() for x in basis for y in basis]
    return matrix_rank([list(v.coeffs) for v in (*basis, *products)]) == len(basis)


def classify(w: Subspace) -> OrbitType:
    if not is_subalgebra(w):
        raise ValueError("not the imaginary part of a subalgebra")
    r = matrix_rank([[norm_bilinear(x, y) for y in w.basis] for x in w.basis])  # rank of the norm on w
    if r == 3:
        return OrbitType.NON_DEGENERATE
    if r == 1:
        return OrbitType.DEGENERATE_RANK_ONE
    if r == 0:
        return OrbitType.ISOTROPIC
    raise ArithmeticError(f"impossible norm rank {r} on a subalgebra")


def null_plane_test(p: Subspace) -> bool:
    """True iff the product and the norm vanish identically on the plane."""
    if p.dim != 2:
        raise ValueError("a null-plane test expects a 2-dimensional subspace")
    for x in p.basis:
        for y in p.basis:
            if norm_bilinear(x, y):
                return False
            if multiply(x, y):
                return False
    return True


# ---------------------------------------------------------------------------
# the Lie algebra annihilating the three-form, and stabilizers
# ---------------------------------------------------------------------------

@cache
def g2_basis():
    """Basis of {X in End(V7) : X . Omega = 0}, the Lie algebra g2.

    X acts as a derivation: (X.Omega)(u,v,w) = Omega(Xu,v,w) + Omega(u,Xv,w)
    + Omega(u,v,Xw).  On the basis, Omega(e_a, e_b, e_p) = s exactly when
    e_a e_b = s e_p, one of the 42 ordered triples on the lines read off the
    table, so the equation of a triple i < j < k has one term per slot:
    s X[p, q] for the slot's index q, the other two a, b in cyclic order
    and e_a e_b = s e_p.  Computed once as an exact rational nullspace of
    these integer rows.  Its length is not compared with 14 here: the
    report does that.
    """
    rows = []
    for i, j, k in combinations(range(1, 8), 3):
        row = [0] * 49  # X e_q has e_p-coefficient X[p, q], in column 7 (p - 1) + q - 1
        for q, a, b in ((i, j, k), (j, k, i), (k, i, j)):
            p, s = _TABLE[a][b]
            row[7 * (p - 1) + q - 1] = s
        rows.append(row)
    return [[vec[7 * p : 7 * p + 7] for p in range(7)] for vec in nullspace(rows, 49)]


def g2_stabilizer_dim(w: Subspace) -> int:
    """Dimension of {X in g2 : X W <= W} for a subalgebra imaginary part.

    X stabilizes W iff cov(X v) = sum_(p,q) X[p, q] cov_p v_q vanishes for
    every basis vector v of W and every functional cov vanishing on W: one
    row per (v, cov), one column per X, each entry summed over the nonzero
    entries of X in its real and imaginary parts.
    """
    if not is_subalgebra(w):
        raise ValueError("stabilizer is only computed for subalgebras")
    entries = [[(p, q, c) for p, row in enumerate(x) for q, c in enumerate(row) if c] for x in g2_basis()]
    ann = nullspace([list(v.coeffs[1:]) for v in w.basis], 7)  # 4 functionals: the right nullspace of W
    rows = []
    for v in w.basis:
        for cov in ann:
            prods = {(p, q): a * b for p, a in enumerate(cov) if a for q, b in enumerate(v.coeffs[1:]) if b}
            row = []
            for xs in entries:
                hits = [(c, prods[p, q]) for p, q, c in xs if (p, q) in prods]
                row.append(GaussianRational(sum(c * z.re for c, z in hits), sum(c * z.im for c, z in hits)) if hits else GI_ZERO)
            rows.append(row)
    return len(g2_basis()) - matrix_rank(rows)


# ---------------------------------------------------------------------------
# boundary strata membership
# ---------------------------------------------------------------------------


def stratum_membership(w: Subspace, datum, which: str) -> bool:
    """Membership of the subalgebra spanned by w in X1(l), X2(N) or X2'(l).

    X1: (C e0 + W) meets l*O;  X2': W meets l*O;  X2: dim(W cap N-perp) >= 2.
    """
    if not is_subalgebra(w):
        raise ValueError("stratum membership expects a subalgebra")
    if which in ("X1", "X2'"):
        if not isinstance(datum, Octonion):
            raise TypeError("X1/X2' take an isotropic imaginary octonion spanning the line")
        if not datum.is_imaginary() or norm(datum) or not datum:
            raise ValueError("the line must be spanned by a nonzero isotropic imaginary octonion")
        # l*O is spanned by the eight images l e_j; for isotropic imaginary l it is 4-dimensional
        images = [list(multiply(datum, e).coeffs) for e in E]
        if matrix_rank(images) != 4:
            raise ArithmeticError("l*O is not 4-dimensional")
        span = ([E[0]] if which == "X1" else []) + list(w.basis)
        return matrix_rank([list(v.coeffs) for v in span] + images) < len(span) + 4
    if which == "X2":
        if not isinstance(datum, Subspace):
            raise TypeError("X2 takes a null-plane subspace")
        if not null_plane_test(datum):
            raise ValueError("X2 requires a null-plane")
        pairing = [[norm_bilinear(x, n) for n in datum.basis] for x in w.basis]
        return 3 - matrix_rank(pairing) >= 2
    raise ValueError(f"unknown stratum {which!r}")
