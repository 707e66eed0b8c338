"""The Fano-plane model of the complexified octonions.

Provides the multiplication table, norm and three-form, the classification
of 4-dimensional subalgebras by the rank of the restricted norm, stabilizer
dimensions inside the 14-dimensional Lie algebra annihilating the
three-form, and the boundary-stratum membership predicates.
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
)

# Oriented lines (i, j, k) with e_i e_j = e_k; covers each pair once.
# Pinned by the product relations e3=e1e2, e5=e3e4, e6=e2e4, e7=-e1e4,
# e5e6=e1, which fano_table re-verifies.
FANO_LINES = ((1, 2, 3), (2, 4, 6), (4, 1, 7), (3, 4, 5), (1, 5, 6), (2, 5, 7), (6, 3, 7))


def _gi(x):
    if isinstance(x, GaussianRational):
        return x
    return GaussianRational(x)


class Octonion:
    """Octonion with Gaussian-rational coefficients in the basis e0..e7."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = tuple(_gi(c) for c in coeffs)
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
        c = _gi(c)
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
    """Bilinear product for the oriented Fano table; e0 is the identity."""
    out = [GI_ZERO] * 8
    table = _TABLE
    for i, a in enumerate(x.coeffs):
        if not a:
            continue
        for j, b in enumerate(y.coeffs):
            if not b:
                continue
            k, s = table[i][j]
            term = a * b
            out[k] = out[k] + (term if s > 0 else -term)
    return Octonion(out)


def norm(x: Octonion) -> GaussianRational:
    """q(x) = x * conj(x); multiplicative."""
    return norm_bilinear(x, x)


def norm_bilinear(x: Octonion, y: Octonion) -> GaussianRational:
    """Polarization q(x, y) = (q(x+y) - q(x) - q(y)) / 2."""
    total = GI_ZERO
    for a, b in zip(x.coeffs, y.coeffs):
        total = total + a * b
    return total


def minor(x, y, z, cols):
    """The 3 x 3 minor of the rows x, y, z on the columns cols."""
    i, j, k = cols
    return x[i] * (y[j] * z[k] - y[k] * z[j]) - x[j] * (y[i] * z[k] - y[k] * z[i]) + x[k] * (y[i] * z[j] - y[j] * z[i])


@cache
def three_form_table():
    """Line-based form as a dict {(i<j<k): +-1} over the oriented lines."""
    return {tuple(sorted(line)): _permutation_sign(line) for line in FANO_LINES}


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


def _wedge(f, g):
    out = {}
    for S, c in f.items():
        for T, d in g.items():
            if set(S) & set(T):
                continue
            merged = S + T
            sign = _permutation_sign(merged)
            key = tuple(sorted(merged))
            out[key] = out.get(key, GI_ZERO) + (c * d if sign > 0 else -(c * d))
    return {k: v for k, v in out.items() if v}


def _permutation_sign(seq):
    seq = list(seq)
    sign = 1
    for a in range(len(seq)):
        for b in range(a + 1, len(seq)):
            if seq[a] > seq[b]:
                sign = -sign
    return sign


def _contract(x: Octonion, form):
    """Interior product i(x) in the first slot."""
    out = {}
    for S, c in form.items():
        for m, s in enumerate(S):
            coeff = x.coeffs[s]
            if not coeff:
                continue
            rest = S[:m] + S[m + 1 :]
            term = coeff * c
            if m % 2:
                term = -term
            out[rest] = out.get(rest, GI_ZERO) + term
    return {k: v for k, v in out.items() if v}


def volume_identity_constant():
    """The unique c with q(x) * Theta = c * i(x)Omega ^ i(x)Omega ^ Omega.

    Theta is the standard generator e1^...^e7.  The constant is solved on
    the basis vectors and re-verified on four sums of them, one with a
    complex coefficient; an inconsistency means a broken multiplication
    table.
    """
    omega = three_form_table()
    top = tuple(range(1, 8))

    def rhs_coeff(x):
        ix = _contract(x, omega)
        w = _wedge(_wedge(ix, ix), omega)
        return w.get(top, GI_ZERO)

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
    return Subspace([E[1] + E[2].scale(I), E[6] + E[7].scale(I), E[3]])


def model_h2():
    """Im H2 = <e1+ie2, e6+ie7, e4-ie5>: totally isotropic."""
    return Subspace([E[1] + E[2].scale(I), E[6] + E[7].scale(I), E[4] - E[5].scale(I)])


def is_subalgebra(w: Subspace) -> bool:
    """True iff Im(x y) stays in w for all basis pairs (w of dimension 3)."""
    if w.dim != 3:
        raise ValueError("subalgebra test expects a 3-dimensional imaginary subspace")
    if not w.is_imaginary():
        raise ValueError("subspace must consist of imaginary octonions")
    products = [multiply(x, y).imaginary() for x in w.basis for y in w.basis]
    return matrix_rank([list(v.coeffs) for v in (*w.basis, *products)]) == w.dim


def gram_rank(w: Subspace) -> int:
    rows = [[norm_bilinear(x, y) for y in w.basis] for x in w.basis]
    return matrix_rank(rows)


def classify(w: Subspace) -> OrbitType:
    if not is_subalgebra(w):
        raise ValueError("not the imaginary part of a subalgebra")
    r = gram_rank(w)
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
    """Basis of {X in End(V7) : X . Omega = 0}; the dimension is 14.

    X acts as a derivation: (X.Omega)(u,v,w) = Omega(Xu,v,w) + Omega(u,Xv,w)
    + Omega(u,v,Xw).  Computed once as an exact rational nullspace of
    integer rows.
    """
    omega = three_form_table()  # {(i<j<k): sign}

    def om(i, j, k):
        idx = (i, j, k)
        key = tuple(sorted(idx))
        return omega.get(key, 0) * _permutation_sign(idx)

    cols = [(p, q) for p in range(1, 8) for q in range(1, 8)]  # X e_q has e_p-coefficient X[p,q]
    rows = []
    for i, j, k in combinations(range(1, 8), 3):
        row = []
        for p, q in cols:
            c = 0
            if q == i:
                c += om(p, j, k)
            if q == j:
                c += om(i, p, k)
            if q == k:
                c += om(i, j, p)
            row.append(c)
        rows.append(row)
    kernel = nullspace(rows, len(cols))
    basis = []
    for vec in kernel:
        mat = [[0] * 7 for _ in range(7)]
        for (p, q), v in zip(cols, vec):
            mat[p - 1][q - 1] = v
        basis.append(mat)
    if len(basis) != 14:
        raise ArithmeticError(f"annihilator of the three-form has dimension {len(basis)}, expected 14")
    return basis


def _apply_endo(mat, x: Octonion) -> Octonion:
    out = [GI_ZERO] * 8
    support = [q for q in range(7) if x.coeffs[q + 1]]
    for p in range(7):
        acc = GI_ZERO
        for q in support:
            if mat[p][q]:
                acc = acc + x.coeffs[q + 1] * mat[p][q]
        out[p + 1] = acc
    return Octonion(out)


def g2_stabilizer_dim(w: Subspace) -> int:
    """Dimension of {X in g2 : X W <= W} for a subalgebra imaginary part."""
    if not is_subalgebra(w):
        raise ValueError("stabilizer is only computed for subalgebras")
    basis = g2_basis()
    # functionals vanishing on W: right nullspace of the basis matrix
    wrows = [[v.coeffs[i] for i in range(1, 8)] for v in w.basis]
    ann = nullspace(wrows, 7)  # 4 covectors
    rows = []
    for wv in w.basis:
        images = [_apply_endo(mat, wv) for mat in basis]
        for cov in ann:
            row = []
            for img in images:
                acc = GI_ZERO
                for i in range(7):
                    if cov[i] and img.coeffs[i + 1]:
                        acc = acc + img.coeffs[i + 1] * cov[i]
                row.append(acc)
            rows.append(row)
    return 14 - matrix_rank(rows)


# ---------------------------------------------------------------------------
# boundary strata membership
# ---------------------------------------------------------------------------


def left_multiplication_space(l: Octonion) -> list:
    """Basis of l*O; for isotropic imaginary l this is 4-dimensional."""
    images = [multiply(l, E[j]) for j in range(8)]
    rows = [list(v.coeffs) for v in images]
    basis = []
    taken = []
    for v, row in zip(images, rows):
        if matrix_rank(taken + [row]) > len(basis):
            basis.append(v)
            taken.append(row)
    return basis


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
        lo = left_multiplication_space(datum)
        if len(lo) != 4:
            raise ArithmeticError("l*O is not 4-dimensional")
        if which == "X1":
            span = [E[0]] + list(w.basis)
        else:
            span = list(w.basis)
        rows = [list(v.coeffs) for v in span + lo]
        return matrix_rank(rows) < len(span) + 4
    if which == "X2":
        if not isinstance(datum, Subspace):
            raise TypeError("X2 takes a null-plane subspace")
        if not null_plane_test(datum):
            raise ValueError("X2 requires a null-plane")
        pairing = [[norm_bilinear(x, n) for n in datum.basis] for x in w.basis]
        return 3 - matrix_rank(pairing) >= 2
    raise ValueError(f"unknown stratum {which!r}")
