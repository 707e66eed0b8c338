"""Torus-adapted split model of the 7-dimensional representation.

The weight basis u_0, u_{+a}, u_{-a}, u_{+b}, u_{-b}, u_{+g}, u_{-g}
diagonalizes the maximal torus; the three short characters satisfy
a + b + g = 0 and weights are stored as integer pairs over (a, b).
Also hosts the rank-2 root system data and the two Weyl-type dimension
formulas (Schur functors of a 7-space, irreducible dimensions for the
exceptional rank-2 group).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from math import gcd

from .exact import (
    GI_ZERO,
    GaussianRational,
    HomogPoly,
)
from . import octonions


class Weight(tuple):
    """Integer pair (x, y) for the character x*a + y*b; g = -a - b."""

    __slots__ = ()

    def __new__(cls, x, y):
        return super().__new__(cls, (int(x), int(y)))

    @property
    def x(self):
        return self[0]

    @property
    def y(self):
        return self[1]

    def __add__(self, other):
        return Weight(self[0] + other[0], self[1] + other[1])

    def __sub__(self, other):
        return Weight(self[0] - other[0], self[1] - other[1])

    def __neg__(self):
        return Weight(-self[0], -self[1])

    def __mul__(self, c):
        return Weight(c * self[0], c * self[1])

    __rmul__ = __mul__

    def is_zero(self):
        return self == (0, 0)

    def pair(self, ops):
        """Pairing with a one-parameter subgroup given as (<l,a>, <l,b>)."""
        return self[0] * ops[0] + self[1] * ops[1]

    def poly(self) -> HomogPoly:
        return HomogPoly.linear(self[0], self[1])

    def primitive(self) -> "Weight":
        """The weight divided by the gcd of its coordinates."""
        g = gcd(self[0], self[1])
        return Weight(self[0] // g, self[1] // g)

    def __str__(self):
        return weight_str(self)

    def __repr__(self):
        return f"Weight({self[0]}, {self[1]})"


ALPHA = Weight(1, 0)
BETA = Weight(0, 1)
GAMMA = Weight(-1, -1)
ZERO = Weight(0, 0)

_NAMED = {
    (0, 0): "0",
    (1, 0): "a", (-1, 0): "-a",
    (0, 1): "b", (0, -1): "-b",
    (-1, -1): "g", (1, 1): "-g",
    (1, -1): "a-b", (-1, 1): "b-a",
    (2, 1): "a-g", (-2, -1): "g-a",
    (1, 2): "b-g", (-1, -2): "g-b",
    (2, 0): "2a", (-2, 0): "-2a",
    (0, 2): "2b", (0, -2): "-2b",
    (-2, -2): "2g", (2, 2): "-2g",
}


def weight_str(w: Weight) -> str:
    """Short display form using the g = -a-b alias where the tables do."""
    name = _NAMED.get(tuple(w))
    if name is not None:
        return name
    return f"{w[0]}a+{w[1]}b"


def parse_weight(s: str) -> Weight:
    s = s.replace(" ", "")
    for key, name in _NAMED.items():
        if name == s:
            return Weight(*key)
    raise ValueError(f"unknown weight name {s!r}")


# Basis order of the split 7-space: index -> weight.
BASIS_WEIGHTS = (ZERO, ALPHA, -ALPHA, BETA, -BETA, GAMMA, -GAMMA)
INDEX_OF_WEIGHT = {w: i for i, w in enumerate(BASIS_WEIGHTS)}


class SplitVector(tuple):
    """Vector in the split model; 7 Gaussian-rational coordinates."""

    __slots__ = ()

    def __new__(cls, coords):
        coords = tuple(c if isinstance(c, GaussianRational) else GaussianRational(c) for c in coords)
        if len(coords) != 7:
            raise ValueError("split vectors have 7 coordinates")
        return super().__new__(cls, coords)

    @classmethod
    def basis(cls, i):
        return cls(tuple(GaussianRational(1 if j == i else 0) for j in range(7)))

    def __add__(self, other):
        return SplitVector(tuple(a + b for a, b in zip(self, other)))

    def __sub__(self, other):
        return SplitVector(tuple(a - b for a, b in zip(self, other)))

    def __neg__(self):
        return SplitVector(tuple(-a for a in self))

    def scale(self, c):
        return SplitVector(tuple(c * a for a in self))


U = tuple(SplitVector.basis(i) for i in range(7))


def q_split(x: SplitVector, y: SplitVector) -> GaussianRational:
    """Bilinear form polarizing v0^2 + v_a v_-a + v_b v_-b + v_g v_-g.

    Convention q(x, y) = (q(x+y) - q(x) - q(y)) / 2, so q(u_a, u_-a) = 1/2.
    """
    half = Fraction(1, 2)
    total = x[0] * y[0]
    for i in (1, 3, 5):
        total = total + (x[i] * y[i + 1] + x[i + 1] * y[i]) * half
    return total


# Terms of the invariant three-form: v0^va^v-a + v0^vb^v-b + v0^vg^v-g
# + va^vb^vg - v-a^v-b^v-g.  The sign of the last term is forced: with all
# five coefficients +1 the derived volume constant q(x)Theta over
# i(x)Om^i(x)Om^Om is +1/6 at u_0 but -1/6 at u_a + u_-a, so that form is
# not compatible with this quadratic form; the flip is the unique repair
# keeping the other four unit coefficients.
_OMEGA_TERMS = (((0, 1, 2), 1), ((0, 3, 4), 1), ((0, 5, 6), 1), ((1, 3, 5), 1), ((2, 4, 6), -1))


def omega_split(x: SplitVector, y: SplitVector, z: SplitVector) -> GaussianRational:
    total = GI_ZERO
    for (i, j, k), sign in _OMEGA_TERMS:
        minor = (
            x[i] * (y[j] * z[k] - y[k] * z[j])
            - x[j] * (y[i] * z[k] - y[k] * z[i])
            + x[k] * (y[i] * z[j] - y[j] * z[i])
        )
        total = total + (minor if sign > 0 else -minor)
    return total


# q(x y, w) = PRODUCT_FORM_SCALAR * omega(x, y, w); the scalar makes the
# product extend to a composition algebra product on C + V7.
PRODUCT_FORM_SCALAR = GaussianRational(0, Fraction(-1, 2))


def split_product(x: SplitVector, y: SplitVector) -> SplitVector:
    """The alternating product obtained by contracting the three-form.

    Index raised with q_split; normalized so the product matches the
    octonion product under the model bridge (weight additivity holds for
    any normalization).
    """
    cov = [GI_ZERO] * 7
    for k in range(7):
        cov[k] = omega_split(x, y, U[k])
    # invert the Gram matrix of q_split: diagonal block structure
    out = [GI_ZERO] * 7
    out[0] = cov[0]
    for i in (1, 3, 5):
        out[i] = cov[i + 1] * 2
        out[i + 1] = cov[i] * 2
    return SplitVector(out).scale(PRODUCT_FORM_SCALAR)


def model_bridge():
    """Linear isomorphism from the split model onto the imaginary octonions.

    Carries q_split to the octonion norm exactly and omega_split to a
    nonzero scalar multiple of the Fano three-form; returns
    (images, scalar) where images[i] is the octonion image of the i-th
    split basis vector.

    Construction: build an orthonormal frame a1..a7 of the split model
    whose products reproduce the oriented Fano table (a1, a2 and a4 chosen
    orthonormal, the rest generated by products), then map a_i to e_i.
    Raises if the frame fails the table, which would signal inconsistent
    conventions between the two models.
    """
    a = [None] * 8
    a[1] = U[0]
    a[2] = U[1] + U[2]
    a[3] = split_product(a[1], a[2])
    a[4] = U[3] + U[4]
    a[5] = split_product(a[3], a[4])
    a[6] = split_product(a[2], a[4])
    a[7] = -split_product(a[1], a[4])

    for i in range(1, 8):
        for j in range(i, 8):
            want = Fraction(1) if i == j else Fraction(0)
            if q_split(a[i], a[j]) != want:
                raise ArithmeticError(f"bridge frame is not orthonormal at ({i},{j})")
    for i, j, k in octonions.FANO_LINES:
        if split_product(a[i], a[j]) != a[k]:
            raise ArithmeticError(f"bridge frame violates the product relation ({i},{j},{k})")

    # express the weight basis through the frame: solve A c = u_j columnwise
    from .exact import solve_rational

    rows = [[a[i][r] for i in range(1, 8)] for r in range(7)]
    u_images = []
    for j in range(7):
        rhs = [U[j][r] for r in range(7)]
        sol = solve_rational(rows, rhs)
        if sol.status != "unique":
            raise ArithmeticError("bridge frame is singular")
        img = octonions.Octonion.zero()
        for i in range(7):
            img = img + octonions.E[i + 1].scale(sol.particular[i])
        u_images.append(img)

    # verify the isometry and extract the three-form proportionality scalar
    for i in range(7):
        for j in range(i, 7):
            if octonions.norm_bilinear(u_images[i], u_images[j]) != q_split(U[i], U[j]):
                raise ArithmeticError("bridge fails to carry the quadratic form")
    lam = None
    for t in combinations(range(7), 3):
        split_val = omega_split(U[t[0]], U[t[1]], U[t[2]])
        oct_val = octonions.three_form(u_images[t[0]], u_images[t[1]], u_images[t[2]])
        if not split_val:
            if oct_val:
                raise ArithmeticError("bridge fails the three-form proportionality")
            continue
        cand = oct_val / split_val
        if lam is None:
            lam = cand
        elif lam != cand:
            raise ArithmeticError("three-form ratio is not a single scalar")
    if lam is None or not lam:
        raise ArithmeticError("degenerate three-form proportionality")
    return u_images, lam


# ---------------------------------------------------------------------------
# the rank-2 root system with the S3-symmetric short-root labels
# ---------------------------------------------------------------------------


class RootSystemG2:
    """Root data in the (a, b) weight coordinates, chamber (1, 2)."""

    def __init__(self):
        self.short_roots = (ALPHA, -ALPHA, BETA, -BETA, GAMMA, -GAMMA)
        self.long_roots = (
            ALPHA - BETA, BETA - ALPHA,
            ALPHA - GAMMA, GAMMA - ALPHA,
            BETA - GAMMA, GAMMA - BETA,
        )
        # chamber <l, a>=1, <l, b>=2: positive short a, b, -g; simple roots
        self.simple = (ALPHA, BETA - ALPHA)
        self.positive_short = (ALPHA, BETA, -GAMMA)
        self.positive_long = (BETA - ALPHA, ALPHA - GAMMA, BETA - GAMMA)
        self.fundamental = (-GAMMA, BETA - GAMMA)  # w1 = -g, w2 = b-g
        self.highest_short = -GAMMA   # theta = 2a1 + a2
        self.highest_long = BETA - GAMMA  # psi = 3a1 + 2a2
        a1, a2 = self.simple
        assert 3 * a1 + 2 * a2 == self.highest_long
        assert 2 * a1 + a2 == self.highest_short
        assert len(set(self.short_roots + self.long_roots)) == 12

    def positive_roots(self):
        return self.positive_short + self.positive_long

    @staticmethod
    def inner(u: Weight, v: Weight) -> int:
        """Invariant inner product: short roots have square length 2."""
        return 2 * u[0] * v[0] + 2 * u[1] * v[1] - u[0] * v[1] - u[1] * v[0]


ROOT_SYSTEM = RootSystemG2()


def g2_irrep_dim(a: int, b: int) -> int:
    """dim of the irreducible with highest weight a*w1 + b*w2.

    Weyl dimension formula as a product over the six positive roots,
    computed from the root-system data.
    """
    if a < 0 or b < 0:
        raise ValueError("highest weight must be dominant")
    rs = ROOT_SYSTEM
    w1, w2 = rs.fundamental
    lam = a * w1 + b * w2
    rho = w1 + w2
    num = Fraction(1)
    for root in rs.positive_roots():
        num *= Fraction(rs.inner(lam + rho, root), rs.inner(rho, root))
    assert num.denominator == 1
    return int(num)


def weyl_group_matrices():
    """The 12 Weyl group elements as 2x2 integer matrices on (a, b) coords."""
    rs = ROOT_SYSTEM

    def reflect(root):
        # s_r(x) = x - 2 (x, r)/(r, r) r, returned as a matrix
        rr = rs.inner(root, root)
        cols = []
        for e in (Weight(1, 0), Weight(0, 1)):
            c = Fraction(2 * rs.inner(e, root), rr)
            assert c.denominator == 1
            img = e - int(c) * root
            cols.append(img)
        return (cols[0][0], cols[1][0], cols[0][1], cols[1][1])  # column-major 2x2

    def mul(m, n):
        a, b, c, d = m
        e, f, g, h = n
        return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)

    gens = [reflect(r) for r in rs.simple]
    group = {(1, 0, 0, 1)}
    frontier = [(1, 0, 0, 1)]
    while frontier:
        nxt = []
        for m in frontier:
            for g in gens:
                p = mul(g, m)
                if p not in group:
                    group.add(p)
                    nxt.append(p)
        frontier = nxt
    assert len(group) == 12
    return sorted(group)


def g2_irrep_dim_character_oracle(a: int, b: int) -> int:
    """Independent dimension via the alternating character sum.

    Evaluates the quotient of Weyl alternating sums at a generic
    one-parameter subgroup as exact Laurent polynomials in one variable,
    then specializes the quotient at 1.
    """
    rs = ROOT_SYSTEM
    w1, w2 = rs.fundamental
    lam = a * w1 + b * w2
    rho = w1 + w2
    xi = (2, 3)  # pairing values of rho with (a, b): generic for all roots

    def det2(m):
        return m[0] * m[3] - m[1] * m[2]

    def orbit_sum(mu):
        acc = {}
        for m in weyl_group_matrices():
            img = Weight(m[0] * mu[0] + m[1] * mu[1], m[2] * mu[0] + m[3] * mu[1])
            e = img.pair(xi)
            acc[e] = acc.get(e, 0) + det2(m)
        return {k: v for k, v in acc.items() if v}

    num = orbit_sum(lam + rho)
    den = orbit_sum(rho)
    # exact Laurent division: normalize each factor to lowest exponent 0
    # (the monomial shift is invisible after evaluating at 1)
    np = _dict_to_poly(num, -min(num))
    dp = _dict_to_poly(den, -min(den))
    q, r = _poly_divmod(np, dp)
    assert all(c == 0 for c in r), "Weyl denominator fails to divide"
    return sum(q)


def _dict_to_poly(d, shift):
    deg = max(d) + shift
    out = [0] * (deg + 1)
    for e, c in d.items():
        out[e + shift] += c
    return out


def _poly_divmod(num, den):
    num = list(num)
    while den and den[-1] == 0:
        den = den[:-1]
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(q) - 1, -1, -1):
        c = Fraction(num[i + len(den) - 1], den[-1])
        assert c.denominator == 1
        c = int(c)
        q[i] = c
        for j, dc in enumerate(den):
            num[i + j] -= c * dc
    return q, num


# ---------------------------------------------------------------------------
# Schur functor dimensions of a 7-dimensional space
# ---------------------------------------------------------------------------


def gl7_schur_dim(shape, n: int = 7) -> int:
    """Dimension of the Schur functor S_shape applied to an n-space.

    Hook-content formula; shape is a weakly decreasing tuple of
    non-negative integers with at most n parts.
    """
    shape = tuple(int(p) for p in shape if p)
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)) or any(p < 0 for p in shape):
        raise ValueError(f"not a partition: {shape}")
    if len(shape) > n:
        return 0
    conj = conjugate_partition(shape)
    out = Fraction(1)
    for i, row in enumerate(shape):
        for j in range(row):
            hook = (row - j) + (conj[j] - i) - 1
            out *= Fraction(n + j - i, hook)
    assert out.denominator == 1
    return int(out)


def conjugate_partition(shape):
    if not shape:
        return ()
    out = [0] * shape[0]
    for row in shape:
        for j in range(row):
            out[j] += 1
    return tuple(out)


def gl7_schur_dim_tableau_oracle(shape, n: int = 7) -> int:
    """Brute-force count of semistandard tableaux with entries <= n."""
    shape = tuple(int(p) for p in shape if p)
    if len(shape) > n:
        return 0
    if not shape:
        return 1
    rows = len(shape)
    count = 0
    tableau = [[0] * shape[i] for i in range(rows)]
    cells = [(i, j) for i in range(rows) for j in range(shape[i])]

    def fill(k):
        nonlocal count
        if k == len(cells):
            count += 1
            return
        i, j = cells[k]
        lo = 1
        if j > 0:
            lo = max(lo, tableau[i][j - 1])
        if i > 0:
            lo = max(lo, tableau[i - 1][j] + 1)
        for v in range(lo, n + 1):
            tableau[i][j] = v
            fill(k + 1)
        tableau[i][j] = 0

    fill(0)
    return count
