"""The torus weight basis of the 7-dimensional representation, and root data.

The weight basis u_0, u_{+a}, u_{-a}, u_{+b}, u_{-b}, u_{+g}, u_{-g} is
seven imaginary octonions of the Fano model that diagonalize the maximal
torus; the three short characters satisfy a + b + g = 0 and weights are
stored as integer pairs over (a, b).  Also hosts the chamber, the
rank-2 root data read off it, the order-12 Weyl group, and the two
Weyl-type dimension formulas (Schur functors of a 7-space, irreducible
dimensions for the exceptional rank-2 group).
"""

from __future__ import annotations

from itertools import combinations, permutations
from math import gcd, prod

from . import octonions
from .exact import HomogPoly, matrix_rank


class Weight(tuple):
    """Integer pair (x, y) for the character x*a + y*b; g = -a - b."""

    __slots__ = ()

    def __new__(cls, x, y):
        return super().__new__(cls, (int(x), int(y)))

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

    def under(self, w) -> "Weight":
        """The image under the Weyl group element w = (w(a), w(b))."""
        (p, q), (r, s) = w
        return Weight(self[0] * p + self[1] * r, self[0] * q + self[1] * s)

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


# Basis order of the weight basis U below: index -> weight.
BASIS_WEIGHTS = (ZERO, ALPHA, -ALPHA, BETA, -BETA, GAMMA, -GAMMA)
INDEX_OF_WEIGHT = {w: i for i, w in enumerate(BASIS_WEIGHTS)}


_I = octonions.I
_E = octonions.E

# The weight basis as imaginary octonions: U[i] spans the weight line of
# BASIS_WEIGHTS[i], so the octonion norm pairs u_w only with u_{-w}.
U = (
    _E[1],
    _E[2] + _E[3].scale(_I), _E[2] - _E[3].scale(_I),
    _E[4] - _E[7].scale(_I), _E[4] + _E[7].scale(_I),
    -_E[5] - _E[6].scale(_I), -_E[5] + _E[6].scale(_I),
)


def model_bridge():
    """Check that U is a torus weight basis of the imaginary octonions; returns U.

    The norm pairs u_v with u_w exactly when v = -w, and Im(u_v u_w) lies
    on the line of u_{v+w} (it vanishes when v + w is not a weight).
    Raises ArithmeticError on a failure.
    """
    for i, v in enumerate(BASIS_WEIGHTS):
        for j, w in enumerate(BASIS_WEIGHTS):
            if bool(octonions.norm_bilinear(U[i], U[j])) != (v == -w):
                raise ArithmeticError(f"the norm pairing of u_{v} and u_{w} is wrong")
            k = INDEX_OF_WEIGHT.get(v + w)
            line = [] if k is None else [U[k].coeffs]
            product = octonions.multiply(U[i], U[j]).imaginary()
            if matrix_rank(line + [product.coeffs]) != len(line):
                raise ArithmeticError(f"Im(u_{v} u_{w}) is off the weight line of {v + w}")
    return U


# ---------------------------------------------------------------------------
# the rank-2 root system, read off the chamber, and its Weyl group
# ---------------------------------------------------------------------------

CHAMBER = (1, 2)  # pairings <l,a>, <l,b>; fixes codim(p) and the Schubert basis

SHORT_ROOTS = (ALPHA, -ALPHA, BETA, -BETA, GAMMA, -GAMMA)
LONG_ROOTS = tuple(u - v for u, v in permutations((ALPHA, BETA, GAMMA), 2))
POSITIVE_ROOTS = tuple(r for r in SHORT_ROOTS + LONG_ROOTS if r.pair(CHAMBER) > 0)
# w1 = -g, the highest short root, and w2 = b-g, the highest root
FUNDAMENTAL = tuple(max(roots, key=lambda r: r.pair(CHAMBER)) for roots in (SHORT_ROOTS, SHORT_ROOTS + LONG_ROOTS))

# The 12 Weyl group elements +-s, s a permutation of (a, b, g), each stored
# as its image pair (w(a), w(b)) and applied by Weight.under; identity first.
WEYL_GROUP = tuple((sign * x, sign * y) for sign in (1, -1) for x, y, _ in permutations((ALPHA, BETA, GAMMA)))


def inner(u: Weight, v: Weight) -> int:
    """Invariant inner product: short roots have square length 2."""
    return 2 * u[0] * v[0] + 2 * u[1] * v[1] - u[0] * v[1] - u[1] * v[0]


def g2_irrep_dim(a: int, b: int) -> int:
    """dim of the irreducible with highest weight a*w1 + b*w2.

    Weyl dimension formula over the six positive roots, computed from the
    root-system data: the product of (lambda + rho, alpha) over the
    product of (rho, alpha), as one exact integer quotient.
    """
    if a < 0 or b < 0:
        raise ValueError("highest weight must be dominant")
    w1, w2 = FUNDAMENTAL
    shifted = (a + 1) * w1 + (b + 1) * w2  # lambda + rho, with rho = w1 + w2
    rho = w1 + w2
    return _exact_quotient(prod(inner(shifted, r) for r in POSITIVE_ROOTS), prod(inner(rho, r) for r in POSITIVE_ROOTS))


def _exact_quotient(num: int, den: int) -> int:
    """num / den for integers, raising ArithmeticError unless den divides num."""
    q, r = divmod(num, den)
    if r:
        raise ArithmeticError(f"Weyl dimension quotient {num}/{den} is not an integer")
    return q


# ---------------------------------------------------------------------------
# Schur functor dimensions of a 7-dimensional space
# ---------------------------------------------------------------------------


def gl7_schur_dim(shape) -> int:
    """Dimension of the Schur functor S_shape applied to a 7-space.

    Weyl dimension formula for GL7: with the shape padded to seven parts,
    the product of (l_i - l_j + j - i) over the 21 pairs i < j divided by
    the product of (j - i), as one exact integer quotient.  The shape is
    a weakly decreasing tuple of non-negative integers, and more than 7
    parts give 0.
    """
    n = 7
    shape = tuple(int(p) for p in shape if p)
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)) or any(p < 0 for p in shape):
        raise ValueError(f"not a partition: {shape}")
    if len(shape) > n:
        return 0
    lam = shape + (0,) * (n - len(shape))
    pairs = list(combinations(range(n), 2))
    return _exact_quotient(prod(lam[i] - lam[j] + j - i for i, j in pairs), prod(j - i for i, j in pairs))
