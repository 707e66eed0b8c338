"""Classical Schubert calculus on G(4,7) and the restriction to the subvariety.

The intersection ring is modelled by symmetric polynomials in the four
Chern roots of the dual tautological bundle U*: the Schur polynomial
s_lam maps to the Schubert class tau_lam, and partitions outside the 4x3
box die (``box_class``).  A class is an ``equivariant.SchubertVector``
keyed by box partitions, the type that carries the subvariety's classes
keyed by fixed-point labels; its integral is its coefficient at the full
box (3, 3, 3, 3).
Each box class tau_mu is one dual Jacobi-Trudi determinant
det(e_(mu'_i - i + j)) in e_1..e_4 of U*, kept as its signed terms
(``jacobi_trudi_terms``).  A Littlewood-Richardson product a b applies
every term of each tau_mu in b to a as Pieri steps, tau_lam e_k being
the sum of tau_nu over the vertical k-strips nu/lam in the box, with no
polynomial product; the test suite holds it to the polynomial product
and to a tableau count.  Integrals of products pair box complements.

Also computes the fundamental class cg of the three-form zero locus, the
image lattice index, and ambient-side pairings of the tangent Chern
classes, off one cached table of cg tau_1^p, that cross-check the
localization route.  Series in the four roots are tables over packed
monomials, a unit 1 + L with L of one degree is multiplied in or divided
out by one integer sweep, and Schur coordinates are read off the
antisymmetrizer.
The Chern roots of Lambda^3 U* give four such units, 1 + e1 - x_l,
stated once: the zero locus class c_4(Lambda^3 U*) is the degree-4 piece
of their product, and the tangent Chern classes c(T) = c(U*)^7 /
(c(U* (x) U) c(Lambda^3 U*)) come from the tautological sequence as a
table of binomial products divided by 10 units, these four and one
quadratic unit for each pair of roots.

The restriction onto the 15-class Schubert basis is a ring map, fixed by
the images of e_1..e_4 of U*: each is localized (the elementary symmetric
forms of the tautological weights) and paired with the dual classes, the
images must kill h_4..h_8, and each box class is its Jacobi-Trudi terms
multiplied out in them.  The degree pairings and the hyperplane products
check the table: tau_1 tau_lam by ``lr_multiply`` (Pieri) upstairs, by
Monk downstairs.
"""

from __future__ import annotations

from functools import cache, reduce
from itertools import combinations, permutations
from math import comb, prod

from .cayley import DIMENSION, enumerate_fixed_points
from .exact import permutation_sign, smith_normal_form
from . import equivariant
from .equivariant import SchubertVector, basis_vector, labels_by_codim
from .invariants import elementary_symmetric
from .weightmodel import BASIS_WEIGHTS

BOX_ROWS = 4
BOX_COLS = 3
_DELTA = (3, 2, 1, 0)  # staircase of the antisymmetrizer in four variables
# a_delta = sum_sigma sgn(sigma) x^(sigma delta), as (sigma delta, sgn sigma) pairs
_ANTISYMMETRIZER = tuple((tuple(_DELTA[i] for i in p), permutation_sign(p)) for p in permutations(range(BOX_ROWS)))


@cache
def box_partitions(size=None):
    """Partitions inside the 4x3 box, optionally of a fixed size, as a tuple."""
    out = []
    for a in range(BOX_COLS + 1):
        for b in range(a + 1):
            for c in range(b + 1):
                for d in range(c + 1):
                    lam = tuple(p for p in (a, b, c, d) if p)
                    if size is None or sum(lam) == size:
                        out.append(lam)
    return tuple(sorted(out, key=lambda l: (sum(l), l)))


def partition_name(lam):
    return "".join(str(p) for p in lam) if lam else "0"


def parse_partition(name):
    if name in ("0", ""):
        return ()
    return tuple(int(ch) for ch in name)


# ---------------------------------------------------------------------------
# symmetric polynomials in the four Chern roots
# ---------------------------------------------------------------------------


_BITS = DIMENSION.bit_length()  # binary digits per packed exponent; no kept exponent exceeds DIMENSION


def _packed_monomials(nvars, max_deg):
    """(exponent vector, packed int) of every monomial of degree <= max_deg, by degree.

    Each exponent is a ``_BITS``-digit binary field, so for max_deg <=
    DIMENSION a monomial of degree < max_deg times one variable is one
    integer addition.
    """
    exponents = [()]
    for _ in range(nvars):
        exponents = [m + (e,) for m in exponents for e in range(max_deg - sum(m) + 1)]
    return [(m, sum(e << _BITS * i for i, e in enumerate(m))) for m in sorted(exponents, key=sum)]


_X = tuple(1 << _BITS * i for i in range(BOX_ROWS))  # the four roots x_i of U*, packed
# the Chern roots of Lambda^3 U* are the triple sums x_i + x_j + x_k = e1 - x_l: units 1 + e1 - x_l
_WEDGE3_UNITS = tuple(tuple((y, 1) for y in _X if y != xl) for xl in _X)


def _divide_by_unit(series, unit, lower):
    """Divide a truncated series by the unit 1 + L, in place.

    ``series`` maps every packed monomial up to the truncation degree to
    its coefficient, ``unit`` holds (packed monomial, coefficient) for the
    terms of L, each of one positive degree d, and ``lower`` lists the
    packed monomials more than d below the truncation degree in
    increasing degree.  The quotient solves q = series - L q:
    by the time the sweep reaches m, q_m is final, and c q_m leaves
    q_{m+v} for each term c x^v of L.  Integers only, and no division.
    """
    for m in lower:
        q = series[m]
        if q:
            for v, c in unit:
                series[m + v] -= c * q


def _multiply_by_unit(series, unit, lower):
    """Multiply a truncated series by the linear unit 1 + L, in place.

    The inverse of ``_divide_by_unit``, on the same arguments.  The sweep
    runs in decreasing degree, so s_m still holds the input coefficient
    when c s_m is added to s_{m+v}.
    """
    for m in reversed(lower):
        s = series[m]
        if s:
            for v, c in unit:
                series[m + v] += c * s


def _schur_coordinates(piece, size):
    """The class of a symmetric polynomial P given at every exponent vector of one degree.

    [s_nu] P = [x^(nu + delta)] (P a_delta) = sum_sigma sgn(sigma) P[nu + delta - sigma delta],
    read for the box shapes nu only.  Raises ArithmeticError unless P[m] = P[sorted m].
    """
    for m, c in piece.items():
        if c != piece[tuple(sorted(m, reverse=True))]:
            raise ArithmeticError(f"input not symmetric: coefficient {c} at {m}")
    coords = {}
    for nu in box_partitions(size):
        n0, n1, n2, n3 = (p + d for p, d in zip(nu + (0,) * (BOX_ROWS - len(nu)), _DELTA))  # nu + delta
        coords[nu] = sum(sign * piece.get((n0 - s0, n1 - s1, n2 - s2, n3 - s3), 0) for (s0, s1, s2, s3), sign in _ANTISYMMETRIZER)
    return box_class(coords)


# ---------------------------------------------------------------------------
# the intersection ring
# ---------------------------------------------------------------------------


def box_class(coeffs) -> SchubertVector:
    """The class of an integer combination of shapes: shapes outside the 4x3 box die."""
    return SchubertVector({lam: c for lam, c in coeffs.items() if len(lam) <= BOX_ROWS and max(lam, default=0) <= BOX_COLS})


@cache
def jacobi_trudi_terms(lam):
    """tau_lam = det(e_(lam'_i - i + j)) for a box shape, as (sign, (k_1, ..., k_r)) terms.

    lam' has at most three parts, so the determinant is at most 3x3
    (Macdonald, Symmetric Functions and Hall Polynomials, I.3).  With
    e_0 = 1, zero indices are left out, and a term with an index below 0
    or above 4 is dropped.
    """
    cols = [c for c in (sum(row > j for row in lam) for j in range(BOX_COLS)) if c]
    terms = []
    for p in permutations(range(len(cols))):
        ks = [c - i + j for i, (c, j) in enumerate(zip(cols, p))]
        if all(0 <= k <= BOX_ROWS for k in ks):
            terms.append((permutation_sign(p), tuple(k for k in ks if k)))
    return tuple(terms)


def dual_jacobi_trudi(lam, start, times):
    """start tau_lam as the sum of its ``jacobi_trudi_terms``, where times(x, k) is x e_k."""
    return equivariant.schubert_sum((sign, reduce(times, ks, start)) for sign, ks in jacobi_trudi_terms(lam))


@cache
def _vertical_strips(lam, k):
    """tau_lam e_k by the Pieri rule: tau_nu for each box shape nu with nu/lam a vertical k-strip (Macdonald I.5)."""
    padded = lam + (0,) * (BOX_ROWS - len(lam))
    out = {}
    for rows in combinations(range(BOX_ROWS), k):
        nu = [p + (i in rows) for i, p in enumerate(padded)]
        if nu[0] <= BOX_COLS and all(x >= y for x, y in zip(nu, nu[1:])):
            out[tuple(p for p in nu if p)] = 1
    return SchubertVector(out)


def _pieri_step(a, k):
    """a e_k, one ``_vertical_strips`` sum per shape of a."""
    return equivariant.schubert_sum((c, _vertical_strips(lam, k)) for lam, c in a.items())


def lr_multiply(a: SchubertVector, b: SchubertVector) -> SchubertVector:
    """Littlewood-Richardson product truncated to the box.

    Both factors are cut to the box.  Each tau_mu of b is then expanded
    by ``dual_jacobi_trudi`` with Pieri steps on a, so the small factor
    goes second.
    """
    a = box_class(a)
    return equivariant.schubert_sum((c, dual_jacobi_trudi(mu, a, _pieri_step)) for mu, c in box_class(b).items())


def duality_pairing(a: SchubertVector, b: SchubertVector) -> int:
    """Integral of a * b over G(4,7) by Poincare duality.

    The integral of tau_lam tau_mu is 1 when mu is the complement of lam
    in the 4x3 box (mu_i = 3 - lam_{5-i}), and 0 otherwise.
    """
    total = 0
    for lam, c in a.items():
        padded = lam + (0,) * (BOX_ROWS - len(lam))
        total += c * b[tuple(p for p in (BOX_COLS - q for q in reversed(padded)) if p)]
    return total


# ---------------------------------------------------------------------------
# the fundamental class of the three-form zero locus
# ---------------------------------------------------------------------------


@cache
def cg_class() -> SchubertVector:
    """The class of the three-form zero locus: the top Chern class c_4(Lambda^3 U*).

    The Chern roots of Lambda^3 U* are the triple sums x_i + x_j + x_k =
    e1 - x_l (``_WEDGE3_UNITS``).  The constant series 1 is multiplied in
    place by the four units 1 + e1 - x_l, truncated at degree 4, and the
    Schur coordinates of its degree-4 piece prod_l (e1 - x_l) are read off
    (``_schur_coordinates``).  That route is
    cross-checked against the same product as e2 e1^2 - e3 e1 + e4 in the
    ring, by Littlewood-Richardson products.
    """
    monomials = _packed_monomials(BOX_ROWS, BOX_ROWS)
    series = {key: int(key == 0) for _, key in monomials}
    lower = [key for m, key in monomials if sum(m) < BOX_ROWS]
    for unit in _WEDGE3_UNITS:
        _multiply_by_unit(series, unit, lower)
    direct = _schur_coordinates({m: series[key] for m, key in monomials if sum(m) == BOX_ROWS}, BOX_ROWS)

    t = basis_vector
    e_route = (
        lr_multiply(lr_multiply(t((1, 1)), t((1,))), t((1,)))
        - lr_multiply(t((1, 1, 1)), t((1,)))
        + t((1, 1, 1, 1))
    )
    if direct != e_route:
        raise ArithmeticError("two routes to the zero-locus class disagree")
    return direct


def cg_pairing(a: SchubertVector, b: SchubertVector) -> int:
    """Integral of a * b over the zero locus: cg * a paired with b by Poincare duality."""
    return duality_pairing(lr_multiply(cg_class(), a), b)


@cache
def cg_hyperplane_powers():
    """cg tau_1^p for p = 0..8, one Pieri step each."""
    powers = [cg_class()]
    for _ in range(DIMENSION):
        powers.append(lr_multiply(powers[-1], basis_vector((1,))))
    return tuple(powers)


# ---------------------------------------------------------------------------
# the restriction map
# ---------------------------------------------------------------------------


@cache
def localized_generators():
    """e_0..e_4 of U* as vertex maps: the elementary symmetric forms of the tautological weights."""
    values = {p.label: elementary_symmetric([BASIS_WEIGHTS[i] for i in p.four_space]) for p in enumerate_fixed_points()}
    return tuple({lab: e[k] for lab, e in values.items()} for k in range(BOX_ROWS + 1))


def generator_images():
    """[rho(e_0), ..., rho(e_4)]: the fundamental class, then e_1..e_4 by ``equivariant.top_by_duality``."""
    return [basis_vector(equivariant.base_label())] + [equivariant.top_by_duality(e) for e in localized_generators()[1:]]


def check_generator_relations(e):
    """Raise ArithmeticError unless the images e of e_0..e_4 map h_4..h_8 to 0.

    H*(G(4,7)) is Z[e_1..e_4] modulo h_4..h_7, where h_0 = 1 and h_k =
    sum_{i=1..min(k,4)} (-1)^(i-1) e_i h_(k-i) is the row class tau_(k).
    """
    h = [e[0]]
    for k in range(1, DIMENSION + 1):
        terms = (((-1) ** (i - 1), equivariant.schubert_product(e[i], h[k - i])) for i in range(1, min(k, BOX_ROWS) + 1))
        h.append(equivariant.schubert_sum(terms))
    failures = [f"h{k} = {h[k]}" for k in range(BOX_COLS + 1, DIMENSION + 1) if not h[k].is_zero()]
    if failures:
        raise ArithmeticError("generator images fail the Grassmannian relations: " + "; ".join(failures))


@cache
def restriction_table():
    """Restriction of every box class of size <= 8 to the Schubert basis.

    Only e_1..e_4 of U*, which generate H*(G(4,7)), are localized and
    top-expanded.  Once their images pass ``check_generator_relations``,
    each tau_lam is its ``dual_jacobi_trudi`` terms multiplied out in them,
    and ``check_restriction`` holds the table to the degree pairings and
    the hyperplane product.
    """
    e = generator_images()
    check_generator_relations(e)
    def times(x, k):
        return equivariant.schubert_product(x, e[k])

    table = {lam: dual_jacobi_trudi(lam, e[0], times) for lam in box_partitions() if sum(lam) <= DIMENSION}
    check_restriction(table)
    return table


def tau11_square_routes(table):
    """rho(tau_11^2) mapped through the table, and the localized (e_2)^2 by ``equivariant.top_by_duality``."""
    upstairs = lr_multiply(basis_vector((1, 1)), basis_vector((1, 1)))
    e2 = localized_generators()[2]
    through_table = equivariant.schubert_sum((c, table[nu]) for nu, c in upstairs.items())
    return through_table, equivariant.top_by_duality(equivariant.pointwise_product(e2, e2))


def check_restriction(table):
    """Raise ArithmeticError unless a restriction table passes two checks.

    Degree: the image of tau_lam has degree cg_pairing(tau_lam,
    tau_1^(8 - |lam|)), read off ``cg_hyperplane_powers``.  Hyperplane:
    for |lam| < 8, the image of tau_1 tau_lam is the same whether the
    product is taken upstairs, by the Pieri case of ``lr_multiply``, and
    mapped through the table, or taken downstairs on the image of tau_lam
    by the Monk rule.
    """
    cut = cg_hyperplane_powers()
    monk = equivariant.monk_matrix()
    failures = []
    for lam, image in table.items():
        k = sum(lam)
        name = partition_name(lam)
        degree = equivariant.degree_of(image)
        pairing = duality_pairing(basis_vector(lam), cut[DIMENSION - k])
        if degree != pairing:
            failures.append(f"t{name} has degree {degree}, cg_pairing {pairing}")
        if k < DIMENSION:
            upstairs = lr_multiply(basis_vector(lam), basis_vector((1,)))
            pieri = equivariant.schubert_sum((c, table[mu]) for mu, c in upstairs.items())
            hyperplane = equivariant.schubert_sum((c, SchubertVector(monk[lab])) for lab, c in image.items())
            if pieri != hyperplane:
                failures.append(f"t1 t{name} is {pieri} by Pieri, {hyperplane} by Monk")
    if failures:
        raise ArithmeticError("restriction table fails its checks: " + "; ".join(failures))


@cache
def image_index_profile():
    """Index of the restriction image lattice in each codimension; the lattice's index is their product.

    In codimension k: the product of the invariant factors of the images
    of the ambient classes of size k, which must all be nonzero.
    """
    table = restriction_table()
    by_codim = labels_by_codim()
    out = {}
    for k in range(DIMENSION + 1):
        classes = by_codim[k]
        rows = [[table[lam][lab] for lab in classes] for lam in box_partitions(size=k)]
        nonzero = [d for d in smith_normal_form(rows) if d]
        if len(nonzero) != len(classes):
            raise ArithmeticError(f"restriction image not of full rank in codimension {k}")
        out[k] = prod(nonzero)
    return out


# ---------------------------------------------------------------------------
# ambient route to the tangent Chern pairings (cross-check of localization)
# ---------------------------------------------------------------------------

def _dual_chern_power(monomials, power):
    """c(U*)^power = prod_i (1 + x_i)^power on the packed monomials: prod_i C(power, m_i) at x^m."""
    binomials = [comb(power, e) for e in range(DIMENSION + 1)]
    return {key: prod(map(binomials.__getitem__, m)) for m, key in monomials}


@cache
def tangent_chern_ambient():
    """Graded pieces of c(T_G) / c(Lambda^3 U*) as ambient classes.

    The tangent bundle of G(4,7) is U* (x) Q, and tensoring the tautological
    sequence 0 -> U -> C^7 -> Q -> 0 with U* gives
    c(U* (x) Q) = c(U*)^7 / c(U* (x) U).  In the four Chern roots x of U*,

        c(T) = prod_i (1 + x_i)^7 / (prod_{i<j} (1 - (x_i - x_j)^2)
                                     * prod_l (1 + e1 - x_l)).

    The numerator's coefficient at x^m is prod_i C(7, m_i).  The
    denominator is 10 units: 1 - x_i^2 + 2 x_i x_j - x_j^2 for the 6 pairs,
    and the Chern roots 1 + e1 - x_l of Lambda^3 U* (``_WEDGE3_UNITS``).
    The numerator is divided by one unit at a time, truncated at the
    dimension (``_divide_by_unit``).  Each graded piece is symmetric; its
    Schur coordinates, read off by ``_schur_coordinates``, give the class.
    """
    monomials = _packed_monomials(BOX_ROWS, DIMENSION)
    series = _dual_chern_power(monomials, BOX_ROWS + BOX_COLS)  # c(U* (x) C^7)
    lower = {d: [key for m, key in monomials if sum(m) <= DIMENSION - d] for d in (1, 2)}  # by the unit's degree
    for xi, xj in combinations(_X, 2):
        _divide_by_unit(series, ((2 * xi, -1), (xi + xj, 2), (2 * xj, -1)), lower[2])
    for unit in _WEDGE3_UNITS:
        _divide_by_unit(series, unit, lower[1])

    graded = {k: {} for k in range(DIMENSION + 1)}
    for m, key in monomials:
        graded[sum(m)][m] = series[key]
    return {k: _schur_coordinates(p, k) for k, p in graded.items()}


def tangent_chern_pairings():
    """Ambient-side degrees of the Chern classes c_k of the tangent sheaf of the zero locus.

    Returns {k: int}, the integral of c_k sigma_1^(8-k): the k-th piece of
    ``tangent_chern_ambient`` paired with cg tau_1^(8-k)
    (``cg_hyperplane_powers``) by Poincare duality, with no
    Littlewood-Richardson product.
    """
    pieces = tangent_chern_ambient()
    cut = cg_hyperplane_powers()
    return {k: duality_pairing(pieces[k], cut[DIMENSION - k]) for k in range(DIMENSION + 1)}
