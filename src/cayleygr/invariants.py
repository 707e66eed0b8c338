"""Characteristic classes and numerical invariants of the eightfold.

Chern classes of the tangent bundle by localization, the dual-degree
generating polynomial, the Hilbert polynomial (a closed form, certified
against the section counts of the Koszul resolution on G(4,7)), the
quadric count, and the equivariant Hilbert series identity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb

from .cayley import DIMENSION, enumerate_fixed_points
from .equivariant import SchubertVector, base_label, basis_vector, degree_of, point_label, top_by_duality
from .exact import HomogPoly
from .weightmodel import g2_irrep_dim, gl7_schur_dim


def elementary_symmetric(weights):
    """[e_0, ..., e_n] of the linear forms of the n weights.

    The product of the factors (1 + x a + y b) is expanded degree by
    degree, e_k held as its coefficients at a^p b^(k-p) for p = 0..k.
    Each factor is multiplied in place from the top degree down, so e_(k-1)
    still holds its value before this factor when it feeds e_k.
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


@cache
def chern_classes():
    """Tangent Chern classes in the Schubert basis, k = 1..8.

    The localized total Chern class at a fixed point is the product of
    (1 + w) over the eight tangent weights; its degree-k piece is the
    k-th elementary symmetric polynomial, a genuine equivariant class.
    Its integral Schubert coordinates are its integrals against the dual
    classes (``equivariant.top_by_duality``), one certified fixed-point
    sum each.  Raises ArithmeticError unless c_8 is the number of fixed
    points times the point class; c_1 is not compared with 4H here, the
    report does that.
    """
    points = enumerate_fixed_points()
    elementary = {p.label: elementary_symmetric(p.tangent) for p in points}
    out = {}
    for k in range(1, DIMENSION + 1):
        out[k] = top_by_duality({lab: e[k] for lab, e in elementary.items()})
    if out[DIMENSION] != SchubertVector({point_label(): len(points)}):
        raise ArithmeticError("the top Chern class does not integrate to the fixed point count")
    return out


def dual_degree():
    """Katz-Kleiman data: (coefficients of q^1..q^9, c'(1), c(1)).

    The q^(i+1) coefficient is the integral of c_{8-i} of the cotangent
    bundle times the i-th hyperplane power; when the derivative at 1 is
    nonzero, the projective dual is a hypersurface of that degree.
    """
    chern = {0: basis_vector(base_label())} | chern_classes()
    coeffs = [(-1) ** m * degree_of(chern[m]) for m in range(DIMENSION, -1, -1)]
    derivative = sum((i + 1) * c for i, c in enumerate(coeffs))
    value = sum(coeffs)
    return coeffs, derivative, value


# ---------------------------------------------------------------------------
# the Hilbert polynomial via the Koszul resolution
# ---------------------------------------------------------------------------


def _schur_dim_or_zero(shape):
    """gl7_schur_dim of a weakly decreasing shape, and 0 when a part is negative."""
    return 0 if min(shape) < 0 else gl7_schur_dim(shape)


def hilbert_value(k: int) -> int:
    """Alternating sum of section dimensions from the twisted Koszul complex.

    Each exterior power of the tautological bundle twists into a single
    Schur functor of its dual with a four-row weight; non-dominant weights
    contribute nothing for k >= 0.
    """
    if k < 0:
        raise ValueError("sections are only counted for non-negative twists")
    return (
        _schur_dim_or_zero((k, k, k, k))
        - _schur_dim_or_zero((k, k - 1, k - 1, k - 1))
        + _schur_dim_or_zero((k - 1, k - 1, k - 2, k - 2))
        - _schur_dim_or_zero((k - 2, k - 2, k - 2, k - 3))
        + _schur_dim_or_zero((k - 3, k - 3, k - 3, k - 3))
    )


def closed_form_value(k) -> Fraction:
    """(k+1)(k+2)^2(k+3)(13(k+2)^4 + 7(k+2)^2 + 4) / 2880."""
    k = Fraction(k)
    m = k + 2
    return (k + 1) * m**2 * (k + 3) * (13 * m**4 + 7 * m**2 + 4) / 2880


def leading_degree(counts) -> int:
    """The 8th finite difference of counts[0..8]: 8! times the leading coefficient, the degree."""
    return sum((-1) ** (DIMENSION - k) * comb(DIMENSION, k) * counts[k] for k in range(DIMENSION + 1))


@cache
def hilbert_polynomial() -> dict:
    """The Koszul section counts {k: P(k)} for k = 0..10, certified.

    The counts must equal the closed form at k = 0..15.  Once k >= 3 no
    Koszul shape has a negative part and each term is a polynomial of
    degree 12 in k, so 13 points with k >= 3 pin the count without
    assuming the degree 8 of the variety: ``closed_form_value`` is the
    Hilbert polynomial.  Raises ArithmeticError unless it is also
    integer-valued on -10..10.  The degree, P(1) and P(2) are compared
    with the paper in the report, not here.
    """
    counts = {k: hilbert_value(k) for k in range(16)}
    for k, value in counts.items():
        if value != closed_form_value(k):
            raise ArithmeticError(f"Koszul value and closed form disagree at {k}: {value} vs {closed_form_value(k)}")
    for k in range(-10, 11):
        if closed_form_value(k).denominator != 1:
            raise ArithmeticError(f"polynomial not integer-valued at {k}")
    return {k: counts[k] for k in range(11)}


def quadric_count() -> int:
    """Quadrics through the variety inside its linear span P^(P(1) - 1).

    P(1) is not compared with the paper's 28 here: the report does that.
    """
    p = hilbert_polynomial()
    return comb(p[1] + 1, 2) - p[2]


def equivariant_series_check(k_max: int):
    """Section dimensions as sums of irreducible dimensions.

    The rows (k, lhs, rhs) for k = 0..k_max: lhs is the sum over
    i + 2j <= k of dim V(2i w1 + 2j w2) and rhs the exact value P(k) of the
    closed form.  It does not raise when lhs != rhs: the report compares them.
    """
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    hilbert_polynomial()  # certifies the closed form as the Hilbert polynomial
    rows = []
    lhs = 0
    for k in range(k_max + 1):
        # the running sum gains the terms with i + 2j = k
        lhs += sum(g2_irrep_dim(2 * (k - 2 * j), 2 * j) for j in range(k // 2 + 1))
        rows.append((k, lhs, closed_form_value(k)))
    return rows
