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
from .equivariant import SchubertVector, base_label, basis_vector, degree_of, hyperplane_label, point_label, top_by_duality
from .exact import HomogPoly
from .weightmodel import g2_irrep_dim, gl7_schur_dim


def elementary_symmetric(weights):
    """[e_0, ..., e_n] of the linear forms of the n weights.

    The product of the factors (1 + x a + y b) is expanded in one table of
    the monomials a^p b^q, and e_k is its degree-k part.  Each factor is
    multiplied in place from the top degree down, so a monomial still
    holds its value before this factor when it feeds the degree above.
    """
    table = {(0, 0): 1}
    for n, (x, y) in enumerate(weights):
        for d in range(n, -1, -1):
            for p in range(d + 1):
                q = d - p
                c = table.get((p, q))
                if c:
                    table[p + 1, q] = table.get((p + 1, q), 0) + x * c
                    table[p, q + 1] = table.get((p, q + 1), 0) + y * c
    return [HomogPoly(k, {(p, k - p): table.get((p, k - p), 0) for p in range(k + 1)}) for k in range(len(weights) + 1)]


@cache
def chern_classes():
    """Tangent Chern classes in the Schubert basis, k = 1..8.

    The localized total Chern class at a fixed point is the product of
    (1 + w) over the eight tangent weights; its degree-k piece is the
    k-th elementary symmetric polynomial, a genuine equivariant class.
    Its integral Schubert coordinates are its integrals against the dual
    classes (``equivariant.top_by_duality``), one certified fixed-point
    sum each.
    """
    points = enumerate_fixed_points()
    elementary = {p.label: elementary_symmetric(p.tangent) for p in points}
    out = {}
    for k in range(1, DIMENSION + 1):
        out[k] = top_by_duality({lab: e[k] for lab, e in elementary.items()})
    if out[1] != SchubertVector({hyperplane_label(): 4}):
        raise ArithmeticError("the first Chern class is not 4 times the hyperplane class")
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
    shape = tuple(shape)
    if any(p < 0 for p in shape):
        return 0
    if any(shape[i] < shape[i + 1] for i in range(len(shape) - 1)):
        return 0
    return gl7_schur_dim(tuple(p for p in shape if p))


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

    The counts equal the closed form at k = 0..10, more points than the 9
    that fix a polynomial of degree 8, so ``closed_form_value`` is the
    Hilbert polynomial.  Raises ArithmeticError unless it is also
    integer-valued on -10..10 and its leading term gives the degree 182.
    """
    counts = {k: hilbert_value(k) for k in range(11)}
    for k, value in counts.items():
        if value != closed_form_value(k):
            raise ArithmeticError(f"Koszul value and closed form disagree at {k}: {value} vs {closed_form_value(k)}")
    for k in range(-10, 11):
        if closed_form_value(k).denominator != 1:
            raise ArithmeticError(f"polynomial not integer-valued at {k}")
    lead = leading_degree(counts)
    if lead != 182:
        raise ArithmeticError(f"leading term gives degree {lead}, expected 182")
    return counts


def quadric_count() -> int:
    """Quadrics through the variety inside its linear span."""
    p = hilbert_polynomial()
    span_dim = p[1]            # 28: the span is a P^27
    if span_dim != 28:
        raise ArithmeticError(f"linear span has dimension {span_dim}, expected 28")
    return comb(span_dim + 1, 2) - p[2]


def equivariant_series_check(k_max: int):
    """Section dimensions as sums of irreducible dimensions.

    Verifies sum over i + 2j <= k of dim V(2i w1 + 2j w2) = P(k) for
    k = 0..k_max; returns the list of (k, lhs, rhs) triples.
    """
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    hilbert_polynomial()  # certifies the closed form as the Hilbert polynomial
    rows = []
    lhs = 0
    for k in range(k_max + 1):
        # the running sum gains the terms with i + 2j = k
        lhs += sum(g2_irrep_dim(2 * (k - 2 * j), 2 * j) for j in range(k // 2 + 1))
        rhs = closed_form_value(k)
        if lhs != rhs:
            raise ArithmeticError(f"series identity fails at k = {k}: {lhs} != {rhs}")
        rows.append((k, lhs, int(rhs)))
    return rows
