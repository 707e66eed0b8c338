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
from .equivariant import SchubertVector, degrees, labels_by_codim, top_by_duality
from .exact import HomogPoly, poly_mul
from .weightmodel import g2_irrep_dim, gl7_schur_dim


def elementary_symmetric(weights):
    """[e_0, ..., e_n] of the linear forms of the n weights.

    One factor (1 + w) at a time: e_k <- e_k + e_{k-1} w, for k from the
    top down so that e_{k-1} is still the value before this factor.
    """
    e = [HomogPoly.constant(1)] + [HomogPoly.zero(k) for k in range(1, len(weights) + 1)]
    for n, w in enumerate(weights, 1):
        form = w.poly()
        for k in range(n, 0, -1):
            e[k] = e[k] + poly_mul(e[k - 1], form)
    return e


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
    (hyperplane,) = labels_by_codim()[1]
    if out[1] != SchubertVector({hyperplane: 4}):
        raise ArithmeticError("the first Chern class is not 4 times the hyperplane class")
    if out[DIMENSION] != SchubertVector({points[-1].label: len(points)}):
        raise ArithmeticError("the top Chern class does not integrate to the fixed point count")
    return out


def dual_degree():
    """Katz-Kleiman data: (coefficients of q^1..q^9, c'(1), c(1)).

    The q^(i+1) coefficient is the integral of c_{8-i} of the cotangent
    bundle times the i-th hyperplane power; when the derivative at 1 is
    nonzero, the projective dual is a hypersurface of that degree.
    """
    chern = chern_classes()
    degs = degrees()
    coeffs = []
    for i in range(DIMENSION + 1):
        m = DIMENSION - i
        if m == 0:
            val = degs[enumerate_fixed_points()[0].label]
        else:
            val = sum(c * degs[lab] for lab, c in chern[m].items())
        coeffs.append((-1) ** m * val)
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
