"""Characteristic classes and numerical invariants of the eightfold.

Chern classes of the tangent bundle by localization, the dual-degree
generating polynomial, the Hilbert polynomial through the Koszul
resolution on G(4,7), the quadric count, and the equivariant Hilbert
series identity.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import factorial

from .cayley import DIMENSION, enumerate_fixed_points
from .equivariant import SchubertVector, degrees, solve_all_classes, top_expansion
from .exact import HomogPoly, binomial, poly_mul
from .weightmodel import g2_irrep_dim, gl7_schur_dim


@cache
def chern_classes():
    """Tangent Chern classes in the Schubert basis, k = 1..8.

    The localized total Chern class at a fixed point is the product of
    (1 + w) over the eight tangent weights; its degree-k piece is the
    k-th elementary symmetric polynomial, a genuine equivariant class
    whose top expansion gives the integral Schubert coordinates.
    """
    solve_all_classes()
    points = enumerate_fixed_points()
    out = {}
    for k in range(1, DIMENSION + 1):
        values = {}
        for p in points:
            total = HomogPoly.zero(k)
            for combo in combinations(p.tangent, k):
                term = HomogPoly.constant(1)
                for w in combo:
                    term = poly_mul(term, w.poly())
                total = total + term
            values[p.label] = total
        out[k] = top_expansion(values)
    if out[1] != SchubertVector({"1": 4}):
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


def _poly_from_samples(xs, ys):
    """Lagrange interpolation; coefficient list, lowest degree first."""
    n = len(xs)
    coeffs = [Fraction(0)] * n
    for i in range(n):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j in range(n):
            if j == i:
                continue
            basis = [Fraction(0)] + basis[:]
            shifted = [c * (-xs[j]) for c in basis[1:]] + [Fraction(0)]
            basis = [b + s for b, s in zip(basis, shifted + [Fraction(0)] * (len(basis) - len(shifted)))]
            denom *= xs[i] - xs[j]
        scale = Fraction(ys[i]) / denom
        for d in range(len(basis)):
            coeffs[d] += scale * basis[d]
    return coeffs


def _poly_eval(coeffs, x):
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


class HilbertData:
    """Exact degree-8 polynomial with sampled values."""

    def __init__(self, coeffs, samples):
        self.coeffs = coeffs          # Fractions, constant term first
        self.samples = samples        # {k: value}

    def value(self, k):
        return _poly_eval(self.coeffs, Fraction(k))


@cache
def hilbert_polynomial() -> HilbertData:
    """The degree-8 polynomial interpolating the Koszul section counts.

    Asserts equality with the closed form at k = 0..10, integrality on
    -10..10, and the leading coefficient times 8! equal to the degree 182.
    """
    xs = [Fraction(k) for k in range(DIMENSION + 1)]
    ys = [hilbert_value(k) for k in range(DIMENSION + 1)]
    coeffs = _poly_from_samples(xs, ys)
    for k in range(11):
        want = closed_form_value(k)
        got = _poly_eval(coeffs, Fraction(k))
        if got != want or (k <= 10 and hilbert_value(k) != want):
            raise ArithmeticError(f"Koszul value and closed form disagree at {k}: {got} vs {want}")
    for k in range(-10, 11):
        if _poly_eval(coeffs, Fraction(k)).denominator != 1:
            raise ArithmeticError(f"polynomial not integer-valued at {k}")
    lead = coeffs[DIMENSION] * factorial(DIMENSION)
    if lead != 182:
        raise ArithmeticError(f"leading term gives degree {lead}, expected 182")
    return HilbertData(coeffs, {k: int(_poly_eval(coeffs, Fraction(k))) for k in range(11)})


def quadric_count() -> int:
    """Quadrics through the variety inside its linear span."""
    p = hilbert_polynomial()
    span_dim = p.samples[1]            # 28: the span is a P^27
    assert span_dim == 28
    return binomial(span_dim + 1, 2) - p.samples[2]


def linear_forms_in_span() -> int:
    p = hilbert_polynomial()
    return p.samples[1] - 28


def linear_forms_in_plucker() -> int:
    """Linear forms vanishing on the variety inside P(wedge^3 V7)."""
    p = hilbert_polynomial()
    return binomial(7, 3) - p.samples[1]


def equivariant_series_check(k_max: int):
    """Section dimensions as sums of irreducible dimensions.

    Verifies sum over i + 2j <= k of dim V(2i w1 + 2j w2) = P(k) for
    k = 0..k_max; returns the list of (k, lhs, rhs) triples.
    """
    if k_max < 0:
        raise ValueError("k_max must be non-negative")
    p = hilbert_polynomial()
    rows = []
    for k in range(k_max + 1):
        lhs = 0
        for i in range(k + 1):
            for j in range((k - i) // 2 + 1):
                if i + 2 * j <= k:
                    lhs += g2_irrep_dim(2 * i, 2 * j)
        rhs = p.value(k)
        if lhs != rhs:
            raise ArithmeticError(f"series identity fails at k = {k}: {lhs} != {rhs}")
        rows.append((k, lhs, int(rhs)))
    return rows
