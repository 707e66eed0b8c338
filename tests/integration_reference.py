"""The integration references of the test suite: products as folds of ``poly_mul``, integration in one coefficient table."""

from collections import Counter
from fractions import Fraction
from math import gcd, lcm, prod

from cayleygr.cayley import DIMENSION, enumerate_fixed_points, point_by_label, repelling_weights
from cayleygr.equivariant import _degree, _localization_denominator
from cayleygr.exact import HomogPoly, poly_mul, sum_of_products


def reference_pointwise_product(*classes):
    """The vertexwise product of vertex maps as a fold of ``exact.poly_mul``, one form per factor and vertex.

    The same contract as ``equivariant.pointwise_product``: the vertices
    are those of the first map, each form's degree is the sum of its
    factors' degrees (a zero factor included), and a vertex missing from
    a later map raises ``KeyError``.
    """
    first, *rest = classes
    out = dict(first)
    for cls in rest:
        out = {lab: poly_mul(out[lab], cls[lab]) for lab in out}
    return out


def reference_normal_weight_product(label):
    """The product of the repelling tangent weights at a vertex, as a fold of ``exact.poly_mul``."""
    out = HomogPoly.constant(1)
    for w in repelling_weights(point_by_label(label).tangent):
        out = poly_mul(out, w.poly())
    return out


def localization_directions():
    """The primitive root directions of L, sorted, each as often as its largest multiplicity at one vertex."""
    mult = Counter()
    for p in enumerate_fixed_points():
        mult |= Counter(max(w.primitive(), -w.primitive()) for w in p.tangent)
    return sorted(mult.elements())


def reference_localization_denominator():
    """The L of ``equivariant._localization_denominator``: lcm(m_q) times the directions, as a fold of ``exact.poly_mul``."""
    denominator = HomogPoly.constant(lcm(*(prod(gcd(*w) for w in p.tangent) for p in enumerate_fixed_points())))
    for d in localization_directions():
        denominator = poly_mul(denominator, d.poly())
    return denominator


def reference_integrate(values, weights, extra):
    """sum_q f(q) w_q / L, with N = sum_q f(q) w_q built monomial by monomial.

    The same contract as ``equivariant._integrate``: N is one
    ``exact.sum_of_products`` (a weight of another degree puts a monomial
    of that degree in the table, which the form rejects with
    ``ValueError``), N = 0 below degree 8, and in degree 8 the form N must
    equal c L for one constant c, read off one monomial of L.
    """
    deg = _degree(values) + extra
    if deg > DIMENSION:
        raise ValueError(f"integration expects degree at most {DIMENSION}")
    denominator = _localization_denominator()[0]
    numerator = sum_of_products(((val, weights[lab]) for lab, val in values.items()), deg + denominator.degree - DIMENSION)
    if numerator.is_zero():
        return Fraction(0)
    if deg < DIMENSION:
        raise ArithmeticError("integral of under-degree data failed to vanish")
    mono = next(iter(denominator.coeffs))
    c = Fraction(numerator.coeffs.get(mono, 0), denominator.coeffs[mono])
    if numerator != denominator.scale(c):
        raise ArithmeticError("fixed-point sum is not a polynomial")
    return c
