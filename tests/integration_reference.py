"""The integration references of the test suite: vertexwise products as a fold, integration in one coefficient table."""

from fractions import Fraction

from cayleygr.cayley import DIMENSION
from cayleygr.equivariant import _degree, _localization_denominator
from cayleygr.exact import poly_mul, sum_of_products


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
