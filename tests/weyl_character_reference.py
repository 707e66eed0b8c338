"""The Weyl-character route to the exceptional rank-2 dimensions: the character reference of the test suite."""

from fractions import Fraction

from cayleygr.weightmodel import FUNDAMENTAL, WEYL_GROUP


def g2_irrep_dim_character_oracle(a: int, b: int) -> int:
    """Independent dimension via the alternating character sum.

    Evaluates the quotient of Weyl alternating sums at a generic
    one-parameter subgroup as exact Laurent polynomials in one variable,
    then specializes the quotient at 1.
    """
    w1, w2 = FUNDAMENTAL
    lam = a * w1 + b * w2
    rho = w1 + w2
    xi = (2, 3)  # pairing values of rho with (a, b): generic for all roots

    def orbit_sum(mu):
        acc = {}
        for w in WEYL_GROUP:
            e = mu.under(w).pair(xi)
            acc[e] = acc.get(e, 0) + w[0][0] * w[1][1] - w[0][1] * w[1][0]
        return {k: v for k, v in acc.items() if v}

    num = orbit_sum(lam + rho)
    den = orbit_sum(rho)
    # exact Laurent division: normalize each factor to lowest exponent 0
    # (the monomial shift is invisible after evaluating at 1)
    np = _dict_to_poly(num, -min(num))
    dp = _dict_to_poly(den, -min(den))
    q, r = _poly_divmod(np, dp)
    if any(r):
        raise ArithmeticError("Weyl denominator fails to divide")
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
        if c.denominator != 1:
            raise ArithmeticError("Weyl denominator fails to divide")
        c = int(c)
        q[i] = c
        for j, dc in enumerate(den):
            num[i + j] -= c * dc
    return q, num
