"""Schur polynomials by the branching rule: the polynomial reference of the test suite."""

from functools import cache
from itertools import product


@cache
def schur_poly(shape, nvars=4):
    """Schur polynomial in nvars variables, as {exponent tuple: coefficient}.

    s_lam(x_1..x_n) = sum over mu interlacing lam (lam_1 >= mu_1 >= lam_2
    >= ... >= mu_{n-1} >= lam_n) of s_mu(x_1..x_{n-1}) x_n^(|lam| - |mu|)
    (Macdonald, Symmetric Functions and Hall Polynomials, I.5).  Every
    coefficient is a positive Kostka number, so nothing cancels.
    """
    shape = tuple(p for p in shape if p)
    if len(shape) > nvars:
        return {}
    if nvars == 0:
        return {(): 1}
    padded = shape + (0,) * (nvars - len(shape))
    out = {}
    for mu in product(*(range(padded[i + 1], padded[i] + 1) for i in range(nvars - 1))):
        last = sum(shape) - sum(mu)
        for mono, c in schur_poly(tuple(p for p in mu if p), nvars - 1).items():
            key = mono + (last,)
            out[key] = out.get(key, 0) + c
    return out
