import contextlib
import json
import operator
import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import gcd, prod
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from cayleygr import exact
from cayleygr.exact import (
    GaussianRational,
    HomogPoly,
    PackedForms,
    _balanced_digits,
    divide_by_linear,
    format_gaussian,
    kronecker_value,
    matrix_rank,
    nullspace,
    poly_mul,
    scalar,
    smith_normal_form,
    solve_rational,
    sum_of_products,
)


ALPHA = HomogPoly.linear(1, 0)
BETA = HomogPoly.linear(0, 1)
GAMMA = HomogPoly.linear(-1, -1)  # g = -a - b


def test_poly_mul_basis():
    assert poly_mul(ALPHA, BETA) == HomogPoly(2, {(1, 1): 1})
    apb = ALPHA + BETA
    assert poly_mul(apb, apb) == HomogPoly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1})
    # (-g)*(-g) with g = -a-b equals a^2 + 2ab + b^2 after alias elimination
    assert poly_mul(-GAMMA, -GAMMA) == poly_mul(apb, apb)


def test_divide_by_linear_examples():
    f = poly_mul(ALPHA + BETA, ALPHA - BETA)  # a^2 - b^2
    assert divide_by_linear(f, 1, -1) == ALPHA + BETA
    assert divide_by_linear(poly_mul(ALPHA, BETA), 1, 1) is None
    assert divide_by_linear(HomogPoly.zero(3), 1, 0).is_zero()
    with pytest.raises(ZeroDivisionError):
        divide_by_linear(f, 0, 0)


@st.composite
def homog_polys(draw, max_degree=5):
    d = draw(st.integers(min_value=0, max_value=max_degree))
    coeffs = {}
    for p in range(d + 1):
        coeffs[(p, d - p)] = Fraction(
            draw(st.integers(min_value=-9, max_value=9)),
            draw(st.integers(min_value=1, max_value=9)),
        )
    return HomogPoly(d, coeffs)


@given(homog_polys(), st.integers(-5, 5), st.integers(-5, 5))
def test_divide_after_multiply_roundtrip(f, a, b):
    if a == 0 and b == 0:
        return
    L = HomogPoly.linear(a, b)
    assert divide_by_linear(poly_mul(f, L), a, b) == f


@given(homog_polys(max_degree=4), homog_polys(max_degree=4))
def test_poly_mul_commutes_and_grades(f, g):
    fg = poly_mul(f, g)
    assert fg == poly_mul(g, f)
    assert fg.degree == f.degree + g.degree


def test_gamma_substitution_commutes_with_product():
    # substituting g = -a-b before or after multiplying gives the same form:
    # both (-g)^2 computed from the alias and (a+b)^2 agree termwise
    lhs = poly_mul(GAMMA, GAMMA)
    rhs = poly_mul(ALPHA + BETA, ALPHA + BETA)
    assert lhs == rhs


def test_gaussian_field_ops():
    i = GaussianRational(0, 1)
    assert i * i == -1
    z = GaussianRational(Fraction(1, 2), Fraction(-3, 4))
    assert z * GaussianRational(z.re, -z.im) == Fraction(1, 4) + Fraction(9, 16)
    assert (z / z) == 1
    assert format_gaussian(z) == "1/2-3/4 i"
    assert format_gaussian(GaussianRational(5)) == "5"
    assert format_gaussian(GaussianRational(0, Fraction(-2, 3))) == "-2/3 i"


def _apply(rows, x):
    return [sum(a * v for a, v in zip(row, x)) for row in rows]


def test_solve_rational_unique_family_inconsistent():
    one = Fraction(1)
    assert solve_rational([[one, 0], [0, one]], [Fraction(2), Fraction(3)]) == [2, 3]

    with pytest.raises(ArithmeticError, match="a family of dimension 1"):
        solve_rational([[one, one]], [Fraction(0)])

    rows = [[one, 2, 0, Fraction(1, 2)], [2, 4, one, 3], [3, 6, one, Fraction(7, 2)]]
    with pytest.raises(ArithmeticError, match="a family of dimension 2"):
        solve_rational(rows, [Fraction(1), Fraction(5), Fraction(6)])

    with pytest.raises(ArithmeticError, match="inconsistent"):
        solve_rational([[one], [one]], [Fraction(0), Fraction(1)])


small_fractions = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def rational_systems(draw):
    """Small systems A x = b: generic, rank-deficient or inconsistent."""
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, 6))
    rows = [[draw(small_fractions) for _ in range(n)] for _ in range(m)]
    rhs = [draw(small_fractions) for _ in range(m)]
    kind = draw(st.sampled_from(["generic", "dependent column", "contradicting row"]))
    if kind == "dependent column" and n > 1:
        c = draw(small_fractions)
        for row in rows:
            row[-1] = c * row[0]
    elif kind == "contradicting row":
        rows.append(list(rows[0]))
        rhs.append(rhs[0] + 1)
    return rows, rhs


@settings(max_examples=150, deadline=None)
@given(rational_systems())
def test_solve_rational_matches_exact_elimination(system):
    rows, rhs = system
    n = len(rows[0])
    rank = matrix_rank(rows)
    augmented = matrix_rank([[*row, b] for row, b in zip(rows, rhs)])
    if augmented > rank:
        with pytest.raises(ArithmeticError, match="inconsistent"):
            solve_rational(rows, rhs)
    elif rank < n:
        with pytest.raises(ArithmeticError, match=f"a family of dimension {n - rank}$"):
            solve_rational(rows, rhs)
    else:
        assert _apply(rows, solve_rational(rows, rhs)) == rhs


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3), min_size=3, max_size=3),
    st.lists(st.integers(-3, 3), min_size=2, max_size=2),
    st.integers(2**68, 2**80),
    st.integers(1, 9),
)
def test_large_solution_is_exact(upper, others, big, den):
    # unit upper-triangular, so the system is nonsingular; the solution's
    # numerator is above 2^64, and no entry may lose precision
    rows = [[Fraction(1) if i == j else Fraction(upper[i][j]) if j > i else Fraction(0) for j in range(3)] for i in range(3)]
    x = [Fraction(big, den), *map(Fraction, others)]
    rhs = _apply(rows, x)
    assert solve_rational(rows, rhs) == x


def test_solve_over_gaussian_rationals():
    i = GaussianRational(0, 1)
    assert solve_rational([[i]], [GaussianRational(1)]) == [-i]


def test_rank_and_nullspace():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert matrix_rank(rows) == 1
    ker = nullspace(rows, 2)
    assert len(ker) == 1
    v = ker[0]
    assert rows[0][0] * v[0] + rows[0][1] * v[1] == 0


def _fraction_gauss_jordan(rows, ncols):
    """Reference Gauss-Jordan elimination that divides and subtracts whole rows.

    Every rational entry is made a Fraction first and every pivot row is
    divided through, whatever its pivot; returns the reduced rows and the
    pivot columns.
    """
    rows = [[x if isinstance(x, GaussianRational) else Fraction(x) for x in r] for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def _dense_rank_and_kernel(rows, ncols):
    """Rank and right kernel by the reference elimination."""
    rows, pivots = _fraction_gauss_jordan(rows, ncols)
    kernel = []
    for fc in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[fc] = 1
        for r, pc in enumerate(pivots):
            vec[pc] = -rows[r][fc]
        kernel.append(vec)
    return len(pivots), kernel


_SPARSE_ENTRIES = {
    "int": st.integers(-4, 4),
    "fraction": st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3)),
    "gaussian": st.builds(GaussianRational, st.integers(-3, 3), small_fractions),
}


@st.composite
def sparse_matrices(draw):
    """Mostly-zero matrices over one entry domain; zeros come as int 0 or the domain's own zero."""
    kind = draw(st.sampled_from(sorted(_SPARSE_ENTRIES)))
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 7))
    zero = {"int": 0, "fraction": Fraction(0), "gaussian": GaussianRational(0)}[kind]

    def entry():
        if draw(st.integers(0, 2)):
            return draw(st.sampled_from([0, zero]))
        return draw(_SPARSE_ENTRIES[kind])

    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if m > 1 and draw(st.booleans()):
        rows[-1] = [a + b for a, b in zip(rows[0], rows[-1])]  # a dependent row
    return rows, n


@settings(max_examples=200, deadline=None)
@given(sparse_matrices())
def test_rank_and_nullspace_match_dense_elimination(matrix):
    rows, n = matrix
    rank, kernel = _dense_rank_and_kernel(rows, n)
    assert matrix_rank(rows) == rank
    got = nullspace(rows, n)
    assert got == kernel
    assert len(got) == n - rank
    for v in got:
        assert _apply(rows, v) == [0] * len(rows)


# entries that make most pivots 1 or -1, with a few others so both paths run
_UNIT_RICH_ENTRIES = {
    "int": st.sampled_from([0, 0, 1, 1, -1, -1, 2, -3]),
    "gaussian": st.sampled_from([0, GaussianRational(0), GaussianRational(1), GaussianRational(-1), GaussianRational(0, 1),
                                 GaussianRational(1, 1), GaussianRational(2), GaussianRational(Fraction(1, 2), -1)]),
}


@st.composite
def unit_pivot_systems(draw):
    """Systems A x = b over ints or Gaussian rationals whose pivots are mostly 1 or -1."""
    entries = _UNIT_RICH_ENTRIES[draw(st.sampled_from(sorted(_UNIT_RICH_ENTRIES)))]
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows = [[draw(entries) for _ in range(n)] for _ in range(m)]
    if m > 2 and draw(st.booleans()):
        rows[-1] = [a - b for a, b in zip(rows[0], rows[1])]  # a dependent row
    return rows, [draw(entries) for _ in range(m)], n


def _canonical_entry(x):
    """True iff x is an exact scalar in its canonical form (each part of a Gaussian rational too)."""
    parts = (x.re, x.im) if isinstance(x, GaussianRational) else (x,)
    return all(type(scalar(p)) is type(p) for p in parts)


@settings(max_examples=200, deadline=None)
@given(unit_pivot_systems())
def test_unit_pivots_match_fraction_elimination(system):
    rows, rhs, n = system
    rank, _ = _dense_rank_and_kernel(rows, n)
    assert matrix_rank(rows) == rank
    kernel = nullspace(rows, n)
    assert len(kernel) == n - rank
    for v in kernel:
        assert _apply(rows, v) == [0] * len(rows)
    reduced, pivots = _fraction_gauss_jordan([[*row, b] for row, b in zip(rows, rhs)], n)
    solution = []
    if any(row[n] != 0 for row in reduced[len(pivots):]):
        with pytest.raises(ArithmeticError, match="inconsistent"):
            solve_rational(rows, rhs)
    elif len(pivots) < n:
        with pytest.raises(ArithmeticError, match=f"a family of dimension {n - len(pivots)}$"):
            solve_rational(rows, rhs)
    else:
        solution = solve_rational(rows, rhs)
        assert solution == [reduced[r][n] for r in range(n)]
    answers = [kernel, solution]
    assert all(_canonical_entry(x) for x in _walk(answers)), answers


def test_unit_pivots_keep_ints():
    # pivots 1 and -1 divide nothing; the pivot 2 goes through Fraction, and an integral quotient comes back an int
    kernel = nullspace([[1, 2, 3], [-1, 0, 1]], 3)
    assert kernel == [[1, -2, 1]] and all(type(x) is int for x in kernel[0])
    sol = solve_rational([[-1, 1], [0, 2]], [1, 4])
    assert sol == [1, 2] and all(type(x) is int for x in sol)
    assert solve_rational([[2, 0], [0, 1]], [1, 1]) == [Fraction(1, 2), 1]


def test_smith_normal_form_examples():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 4]]) == [2, 4]
    # hand elimination: [[1,1],[1,3]] -> clear to diag(1, 2)
    assert smith_normal_form([[1, 1], [1, 3]]) == [1, 2]


def test_smith_normal_form_rejects_entries_that_are_no_integers():
    # each entry is read with operator.index: a float or a Fraction raises, none is truncated
    for rows in ([[2.5, 0], [0, Fraction(7, 2)]], [[2, 0], [0, Fraction(7, 2)]], [[1.0]]):
        with pytest.raises(TypeError):
            smith_normal_form(rows)


def test_smith_transforms_and_divisibility():
    d = smith_normal_form([[6, 4, 2], [4, 8, 6], [2, 6, 10]])
    assert d == [2, 2, 42]
    for i in range(len(d) - 1):
        if d[i + 1] != 0:
            assert d[i] != 0 and d[i + 1] % d[i] == 0


def _cofactor_det(a):
    if len(a) == 1:
        return a[0][0]
    total = 0
    for j in range(len(a)):
        minor = [row[:j] + row[j + 1 :] for row in a[1:]]
        total += (-1) ** j * a[0][j] * _cofactor_det(minor)
    return total


@st.composite
def int_matrices(draw, max_rows=5, max_cols=3):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    row = st.lists(st.integers(-9, 9), min_size=cols, max_size=cols)
    return draw(st.lists(row, min_size=rows, max_size=rows))


@settings(max_examples=150, deadline=None)
@given(int_matrices())
def test_smith_normal_form_on_rectangular_matrices(entries):
    # up to 5x3, the shape of the restriction blocks in image_index_profile
    d = smith_normal_form(entries)
    rows, cols = len(entries), len(entries[0])
    assert len(d) == min(rows, cols)
    assert all(x >= 0 for x in d)
    for a, b in zip(d, d[1:]):
        # divisibility order; zeros, if any, come last
        assert (b == 0) if a == 0 else (b % a == 0)
    # the determinantal divisors: d_1 ... d_k is the gcd of all k x k minors
    for k in range(1, len(d) + 1):
        minors = [
            _cofactor_det([[entries[i][j] for j in cs] for i in rs])
            for rs in combinations(range(rows), k)
            for cs in combinations(range(cols), k)
        ]
        assert prod(d[:k]) == gcd(*minors)


def test_homogpoly_json_format():
    f = HomogPoly(3, {(3, 0): Fraction(1, 2), (1, 2): Fraction(-5)})
    assert f.to_json() == {"degree": 3, "terms": [[1, 2, "-5/1"], [3, 0, "1/2"]]}


# ---------------------------------------------------------------------------
# the scalar rule: integral values are ints, the rest Fractions, no floats
# ---------------------------------------------------------------------------


def _is_canonical(x):
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


def _walk(x):
    """Every scalar inside nested lists."""
    if isinstance(x, list):
        for v in x:
            yield from _walk(v)
    else:
        yield x


def test_int_rows_stay_exact():
    # int / int would be a float; every answer must be an int or a Fraction
    ker = nullspace([[1, 2], [2, 4]], 2)
    assert ker == [[-2, 1]]
    assert matrix_rank([[1, 2], [2, 4]]) == 1
    assert matrix_rank([[2, 1], [1, 1]]) == 2
    unique = solve_rational([[2, 1], [1, 1]], [3, 2])
    assert unique == [1, 1]
    with pytest.raises(ArithmeticError, match="a family of dimension 1"):
        solve_rational([[1, 2], [2, 4]], [3, 6])
    thirds = solve_rational([[3, 0], [0, 6]], [1, 2])
    assert thirds == [Fraction(1, 3), Fraction(1, 3)]
    for answer in (ker, unique, thirds):
        assert all(isinstance(x, (int, Fraction)) for x in _walk(answer)), answer


def test_scalar_normaliser():
    assert scalar(3) == 3 and type(scalar(3)) is int
    assert type(scalar(Fraction(6, 2))) is int and scalar(Fraction(6, 2)) == 3
    assert type(scalar(True)) is int
    assert scalar(Fraction(1, 2)) == Fraction(1, 2)
    for bad in (0.5, 1.0, "1", None, GaussianRational(1)):
        with pytest.raises(TypeError):
            scalar(bad)


def test_floats_are_rejected_at_construction():
    f = HomogPoly.linear(1, 2)
    attempts = [
        lambda: HomogPoly(0, {(0, 0): 1.0}),
        lambda: HomogPoly.constant(0.5),
        lambda: HomogPoly.linear(1.0, 2),
        lambda: f.scale(0.5),
        lambda: f * 2.0,
        lambda: f.evaluate(0.5, 1),
        lambda: divide_by_linear(f, 1.0, 2),
        lambda: GaussianRational(1.0),
        lambda: GaussianRational(0, 0.5),
    ]
    for attempt in attempts:
        with pytest.raises(TypeError):
            attempt()


@pytest.mark.parametrize("foreign", ["1", None, 0.5], ids=["str", "None", "float"])
def test_gaussian_arithmetic_rejects_a_foreign_operand(foreign):
    # one coercion rule (``scalar``): every operator raises rather than returning NotImplemented
    z = GaussianRational(1, 2)
    for name in ("add", "radd", "sub", "rsub", "mul", "rmul", "truediv", "rtruediv"):
        with pytest.raises(TypeError):
            getattr(z, f"__{name}__")(foreign)
    for op in (operator.add, operator.sub, operator.mul, operator.truediv):
        for left, right in ((z, foreign), (foreign, z)):
            with pytest.raises(TypeError):
                op(left, right)
    # equality with a foreign value is False, never an error
    assert z != foreign and not z == foreign


def test_gaussian_reflected_operators_take_rationals():
    # Gauss-Jordan rows hold int zeros beside Gaussian rationals
    z = GaussianRational(1, 2)
    assert 0 + z == z and 0 - z == -z and 0 * z == 0
    assert Fraction(1, 2) / z == GaussianRational(Fraction(1, 10), Fraction(-1, 5))
    assert 3 - z == GaussianRational(2, -2) and 2 / GaussianRational(0, 1) == GaussianRational(0, -2)


def test_forms_multiply_only_through_poly_mul():
    # a form has no * operator: products are poly_mul or sum_of_products, constants are scale
    f = HomogPoly.linear(1, 2)
    for attempt in (lambda: 2 * f, lambda: f * 2, lambda: f * BETA, lambda: Fraction(1, 2) * f):
        with pytest.raises(TypeError):
            attempt()
    assert poly_mul(f, BETA) == sum_of_products([(f, BETA)], 2) == HomogPoly(2, {(1, 1): 1, (0, 2): 2})
    assert f.scale(2) == f + f


def test_gaussian_division_is_exact():
    half = GaussianRational(1) / 2
    assert half == Fraction(1, 2) and type(half.re) is Fraction and half.im == 0
    assert GaussianRational(4) / 2 == 2 and type((GaussianRational(4) / 2).re) is int
    assert GaussianRational(1) / GaussianRational(0, 1) == GaussianRational(0, -1)


mixed_scalars = st.one_of(
    st.integers(-9, 9),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4)),
)


@st.composite
def mixed_polys(draw, degree):
    return HomogPoly(degree, {(p, degree - p): draw(mixed_scalars) for p in range(degree + 1)})


@st.composite
def mixed_triples(draw):
    d = draw(st.integers(0, 3))
    return draw(mixed_polys(d)), draw(mixed_polys(d)), draw(mixed_polys(draw(st.integers(0, 3))))


@st.composite
def product_sums(draw):
    """(degree, pairs of forms whose products have that degree, whether the sum cancels).

    Zero forms of any degree ride along, as zero products do in ``+``; a
    cancelling sum appends each pair again with its first factor negated.
    """
    degree = draw(st.integers(0, 5))
    pairs = []
    for _ in range(draw(st.integers(0, 5))):
        d = draw(st.integers(0, degree))
        pairs.append((draw(mixed_polys(d)), draw(mixed_polys(degree - d))))
    if draw(st.booleans()):
        pairs.append((HomogPoly.zero(draw(st.integers(0, 5))), draw(mixed_polys(draw(st.integers(0, 3))))))
    cancels = draw(st.booleans())
    if cancels:
        pairs += [(-a, b) for a, b in pairs]
    return degree, draw(st.permutations(pairs)), cancels


@settings(max_examples=80, deadline=None)
@given(product_sums())
def test_sum_of_products_is_the_sum_of_poly_mul(case):
    degree, pairs, cancels = case
    total = sum_of_products(pairs, degree)
    assert total == sum((poly_mul(a, b) for a, b in pairs), HomogPoly.zero(degree))
    assert total.degree == degree
    assert total.is_zero() or not cancels
    assert all(_is_canonical(c) for c in total.coeffs.values()), total.coeffs


@settings(max_examples=40, deadline=None)
@given(mixed_polys(2), mixed_polys(1), st.integers(0, 5))
def test_sum_of_products_rejects_a_degree_mismatch(f, g, degree):
    if f.is_zero() or g.is_zero() or degree == 3:
        return
    with pytest.raises(ValueError, match=f"not of degree {degree}"):
        sum_of_products([(f, g)], degree)
    with pytest.raises(ValueError, match=f"not of degree {degree}"):
        sum_of_products([(HomogPoly.zero(degree), g), (g, f)], degree)


@settings(max_examples=80, deadline=None)
@given(mixed_triples())
def test_homogpoly_ring_axioms_on_mixed_coefficients(triple):
    f, g, h = triple
    assert f + g == g + f
    assert (f + g) + f == f + (g + f)
    assert poly_mul(f, h) == poly_mul(h, f)
    assert poly_mul(poly_mul(f, g), h) == poly_mul(f, poly_mul(g, h))
    assert poly_mul(f + g, h) == poly_mul(f, h) + poly_mul(g, h)
    assert poly_mul(f, HomogPoly.constant(1)) == f
    assert (f - f).is_zero()
    for poly in (f + g, poly_mul(f, h), f.scale(Fraction(2, 3)), f - g):
        assert all(_is_canonical(c) for c in poly.coeffs.values()), poly.coeffs


@settings(max_examples=80, deadline=None)
@given(mixed_polys(3), mixed_scalars, mixed_scalars)
def test_divide_by_linear_roundtrip_on_mixed_coefficients(f, a, b):
    if a == 0 and b == 0:
        return
    quotient = divide_by_linear(poly_mul(f, HomogPoly.linear(a, b)), a, b)
    assert quotient == f
    assert all(_is_canonical(c) for c in quotient.coeffs.values())


@settings(max_examples=60, deadline=None)
@given(mixed_polys(2), mixed_scalars)
def test_int_and_fraction_backed_values_agree(f, c):
    as_fractions = HomogPoly(f.degree, {k: Fraction(v) for k, v in f.coeffs.items()})
    assert as_fractions == f and hash(as_fractions) == hash(f)
    assert as_fractions.coeffs == f.coeffs
    z, w = GaussianRational(c, 1), GaussianRational(Fraction(c), Fraction(1))
    assert z == w and hash(z) == hash(w)
    assert HomogPoly.constant(c) == HomogPoly.constant(Fraction(c))
    assert hash(HomogPoly.constant(c)) == hash(HomogPoly.constant(Fraction(c)))


def test_real_gaussian_rationals_hash_as_their_real_part():
    # a value with no imaginary part equals its real part, so it must hash like it and find it as a key
    for re in (2, Fraction(1, 2), 0, -7):
        z = GaussianRational(re)
        assert z == re and hash(z) == hash(re)
        assert {re: "x"}.get(z) == "x" and {z: "y"}.get(re) == "y"
    assert {2: "x"}.get(GaussianRational(2, 1)) is None


_BIG = 2**200


@st.composite
def packed_sums(draw):
    """(degree, pairs) with first factors up to 2^200 and integer second factors, zero forms included.

    The first factors have integer coefficients, but in about half the
    cases one of them has a non-integral one too, an odd number of
    halves that is at times the largest coefficient of its form and at
    times a smaller one.
    """
    degree = draw(st.integers(0, 12))
    big = st.one_of(st.just(0), st.integers(-_BIG, _BIG))
    pairs = []
    for _ in range(draw(st.integers(0, 15))):
        d = draw(st.integers(0, degree))
        a = HomogPoly(d, {(p, d - p): draw(big) for p in range(d + 1)})
        b = HomogPoly(degree - d, {(p, degree - d - p): draw(st.integers(-_BIG, _BIG)) for p in range(degree - d + 1)})
        pairs.append((a, b))
    if pairs and draw(st.booleans()):
        i = draw(st.integers(0, len(pairs) - 1))
        (a, b), p = pairs[i], draw(st.integers(0, pairs[i][0].degree))
        odd_half = draw(st.builds(lambda n, m: Fraction(2 * n + 1, 2 * m), st.integers(-_BIG, _BIG), st.integers(1, 10**12)))
        pairs[i] = (a + HomogPoly(a.degree, {(p, a.degree - p): odd_half}), b)
    if draw(st.booleans()):
        pairs.append((HomogPoly.zero(degree + 3), HomogPoly(2, {(p, 2 - p): draw(st.integers(-_BIG, _BIG)) for p in range(3)})))
    return degree, pairs


def _unpacked(digits):
    """The form sum_p N_p a^p b^(degree - p) of ``PackedForms.sum_against``'s digits."""
    degree = len(digits) - 1
    return HomogPoly(degree, {(p, degree - p): n for p, n in enumerate(digits)})


@contextlib.contextmanager
def _weight_packings(forms):
    """Spies on ``exact.kronecker_value``: yields the list of the arguments after the form of every packing of one of ``forms``.

    A packing of a weight is told from one of an integrand by the form's
    identity, so the weights' packings are counted however the packed
    values are kept.
    """
    held, packed = {id(w) for w in forms.values()}, []

    def spied_pack(form, *args):
        if id(form) in held:
            packed.append(args)
        return kronecker_value(form, *args)

    with patch.object(exact, "kronecker_value", spied_pack):
        yield packed


def _packed_sum(pairs, degree, shifts=None):
    """``PackedForms.sum_against`` over (a_k, b_k) pairs keyed by position, the b_k held by a fresh ``PackedForms``.

    Every packing of a b_k is recorded: there must be one per key at each
    shift in the object's ``packings``, and each such
    shift is appended to ``shifts``.  The b_k may differ in degree: the
    weights' degree is carried, not read.
    """
    seconds = PackedForms(dict(enumerate(b for _, b in pairs)), None)
    with _weight_packings(seconds.forms) as packed:
        out = seconds.sum_against(dict(enumerate(a for a, _ in pairs)), degree)
    assert sorted(packed) == sorted((s,) for s in seconds.packings for _ in seconds.forms)
    if shifts is not None:
        shifts.extend(seconds.packings)
    return out


@settings(max_examples=80, deadline=None)
@given(packed_sums())
def test_packed_sum_of_products_matches_the_table(case):
    degree, pairs = case
    shifts = []
    if any(type(c) is not int for a, b in pairs if b.coeffs for c in a.coeffs.values()):
        # a non-integral first factor of a pair that adds something gives no value
        with pytest.raises(TypeError):
            _packed_sum(pairs, degree)
        return
    digits = _packed_sum(pairs, degree, shifts)
    assert _unpacked(digits) == sum_of_products(pairs, degree)
    assert len(digits) == degree + 1 and all(type(n) is int for n in digits)
    # the second factors are packed once, at a power of two
    assert len(shifts) == 1 and shifts[0] & (shifts[0] - 1) == 0


@pytest.mark.parametrize("sign", [1, -1])
@pytest.mark.parametrize("first", [_BIG, Fraction(_BIG, 3)], ids=["int", "fraction"])
def test_packed_sum_of_products_at_its_bound(first, sign):
    # 15 products of 9 and 5 equal terms: each middle coefficient of N sums 15 * 5
    # products of the largest terms with no cancellation, so it reaches the bound B itself
    a = HomogPoly(8, {(p, 8 - p): sign * first for p in range(9)})
    b = HomogPoly(4, {(p, 4 - p): 2**60 for p in range(5)})
    pairs = [(a, b)] * 15
    if type(first) is not int:
        # a non-integral largest coefficient makes B non-integral, which raises before any weight is packed
        weights = PackedForms(dict(enumerate(b for _, b in pairs)), None)
        with _weight_packings(weights.forms) as packed, pytest.raises(TypeError):
            weights.sum_against(dict(enumerate(a for a, _ in pairs)), 12)
        assert not packed and weights.packings == {}
        return
    shifts = []
    digits = _packed_sum(pairs, 12, shifts)
    bound = 15 * 5 * first * 2**60
    assert digits[4:9] == [sign * bound] * 5
    assert _unpacked(digits) == sum_of_products(pairs, 12)
    # B = 75 * 2^260 has 267 bits, so the least power of two s with 2^(s-1) > B is 512
    assert bound.bit_length() == 267 and shifts == [512]


@pytest.mark.parametrize("bits, shift", [(1, 2), (2, 4), (3, 4), (255, 256), (256, 512)])
def test_packed_sum_of_products_rounds_the_shift_up_to_a_power_of_two(bits, shift):
    # B = 2^bits - 1 has ``bits`` bits and needs s > bits; a digit at -B and one at +B read back
    big = 2**bits - 1
    shifts = []
    pairs = [(HomogPoly(1, {(1, 0): -big, (0, 1): big}), HomogPoly.constant(1))]
    assert _packed_sum(pairs, 1, shifts) == [big, -big]
    assert shifts == [shift]


def test_packed_sum_of_products_skips_zero_factors():
    # a zero factor adds nothing, whatever its degree, and a non-integral first factor against it is not packed
    f, g = HomogPoly(2, {(2, 0): 1, (0, 2): -3}), HomogPoly(1, {(1, 0): 2})
    pairs = [(HomogPoly.zero(5), g), (f, HomogPoly.constant(2)), (f.scale(Fraction(1, 3)), HomogPoly.zero(7))]
    assert _packed_sum(pairs, 2) == [-6, 0, 2]
    # a key with no weight raises
    with pytest.raises(KeyError):
        PackedForms({}, None).sum_against({"x": f}, 2)


def test_packed_forms_keep_one_packing_per_shift():
    # sizes are (number of terms, largest |coefficient|); a second sum at the same shift packs no weight
    w = PackedForms({"x": HomogPoly(2, {(2, 0): 3, (0, 2): -7}), "z": HomogPoly.zero(2)}, 2)
    assert w.sizes == {"x": (2, 7), "z": (0, 0)} and w.packings == {}
    f = HomogPoly.constant(5)
    with _weight_packings(w.forms) as packed:
        assert w.sum_against({"x": f, "z": f}, 2) == [-35, 0, 15]
    (shift, values), = w.packings.items()
    assert values == {"x": kronecker_value(w.forms["x"], shift), "z": 0} and packed == [(shift,), (shift,)]
    with _weight_packings(w.forms) as packed:
        assert w.sum_against({"x": f.scale(-1)}, 2) == [35, 0, -15]
    assert not packed and list(w.packings) == [shift] and w.packings[shift] is values


def test_kronecker_value_scales_and_packs():
    f = HomogPoly(3, {(3, 0): Fraction(1, 2), (1, 2): -3, (0, 3): Fraction(5, 6)})
    assert kronecker_value(f.scale(6), 8) == (3 << 24) - (18 << 8) + 5
    assert kronecker_value(HomogPoly.zero(4), 16) == 0
    # the coefficients are shifted as they are, so a non-integral one raises
    with pytest.raises(TypeError):
        kronecker_value(f, 8)


@pytest.mark.parametrize("largest", [True, False], ids=["largest", "smaller"])
def test_packed_sum_rejects_a_non_integral_first_factor(largest):
    # a non-integral coefficient raises wherever it sits: as the largest |a_k| it makes B
    # non-integral before any weight is packed, as a smaller one it raises when a_k is packed
    half = Fraction(7, 2) if largest else Fraction(1, 2)
    w = PackedForms({"x": HomogPoly.constant(3), "y": HomogPoly.constant(-5)}, 0)
    firsts = {"x": HomogPoly(1, {(1, 0): 2}), "y": HomogPoly(1, {(1, 0): half, (0, 1): 3})}
    with pytest.raises(TypeError):
        w.sum_against(firsts, 1)
    assert (w.packings == {}) is largest


@pytest.mark.parametrize("shift", [1, 2, 7, 64])
def test_balanced_digits_read_back_and_reject_a_leftover(shift):
    half = 1 << shift - 1
    digits = [-half, half - 1, 0, -1, 0]
    x = sum(d << shift * p for p, d in enumerate(digits))
    assert _balanced_digits(x, shift, len(digits)) == digits
    # a digit above the top place, of either sign, or a top digit outside the balanced range, is left over
    for extra in (1 << shift * len(digits), -(1 << shift * len(digits)), half << shift * (len(digits) - 1)):
        with pytest.raises(ArithmeticError, match="left a remainder"):
            _balanced_digits(x + extra, shift, len(digits))


# Records the module of every frame that reads a form's coefficient table
# (the ``coeffs`` slot) or builds a form from a non-empty one (through the
# constructor, or by setting the slot as a trusted build does), over a whole
# ``verify all --format json`` and the six dumps, and prints them as JSON.
_LAYOUT_SPY = r"""
import contextlib, io, json, sys
from cayleygr import cli
from cayleygr.exact import HomogPoly

callers = set()
slot, init = HomogPoly.__dict__["coeffs"], HomogPoly.__init__


class Spy:
    def __get__(self, form, owner=None):
        if form is None:
            return self
        callers.add(("reads", sys._getframe(1).f_globals["__name__"]))
        return slot.__get__(form, owner)

    def __set__(self, form, value):
        # a trusted build sets the slot with no constructor call, so it is recorded here too
        if value:
            callers.add(("builds", sys._getframe(1).f_globals["__name__"]))
        slot.__set__(form, value)


def spied_init(self, degree, coeffs=None):
    if coeffs:
        callers.add(("builds", sys._getframe(1).f_globals["__name__"]))
    init(self, degree, coeffs)


HomogPoly.coeffs, HomogPoly.__init__ = Spy(), spied_init
for argv in (["verify", "all", "--format", "json"], *(["dump", what] for what in sorted(cli.DUMPS))):
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"{argv} failed")
print(json.dumps(sorted(callers)))
"""


def test_only_exact_reads_or_builds_a_coefficient_table():
    # the binary form's (p, q) layout has one owner: every other module goes through exact's functions and methods
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", _LAYOUT_SPY], capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    callers = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(callers) == [["builds", "cayleygr.exact"], ["reads", "cayleygr.exact"]]
