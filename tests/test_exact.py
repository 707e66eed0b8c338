from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from cayleygr.exact import (
    GaussianRational,
    HomogPoly,
    divide_by_linear,
    format_gaussian,
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
    sol = solve_rational([[one, 0], [0, one]], [Fraction(2), Fraction(3)])
    assert sol.status == "unique" and sol.particular == [2, 3]

    sol = solve_rational([[one, one]], [Fraction(0)])
    assert sol.status == "family" and len(sol.kernel) == 1
    assert _apply([[one, one]], sol.kernel[0]) == [0]

    rows = [[one, 2, 0, Fraction(1, 2)], [2, 4, one, 3], [3, 6, one, Fraction(7, 2)]]
    sol = solve_rational(rows, [Fraction(1), Fraction(5), Fraction(6)])
    assert sol.status == "family" and len(sol.kernel) == 2
    assert _apply(rows, sol.particular) == [1, 5, 6]
    for k in sol.kernel:
        assert _apply(rows, k) == [0, 0, 0]

    sol = solve_rational([[one], [one]], [Fraction(0), Fraction(1)])
    assert sol.status == "inconsistent"


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
    sol = solve_rational(rows, rhs)
    n = len(rows[0])
    rank = matrix_rank(rows)
    augmented = matrix_rank([[*row, b] for row, b in zip(rows, rhs)])
    assert sol.status == ("inconsistent" if augmented > rank else "unique" if rank == n else "family")
    if sol.status != "inconsistent":
        assert len(sol.kernel) == n - rank
        assert _apply(rows, sol.particular) == rhs
    for k in sol.kernel:
        assert _apply(rows, k) == [0] * len(rows)


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
    sol = solve_rational(rows, rhs)
    assert sol.status == "unique" and sol.particular == x


def test_solve_over_gaussian_rationals():
    i = GaussianRational(0, 1)
    sol = solve_rational([[i]], [GaussianRational(1)])
    assert sol.status == "unique" and sol.particular[0] == -i


def test_rank_and_nullspace():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert matrix_rank(rows) == 1
    ker = nullspace(rows, 2)
    assert len(ker) == 1
    v = ker[0]
    assert rows[0][0] * v[0] + rows[0][1] * v[1] == 0


def _dense_rank_and_kernel(rows, ncols):
    """Reference Gauss-Jordan elimination that divides and subtracts whole rows."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / (Fraction(inv) if isinstance(inv, int) else inv) for x in rows[r]]
        for i in range(len(rows)):
            if i != r:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
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


def test_smith_normal_form_examples():
    assert smith_normal_form([[1, 0], [0, 1]]) == [1, 1]
    assert smith_normal_form([[2, 0], [0, 4]]) == [2, 4]
    # hand elimination: [[1,1],[1,3]] -> clear to diag(1, 2)
    assert smith_normal_form([[1, 1], [1, 3]]) == [1, 2]


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
    assert unique.status == "unique" and unique.particular == [1, 1]
    family = solve_rational([[1, 2], [2, 4]], [3, 6])
    assert family.status == "family"
    assert family.particular == [3, 0] and family.kernel == [[-2, 1]]
    thirds = solve_rational([[3, 0], [0, 6]], [1, 2])
    assert thirds.particular == [Fraction(1, 3), Fraction(1, 3)]
    for answer in (ker, unique.particular, family.particular, family.kernel, thirds.particular):
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
