from itertools import combinations
from math import comb, factorial, prod

import pytest

from cayleygr import invariants
from cayleygr.cayley import enumerate_fixed_points
from cayleygr.equivariant import SchubertVector
from cayleygr.exact import HomogPoly, poly_mul
from cayleygr.fixtures import load_fixture
from cayleygr.invariants import (
    chern_classes,
    closed_form_value,
    dual_degree,
    elementary_symmetric,
    equivariant_series_check,
    hilbert_polynomial,
    hilbert_value,
    leading_degree,
    quadric_count,
)
from cayleygr.weightmodel import BASIS_WEIGHTS, g2_irrep_dim


def test_chern_classes_against_reference():
    chern = chern_classes()
    printed = load_fixture("chern")["classes"]
    diffs = []
    for k in range(1, 9):
        want = SchubertVector({lab: int(c) for lab, c in printed[str(k)].items()})
        if chern[k] != want:
            diffs.append(k)
    # the printed c5 row has its two coefficients swapped and the printed
    # c6 row is off; both computed rows are confirmed by the printed
    # dual-degree polynomial (344, -860) and by ambient intersections
    assert diffs == [5, 6]
    assert chern[1] == SchubertVector({"1": 4})
    assert chern[2] == SchubertVector({"2": 9, "2'": 7})
    assert chern[3] == SchubertVector({"3": 28, "3'": 52})
    assert chern[4] == SchubertVector({"4": 49, "4'": 88, "4''": 46})
    assert chern[5] == SchubertVector({"5": 160, "5'": 76})
    assert chern[6] == SchubertVector({"6": 151, "6'": 193})
    assert chern[7] == SchubertVector({"7": 90})
    assert chern[8] == SchubertVector({"8": 15})


def test_chern_recurrence_against_subset_sum():
    # e_k of the tangent weights as the sum over all k-subsets of products
    for p in enumerate_fixed_points():
        e = elementary_symmetric(p.tangent)
        assert len(e) == len(p.tangent) + 1
        for k in range(len(p.tangent) + 1):
            total = HomogPoly.zero(k)
            for combo in combinations(p.tangent, k):
                term = HomogPoly.constant(1)
                for w in combo:
                    term = poly_mul(term, w.poly())
                total = total + term
            assert e[k] == total, (p.label, k)


def _elementary_by_recurrence(weights):
    """The chain that elementary_symmetric replaces: e_k <- e_k + e_(k-1) w, one form at a time."""
    e = [HomogPoly.constant(1)] + [HomogPoly.zero(k) for k in range(1, len(weights) + 1)]
    for n, w in enumerate(weights, 1):
        for k in range(n, 0, -1):
            e[k] = e[k] + poly_mul(e[k - 1], w.poly())
    return e


def test_elementary_symmetric_against_the_recurrence():
    # no weight, the 4 tautological weights and the 8 tangent weights at every fixed point
    assert elementary_symmetric([]) == [HomogPoly.constant(1)]
    for p in enumerate_fixed_points():
        for weights in ([BASIS_WEIGHTS[i] for i in p.four_space], p.tangent):
            assert len(weights) in (4, 8)
            e = elementary_symmetric(weights)
            assert e == _elementary_by_recurrence(weights), p.label
            assert [form.degree for form in e] == list(range(len(weights) + 1))


def test_euler_characteristic_is_fixed_point_count():
    chern = chern_classes()
    assert chern[8]["8"] == 15 == sum([1, 1, 2, 2, 3, 2, 2, 1, 1])


def test_dual_degree_polynomial():
    coeffs, dprime, value = dual_degree()
    printed = load_fixture("dual_polynomial")["coefficients"]
    # the only deviation from print is the forced q^8 coefficient
    assert [i for i in range(9) if coeffs[i] != printed[i]] == [7]
    assert coeffs[7] == -728 == -4 * 182
    assert coeffs == [15, -90, 344, -860, 1492, -1784, 1438, -728, 182]
    assert coeffs[8] == 182
    assert dprime == 63 and dprime != 0
    assert value == 9
    # the printed value 17 is the sign-flipped derivative of the printed
    # (misprinted) polynomial
    printed_derivative = sum((i + 1) * c for i, c in enumerate(printed))
    assert printed_derivative == -17
    assert abs(printed_derivative) == load_fixture("dual_polynomial")["derivative_at_one"]


def test_hilbert_polynomial():
    p = hilbert_polynomial()
    assert p[0] == 1
    assert p[1] == 28
    assert p[2] == 287
    assert sorted(p) == list(range(11))
    for k in range(11):
        assert p[k] == closed_form_value(k) == hilbert_value(k)
    assert leading_degree(p) == 182
    assert leading_degree({k: k**8 for k in range(9)}) == factorial(8)
    for k in range(-10, 11):
        assert closed_form_value(k).denominator == 1
    with pytest.raises(ValueError):
        hilbert_value(-1)


def test_hilbert_certificate_does_not_assume_degree_8(monkeypatch):
    # a Koszul count off by prod_(j=0..10) (k - j) agrees with the closed form
    # on the returned k = 0..10; the comparison on 0..15 must see it
    value = invariants.hilbert_value
    monkeypatch.setattr(invariants, "hilbert_value", lambda k: value(k) + prod(k - j for j in range(11)))
    assert all(invariants.hilbert_value(k) == closed_form_value(k) for k in range(11))
    hilbert_polynomial.cache_clear()
    with pytest.raises(ArithmeticError, match="disagree at 11"):
        hilbert_polynomial()


def test_quadric_and_linear_form_counts():
    assert quadric_count() == 119
    assert 406 - 287 == 119
    # linear forms vanishing on the variety: the 7-dimensional summand of the cube
    assert comb(7, 3) - hilbert_polynomial()[1] == 7


def test_equivariant_series():
    rows = equivariant_series_check(6)
    assert rows[0] == (0, 1, 1)
    assert rows[1] == (1, 28, 28)
    assert g2_irrep_dim(2, 0) == 27 and 1 + 27 == 28
    assert rows[2][1] == 287
    # the running sum against the full sum over i + 2j <= k
    for k, lhs, rhs in equivariant_series_check(30):
        direct = sum(g2_irrep_dim(2 * i, 2 * j) for i in range(k + 1) for j in range((k - i) // 2 + 1))
        assert lhs == direct == rhs
    with pytest.raises(ValueError):
        equivariant_series_check(-1)


def test_betti_weyl_cross_check():
    # sum of irreducible dimensions equals the polynomial for k = 0..6
    p = hilbert_polynomial()
    for k in range(7):
        total = sum(
            g2_irrep_dim(2 * i, 2 * j)
            for i in range(k + 1)
            for j in range((k - i) // 2 + 1)
            if i + 2 * j <= k
        )
        assert total == p[k] == closed_form_value(k)
