from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from cayleygr import weightmodel
from cayleygr.ambient import schur_poly
from cayleygr.exact import matrix_rank
from cayleygr.octonions import OrbitType, Subspace, classify, multiply, norm_bilinear, three_form
from cayleygr.weightmodel import (
    ALPHA,
    BETA,
    GAMMA,
    INDEX_OF_WEIGHT,
    ROOT_SYSTEM,
    U,
    BASIS_WEIGHTS,
    Weight,
    g2_irrep_dim,
    g2_irrep_dim_character_oracle,
    gl7_schur_dim,
    model_bridge,
    parse_weight,
    weight_str,
)


def test_weight_arithmetic_and_names():
    assert ALPHA + BETA + GAMMA == Weight(0, 0)
    assert weight_str(ALPHA - GAMMA) == "a-g"
    assert parse_weight("-2b") == Weight(0, -2)
    assert (ALPHA - BETA).pair((1, 2)) == -1


def test_norm_pairs_each_weight_with_its_negative():
    # cayley._complement_four_space reads the orthogonal 4-space off this pattern
    for i, v in enumerate(BASIS_WEIGHTS):
        for j, w in enumerate(BASIS_WEIGHTS):
            assert bool(norm_bilinear(U[i], U[j])) == (v == -w), (v, w)


def test_product_adds_weights():
    for i, v in enumerate(BASIS_WEIGHTS):
        for j, w in enumerate(BASIS_WEIGHTS):
            p = multiply(U[i], U[j]).imaginary()
            k = INDEX_OF_WEIGHT.get(v + w)
            if k is None:
                assert not p, (v, w)
            else:
                assert matrix_rank([U[k].coeffs, p.coeffs]) == 1, (v, w)


def test_three_form_support_on_the_weight_basis():
    support = {t for t in combinations(range(7), 3) if three_form(*(U[i] for i in t))}
    assert support == {(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (2, 4, 6)}


def test_model_bridge():
    assert model_bridge() is U
    sub = Subspace([U[0], U[1], U[2]])
    assert classify(sub) is OrbitType.NON_DEGENERATE


def test_model_bridge_rejects_a_wrong_basis(monkeypatch):
    swapped = (U[0], U[1], U[2], U[4], U[3], U[5], U[6])
    monkeypatch.setattr(weightmodel, "U", swapped)
    with pytest.raises(ArithmeticError):
        model_bridge()


def test_root_system_invariants():
    rs = ROOT_SYSTEM
    a1, a2 = rs.simple
    assert 3 * a1 + 2 * a2 == rs.highest_long
    assert 2 * a1 + a2 == rs.highest_short
    assert len(rs.short_roots) == 6 and len(rs.long_roots) == 6
    for r in rs.positive_roots():
        assert r.pair((1, 2)) > 0
    # short roots have square length 2, long roots 6
    assert {rs.inner(r, r) for r in rs.short_roots} == {2}
    assert {rs.inner(r, r) for r in rs.long_roots} == {6}


def test_gl7_schur_dims():
    assert gl7_schur_dim((1,)) == 7
    assert gl7_schur_dim((1, 1, 1)) == 35
    assert gl7_schur_dim((2,)) == 28
    assert gl7_schur_dim(()) == 1
    with pytest.raises(ValueError):
        gl7_schur_dim((1, 2))


def test_gl7_schur_dim_against_branching_rule():
    shapes = []
    for a in range(4):
        for b in range(a + 1):
            for c in range(b + 1):
                for d in range(c + 1):
                    shapes.append(tuple(p for p in (a, b, c, d) if p))
    for shape in set(shapes):
        # the branching rule counts the same semistandard tableaux, entries <= 7
        assert gl7_schur_dim(shape) == sum(schur_poly(shape, 7).values()), shape


def gl7_schur_dim_hook_content(shape):
    """Hook-content formula: the product over the boxes (i, j) of (7 + j - i) / hook(i, j).

    An eighth row has a box of content -7, so its factor 7 + j - i is 0.
    """
    conjugate = [sum(1 for row in shape if row > j) for j in range(shape[0] if shape else 0)]
    out = Fraction(1)
    for i, row in enumerate(shape):
        for j in range(row):
            out *= Fraction(7 + j - i, (row - j) + (conjugate[j] - i) - 1)
    assert out.denominator == 1
    return int(out)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 60), max_size=8).map(lambda parts: tuple(sorted(parts, reverse=True))))
@example((60,) * 8)
@example((3, 2, 2, 1, 1, 1, 1, 1))
@example((60, 60, 60, 60, 59, 59, 59))
def test_gl7_schur_dim_against_hook_content(shape):
    shape = tuple(p for p in shape if p)
    assert gl7_schur_dim(shape) == gl7_schur_dim_hook_content(shape)
    assert (gl7_schur_dim(shape) == 0) == (len(shape) > 7)


def test_weyl_quotient_raises_on_a_remainder(monkeypatch):
    # the short roots alone are not the positive roots of a group with these weights
    monkeypatch.setattr(ROOT_SYSTEM, "positive_roots", lambda: ROOT_SYSTEM.positive_short)
    with pytest.raises(ArithmeticError, match="not an integer"):
        g2_irrep_dim(0, 1)


def test_g2_irrep_dims():
    assert g2_irrep_dim(1, 0) == 7
    assert g2_irrep_dim(0, 1) == 14
    assert g2_irrep_dim(2, 0) == 27
    with pytest.raises(ValueError):
        g2_irrep_dim(-1, 0)


def test_g2_irrep_dim_against_character_oracle():
    for a in range(13):
        for b in range(13):
            assert g2_irrep_dim(a, b) == g2_irrep_dim_character_oracle(a, b), (a, b)
