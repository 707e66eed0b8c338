from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from cayleygr import weightmodel
from cayleygr.exact import matrix_rank
from cayleygr.octonions import OrbitType, Subspace, classify, multiply, norm_bilinear, three_form
from cayleygr.weightmodel import (
    ALPHA,
    BETA,
    CHAMBER,
    FUNDAMENTAL,
    GAMMA,
    INDEX_OF_WEIGHT,
    LONG_ROOTS,
    POSITIVE_ROOTS,
    SHORT_ROOTS,
    U,
    BASIS_WEIGHTS,
    WEYL_GROUP,
    Weight,
    g2_irrep_dim,
    gl7_schur_dim,
    inner,
    model_bridge,
    parse_weight,
    weight_str,
)

from schur_reference import schur_poly
from weyl_character_reference import g2_irrep_dim_character_oracle

SIMPLE_ROOTS = (ALPHA, BETA - ALPHA)  # the simple roots of the chamber (1, 2)


def test_weight_arithmetic_and_names():
    assert ALPHA + BETA + GAMMA == Weight(0, 0)
    assert weight_str(ALPHA - GAMMA) == "a-g"
    assert parse_weight("-2b") == Weight(0, -2)
    assert (ALPHA - BETA).pair((1, 2)) == -1


def test_weight_coordinates_are_integers():
    # each coordinate is read with operator.index: a float or a Fraction raises, none is truncated
    for x, y in ((2.5, 0), (Fraction(3, 2), 1), (0, 1.0), (Fraction(2), 0)):
        with pytest.raises(TypeError):
            Weight(x, y)
    with pytest.raises(TypeError):
        ALPHA * 0.5
    assert Weight(2, -1) * 3 == Weight(6, -3) and type(Weight(True, 0)[0]) is int


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
    a1, a2 = SIMPLE_ROOTS
    w1, w2 = FUNDAMENTAL
    assert (w1, w2) == (-GAMMA, BETA - GAMMA)
    assert 3 * a1 + 2 * a2 == w2
    assert 2 * a1 + a2 == w1
    assert len(SHORT_ROOTS) == 6 and len(LONG_ROOTS) == 6 and len(set(SHORT_ROOTS + LONG_ROOTS)) == 12
    assert len(POSITIVE_ROOTS) == 6 and set(SIMPLE_ROOTS) <= set(POSITIVE_ROOTS)
    for r in POSITIVE_ROOTS:
        assert r.pair(CHAMBER) > 0
    # short roots have square length 2, long roots 6
    assert {inner(r, r) for r in SHORT_ROOTS} == {2}
    assert {inner(r, r) for r in LONG_ROOTS} == {6}


def reflection_closure():
    """The group generated by the simple reflections, as image pairs (w(a), w(b)).

    s_r(x) = x - 2(x, r)/(r, r) r; each new element is a simple
    reflection composed with an element already found.
    """

    def reflect(r, x):
        c = Fraction(2 * inner(x, r), inner(r, r))
        assert c.denominator == 1
        return x - int(c) * r

    group, frontier = {(ALPHA, BETA)}, [(ALPHA, BETA)]
    while frontier:
        images = {tuple(reflect(r, x) for x in w) for w in frontier for r in SIMPLE_ROOTS}
        frontier = list(images - group)
        group |= images
    return group


def test_weyl_group_is_the_reflection_closure():
    assert len(WEYL_GROUP) == 12 and set(WEYL_GROUP) == reflection_closure()
    assert WEYL_GROUP[0] == (ALPHA, BETA) and (-ALPHA, -BETA) in WEYL_GROUP
    roots = SHORT_ROOTS + LONG_ROOTS
    for w in WEYL_GROUP:
        assert sorted(r.under(w) for r in roots) == sorted(roots), w
        for u in roots:
            for v in roots:
                assert inner(u.under(w), v.under(w)) == inner(u, v), (w, u, v)


def test_gl7_schur_dims():
    assert gl7_schur_dim((1,)) == 7
    assert gl7_schur_dim((1, 1, 1)) == 35
    assert gl7_schur_dim((2,)) == 28
    assert gl7_schur_dim(()) == 1
    with pytest.raises(ValueError):
        gl7_schur_dim((1, 2))


def test_gl7_schur_dim_checks_the_shape_as_given():
    # trailing zeros, as the Koszul shapes carry them, are a partition; a zero before a part is not
    assert gl7_schur_dim((1, 0, 0, 0)) == gl7_schur_dim((1,)) == 7
    assert gl7_schur_dim((2, 1, 0, 0)) == gl7_schur_dim((2, 1))
    assert gl7_schur_dim((1,) * 8 + (0,)) == 0
    for shape in ((0, 1), (1, 0, 1), (2, 0, 1, 0), (1, -1)):
        with pytest.raises(ValueError, match="not a partition"):
            gl7_schur_dim(shape)
    # a part that is no integer is not truncated
    for shape in ((1.5,), (2, 1.0), (Fraction(3, 2),), (Fraction(2),)):
        with pytest.raises(TypeError):
            gl7_schur_dim(shape)


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
    monkeypatch.setattr(weightmodel, "POSITIVE_ROOTS", tuple(r for r in POSITIVE_ROOTS if r in SHORT_ROOTS))
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
