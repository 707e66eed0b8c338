from collections import Counter
from itertools import combinations

import pytest
from hypothesis import example, given, settings, strategies as st

from cayleygr.cayley import (
    betti_profile,
    codim_of_point,
    enumerate_fixed_points,
    gkm_edges,
    is_cg_member,
    point_by_label,
    point_permutation,
    reference_tangent_table,
    repelling_weights,
    tangent_discrepancies,
    tangent_weights,
)
from cayleygr.octonions import Octonion, three_form
from cayleygr.weightmodel import ALPHA, BETA, CHAMBER, GAMMA, WEYL_GROUP, U, Weight, parse_weight


def _w(*names):
    return Counter(parse_weight(n) for n in names)


def _units(*indices):
    """Coordinate rows in the weight basis U of the basis vectors U[i]."""
    return [tuple(int(j == i) for j in range(7)) for i in indices]


def test_membership_examples():
    assert is_cg_member(_units(0, 1, 3, 6))        # u0, ua, ub, u-g
    assert not is_cg_member(_units(0, 1, 5, 6))    # u0, ua, ug, u-g
    assert is_cg_member(_units(1, 2, 3, 4))        # ua, u-a, ub, u-b
    assert not is_cg_member(_units(0, 2, 4, 6))    # u0, u-a, u-b, u-g
    with pytest.raises(ValueError):
        is_cg_member(_units(0, 1, 2))


def _form_vanishes_on_octonions(rows):
    """The octonion route: combine the rows into octonions and evaluate the three-form."""
    vectors = [sum((U[i].scale(c) for i, c in enumerate(row) if c), Octonion.zero()) for row in rows]
    return all(not three_form(x, y, z) for x, y, z in combinations(vectors, 3))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(list(combinations(range(7), 4))),
    st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), min_size=4, max_size=4),
    st.lists(st.integers(-2, 2), min_size=7, max_size=7),
    st.booleans(),
)
@example((0, 1, 3, 6), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [0] * 7, False)  # a fixed point
@example((0, 1, 5, 6), [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]], [0] * 7, False)  # not one
@example((1, 2, 3, 4), [[1, 2, 0, 0], [0, 1, 0, 3], [2, 0, 1, 0], [0, 0, 1, 1]], [0] * 7, False)  # a member, mixed
def test_membership_matches_the_octonion_route(coordinates, coeffs, offset, perturb):
    # integer rows supported on four coordinates (often inside a fixed
    # point), with an optional dense offset that usually leaves the variety
    rows = [tuple(dict(zip(coordinates, c)).get(i, 0) for i in range(7)) for c in coeffs]
    if perturb:
        rows[0] = tuple(a + b for a, b in zip(rows[0], offset))
    assert is_cg_member(rows) == _form_vanishes_on_octonions(rows)


def test_enumeration():
    pts = enumerate_fixed_points()
    assert len(pts) == 15
    zero = point_by_label("0")
    assert set(zero.triple_weights) == {Weight(1, 0), Weight(0, 1), Weight(1, 1)}
    five_prime = point_by_label("5'")
    assert set(five_prime.triple_weights) == {Weight(0, 0), Weight(1, 0), Weight(0, -1)}
    for p in pts:
        assert len(set(p.triple) | set(p.four_space)) >= 4


def test_tangent_rows_match_reference_except_row_5():
    diffs = tangent_discrepancies()
    assert set(diffs) == {"5"}
    # the computed row 5 is the symmetric image of row 0 under a->b->g->a
    row0 = tangent_weights(point_by_label("0"))
    expected5 = Counter({w.under((BETA, GAMMA)): m for w, m in row0.items()})
    assert tangent_weights(point_by_label("5")) == expected5
    assert tangent_weights(point_by_label("5")) == _w("b", "g", "2b", "2g", "b-a", "g-a", "-a", "-a")


def test_tangent_rows_examples():
    assert tangent_weights(point_by_label("0")) == _w("a", "b", "2a", "2b", "a-g", "b-g", "-g", "-g")
    assert tangent_weights(point_by_label("8")) == _w("-a", "-b", "-2a", "-2b", "g-a", "g-b", "g", "g")
    assert tangent_weights(point_by_label("5'")) == _w("a", "a-b", "a-b", "-b", "-g", "a-g", "g-b", "g")


def test_s3_equivariance_of_tangent_weights():
    # every Weyl group element permutes the points and carries tangent weights along
    for w in WEYL_GROUP:
        pmap = point_permutation(w)
        assert sorted(pmap.values()) == sorted(pmap)
        for p in enumerate_fixed_points():
            image = point_by_label(pmap[p.label])
            expected = Counter({x.under(w): m for x, m in tangent_weights(p).items()})
            assert tangent_weights(image) == expected, (w, p.label)


def test_betti_profile_and_codims():
    assert betti_profile(CHAMBER) == [1, 1, 2, 2, 3, 2, 2, 1, 1]
    for p in enumerate_fixed_points():
        assert codim_of_point(p, CHAMBER) == int(p.label.rstrip("'"))
    # the chamber transported by w, l_w = (<C, w(a)>, <C, w(b)>): the same
    # profile, with the codimension of p read at w(p) in the chamber C
    for w in WEYL_GROUP:
        l_w = (w[0].pair(CHAMBER), w[1].pair(CHAMBER))
        assert betti_profile(l_w) == [1, 1, 2, 2, 3, 2, 2, 1, 1]
        pmap = point_permutation(w)
        for p in enumerate_fixed_points():
            assert codim_of_point(p, l_w) == point_by_label(pmap[p.label]).codim, (w, p.label)
    for p in enumerate_fixed_points():
        assert codim_of_point(p, (-CHAMBER[0], -CHAMBER[1])) == 8 - p.codim
    with pytest.raises(ValueError):
        betti_profile((1, 1))  # kills the weight a-b


def test_repelling_weights_at_extremes():
    assert repelling_weights(point_by_label("0")) == []
    assert len(repelling_weights(point_by_label("8"))) == 8
    assert repelling_weights(point_by_label("1")) == [parse_weight("-a")]


def test_gkm_graph():
    edges = gkm_edges()
    # every point is reached from the open cell
    seen = {"0"}
    for _ in range(15):
        seen |= {lab for e in edges if e.labels & seen for lab in e.labels}
    assert seen == {p.label for p in enumerate_fixed_points()}
    by_pair = {tuple(sorted(e.labels)): e for e in edges}
    e41 = by_pair[("1", "4")]
    assert e41.weight in (parse_weight("g-b"), parse_weight("b-g"))
    assert ("0", "8") not in by_pair
    roots = {parse_weight(n) for n in ("a", "-a", "b", "-b", "g", "-g", "a-b", "b-a", "a-g", "g-a", "b-g", "g-b")}
    for e in edges:
        assert e.primitive() in roots
        # the curve direction appears among the tangent weights at both ends
        for lab in e.labels:
            tw = tangent_weights(point_by_label(lab))
            assert tw[e.weight] > 0 or tw[-e.weight] > 0
    # edge set is invariant under the Weyl group
    for w in WEYL_GROUP:
        pmap = point_permutation(w)
        mapped = {frozenset((pmap[a], pmap[b])) for a, b in by_pair}
        assert mapped == set(frozenset(k) for k in by_pair)


def test_duality_is_the_central_symmetry():
    dual = point_permutation((-ALPHA, -BETA))
    assert dual == {
        "0": "8", "8": "0", "1": "7", "7": "1", "2": "6", "6": "2",
        "2'": "6'", "6'": "2'", "3": "5", "5": "3", "3'": "5'", "5'": "3'",
        "4": "4", "4'": "4'", "4''": "4''",
    }
    for p in enumerate_fixed_points():
        assert p.codim + point_by_label(dual[p.label]).codim == 8
