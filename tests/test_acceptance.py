"""Acceptance suite: one test per criterion, exact arithmetic throughout.

Four criteria contain literal claims that are provably unattainable
because the printed reference values contradict each other (details in
the companion *_literal tests, which execute the literal claims and are
expected to fail).  The operative tests assert the exact computed truth,
every piece of which is confirmed by at least two independent routes, and
require the discrepancies to be surfaced by the reporting layer.
"""

from collections import Counter
from math import comb

import pytest

from cayleygr import ambient, cayley, equivariant, invariants, octonions
from cayleygr.cli import DISCREPANCY, TOPICS
from cayleygr.equivariant import SchubertVector
from cayleygr.fixtures import load_fixture, parse_form
from cayleygr.weightmodel import ALPHA, BETA, CHAMBER, GAMMA, parse_weight
from chern_probes import probe_pairings


def note(num, message):
    print(f"criterion {num:02d}: PASS - {message}")


def _flagged(topic_name, args=None):
    class _Args:
        kmax = 6
        chamber = CHAMBER

    results = TOPICS[topic_name](_Args())
    return {r.id for r in results if r.status == DISCREPANCY}


def test_criterion_01_fixed_points():
    pts = cayley.enumerate_fixed_points()
    assert len(pts) == 15
    table = load_fixture("fixed_points")["points"]
    want = {row["label"]: frozenset(parse_weight(s) for s in row["triple"]) for row in table}
    for p in pts:
        assert frozenset(p.triple_weights) == want[p.label]
    note(1, "enumeration over 35 coordinate 3-spaces yields the 15 labelled points")


def test_criterion_02_tangent_weights():
    diffs = cayley.tangent_discrepancies()
    assert set(diffs) == {"5"}
    row0 = cayley.tangent_weights(cayley.point_by_label("0"))
    assert cayley.tangent_weights(cayley.point_by_label("5")) == Counter(
        {w.under((BETA, GAMMA)): m for w, m in row0.items()}
    )
    assert "tangents.row-5" in _flagged("tangents")
    note(2, "14 of 15 rows match; row 5 is the symmetric image of row 0 and is reported")


def test_criterion_03_betti_numbers():
    assert cayley.betti_profile(CHAMBER) == [1, 1, 2, 2, 3, 2, 2, 1, 1]
    for p in cayley.enumerate_fixed_points():
        assert cayley.codim_of_point(p, CHAMBER) == int(p.label.rstrip("'"))
    note(3, "chamber (1,2) gives profile (1,1,2,2,3,2,2,1,1) with codim = label")


def test_criterion_04_equivariant_classes():
    classes = equivariant.solve_all_classes()
    assert len(classes) == 15
    s2 = classes["2"]
    assert s2["8"] == parse_form("4g(g-b)")
    assert s2["4''"] == parse_form("-3bg")
    assert s2["0"].is_zero()
    # odd codimension matches the printed figure up to one global sign
    s1 = classes["1"]
    assert s1["8"] == parse_form("4g") == parse_form("-4g").scale(-1)
    fig1 = load_fixture("gkm_sigma1")["values"]
    assert all(s1[lab] == parse_form(expr).scale(-1) for lab, expr in fig1.items())
    # even codimension: 14 of 15 printed values match; the one exception is
    # proven inconsistent with the edge congruences (see the literal test)
    fig2 = load_fixture("gkm_sigma2")["values"]
    mism = [lab for lab, expr in fig2.items() if s2[lab] != parse_form(expr)]
    assert mism == ["4'"]
    assert "classes.sigma2-at-4'" in _flagged("classes")
    note(4, "unique class per label; quoted localizations exact; odd rows match up to one sign")


@pytest.mark.xfail(strict=True, reason="printed codim-2 figure repeats the vertex-6 value at 4', violating the edge congruences there; 14 of 15 entries match")
def test_criterion_04_literal_even_figure():
    classes = equivariant.solve_all_classes()
    fig2 = load_fixture("gkm_sigma2")["values"]
    assert all(classes["2"][lab] == parse_form(expr) for lab, expr in fig2.items())


def test_criterion_05_monk_formula():
    monk = equivariant.monk_matrix()
    assert monk["2"] == {"3": 1, "3'": 3}
    assert monk["2'"] == {"3": 2, "3'": 2}
    degs = equivariant.degrees()
    for lab, row in monk.items():
        if row:
            assert degs[lab] == sum(c * degs[t] for t, c in row.items())
    note(5, "H*s2 = s3+3s3' and H*s2' = 2s3+2s3'; full matrix degree-additive")


def test_criterion_06_degrees():
    degs = equivariant.degrees()
    assert sorted(degs.values()) == sorted([182, 182, 82, 100, 34, 16, 6, 11, 5, 3, 5, 1, 1, 1, 1])
    assert degs == {k: int(v) for k, v in load_fixture("degrees")["degrees"].items()}
    assert equivariant.sigma1_powers()[8] == SchubertVector({"8": 182})
    assert degs["4"] ** 2 + degs["4'"] ** 2 + degs["4''"] ** 2 == 182
    note(6, "degrees {82,100,34,16,6,11,5,3,5,1,1,1,1}; integral of H^8 is 182 = 5^2+11^2+6^2")


def test_criterion_07_multiplication_table():
    table = equivariant.multiplication_table()

    def product(a, b):
        return table[tuple(sorted((a, b)))]

    assert product("2", "2") == SchubertVector({"4": 1, "4'": 2, "4''": 2})
    assert product("6", "2") == SchubertVector({"8": 1})
    assert product("6'", "2") == SchubertVector({})
    # every unambiguous printed row
    rows = load_fixture("mult_table")["rows"]
    for row in rows:
        if "duplicate_of" in row:
            continue
        key = tuple(sorted((row["left"], row["right"])))
        assert product(*key) == SchubertVector({k: int(v) for k, v in row["result"].items()}), key
    # duplicated rows resolved: the second (4,4) line is (4',4'), and the
    # repeated lines for 5 stand for 5', whose product with s2 is 3 s7
    assert product("4'", "4'") == SchubertVector({"8": 1})
    assert product("5'", "2") == SchubertVector({"7": 3})
    assert product("5'", "2'") == SchubertVector({"7": 2})
    assert "mult.duplicate-row.2*5'" in _flagged("mult")
    note(7, "all unambiguous printed rows reproduced; duplicates resolved and reported")


def test_criterion_08_ring_presentation():
    rep = equivariant.verify_ring_presentation()
    assert rep["generator"] == "2"
    assert rep["relations"]["2"]["rel1"].is_zero()
    assert rep["relations"]["2"]["rel2"].is_zero()
    for k, row in rep["ranks"].items():
        assert row["rank"] == row["betti"]
    note(8, "both relations vanish on sigma_2; monomial ranks reproduce the Betti numbers")


def test_criterion_09_restriction_and_index():
    table = ambient.restriction_table()
    printed = load_fixture("restriction")["table"]
    assert len(printed) == 27  # the printed proposition lists 27 entries
    mismatched = {
        name
        for name, coeffs in printed.items()
        if table[ambient.parse_partition(name)] != SchubertVector({k: int(v) for k, v in coeffs.items()})
    }
    assert mismatched == {"2", "11"}
    # the swap is forced: restriction is a ring homomorphism
    t = equivariant.basis_vector
    up = ambient.lr_multiply(t((1, 1)), t((1, 1)))
    lhs = SchubertVector({})
    for nu, c in up.items():
        lhs = lhs + table[nu].scale(c)
    assert lhs == equivariant.schubert_product(table[(1, 1)], table[(1, 1)])
    assert table[(1, 1)] == SchubertVector({"2'": 1})
    assert table[(2,)] == SchubertVector({"2": 1})
    assert ambient.image_index() == 16
    assert "restriction.level-2-swap" in _flagged("restriction")
    note(9, "25 of 27 printed entries verbatim, level-2 pair provably swapped in print; index 16")


@pytest.mark.xfail(strict=True, reason="the printed table has 27 entries, not 33, and its two codim-2 images are interchanged (the homomorphism property forces the computed assignment)")
def test_criterion_09_literal_table():
    table = ambient.restriction_table()
    printed = load_fixture("restriction")["table"]
    assert len(printed) == 33
    for name, coeffs in printed.items():
        assert table[ambient.parse_partition(name)] == SchubertVector(
            {k: int(v) for k, v in coeffs.items()}
        )


def test_criterion_10_chern_classes():
    chern = invariants.chern_classes()
    printed = load_fixture("chern")["classes"]
    for k in (1, 2, 3, 4, 7, 8):
        assert chern[k] == SchubertVector({lab: int(c) for lab, c in printed[str(k)].items()}), k
    # computed c5, c6 confirmed by two independent routes (the printed
    # dual polynomial coefficients 344/-860 and ambient intersections)
    assert chern[5] == SchubertVector({"5": 160, "5'": 76})
    assert chern[6] == SchubertVector({"6": 151, "6'": 193})
    probes = probe_pairings()
    assert probes[5]["t111"] == 160 and probes[5]["t3"] == 76
    assert probes[6]["t2"] == 151 and probes[6]["t11"] == 193
    assert chern[8] == SchubertVector({"8": 15})
    assert _flagged("chern") == {"chern.c5", "chern.c6"}
    note(10, "six of eight printed classes verbatim; c5/c6 misprints established twice over; c8 = 15 s8")


@pytest.mark.xfail(strict=True, reason="printed c5 has its coefficients swapped and printed c6 is off; both contradict the printed dual polynomial and the ambient intersection numbers")
def test_criterion_10_literal_chern_list():
    chern = invariants.chern_classes()
    printed = load_fixture("chern")["classes"]
    for k in range(1, 9):
        assert chern[k] == SchubertVector({lab: int(c) for lab, c in printed[str(k)].items()}), k


def test_criterion_11_dual_degree():
    coeffs, dprime, value = invariants.dual_degree()
    printed = load_fixture("dual_polynomial")["coefficients"]
    assert [i for i in range(9) if coeffs[i] != printed[i]] == [7]
    assert coeffs[7] == -728 == -4 * 182  # forced by c1 = 4 s1 and degree 182
    assert dprime == 63 != 0
    # the printed dual degree 17 is the absolute derivative of the
    # misprinted polynomial
    assert sum((i + 1) * c for i, c in enumerate(printed)) == -17
    assert _flagged("dual") == {"dual.q8-coefficient", "dual.derivative"}
    note(11, "eight of nine printed coefficients verbatim; q^8 = -728 forced; derivative 63")


@pytest.mark.xfail(strict=True, reason="the printed q^8 coefficient -738 contradicts c1 = 4 s1 with degree 182 (which force -728), and 17 is the absolute derivative of the misprinted polynomial")
def test_criterion_11_literal_dual_polynomial():
    coeffs, dprime, _ = invariants.dual_degree()
    assert coeffs == [15, -90, 344, -860, 1492, -1784, 1438, -738, 182]
    assert dprime == 17


def test_criterion_12_hilbert_polynomial():
    p = invariants.hilbert_polynomial()
    for k in range(11):
        assert p[k] == invariants.closed_form_value(k) == invariants.hilbert_value(k)
    assert p[1] == 28
    assert invariants.quadric_count() == 119
    # 8! times the leading coefficient: the 8th finite difference
    assert sum((-1) ** (8 - k) * comb(8, k) * p[k] for k in range(9)) == 182
    note(12, "Koszul route equals the closed form for k = 0..10; P(1)=28; 119 quadrics; degree 182")


def test_criterion_13_equivariant_series():
    rows = invariants.equivariant_series_check(6)
    assert [r[0] for r in rows] == list(range(7))
    assert rows[1] == (1, 28, 28)  # 1 + 27
    note(13, "section dimensions equal summed irreducible dimensions for k = 0..6")


def test_criterion_14_algebra_layer():
    E, I = octonions.E, octonions.I
    samples = [E[1] + E[3].scale(2), E[2] + E[5].scale(I), E[4] - E[6].scale(3) + E[7]]
    for x in samples:
        for y in samples:
            xx = octonions.multiply(x, x)
            assert octonions.multiply(x, octonions.multiply(x, y)) == octonions.multiply(xx, y)
            assert octonions.norm(octonions.multiply(x, y)) == octonions.norm(x) * octonions.norm(y)
    for i in range(1, 8):
        for j in range(1, 8):
            assert octonions.im_product_via_form(E[i], E[j]) == octonions.multiply(E[i], E[j]).imaginary()
    assert len(octonions.g2_basis()) == 14
    stabs = [
        octonions.g2_stabilizer_dim(octonions.model_h0()),
        octonions.g2_stabilizer_dim(octonions.model_h1()),
        octonions.g2_stabilizer_dim(octonions.model_h2()),
    ]
    assert stabs == [6, 7, 9]
    assert [14 - s for s in stabs] == [8, 7, 5]
    tags = [
        octonions.classify(octonions.model_h0()),
        octonions.classify(octonions.model_h1()),
        octonions.classify(octonions.model_h2()),
    ]
    assert tags == [
        octonions.OrbitType.NON_DEGENERATE,
        octonions.OrbitType.DEGENERATE_RANK_ONE,
        octonions.OrbitType.ISOTROPIC,
    ]
    note(14, "alternativity, norm multiplicativity, form recovery, dim 14, stabilizers (6,7,9)")


def test_criterion_15_property_suites():
    classes = equivariant.solve_all_classes()
    for cls in classes.values():
        equivariant.check_gkm_divisibility(cls)
    # under-degree integrals vanish
    assert equivariant.ab_integrate(equivariant.pointwise_product(classes["2"], classes["3"])) == 0
    assert equivariant.ab_integrate(classes["5'"]) == 0
    table = equivariant.multiplication_table()
    for vec in table.values():
        for _, c in vec.items():
            assert isinstance(c, int) and c >= 0
    dual = cayley.point_permutation((-ALPHA, -BETA))
    for rows in equivariant.poincare_pairing().values():
        for (la, lb), val in rows.items():
            assert val == (1 if dual[la] == lb else 0)
    note(15, "GKM divisibility everywhere; under-degree integrals zero; pairing = central symmetry")
