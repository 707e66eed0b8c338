from fractions import Fraction

import pytest

from cayleygr.ambient import restriction_table
from cayleygr.cayley import enumerate_fixed_points, gkm_edges
from cayleygr.equivariant import (
    EqClass,
    SchubertVector,
    ab_integrate,
    basis_vector,
    check_gkm_divisibility,
    degrees,
    expand_in_basis,
    fundamental_class,
    hyperplane_class,
    labels_by_codim,
    monk_matrix,
    multiplication_table,
    point_class,
    pointwise_product,
    poincare_pairing,
    schubert_product,
    sigma1_power,
    solve_all_classes,
    top_expansion,
    verify_poincare_duality,
    verify_ring_presentation,
)
from cayleygr.exact import divide_by_linear
from cayleygr.fixtures import load_fixture, parse_form
from cayleygr.invariants import chern_classes, hilbert_polynomial
from cayleygr.octonions import g2_basis


def vec(d):
    return SchubertVector(d)


def test_fundamental_and_point_class():
    one = fundamental_class()
    assert not one["0"].is_zero() and one["0"].evaluate(1, 1) == 1
    assert one["8"] == one["0"]
    check_gkm_divisibility(one)
    pc = point_class()
    assert pc["0"].is_zero()
    assert pc["8"] == parse_form("4a^2b^2g^2(g-a)(g-b)")
    assert ab_integrate(pc) == 1


def test_hyperplane_class_values():
    h = hyperplane_class()
    assert h["0"].is_zero()
    assert h["8"] == parse_form("4g")   # the figure prints -4g: one global sign
    assert h["4"] == parse_form("2g")
    check_gkm_divisibility(h)


def test_solver_reproduces_base_cases():
    classes = solve_all_classes()
    assert classes["1"] == hyperplane_class()
    assert classes["8"] == point_class()
    assert classes["0"] == fundamental_class()


def test_all_classes_satisfy_gkm_conditions():
    classes = solve_all_classes()
    by_codim = labels_by_codim()
    for lab, cls in classes.items():
        check_gkm_divisibility(cls)
        # support vanishing: zero at strictly lower codimension vertices
        for p in enumerate_fixed_points():
            if p.codim < cls.codim:
                assert cls[p.label].is_zero()


def test_sigma1_figure_matches_up_to_global_sign():
    classes = solve_all_classes()
    fig = load_fixture("gkm_sigma1")["values"]
    for lab, expr in fig.items():
        assert classes["1"][lab] == parse_form(expr).scale(-1), lab


def test_sigma2_figure_matches_except_one_misprint():
    classes = solve_all_classes()
    fig = load_fixture("gkm_sigma2")["values"]
    mismatches = [lab for lab, expr in fig.items() if classes["2"][lab] != parse_form(expr)]
    assert mismatches == ["4'"]
    # the printed value at 4' (a copy of the vertex-6 entry) violates the
    # edge congruences, so it cannot be the localization of any class
    bad = parse_form(fig["4'"])
    for e in gkm_edges().edges:
        if "4'" in e.labels:
            diff = bad - classes["2"][e.other("4'")]
            w = e.primitive()
            assert divide_by_linear(diff, w[0], w[1]) is None
    assert classes["2"]["4'"] == parse_form("g(g-b)")


def test_ab_integration():
    classes = solve_all_classes()
    h = hyperplane_class()
    data = classes["0"]
    for _ in range(8):
        data = pointwise_product(data, h)
    assert ab_integrate(data) == 182
    # under-degree products integrate to zero
    assert ab_integrate(pointwise_product(classes["2"], classes["3"])) == 0
    assert ab_integrate(classes["5"]) == 0
    # full complementary pairing sweep lands in the integers
    by_codim = labels_by_codim()
    for k in range(9):
        for la in by_codim[k]:
            for lb in by_codim[8 - k]:
                val = ab_integrate(pointwise_product(classes[la], classes[lb]))
                assert val.denominator == 1


def test_expansion_examples():
    classes = solve_all_classes()
    h = classes["1"]
    assert top_expansion(pointwise_product(h, h)) == vec({"2": 1, "2'": 1})
    assert top_expansion(pointwise_product(classes["2"], h)) == vec({"3": 1, "3'": 3})
    assert top_expansion(pointwise_product(classes["2'"], h)) == vec({"3": 2, "3'": 2})
    # full expansion of H^2 includes lower terms with form coefficients
    full = expand_in_basis(pointwise_product(h, h))
    assert set(full) >= {"2", "2'", "1"}
    with pytest.raises(ArithmeticError):
        # a multiset that is not in the span: tweak one vertex of sigma_2
        broken = dict(classes["2"].values)
        broken["8"] = parse_form("a^2")
        expand_in_basis(broken)


def test_monk_matrix_against_figure():
    monk = monk_matrix()
    fig = load_fixture("bruhat_monk")["monk"]
    assert monk == {lab: {k: int(v) for k, v in row.items()} for lab, row in fig.items()}
    degs = degrees()
    for lab, row in monk.items():
        if row:
            assert degs[lab] == sum(c * degs[t] for t, c in row.items())


def test_degrees_match_reference():
    degs = degrees()
    fig = {k: int(v) for k, v in load_fixture("degrees")["degrees"].items()}
    assert degs == fig
    assert degs["4"] ** 2 + degs["4'"] ** 2 + degs["4''"] ** 2 == 182


def test_multiplication_table_against_reference():
    table = multiplication_table()
    rows = load_fixture("mult_table")["rows"]
    misreads = []
    for row in rows:
        left = row.get("duplicate_of", row["left"])
        if row["left"] == "4" and row["right"] == "4" and "duplicate_of" in row:
            key = ("4'", "4'")
        else:
            key = tuple(sorted((left, row["right"])))
        computed = table[key]
        printed = vec({k: int(v) for k, v in row["result"].items()})
        if computed != printed:
            misreads.append((key, printed, computed))
    # the only discrepancy: the duplicated row for 5' understates 5' * 2
    assert [(k, dict(p.items()), dict(c.items())) for k, p, c in misreads] == [
        (("2", "5'"), {"7": 1}, {"7": 3})
    ]


def test_structure_constants_non_negative_integers():
    table = multiplication_table()
    for key, v in table.items():
        for lab, c in v.items():
            assert isinstance(c, int) and c >= 0


def test_table_symmetry_and_associativity_samples():
    s2, s2p, s3 = basis_vector("2"), basis_vector("2'"), basis_vector("3")
    for u, v, w in [(s2, s2p, s3), (s2, s2, s2), (s2p, s3, s2)]:
        left = schubert_product(schubert_product(u, v), w)
        right = schubert_product(u, schubert_product(v, w))
        assert left == right


def test_poincare_pairing_is_central_symmetry():
    dual = verify_poincare_duality()
    assert dual["2"] == "6" and dual["4'"] == "4'"
    pairing = poincare_pairing()
    for k, rows in pairing.items():
        for (la, lb), val in rows.items():
            assert val == (1 if dual[la] == lb else 0)


def test_ring_presentation():
    rep = verify_ring_presentation()
    assert rep["generator"] == "2"
    rel = rep["relations"]["2"]
    assert rel["rel1"].is_zero() and rel["rel2"].is_zero()
    # the other codimension-2 class does not satisfy the relations
    other = rep["relations"]["2'"]
    assert not (other["rel1"].is_zero() and other["rel2"].is_zero())
    for k, row in rep["ranks"].items():
        assert row["rank"] == row["betti"]


def test_sigma1_powers():
    assert sigma1_power(2) == vec({"2": 1, "2'": 1})
    assert sigma1_power(4) == vec({"4": 6, "4'": 11, "4''": 5})
    assert sigma1_power(8) == vec({"8": 182})


@pytest.mark.parametrize(
    "stage",
    [
        degrees,
        solve_all_classes,
        multiplication_table,
        restriction_table,
        chern_classes,
        hilbert_polynomial,
        enumerate_fixed_points,
        gkm_edges,
        g2_basis,
    ],
    ids=lambda stage: stage.__name__,
)
def test_stage_is_memoized(stage):
    assert stage() is stage()
