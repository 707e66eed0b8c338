import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from cayleygr.ambient import localized_generators, restriction_table
from cayleygr.cayley import enumerate_fixed_points, gkm_edges, point_by_label, point_permutation, repelling_weights
from cayleygr.equivariant import (
    SchubertVector,
    ab_integrate,
    base_label,
    basis_vector,
    check_gkm_divisibility,
    degree_of,
    degrees,
    dual_labels,
    expand_in_basis,
    fundamental_class,
    hyperplane_class,
    hyperplane_label,
    integrate_against,
    labels_by_codim,
    lefschetz_report,
    monk_matrix,
    multiplication_table,
    point_class,
    pointwise_product,
    poincare_pairing,
    ring_monomials,
    schubert_product,
    schubert_sum,
    sigma1_powers,
    solve_all_classes,
    top_by_duality,
    top_expansion,
)
from cayleygr import cli, equivariant, exact
from cayleygr.exact import HomogPoly, divide_by_linear, elementary_symmetric, poly_mul
from cayleygr.fixtures import load_fixture, parse_form
from cayleygr.invariants import chern_classes, hilbert_polynomial
from cayleygr.octonions import g2_basis
from cayleygr.weightmodel import ALPHA, BETA
from integration_reference import (
    reference_integrate,
    reference_localization_denominator,
    reference_normal_weight_product,
    reference_pointwise_product,
)


def vec(d):
    return SchubertVector(d)


def test_fundamental_and_point_class():
    one = fundamental_class()
    assert not one["0"].is_zero() and one["0"].evaluate(1, 1) == 1
    assert one["8"] == one["0"]
    assert check_gkm_divisibility(one) == []
    pc = point_class()
    assert pc["0"].is_zero()
    assert pc["8"] == parse_form("4a^2b^2g^2(g-a)(g-b)")
    assert ab_integrate(pc) == 1


def test_hyperplane_class_values():
    h = hyperplane_class()
    assert h["0"].is_zero()
    assert h["8"] == parse_form("4g")   # the figure prints -4g: one global sign
    assert h["4"] == parse_form("2g")
    assert check_gkm_divisibility(h) == []


def test_solver_reproduces_base_cases():
    classes = solve_all_classes()
    assert classes["1"] == hyperplane_class()
    assert classes["8"] == point_class()
    assert classes["0"] == fundamental_class()


def test_all_classes_satisfy_gkm_conditions():
    classes = solve_all_classes()
    by_codim = labels_by_codim()
    for lab, cls in classes.items():
        assert check_gkm_divisibility(cls) == []
        # support vanishing: zero at strictly lower codimension vertices
        for p in enumerate_fixed_points():
            if p.codim < point_by_label(lab).codim:
                assert cls[p.label].is_zero()


@settings(max_examples=40, deadline=None)
@given(
    st.integers(0, 4).flatmap(lambda d: st.lists(st.integers(-3, 3), min_size=d + 1, max_size=d + 1)),
    st.sampled_from([p.label for p in enumerate_fixed_points()]),
)
def test_congruence_predicate_is_exact_division(coeffs, label):
    # the predicate decides each edge on the zero line of its weight; for
    # binary forms, nonzero constants included, that is divisibility by the
    # weight, and by twice it; the form sits at one vertex, zero elsewhere
    d = len(coeffs) - 1
    g = HomogPoly(d, {(d - i, i): c for i, c in enumerate(coeffs)})
    for factor in (1, 2):
        edges = tuple(e._replace(weight=e.weight * factor) for e in gkm_edges())
        with patch.object(equivariant, "gkm_edges", lambda: edges):
            for f in (g, *(poly_mul(g, e.weight.poly()) for e in edges if label in e.labels)):
                cls = {p.label: HomogPoly.zero(f.degree) for p in enumerate_fixed_points()} | {label: f}
                failing = {failure.split()[0] for failure in check_gkm_divisibility(cls)}
                assert failing == {
                    "-".join(sorted(e.labels)) for e in edges if label in e.labels and divide_by_linear(f, *e.weight) is None
                }


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
    for e in gkm_edges():
        if "4'" in e.labels:
            (other,) = e.labels - {"4'"}
            diff = bad - classes["2"][other]
            w = e.weight.primitive()
            assert divide_by_linear(diff, w[0], w[1]) is None
    # the predicate the report reads names exactly those four edges
    assert check_gkm_divisibility(classes["2"] | {"4'": bad}) == [
        "1-4' (weight b-g)", "3'-4' (weight b-a)", "4'-5' (weight b-a)", "4'-7 (weight b-g)",
    ]
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
    # one vertex's data still needs every vertex's share of the denominator
    assert ab_integrate({"0": point_class()["8"]}) == 1
    with pytest.raises(ArithmeticError):
        ab_integrate({"0": HomogPoly(8, {(8, 0): 1})})
    # full complementary pairing sweep lands in the integers
    by_codim = labels_by_codim()
    for k in range(9):
        for la in by_codim[k]:
            for lb in by_codim[8 - k]:
                val = ab_integrate(pointwise_product(classes[la], classes[lb]))
                assert val.denominator == 1


def _euler_class(p):
    out = HomogPoly.constant(1)
    for w in p.tangent:
        out = poly_mul(out, w.poly())
    return out


def test_localization_denominator_is_integral_and_exact():
    # C_q = L / e_q with integer coefficients: integration never leaves the integers
    denominator, complements = equivariant._localization_denominator()
    assert denominator.degree == 12
    for p in enumerate_fixed_points():
        assert all(type(c) is int for c in complements[p.label].coeffs.values()), p.label
        assert poly_mul(complements[p.label], _euler_class(p)) == denominator, p.label


def test_products_of_weights_match_the_poly_mul_folds():
    # normal_weight_product and L are e_n of their linear forms; the old folds give the same forms, scalar types included
    for p in enumerate_fixed_points():
        assert _typed(equivariant.normal_weight_product(p.label)) == _typed(reference_normal_weight_product(p.label)), p.label
    assert _typed(equivariant._localization_denominator()[0]) == _typed(reference_localization_denominator())


def test_localization_denominator_raises_on_an_inexact_division(monkeypatch):
    monkeypatch.setattr(equivariant, "divide_by_linear", lambda f, a, b: None)
    with pytest.raises(ArithmeticError, match="does not divide the denominator"):
        equivariant._localization_denominator.__wrapped__()


def _localization_sum_at(values, at):
    """sum_q f(q) / e_q evaluated at a point where no tangent weight vanishes."""
    return sum(Fraction(f.evaluate(*at), _euler_class(point_by_label(lab)).evaluate(*at)) for lab, f in values.items())


@st.composite
def top_degree_combinations(draw):
    """A random integer combination of top-degree pointwise products of the classes and H."""
    classes = solve_all_classes()
    h = hyperplane_class()
    terms = draw(st.lists(st.tuples(st.integers(-9, 9).filter(bool),
                                    st.lists(st.sampled_from(enumerate_fixed_points()), max_size=3)),
                          min_size=1, max_size=3))
    out = {lab: HomogPoly.zero(8) for lab in classes}
    for c, points in terms:
        factors, codim = [], 0
        for p in points:
            if codim + p.codim <= 8:
                factors.append(classes[p.label])
                codim += p.codim
        product = pointwise_product(*factors, *[h] * (8 - codim))
        out = {lab: out[lab] + product[lab].scale(c) for lab in out}
    return out


@settings(max_examples=60, deadline=None)
@given(top_degree_combinations())
def test_ab_integrate_against_evaluation(values):
    # an independent route: the rational sum at two points off every tangent weight's zero line
    value = ab_integrate(values)
    for at in ((3, 7), (5, -2)):
        assert _localization_sum_at(values, at) == value


def test_ab_integrate_rejects_data_that_does_not_collapse():
    h8 = pointwise_product(*[hyperplane_class()] * 8)
    assert ab_integrate(h8) == _localization_sum_at(h8, (3, 7)) == _localization_sum_at(h8, (5, -2)) == 182
    bent = dict(h8)
    bent["4"] = bent["4"] + parse_form("ab^7")
    with pytest.raises(ArithmeticError, match="not a polynomial"):
        ab_integrate(bent)
    with pytest.raises(ArithmeticError, match="under-degree"):
        ab_integrate({"0": parse_form("a^3"), "8": parse_form("b^3")})


def test_expansion_examples():
    classes = solve_all_classes()
    h = classes["1"]
    assert top_expansion(pointwise_product(h, h)) == vec({"2": 1, "2'": 1})
    assert top_expansion(pointwise_product(classes["2"], h)) == vec({"3": 1, "3'": 3})
    assert top_expansion(pointwise_product(classes["2'"], h)) == vec({"3": 2, "3'": 2})
    # full expansion of H^2 includes lower terms with form coefficients
    full = expand_in_basis(pointwise_product(h, h))
    assert set(full) >= {"2", "2'", "1"}
    with pytest.raises(ArithmeticError, match="nonzero remainder"):
        # a multiset that is not in the span: tweak one vertex of sigma_2,
        # the point vertex, where no step of a degree-2 expansion divides
        broken = dict(classes["2"])
        broken["8"] = parse_form("a^2")
        expand_in_basis(broken)


def _expand_by_subtraction(values):
    """The chain that expand_in_basis replaces: each update r - q sigma_p as a product, a negation and a sum."""
    classes = solve_all_classes()
    remaining = dict(values)
    degree = next(iter(values.values())).degree
    out = {}
    for p in enumerate_fixed_points():
        if p.codim > degree:
            break
        quotient = remaining[p.label]
        if quotient.is_zero():
            continue
        for w in repelling_weights(p.tangent):
            quotient = divide_by_linear(quotient, w[0], w[1])
        out[p.label] = quotient
        for lab, value in classes[p.label].items():
            if not value.is_zero():
                remaining[lab] = remaining[lab] - poly_mul(quotient, value)
    assert all(v.is_zero() for v in remaining.values())
    return out


def test_expand_in_basis_against_the_subtraction_chain():
    classes = solve_all_classes()
    labels = [p.label for p in enumerate_fixed_points()]
    products = [pointwise_product(classes[a], classes[b]) for i, a in enumerate(labels) for b in labels[i:]]
    assert len(products) == 120
    for values in products:
        assert expand_in_basis(values) == _expand_by_subtraction(values)


LABELS = ("0", "1", "2", "2'", "3", "3'", "4", "4'", "4''", "5", "5'", "6", "6'", "7", "8")
schubert_vectors = st.dictionaries(st.sampled_from(LABELS), st.integers(-4, 4), max_size=6).map(SchubertVector)


def _product_by_rows(u, v):
    """The chain that schubert_product replaces: one scaled table row added at a time."""
    table = multiplication_table()
    out = SchubertVector({})
    for la, ca in u.items():
        for lb, cb in v.items():
            out = out + table[tuple(sorted((la, lb)))].scale(ca * cb)
    return out


@settings(max_examples=80, deadline=None)
@given(schubert_vectors, schubert_vectors)
def test_schubert_product_against_the_sum_of_rows(u, v):
    assert schubert_product(u, v) == _product_by_rows(u, v)


def test_schubert_product_of_a_primitive_class_cancels():
    # x = c' sigma_2 - c sigma_2' with x H^5 = 0: the rows cancel to the zero vector
    h5 = sigma1_powers()[5]
    c, c_prime = (schubert_product(basis_vector(lab), h5)["7"] for lab in ("2", "2'"))
    assert c and c_prime
    x = vec({"2": c_prime, "2'": -c})
    assert schubert_product(x, h5) == _product_by_rows(x, h5) == vec({})
    assert schubert_sum([(2, x), (-1, x), (-1, x)]).coeffs == {}


def test_mixed_degree_data_is_rejected():
    # integration, expansion and the dual coordinates share one uniform-degree check
    cases = {"mixed degrees": {"1": parse_form("a"), "8": parse_form("a^2")}, "empty vertex map": {}}
    pair_with_h = lambda data: integrate_against(data, hyperplane_label())
    for message, data in cases.items():
        for route in (ab_integrate, expand_in_basis, top_by_duality, pair_with_h):
            with pytest.raises(ValueError, match=message):
                route(data)


def test_monk_matrix_against_figure():
    monk = monk_matrix()
    fig = load_fixture("bruhat_monk")["monk"]
    assert monk == {lab: {k: int(v) for k, v in row.items()} for lab, row in fig.items()}
    degs = degrees()
    for lab, row in monk.items():
        if row:
            assert degs[lab] == sum(c * degs[t] for t, c in row.items())


def test_degree_of_against_fixed_point_integration():
    # c_k H^(8-k) integrated over the fixed points, the tangent weights' e_k times H^(8-k),
    # against the degree sum of the Schubert coordinates of c_k
    h = hyperplane_class()
    elementary = {p.label: elementary_symmetric(p.tangent) for p in enumerate_fixed_points()}
    for k in range(1, 9):
        data = {lab: e[k] for lab, e in elementary.items()}
        for _ in range(8 - k):
            data = pointwise_product(data, h)
        assert degree_of(chern_classes()[k]) == ab_integrate(data)
    assert all(degree_of({lab: 1}) == deg for lab, deg in degrees().items())
    assert len(degrees()) == 15


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
        key = tuple(sorted(row.get("duplicate_of", (row["left"], row["right"]))))
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
    dual = point_permutation((-ALPHA, -BETA))
    assert dual["2"] == "6" and dual["4'"] == "4'"
    pairing = poincare_pairing()
    for k, rows in pairing.items():
        for (la, lb), val in rows.items():
            assert val == (1 if dual[la] == lb else 0)


def test_dual_labels_are_the_central_symmetry():
    assert dual_labels() == point_permutation((-ALPHA, -BETA))


@pytest.mark.parametrize(
    "pair, value",
    [(("4", "4"), 2), (("4", "4'"), 1)],
    ids=["self-pairing-2", "extra-off-diagonal-pairing"],
)
def test_dual_labels_reject_a_block_that_is_not_a_permutation(monkeypatch, pair, value):
    pairing = {k: dict(rows) for k, rows in poincare_pairing().items()}
    pairing[4][pair] = value
    monkeypatch.setattr(equivariant, "poincare_pairing", lambda: pairing)
    with pytest.raises(ArithmeticError, match="not one 1"):
        dual_labels.__wrapped__()


def _duality_inputs():
    """The 8 Chern maps, the 4 generator images, the square of e_2 and all 120 table products."""
    elementary = {p.label: elementary_symmetric(p.tangent) for p in enumerate_fixed_points()}
    e = localized_generators()
    classes = solve_all_classes()
    labels = [p.label for p in enumerate_fixed_points()]
    inputs = [{lab: forms[k] for lab, forms in elementary.items()} for k in range(1, 9)]
    inputs += [*e[1:], pointwise_product(e[2], e[2])]
    inputs += [pointwise_product(classes[a], classes[b]) for i, a in enumerate(labels) for b in labels[i:]]
    assert len(inputs) == 133
    return inputs


def test_top_by_duality_against_top_expansion():
    for values in _duality_inputs():
        assert top_by_duality(values) == top_expansion(values)


def _pairing_by_product(values, label):
    """The chain that integrate_against replaces: the product map, then fixed-point integration."""
    return ab_integrate(pointwise_product(values, solve_all_classes()[label]))


def test_integrate_against_matches_the_product_chain():
    # on the 133 inputs of the duality coordinates, against every class of the complementary codimension
    by_codim = labels_by_codim()
    for values in _duality_inputs():
        degree = next(iter(values.values())).degree
        for lab in by_codim.get(8 - degree, ()):
            assert integrate_against(values, lab) == _pairing_by_product(values, lab)
    # and on the 29 integrals of the Poincare pairing
    classes = solve_all_classes()
    pairs = [(la, lb) for k in range(9) for la in by_codim[k] for lb in by_codim[8 - k]]
    assert len(pairs) == 29
    for la, lb in pairs:
        assert integrate_against(classes[la], lb) == _pairing_by_product(classes[la], lb)


@pytest.mark.parametrize(
    "bent_label, label, message",
    [("4", "4'", "not a polynomial"), ("2", "2", "under-degree")],
    ids=["top-degree", "under-degree"],
)
def test_integrate_against_rejects_bent_data(bent_label, label, message):
    # sigma_X moved off the classes at the point vertex: in top degree the
    # fixed-point sum is no polynomial, and below it the sum fails to vanish
    bent = dict(solve_all_classes()[bent_label])
    bent["8"] = bent["8"] + parse_form(f"a^{point_by_label(bent_label).codim}")
    for route in (integrate_against, _pairing_by_product):
        with pytest.raises(ArithmeticError, match=message):
            route(bent, label)


@st.composite
def vertex_maps(draw):
    """A vertex map of one degree <= 8 on some fixed points, with small integer coefficients."""
    degree = draw(st.integers(0, 8))
    labels = draw(st.lists(st.sampled_from([p.label for p in enumerate_fixed_points()]), min_size=1, unique=True))
    return {lab: HomogPoly(degree, {(p, degree - p): draw(st.integers(-3, 3)) for p in range(degree + 1)}) for lab in labels}


def _outcome(route, values):
    """The value of an integration route, or the type and message of the ArithmeticError it raises."""
    try:
        return route(values)
    except ArithmeticError as exc:
        return type(exc), str(exc)


@settings(max_examples=80, deadline=None)
@given(st.one_of(vertex_maps(), top_degree_combinations(), st.just(point_class())), st.sampled_from(["9", "0''", "a"]))
def test_integration_entries_share_one_body(values, stray):
    # against the fundamental class, integrate_against weights each vertex by C_q, as ab_integrate does
    against_one = lambda data: integrate_against(data, base_label())
    assert _outcome(ab_integrate, values) == _outcome(against_one, values)
    # a vertex that is no fixed point raises on both entries, against any class
    form = next(iter(values.values()))
    strayed = values | {stray: form}
    complement = labels_by_codim()[8 - form.degree][-1]
    for route in (ab_integrate, against_one, lambda data: integrate_against(data, complement)):
        with pytest.raises(KeyError):
            route(strayed)


_BIG = 2**200
_big_scalars = st.one_of(st.just(0), st.integers(-_BIG, _BIG))
_WIDE = 2**64
_wide_scalars = st.one_of(st.just(0), st.integers(-_WIDE, _WIDE))


@st.composite
def integration_cases(draw):
    """(vertex map, weighting, stray vertex or None, non-integral or not) for the packed numerator and its reference.

    The weighting is None for ``ab_integrate``'s C_q and a label Y for
    ``integrate_against``'s sigma_Y(q) C_q.  The map is either random (degree
    0-8, integer coefficients up to 2^64 or 2^200, zero forms included) or
    a sum of scaled products of the classes of the degree complementary to
    Y, whose integral is a value; the coefficient sizes make the packing
    shift range over several powers of two.  In half the cases one vertex
    of nonzero weight then gets an odd number of halves as a coefficient,
    the largest |coefficient| of its form in one of those cases and a
    smaller one in the other (the largest in degree 0).
    """
    labels = [p.label for p in enumerate_fixed_points()]
    against = draw(st.one_of(st.none(), st.sampled_from(labels)))
    if draw(st.integers(0, 2)) == 0:
        degree = draw(st.integers(0, 8))
        support = draw(st.lists(st.sampled_from(labels), min_size=1, unique=True))
        scalars = draw(st.sampled_from([_wide_scalars, _big_scalars]))
        values = {lab: HomogPoly(degree, {(p, degree - p): draw(scalars) for p in range(degree + 1)}) for lab in support}
    else:
        classes = solve_all_classes()
        degree = 8 - (point_by_label(against).codim if against else 0)
        values = {lab: HomogPoly.zero(degree) for lab in labels}
        for _ in range(draw(st.integers(1, 2))):
            factors, codim = [], 0
            for p in draw(st.lists(st.sampled_from(enumerate_fixed_points()), max_size=3)):
                if codim + p.codim <= degree:
                    factors.append(classes[p.label])
                    codim += p.codim
            product = pointwise_product(fundamental_class(), *factors, *[hyperplane_class()] * (degree - codim))
            c = draw(st.one_of(_wide_scalars, _big_scalars))
            values = {lab: values[lab] + product[lab].scale(c) for lab in labels}
    kind = draw(st.sampled_from([None, None, "largest", "smaller"]))
    if kind is not None:
        weights = equivariant._vertex_weights(against).forms
        q = draw(st.sampled_from([lab for lab in labels if not weights[lab].is_zero()]))
        coeffs = [values[q].coefficient(p) if q in values else 0 for p in range(degree + 1)]
        p, sign = draw(st.integers(0, degree)), draw(st.sampled_from([1, -1]))
        if kind == "smaller" and degree:
            coeffs[p], coeffs[p - 1] = Fraction(sign, 2), max(map(abs, coeffs)) + 1
        else:
            coeffs[p] = Fraction(sign * (2 * max(map(abs, coeffs)) + 1), 2)
        values = values | {q: HomogPoly(degree, {(i, degree - i): c for i, c in enumerate(coeffs)})}
    stray = draw(st.sampled_from([None, None, None, "9", "0''"]))
    return values, against, stray, kind is not None


def _value_or_error(route, *args):
    """The value of an integration route, or the type of the error it raises."""
    try:
        return route(*args)
    except (ArithmeticError, ValueError, KeyError, TypeError) as exc:
        return type(exc)


@settings(max_examples=150, deadline=None)
@given(integration_cases())
def test_packed_numerator_matches_the_reference(case):
    # the packed numerator and certificate against the coefficient table, value for value and error for error;
    # a non-integral coefficient gives no value and no certificate error, only TypeError
    values, against, stray, non_integral = case
    extra = point_by_label(against).codim if against else 0
    if stray is not None:
        values = values | {stray: next(iter(values.values()))}
    got = _value_or_error(equivariant._integrate, values, against)
    want = _value_or_error(reference_integrate, values, equivariant._vertex_weights(against).forms, extra)
    if non_integral and want not in (ValueError, KeyError):
        want = TypeError
    assert got == want
    assert type(got) is Fraction or got in (ArithmeticError, ValueError, KeyError, TypeError)


# Counts, in a fresh process, the certified integrals (``equivariant._integrate``
# calls) of one source and those whose integrand has a coefficient that is not
# an ``int``, and prints both as JSON.  The sources are a whole ``verify all
# --format json``, the six dumps, and the benchmark's ``integrate`` worker: its
# set-up (class solve, multiplication table, the warm-up integral of H^8) and
# the first pass of seed 1, drawn by ``pass_monomials`` of perfbench/bench.py.
_INTEGRAND_SPY = r"""
import contextlib, importlib.util, io, json, sys
from cayleygr import cli, equivariant as eq

integrals, non_int = 0, 0
integrate = eq._integrate


def spied_integrate(values, weighting):
    global integrals, non_int
    integrals += 1
    non_int += any(type(c) is not int for form in values.values() for c in form.coeffs.values())
    return integrate(values, weighting)


eq._integrate = spied_integrate
source, bench_path = sys.argv[1:]
if source == "verify-all":
    runs = [["verify", "all", "--format", "json"]]
elif source == "dumps":
    runs = [["dump", what] for what in sorted(cli.DUMPS)]
else:
    runs = []
    classes = eq.solve_all_classes()
    eq.multiplication_table()
    h = eq.hyperplane_class()
    assert eq.ab_integrate(eq.pointwise_product(classes["0"], *[h] * 8)) == 182
    spec = importlib.util.spec_from_file_location("perfbench_bench", bench_path)
    bench = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)

    def table_integral(mono):
        vec = eq.basis_vector("0")
        for lab in mono:
            vec = eq.schubert_product(vec, eq.basis_vector(lab))
        return eq.integrate_vector(vec)

    for mono, expected in bench.pass_monomials(1, 0, table_integral):
        assert eq.ab_integrate(eq.pointwise_product(*[classes[lab] for lab in mono])) == expected, mono
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        if cli.main(argv) != 0:
            raise SystemExit(f"{argv} failed")
print(json.dumps({"integrals": integrals, "non_int": non_int}))
"""


@pytest.mark.parametrize("source", ["verify-all", "dumps", "integrate"])
def test_every_certified_integrand_has_integer_coefficients(source):
    # the packed kernel takes integer forms only; the traffic it serves must bring nothing else
    root = Path(__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-c", _INTEGRAND_SPY, source, str(root / "perfbench" / "bench.py")]
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, timeout=600)
    assert proc.returncode == 0, proc.stderr
    counts = json.loads(proc.stdout.splitlines()[-1])
    assert counts["integrals"] > 0 and counts["non_int"] == 0, counts


def _integrate_h_against_complements(complements):
    """ab_integrate's body on H with the C_q replaced at their source, the weight cache cleared before and after."""
    denominator = equivariant._localization_denominator()[0]
    with patch.object(equivariant, "_localization_denominator", lambda: (denominator, complements)):
        equivariant._vertex_weights.cache_clear()
        try:
            return equivariant._integrate(hyperplane_class(), None)
        finally:
            equivariant._vertex_weights.cache_clear()


@pytest.mark.parametrize(
    "route, message",
    [
        (lambda: ab_integrate({"0": HomogPoly(9, {(9, 0): 1})}), "at most 8"),
        (lambda: integrate_against(solve_all_classes()["2"], "7"), "at most 8"),
        (lambda: _integrate_h_against_complements({p.label: parse_form("a^5") for p in enumerate_fixed_points()}),
         "product of degree 6 in a sum of degree 5"),
        (lambda: _integrate_h_against_complements(equivariant._localization_denominator()[1] | {"4": parse_form("a^5")}),
         r"vertex data of mixed degrees \[4, 5\]"),
    ],
    ids=["degree-9", "against-over-degree", "weight-degree", "mixed-weight-degrees"],
)
def test_integration_rejects_degrees_that_do_not_fit(route, message):
    # data above degree 8, vertex weights whose degree does not fit the numerator's, and weights of mixed degrees raise ValueError
    with pytest.raises(ValueError, match=message):
        route()


def _is_power_of_two(n):
    return n > 0 and not n & (n - 1)


def test_integral_weights_are_packed_once_per_shift(monkeypatch):
    # each integral packs only its integrand; the weights are packed once per power-of-two shift
    classes, labels = solve_all_classes(), [p.label for p in enumerate_fixed_points()]
    products = [pointwise_product(classes[a], classes[b]) for i, a in enumerate(labels) for b in labels[i:]]
    assert len(products) == 120
    equivariant._vertex_weights.cache_clear()
    weights = equivariant._vertex_weights(None)
    assert weights.packings == {}
    held = {id(w) for w in weights.forms.values()}
    digits, shifts = exact._balanced_digits, []
    monkeypatch.setattr(exact, "_balanced_digits", lambda x, shift, count: shifts.append(shift) or digits(x, shift, count))
    pack, packed = exact.kronecker_value, []

    def spied_pack(form, *args):
        # records every packing of a weight form, as opposed to an integrand's
        if id(form) in held:
            packed.append(args)
        return pack(form, *args)

    monkeypatch.setattr(exact, "kronecker_value", spied_pack)

    def integrate_all():
        for values in products:
            shifts.clear()
            if next(iter(values.values())).degree > 8:
                with pytest.raises(ValueError, match="at most 8"):
                    ab_integrate(values)
                assert not shifts
                continue
            assert ab_integrate(values) == reference_integrate(values, weights.forms, 0)
            # at least the least s with 2^(s-1) above the bound sum_q min(#f_q, #w_q) max|f_q| max|w_q|
            nonzero = {q: f.coeffs for q, f in values.items() if f.coeffs and weights.forms[q].coeffs}
            bound = sum(min(len(a), weights.sizes[q][0]) * max(map(abs, a.values())) * weights.sizes[q][1] for q, a in nonzero.items())
            need = bound.bit_length() + 1
            assert len(shifts) == 1 and _is_power_of_two(shifts[0]) and shifts[0] >= need and shifts[0] in weights.packings

    integrate_all()
    # one full set of weight packings per shift met
    assert 0 < len(weights.packings) <= 2
    assert sorted(packed) == sorted((s,) for s in weights.packings for _ in weights.forms)
    packed.clear()
    integrate_all()
    assert not packed
    assert equivariant._vertex_weights(None) is weights


# wide fractions, and halves and twos, whose products are integral: a product coefficient built as Fraction(n, 1) shows in its type
_factor_scalars = st.one_of(
    _wide_scalars,
    st.builds(Fraction, st.integers(-_WIDE, _WIDE), st.integers(1, _WIDE)),
    st.sampled_from([Fraction(1, 2), Fraction(-3, 2), 2]),
)


@st.composite
def factor_maps(draw):
    """1-9 vertex maps on the 15 fixed points, each of one degree 0-3, with zero forms at drawn vertices.

    Each map assigns every vertex one of a few drawn forms, or the zero
    form of its degree; the first map has no zero form in about half the
    cases, so zeros in a later map only are drawn too.
    """
    labels = [p.label for p in enumerate_fixed_points()]
    maps = []
    for i in range(draw(st.integers(1, 9))):
        degree = draw(st.integers(0, 3))
        pool = draw(st.lists(st.lists(_factor_scalars, min_size=degree + 1, max_size=degree + 1), min_size=1, max_size=3))
        forms = [HomogPoly(degree, {(p, degree - p): c for p, c in enumerate(cs)}) for cs in pool]
        zeros = set() if i == 0 and draw(st.booleans()) else draw(st.sets(st.sampled_from(labels)))
        maps.append({lab: HomogPoly.zero(degree) if lab in zeros else draw(st.sampled_from(forms)) for lab in labels})
    return maps


def _typed(form):
    """(degree, {monomial: (coefficient, its type)}): == alone counts every zero form equal and 1 == Fraction(1)."""
    return form.degree, {k: (c, type(c)) for k, c in form.coeffs.items()}


@settings(max_examples=100, deadline=None)
@given(factor_maps())
def test_pointwise_product_matches_the_fold(maps):
    # form for form against a fold of poly_mul, canonical scalar types included
    got, want = pointwise_product(*maps), reference_pointwise_product(*maps)
    assert list(got) == list(want)
    for lab, form in want.items():
        assert _typed(got[lab]) == _typed(form), lab


def test_pointwise_product_builds_one_form_per_vertex(monkeypatch):
    # one product table taken as built per nonzero vertex and the shared zero form elsewhere,
    # whatever the number of factors; no validating construction and no poly_mul
    classes, h = solve_all_classes(), hyperplane_class()
    cases = [[h, classes["2"]], [classes["2"], h, classes["3'"]], [h] * 6]
    wants = [reference_pointwise_product(*maps) for maps in cases]
    zeros = {f.degree: HomogPoly.zero(f.degree) for want in wants for f in want.values()}
    init, slot = HomogPoly.__init__, HomogPoly.__dict__["coeffs"]
    built, validated, multiplied = [], [], []

    class CountedSlot:
        # the coeffs slot, recording each form that is given a table: every build, trusted or validating
        def __get__(self, form, owner=None):
            return slot.__get__(form, owner)

        def __set__(self, form, value):
            built.append(form)
            slot.__set__(form, value)

    monkeypatch.setattr(HomogPoly, "coeffs", CountedSlot())
    monkeypatch.setattr(HomogPoly, "__init__", lambda self, *args: validated.append(args) or init(self, *args))
    monkeypatch.setattr(exact, "poly_mul", lambda *args: multiplied.append(args) or poly_mul(*args))
    for maps, want in zip(cases, wants):
        built.clear()
        got = pointwise_product(*maps)
        vanishing = [lab for lab, f in want.items() if f.is_zero()]
        assert 0 < len(vanishing) < 15
        assert len(built) == 15 - len(vanishing) and not validated and not multiplied
        assert all(got[lab] is zeros[want[lab].degree] for lab in vanishing)
        assert {id(f) for f in built} == {id(got[lab]) for lab in want if lab not in vanishing}
        assert {lab: _typed(f) for lab, f in got.items()} == {lab: _typed(f) for lab, f in want.items()}
    # a vertex missing from a later map raises, also where an earlier factor vanishes there (H at 0)
    for missing in ("0", "4"):
        with pytest.raises(KeyError):
            pointwise_product(h, classes["2"], {lab: f for lab, f in h.items() if lab != missing})


def test_schubert_vector_arithmetic_is_one_sum():
    u, v = vec({"2": 3, "2'": -1}), vec({"2": -3, "3": 2})
    assert (u + v).coeffs == schubert_sum([(1, u), (1, v)]).coeffs == {"2'": -1, "3": 2}
    assert (u - u).coeffs == {} and u.scale(0).coeffs == {}
    assert u - v == vec({"2": 6, "2'": -1, "3": -2}) and u.scale(-2) == vec({"2": -6, "2'": 2})
    with pytest.raises(TypeError, match="integers"):
        u.scale(Fraction(1, 2))


def test_top_by_duality_rejects_a_non_integral_coordinate(monkeypatch):
    # the integral of H against the dual of sigma_1 is 1; halved, it is no coordinate
    integral = equivariant.integrate_against
    monkeypatch.setattr(equivariant, "integrate_against", lambda values, label: integral(values, label) / 2)
    with pytest.raises(ArithmeticError, match="non-integral coordinate 1/2 at 1"):
        top_by_duality(hyperplane_class())


def test_ring_presentation():
    checks = {c.id: c for c in cli.run_ring(None)}
    assert checks["ring.generator"].computed == "2"
    assert checks["ring.relation-degree-5"].computed == checks["ring.relation-degree-6"].computed == "0"
    # the other codimension-2 class does not satisfy both relations
    assert not all(rel.is_zero() for rel in cli._ring_relations("2'").values())
    assert checks["ring.monomial-ranks"].computed == {k: len(labels) for k, labels in labels_by_codim().items()}


def test_ring_monomials():
    monomials = ring_monomials("2")
    assert len(monomials) == 25
    assert all(point_by_label(lab).codim == i + 2 * j for (i, j), m in monomials.items() for lab in m.coeffs)
    assert [monomials[i, 0] for i in range(9)] == list(sigma1_powers())
    assert monomials[0, 1] == vec({"2": 1})
    assert monomials[0, 2] == vec({"4": 1, "4'": 2, "4''": 2})
    assert monomials[0, 4] == vec({"8": 9})  # 1 + 4 + 4: the codimension-4 classes are self-dual


def test_lefschetz_report():
    rep = lefschetz_report()
    assert rep["ranks"] == {0: 1, 1: 1, 2: 2, 3: 2, 4: 3}
    assert rep["minors"] == {0: [182], 1: [], 2: [Fraction(8736, 1681)], 3: [], 4: [3]}
    assert rep["signature"] == 3


def test_signature_by_congruence():
    assert equivariant._signature([[0, 1], [1, 0]]) == 0
    assert equivariant._signature([[1, 2], [2, 1]]) == 0
    assert equivariant._signature([[0, 0], [0, 0]]) == 0
    assert equivariant._signature([[2, 1, 0], [1, 2, 0], [0, 0, -1]]) == 1
    assert equivariant._signature([[0, 1, 0], [1, 0, 0], [0, 0, 0]]) == 0


def test_a_negative_middle_pairing_fails_the_signature(monkeypatch):
    monkeypatch.setitem(multiplication_table(), ("4", "4"), vec({"8": -1}))
    checks = {c.id: c for c in cli.run_ring(None)}
    assert checks["ring.signature"].status == cli.FAIL
    assert (checks["ring.signature"].computed, checks["ring.signature"].expected) == (1, 3)
    assert checks["ring.hard-lefschetz"].status == cli.PASS


def test_sigma1_powers():
    powers = sigma1_powers()
    assert len(powers) == 9
    assert powers[2] == vec({"2": 1, "2'": 1})
    assert powers[4] == vec({"4": 6, "4'": 11, "4''": 5})
    assert powers[8] == vec({"8": 182})


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


def test_class_solve_is_one_small_solve_per_vertex(monkeypatch):
    # the only unknowns are the Monk coefficients: one exact solve for
    # each vertex below the point, in at most three unknowns
    calls = []

    def record(rows, rhs):
        calls.append((len(rows), len(rows[0]) if rows else 0))
        return exact.solve_rational(rows, rhs)

    monkeypatch.setattr(equivariant, "solve_rational", record)
    classes, _, _ = equivariant._class_solve.__wrapped__()
    assert classes == solve_all_classes()
    assert len(calls) == 14
    assert all(unknowns <= 3 for _, unknowns in calls)
    assert sum(rows * unknowns for rows, unknowns in calls) <= 150


def test_class_solve_needs_separating_hyperplane_weight(monkeypatch):
    # the values are quotients by f_H(q) - f_H(p), so f_H must separate codimensions
    weights = equivariant.hyperplane_weights()
    monkeypatch.setattr(equivariant, "hyperplane_weights", lambda: weights | {"8": weights["7"]})
    with pytest.raises(ArithmeticError, match="vertex 8 from vertex 7"):
        equivariant._class_solve.__wrapped__()


def test_class_solve_raises_on_a_failed_congruence(monkeypatch):
    monkeypatch.setattr(equivariant, "check_gkm_divisibility", lambda cls: ["1-4 (weight b-g)"])
    with pytest.raises(ArithmeticError, match=r"^divisibility fails on edge 1-4 \(weight b-g\)$"):
        equivariant._class_solve.__wrapped__()


def test_class_solve_names_the_vertex_of_a_non_unique_solve(monkeypatch):
    # a repeated kernel vector gives the pushforward rows two equal columns:
    # the first step, at the codimension-7 vertex, has a family of solutions
    monkeypatch.setattr(equivariant, "nullspace", lambda rows, ncols: 2 * exact.nullspace(rows, ncols))
    with pytest.raises(ArithmeticError, match="^class solve at vertex 7: the solutions form a family of dimension 1$"):
        equivariant._class_solve.__wrapped__()


def test_monk_coefficients_by_expansion():
    # a second route to the a_i of the class solve: expand sigma_p * H
    h = hyperplane_class()
    monk = monk_matrix()
    classes = solve_all_classes()
    assert len(classes) == 15
    for lab, cls in classes.items():
        assert top_expansion(pointwise_product(cls, h)) == vec(monk[lab]), lab


def test_class_solve_rejects_a_system_with_no_equations(monkeypatch):
    # with zero complements every pushforward row drops out, which leaves
    # the Monk coefficients free rather than solved
    denominator, complements = equivariant._localization_denominator()
    zero = {q: c.scale(0) for q, c in complements.items()}
    monkeypatch.setattr(equivariant, "_localization_denominator", lambda: (denominator, zero))
    with pytest.raises(ArithmeticError, match="^class solve at vertex 7: the solutions form a family of dimension 1$"):
        equivariant._class_solve.__wrapped__()


def test_class_solve_checks_every_class(monkeypatch):
    # the edge congruences are not solved for, so each class must be checked
    checked = []

    def record(cls):
        checked.append(cls)
        return check_gkm_divisibility(cls)

    monkeypatch.setattr(equivariant, "check_gkm_divisibility", record)
    classes, _, _ = equivariant._class_solve.__wrapped__()
    assert {lab for lab, cls in classes.items() if cls in checked} == set(classes)
    assert len(classes) == 15
