from functools import cache
from itertools import combinations, product
from math import prod

import pytest
from hypothesis import given, settings, strategies as st

from cayleygr import ambient
from cayleygr.ambient import (
    _divide_by_unit,
    _dual_chern_power,
    _multiply_by_unit,
    _packed_monomials,
    _schur_coordinates,
    _vertical_strips,
    box_class,
    box_partitions,
    cg_class,
    cg_hyperplane_powers,
    check_generator_relations,
    check_restriction,
    cg_pairing,
    dual_jacobi_trudi,
    generator_images,
    duality_pairing,
    image_index_profile,
    jacobi_trudi_terms,
    lr_multiply,
    parse_partition,
    restriction_table,
    tangent_chern_ambient,
    tangent_chern_pairings,
    tau11_square_routes,
)
from cayleygr.cayley import enumerate_fixed_points
from cayleygr.equivariant import SchubertVector, basis_vector, multiplication_table, schubert_product, top_expansion
from cayleygr.exact import HomogPoly, poly_mul
from cayleygr.fixtures import load_fixture
from cayleygr.weightmodel import BASIS_WEIGHTS
from chern_probes import PROBES, probe_pairings
from schur_reference import schur_poly

t = basis_vector
TOP = (3, 3, 3, 3)  # the full 4x3 box: a class's integral is its coefficient here


def _naive_mul(p, q, max_deg=None):
    """Product of polynomials given as {exponent tuple: coefficient}, terms above max_deg dropped."""
    out = {}
    for ma, ca in p.items():
        for mb, cb in q.items():
            if max_deg is None or sum(ma) + sum(mb) <= max_deg:
                key = tuple(x + y for x, y in zip(ma, mb))
                out[key] = out.get(key, 0) + ca * cb
    return {k: v for k, v in out.items() if v}


def schur_expand(p):
    """Expansion of a symmetric polynomial in the Schur basis, by leading monomials."""
    work = dict(p)
    out = {}
    while work:
        mono = max(work)
        coeff = work[mono]
        lam = tuple(x for x in mono if x)
        if tuple(sorted(mono, reverse=True)) != mono:
            raise ArithmeticError(f"input not symmetric: leading monomial {mono}")
        for k, v in schur_poly(lam).items():
            val = work.get(k, 0) - coeff * v
            if val:
                work[k] = val
            elif k in work:
                del work[k]
        out[lam] = out.get(lam, 0) + coeff
    return {k: v for k, v in out.items() if v}


@cache
def tau1_power(m):
    """tau_1^m by m Pieri steps from the fundamental class."""
    if m == 0:
        return t(())
    return lr_multiply(tau1_power(m - 1), t((1,)))


def conjugate_partition(shape):
    """The transposed Young diagram."""
    return tuple(sum(1 for row in shape if row > j) for j in range(shape[0] if shape else 0))


def test_box_partitions_count():
    assert len(box_partitions()) == 35
    assert sum(len(box_partitions(size=k)) for k in range(9)) == 28


def test_pieri_examples():
    assert lr_multiply(t((1,)), t((1,))) == t((2,)) + t((1, 1))
    # box truncation: only shapes inside 4x3 survive
    prod = lr_multiply(t((3,)), t((3, 3, 3, 3)))
    assert prod.is_zero()
    prod = lr_multiply(t((3, 3, 3)), t((3,)))
    assert prod == t((3, 3, 3, 3))


def test_degree_of_the_grassmannian():
    # hook-length formula: 12! 0!1!2!3! / (3!4!5!6!) = 462
    assert tau1_power(12)[TOP] == 462


def lr_coefficients_oracle(lam, mu, nu):
    """Littlewood-Richardson coefficient by counting lattice tableaux.

    Fills the skew shape nu/lam with content mu subject to semistandard
    rows/columns and the reverse lattice word condition; shares nothing
    with the Jacobi-Trudi and Pieri kernel of the library.
    """
    lam = tuple(lam) + (0,) * (len(nu) - len(lam))
    if any(n < l for n, l in zip(nu, lam)):
        return 0
    # cells in reading order: rows top to bottom, right to left, so that
    # the lattice-word prefix condition can be checked with running counts
    cells = []
    for i, (n, l) in enumerate(zip(nu, lam)):
        for j in range(n - 1, l - 1, -1):
            cells.append((i, j))
    fill = {}
    counts = [0] * (len(mu) + 2)
    total = 0

    def rec(k):
        nonlocal total
        if k == len(cells):
            if tuple(counts[1 : len(mu) + 1]) == tuple(mu):
                total += 1
            return
        i, j = cells[k]
        lo = 1
        if (i - 1, j) in fill:
            lo = max(lo, fill[(i - 1, j)] + 1)
        hi = len(mu)
        if (i, j + 1) in fill:
            hi = min(hi, fill[(i, j + 1)])
        for v in range(lo, hi + 1):
            if counts[v] + 1 > mu[v - 1]:
                continue
            if v > 1 and counts[v] + 1 > counts[v - 1]:
                continue
            fill[(i, j)] = v
            counts[v] += 1
            rec(k + 1)
            counts[v] -= 1
            del fill[(i, j)]

    rec(0)
    return total


def test_lr_against_tableau_oracle():
    parts = box_partitions()
    small = [p for p in parts if sum(p) <= 4]
    for lam in small:
        for mu in small:
            if sum(lam) + sum(mu) > 8:
                continue
            prod = lr_multiply(t(lam), t(mu))
            for nu in box_partitions(size=sum(lam) + sum(mu)):
                assert prod[nu] == lr_coefficients_oracle(lam, mu, nu), (lam, mu, nu)


def test_lr_multiply_against_polynomial_product():
    # the Pieri-step kernel against multiplying the two Schur polynomials,
    # Schur-expanding and cutting to the box, on every pair of box shapes
    parts = box_partitions()
    for lam in parts:
        for mu in parts:
            want = box_class(schur_expand(_naive_mul(schur_poly(lam), schur_poly(mu))))
            assert lr_multiply(t(lam), t(mu)) == want, (lam, mu)


def test_lr_multiply_outside_the_box_is_zero():
    # shapes with a fourth column, a fifth row, or both
    for bad in [(4,), (4, 1), (5, 1), (4, 4, 2), (1, 1, 1, 1, 1)]:
        for lam in box_partitions():
            assert lr_multiply(t(bad), t(lam)).is_zero(), (bad, lam)
            assert lr_multiply(t(lam), t(bad)).is_zero(), (lam, bad)


def test_lr_multiply_commutes():
    # only the second factor is expanded, so the order is not symmetric by construction
    parts = box_partitions()
    for lam in parts:
        for mu in parts:
            assert lr_multiply(t(lam), t(mu)) == lr_multiply(t(mu), t(lam)), (lam, mu)


def _e_sym(k, nvars):
    """Elementary symmetric polynomial e_k: every squarefree monomial of degree k."""
    return {tuple(int(i in rows) for i in range(nvars)): 1 for rows in combinations(range(nvars), k)}


def test_jacobi_trudi_terms_against_the_polynomial_determinant():
    for lam in box_partitions():
        total = {}
        for sign, ks in jacobi_trudi_terms(lam):
            assert all(1 <= k <= 4 for k in ks), (lam, ks)
            term = {(0, 0, 0, 0): sign}
            for k in ks:
                term = _naive_mul(term, _e_sym(k, 4))
            for m, c in term.items():
                total[m] = total.get(m, 0) + c
        assert {m: c for m, c in total.items() if c} == _jacobi_trudi(lam, 4), lam
    assert jacobi_trudi_terms(()) == ((1, ()),)
    assert jacobi_trudi_terms((2, 2)) == ((1, (2, 2)), (-1, (3, 1)))


def test_pieri_step_against_tableau_oracle():
    for lam in box_partitions():
        for k in range(5):
            column = (1,) * k
            want = {nu: lr_coefficients_oracle(lam, column, nu) for nu in box_partitions(size=sum(lam) + k)}
            assert _vertical_strips(lam, k) == SchubertVector(want), (lam, k)
    assert _vertical_strips((3, 1), 2) == t((3, 2, 1)) + t((3, 1, 1, 1))


def test_duality_pairing_against_lr_integral():
    parts = box_partitions()
    for lam in parts:
        for mu in parts:
            a, b = t(lam), t(mu)
            assert duality_pairing(a, b) == lr_multiply(a, b)[TOP], (lam, mu)
    a = t((2, 1)).scale(3) + t((3, 3, 3)).scale(-2)
    b = t((3, 3, 2, 1)).scale(5) + t((3,)).scale(7) + t((1,))
    assert duality_pairing(a, b) == lr_multiply(a, b)[TOP] == 15 - 14


def test_schur_expand_roundtrip():
    p = _naive_mul(schur_poly((2, 1)), schur_poly((1, 1)))
    exp = schur_expand(p)
    assert all(c > 0 for c in exp.values())
    assert exp[(3, 2)] == 1 and exp[(2, 1, 1, 1)] == 1


def test_cg_class():
    cls = cg_class()
    assert cls == t((1, 1, 1, 1)) + t((2, 1, 1)) + t((2, 2)) + t((3, 1))
    assert all(c > 0 for _, c in cls.items())
    assert cg_pairing(t(()), tau1_power(8)) == 182
    assert cg_pairing(t((1, 1)), tau1_power(6)) == 100
    assert cg_pairing(t((2,)), tau1_power(6)) == 82


def test_cg_hyperplane_powers():
    powers = cg_hyperplane_powers()
    assert len(powers) == 9
    for p, power in enumerate(powers):
        assert power == lr_multiply(cg_class(), tau1_power(p)), p
    assert powers[8] == t(TOP).scale(182)


def test_schur_read_off_against_schur_expand(monkeypatch):
    # every piece the library reads off: the nine graded pieces of c(T) and the degree-4 piece of cg
    seen = []

    def recording(piece, size):
        seen.append((piece, size))
        return _schur_coordinates(piece, size)

    monkeypatch.setattr(ambient, "_schur_coordinates", recording)
    ambient.tangent_chern_ambient.__wrapped__()
    ambient.cg_class.__wrapped__()
    assert [size for _, size in seen] == list(range(9)) + [4]
    for piece, size in seen:
        want = box_class(schur_expand({m: c for m, c in piece.items() if c}))
        assert _schur_coordinates(piece, size) == want, size
        assert not want.is_zero()


def test_schur_read_off_rejects_a_non_symmetric_piece():
    piece = _naive_mul(schur_poly((1,)), schur_poly((1,)))
    piece.update({m: 0 for m, _ in _packed_monomials(4, 2) if sum(m) == 2 and m not in piece})
    assert _schur_coordinates(piece, 2) == t((2,)) + t((1, 1))
    piece[(0, 1, 1, 0)] += 1
    with pytest.raises(ArithmeticError, match="not symmetric"):
        _schur_coordinates(piece, 2)


def test_restriction_table_against_reference():
    table = restriction_table()
    printed = load_fixture("restriction")["table"]
    mismatches = {}
    for name, coeffs in printed.items():
        lam = parse_partition(name)
        want = SchubertVector({k: int(v) for k, v in coeffs.items()})
        got = table[lam]
        if got != want:
            mismatches[name] = (want, got)
    # the only printed discrepancies: the level-2 images are swapped
    assert set(mismatches) == {"2", "11"}
    assert table[(2,)] == SchubertVector({"2": 1})
    assert table[(1, 1)] == SchubertVector({"2'": 1})
    # entries that match verbatim
    assert table[(2, 1)] == SchubertVector({"3": 1, "3'": 2})
    assert table[(2, 2)] == SchubertVector({"4": 1, "4'": 1, "4''": 1})
    assert table[(2, 2, 2, 2)] == SchubertVector({"8": 1})


@cache
def _localized_restriction():
    """The restriction table shape by shape, sharing no ring product with the library's.

    At each fixed point the Schur polynomial s_lam is evaluated on the
    weights of the tautological 4-space (Giambelli), and each localized
    shape is top-expanded over the localized basis.
    """
    shapes = [lam for lam in box_partitions() if sum(lam) <= 8]
    values = {lam: {} for lam in shapes}
    for p in enumerate_fixed_points():
        forms = [BASIS_WEIGHTS[i].poly() for i in p.four_space]
        monomial = {(0, 0, 0, 0): HomogPoly.constant(1)}
        for m in sorted({m for lam in shapes for m in schur_poly(lam)}, key=sum):
            if m not in monomial:
                i = next(i for i, e in enumerate(m) if e)
                monomial[m] = poly_mul(monomial[m[:i] + (m[i] - 1,) + m[i + 1 :]], forms[i])
        for lam in shapes:
            terms = (monomial[m].scale(c) for m, c in schur_poly(lam).items())
            values[lam][p.label] = sum(terms, HomogPoly.zero(sum(lam)))
    return {lam: top_expansion(v) for lam, v in values.items()}


def test_restriction_table_against_localized_shapes():
    # the ring route (four generators, dual Jacobi-Trudi) against one
    # top expansion per shape
    reference = _localized_restriction()
    assert len(reference) == 28
    assert restriction_table() == reference


def test_generator_images():
    assert generator_images() == [t("0"), t("1"), t("2'"), t("3"), t("4")]


def _images(e):
    """Each box class of size <= 8 as its Jacobi-Trudi terms in the images e, multiplied in the computed ring."""

    def times(x, k):
        return schubert_product(x, e[k])

    return {lam: dual_jacobi_trudi(lam, e[0], times) for lam in box_partitions() if sum(lam) <= 8}


def test_dual_jacobi_trudi_on_the_images():
    e = generator_images()
    images = _images(e)
    assert images[()] == e[0]
    assert images[(1, 1, 1)] == e[3]
    assert images[(2,)] == schubert_product(e[1], e[1]) - e[2]
    assert images[(2, 2)] == schubert_product(e[2], e[2]) - schubert_product(e[1], e[3])
    assert images == restriction_table()


@pytest.mark.parametrize(
    "k, image, h4",
    [(2, "2", "h4 = 4*s4 + 2*s4' + -2*s4''"), (4, "4'", "h4 = s4 + -1*s4'")],
    ids=["e2-printed-swap", "e4-wrong"],
)
def test_generator_relations_reject_wrong_images(k, image, h4):
    e = generator_images()
    e[k] = t(image)
    with pytest.raises(ArithmeticError) as err:
        check_generator_relations(e)
    assert h4 in str(err.value)


def test_tau11_square_routes_agree():
    through_table, by_localization = tau11_square_routes(restriction_table())
    assert through_table == by_localization == t("4").scale(3) + t("4'").scale(3) + t("4''")


def test_tau11_square_routes_see_a_wrong_ring_product(monkeypatch):
    # a corrupted (2', 2') product reaches the table's side through the
    # Jacobi-Trudi shapes, not the localized square; the table is built
    # here without ``check_restriction``, which would raise first
    monkeypatch.setitem(multiplication_table(), ("2'", "2'"), t("4").scale(3) + t("4'").scale(3))
    table = _images(generator_images())
    through_table, by_localization = tau11_square_routes(table)
    assert by_localization == t("4").scale(3) + t("4'").scale(3) + t("4''")
    assert through_table != by_localization
    with pytest.raises(ArithmeticError, match="t22 has degree"):
        check_restriction(table)


def test_restriction_checks_accept_the_computed_table():
    check_restriction(restriction_table())


def test_restriction_checks_reject_the_printed_table():
    # the printed table, with t2 and t11 swapped, fails the degree pairings
    table = dict(restriction_table())
    for name, coeffs in load_fixture("restriction")["table"].items():
        table[parse_partition(name)] = SchubertVector({k: int(v) for k, v in coeffs.items()})
    with pytest.raises(ArithmeticError) as err:
        check_restriction(table)
    message = str(err.value)
    assert "t2 has degree 100, cg_pairing 82" in message
    assert "t11 has degree 82, cg_pairing 100" in message
    # and Pieri upstairs disagrees with Monk downstairs from level 2 on
    assert "t1 t2 is" in message and "t1 t11 is" in message


def test_restriction_checks_reject_a_wrong_monk_image():
    # s4, s4', s4'' have degrees 6, 11, 5: 2*s4' has the degree of
    # s4 + s4' + s4'', so only the hyperplane check can catch this change
    table = dict(restriction_table())
    table[(2, 2)] = SchubertVector({"4'": 2})
    with pytest.raises(ArithmeticError, match="by Pieri") as err:
        check_restriction(table)
    assert "degree" not in str(err.value)


def test_restriction_is_ring_homomorphism():
    table = _localized_restriction()
    parts = [p for p in box_partitions() if 1 <= sum(p) <= 4]
    for lam in parts:
        for mu in parts:
            if sum(lam) + sum(mu) > 8:
                continue
            upstairs = lr_multiply(t(lam), t(mu))
            lhs = SchubertVector({})
            for nu, c in upstairs.items():
                lhs = lhs + table[nu].scale(c)
            rhs = schubert_product(table[lam], table[mu])
            assert lhs == rhs, (lam, mu)


def test_level2_swap_is_forced_by_homomorphism():
    # restriction of tau_11^2 equals (image of tau_11)^2; only the computed
    # assignment (tau_11 -> s2') is consistent
    table = _localized_restriction()
    upstairs = lr_multiply(t((1, 1)), t((1, 1)))
    lhs = SchubertVector({})
    for nu, c in upstairs.items():
        lhs = lhs + table[nu].scale(c)
    s2p = SchubertVector({"2'": 1})
    s2 = SchubertVector({"2": 1})
    assert lhs == schubert_product(s2p, s2p)
    assert lhs != schubert_product(s2, s2)


def test_image_index():
    assert prod(image_index_profile().values()) == 16
    assert image_index_profile() == {0: 1, 1: 1, 2: 1, 3: 1, 4: 2, 5: 2, 6: 2, 7: 2, 8: 1}


def test_ambient_chern_pairings_match_localization():
    # two fully independent routes to the same intersection numbers
    from cayleygr.equivariant import degrees
    from cayleygr.invariants import chern_classes

    pairs = tangent_chern_pairings()
    chern = chern_classes()
    degs = degrees()
    for k in range(1, 9):
        loc = sum(c * degs[lab] for lab, c in chern[k].items())
        assert pairs[k] == loc, k
    # dual-basis probes pin the individual coefficients of c5 and c6
    probes = probe_pairings()
    assert probes[5]["t111"] == chern[5]["5"] == 160
    assert probes[5]["t3"] == chern[5]["5'"] == 76
    assert probes[6]["t2"] == chern[6]["6"] == 151
    assert probes[6]["t11"] == chern[6]["6'"] == 193
    assert pairs[8] == 15


def test_ambient_chern_pairings_against_the_lift():
    # reference route: cg lifted by each whole Chern piece, paired with probe times tau_1^p
    pieces = tangent_chern_ambient()
    probes = {"h": (), **PROBES}
    pairs = tangent_chern_pairings()
    rows = probe_pairings()
    reference = {}
    for k in range(9):
        lift = lr_multiply(cg_class(), pieces[k])
        reference[k] = {
            name: duality_pairing(lift, lr_multiply(t(lam), tau1_power(8 - k - sum(lam))))
            for name, lam in probes.items()
            if 8 - k - sum(lam) >= 0
        }
    assert {k: {"h": pairs[k], **rows[k]} for k in range(9)} == reference
    assert sum(len(row) for row in reference.values()) == 35


def _seven_root_tangent_chern():
    """c(Hom(T,Q)) / c(Lambda^3 T*) with seven formal roots, bi-Schur reduced.

    Four roots x for the dual tautological bundle and three roots y for the
    quotient; s_lam(x) s_mu(y) is read as tau_lam tau_{mu'}.  Shares only
    the LR product with the four-root route in the library.
    """
    nx, ny = 4, 3
    nv = nx + ny
    max_deg = 8
    zero = (0,) * nv
    one = {zero: 1}

    def unit(i):
        return tuple(int(i == j) for j in range(nv))

    def mul(p, q):
        return _naive_mul(p, q, max_deg)

    hom = one
    for i in range(nx):
        for j in range(ny):
            hom = mul(hom, {zero: 1, unit(i): 1, unit(nx + j): 1})
    wedge = one
    for tri in combinations(range(nx), 3):
        wedge = mul(wedge, {zero: 1, **{unit(i): 1 for i in tri}})
    tail = {k: v for k, v in wedge.items() if k != zero}
    inv = dict(one)
    power = one
    for n in range(max_deg):
        power = mul(power, tail)
        sign = -1 if n % 2 == 0 else 1
        for k, v in power.items():
            inv[k] = inv.get(k, 0) + sign * v
    graded = {k: {} for k in range(max_deg + 1)}
    for m, c in mul(hom, inv).items():
        graded[sum(m)][m] = c
    return {k: _bisym_to_class(p, nx, ny) for k, p in graded.items()}


def _bisym_to_class(p, nx, ny):
    """Expand a bi-symmetric polynomial in s_lam(x) s_mu(y) by leading terms."""
    work = dict(p)
    out = SchubertVector({})
    while work:
        m = max(work)
        c = work[m]
        xpart, ypart = m[:nx], m[nx:]
        assert tuple(sorted(xpart, reverse=True)) == xpart and tuple(sorted(ypart, reverse=True)) == ypart, m
        lam = tuple(v for v in xpart if v)
        mu = tuple(v for v in ypart if v)
        for mx, cx in schur_poly(lam, nx).items():
            for my, cy in schur_poly(mu, ny).items():
                key = mx + my
                val = work.get(key, 0) - c * cx * cy
                if val:
                    work[key] = val
                else:
                    work.pop(key, None)
        out = out + lr_multiply(t(lam), t(conjugate_partition(mu))).scale(c)
    return out


def test_tangent_chern_ambient_against_seven_roots():
    pieces = tangent_chern_ambient()
    oracle = _seven_root_tangent_chern()
    assert sorted(pieces) == sorted(oracle) == list(range(9))
    for k in range(9):
        assert pieces[k] == oracle[k], k
    assert pieces[0] == t(())
    assert pieces[1] == t((1,)).scale(4)


def test_dual_chern_power_is_seven_products():
    # reference: c(U*)^7 as seven truncated products of c(U*) = prod_i (1 + x_i)
    zero = (0,) * 4
    one = {zero: 1}
    dual = one
    for i in range(4):
        dual = _naive_mul(dual, {zero: 1, tuple(int(i == j) for j in range(4)): 1}, 8)
    numerator = one
    for _ in range(7):
        numerator = _naive_mul(numerator, dual, 8)
    monomials = _packed_monomials(4, 8)
    assert len(monomials) == len({key for _, key in monomials}) == 495
    assert [sum(m) for m, _ in monomials] == sorted(sum(m) for m, _ in monomials)
    table = _dual_chern_power(monomials, 7)
    assert {m: table[key] for m, key in monomials if table[key]} == numerator


@st.composite
def series_and_units(draw):
    nvars = draw(st.integers(1, 4))
    monos = st.sampled_from([m for m, _ in _packed_monomials(nvars, 8)])
    series = draw(st.dictionaries(monos, st.integers(-5, 5).filter(bool), max_size=12))
    linear = draw(st.lists(st.integers(-3, 3), min_size=nvars, max_size=nvars))
    return nvars, series, linear


def _unit(nvars, linear):
    """1 + sum_i linear[i] x_i as {exponents: coefficient}."""
    unit = {(0,) * nvars: 1}
    for i, c in enumerate(linear):
        if c:
            unit[tuple(int(i == j) for j in range(nvars))] = c
    return unit


def _sweep(step, nvars, series, linear):
    """series times or over 1 + sum_i linear[i] x_i, by ``step``, truncated at degree 8."""
    monomials = _packed_monomials(nvars, 8)
    keys = dict(monomials)
    dense = {key: series.get(m, 0) for m, key in monomials}
    unit = [(keys[m], c) for m, c in _unit(nvars, linear).items() if any(m)]
    step(dense, unit, [key for m, key in monomials if sum(m) < 8])
    return {m: dense[key] for m, key in monomials if dense[key]}


@settings(max_examples=80, deadline=None)
@given(series_and_units())
def test_divide_by_unit_multiplies_back(case):
    nvars, series, linear = case
    assert _naive_mul(_sweep(_divide_by_unit, nvars, series, linear), _unit(nvars, linear), 8) == series


@settings(max_examples=60, deadline=None)
@given(series_and_units(), st.data())
def test_divide_by_quadratic_unit_multiplies_back(case, data):
    # a unit 1 + Q with Q of degree 2 runs over the monomials of degree <= 6
    nvars, series, _ = case
    quadratic = data.draw(st.dictionaries(st.sampled_from([m for m, _ in _packed_monomials(nvars, 2) if sum(m) == 2]),
                                          st.integers(-3, 3).filter(bool), max_size=4))
    monomials = _packed_monomials(nvars, 8)
    keys = dict(monomials)
    dense = {key: series.get(m, 0) for m, key in monomials}
    _divide_by_unit(dense, [(keys[m], c) for m, c in quadratic.items()], [key for m, key in monomials if sum(m) <= 6])
    quotient = {m: dense[key] for m, key in monomials if dense[key]}
    assert _naive_mul(quotient, {(0,) * nvars: 1, **quadratic}, 8) == series


def test_divide_by_unit_geometric_series():
    assert _sweep(_divide_by_unit, 1, {(0,): 1}, [-1]) == {(k,): 1 for k in range(9)}
    assert _sweep(_divide_by_unit, 2, {(0, 0): 1}, [0, 2]) == {(0, k): (-2) ** k for k in range(9)}


@settings(max_examples=80, deadline=None)
@given(series_and_units())
def test_multiply_by_unit_against_naive_product(case):
    nvars, series, linear = case
    multiplied = _sweep(_multiply_by_unit, nvars, series, linear)
    assert multiplied == _naive_mul(series, _unit(nvars, linear), 8)
    assert _sweep(_divide_by_unit, nvars, multiplied, linear) == series


def test_multiply_by_unit_difference_of_squares():
    assert _sweep(_multiply_by_unit, 1, {(0,): 1, (1,): 1}, [-1]) == {(0,): 1, (2,): -1}


# ---------------------------------------------------------------------------
# the Jacobi-Trudi oracle for the branching-rule Schur polynomials and the
# library's Jacobi-Trudi terms
# ---------------------------------------------------------------------------


def _h_sym(m, nvars):
    """Complete homogeneous symmetric polynomial h_m: every monomial of degree m."""
    if m < 0:
        return {}
    return {e: 1 for e in product(range(m + 1), repeat=nvars) if sum(e) == m}


def _jacobi_trudi(shape, nvars):
    """det(h_{shape_i - i + j}) by cofactor expansion along the first row."""

    def minor_det(rows, cols):
        if not rows:
            return {(0,) * nvars: 1}
        i, lam_i = rows[0]
        total = {}
        for idx, j in enumerate(cols):
            h = _h_sym(lam_i - i + j, nvars)
            if not h:
                continue
            sign = -1 if idx % 2 else 1
            for k, v in _naive_mul(h, minor_det(rows[1:], cols[:idx] + cols[idx + 1 :])).items():
                total[k] = total.get(k, 0) + sign * v
        return {k: v for k, v in total.items() if v}

    return minor_det(list(enumerate(shape)), list(range(len(shape))))


def _partitions(size, max_parts, max_part=None):
    if size == 0:
        yield ()
        return
    if max_parts == 0:
        return
    for first in range(min(size, max_part or size), 0, -1):
        for rest in _partitions(size - first, max_parts - 1, first):
            yield (first,) + rest


def test_schur_branching_rule_against_jacobi_trudi():
    cases = [(lam, n) for n in (3, 4) for size in range(9) for lam in _partitions(size, n)]
    cases += [(lam, 4) for lam in box_partitions()]
    for lam, nvars in cases:
        assert schur_poly(lam, nvars) == _jacobi_trudi(lam, nvars), (lam, nvars)
    # partitions with more parts than variables vanish
    assert schur_poly((1, 1, 1, 1), 3) == {}
    assert schur_poly((), 4) == {(0, 0, 0, 0): 1}
