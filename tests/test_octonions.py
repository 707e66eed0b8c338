from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings, strategies as st

from cayleygr import octonions
from cayleygr.ambient import _ANTISYMMETRIZER
from cayleygr.exact import GI_ZERO, GaussianRational, matrix_rank, permutation_sign
from cayleygr.octonions import (
    E,
    FANO_LINES,
    I,
    NULL_PLANE,
    Octonion,
    OrbitType,
    Subspace,
    classify,
    fano_table,
    g2_basis,
    g2_stabilizer_dim,
    im_product_via_form,
    is_subalgebra,
    model_h0,
    model_h1,
    model_h2,
    multiply,
    norm,
    norm_bilinear,
    null_plane_test,
    stratum_membership,
    three_form,
    three_form_table,
    volume_identity_constant,
)

TABLE = fano_table(FANO_LINES)
X = E[1] + E[2].scale(I)  # e1 + i e2, isotropic
Y = E[6] + E[7].scale(I)  # e6 + i e7


def test_table_products():
    assert multiply(E[1], E[2]) == E[3]
    assert multiply(E[1], E[1]) == -E[0]
    assert multiply(E[0], E[5]) == E[5]
    # x e4 = i y, x e3 = i x, x e5 = y, y e4 = i x, y e5 = -x, y e3 = -i y
    assert multiply(X, E[4]) == Y.scale(I)
    assert multiply(X, E[3]) == X.scale(I)
    assert multiply(X, E[5]) == Y
    assert multiply(Y, E[4]) == X.scale(I)
    assert multiply(Y, E[5]) == -X
    assert multiply(Y, E[3]) == Y.scale(-1).scale(I)


def test_bad_tables_rejected():
    with pytest.raises(ValueError):
        fano_table(((1, 2, 3), (1, 2, 4), (4, 5, 6), (3, 5, 7), (2, 5, 6), (3, 4, 6), (1, 6, 7)))
    with pytest.raises(ValueError):
        # orientation of (1,2,3) flipped: violates e3 = e1 e2
        fano_table(((2, 1, 3),) + tuple(((2, 4, 6), (4, 1, 7), (3, 4, 5), (1, 5, 6), (2, 5, 7), (6, 3, 7))))


def test_norm_values():
    assert norm(E[0]) == 1
    assert norm(X) == 0
    assert norm(E[3] + E[5]) == 2


octo_coeffs = st.lists(
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=8, max_size=8
).map(lambda cs: Octonion([GaussianRational(a, b) for a, b in cs]))

imaginary_octos = octo_coeffs.map(lambda o: o.imaginary())


@given(octo_coeffs, octo_coeffs)
@settings(max_examples=40, deadline=None)
def test_norm_multiplicative(x, y):
    assert norm(multiply(x, y)) == norm(x) * norm(y)


@given(octo_coeffs, octo_coeffs)
@settings(max_examples=40, deadline=None)
def test_alternativity(x, y):
    xx = multiply(x, x)
    assert multiply(x, multiply(x, y)) == multiply(xx, y)
    assert multiply(multiply(y, x), x) == multiply(y, xx)


@given(imaginary_octos, imaginary_octos)
@settings(max_examples=40, deadline=None)
def test_orthogonal_imaginary_anticommute(x, z):
    # y is built orthogonal to x by construction
    y = z.scale(norm(x)) - x.scale(norm_bilinear(x, z))
    assert norm_bilinear(x, y) == 0
    assert multiply(x, y) == -multiply(y, x)


def test_three_form_values():
    one = GaussianRational(1)
    assert three_form(E[1], E[2], E[3]) == one
    assert three_form(E[1], E[2], E[4]) == 0
    assert three_form(E[2], E[1], E[3]) == -one
    with pytest.raises(ValueError):
        three_form(E[0], E[1], E[2])


sparse_imaginary_octos = st.lists(
    st.sampled_from([0, 0, 0, 1, -2, GaussianRational(0, 1)]), min_size=7, max_size=7
).map(lambda cs: Octonion([0, *cs]))


@given(sparse_imaginary_octos, sparse_imaginary_octos, sparse_imaginary_octos)
@settings(max_examples=60, deadline=None)
def test_three_form_is_the_product_pairing(x, y, z):
    # sparse arguments exercise the lines skipped for a zero column
    assert three_form(x, y, z) == norm_bilinear(multiply(x, y), z)


def three_form_from_products():
    """The three-form assembled as (1/6) sum_ij e_i ^ e_j ^ (e_i e_j).

    Returns a dict {(i<j<k): coefficient}, the format of three_form_table.
    """
    acc = {}
    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                continue
            k, s = TABLE[i][j]
            idx = (i, j, k)
            perm = tuple(sorted(idx))
            sign = permutation_sign(idx)
            acc[perm] = acc.get(perm, Fraction(0)) + Fraction(s * sign, 6)
    return {key: c for key, c in acc.items() if c}


def _cycle_sign(seq):
    """(-1)^(n - number of cycles) of the permutation sorting seq upwards; counts no inversions."""
    order = sorted(range(len(seq)), key=seq.__getitem__)
    seen, cycles = set(), 0
    for start in range(len(seq)):
        if start not in seen:
            cycles += 1
            i = start
            while i not in seen:
                seen.add(i)
                i = order[i]
    return (-1) ** (len(seq) - cycles)


def test_permutation_sign():
    assert [permutation_sign(s) for s in ((), (1, 2, 3), (2, 1, 3), (2, 3, 1), (3, 5, 4))] == [1, 1, -1, 1, -1]
    for perm in permutations(range(1, 6)):
        assert permutation_sign(perm) == _cycle_sign(perm)
    # the antisymmetrizer in four variables: each of the 24 permutations of (3, 2, 1, 0) once, 12 of each sign,
    # the sign that of sorting the shift downwards
    assert sorted(shift for shift, _ in _ANTISYMMETRIZER) == sorted(permutations((3, 2, 1, 0)))
    assert sorted(sign for _, sign in _ANTISYMMETRIZER) == [-1] * 12 + [1] * 12
    for shift, sign in _ANTISYMMETRIZER:
        assert sign == _cycle_sign([-d for d in shift])


def test_three_form_product_formula_agrees():
    assert three_form_from_products() == three_form_table()


def test_im_product_full_basis_sweep():
    for i in range(1, 8):
        for j in range(1, 8):
            assert im_product_via_form(E[i], E[j]) == multiply(E[i], E[j]).imaginary()


def test_im_product_examples():
    assert im_product_via_form(E[1], E[2]) == E[3]
    assert im_product_via_form(X, X) == Octonion.zero()
    # x e3 = i x is already imaginary
    assert im_product_via_form(X, E[3]) == X.scale(I)


def test_volume_identity_constant():
    c = volume_identity_constant()
    assert c == GaussianRational(Fraction(-1, 6))
    assert c != 0


def test_subalgebra_examples():
    assert is_subalgebra(model_h0())
    assert is_subalgebra(model_h1())
    assert is_subalgebra(model_h2())
    assert not is_subalgebra(Subspace([E[1], E[2], E[4]]))
    with pytest.raises(ValueError):
        is_subalgebra(Subspace([E[1], E[2]]))


def test_classification_of_models():
    assert classify(model_h0()) is OrbitType.NON_DEGENERATE
    assert classify(model_h1()) is OrbitType.DEGENERATE_RANK_ONE
    assert classify(model_h2()) is OrbitType.ISOTROPIC
    with pytest.raises(ValueError):
        classify(Subspace([E[1], E[2], E[4]]))


def test_null_planes():
    assert NULL_PLANE == (X, Y)
    assert null_plane_test(Subspace([X, Y]))
    assert not null_plane_test(Subspace([E[1], E[2]]))
    assert not null_plane_test(Subspace([X, E[3]]))
    with pytest.raises(ValueError):
        null_plane_test(model_h0())


def test_g2_dimension_is_14():
    assert len(g2_basis()) == 14


def _form_on_ordered_triples():
    """Omega(e_i, e_j, e_k) on the ordered triples where it is nonzero, from three_form."""
    table = {}
    for triple in combinations(range(1, 8), 3):
        value = three_form(*(E[i] for i in triple))
        if value:
            for perm in permutations(triple):
                table[perm] = value * permutation_sign(perm)
    return table


def _annihilates(x, omega):
    """True iff the endomorphism x kills omega on every basis triple i < j < k.

    x[p - 1][q - 1] is the e_p-coefficient of x e_q, and x acts as a
    derivation: Omega(x e_i, e_j, e_k) + Omega(e_i, x e_j, e_k) + Omega(e_i, e_j, x e_k).
    """
    def om(*triple):
        return omega.get(triple, 0)

    return all(
        sum(x[p - 1][i - 1] * om(p, j, k) + x[p - 1][j - 1] * om(i, p, k) + x[p - 1][k - 1] * om(i, j, p) for p in range(1, 8)) == 0
        for i, j, k in combinations(range(1, 8), 3)
    )


def test_g2_basis_annihilates_the_three_form():
    omega = _form_on_ordered_triples()
    assert len(omega) == 42  # the six orderings of each of the 7 lines
    basis = g2_basis()
    assert len(basis) == 14
    assert matrix_rank([[c for row in x for c in row] for x in basis]) == 14
    assert all(_annihilates(x, omega) for x in basis)
    # the check sees a wrong sign on any one line (its six orderings flipped, so the copy stays alternating)
    for line in FANO_LINES:
        flipped = {**omega, **{perm: -omega[perm] for perm in permutations(line)}}
        assert not all(_annihilates(x, flipped) for x in basis), line


def test_subalgebra_test_runs_once_per_basis(monkeypatch):
    calls = []
    monkeypatch.setattr(octonions, "multiply", lambda x, y: calls.append(1) or multiply(x, y))
    octonions._closed_under_product.cache_clear()
    w = Subspace([E[1], E[2], E[4]])
    assert not is_subalgebra(w)
    assert len(calls) == 9
    # a later test on the same basis reuses the answer, and the callers still refuse it
    assert not is_subalgebra(Subspace([E[1], E[2], E[4]]))
    for call in (classify, g2_stabilizer_dim, lambda v: stratum_membership(v, X, "X1")):
        with pytest.raises(ValueError):
            call(w)
    assert len(calls) == 9
    with pytest.raises(ValueError):
        is_subalgebra(Subspace([E[0], E[1], E[2]]))


def test_stabilizer_dimensions():
    assert g2_stabilizer_dim(model_h0()) == 6   # orbit dimension 8
    assert g2_stabilizer_dim(model_h1()) == 7   # orbit dimension 7
    assert g2_stabilizer_dim(model_h2()) == 9   # orbit dimension 5


def test_left_multiplication_space_is_4dim():
    # l*O is spanned by the eight images l e_j
    assert matrix_rank([list(multiply(X, e).coeffs) for e in E]) == 4


def test_stratum_membership():
    h0, h1, h2 = model_h0(), model_h1(), model_h2()
    n = Subspace([X, Y])
    assert stratum_membership(h2, X, "X2'")
    assert stratum_membership(h1, n, "X2")
    # <e2,e4,e6> is a subalgebra pairing with N by a rank-2 matrix
    assert not stratum_membership(Subspace([E[2], E[4], E[6]]), n, "X2")
    # sampled generic isotropic lines keep the open-orbit point out of X1:
    # each is u + i v with u, v rational, orthogonal and of equal norm
    base = E[1] + E[2].scale(2) + E[3].scale(2) + E[4].scale(3 * I)
    samples = [
        base,
        E[2].scale(2) + E[3].scale(3) + E[4].scale(6) + E[7].scale(7 * I),
        multiply(base, E[5] + E[6].scale(2)),
        multiply(base, E[0] + E[7].scale(3)),
    ]
    for l in samples:
        assert norm(l) == 0 and l.is_imaginary()
        assert not stratum_membership(h0, l, "X1")
    # lines adapted to the point do meet: e1 + i e2 lies in H0 itself
    assert stratum_membership(h0, X, "X1")
    assert stratum_membership(h2, X, "X1")
    with pytest.raises(TypeError):
        stratum_membership(h0, n, "X1")
    with pytest.raises(ValueError):
        stratum_membership(h0, X, "X9")


def signed_automorphisms(limit=12):
    """Signed permutations of e1..e7 commuting with the product.

    Searches collineations of the line set and solves for compatible signs;
    stops after ``limit`` nontrivial symmetries.
    """
    line_sets = {frozenset(line) for line in FANO_LINES}
    found = []
    for perm in permutations(range(1, 8)):
        if all(frozenset(perm[v - 1] for v in line) in line_sets for line in FANO_LINES):
            for bits in range(128):
                signs = [1 if not (bits >> t) & 1 else -1 for t in range(7)]
                if _is_automorphism(perm, signs):
                    found.append((perm, tuple(signs)))
                    break
        if len(found) > limit:
            break
    return found


def _is_automorphism(perm, signs):
    def phi(i):
        return perm[i - 1], signs[i - 1]

    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                continue
            k, s = TABLE[i][j]
            pi, si = phi(i)
            pj, sj = phi(j)
            pk, sk = phi(k)
            k2, s2 = TABLE[pi][pj]
            if k2 != pk or si * sj * s2 != s * sk:
                return False
    return True


def apply_signed_automorphism(auto, x: Octonion) -> Octonion:
    perm, signs = auto
    out = [GI_ZERO] * 8
    out[0] = x.coeffs[0]
    for i in range(1, 8):
        c = x.coeffs[i]
        if c:
            target = perm[i - 1]
            out[target] = out[target] + (c if signs[i - 1] > 0 else -c)
    return Octonion(out)


def test_classify_invariant_under_table_symmetries():
    autos = signed_automorphisms(limit=8)
    assert len(autos) >= 4
    for auto in autos[:6]:
        for builder, tag in [
            (model_h0, OrbitType.NON_DEGENERATE),
            (model_h1, OrbitType.DEGENERATE_RANK_ONE),
            (model_h2, OrbitType.ISOTROPIC),
        ]:
            w = builder()
            image = Subspace([apply_signed_automorphism(auto, v) for v in w.basis])
            assert classify(image) is tag
