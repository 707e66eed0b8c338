from fractions import Fraction
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from cayleygr.exact import GI_ZERO, GaussianRational
from cayleygr.octonions import (
    E,
    FANO_LINES,
    I,
    Octonion,
    OrbitType,
    Subspace,
    classify,
    fano_table,
    g2_basis,
    g2_stabilizer_dim,
    im_product_via_form,
    is_subalgebra,
    left_multiplication_space,
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
    _permutation_sign,
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
            sign = _permutation_sign(idx)
            acc[perm] = acc.get(perm, Fraction(0)) + Fraction(s * sign, 6)
    return {key: c for key, c in acc.items() if c}


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
    assert null_plane_test(Subspace([X, Y]))
    assert not null_plane_test(Subspace([E[1], E[2]]))
    assert not null_plane_test(Subspace([X, E[3]]))
    with pytest.raises(ValueError):
        null_plane_test(model_h0())


def test_g2_dimension_is_14():
    assert len(g2_basis()) == 14


def test_stabilizer_dimensions():
    assert g2_stabilizer_dim(model_h0()) == 6   # orbit dimension 8
    assert g2_stabilizer_dim(model_h1()) == 7   # orbit dimension 7
    assert g2_stabilizer_dim(model_h2()) == 9   # orbit dimension 5


def test_left_multiplication_space_is_4dim():
    assert len(left_multiplication_space(X)) == 4


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
