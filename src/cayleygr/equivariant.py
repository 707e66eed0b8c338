"""GKM localization engine for the subalgebra variety.

Computes all 15 equivariant Schubert classes by descending induction from
the point class, then everything the localized classes determine: the
Monk rule, fixed-point integration, degrees, the full multiplication
table, the Poincare pairing and the top coordinates it gives any class
(``top_by_duality``), the monomials H^i s^j of the two-generator ring
presentation (the report evaluates its relations on them), and hard
Lefschetz, Hodge-Riemann and the middle signature on the computed ring.

Each induction step solves for the Monk coefficients alone: the Monk
expansion of f_X (f_H - f_H(p)) over the next classes gives every value
of f_X by exact division, once the coefficients make each division
exact; the vanishing pushforward of f_X then fixes them in one exact
linear solve.  The GKM edge congruences are not solved for; they are
checked on every solved class, together with the pushforwards of
f_X f_H^j below the top degree (re-integrated) and the integrality of
the Monk coefficients; the same re-check integrates the top pushforward
of f_X f_H^(8-k), the degree of the class.

A class is a vertex map {label: form}: a form at every fixed point,
zero values included, all of the class's degree.  A point's codimension
is the number of its tangent weights negative on the chamber
``weightmodel.CHAMBER`` (``cayley.FixedPoint.codim``); the labels only name the points.
Three vertices have roles, each named by one function: ``base_label()``,
the open cell (codimension 0, the fundamental class); ``hyperplane_label()``,
the one vertex of codimension 1 (the hyperplane class H); and
``point_label()``, of codimension 8 (the point class).  ``degree_of``
gives the degree sum c deg(X) of an integer combination of the classes,
deg X being the integral of sigma_X H^(8 - codim X).

Conventions: tangent weights as in the reference table; classes are
normalized at their defining vertex by the product of the negative-pairing
weights.
Under these conventions the printed even-codimension localization figures
are reproduced exactly and the odd ones up to one global sign.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache, partial
from math import gcd, lcm, prod

from .cayley import (
    DIMENSION,
    enumerate_fixed_points,
    gkm_edges,
    point_by_label,
    repelling_weights,
)
from .exact import HomogPoly, divide_by_linear, kronecker_value, matrix_rank, nullspace, packed_sum_of_products, poly_mul, solve_rational, sum_of_products
from .weightmodel import Weight, weight_str


@cache
def labels_by_codim():
    out = {}
    for p in enumerate_fixed_points():
        out.setdefault(p.codim, []).append(p.label)
    return out


def base_label():
    """The open-cell vertex, of codimension 0."""
    return enumerate_fixed_points()[0].label


def point_label():
    """The vertex of codimension DIMENSION, carrying the point class."""
    return enumerate_fixed_points()[-1].label


def hyperplane_label():
    """The one vertex of codimension 1, carrying the hyperplane class."""
    (label,) = labels_by_codim()[1]
    return label


def _degree(values) -> int:
    """The one degree of the forms in a vertex map; ValueError on mixed degrees or an empty map."""
    degs = {v.degree for v in values.values()}
    if len(degs) != 1:
        raise ValueError(f"vertex data of mixed degrees {sorted(degs)}" if degs else "empty vertex map: no degree to read")
    return degs.pop()


@cache
def hyperplane_weights():
    """{label: f_H(q)}: f_H(q) = omega(q) - omega(0), omega(q) the sum of the weights spanning q's 3-space."""
    omega = {p.label: sum(p.triple_weights, Weight(0, 0)) for p in enumerate_fixed_points()}
    return {lab: w - omega[base_label()] for lab, w in omega.items()}


def fundamental_class():
    one = HomogPoly.constant(1)
    return {p.label: one for p in enumerate_fixed_points()}


def hyperplane_class():
    return {lab: w.poly() for lab, w in hyperplane_weights().items()}


def normal_weight_product(label) -> HomogPoly:
    """Product of the repelling tangent weights at the vertex."""
    out = HomogPoly.constant(1)
    for w in repelling_weights(point_by_label(label).tangent):
        out = poly_mul(out, w.poly())
    return out


def point_class():
    top = point_label()
    return {p.label: HomogPoly.zero(DIMENSION) for p in enumerate_fixed_points()} | {top: normal_weight_product(top)}


def check_gkm_divisibility(cls) -> list[str]:
    """The edges whose congruence fails, as "a-b (weight w)"; empty when every edge holds.

    The value difference along an edge must be divisible by the edge
    weight; a binary form is divisible by the linear form x*alpha + y*beta
    exactly when it vanishes on its zero line, at (-y, x).
    """
    failures = []
    for e in gkm_edges():
        a, b = sorted(e.labels)
        x, y = e.weight
        if (cls[a] - cls[b]).evaluate(-y, x):
            failures.append(f"{a}-{b} (weight {weight_str(e.weight)})")
    return failures


# ---------------------------------------------------------------------------
# the descending induction
# ---------------------------------------------------------------------------


@cache
def _localization_denominator():
    """The integral common denominator L of the Euler classes, and C_q = L / e_q.

    Every tangent weight w is gcd(w) times a primitive root direction, so
    e_q = m_q P_q, with m_q the product of the gcds of q's weights and P_q
    the product of their primitive directions.  L is lcm(m_q) times the
    product of the directions, each to the largest multiplicity it has
    at one vertex; so every C_q has integer coefficients.  Returns
    (L, {label: C_q}); then sum_q f(q) / e_q = (sum_q f(q) C_q) / L.
    """
    mult = Counter()
    for p in enumerate_fixed_points():
        mult |= Counter(max(w.primitive(), -w.primitive()) for w in p.tangent)
    denominator = HomogPoly.constant(lcm(*(prod(gcd(*w) for w in p.tangent) for p in enumerate_fixed_points())))
    for d in sorted(mult.elements()):
        denominator = poly_mul(denominator, d.poly())
    complements = {}
    for p in enumerate_fixed_points():
        c = denominator
        for w in p.tangent:
            c = divide_by_linear(c, w[0], w[1])
            if c is None:
                raise ArithmeticError(f"tangent weight {w!r} at vertex {p.label} does not divide the denominator")
        complements[p.label] = c
    return denominator, complements


def _solve_class(p_label, next_classes):
    """One induction step: the class of codim k from the codim-(k+1) ones.

    The only unknowns are the Monk coefficients a_i of the expansion
    f_X (f_H - f_H(p)) = sum_i a_i f_{Y_i} over the next classes Y_i.
    f_X is pinned at p to the product of repelling weights and vanishes
    at the other vertices of codimension <= k.  At a vertex q of
    codimension > k, f_H(q) - f_H(p) is nonzero (f_H separates
    codimensions; checked here), so f_X(q) is the exact quotient of
    sum_i a_i f_{Y_i}(q) by it.  Two stages pin the a_i:

    (i)  divisibility: each numerator vanishes on the zero line of
         f_H(q) - f_H(p), one homogeneous row per q; the admissible a
         form the kernel of these rows;
    (ii) sum_q f_X(q) C_q = -n_p C_p, the vanishing pushforward of f_X
         over the integral localization denominator L (see
         ``_localization_denominator``: the C_q = L / e_q have integer
         coefficients), read off monomial by monomial in the
         coordinates on that kernel and solved exactly.  On CG this one
         identity pins the kernel; a step it leaves open raises
         ``ArithmeticError``.

    The GKM edge congruences and the pushforwards of f_X f_H^j for
    j > 0 are not among the equations: they follow from these, and
    ``_class_solve`` checks them on every solved class.
    """
    k = point_by_label(p_label).codim
    f_h = hyperplane_weights()
    n_p = normal_weight_product(p_label)
    lines = {}
    for q in enumerate_fixed_points():
        if q.codim > k:
            lines[q.label] = f_h[q.label] - f_h[p_label]
            if lines[q.label].is_zero():
                raise ArithmeticError(f"f_H does not separate vertex {q.label} from vertex {p_label}")
    # (i) x*alpha + y*beta vanishes at (-y, x)
    divisibility = [[cls[q].evaluate(-y, x) for cls in next_classes] for q, (x, y) in lines.items()]
    kernel = nullspace(divisibility, len(next_classes))
    quotients = []  # per kernel vector: {q: f_X(q)}
    for v in kernel:
        quotient = {}
        for q, (x, y) in lines.items():
            numerator = sum((cls[q].scale(c) for cls, c in zip(next_classes, v)), HomogPoly.zero(k + 1))
            quotient[q] = divide_by_linear(numerator, x, y)
            if quotient[q] is None:
                raise ArithmeticError(f"Monk numerator at vertex {q} is not divisible by f_H({q}) - f_H({p_label})")
        quotients.append(quotient)
    # (ii) one row per monomial of the pushforward identity
    _, complements = _localization_denominator()
    target = -poly_mul(n_p, complements[p_label])
    sums = [sum((poly_mul(quotient[q], complements[q]) for q in lines), HomogPoly.zero(target.degree))
            for quotient in quotients]
    rows, rhs = [], []
    for s in range(target.degree + 1):
        mono = (target.degree - s, s)
        row = [form.coeffs.get(mono, 0) for form in sums]
        if any(row) or mono in target.coeffs:
            rows.append(row)
            rhs.append(target.coeffs.get(mono, 0))
    try:
        t = solve_rational(rows, rhs)
        if len(t) < len(kernel):  # no equations at all: the solver sees no unknowns
            raise ArithmeticError(f"the solutions form a family of dimension {len(kernel) - len(t)}")
    except ArithmeticError as exc:
        raise ArithmeticError(f"class solve at vertex {p_label}: {exc}") from exc
    values = {q.label: HomogPoly.zero(k) for q in enumerate_fixed_points()}
    values[p_label] = n_p
    for q in lines:
        values[q] = sum((quotient[q].scale(c) for quotient, c in zip(quotients, t)), HomogPoly.zero(k))
    monk = [sum(c * v[i] for c, v in zip(t, kernel)) for i in range(len(next_classes))]
    return values, monk


@cache
def _class_solve():
    """All 15 localized classes, descending from the point class.

    Returns ({label: class}, Monk coefficients, degrees).  The Monk
    coefficients are the by-product expansion f_X (f_H - f_H(p)) =
    sum a_i f_{Y_i}; the degrees are the top pushforwards of the re-check.
    """
    by_codim = labels_by_codim()
    top = point_label()
    classes = {top: point_class()}
    monk = {top: {}}
    for k in range(DIMENSION - 1, -1, -1):
        next_labels = by_codim[k + 1]
        next_classes = [classes[lab] for lab in next_labels]
        for lab in by_codim[k]:
            cls, a = _solve_class(lab, next_classes)
            classes[lab] = cls
            coeffs = {}
            for nl, ai in zip(next_labels, a):
                if ai:
                    if ai.denominator != 1 or ai < 0:
                        raise ArithmeticError(f"Monk coefficient {ai} at {lab} is not a non-negative integer")
                    coeffs[nl] = int(ai)
            monk[lab] = coeffs
    h = hyperplane_class()
    degs = {}
    for lab, cls in classes.items():
        failures = check_gkm_divisibility(cls)
        if failures:
            raise ArithmeticError(f"divisibility fails on edge {failures[0]}")
        # re-verify the pushforward conditions by fixed-point integration
        data = cls
        for j in range(DIMENSION - point_by_label(lab).codim):
            if ab_integrate(data) != 0:
                raise ArithmeticError(f"pushforward of {lab} * H^{j} does not vanish")
            data = pointwise_product(data, h)
        val = ab_integrate(data)
        if val.denominator != 1 or val <= 0:
            raise ArithmeticError(f"degree of {lab} is not a positive integer: {val}")
        degs[lab] = int(val)
    if classes[base_label()] != fundamental_class():
        raise ArithmeticError("the codim-0 class did not come out as the fundamental class")
    if classes[hyperplane_label()] != hyperplane_class():
        raise ArithmeticError("the codim-1 class did not come out as the hyperplane class")
    return classes, monk, degs


def solve_all_classes():
    """All 15 localized classes as {label: {label: form}}, solved once."""
    return _class_solve()[0]


def monk_matrix():
    """H * sigma_p = sum over codim+1 classes, with multiplicities."""
    return {lab: dict(coeffs) for lab, coeffs in _class_solve()[1].items()}


# ---------------------------------------------------------------------------
# integration and expansion
# ---------------------------------------------------------------------------


def pointwise_product(*classes):
    """Vertexwise product of vertex maps; returns {label: form}.

    Each vertex of the first map multiplies its factors in one (p, q)
    coefficient table, taken as built (``HomogPoly.of_product_table``);
    a vertex where the product vanishes gets the shared
    ``HomogPoly.zero``.  Degrees add even where a factor vanishes, and a
    vertex missing from a later map raises ``KeyError``.
    """
    first, *rest = classes
    out = {}
    for lab, form in first.items():
        degree, table = form.degree, form.coeffs
        for cls in rest:
            factor = cls[lab]
            degree += factor.degree
            if table:
                acc = {}
                for (p1, q1), c1 in table.items():
                    for (p2, q2), c2 in factor.coeffs.items():
                        k = (p1 + p2, q1 + q2)
                        acc[k] = acc.get(k, 0) + c1 * c2
                table = acc
        out[lab] = HomogPoly.of_product_table(degree, table) if table else HomogPoly.zero(degree)
    return out


def ab_integrate(values) -> Fraction:
    """Fixed-point integration: sum of f(p) / e(p) over the vertices.

    The input is a vertex map of uniform degree <= 8, weighted by the
    C_q of ``_localization_denominator`` (see ``_integrate``).
    """
    return _integrate(values, None, 0)


def integrate_against(values, label) -> Fraction:
    """The integral of a vertex map times sigma_label, as ``ab_integrate`` gives it.

    The input is weighted by the cached sigma_label(q) C_q
    (``_vertex_weights``), with no product map built.
    """
    return _integrate(values, label, point_by_label(label).codim)


@cache
def _vertex_weights(weighting):
    """The vertex weights w_q of an integral, as ({q: w_q}, their one degree, {q: (#w_q, max|w_q|)}).

    The weighting is None for the C_q of ``_localization_denominator`` and a
    label Y for sigma_Y(q) C_q, zero off the support of sigma_Y; # is the
    number of terms, and a zero weight has sizes (0, 0).  Nonzero weights
    of mixed degrees raise ``ValueError``.
    """
    _, complements = _localization_denominator()
    if weighting is None:
        forms = complements
    else:
        forms = {q: form if form.is_zero() else poly_mul(form, complements[q]) for q, form in solve_all_classes()[weighting].items()}
    sizes = {q: (len(w.coeffs), max(map(abs, w.coeffs.values()), default=0)) for q, w in forms.items()}
    return forms, _degree({q: w for q, w in forms.items() if w.coeffs}), sizes


@cache
def _packed_weights(weighting, shift):
    """{q: w_q(2^shift)}: the vertex weights of ``_vertex_weights`` packed at a = 2^shift, b = 1."""
    return {q: kronecker_value(w, shift) for q, w in _vertex_weights(weighting)[0].items()}


def _integrate(values, weighting, extra) -> Fraction:
    """sum_q f(q) w_q / L over the vertex weights w_q of a weighting, of degree deg C_q + ``extra``, certified to be a constant.

    L is the integral common denominator of ``_localization_denominator``,
    and N = sum_q f(q) w_q is one ``packed_sum_of_products`` against the
    weights of ``_vertex_weights``, packed once per shift
    (``_packed_weights``): the integer coefficients of D N, D clearing the
    input's denominators.  N = 0 below degree 8; in degree 8, where N and
    L have one degree, L divides N exactly when N = c L, with c read off
    one monomial of L and certified by comparing D N with D c L
    coefficient by coefficient.  Anything else raises, and so does a
    vertex that is no fixed point or weights of another degree.  Vertices
    missing from the input count as zero.
    """
    degree = _degree(values)
    deg = degree + extra
    if deg > DIMENSION:
        raise ValueError(f"integration expects degree at most {DIMENSION}")
    denominator = _localization_denominator()[0]
    top = deg + denominator.degree - DIMENSION
    _, weight_degree, sizes = _vertex_weights(weighting)
    if degree + weight_degree != top:
        raise ValueError(f"a product of degree {degree + weight_degree} in a sum of degree {top}")
    scale, numerator = packed_sum_of_products(values, sizes, partial(_packed_weights, weighting), top)
    if not any(numerator):
        return Fraction(0)
    if deg < DIMENSION:
        raise ArithmeticError("integral of under-degree data failed to vanish")
    (p, _), d = next(iter(denominator.coeffs.items()))
    c = numerator[p]
    for i, n in enumerate(numerator):
        if n * d != c * denominator.coeffs.get((i, top - i), 0):
            raise ArithmeticError("fixed-point sum is not a polynomial")
    return Fraction(c, d * scale)


def expand_in_basis(values):
    """Expansion of a vertex map over the localized basis, with form coefficients.

    Returns {label: form of degree (deg - codim)}; a division that is not
    exact raises ArithmeticError, so membership in the span is verified.
    """
    deg = _degree(values)
    classes = solve_all_classes()
    remaining = dict(values)
    one = HomogPoly.constant(1)
    out = {}
    for p in enumerate_fixed_points():
        if p.codim > deg:
            break
        val = remaining[p.label]
        if val.is_zero():
            continue
        quotient = val
        for w in repelling_weights(p.tangent):
            quotient = divide_by_linear(quotient, w[0], w[1])
            if quotient is None:
                raise ArithmeticError(f"expansion fails: value at {p.label} not divisible by the normal weights")
        out[p.label] = quotient
        # r <- r - q sigma_p as one sum of products; a class vanishes
        # outside its support, so only its support changes
        negated = -quotient
        for lab, value in classes[p.label].items():
            if not value.is_zero():
                remaining[lab] = sum_of_products(((one, remaining[lab]), (negated, value)), deg)
    if any(not v.is_zero() for v in remaining.values()):
        raise ArithmeticError("expansion left a nonzero remainder")
    return out


def top_expansion(values):
    """Integer top-degree coefficients (the non-equivariant part)."""
    full = expand_in_basis(values)
    if not full:
        return SchubertVector({})
    coeffs = {}
    for lab, poly in full.items():
        if poly.degree == 0 and not poly.is_zero():
            c = poly.coeffs[(0, 0)]
            if c.denominator != 1:
                raise ArithmeticError(f"non-integral structure constant {c} at {lab}")
            coeffs[lab] = int(c)
    return SchubertVector(coeffs)


class SchubertVector:
    """Integer coordinates in a Schubert basis, as {key: nonzero int}.

    Keys are fixed-point labels for the 15 classes of the subvariety and
    box partitions for the Schubert classes of G(4,7) (``ambient``), so
    both sides of the restriction map share one type.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        clean = {}
        for lab, c in coeffs.items():
            if c:
                if not isinstance(c, int):
                    raise TypeError("Schubert coordinates are integers")
                clean[lab] = c
        object.__setattr__(self, "coeffs", clean)

    def __setattr__(self, name, value):
        raise AttributeError("SchubertVector is immutable")

    def __getitem__(self, lab):
        return self.coeffs.get(lab, 0)

    def __add__(self, other):
        return schubert_sum(((1, self), (1, other)))

    def __sub__(self, other):
        return schubert_sum(((1, self), (-1, other)))

    def scale(self, c):
        return schubert_sum(((c, self),))

    def __eq__(self, other):
        return isinstance(other, SchubertVector) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def is_zero(self):
        return not self.coeffs

    def items(self):
        return sorted(self.coeffs.items())

    def __repr__(self):
        if not self.coeffs:
            return "0"
        bits = []
        for lab, c in self.items():
            name = f"s{lab}"
            bits.append(name if c == 1 else f"{c}*{name}")
        return " + ".join(bits)


def basis_vector(label):
    return SchubertVector({label: 1})


@cache
def multiplication_table():
    """All pairwise Schubert products as integer vectors.

    Keys are unordered label pairs (sorted); products of total codimension
    above 8 are zero vectors.  Structure constants are certified integers
    of the right codimension; their signs are not checked here, the report
    does that (non-negativity is observed, not proven, for this variety).
    """
    classes = solve_all_classes()
    labels = [p.label for p in enumerate_fixed_points()]
    table = {}
    for i, la in enumerate(labels):
        for lb in labels[i:]:
            prod = pointwise_product(classes[la], classes[lb])
            vec = top_expansion(prod)
            for lab in vec.coeffs:
                if point_by_label(lab).codim != point_by_label(la).codim + point_by_label(lb).codim:
                    raise ArithmeticError("top expansion produced a wrong-codimension term")
            table[tuple(sorted((la, lb)))] = vec
    return table


@cache
def dual_labels():
    """{X: X'} with int sigma_X sigma_X' = 1, read off the Poincare pairing.

    Raises ArithmeticError unless each block of complementary codimensions is a permutation matrix of 1s.
    """
    pairing = poincare_pairing()
    out = {}
    for p in enumerate_fixed_points():
        pairings = {lb: pairing[p.codim][(p.label, lb)] for lb in labels_by_codim()[DIMENSION - p.codim]}
        partners = [lb for lb, c in pairings.items() if c]
        if len(partners) != 1 or pairings[partners[0]] != 1:
            raise ArithmeticError(f"the pairing of {p.label} with codimension {DIMENSION - p.codim} is {pairings}, not one 1")
        out[p.label] = partners[0]
    return out


def top_by_duality(values) -> SchubertVector:
    """Integer top-degree coefficients by Poincare duality: zero above degree 8.

    At each label X of the input's degree, the certified integral of the
    input times sigma_X' (``dual_labels``); lower-codimension classes carry
    coefficients of positive degree and integrate to zero against sigma_X'.
    """
    coeffs = {}
    for lab in labels_by_codim().get(_degree(values), ()):
        c = integrate_against(values, dual_labels()[lab])
        if c.denominator != 1:
            raise ArithmeticError(f"non-integral coordinate {c} at {lab}")
        coeffs[lab] = int(c)
    return SchubertVector(coeffs)


def schubert_sum(terms) -> SchubertVector:
    """sum c v over (int c, SchubertVector v) pairs, accumulated in one dict."""
    out = {}
    for c, v in terms:
        for lab, x in v.coeffs.items():
            out[lab] = out.get(lab, 0) + c * x
    return SchubertVector(out)


def schubert_product(u: SchubertVector, v: SchubertVector) -> SchubertVector:
    """u v as one ``schubert_sum`` of the scaled table rows sigma_X sigma_Y."""
    table = multiplication_table()
    return schubert_sum(
        (ca * cb, table[tuple(sorted((la, lb)))]) for la, ca in u.coeffs.items() for lb, cb in v.coeffs.items()
    )


def integrate_vector(v: SchubertVector) -> int:
    return v[point_label()]


def degrees():
    """deg sigma = integral of sigma * H^(8 - codim), read off the class solve."""
    return _class_solve()[2]


def degree_of(vector) -> int:
    """The degree sum c deg(X) of an integer combination {X: c} of the classes, or of a SchubertVector."""
    degs = _class_solve()[2]
    return sum(c * degs[lab] for lab, c in vector.items())


@cache
def poincare_pairing():
    """Pairing matrix per complementary codimension; expected a permutation.

    {k: {(X, Y): int sigma_X sigma_Y}} for X of codimension k and Y of
    codimension 8 - k, each a certified fixed-point integral.
    """
    classes = solve_all_classes()
    by_codim = labels_by_codim()
    out = {}
    for k in range(DIMENSION + 1):
        rows = {}
        for la in by_codim[k]:
            for lb in by_codim[DIMENSION - k]:
                val = integrate_against(classes[la], lb)
                if val.denominator != 1:
                    raise ArithmeticError("pairing is not integral")
                rows[(la, lb)] = int(val)
        out[k] = rows
    return out


# ---------------------------------------------------------------------------
# the ring presentation
# ---------------------------------------------------------------------------


@cache
def sigma1_powers():
    """The powers H^0, ..., H^8 of the hyperplane class, as a tuple of Schubert vectors."""
    h = basis_vector(hyperplane_label())
    powers = [basis_vector(base_label())]
    for _ in range(DIMENSION):
        powers.append(schubert_product(powers[-1], h))
    return tuple(powers)


@cache
def ring_monomials(label):
    """{(i, j): H^i s^j} for i + 2j <= 8, with s = sigma_label, as products in the multiplication table."""
    h = sigma1_powers()
    s = basis_vector(label)
    s_powers = [h[0]]
    for _ in range(DIMENSION // 2):
        s_powers.append(schubert_product(s_powers[-1], s))
    return {(i, j): schubert_product(h[i], s_j) for j, s_j in enumerate(s_powers) for i in range(DIMENSION + 1 - 2 * j)}


def _leading_minors(gram):
    """The leading principal minors of a square matrix, by cofactor expansion, as Fractions."""

    def det(m):
        return sum((-1) ** j * m[0][j] * det([r[:j] + r[j + 1:] for r in m[1:]]) for j in range(len(m))) if m else 1

    return [Fraction(det([row[:n] for row in gram[:n]])) for n in range(1, len(gram) + 1)]


def _signature(gram):
    """Signature of a symmetric matrix, from the pivots of an exact congruence diagonalization."""
    m = [[Fraction(x) for x in row] for row in gram]
    signature = 0
    while m:
        n = len(m)
        p = next((i for i in range(n) if m[i][i]), None)
        if p is None:
            i, j = next(((i, j) for i in range(n) for j in range(n) if m[i][j]), (None, None))
            if i is None:
                break  # the rest of the form is zero
            # x_i -> x_i + x_j: the (i, i) entry becomes 2 m[i][j], since m[i][i] = m[j][j] = 0
            for row in m:
                row[i] += row[j]
            m[i] = [a + b for a, b in zip(m[i], m[j])]
            p = i
        d = m[p][p]
        signature += 1 if d > 0 else -1
        m = [[m[r][c] - m[r][p] * m[p][c] / d for c in range(n) if c != p] for r in range(n) if r != p]
    return signature


def lefschetz_report():
    """Hard Lefschetz, Hodge-Riemann and the middle signature, read off the table rows.

    For k = 0..4, with H the hyperplane class: "ranks"[k] is the rank of
    x -> x H^(8-2k) from codimension k to codimension 8 - k, and
    "minors"[k] the leading principal minors of (-1)^k int x y H^(8-2k)
    on a basis of the primitive space P^k = ker H^(9-2k) in codimension
    k.  "signature" is the signature of int x y in codimension 4.
    """
    h = sigma1_powers()
    by_codim = labels_by_codim()
    report = {"ranks": {}, "minors": {}}
    for k in range(DIMENSION // 2 + 1):
        basis = [basis_vector(lab) for lab in by_codim[k]]
        lefschetz = [schubert_product(x, h[DIMENSION - 2 * k]) for x in basis]
        report["ranks"][k] = matrix_rank([[y[lab] for lab in by_codim[DIMENSION - k]] for y in lefschetz])
        # H^(9-2k) is one more H after H^(8-2k); there is no codimension 9, so P^0 is all of codimension 0
        up = [schubert_product(y, h[1]) for y in lefschetz]
        primitive = nullspace([[y[lab] for y in up] for lab in by_codim.get(DIMENSION + 1 - k, ())], len(basis))
        form = [[(-1) ** k * integrate_vector(schubert_product(y, x)) for x in basis] for y in lefschetz]
        pairs = [(i, j) for i in range(len(basis)) for j in range(len(basis))]
        gram = [[sum(v[i] * form[i][j] * w[j] for i, j in pairs) for w in primitive] for v in primitive]
        report["minors"][k] = _leading_minors(gram)
    # the last form, k = 4, is int x y on codimension 4
    report["signature"] = _signature(form)
    return report
