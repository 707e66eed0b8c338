"""GKM localization engine for the subalgebra variety.

Computes all 15 equivariant Schubert classes by descending induction from
the point class, then everything the localized classes determine: the
Monk rule, fixed-point integration, degrees, the full multiplication
table, the Poincare pairing, and the two-generator ring presentation.

Conventions: tangent weights as in the reference table (chamber (1, 2)
makes codimension = number of negative pairings); classes are normalized
at their defining vertex by the product of the negative-pairing weights.
Under these conventions the printed even-codimension localization figures
are reproduced exactly and the odd ones up to one global sign.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache

from .cayley import (
    DIMENSION,
    duality_map,
    enumerate_fixed_points,
    gkm_edges,
    point_by_label,
    repelling_weights,
)
from .exact import HomogPoly, divide_by_linear, poly_mul, solve_rational
from .weightmodel import Weight


@cache
def labels_by_codim():
    out = {}
    for p in enumerate_fixed_points():
        out.setdefault(p.codim, []).append(p.label)
    return out


def _base_label():
    """The open-cell vertex, of codimension 0."""
    return enumerate_fixed_points()[0].label


def _point_label():
    """The vertex of codimension DIMENSION, carrying the point class."""
    return enumerate_fixed_points()[-1].label


class EqClass:
    """Equivariant class in localized form: label -> form of one degree."""

    __slots__ = ("codim", "values")

    def __init__(self, codim, values):
        vals = {}
        for lab, poly in values.items():
            if not isinstance(poly, HomogPoly):
                raise TypeError("localized values must be forms")
            if not poly.is_zero() and poly.degree != codim:
                raise ValueError(f"value at {lab} has degree {poly.degree}, expected {codim}")
            vals[lab] = poly
        for p in enumerate_fixed_points():
            vals.setdefault(p.label, HomogPoly.zero(codim))
        object.__setattr__(self, "codim", codim)
        object.__setattr__(self, "values", vals)

    def __setattr__(self, name, value):
        raise AttributeError("EqClass is immutable")

    def __getitem__(self, label):
        return self.values[label]

    def __eq__(self, other):
        return isinstance(other, EqClass) and self.codim == other.codim and self.values == other.values

    def to_json(self):
        return {
            "codim": self.codim,
            "values": {lab: self.values[lab].to_json() for lab in sorted(self.values)},
        }


def hyperplane_weight(label) -> Weight:
    """f_H(q) = omega(q) - omega(0) as an integral weight."""
    return point_by_label(label).omega_weight() - point_by_label(_base_label()).omega_weight()


def fundamental_class() -> EqClass:
    one = HomogPoly.constant(1)
    return EqClass(0, {p.label: one for p in enumerate_fixed_points()})


def hyperplane_class() -> EqClass:
    return EqClass(1, {p.label: hyperplane_weight(p.label).poly() for p in enumerate_fixed_points()})


def normal_weight_product(label) -> HomogPoly:
    """Product of the repelling tangent weights at the vertex."""
    out = HomogPoly.constant(1)
    for w in repelling_weights(point_by_label(label)):
        out = poly_mul(out, w.poly())
    return out


def euler_class_at(label) -> HomogPoly:
    out = HomogPoly.constant(1)
    for w in point_by_label(label).tangent:
        out = poly_mul(out, w.poly())
    return out


def point_class() -> EqClass:
    top = _point_label()
    return EqClass(DIMENSION, {top: normal_weight_product(top)})


def check_gkm_divisibility(cls: EqClass) -> None:
    """All edge congruences: value differences divisible by the direction."""
    for e in gkm_edges().edges:
        a, b = tuple(e.labels)
        diff = cls[a] - cls[b]
        if diff.is_zero():
            continue
        w = e.primitive()
        if divide_by_linear(diff, w[0], w[1]) is None:
            raise ArithmeticError(f"divisibility fails on edge {a}-{b} (weight {w})")


# ---------------------------------------------------------------------------
# the descending induction
# ---------------------------------------------------------------------------


def _root_point(weight: Weight):
    """A point on the zero line of the linear form of the weight."""
    return (Fraction(-weight[1]), Fraction(weight[0]))


def _coeff_slots(degree):
    return [(degree - i, i) for i in range(degree + 1)]


# Directions (1, t) with t >= 3 keep every root and tangent weight nonzero.
_EVAL_TS = tuple(range(3, 43))


@cache
def _pushforward_eval_data():
    """Per-direction values of the Euler complements and hyperplane class.

    For each sample direction returns {label: (E_q, f_H(q))} where
    E_q = prod_{r != q} e_r evaluated at the direction.  Used to impose the
    vanishing of localization pushforwards during the class solve; the
    solved classes are re-verified symbolically afterwards.
    """
    labels = [p.label for p in enumerate_fixed_points()]
    data = {}
    for t in _EVAL_TS:
        pt = (Fraction(1), Fraction(t))
        evals = {}
        total = Fraction(1)
        for lab in labels:
            e_val = Fraction(1)
            for w in point_by_label(lab).tangent:
                e_val *= w[0] * pt[0] + w[1] * pt[1]
            assert e_val != 0
            evals[lab] = e_val
            total *= e_val
        fh = {lab: Fraction(hyperplane_weight(lab).pair((1, t))) for lab in labels}
        data[t] = {lab: (total / evals[lab], fh[lab]) for lab in labels}
    return data


def _solve_class(p_label, next_classes):
    """One induction step: the class of codim k from the codim-(k+1) ones.

    Unknowns: the expansion coefficients a_i of f_X (f_H - f_H(p)) over the
    next classes, plus explicit coefficient slots for f_X at every vertex of
    codimension > k.  Equations: the defining polynomial identity at every
    such vertex, and every GKM edge congruence with at least one endpoint
    carrying unknowns (values at codim <= k vertices are 0, and f_X(p) is
    pinned to the product of repelling weights).  The system must have a
    unique solution.
    """
    k = point_by_label(p_label).codim
    m = len(next_classes)
    f_h = {q.label: hyperplane_weight(q.label) for q in enumerate_fixed_points()}
    lp = f_h[p_label]
    n_p = normal_weight_product(p_label)
    support = [q.label for q in enumerate_fixed_points() if q.codim >= k + 1]
    slots = _coeff_slots(k)

    # unknown vector: a_0..a_{m-1}, then (k+1) coefficients per support vertex
    nvar = m + len(support) * len(slots)
    var_of = {lab: m + i * len(slots) for i, lab in enumerate(support)}

    def value_row(lab):
        """Rows expressing each coefficient of f_X(lab), or a constant form."""
        if lab == p_label:
            return n_p
        if lab in var_of:
            return var_of[lab]
        return HomogPoly.zero(k)  # codim <= k, not the vertex itself

    rows, rhs = [], []

    def add_equation(coeff_map, const):
        row = [Fraction(0)] * nvar
        for var, c in coeff_map.items():
            row[var] += c
        rows.append(row)
        rhs.append(const)

    # (i) f_X(q) * (f_H(q) - f_H(p)) = sum a_i f_{Y_i}(q) at support vertices
    for lab in support:
        lq = f_h[lab] - lp
        base = var_of[lab]
        gvals = [cls[lab] for cls in next_classes]
        if lq.is_zero():
            # the product side vanishes: sum a_i f_{Y_i}(q) = 0 termwise
            for slot in _coeff_slots(k + 1):
                coeffs = {i: g.coeffs.get(slot, Fraction(0)) for i, g in enumerate(gvals)}
                add_equation(coeffs, Fraction(0))
            continue
        lpoly = lq.poly()
        for slot in _coeff_slots(k + 1):
            coeffs = {}
            # product (sum_j c_j m_j) * lpoly contributes to each slot
            for j, vslot in enumerate(slots):
                contrib = Fraction(0)
                for (lp1, lq1), lc in lpoly.coeffs.items():
                    tgt = (vslot[0] + lp1, vslot[1] + lq1)
                    if tgt == slot:
                        contrib += lc
                if contrib:
                    coeffs[base + j] = contrib
            for i, g in enumerate(gvals):
                c = g.coeffs.get(slot, Fraction(0))
                if c:
                    coeffs[i] = coeffs.get(i, Fraction(0)) - c
            add_equation(coeffs, Fraction(0))

    # (ii) GKM congruences: evaluate differences at the root of the edge weight
    for e in gkm_edges().edges:
        a, b = tuple(e.labels)
        ra = value_row(a)
        rb = value_row(b)
        if isinstance(ra, HomogPoly) and isinstance(rb, HomogPoly):
            continue  # both values fixed; nothing to constrain here
        pt = _root_point(e.primitive())
        mono = {slot: pt[0] ** slot[0] * pt[1] ** slot[1] for slot in slots}
        coeffs = {}
        const = Fraction(0)
        for r, sign in ((ra, 1), (rb, -1)):
            if isinstance(r, HomogPoly):
                const -= sign * r.evaluate(*pt)
            else:
                for j, slot in enumerate(slots):
                    coeffs[r + j] = coeffs.get(r + j, Fraction(0)) + sign * mono[slot]
        add_equation(coeffs, const)

    # (iii) pushforward vanishing: sum_q f_X(q) f_H(q)^j / e_q is a
    # polynomial of negative degree for k + j < 8, hence zero.  The edge
    # congruences alone do not pin the scale (invariant curves come in
    # families here); these sampled conditions do, and the solved class is
    # re-verified symbolically afterwards.
    push = _pushforward_eval_data()
    for j in range(DIMENSION - k):
        for t in _EVAL_TS:
            per_label = push[t]
            coeffs = {}
            const = Fraction(0)
            e_p, fh_p = per_label[p_label]
            const -= n_p.evaluate(Fraction(1), Fraction(t)) * fh_p**j * e_p
            for lab in support:
                e_q, fh_q = per_label[lab]
                factor = fh_q**j * e_q
                base = var_of[lab]
                for jj, slot in enumerate(slots):
                    c = factor * Fraction(t) ** slot[1]
                    coeffs[base + jj] = coeffs.get(base + jj, Fraction(0)) + c
            add_equation(coeffs, const)

    sol = solve_rational(rows, rhs)
    if sol.status != "unique":
        raise ArithmeticError(f"class solve at vertex {p_label} is {sol.status}")
    a = sol.particular[:m]
    values = {p_label: n_p}
    for lab in support:
        base = var_of[lab]
        coeffs = {slot: sol.particular[base + j] for j, slot in enumerate(slots)}
        values[lab] = HomogPoly(k, coeffs)
    return EqClass(k, values), a


@cache
def _class_solve():
    """All 15 localized classes, descending from the point class.

    Returns ({label: EqClass}, Monk coefficients); the Monk coefficients
    are the by-product expansion f_X (f_H - f_H(p)) = sum a_i f_{Y_i}.
    """
    by_codim = labels_by_codim()
    top = _point_label()
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
    for lab, cls in classes.items():
        check_gkm_divisibility(cls)
        # symbolic re-verification of the sampled pushforward conditions
        data = cls
        for j in range(DIMENSION - cls.codim):
            if ab_integrate(data) != 0:
                raise ArithmeticError(f"pushforward of {lab} * H^{j} does not vanish")
            data = pointwise_product(data, h)
    if classes[_base_label()] != fundamental_class():
        raise ArithmeticError("the codim-0 class did not come out as the fundamental class")
    if classes["1"] != hyperplane_class():
        raise ArithmeticError("the codim-1 class did not come out as the hyperplane class")
    return classes, monk


def solve_all_classes():
    """All 15 localized classes as {label: EqClass}, solved once."""
    return _class_solve()[0]


def monk_matrix():
    """H * sigma_p = sum over codim+1 classes, with multiplicities."""
    return {lab: dict(coeffs) for lab, coeffs in _class_solve()[1].items()}


# ---------------------------------------------------------------------------
# integration and expansion
# ---------------------------------------------------------------------------


def pointwise_product(*classes_or_values):
    """Vertexwise product of localized data; returns {label: form}."""
    out = None
    for item in classes_or_values:
        vals = item.values if isinstance(item, EqClass) else item
        if out is None:
            out = dict(vals)
        else:
            out = {lab: poly_mul(out[lab], vals[lab]) for lab in out}
    return out


@cache
def _euler_complements():
    """E_q = product over r != q of the Euler classes."""
    labels = [p.label for p in enumerate_fixed_points()]
    total = HomogPoly.constant(1)
    for lab in labels:
        total = poly_mul(total, euler_class_at(lab))
    out = {}
    for lab in labels:
        partial = total
        for w in point_by_label(lab).tangent:
            partial = divide_by_linear(partial, w[0], w[1])
            assert partial is not None
        out[lab] = partial
    return out


def ab_integrate(values) -> Fraction:
    """Fixed-point integration: sum of f(p) / e(p) over the vertices.

    The input is vertexwise data of uniform degree <= 8.  The rational
    function sum must collapse: to zero below degree 8 and to a constant
    in degree 8; anything else raises.
    """
    if isinstance(values, EqClass):
        values = values.values
    labels = list(values)
    degs = {v.degree for v in values.values() if not v.is_zero()}
    if not degs:
        return Fraction(0)
    if len(degs) > 1:
        raise ValueError(f"mixed degrees {degs}")
    (deg,) = degs
    if deg > DIMENSION:
        raise ValueError(f"integration expects degree at most {DIMENSION}")
    complements = _euler_complements()
    numerator = HomogPoly.zero()
    for lab in labels:
        if values[lab].is_zero():
            continue
        numerator = numerator + poly_mul(values[lab], complements[lab])
    if numerator.is_zero():
        return Fraction(0)
    if deg < DIMENSION:
        raise ArithmeticError("integral of under-degree data failed to vanish")
    rem = numerator
    for lab in labels:
        for w in point_by_label(lab).tangent:
            rem = divide_by_linear(rem, w[0], w[1])
            if rem is None:
                raise ArithmeticError("fixed-point sum is not a polynomial")
    if rem.degree != 0:
        raise ArithmeticError("fixed-point sum is not a constant")
    return rem.coeffs.get((0, 0), Fraction(0))


def expand_in_basis(values):
    """Expansion over the localized basis with form coefficients.

    Returns {label: form of degree (deg - codim)}; exactness of every
    division is asserted, so membership in the span is verified.
    """
    if isinstance(values, EqClass):
        values = values.values
    classes = solve_all_classes()
    degs = {v.degree for v in values.values() if not v.is_zero()}
    if not degs:
        return {}
    (deg,) = degs
    remaining = dict(values)
    out = {}
    for p in enumerate_fixed_points():
        if p.codim > deg:
            break
        val = remaining[p.label]
        if val.is_zero():
            continue
        quotient = val
        for w in repelling_weights(p):
            quotient = divide_by_linear(quotient, w[0], w[1])
            if quotient is None:
                raise ArithmeticError(f"expansion fails: value at {p.label} not divisible by the normal weights")
        out[p.label] = quotient
        cls = classes[p.label]
        remaining = {lab: remaining[lab] - poly_mul(quotient, cls[lab]) for lab in remaining}
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
    """Integer coordinates in the 15-element Schubert basis."""

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
        out = dict(self.coeffs)
        for lab, c in other.coeffs.items():
            out[lab] = out.get(lab, 0) + c
        return SchubertVector(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return SchubertVector({lab: c * v for lab, v in self.coeffs.items()})

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
    and non-negative.
    """
    classes = solve_all_classes()
    labels = [p.label for p in enumerate_fixed_points()]
    table = {}
    for i, la in enumerate(labels):
        for lb in labels[i:]:
            prod = pointwise_product(classes[la], classes[lb])
            vec = top_expansion(prod)
            for lab, c in vec.items():
                if c < 0:
                    raise ArithmeticError(f"negative structure constant in {la}*{lb}")
                if point_by_label(lab).codim != point_by_label(la).codim + point_by_label(lb).codim:
                    raise ArithmeticError("top expansion produced a wrong-codimension term")
            table[tuple(sorted((la, lb)))] = vec
    return table


def schubert_product(u: SchubertVector, v: SchubertVector) -> SchubertVector:
    table = multiplication_table()
    out = SchubertVector({})
    for la, ca in u.items():
        for lb, cb in v.items():
            out = out + table[tuple(sorted((la, lb)))].scale(ca * cb)
    return out


def integrate_vector(v: SchubertVector) -> int:
    return v[_point_label()]


@cache
def degrees():
    """deg sigma = integral of sigma * H^(8 - codim)."""
    classes = solve_all_classes()
    h = hyperplane_class()
    out = {}
    for p in enumerate_fixed_points():
        data = pointwise_product(*( [classes[p.label]] + [h] * (DIMENSION - p.codim) ))
        val = ab_integrate(data)
        if val.denominator != 1 or val <= 0:
            raise ArithmeticError(f"degree of {p.label} is not a positive integer: {val}")
        out[p.label] = int(val)
    return out


def poincare_pairing():
    """Pairing matrix per complementary codimension; expected a permutation."""
    classes = solve_all_classes()
    by_codim = labels_by_codim()
    out = {}
    for k in range(DIMENSION + 1):
        rows = {}
        for la in by_codim[k]:
            for lb in by_codim[DIMENSION - k]:
                val = ab_integrate(pointwise_product(classes[la], classes[lb]))
                if val.denominator != 1:
                    raise ArithmeticError("pairing is not integral")
                rows[(la, lb)] = int(val)
        out[k] = rows
    return out


def verify_poincare_duality():
    dual = duality_map()
    pairing = poincare_pairing()
    for k, rows in pairing.items():
        for (la, lb), v in rows.items():
            expected = 1 if dual[la] == lb else 0
            if v != expected:
                raise ArithmeticError(f"pairing <{la},{lb}> = {v}, expected {expected}")
    return dual


# ---------------------------------------------------------------------------
# the ring presentation
# ---------------------------------------------------------------------------


def sigma1_power(n: int) -> SchubertVector:
    out = basis_vector(_base_label())
    for _ in range(n):
        out = schubert_product(out, basis_vector("1"))
    return out


def verify_ring_presentation():
    """Check the two defining relations and the monomial ranks.

    The degree-2 generator is identified as the codim-2 class for which
    both relations vanish; returns a report dictionary.
    """
    candidates = ["2", "2'"]
    report = {"generator": None, "relations": {}, "ranks": {}}
    h = basis_vector("1")
    for cand in candidates:
        s = basis_vector(cand)
        s2 = schubert_product(s, s)
        s3 = schubert_product(s2, s)
        h2 = sigma1_power(2)
        h3 = sigma1_power(3)
        h4 = sigma1_power(4)
        h5 = sigma1_power(5)
        rel1 = h5 - schubert_product(h3, s).scale(5) + schubert_product(h, s2).scale(6)
        rel2 = s3.scale(16) - schubert_product(h2, s2).scale(27) + schubert_product(h4, s).scale(9)
        ok = rel1.is_zero() and rel2.is_zero()
        report["relations"][cand] = {"rel1": rel1, "rel2": rel2, "both_vanish": ok}
        if ok and report["generator"] is None:
            report["generator"] = cand
    if report["generator"] is None:
        raise ArithmeticError("no codim-2 class satisfies both relations")
    gen = basis_vector(report["generator"])
    by_codim = labels_by_codim()
    betti = [len(by_codim[k]) for k in range(DIMENSION + 1)]
    for k in range(DIMENSION + 1):
        vectors = []
        for b in range(k // 2 + 1):
            a = k - 2 * b
            mono = sigma1_power(a)
            for _ in range(b):
                mono = schubert_product(mono, gen)
            vectors.append([mono[lab] for lab in by_codim[k]])
        rank = _int_rank(vectors)
        report["ranks"][k] = {"monomials": len(vectors), "rank": rank, "betti": betti[k]}
        if rank != betti[k]:
            raise ArithmeticError(f"monomial rank {rank} differs from Betti number {betti[k]} in codim {k}")
    return report


def _int_rank(vectors):
    from .exact import matrix_rank

    if not vectors:
        return 0
    rows = [[Fraction(c) for c in v] for v in vectors]
    return matrix_rank(rows)
