"""The torus fixed locus of the subalgebra variety inside G(3,7).

Enumerates the 15 coordinate fixed points (spans of vectors of the
octonion weight basis U on which the octonion three-form vanishes),
computes tangent weights, attracting-cell codimensions for a chosen
one-parameter subgroup, and the GKM edge set.  A point's codimension is
the number of its tangent weights negative on the chamber
``weightmodel.CHAMBER``, in which the open cell has all tangent pairings
positive; the Weyl group permutes the points.  The reference
table shipped as a fixture labels the points; a label is read for
nothing else, and ``verify betti`` checks the number it prints.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from functools import cache
from itertools import combinations

from .fixtures import FixtureError, fixture_entry, fixture_path
from .octonions import minor, three_form
from .weightmodel import BASIS_WEIGHTS, CHAMBER, INDEX_OF_WEIGHT, LONG_ROOTS, SHORT_ROOTS, U, Weight, parse_weight, weight_str

DIMENSION = 8  # complex dimension; enumeration checks it against every tangent space

SHORT_AND_LONG_ROOTS = frozenset(SHORT_ROOTS + LONG_ROOTS)

# the point labels of the reference table, in (codim, label) order
LABELS = ("0", "1", "2", "2'", "3", "3'", "4", "4'", "4''", "5", "5'", "6", "6'", "7", "8")


class FixedPoint(namedtuple("FixedPoint", "label triple four_space tangent codim")):
    """A fixed point of the torus.

    ``triple`` holds the 3 basis indices spanning the 3-space W,
    ``four_space`` the 4 spanning U = W-perp, ``tangent`` the DIMENSION
    tangent weights (sorted), and ``codim`` the attracting-cell
    codimension in the chamber CHAMBER.
    """

    __slots__ = ()

    @property
    def triple_weights(self):
        return tuple(BASIS_WEIGHTS[i] for i in self.triple)

    def omega_weight(self) -> Weight:
        w = Weight(0, 0)
        for i in self.triple:
            w = w + BASIS_WEIGHTS[i]
        return w

    def __repr__(self):
        names = ",".join(weight_str(BASIS_WEIGHTS[i]) for i in self.triple)
        return f"FixedPoint[{self.label}]({names})"


def _complement_four_space(triple):
    negated = {INDEX_OF_WEIGHT[-BASIS_WEIGHTS[i]] for i in triple}
    return tuple(i for i in range(7) if i not in negated)


@cache
def _three_form_on_u():
    """The nonzero values phi(U_i, U_j, U_k), i < j < k, of the octonion three-form."""
    values = {t: three_form(U[t[0]], U[t[1]], U[t[2]]) for t in combinations(range(7), 3)}
    return {t: v for t, v in values.items() if v}


def _u_row(entries):
    """The coordinate row, in the weight basis U, of sum c * U[i] over entries {i: c}."""
    return tuple(entries.get(i, 0) for i in range(7))


def is_cg_member(rows) -> bool:
    """True iff the octonion three-form vanishes identically on the span.

    The span is given by four coordinate rows in the weight basis U and
    must be 4-dimensional; by multilinearity it is enough to check every
    triple of rows.  On a triple (x, y, z) the form is the sum, over the
    nonzero values phi_ijk of the form on U, of phi_ijk times the minor
    of (x, y, z) on the columns i, j, k.
    """
    rows = list(rows)
    if len(rows) != 4:
        raise ValueError("membership test expects a 4-dimensional subspace")
    phi = _three_form_on_u()
    for x, y, z in combinations(rows, 3):
        minors = ((c, minor(x, y, z, cols)) for cols, c in phi.items())
        if sum(c * m for c, m in minors if m):
            return False
    return True


def coordinate_member(indices) -> bool:
    return is_cg_member([_u_row({i: 1}) for i in indices])


def _tangent_weights(label, four_space):
    """Sorted tangent weights at the point whose 4-space is spanned by four_space.

    Sub-quotient weights of Hom(V7/U, U) minus the four triple-sums of U;
    this orientation reproduces the reference table (codimension = number
    of chamber-negative weights).
    """
    u_weights = [BASIS_WEIGHTS[i] for i in four_space]
    quot_weights = [BASIS_WEIGHTS[i] for i in range(7) if i not in four_space]
    twelve = Counter()
    for nu in u_weights:
        for mu in quot_weights:
            twelve[nu - mu] += 1
    for a, b, c in combinations(u_weights, 3):
        s = a + b + c
        if twelve[s] <= 0:
            raise ArithmeticError(f"tangent multiset subtraction impossible at {label}")
        twelve[s] -= 1
    out = tuple(sorted(twelve.elements()))
    if len(out) != DIMENSION:
        raise ArithmeticError(f"{len(out)} tangent weights at {label}, expected {DIMENSION}")
    return out


def _weight_names(names, size):
    """The weights named by the list ``names`` of ``size`` strings, or None."""
    if not isinstance(names, list) or len(names) != size or not all(isinstance(s, str) for s in names):
        return None
    try:
        return tuple(parse_weight(s) for s in names)
    except ValueError:
        return None


_POINT_KEYS = {
    "label": f"a new point label, one of {', '.join(LABELS)}",
    "triple": "3 basis weight names spanning a new 3-space",
    "tangent": f"{DIMENSION} weight names",
}


@cache
def reference_points():
    """The printed fixed-point table, checked: {label: (triple, tangent)}.

    ``triple`` is the frozenset of basis indices spanning the 3-space and
    ``tangent`` the printed tangent weights.  Each entry of 'points' in
    fixed_points.json must be an object whose keys meet ``_POINT_KEYS``;
    anything else raises FixtureError naming the file and key.  Read once
    per process.
    """
    rows = fixture_entry("fixed_points", "points", lambda entry: isinstance(entry, list), "a list")
    table = {}
    for i, row in enumerate(rows):
        row = row if isinstance(row, dict) else {}
        label = row.get("label")
        indices = frozenset(INDEX_OF_WEIGHT.get(w) for w in _weight_names(row.get("triple"), 3) or ())
        tangent = _weight_names(row.get("tangent"), DIMENSION)
        valid = {
            "label": label in LABELS and label not in table,
            "triple": len(indices) == 3 and None not in indices and all(indices != t for t, _ in table.values()),
            "tangent": tangent is not None,
        }
        for key, ok in valid.items():
            if not ok:
                where = f"points[{i}][{key!r}] = {row.get(key)!r}"
                raise FixtureError(f"malformed fixture {fixture_path('fixed_points')}: {where} is not {_POINT_KEYS[key]}")
        table[label] = (indices, tangent)
    return table


@cache
def enumerate_fixed_points():
    """All coordinate 3-spaces whose orthogonal 4-space kills the form.

    Scans the 35 candidates, keeps the members (exactly 15), and labels
    them by their rows of the reference table.  Sorted by (codim, label),
    so the open cell comes first and the point last.
    """
    label_by_triple = {triple: label for label, (triple, _) in reference_points().items()}
    points = []
    for triple in combinations(range(7), 3):
        four = _complement_four_space(triple)
        if not coordinate_member(four):
            continue
        label = label_by_triple.get(frozenset(triple))
        if label is None:
            names = ", ".join(weight_str(BASIS_WEIGHTS[i]) for i in triple)
            raise FixtureError(f"malformed fixture {fixture_path('fixed_points')}: 'points' has no row for the member triple ({names})")
        tangent = _tangent_weights(label, four)
        points.append(FixedPoint(label, triple, four, tangent, _codim(tangent)))
    if len(points) != 15:
        raise ArithmeticError(f"expected 15 fixed points, found {len(points)}")
    return tuple(sorted(points, key=lambda p: (p.codim, p.label)))


@cache
def _points_by_label():
    return {p.label: p for p in enumerate_fixed_points()}


def point_by_label(label: str) -> FixedPoint:
    return _points_by_label()[label]


def tangent_weights(p: FixedPoint):
    """Tangent weight multiset at a fixed point, as a Counter."""
    return Counter(p.tangent)


def tangent_weight_list(p: FixedPoint):
    return list(p.tangent)


def reference_tangent_table():
    """The printed tangent table, as label -> Counter of weights."""
    return {label: Counter(tangent) for label, (_, tangent) in reference_points().items()}


def tangent_discrepancies():
    """Labels whose computed tangent multiset differs from the printed row."""
    ref = reference_tangent_table()
    out = {}
    for p in enumerate_fixed_points():
        got = tangent_weights(p)
        if got != ref[p.label]:
            out[p.label] = (got, ref[p.label])
    return out


def assert_generic(l) -> None:
    for p in enumerate_fixed_points():
        for w in p.tangent:
            if w.pair(l) == 0:
                raise ValueError(f"one-parameter subgroup {l} is not generic at {p.label}")


def _codim(tangent, l=CHAMBER) -> int:
    return sum(1 for w in tangent if w.pair(l) < 0)


def codim_of_point(p: FixedPoint, l=CHAMBER) -> int:
    """Number of chamber-negative tangent weights (the attracting codim)."""
    return _codim(p.tangent, l)


def betti_profile(l=CHAMBER):
    """Counts of fixed points per attracting codimension 0..8."""
    assert_generic(l)
    counts = [0] * (DIMENSION + 1)
    for p in enumerate_fixed_points():
        counts[codim_of_point(p, l)] += 1
    if sum(counts) != 15:
        raise ArithmeticError(f"{sum(counts)} fixed points counted, expected 15")
    return counts


def repelling_weights(p: FixedPoint):
    """The chamber-negative tangent weights (normal to the attracting cell)."""
    return [w for w in p.tangent if w.pair(CHAMBER) < 0]


# ---------------------------------------------------------------------------
# the GKM graph
# ---------------------------------------------------------------------------


class GkmEdge(namedtuple("GkmEdge", "labels weight")):
    """A GKM edge: the frozenset of its two end labels and its
    tangent-direction weight, defined up to sign."""

    __slots__ = ()

    def primitive(self) -> Weight:
        """The primitive direction; divisibility only sees this."""
        return self.weight.primitive()


@cache
def gkm_edges():
    """The edges of the GKM graph, a tuple of GkmEdge; the graph is checked connected.

    Edges join points whose 4-spaces share a 3-space.  The edge weight is
    the weight difference of the two swapped basis directions; every
    connecting coordinate curve is re-checked to stay inside the variety
    at three interior parameter values (each form evaluation is affine in
    the parameter, so two would suffice).
    """
    points = enumerate_fixed_points()
    edges = []
    for p, q in combinations(points, 2):
        common = set(p.four_space) & set(q.four_space)
        if len(common) != 3:
            continue
        (x,) = set(p.four_space) - common
        (y,) = set(q.four_space) - common
        weight = BASIS_WEIGHTS[x] - BASIS_WEIGHTS[y]
        for t in (1, -1, 2):
            member = [_u_row({i: 1}) for i in sorted(common)]
            member.append(_u_row({x: 1, y: t}))
            if not is_cg_member(member):
                raise ArithmeticError(f"connecting curve {p.label}-{q.label} leaves the variety")
        edge = GkmEdge(labels=frozenset((p.label, q.label)), weight=weight)
        if edge.primitive() not in SHORT_AND_LONG_ROOTS:
            raise ArithmeticError(f"edge direction {weight} is not a root direction")
        edges.append(edge)
    seen = {points[0].label}
    grown = True
    while grown:
        grown = False
        for e in edges:
            if len(e.labels & seen) == 1:
                seen |= e.labels
                grown = True
    if len(seen) != len(points):
        raise ArithmeticError("GKM graph is disconnected")
    return tuple(edges)


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------


def point_permutation(w):
    """The permutation of fixed points by the Weyl group element w, as a label dictionary."""
    by_tripleset = {frozenset(p.triple_weights): p.label for p in enumerate_fixed_points()}
    return {p.label: by_tripleset[frozenset(x.under(w) for x in p.triple_weights)] for p in enumerate_fixed_points()}
