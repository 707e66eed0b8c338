"""The torus fixed locus of the subalgebra variety inside G(3,7).

Enumerates the 15 coordinate fixed points, computes tangent weights,
attracting-cell codimensions for a chosen one-parameter subgroup, and the
GKM edge set.  Points are labelled by the reference table shipped as a
fixture; the weight convention is the one under which the open cell has
all tangent pairings positive in the chamber (1, 2).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cache
from itertools import combinations

from .fixtures import load_fixture
from .weightmodel import (
    BASIS_WEIGHTS,
    INDEX_OF_WEIGHT,
    U,
    Weight,
    omega_split,
    parse_weight,
    weight_str,
)

CHAMBER = (1, 2)  # pairings <l,a>, <l,b>; makes codim(p) equal the label number

DIMENSION = 8  # complex dimension; enumeration checks it against every tangent space

SHORT_AND_LONG_ROOTS = frozenset(
    [Weight(1, 0), Weight(-1, 0), Weight(0, 1), Weight(0, -1), Weight(-1, -1), Weight(1, 1),
     Weight(1, -1), Weight(-1, 1), Weight(2, 1), Weight(-2, -1), Weight(1, 2), Weight(-1, -2)]
)


@dataclass(frozen=True)
class FixedPoint:
    label: str
    triple: tuple          # 3 basis indices spanning the 3-space W
    four_space: tuple      # 4 basis indices spanning U = W-perp
    codim: int
    tangent: tuple         # the DIMENSION tangent weights, sorted

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


def label_codim(label: str) -> int:
    return int(label.rstrip("'"))


def is_cg_member(vectors) -> bool:
    """True iff the three-form vanishes identically on the span.

    The span must be 4-dimensional; by multilinearity it is enough to
    check every basis triple.
    """
    vectors = list(vectors)
    if len(vectors) != 4:
        raise ValueError("membership test expects a 4-dimensional subspace")
    for a, b, c in combinations(range(4), 3):
        if omega_split(vectors[a], vectors[b], vectors[c]):
            return False
    return True


def coordinate_member(indices) -> bool:
    return is_cg_member([U[i] for i in indices])


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


@cache
def enumerate_fixed_points():
    """All coordinate 3-spaces whose orthogonal 4-space kills the form.

    Scans the 35 candidates, keeps the members, and labels them against
    the reference table; exactly 15 must survive.  Sorted by (codim, label),
    so the open cell comes first and the point last.
    """
    table = load_fixture("fixed_points")["points"]
    label_by_triple = {}
    for row in table:
        idx = frozenset(INDEX_OF_WEIGHT[parse_weight(s)] for s in row["triple"])
        label_by_triple[idx] = row["label"]
    points = []
    for triple in combinations(range(7), 3):
        four = _complement_four_space(triple)
        if not coordinate_member(four):
            continue
        key = frozenset(triple)
        if key not in label_by_triple:
            raise ArithmeticError(f"member triple {triple} missing from the label table")
        label = label_by_triple[key]
        points.append(FixedPoint(label, triple, four, label_codim(label), _tangent_weights(label, four)))
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
    table = load_fixture("fixed_points")["points"]
    return {row["label"]: Counter(parse_weight(s) for s in row["tangent"]) for row in table}


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


def codim_of_point(p: FixedPoint, l=CHAMBER) -> int:
    """Number of chamber-negative tangent weights (the attracting codim)."""
    return sum(1 for w in p.tangent if w.pair(l) < 0)


def betti_profile(l=CHAMBER):
    """Counts of fixed points per attracting codimension 0..8."""
    assert_generic(l)
    counts = [0] * (DIMENSION + 1)
    for p in enumerate_fixed_points():
        counts[codim_of_point(p, l)] += 1
    assert sum(counts) == 15
    return counts


def repelling_weights(p: FixedPoint, l=CHAMBER):
    """The chamber-negative tangent weights (normal to the attracting cell)."""
    return [w for w in p.tangent if w.pair(l) < 0]


# ---------------------------------------------------------------------------
# the GKM graph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GkmEdge:
    labels: frozenset
    weight: Weight  # tangent-direction weight, defined up to sign

    def other(self, label):
        (a, b) = tuple(self.labels)
        return b if a == label else a

    def primitive(self) -> Weight:
        """The primitive direction; divisibility only sees this."""
        from math import gcd

        g = gcd(abs(self.weight[0]), abs(self.weight[1]))
        return Weight(self.weight[0] // g, self.weight[1] // g)


class GkmGraph:
    def __init__(self, vertices, edges):
        self.vertices = tuple(vertices)
        self.edges = tuple(edges)
        self._incident = {}
        for e in edges:
            for lab in e.labels:
                self._incident.setdefault(lab, []).append(e)

    def incident(self, label):
        return tuple(self._incident.get(label, ()))

    def neighbors(self, label):
        return tuple(e.other(label) for e in self.incident(label))

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0].label}
        frontier = [self.vertices[0].label]
        while frontier:
            lab = frontier.pop()
            for nxt in self.neighbors(lab):
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
        return len(seen) == len(self.vertices)


@cache
def gkm_edges() -> GkmGraph:
    """Edges join points whose 4-spaces share a 3-space.

    The edge weight is the weight difference of the two swapped basis
    directions; every connecting coordinate curve is re-checked to stay
    inside the variety at three interior parameter values (each form
    evaluation is affine in the parameter, so two would suffice).
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
            member = [U[i] for i in sorted(common)]
            member.append(U[x] + U[y].scale(t))
            if not is_cg_member(member):
                raise ArithmeticError(f"connecting curve {p.label}-{q.label} leaves the variety")
        edge = GkmEdge(labels=frozenset((p.label, q.label)), weight=weight)
        if edge.primitive() not in SHORT_AND_LONG_ROOTS:
            raise ArithmeticError(f"edge direction {weight} is not a root direction")
        edges.append(edge)
    graph = GkmGraph(points, edges)
    if not graph.is_connected():
        raise ArithmeticError("GKM graph is disconnected")
    return graph


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------

S3_PERMUTATIONS = {
    "id": {"a": "a", "b": "b", "g": "g"},
    "ab": {"a": "b", "b": "a", "g": "g"},
    "ag": {"a": "g", "b": "b", "g": "a"},
    "bg": {"a": "a", "b": "g", "g": "b"},
    "abg": {"a": "b", "b": "g", "g": "a"},
    "agb": {"a": "g", "b": "a", "g": "b"},
}

_GENERATORS = {
    "a": Weight(1, 0),
    "b": Weight(0, 1),
    "g": Weight(-1, -1),
}


def s3_weight_map(name):
    perm = S3_PERMUTATIONS[name]
    img_a = _GENERATORS[perm["a"]]
    img_b = _GENERATORS[perm["b"]]

    def act(w: Weight) -> Weight:
        return Weight(
            w[0] * img_a[0] + w[1] * img_b[0],
            w[0] * img_a[1] + w[1] * img_b[1],
        )

    return act


def s3_point_map(name):
    """The induced permutation of fixed points, as a label dictionary."""
    act = s3_weight_map(name)
    by_tripleset = {frozenset(p.triple_weights): p.label for p in enumerate_fixed_points()}
    out = {}
    for p in enumerate_fixed_points():
        image = frozenset(act(w) for w in p.triple_weights)
        out[p.label] = by_tripleset[image]
    return out


def duality_map():
    """Triple negation: pairs each point with its opposite cell."""
    by_tripleset = {frozenset(p.triple_weights): p.label for p in enumerate_fixed_points()}
    return {
        p.label: by_tripleset[frozenset(-w for w in p.triple_weights)]
        for p in enumerate_fixed_points()
    }
