"""Verification driver.

Runs every module's computations against the embedded reference fixtures
and emits a deterministic machine-readable report.  Exit code 0 means no
check failed (documented suspected misprints are reported with their own
status and do not fail the run); 1 means a genuine failure; 2 means a
usage error.

The `cayleygr` script and `python -m cayleygr.cli` both enter through
``run``, which freezes the heap once ``main`` returns so that the
process ends without the shutdown collections walking it; ``main(argv)``
is the in-process entry and leaves the heap alone.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import sys
from collections import Counter, namedtuple
from fractions import Fraction

from . import ambient, cayley, equivariant, invariants, octonions
from .fixtures import FixtureError, fixture_entry, fixture_object, fixture_path, form_table, int_table, parse_form
from .weightmodel import ALPHA, BETA, CHAMBER, GAMMA, WEYL_GROUP

REPORT_VERSION = "1"

PASS = "pass"
FAIL = "fail"
DISCREPANCY = "paper-discrepancy"


class CheckResult(namedtuple("CheckResult", "id status computed expected provenance note", defaults=(None, None, "PAPER", ""))):
    """One check of a report; provenance is PAPER, TRIVIAL or DERIVED."""

    __slots__ = ()


def check(id, ok, computed=None, expected=None, provenance="PAPER", note=""):
    return CheckResult(id, PASS if ok else FAIL, computed, expected, provenance, note)


def equal(id, computed, expected, provenance="PAPER", note=""):
    """A check that the computed value equals the expected one."""
    return check(id, computed == expected, computed, expected, provenance, note)


def documented(id, computed, expected, evidence, note):
    """A check of a printed value with a documented misprint.

    Pass on a match; on a mismatch, paper-discrepancy only when the
    evidence named in ``note`` holds, and FAIL otherwise.
    """
    if computed != expected and evidence:
        return CheckResult(id, DISCREPANCY, computed, expected, "PAPER", note)
    return equal(id, computed, expected)


# ---------------------------------------------------------------------------
# topic runners: each takes the parsed arguments and yields its checks
# ---------------------------------------------------------------------------


def run_octonion(args):
    E = octonions.E
    I = octonions.I
    yield check("octonion.e1e2", octonions.multiply(E[1], E[2]) == E[3], "e3", "e3")
    yield check("octonion.square", octonions.multiply(E[1], E[1]) == -E[0], "-e0", "-e0")
    x, y = octonions.NULL_PLANE
    yield check("octonion.null-products", octonions.multiply(x, E[4]) == y.scale(I), "i*y", "i*y")
    sweep = all(
        octonions.im_product_via_form(E[i], E[j]) == octonions.multiply(E[i], E[j]).imaginary()
        for i in range(1, 8)
        for j in range(1, 8)
    )
    yield check("octonion.form-recovers-product", sweep, "49 pairs", "49 pairs", "TRIVIAL")
    samples = [E[1] + E[3].scale(2), E[2] + E[5].scale(I), E[4] + E[6] + E[7].scale(3)]
    mult_ok = all(
        octonions.norm(octonions.multiply(a, b)) == octonions.norm(a) * octonions.norm(b)
        for a in samples
        for b in samples
    )
    yield check("octonion.norm-multiplicative", mult_ok, provenance="TRIVIAL")
    alt_ok = all(
        octonions.multiply(a, octonions.multiply(a, b)) == octonions.multiply(octonions.multiply(a, a), b)
        for a in samples
        for b in samples
    )
    yield check("octonion.alternative", alt_ok, provenance="TRIVIAL")
    c = octonions.volume_identity_constant()
    yield check("octonion.volume-constant", bool(c), str(c), "nonzero", "DERIVED")
    yield equal("octonion.g2-dimension", len(octonions.g2_basis()), 14)


def run_orbits(args):
    tags = {
        "h0": (octonions.model_h0, octonions.OrbitType.NON_DEGENERATE, 6, 8),
        "h1": (octonions.model_h1, octonions.OrbitType.DEGENERATE_RANK_ONE, 7, 7),
        "h2": (octonions.model_h2, octonions.OrbitType.ISOTROPIC, 9, 5),
    }
    for name, (builder, tag, stab, orbit) in tags.items():
        w = builder()
        yield equal(f"orbits.{name}.subalgebra", octonions.is_subalgebra(w), True)
        yield equal(f"orbits.{name}.type", octonions.classify(w).value, tag.value)
        d = octonions.g2_stabilizer_dim(w)
        yield equal(f"orbits.{name}.stabilizer", d, stab)
        yield equal(f"orbits.{name}.orbit-dim", len(octonions.g2_basis()) - d, orbit)
    n = octonions.Subspace(octonions.NULL_PLANE)
    yield equal("orbits.null-plane", octonions.null_plane_test(n), True)
    yield equal("orbits.h2-in-X2'", octonions.stratum_membership(octonions.model_h2(), octonions.NULL_PLANE[0], "X2'"), True)
    yield equal("orbits.h1-in-X2", octonions.stratum_membership(octonions.model_h1(), n, "X2"), True)


def run_fixed_points(args):
    pts = cayley.enumerate_fixed_points()
    yield equal("fixed-points.count", len(pts), 15)
    ok = all(frozenset(p.triple) == cayley.reference_points()[p.label][0] for p in pts)
    yield check("fixed-points.triples", ok, "15 triples", "15 triples")


def run_tangents(args):
    diffs = cayley.tangent_discrepancies()
    printed = {lab: Counter(row[1]) for lab, row in cayley.reference_points().items()}
    row0 = cayley.tangent_weights(cayley.point_by_label("0"))
    expected5 = Counter({w.under((BETA, GAMMA)): m for w, m in row0.items()})  # a -> b -> g -> a
    got5 = cayley.tangent_weights(cayley.point_by_label("5"))
    row5 = documented(
        "tangents.row-5",
        sorted(str(w) for w in got5.elements()),
        sorted(str(w) for w in printed["5"].elements()),
        printed["5"] == printed["0"] and got5 == expected5,
        "printed row duplicates row 0; the symmetric image of row 0 under a->b->g->a is forced",
    )
    # every row but a documented misprint matches
    yield equal("tangents.matching-rows", len(cayley.enumerate_fixed_points()) - len(diffs), 15 - (row5.status == DISCREPANCY))
    yield row5
    yield check("tangents.row-5-symmetry", got5 == expected5, provenance="DERIVED")


def run_betti(args):
    # every tangent weight is a multiple of a root, so the transports
    # l_w = (<C, w(a)>, <C, w(b)>) of C = CHAMBER are all the generic
    # chambers; the identity comes first, so profiles[0] is C's
    profiles = [cayley.betti_profile((a.pair(CHAMBER), b.pair(CHAMBER))) for a, b in WEYL_GROUP]
    distinct = sorted(set(map(tuple, profiles)))
    computed = profiles[0] if len(distinct) == 1 else [list(p) for p in distinct]
    yield equal("betti.profile", computed, [1, 1, 2, 2, 3, 2, 2, 1, 1])
    # the printed label's number is the paper's codimension
    ok = all(p.codim == int(p.label.rstrip("'")) for p in cayley.enumerate_fixed_points())
    yield check("betti.codim-equals-label", ok, provenance="DERIVED")
    yield equal("betti.total", sum(profiles[0]), 15, "TRIVIAL")


def run_gkm(args):
    edges = cayley.gkm_edges()
    reached, frontier = set(), {equivariant.base_label()}
    while frontier:
        reached |= frontier
        frontier = {lab for e in edges if e.labels & frontier for lab in e.labels} - reached
    yield equal("gkm.connected", len(reached) == len(cayley.enumerate_fixed_points()), True, "DERIVED")
    roots = cayley.SHORT_AND_LONG_ROOTS
    yield check("gkm.edge-directions", all(e.primitive() in roots for e in edges), provenance="DERIVED")
    dual = cayley.point_permutation((-ALPHA, -BETA))
    central = {"0": "8", "1": "7", "2": "6", "2'": "6'", "3": "5", "3'": "5'", "4": "4", "4'": "4'", "4''": "4''"}
    ok = all(dual[a] == b and dual[b] == a for a, b in central.items())
    yield check("gkm.central-symmetry", ok, {k: dual[k] for k in sorted(dual)}, central)
    sym = all(
        {frozenset((m[a], m[b])) for a, b in (tuple(e.labels) for e in edges)} == {e.labels for e in edges}
        for m in map(cayley.point_permutation, WEYL_GROUP)
    )
    yield check("gkm.s3-invariance", sym, provenance="DERIVED")


def _breaks_a_congruence(values):
    """Whether a vertex map of one degree fails an edge congruence (``equivariant.check_gkm_divisibility``)."""
    try:
        equivariant.check_gkm_divisibility(values)
    except ArithmeticError:
        return True
    return False


def run_classes(args):
    # solve_all_classes checks every edge congruence on every class it returns
    classes = equivariant.solve_all_classes()
    yield check("classes.gkm-divisibility", True, "all 15 classes", "all 15 classes")
    labels = {p.label for p in cayley.enumerate_fixed_points()}
    _, fig1 = form_table("gkm_sigma1", labels)
    ok1 = all(classes["1"][lab] == form.scale(-1) for lab, form in fig1.items())
    yield check(
        "classes.sigma1-figure",
        ok1,
        "matches with one global sign",
        "figure values",
        note="the text normalization gives the negatives of the printed odd-codimension values",
    )
    fig2, forms2 = form_table("gkm_sigma2", labels)
    sigma2 = classes["2"]
    # compared as forms, reported as the computed form and the printed text
    at4 = documented(
        "classes.sigma2-at-4'",
        sigma2["4'"],
        forms2["4'"],
        forms2["4'"] == forms2["6"]
        and forms2["4'"].degree == sigma2["4'"].degree
        and _breaks_a_congruence(sigma2 | {"4'": forms2["4'"]}),
        "printed value copies the vertex-6 entry and violates the edge congruences at 4'",
    )._replace(computed=repr(sigma2["4'"]), expected=fig2["4'"])
    mismatch = {lab for lab, form in forms2.items() if sigma2[lab] != form}
    matched = f"{len(fig2) - len(mismatch)} of {len(fig2)} match"
    # every row but a documented misprint matches
    yield check("classes.sigma2-figure", mismatch == ({"4'"} if at4.status == DISCREPANCY else set()), matched, "15 rows")
    yield at4
    yield check(
        "classes.sigma2-at-8",
        sigma2["8"] == parse_form("4g(g-b)"),
        repr(sigma2["8"]),
        "4g(g-b)",
    )


def run_monk(args):
    monk = equivariant.monk_matrix()
    fig = {lab: int_table("bruhat_monk", row, f"monk[{lab!r}]") for lab, row in fixture_object("bruhat_monk", "monk").items()}
    yield equal("monk.matrix", monk, fig)
    yield equal("monk.sigma2", monk["2"], {"3": 1, "3'": 3})
    yield equal("monk.sigma2'", monk["2'"], {"3": 2, "3'": 2})
    degs = equivariant.degrees()
    additive = all(degs[lab] == equivariant.degree_of(row) for lab, row in monk.items() if row)
    yield check("monk.degree-additivity", additive, provenance="DERIVED")


def run_degrees(args):
    degs = equivariant.degrees()
    yield equal("degrees.table", degs, int_table("degrees", fixture_object("degrees", "degrees"), "degrees"))
    yield equal("degrees.variety", degs["0"], 182)
    s = sum(degs[lab] ** 2 for lab in equivariant.labels_by_codim()[cayley.DIMENSION // 2])
    yield equal("degrees.sum-of-squares", s, 182)


def run_mult(args):
    table = equivariant.multiplication_table()
    rows = fixture_entry("mult_table", "rows", lambda entry: isinstance(entry, list), "a list")
    labels = [p.label for p in cayley.enumerate_fixed_points()]
    duplicates = []
    failures = []
    plain = [(row.get("left"), row.get("right"), row.get("result")) for row in rows if isinstance(row, dict) and "duplicate_of" not in row]
    for i, row in enumerate(rows):
        # 'duplicate_of', on a line that repeats another, names the pair the line stands for
        pair = row.get("duplicate_of", [row.get("left"), row.get("right")]) if isinstance(row, dict) else None
        if not (isinstance(pair, list) and len(pair) == 2 and all(name in labels for name in [row.get("left"), row.get("right"), *pair])):
            path = fixture_path("mult_table")
            raise FixtureError(
                f"malformed fixture {path}: rows[{i}] is not an object whose 'left' and 'right' are point labels"
                " and whose 'duplicate_of', if any, is a list of two point labels"
            )
        key = tuple(sorted(pair))
        computed = table[key]
        printed = equivariant.SchubertVector(int_table("mult_table", row.get("result"), f"rows[{i}]['result']"))
        if computed == printed:
            continue
        if "duplicate_of" in row:
            verbatim = (row["left"], row["right"], row["result"]) in plain
            duplicates.append((key, printed, computed, verbatim))
        else:
            failures.append((key, printed, computed))
    yield check("mult.unambiguous-rows", not failures, failures or "all match", "all match")
    for key, printed, computed, verbatim in duplicates:
        yield documented(
            f"mult.duplicate-row.{key[0]}*{key[1]}",
            computed,
            printed,
            verbatim,
            "printed line duplicates another row verbatim; the resolved product differs",
        )
    sym_ok = all(c >= 0 for v in table.values() for _, c in v.items())
    yield check("mult.non-negative", sym_ok, provenance="DERIVED")


def run_ring(args):
    rep = equivariant.verify_ring_presentation()
    yield equal("ring.generator", rep["generator"], "2")
    rel = rep["relations"]["2"]
    yield check("ring.relation-degree-5", rel["rel1"].is_zero(), repr(rel["rel1"]), "0")
    yield check("ring.relation-degree-6", rel["rel2"].is_zero(), repr(rel["rel2"]), "0")
    yield equal(
        "ring.monomial-ranks",
        {k: r["rank"] for k, r in rep["ranks"].items()},
        {k: r["betti"] for k, r in rep["ranks"].items()},
    )
    lefschetz = equivariant.lefschetz_report()
    betti = {k: len(labels) for k, labels in equivariant.labels_by_codim().items()}
    yield equal(
        "ring.hard-lefschetz",
        lefschetz["ranks"],
        {k: betti[k] for k in lefschetz["ranks"]},
        "DERIVED",
        "rank of H^(8-2k) from codimension k to 8-k against b_2k",
    )
    yield check(
        "ring.hodge-riemann",
        all(d > 0 for minors in lefschetz["minors"].values() for d in minors),
        lefschetz["minors"],
        "all positive",
        "DERIVED",
        "leading minors of (-1)^k int x y H^(8-2k) on P^k = ker H^(9-2k); "
        "the odd primitive spaces are 0, so the sign change from k to k+1 is not tested",
    )
    signature = sum((-1) ** k * b for k, b in betti.items())
    yield equal("ring.signature", lefschetz["signature"], signature, "DERIVED", "the middle form against sum_k (-1)^k b_2k (Hodge index)")


def _printed_restriction():
    """The printed table {partition name: {label: int}}, or FixtureError naming the bad or missing key.

    Every nonempty box partition of size at most the dimension must be a key.
    """
    table = fixture_object("restriction", "table")
    path = fixture_path("restriction")
    names = {ambient.partition_name(lam) for lam in ambient.box_partitions() if sum(lam) <= cayley.DIMENSION}
    for name, coeffs in table.items():
        if name not in names:
            raise FixtureError(f"malformed fixture {path}: table key {name!r} is not a box partition of size at most {cayley.DIMENSION}")
        int_table("restriction", coeffs, f"table[{name!r}]")
    missing = names - set(table) - {"0"}
    if missing:
        raise FixtureError(f"malformed fixture {path}: table has no key {min(missing)!r}")
    return table


def run_restriction(args):
    printed = _printed_restriction()
    table = ambient.restriction_table()
    want = {name: equivariant.SchubertVector(coeffs) for name, coeffs in printed.items()}
    got = {name: table[ambient.parse_partition(name)] for name in printed}
    through_table, by_localization = ambient.tau11_square_routes(table)

    def squares_right(image):
        # rho(tau_11)^2 = rho(tau_11^2)
        return equivariant.schubert_product(image, image) == through_table

    swap = documented(
        "restriction.level-2-swap",
        {"2": got["2"], "11": got["11"]},
        {"2": want["2"], "11": want["11"]},
        (want["2"], want["11"]) == (got["11"], got["2"]) and squares_right(got["11"]) and not squares_right(want["11"]),
        "printed images of the two codimension-2 classes are interchanged; the ring-homomorphism property forces the computed assignment",
    )
    mismatch = [name for name in printed if got[name] != want[name]]
    swapped = swap.status == DISCREPANCY
    yield check(
        "restriction.table",
        sorted(mismatch) == (["11", "2"] if swapped else []),
        f"{len(printed) - len(mismatch)} of {len(printed)} entries match",
        "all but the swapped pair" if swapped else "all entries",
    )
    yield swap
    yield equal("restriction.homomorphism", through_table, by_localization, "DERIVED")


def run_index(args):
    profile = ambient.image_index_profile()
    yield equal("index.total", ambient.image_index(), 16)
    yield equal("index.codim-1", profile[1], 1)
    yield equal("index.codim-0", profile[0], 1, "TRIVIAL")
    yield check("index.profile", True, profile, None, "DERIVED", "per-codimension cokernel orders")


def run_chern(args):
    chern = invariants.chern_classes()
    printed = fixture_object("chern", "classes")
    pairs = ambient.tangent_chern_pairings()
    degs = equivariant.degrees()

    def meets_ambient(k, row):
        # the ambient intersection number c_k . H^(8-k) is the degree of the row, whose labels must be fixed points
        return row.coeffs.keys() <= degs.keys() and pairs[k] == equivariant.degree_of(row)

    for k in range(1, 9):
        want = equivariant.SchubertVector(int_table("chern", printed.get(str(k)), f"classes[{str(k)!r}]"))
        got = chern[k]
        yield documented(
            f"chern.c{k}",
            got,
            want,
            k in (5, 6) and meets_ambient(k, got) and not meets_ambient(k, want),
            "printed row contradicts the printed dual-degree polynomial; computed row confirmed by ambient intersection numbers",
        )
    yield equal("chern.euler", chern[8]["8"], 15)
    cross = all(meets_ambient(k, chern[k]) for k in range(1, 9))
    yield check("chern.ambient-cross-check", cross, provenance="DERIVED")


def run_dual(args):
    coeffs, dprime, value = invariants.dual_degree()
    printed = fixture_entry(
        "dual_polynomial",
        "coefficients",
        lambda c: isinstance(c, list) and len(c) == 9 and all(type(x) is int for x in c),
        "a list of 9 integers",
    )
    printed_derivative = fixture_entry("dual_polynomial", "derivative_at_one", lambda d: type(d) is int, "an integer")
    first_chern = invariants.chern_classes()[1][equivariant.hyperplane_label()]
    q8 = documented(
        "dual.q8-coefficient",
        coeffs[7],
        printed[7],
        coeffs[7] == -first_chern * equivariant.degrees()[equivariant.base_label()],
        "q^8 coefficient equals minus (first Chern coefficient) x (degree) = -728; the printed -738 is not attainable",
    )
    matching = [i for i in range(9) if coeffs[i] == printed[i]]
    expected = [i for i in range(9) if i != 7 or q8.status != DISCREPANCY]
    yield check("dual.matching-coefficients", matching == expected, f"{len(matching)} of 9", f"{len(expected)} of 9")
    yield q8
    yield documented(
        "dual.derivative",
        dprime,
        printed_derivative,
        printed_derivative == abs(sum((i + 1) * c for i, c in enumerate(printed))),
        "printed 17 is the absolute derivative of the misprinted polynomial; the corrected polynomial gives 63",
    )
    yield equal("dual.top-coefficient", coeffs[8], 182)
    yield check("dual.nonzero-derivative", dprime != 0, dprime, "nonzero")
    yield equal("dual.value-at-one", value, 9, "DERIVED")


def run_hilbert(args):
    p = invariants.hilbert_polynomial()
    agree = all(invariants.closed_form_value(k) == invariants.hilbert_value(k) for k in range(args.kmax + 1))
    yield check("hilbert.koszul-vs-closed-form", agree, f"k = 0..{args.kmax}", "equal")
    yield equal("hilbert.P1", p[1], 28)
    yield equal("hilbert.P2", p[2], 287, "DERIVED")
    yield equal("hilbert.quadrics", invariants.quadric_count(), 119)
    yield equal("hilbert.leading-degree", invariants.leading_degree(p), 182)


def run_series(args):
    kmax = max(args.kmax, 1)  # series.k1 reads the row k = 1
    rows = invariants.equivariant_series_check(kmax)
    bad = next((f"k = {k}: {lhs} != {rhs}" for k, lhs, rhs in rows if lhs != rhs), None)
    yield check("series.identity", bad is None, bad or f"k = 0..{kmax}", "holds")
    yield equal("series.k1", rows[1][1], 28)


TOPICS = {
    "octonion": run_octonion,
    "orbits": run_orbits,
    "fixed-points": run_fixed_points,
    "tangents": run_tangents,
    "betti": run_betti,
    "gkm": run_gkm,
    "classes": run_classes,
    "monk": run_monk,
    "degrees": run_degrees,
    "mult": run_mult,
    "ring": run_ring,
    "restriction": run_restriction,
    "index": run_index,
    "chern": run_chern,
    "dual": run_dual,
    "hilbert": run_hilbert,
    "series": run_series,
}


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, equivariant.SchubertVector):
        return _jsonable(dict(x.items()))
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in sorted(x.items(), key=lambda kv: str(kv[0]))}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _json(doc):
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _csv(rows):
    import csv  # only CSV output needs the module, so no other process pays for its import

    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


def render(results, fmt):
    if fmt == "json":
        return _json(
            {
                "version": REPORT_VERSION,
                "chamber": list(CHAMBER),
                "results": [{k: _jsonable(v) for k, v in r._asdict().items()} for r in results],
            }
        )
    if fmt == "csv":
        rows = [["id", "status", "computed", "expected", "provenance", "note"]]
        for r in results:
            rows.append([r.id, r.status, _jsonable(r.computed), _jsonable(r.expected), r.provenance, r.note])
        return _csv(rows)
    lines = []
    for r in results:
        tag = {PASS: "ok", FAIL: "FAIL", DISCREPANCY: "paper-discrepancy"}[r.status]
        line = f"[{tag:>17}] {r.id}"
        if r.status != PASS:
            line += f"  computed={_jsonable(r.computed)} expected={_jsonable(r.expected)}"
            if r.note:
                line += f"  ({r.note})"
        lines.append(line)
    counts = {s: sum(1 for r in results if r.status == s) for s in (PASS, FAIL, DISCREPANCY)}
    lines.append(
        f"{counts[PASS]} passed, {counts[FAIL]} failed, {counts[DISCREPANCY]} paper discrepancies"
    )
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# dumps: each takes the parsed arguments and returns the text to write
# ---------------------------------------------------------------------------


def dump_classes(args):
    classes = equivariant.solve_all_classes()
    return _json(
        {
            lab: {"codim": cayley.point_by_label(lab).codim, "values": {q: form.to_json() for q, form in cls.items()}}
            for lab, cls in classes.items()
        }
    )


def dump_fixed_points(args):
    return _json(
        [
            {
                "label": p.label,
                "codim": p.codim,
                "triple": [str(w) for w in p.triple_weights],
                "tangent": sorted(str(w) for w in cayley.tangent_weight_list(p)),
            }
            for p in cayley.enumerate_fixed_points()
        ]
    )


def dump_restriction(args):
    table = ambient.restriction_table()
    labels = [p.label for p in cayley.enumerate_fixed_points()]
    rows = [["partition"] + labels]
    for lam in sorted(table, key=lambda l: (sum(l), l)):
        rows.append([ambient.partition_name(lam)] + [table[lam][lab] for lab in labels])
    return _csv(rows)


def dump_hilbert(args):
    invariants.hilbert_polynomial()  # certifies the closed form
    rows = [["k", "P(k)"]]
    for k in range(args.kmax + 1):
        rows.append([k, int(invariants.closed_form_value(k))])
    return _csv(rows)


def dump_degrees(args):
    return _json(equivariant.degrees())


def dump_mult(args):
    table = equivariant.multiplication_table()
    return _json({f"{a}*{b}": dict(v.items()) for (a, b), v in sorted(table.items())})


DUMPS = {
    "classes": dump_classes,
    "fixed-points": dump_fixed_points,
    "restriction": dump_restriction,
    "hilbert": dump_hilbert,
    "degrees": dump_degrees,
    "mult": dump_mult,
}


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


KMAX_LIMIT = 100  # keeps hilbert and series work bounded


def _parse_kmax(s):
    try:
        k = int(s)
    except ValueError as exc:
        raise argparse.ArgumentTypeError("kmax must be an integer") from exc
    if k < 0:
        raise argparse.ArgumentTypeError("kmax must be non-negative")
    if k > KMAX_LIMIT:
        raise argparse.ArgumentTypeError(f"kmax must be at most {KMAX_LIMIT}")
    return k


def build_parser():
    parser = argparse.ArgumentParser(prog="cayleygr", description=__doc__.rpartition("\n\n")[0])  # the last paragraph is for callers
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run checks against the embedded reference data")
    verify.add_argument("topic", choices=sorted(TOPICS) + ["all"])
    verify.add_argument("--format", choices=["text", "json", "csv"], default="text")
    verify.add_argument("--out", default=None)
    verify.add_argument("--kmax", type=_parse_kmax, default=6, help=f"largest k for hilbert and series, 0 to {KMAX_LIMIT}")

    dump = sub.add_parser("dump", help="write computed objects")
    dump.add_argument("what", choices=sorted(DUMPS))
    dump.add_argument("--out", default=None)
    dump.add_argument("--kmax", type=_parse_kmax, default=10, help=f"largest k for hilbert, 0 to {KMAX_LIMIT}")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        return _run(parser.parse_args(argv))
    except (FixtureError, OutputError) as exc:
        print(f"{parser.prog}: error: {exc}", file=sys.stderr)
        return 2


def _run(args):
    if args.command == "verify":
        topics = sorted(TOPICS) if args.topic == "all" else [args.topic]
        results = [r for name in topics for r in TOPICS[name](args)]
        _emit(render(results, args.format), args.out)
        return 1 if any(r.status == FAIL for r in results) else 0
    if args.command == "dump":
        _emit(DUMPS[args.what](args), args.out)
        return 0
    return 2


class OutputError(Exception):
    """The --out file cannot be written: a usage error."""


def _emit(text, out):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise OutputError(f"cannot write {out}: {exc.strerror}") from exc
    else:
        sys.stdout.write(text)


def run(argv=None):
    """The process entry: main(argv), then freeze the heap; returns main's exit code.

    Every object alive at that point dies with the process, and a frozen
    heap spares the interpreter's shutdown collections from walking them.
    Shutdown itself still runs: streams are flushed, atexit handlers run
    and the exit code becomes the process's status.  In-process callers
    use ``main``, which leaves the heap alone.
    """
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
