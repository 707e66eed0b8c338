"""Classical Schubert calculus on G(4,7) and the restriction to the subvariety.

The intersection ring is modelled by symmetric polynomials in the four
Chern roots of the dual tautological bundle: the Schur polynomial s_lam
maps to the Schubert class tau_lam, and partitions outside the 4x3 box
die.  Littlewood-Richardson products are obtained by exact polynomial
multiplication followed by Schur expansion, with a tableau-counting
oracle in the test suite.

Also computes the fundamental class of the three-form zero locus (a top
Chern class), the restriction table onto the 15-class Schubert basis, the
image lattice index, and ambient-side pairings of the tangent Chern
classes used to cross-check the localization route.
"""

from __future__ import annotations

from functools import cache
from itertools import combinations
from math import prod

from .cayley import DIMENSION
from .exact import IntMatrix, smith_normal_form
from . import equivariant
from .equivariant import labels_by_codim

BOX_ROWS = 4
BOX_COLS = 3
TOP = (3, 3, 3, 3)


def box_partitions(size=None):
    """Partitions inside the 4x3 box, optionally of a fixed size."""
    out = []
    for a in range(BOX_COLS + 1):
        for b in range(a + 1):
            for c in range(b + 1):
                for d in range(c + 1):
                    lam = tuple(p for p in (a, b, c, d) if p)
                    if size is None or sum(lam) == size:
                        out.append(lam)
    seen = []
    for lam in out:
        if lam not in seen:
            seen.append(lam)
    return sorted(seen, key=lambda l: (sum(l), l), reverse=False)


def partition_name(lam):
    return "".join(str(p) for p in lam) if lam else "0"


def parse_partition(name):
    if name in ("0", ""):
        return ()
    return tuple(int(ch) for ch in name)


# ---------------------------------------------------------------------------
# symmetric polynomials in the four Chern roots
# ---------------------------------------------------------------------------


def _mono_mul(a, b):
    return tuple(x + y for x, y in zip(a, b))


def poly_mul_sym(p, q, max_deg=None):
    out = {}
    for ma, ca in p.items():
        da = sum(ma)
        for mb, cb in q.items():
            if max_deg is not None and da + sum(mb) > max_deg:
                continue
            key = _mono_mul(ma, mb)
            val = out.get(key, 0) + ca * cb
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


def _h_sym(m, nvars=4):
    """Complete homogeneous symmetric polynomial of degree m."""
    if m < 0:
        return {}
    out = {}

    def rec(pos, remaining, expo):
        if pos == nvars - 1:
            out[tuple(expo + [remaining])] = 1
            return
        for e in range(remaining + 1):
            rec(pos + 1, remaining - e, expo + [e])

    rec(0, m, [])
    return out


@cache
def schur_poly(shape, nvars=4):
    """Schur polynomial via the Jacobi-Trudi determinant over the h basis."""
    shape = tuple(p for p in shape if p)
    if len(shape) > nvars:
        return {}
    if not shape:
        return {(0,) * nvars: 1}
    n = len(shape)
    # det(h_{shape_i - i + j}) by cofactor expansion on the first row
    def minor_det(rows_shapes, cols):
        if not rows_shapes:
            return {(0,) * nvars: 1}
        i, lam_i = rows_shapes[0]
        total = {}
        for idx, j in enumerate(cols):
            m = lam_i - (i + 1) + (j + 1)
            h = _h_sym(m, nvars)
            if not h:
                continue
            sub = minor_det(rows_shapes[1:], cols[:idx] + cols[idx + 1 :])
            term = poly_mul_sym(h, sub)
            sign = 1 if idx % 2 == 0 else -1
            for k, v in term.items():
                val = total.get(k, 0) + sign * v
                if val:
                    total[k] = val
                elif k in total:
                    del total[k]
        return total

    return minor_det(list(enumerate(shape)), list(range(n)))


def schur_expand(p):
    """Expansion of a symmetric polynomial in the Schur basis."""
    work = dict(p)
    out = {}
    while work:
        mono = max(work)
        coeff = work[mono]
        lam = tuple(x for x in mono if x)
        if tuple(sorted(mono, reverse=True)) != mono:
            raise ArithmeticError(f"input not symmetric: leading monomial {mono}")
        s = schur_poly(lam)
        for k, v in s.items():
            val = work.get(k, 0) - coeff * v
            if val:
                work[k] = val
            elif k in work:
                del work[k]
        out[lam] = out.get(lam, 0) + coeff
    return {k: v for k, v in out.items() if v}


# ---------------------------------------------------------------------------
# the intersection ring
# ---------------------------------------------------------------------------


class AmbientClass:
    """Integer combination of box Schubert classes, graded by partition size."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        clean = {}
        for lam, c in coeffs.items():
            lam = tuple(p for p in lam if p)
            if not c:
                continue
            if len(lam) > BOX_ROWS or (lam and lam[0] > BOX_COLS):
                continue  # outside the box: zero class
            if any(lam[i] < lam[i + 1] for i in range(len(lam) - 1)):
                raise ValueError(f"not a partition: {lam}")
            clean[lam] = clean.get(lam, 0) + c
        object.__setattr__(self, "coeffs", {k: v for k, v in clean.items() if v})

    def __setattr__(self, name, value):
        raise AttributeError("AmbientClass is immutable")

    @classmethod
    def basis(cls, lam):
        return cls({tuple(lam): 1})

    def __getitem__(self, lam):
        return self.coeffs.get(tuple(lam), 0)

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, v in other.coeffs.items():
            out[k] = out.get(k, 0) + v
        return AmbientClass(out)

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return AmbientClass({k: c * v for k, v in self.coeffs.items()})

    def __eq__(self, other):
        return isinstance(other, AmbientClass) and self.coeffs == other.coeffs

    def is_zero(self):
        return not self.coeffs

    def items(self):
        return sorted(self.coeffs.items())

    def integral(self) -> int:
        """Coefficient of the point class (the full box)."""
        return self.coeffs.get(TOP, 0)

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(
            (f"{c}*" if c != 1 else "") + f"t{partition_name(lam)}" for lam, c in self.items()
        )


@cache
def _lr_pair(lam, mu):
    prod = poly_mul_sym(schur_poly(lam), schur_poly(mu))
    return tuple(sorted(schur_expand(prod).items()))


def lr_multiply(a: AmbientClass, b: AmbientClass) -> AmbientClass:
    """Littlewood-Richardson product truncated to the box."""
    out = {}
    for lam, ca in a.items():
        for mu, cb in b.items():
            for nu, c in _lr_pair(lam, mu):
                out[nu] = out.get(nu, 0) + ca * cb * c
    return AmbientClass(out)


def lr_coefficients_oracle(lam, mu, nu):
    """Littlewood-Richardson coefficient by counting lattice tableaux.

    Fills the skew shape nu/lam with content mu subject to semistandard
    rows/columns and the reverse lattice word condition; independent of
    the polynomial route.
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


@cache
def tau1_power(m: int) -> AmbientClass:
    if m == 0:
        return AmbientClass.basis(())
    return lr_multiply(tau1_power(m - 1), AmbientClass.basis((1,)))


def grassmannian_degree() -> int:
    return tau1_power(12).integral()


# ---------------------------------------------------------------------------
# the fundamental class of the three-form zero locus
# ---------------------------------------------------------------------------


@cache
def cg_class() -> AmbientClass:
    """Top Chern class of the rank-4 bundle with roots x_i + x_j + x_k.

    Each triple sum equals e1 - x_l, so the product of the four roots is
    e2 e1^2 - e3 e1 + e4; computed from the root product and cross-checked
    against the elementary-symmetric expression in the ring.
    """
    e1 = {(1, 0, 0, 0): 1, (0, 1, 0, 0): 1, (0, 0, 1, 0): 1, (0, 0, 0, 1): 1}
    prod = {(0, 0, 0, 0): 1}
    for l in range(4):
        root = dict(e1)
        # e1 - x_l: subtract the single variable monomial
        mono = tuple(1 if i == l else 0 for i in range(4))
        root[mono] = root.get(mono, 0) - 1
        root = {k: v for k, v in root.items() if v}
        prod = poly_mul_sym(prod, root)
    direct = AmbientClass(schur_expand(prod))

    t = AmbientClass.basis
    e_route = (
        lr_multiply(lr_multiply(t((1, 1)), t((1,))), t((1,)))
        - lr_multiply(t((1, 1, 1)), t((1,)))
        + t((1, 1, 1, 1))
    )
    if direct != e_route:
        raise ArithmeticError("two routes to the zero-locus class disagree")
    return direct


def cg_pairing(*factors) -> int:
    """Integral over the zero locus: <cg * product of ambient factors>."""
    total = cg_class()
    for f in factors:
        total = lr_multiply(total, f)
    return total.integral()


# ---------------------------------------------------------------------------
# the restriction map
# ---------------------------------------------------------------------------


def _pieri_up(lam):
    """Partitions obtained by adding one box inside the 4x3 box."""
    lam = tuple(lam)
    out = []
    padded = list(lam) + [0] * (BOX_ROWS - len(lam))
    for i in range(BOX_ROWS):
        if padded[i] < BOX_COLS and (i == 0 or padded[i] < padded[i - 1]):
            new = padded[:]
            new[i] += 1
            out.append(tuple(p for p in new if p))
    return out


def _nonneg_solutions(weights, target):
    """All non-negative integer vectors c with sum c_i * weights_i = target."""
    out = []

    def rec(i, remaining, acc):
        if i == len(weights) - 1:
            if remaining % weights[i] == 0:
                out.append(tuple(acc + [remaining // weights[i]]))
            return
        w = weights[i]
        for c in range(remaining // w + 1):
            rec(i + 1, remaining - c * w, acc + [c])

    if target < 0:
        return []
    rec(0, target, [])
    return out


@cache
def restriction_table():
    """Restriction of every box class of size <= 8 to the Schubert basis.

    Level by level, mirroring the stated method: candidates are the
    non-negative integer solutions of the degree pairing, pruned jointly
    by consistency with the hyperplane product (Pieri upstairs, the Monk
    rule downstairs); remaining ambiguity is resolved by pairings against
    the codimension-2 restrictions.  Uniqueness is asserted per level.
    """
    eq_degrees = equivariant.degrees()
    by_codim = labels_by_codim()
    monk = equivariant.monk_matrix()
    out = {(): equivariant.basis_vector(by_codim[0][0])}
    for k in range(1, DIMENSION + 1):
        parts = box_partitions(size=k)
        classes = by_codim[k]
        weights = [eq_degrees[lab] for lab in classes]
        candidates = {}
        for lam in parts:
            deg = cg_pairing(AmbientClass.basis(lam), tau1_power(DIMENSION - k))
            candidates[lam] = _nonneg_solutions(weights, deg)
            if not candidates[lam]:
                raise ArithmeticError(f"no candidate restriction for {partition_name(lam)}")
        # joint pruning by the hyperplane consistency equations
        monk_rows = []
        for lam_prev in box_partitions(size=k - 1):
            prev = out[lam_prev]
            target = {}
            for lab, c in prev.items():
                for t, m in monk[lab].items():
                    target[t] = target.get(t, 0) + c * m
            monk_rows.append((_pieri_up(lam_prev), tuple(target.get(lab, 0) for lab in classes)))

        def consistent(assign):
            for ups, target in monk_rows:
                sums = [0] * len(classes)
                for lam in ups:
                    for i in range(len(classes)):
                        sums[i] += assign[lam][i]
                if tuple(sums) != target:
                    return False
            return True

        def joint_solutions(limit):
            found = []

            def rec(idx, assign):
                if len(found) >= limit:
                    return
                if idx == len(parts):
                    if consistent(assign):
                        found.append(dict(assign))
                    return
                lam = parts[idx]
                for cand in candidates[lam]:
                    assign[lam] = cand
                    rec(idx + 1, assign)
                del assign[lam]

            rec(0, {})
            return found

        solutions = joint_solutions(limit=32)
        if len(solutions) > 1 and k >= 3:
            # pairings against the determined codimension-2 restrictions
            filters = []
            for nu in ((1, 1), (2,)):
                if DIMENSION - k - 2 < 0:
                    continue
                nu_vec = out[nu]
                pair = {}
                for i, lab in enumerate(classes):
                    v = equivariant.schubert_product(
                        equivariant.basis_vector(lab),
                        equivariant.schubert_product(nu_vec, equivariant.sigma1_power(DIMENSION - k - 2)),
                    )
                    pair[i] = equivariant.integrate_vector(v)
                for lam in parts:
                    val = cg_pairing(AmbientClass.basis(lam), AmbientClass.basis(nu), tau1_power(DIMENSION - k - 2))
                    filters.append((lam, pair, val))
            solutions = [
                s
                for s in solutions
                if all(sum(pair[i] * s[lam][i] for i in pair) == val for lam, pair, val in filters)
            ]
        if len(solutions) != 1:
            names = sorted(partition_name(lam) for lam in parts)
            raise ArithmeticError(f"restriction not uniquely determined at level {k} ({names}): {len(solutions)} solutions")
        (solution,) = solutions
        for lam in parts:
            out[lam] = equivariant.SchubertVector(dict(zip(classes, solution[lam])))
    return out


def restriction_of(lam) -> "equivariant.SchubertVector":
    return restriction_table()[tuple(p for p in lam if p)]


def image_index() -> int:
    """Index of the restriction image lattice, as a product over codimension."""
    return prod(image_index_profile().values())


def image_index_profile():
    """Index of the restriction image lattice in each codimension."""
    table = restriction_table()
    by_codim = labels_by_codim()
    out = {}
    for k in range(DIMENSION + 1):
        classes = by_codim[k]
        rows = [[table[lam][lab] for lab in classes] for lam in box_partitions(size=k)]
        diag, _, _ = smith_normal_form(IntMatrix(rows))
        nonzero = [d for d in diag if d]
        if len(nonzero) != len(classes):
            raise ArithmeticError(f"restriction image not of full rank in codimension {k}")
        out[k] = prod(nonzero)
    return out


# ---------------------------------------------------------------------------
# ambient route to the tangent Chern pairings (cross-check of localization)
# ---------------------------------------------------------------------------

@cache
def tangent_chern_ambient():
    """Graded pieces of c(Hom(T,Q)) / c(Lambda^3 T*) as ambient classes.

    Computed with seven formal roots (four for the dual tautological
    bundle, three for the quotient), reduced through the bi-Schur
    expansion and s_mu(quotient roots) = tau_{mu'}.
    """
    nx, ny = 4, 3
    nv = nx + ny
    max_deg = DIMENSION

    def mono(expos):
        return tuple(expos)

    one = {mono((0,) * nv): 1}

    def mul(p, q):
        return _poly_mul_deg(p, q, max_deg, nv)

    # c(Hom(T, Q)): roots x_i + y_j
    hom = dict(one)
    for i in range(nx):
        for j in range(ny):
            factor = {mono((0,) * nv): 1}
            xi = [0] * nv
            xi[i] = 1
            factor[mono(xi)] = 1
            yj = [0] * nv
            yj[nx + j] = 1
            factor[mono(yj)] = 1
            hom = mul(hom, factor)

    # c(Lambda^3 T*): roots x_i + x_j + x_k, then invert the series
    wedge = dict(one)
    for tri in combinations(range(nx), 3):
        factor = {mono((0,) * nv): 1}
        for i in tri:
            xi = [0] * nv
            xi[i] = 1
            factor[mono(xi)] = factor.get(mono(xi), 0) + 1
        wedge = mul(wedge, factor)
    tail = dict(wedge)
    del tail[mono((0,) * nv)]
    inv = dict(one)
    power = dict(one)
    for _ in range(max_deg):
        power = mul(power, tail)
        if not power:
            break
        sign = -1 if _ % 2 == 0 else 1
        for k, v in power.items():
            val = inv.get(k, 0) + sign * v
            if val:
                inv[k] = val
            elif k in inv:
                del inv[k]
    total = mul(hom, inv)

    graded = {k: {} for k in range(max_deg + 1)}
    for m, c in total.items():
        d = sum(m)
        if d <= max_deg:
            graded[d][m] = c
    out = {}
    for k in range(max_deg + 1):
        out[k] = _bisym_to_class(graded[k], nx, ny)
    return out


def _poly_mul_deg(p, q, max_deg, nv):
    out = {}
    for ma, ca in p.items():
        da = sum(ma)
        for mb, cb in q.items():
            if da + sum(mb) > max_deg:
                continue
            key = tuple(x + y for x, y in zip(ma, mb))
            val = out.get(key, 0) + ca * cb
            if val:
                out[key] = val
            elif key in out:
                del out[key]
    return out


def _conjugate_partition(lam):
    if not lam:
        return ()
    out = [0] * lam[0]
    for p in lam:
        for j in range(p):
            out[j] += 1
    return tuple(out)


def _bisym_to_class(p, nx, ny):
    """Reduce a bi-symmetric polynomial to an ambient class.

    Expands in products s_lam(x) s_mu(y) by leading-term subtraction and
    maps the y-Schur factor to the conjugate Schubert class.
    """
    work = dict(p)
    out = AmbientClass({})
    while work:
        m = max(work)
        c = work[m]
        xpart = m[:nx]
        ypart = m[nx:]
        lam = tuple(v for v in xpart if v)
        mu = tuple(v for v in ypart if v)
        if tuple(sorted(xpart, reverse=True)) != xpart or tuple(sorted(ypart, reverse=True)) != ypart:
            raise ArithmeticError(f"not bi-symmetric at {m}")
        sx = schur_poly(lam, nx)
        sy = schur_poly(mu, ny)
        for mx, cx in sx.items():
            for my, cy in sy.items():
                key = mx + my
                val = work.get(key, 0) - c * cx * cy
                if val:
                    work[key] = val
                elif key in work:
                    del work[key]
        term = lr_multiply(AmbientClass.basis(lam), AmbientClass.basis(_conjugate_partition(mu)))
        out = out + term.scale(c)
    return out


def tangent_chern_pairings():
    """Ambient-side integrals of c_k of the tangent sheaf of the zero locus.

    Returns {k: {"h": int, "s2": int, "s2'": int, ...}} with pairings
    against sigma_1^(8-k) and against the natural dual-basis probes, all
    computed by Littlewood-Richardson arithmetic only.
    """
    pieces = tangent_chern_ambient()
    probes = {"h": (), "t11": (1, 1), "t2": (2,), "t111": (1, 1, 1), "t3": (3,)}
    out = {}
    for k in range(DIMENSION + 1):
        row = {}
        for name, lam in probes.items():
            power = DIMENSION - k - sum(lam)
            if power >= 0:
                row[name] = cg_pairing(pieces[k], lr_multiply(AmbientClass.basis(lam), tau1_power(power)))
        out[k] = row
    return out
