"""First cohomology of the two-variable bracket complex, generating-function
identities, higher bi-exponents, and partial slices.

The three-term complex at bidegree (p, q) runs

    g_{p-1,q-1} --> g_{p,q-1} (+) g_{p-1,q} --> g_{p,q}

with the maps (x) |-> ([e1,x], [e2,x]) and (u, v) |-> [e2,u] - [e1,v].
Nonzero classes occupy the two shifted quadrant families {p <= 0, q >= 1}
and {p >= 1, q <= 0}, each carrying rank-many classes; classes with p,q >= 1
or p,q <= 0 vanish.  (The two families touch the axes; the open-quadrant
version of the support statement fails on any diagram pair, as the
generating identity below forces axis classes.)
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations

from .diagrams import Diagram, ShapeClass, classify_shape
from .linalg import Subspace, add_multiple, complement, kernel_in, row_echelon
from .linalg import shifted
from .pairs import (
    ad,
    ad_each,
    ad_image,
    centralizer_bigraded,
    member_kernels,
)
from .polys import BivariatePoly, one_minus, prod_poly


def tower_steps(pair, h, member, ambient="sl"):
    """One step of the kernel tower K = K_member per class bidegree:
    {(p, q): (tgt, img)} for every (p, q) next to a block of K.

    For member 2 (the {p<=0, q>=1} family) tgt = K_{p,q-1} and img is
    [e1, K_{p-1,q-1}], which lies in tgt since [e1, e2] = 0; member 1 (the
    {p>=1, q<=0} family) is the mirror, with tgt = K_{p-1,q} and e2 in place
    of e1.  The steps live in the pair's record for h (NilPair.graded) and
    are freed with the pair; callers share them and must not mutate them.
    """
    g = pair.graded(h)
    return g.derived(("tower", member, ambient), _tower_steps, g, member, ambient)


def _tower_steps(g, member, ambient):
    blocks = g.kernels("K1" if member == 1 else "K2", ambient)
    x, (a, b) = (g.e2, (1, 0)) if member == 1 else (g.e1, (0, 1))
    # the sl blocks off (0, 0) are the gl ones, so the image of a source
    # block off (0, 0) is eliminated once for both ambients
    images = g.derived(("tower images", member), dict)
    zero = Subspace.zero(g.n**2)
    steps = {}
    for (p, q) in blocks:
        for key in ((p + a, q + b), (p + 1, q + 1)):
            if key not in steps:
                src = (key[0] - 1, key[1] - 1)
                tag = (src, ambient) if src == (0, 0) else src
                if tag not in images:
                    images[tag] = ad_image(x, blocks.get(src, zero))
                steps[key] = (blocks.get((key[0] - a, key[1] - b), zero), images[tag])
    return steps


def h1_table(pair, h=None):
    """Cohomology dimensions per bidegree: {(p, q): dim} for the bidegrees
    with nonzero H^1.  Cocycles and coboundaries live in the doubled matrix
    space (first summand then second).  The table lives in the pair's record
    for h (NilPair.graded) and is freed with the pair; callers share it and
    must not mutate it.
    """
    g = pair.graded(h)
    return g.derived("h1", _h1_table, g)


def _h1_table(g):
    # dim H^1 = dim cocycles - dim coboundaries, each from one rank: the
    # cocycles are the kernel of (u, v) |-> [e2,u] - [e1,v] on mid1 (+) mid2,
    # and the coboundaries the image of s |-> ([e1,s], [e2,s]) on src, in
    # the doubled space keyed k and nn + k
    e1, e2, n = g.e1, g.e2, g.n
    nn = n * n
    pieces = g.pieces("sl")
    zero = Subspace.zero(nn)
    keys = set()
    for (p, q) in pieces:
        keys.update({(p, q), (p + 1, q), (p, q + 1), (p + 1, q + 1)})
    out = {}
    for (p, q) in sorted(keys):
        mid1 = pieces.get((p, q - 1), zero)
        mid2 = pieces.get((p - 1, q), zero)
        if mid1.dim + mid2.dim == 0:
            continue
        src = pieces.get((p - 1, q - 1), zero)
        # the sign of the second summand's images leaves their rank alone
        images = ad_each(e2, mid1.basis, n) + ad_each(e1, mid2.basis, n)
        cocycles = mid1.dim + mid2.dim - len(row_echelon(images))
        boundaries = []
        for u, v in zip(ad_each(e1, src.basis, n), ad_each(e2, src.basis, n)):
            cocycle = ad(e2, u, n) == ad(e1, v, n)
            if not (cocycle and mid1.contains(u) and mid2.contains(v)):
                raise ArithmeticError("a coboundary is not a cocycle")
            boundaries.append({**u, **shifted(v, nn)})
        dim = cocycles - len(row_echelon(boundaries))
        if dim:
            out[(p, q)] = dim
    return out


def family(p, q):
    """The class family of bidegree (p, q): "se" for {p >= 1, q <= 0}, "nw"
    for {p <= 0, q >= 1}, None off both."""
    if p >= 1 and q <= 0:
        return "se"
    if p <= 0 and q >= 1:
        return "nw"
    return None


# the member whose kernel tower describes each family
_MEMBER = {"se": 1, "nw": 2}


def support_ok(dims):
    """Nonzero classes only in the two families."""
    return all(family(*k) for k in dims)


def quadrant_totals(dims):
    """(nw, se): the number of classes in each family."""
    totals = Counter()
    for k, d in dims.items():
        totals[family(*k)] += d
    return totals["nw"], totals["se"]


def coker_formula_check(pair, h=None):
    """Cohomology dimensions against the cokernel description on both sides:
    each family's classes are the cokernels of one step of its member's
    kernel tower (tower_steps)."""
    h = pair.graded(h).h
    dims = h1_table(pair, h)
    steps = {f: tower_steps(pair, h, member) for f, member in _MEMBER.items()}
    steps[None] = {}

    def expected(k):
        step = steps[family(*k)].get(k)
        return step[0].dim - step[1].dim if step else 0

    return all(dims.get(k, 0) == expected(k) for k in set(dims).union(*steps.values()))


def duality_check(pair, h=None):
    """Pairing between the two class families: dim H_{p,q} = dim H_{1-p,1-q},
    compared on the H^1 dimensions."""
    dims = h1_table(pair, h)
    return all(dims.get((1 - p, 1 - q), 0) == d for (p, q), d in dims.items())


def generating_polys(pair, h=None):
    """The three Laurent series g, z, H of graded dimensions."""
    graded = pair.graded(h)
    h = graded.h
    g = BivariatePoly({k: sp.dim for k, sp in graded.pieces("sl").items() if sp.dim})
    z = BivariatePoly(
        {k: sp.dim for k, sp in centralizer_bigraded(pair, h, "sl").items()}
    )
    hh = BivariatePoly(h1_table(pair, h))
    return g, z, hh


def euler_identity_check(pair, h=None):
    """H(s,t) = st z(s,t) + z(1/s,1/t) - (s-1)(t-1) g(s,t) as Laurent
    polynomials."""
    g, z, hh = generating_polys(pair, h)
    st = BivariatePoly.term(1, 1)
    smt = BivariatePoly({(1, 0): 1, (0, 0): -1})
    tmt = BivariatePoly({(0, 1): 1, (0, 0): -1})
    rhs = st * z + z.invert_vars() - smt * tmt * g
    return hh == rhs


def exponent_sums_check(pair, h=None):
    """The two half-dimension counts from the root data match the weighted
    sums of centralizer dimensions."""
    g = pair.graded(h)
    h, rd = g.h, g.roots()
    z = centralizer_bigraded(pair, h, "sl")
    s1 = sum(p * sp.dim for (p, q), sp in z.items())
    s2 = sum(q * sp.dim for (p, q), sp in z.items())
    return s1 == len(rd.axis1) and s2 == len(rd.axis2)


def product_identity_check(pair, h=None):
    """Product identity tying bi-exponents to the quadrant root data:

        prod_Exp (1 - s^{p+1} t^{q+1}) / (1 - s t)
          = prod_{axis1} (1 - s^{a+1} t)/(1 - s^a t)
          * prod_{axis2} (1 - s t^{b+1})/(1 - s t^b)
          * prod_{interior} (1-s^{a+1}t^{b+1})(1-s^a t^b)
                           /((1-s^{a+1}t^b)(1-s^a t^{b+1})).

    The interior factors are the printed per-root factors; the axis factors
    absorb the boundary corrections that the plain per-root form misses.
    Verified by cross-multiplication of exact polynomials; each factor
    1 - s^a t^b is listed by its exponents (a, b).
    """
    g = pair.graded(h)
    h, rd = g.h, g.roots()
    z = centralizer_bigraded(pair, h, "sl")
    lhs_num = []
    lhs_den = []
    for (p, q), sp in sorted(z.items()):
        lhs_num.extend([(p + 1, q + 1)] * sp.dim)
        lhs_den.extend([(1, 1)] * sp.dim)
    rhs_num, rhs_den = [], []
    for r in rd.axis1:
        a = int(rd.values[r][0])
        rhs_num.append((a + 1, 1))
        rhs_den.append((a, 1))
    for r in rd.axis2:
        b = int(rd.values[r][1])
        rhs_num.append((1, b + 1))
        rhs_den.append((1, b))
    for r in rd.interior:
        a, b = (int(x) for x in rd.values[r])
        rhs_num.append((a + 1, b + 1))
        rhs_num.append((a, b))
        rhs_den.append((a + 1, b))
        rhs_den.append((a, b + 1))
    return factor_products_equal(lhs_num + rhs_den, rhs_num + lhs_den)


def product_identity_nw_check(pair, h=None):
    """Companion identity for the higher bi-exponents:

        prod_{Exp_nw} (1 - s^{p+1} t^{q+1})
          = (1 - s t^2)^rank
          * prod_{nw roots, b>=1} 1/bracket(a+1, b+1)
          * prod_{nw roots, b=0} (1 - s^{a+1} t^2)/(1 - s^{a+2} t^2)
          * prod_{axis2 roots} (1 - s t^{b+2})/(1 - s t^{b+1})

    where nw roots have values (a, b) with a <= -1, b >= 0 and bracket is the
    per-root factor of the main identity.  Derived by the same telescoping as
    the main identity; the printed one-line variant divides by vanishing
    axis factors and cannot be evaluated literally.
    """
    g = pair.graded(h)
    h, rd = g.h, g.roots()
    n = pair.n
    exps = higher_biexponents(pair, h)
    lhs = [(p + 1, q + 1) for (p, q) in exps]
    rhs_num = [(1, 2)] * (n - 1)
    rhs_den = []
    for v1, v2 in rd.values.values():
        a, b = int(v1), int(v2)
        if a <= -1 and b >= 1:
            # inverse bracket at (a+1, b+1)
            rhs_num.append((a + 2, b + 1))
            rhs_num.append((a + 1, b + 2))
            rhs_den.append((a + 2, b + 2))
            rhs_den.append((a + 1, b + 1))
        elif a <= -1 and b == 0:
            rhs_num.append((a + 1, 2))
            rhs_den.append((a + 2, 2))
    for r in rd.axis2:
        b = int(rd.values[r][1])
        rhs_num.append((1, b + 2))
        rhs_den.append((1, b + 1))
    return factor_products_equal(lhs + rhs_den, rhs_num)


def factor_products_equal(left, right):
    """prod (1 - s^a t^b) over the exponent pairs (a, b) of `left` equals
    the product over `right`, as Laurent polynomials.

    The factors both sides share are cancelled before multiplying, which is
    exact because Laurent polynomials form a domain; the zero factor (0, 0)
    is never cancelled.
    """
    shared = Counter(left) & Counter(right)
    shared.pop((0, 0), None)

    def product(factors):
        return prod_poly([one_minus(a, b) for a, b in factors.elements()])

    return product(Counter(left) - shared) == product(Counter(right) - shared)


def higher_biexponents(pair, h=None, quadrant="nw"):
    """Bidegrees of the classes in one family, "nw" or "se", with
    multiplicity."""
    out = []
    for k, d in sorted(h1_table(pair, h).items()):
        if family(*k) == quadrant:
            out.extend([k] * d)
    return tuple(out)


# ---------------------------------------------------------------------------
# partial slices


def slice_basis(pair, h=None, quadrant="se", reverse=False):
    """Deterministic complement system for one family, "se" or "nw"; any
    other quadrant raises ValueError.  Its entries are (class bidegree,
    flattened sparse row), shared with the tower's subspaces, so they must
    not be mutated.

    The "se" matrices are complements inside the kernel tower of e1 (each
    commutes with e1, and slice points perturb e2); "nw" is the mirror."""
    if quadrant not in _MEMBER:
        raise ValueError(f"unknown quadrant {quadrant!r}: use 'se' or 'nw'")
    h = pair.graded(h).h
    entries = []
    for k, (tgt, img) in sorted(tower_steps(pair, h, _MEMBER[quadrant]).items()):
        if family(*k) == quadrant and tgt.dim > img.dim:
            entries.extend((k, v) for v in complement(img, tgt, reverse=reverse).basis)
    return entries


def young_se_slice(pair):
    """Explicit slice maps for a Young-diagram pair: one translation map per
    box, sending the top segment of the box's column to the right end of the
    box's row.  Each map comes as (class bidegree, flattened sparse row),
    the class being the map's shift plus (1, 0); the center direction, which
    the trace-zero cut removes, is one of the classes at (1, 0)."""
    d = pair.provenance
    if not isinstance(d, Diagram) or classify_shape(d) != ShapeClass.YOUNG:
        raise ValueError("explicit slice recipe needs a Young-diagram pair")
    n = pair.n
    index = {box: i for i, box in enumerate(d.boxes)}
    col_top = {p: max(qs) for p, qs in d.columns().items()}
    row_end = {q: max(ps) for q, ps in d.rows().items()}
    out = []
    for (p, q) in d.boxes:
        a, b = row_end[q] - p, q - col_top[p]
        m = {index[(a + i, q)] * n + index[(i, col_top[p])]: 1 for i in range(p + 1)}
        out.append(((a + 1, b), m))
    return out


def slice_samples(pair, h, quadrant, mats):
    """The deterministic sample points of the slice spanned by the matrices
    `mats` of slice_basis(pair, h, quadrant), with their gl centralizers:
    (members, x1, x2, dim Z(x1, x2), Z(x1, x2) or None) for each single
    member, each pair of members and, beyond two, the full sum.  The moved
    member of the point is a sparse row, the other one is the pair's own
    member.

    The unperturbed member (e1 for "se", e2 for "nw") is h-homogeneous, so
    its gl centralizer is the sum of its graded kernel blocks, built once
    per slice; Z(x1, x2) is the kernel of the moved member's bracket on it.
    The bracket is linear in the moved member, so the brackets of the start
    member and of each slice matrix with that basis are formed once per
    slice, one ad_each each, and each point's images are their sums.  The
    singletons and the full sum come with Z itself, with the same canonical
    basis as the joint kernel of ad x1 and ad x2; the other points only
    with its dimension, from the rank of their images.
    """
    n = pair.n
    member = _MEMBER[quadrant]
    blocks = member_kernels(pair, h, member, "gl")
    # blocks of different bidegrees sit on disjoint keys, so their canonical
    # rows together are canonical
    z_fixed = Subspace.canonical(n * n, [v for sp in blocks.values() for v in sp.basis])
    fixed, start = (pair.e1, pair.e2) if member == 1 else (pair.e2, pair.e1)
    start = {k: x for k, x in enumerate(start) if x}
    start_images = ad_each(start, z_fixed.basis, n)
    mat_images = [ad_each(m, z_fixed.basis, n) for m in mats]
    picks = [(i,) for i in range(len(mats))]
    picks += list(combinations(range(len(mats)), 2))
    picks += [tuple(range(len(mats)))] if len(mats) > 2 else []
    for pick in picks:
        moved = dict(start)
        images = [dict(img) for img in start_images]
        for i in pick:
            add_multiple(moved, 1, mats[i])
            for img, extra in zip(images, mat_images[i]):
                add_multiple(img, 1, extra)
        x1, x2 = (fixed, moved) if member == 1 else (moved, fixed)
        if len(pick) == 1 or len(pick) == len(mats):
            zx = kernel_in(z_fixed, images)
            yield pick, x1, x2, zx.dim, zx
        else:
            yield pick, x1, x2, z_fixed.dim - len(row_echelon(images)), None


def slice_report(pair, h=None, quadrant="se", reverse=False):
    """Build the slice, check the commuting property and regularity of the
    deterministic sample points, and compare the graded centralizer of each
    sample with the centralizer of the pair."""
    h = pair.graded(h).h
    n = pair.n
    mats = [m for _, m in slice_basis(pair, h, quadrant, reverse=reverse)]
    report = {
        "quadrant": quadrant,
        "count": len(mats),
        "count_ok": len(mats) == n - 1,
        "samples": [],
    }
    # the symbol-containment pass runs on the samples that come with their
    # centralizer (the singletons and the full sum), regularity on every one
    frames = _corner_frames(pair, h)
    all_ok = report["count_ok"]
    for pick, x1, x2, zdim, zx in slice_samples(pair, h, quadrant, mats):
        commutes = not ad(x1, x2, n)
        zdim -= 1  # the identity always centralises, trace cuts one
        corners_ok = None if zx is None else _corner_containment_ok(n, zx, frames)
        ok = commutes and zdim == n - 1 and corners_ok is not False
        all_ok = all_ok and ok
        report["samples"].append(
            {
                "members": list(pick),
                "commutes": commutes,
                "centralizer_dim": zdim,
                "corner_containment": corners_ok,
                "ok": ok,
            }
        )
    # the explicit recipe for Young shapes must give a valid complement system
    if quadrant == "se" and isinstance(pair.provenance, Diagram) and classify_shape(
        pair.provenance
    ) == ShapeClass.YOUNG:
        recipe = young_se_slice(pair)
        recipe_ok = len(recipe) == n and _recipe_is_complement(pair, h, recipe)
        report["young_recipe_ok"] = recipe_ok
        all_ok = all_ok and recipe_ok
    report["ok"] = all_ok
    return report


def _recipe_is_complement(pair, h, recipe):
    """The explicit translation maps form a complement system in gl, one
    class per box; the trace-zero cut is taken afterwards, so the check runs
    against the gl kernel towers (the center adds one class at (1, 0))."""
    n = pair.n
    steps = tower_steps(pair, h, 1, ambient="gl")
    zero = Subspace.zero(n * n)
    by_class = {}
    for k, m in recipe:
        if ad(pair.e1, m, n):
            return False
        by_class.setdefault(k, []).append(m)
    for k, vecs in by_class.items():
        tgt, img = steps.get(k, (zero, zero))
        span = Subspace(n * n, vecs)
        if span.dim != len(vecs) or span.intersect(img).dim or span + img != tgt:
            return False
    # class multiplicities must exhaust the gl cohomology in this family
    se = {k: d for k, d in h1_table(pair, h).items() if family(*k) == "se"}
    se[(1, 0)] = se.get((1, 0), 0) + 1  # center class
    return {k: len(v) for k, v in by_class.items()} == se


def _corner_frames(pair, h):
    """The pair's data for _corner_containment_ok, one frame per row q of
    bidegrees of gl_n, kept in the pair's record for h (NilPair.graded) and
    shared between callers, who must not mutate it.

    A frame orders the flat indices so that the rectangles L_{<=p,q} of the
    row are nested tails: first the indices outside every one of them (row
    above q), then the rest by descending p.  It holds (q, the order, each
    index's position in it, the bidegree at each position, and {p: the
    (p, q) block of the pair's gl centralizer}).
    """
    g = pair.graded(h)
    return g.derived("corner frames", _corner_frames_of, pair, g.h)


def _corner_frames_of(pair, h):
    n = h.n
    bid = [h.bidegree(i, j) for i in range(n) for j in range(n)]
    z_pair = centralizer_bigraded(pair, h, "gl")
    zero = Subspace.zero(n * n)
    frames = []
    for q in sorted({d[1] for d in bid}):
        order = sorted(range(n * n), key=lambda c: (bid[c][1] <= q, -bid[c][0], c))
        position = {c: k for k, c in enumerate(order)}
        degrees = [bid[c] for c in order]
        targets = {p: z_pair.get((p, q), zero) for (p, qq) in degrees if qq == q}
        frames.append((q, order, position, degrees, targets))
    return frames


def _corner_containment_ok(n, zx, frames):
    """Symbol containment for the staircase filtration of the slice-point
    centralizer: for every rectangle, the leading-corner components of its
    members commute with the pair.

    One row echelon form of Z per row q, in the frame's order: a row whose
    pivot has bidegree (p', q') with q' <= q lies in L_{<=p',q}, and the
    rows with p' <= p span Z cap L_{<=p,q}.  Such a row meets the corner
    (p, q) only if p' = p, so each row is tested on its pivot's corner.
    Any echelon form will do: two of them differ by triangular changes
    among rows of one corner and by rows that miss it, which leave the span
    of each corner's parts alone.

    This is the content the slice theory actually provides; the stronger
    per-bidegree dimension match with the pair centralizer fails already on
    the smallest diagrams, because the perturbed member itself centralises
    the point while mixing bidegrees.
    """
    if zx.dim != n:
        return False
    for q, order, position, degrees, targets in frames:
        rows = row_echelon({position[c]: x for c, x in v.items()} for v in zx.basis)
        for pivot, row in rows.items():
            p, q_pivot = degrees[pivot]
            if q_pivot > q:
                continue  # outside every rectangle of the row
            corner = {order[k]: x for k, x in row.items() if degrees[k] == (p, q)}
            if corner and not targets[p].contains(corner):
                return False
    return True
