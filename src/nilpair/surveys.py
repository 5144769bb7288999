"""Batch verification suites over families of diagrams.

Each suite returns a JSON-able report with an overall "ok" flag and one
record per check; mathematical failures are carried as first-class findings
with their full counterexample payloads.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from . import cohomology as co
from . import harmonics as ha
from . import characters as ch
from . import rectangular as re_
from .diagrams import Diagram, ShapeClass, enumerate_diagrams, partitions
from .linalg import Subspace, kernel_in, relations
from .modules import (
    MAX_TENSOR_DEGREE,
    WeightModule,
    module_limit_check,
    multiplicity_crosscheck,
)
from .multiplicity import classical_partition_count, root_data
from .pairs import (
    _classify,
    abelian_check,
    ad_each,
    bigraded_pieces,
    biexponents,
    build_pair,
    centralizer,
    centralizer_bigraded,
    classify_pair,
    is_nilpotent_family,
    member_kernels,
    monomial_basis_check,
    shift_basis_check,
    weak_lefschetz_report,
)


MAX_N_ENV = "NILPAIR_MAX_N"


def size_cap(default=10):
    cap = os.environ.get(MAX_N_ENV)
    return int(cap) if cap else default


@dataclass
class RunConfig:
    """Knobs shared by the survey commands."""

    max_boxes: int = 6
    output_format: str = "table"
    jobs: int = 1
    out_path: str | None = None
    size_limit: int = field(default_factory=size_cap)

    def check_bounds(self):
        if self.max_boxes < 1 or self.max_boxes > self.size_limit:
            raise ResourceLimit(
                f"box bound {self.max_boxes} outside 1..{self.size_limit}"
            )


class ResourceLimit(ValueError):
    pass


class UsageError(ValueError):
    pass


def _young_diagrams(max_boxes):
    out = []
    for n in range(1, max_boxes + 1):
        out.extend(enumerate_diagrams(n, ShapeClass.YOUNG))
    return out


# ---------------------------------------------------------------------------
# structure


def structure_checks(d):
    pair, h = build_pair(d)
    n = pair.n
    z_sl = centralizer(pair, "sl", h=h)
    blocks = centralizer_bigraded(pair, h, "sl")
    quad_ok = all(p >= 0 and q >= 0 and (p, q) != (0, 0) for (p, q) in blocks)
    exps = biexponents(pair, h) if n > 1 else ()
    expected_exps = tuple(sorted(b for b in d.boxes if b != (0, 0)))
    lef = weak_lefschetz_report(pair, h)
    pmax = max(p for p, _ in d.boxes)
    qmax = max(q for _, q in d.boxes)
    shift_ok = True
    for p in range(pmax + 2):
        for q in range(qmax + 2):
            ok, _ = shift_basis_check(pair, p, q)
            shift_ok = shift_ok and ok
    pieces = bigraded_pieces(h, "sl")
    pairing_ok = True
    for (p, q), sp in pieces.items():
        other = pieces.get((-p, -q))
        if other is None or other.dim != sp.dim:
            pairing_ok = False
            continue
        # tr(UV) = sum_ab U_ab V_ba on the sparse rows; the square Gram
        # matrix is nondegenerate when its rows have no relation
        gram = [
            [
                sum(x * v.get(k % n * n + k // n, 0) for k, x in u.items())
                for v in other.basis
            ]
            for u in sp.basis
        ]
        pairing_ok = pairing_ok and not relations(gram).dim
    ddbar_ok = _ddbar_identity(pair, h)
    surj_ok = _centralizer_tower_surjectivity(pair, h)
    checks = {
        "diagram": d.serialize(),
        "commutes": True,  # enforced during construction
        "centralizer_dim_ok": z_sl.dim == n - 1,
        "positive_quadrant": quad_ok,
        "abelian": abelian_check(z_sl, n),
        "nilpotent": is_nilpotent_family(z_sl, n),
        "biexponents_match_boxes": exps == expected_exps,
        "monomial_basis": monomial_basis_check(pair),
        "weak_lefschetz": all(r["ok"] for r in lef),
        "shift_basis_all_bidegrees": shift_ok,
        "trace_pairing": pairing_ok,
        "ddbar_identity": ddbar_ok,
        "tower_surjectivity": surj_ok,
        "classified_principal": classify_pair(pair, h) == "principal",
    }
    checks["ok"] = all(bool(v) for k, v in checks.items() if k != "diagram")
    return checks


def _ddbar_identity(pair, h):
    """ker(ad e1 ad e2) = ker(ad e1) + ker(ad e2) per non-negative bidegree."""
    n = pair.n
    pieces = bigraded_pieces(h, "sl")
    k1, k2 = (member_kernels(pair, h, member, "sl") for member in (1, 2))
    zero = Subspace.zero(n * n)
    for (p, q), piece in pieces.items():
        if p < 0 or q < 0:
            continue
        # build_pair checked the grading, so the images lie in the piece
        # (p + 1, q + 1) and are taken as they are, like the member kernels
        images = ad_each(pair.e1, ad_each(pair.e2, piece.basis, n), n)
        kern = kernel_in(piece, images)
        rhs = k1.get((p, q), zero) + k2.get((p, q), zero)
        if kern != rhs:
            return False
    return True


def _centralizer_tower_surjectivity(pair, h):
    """[e1, .] onto the next kernel block of e2 and the mirror, for
    non-negative source bidegrees (class bidegrees p, q >= 1)."""
    for member in (1, 2):
        for (p, q), (tgt, img) in co.tower_steps(pair, h, member).items():
            if p >= 1 and q >= 1 and img.dim != tgt.dim:
                return False
    return True


def structure_suite(max_boxes, jobs=1):
    rows = _map_diagrams(structure_checks, _young_diagrams(max_boxes), jobs)
    return _suite_report("structure", rows)


# ---------------------------------------------------------------------------
# skew


def skew_checks(d):
    pair, h = build_pair(d)
    # the classifier hands back the centralizer it read and, when its rule
    # tested it, the nilpotency verdict, so no row runs that test twice
    cls, z, nilpotent = _classify(pair, h)
    if nilpotent is None:
        nilpotent = is_nilpotent_family(z, pair.n)
    checks = {
        "diagram": d.serialize(),
        "classified_distinguished": cls == "distinguished",
        "centralizer_exceeds_rank": z.dim > pair.n - 1,
        "centralizer_nilpotent": nilpotent,
    }
    checks["ok"] = all(bool(v) for k, v in checks.items() if k != "diagram")
    return checks


def skew_suite(max_boxes, jobs=1):
    if max_boxes > 7:
        raise ResourceLimit(f"skew bound {max_boxes} over the limit 7")
    shapes = []
    for n in range(2, max_boxes + 1):
        shapes.extend(enumerate_diagrams(n, ShapeClass.SKEW))
    rows = _map_diagrams(skew_checks, shapes, jobs)
    return _suite_report("skew", rows)


# ---------------------------------------------------------------------------
# cohomology


def cohomology_checks(d):
    pair, h = build_pair(d)
    n = pair.n
    dims = co.h1_dims(pair, h)
    euler = co.euler_identity_check(pair, h)
    coker_ok, _ = co.coker_formula_check(pair, h)
    dual_ok, _ = co.duality_check(pair, h)
    exp_ok, _ = co.exponent_sums_check(pair, h)
    nw = co.higher_biexponents(pair, h)
    se = co.se_biexponents(pair, h)
    se_dual = tuple(sorted((1 - p, 1 - q) for (p, q) in nw))
    slice_se = co.slice_report(pair, h, "se")
    slice_nw = co.slice_report(pair, h, "nw")
    slice_se_rev = co.slice_report(pair, h, "se", reverse=True)
    slice_nw_rev = co.slice_report(pair, h, "nw", reverse=True)
    complement_invariant = _slice_stats(slice_se) == _slice_stats(
        slice_se_rev
    ) and _slice_stats(slice_nw) == _slice_stats(slice_nw_rev)
    checks = {
        "diagram": d.serialize(),
        "h1_dims": [[p, q, v] for (p, q), v in sorted(dims.items())],
        "total_is_twice_rank": sum(dims.values()) == 2 * (n - 1),
        "support_families": co.support_ok(dims),
        "family_totals": list(co.quadrant_totals(dims)),
        "families_carry_rank": co.quadrant_totals(dims) == (n - 1, n - 1),
        "coker_formulas": coker_ok,
        "duality": dual_ok,
        "euler_identity": euler,
        "exponent_sums": exp_ok,
        "product_identity": co.product_identity_check(pair, h),
        "product_identity_nw": co.product_identity_nw_check(pair, h),
        "higher_biexponent_count": len(nw) == n - 1,
        "se_duality": tuple(sorted(se)) == se_dual,
        "slice_se": slice_se["ok"],
        "slice_nw": slice_nw["ok"],
        "slice_complement_choice_invariant": complement_invariant,
    }
    checks["ok"] = all(
        bool(v)
        for k, v in checks.items()
        if k not in ("diagram", "h1_dims", "family_totals")
    )
    return checks


def _slice_stats(rep):
    return (
        rep["count"],
        tuple(
            (tuple(s["members"]), s["commutes"], s["centralizer_dim"], s["ok"])
            for s in rep["samples"]
        ),
    )


def cohomology_suite(max_boxes, jobs=1):
    rows = _map_diagrams(cohomology_checks, _young_diagrams(max_boxes), jobs)
    return _suite_report("cohomology", rows)


# ---------------------------------------------------------------------------
# multiplicity


def admissible_highest_weights(n, max_size):
    out = []
    for size in range(n, max_size + 1, n):
        for lam in partitions(size):
            if len(lam) <= n:
                out.append(lam)
    return out


def multiplicity_checks_for(spec, lam, alt=False):
    from .diagrams import parse

    if sum(lam) > MAX_TENSOR_DEGREE:
        raise ResourceLimit(
            f"tensor degree {sum(lam)} over the bound {MAX_TENSOR_DEGREE}"
        )
    d = parse(spec)
    pair, h = build_pair(d)
    rep = multiplicity_crosscheck(pair, h, lam, alt=alt)
    rd = root_data(h, alt=alt)
    findings = []
    classical_ok = all(row["formula_counts_weight_space"] for row in rep["weights"])
    direct_dominant_ok = True
    for row in rep["weights"]:
        if row["dominant"] and not row["equal"]:
            findings.append(row)
        if row["dominant"] and rep["highest_weight_in_ne_cone"]:
            direct_dominant_ok = direct_dominant_ok and row[
                "direct_counts_weight_space"
            ]
    # independent classical oracle on the most multiplicity-rich weight
    rich = max(rep["weights"], key=lambda r: r["dim"])
    kostant_ok = _classical_kostant_value(
        rd, rep["lambda_dominant"], rich["mu"]
    ) == rich["dim"]
    return {
        "diagram": spec,
        "lambda": list(lam),
        "in_ne_cone": rep["highest_weight_in_ne_cone"],
        "equal_at_dominant": rep["equal"],
        "equal_everywhere": rep["equal_everywhere"],
        "classical_specialization": classical_ok,
        "classical_oracle": kostant_ok,
        "direct_counts_dominant_weights": direct_dominant_ok,
        "dominant_findings": findings,
        "dim": rep["dim"],
        "positive_system": rep["positive_system"],
    }


def _classical_kostant_value(rd, lam_dom, mu):
    """Alternating sum of classical partition counts, fully independent of
    the series machinery."""
    from itertools import permutations

    from .multiplicity import _perm_sign, height

    n = rd.n
    lam2 = [2 * x + r for x, r in zip(lam_dom, rd.rho2)]
    total = 0
    for perm in permutations(range(n)):
        w2 = [lam2[perm[i]] for i in range(n)]
        arg2 = [a - 2 * m - r for a, m, r in zip(w2, mu, rd.rho2)]
        arg = tuple(x // 2 for x in arg2)
        if height(rd, arg) is None:
            continue
        total += _perm_sign(perm) * classical_partition_count(rd, arg)
    return total


def judge_multiplicity(rep):
    """Attach the regime and the pass flag to a ``multiplicity_checks_for``
    row, by the one rule the suite and the single-diagram command share.

    A single row or column gives a degenerate pair (one operator is zero):
    the one-variable regime, where the filtration theorem is proven, so the
    routes must agree at every dominant weight.  Other pairs are the
    proposed regime: a dominant-weight discrepancy fails the row only when
    the highest weight lies in the quadrant cone (``in_scope``).  Both
    regimes need the classical specialisation and the classical oracle.
    """
    from .diagrams import parse

    boxes = parse(rep["diagram"]).boxes
    degenerate = len({p for p, _ in boxes}) == 1 or len({q for _, q in boxes}) == 1
    classical = rep["classical_specialization"] and rep["classical_oracle"]
    if degenerate:
        rep["regime"] = "proven"
        rep["ok"] = (
            classical
            and rep["equal_at_dominant"]
            and rep["direct_counts_dominant_weights"]
        )
    else:
        rep["regime"] = "proposed"
        rep["in_scope"] = rep["in_ne_cone"]
        rep["ok"] = classical and (rep["equal_at_dominant"] or not rep["in_scope"])
    return rep


def multiplicity_suite(max_size=6, jobs=1):
    """Degenerate pairs are the proven regime and must agree everywhere
    dominant; the two-variable pairs are compared and any dominant-weight
    discrepancy for a quadrant-cone highest weight is reported as a finding
    (the suite then fails with the payload attached)."""
    cases = [("2", lam) for lam in admissible_highest_weights(2, max_size)]
    cases += [("3", lam) for lam in admissible_highest_weights(3, max_size)]
    cases += [("2,1", lam) for lam in admissible_highest_weights(3, max_size)]
    cases += [("2,2", lam) for lam in admissible_highest_weights(4, max_size)]
    rows = _map_diagrams(_multiplicity_case, cases, jobs)
    report = _suite_report("multiplicity", rows)
    report["findings"] = [
        {
            "diagram": r["diagram"],
            "lambda": r["lambda"],
            "in_ne_cone": r["in_ne_cone"],
            "rows": r["dominant_findings"],
        }
        for r in rows
        if r["dominant_findings"]
    ]
    return report


def _multiplicity_case(case):
    spec, lam = case
    return judge_multiplicity(multiplicity_checks_for(spec, lam))


def strictness_witness():
    """The symmetric-cube module of the three-box hook: the limit of the zero
    weight space is strictly smaller than the invariants of the pair
    centralizer."""
    from .diagrams import parse

    pair, h = build_pair(parse("2,1"))
    module = WeightModule(3, (3,))
    rep = module_limit_check(pair, h, module, (1, 1, 1))
    rep["witness"] = rep["zero_weight_dims"][0] < rep["zero_weight_dims"][1]
    return rep


# ---------------------------------------------------------------------------
# harmonics


def harmonics_checks(d):
    _, h = build_pair(d)
    n = d.n
    delta = ha.pair_alternant(d)
    d1, d2 = ha.exponent_sums(d)
    rd = root_data(h)
    pi1, pi2 = ha.coroot_product_polys(h)
    e1span = ha.u_side_span(pi1, n)
    e2span = ha.u_side_span(pi2, n)
    chi1 = ha.side_character(e1span, n, "u")
    chi2 = ha.side_character(e2span, n, "u")
    parts = partitions(n)
    skew = ha.is_diagonally_skew(delta, n)
    # the Gram route to the two-sided span holds for a diagonally
    # alternating delta only; otherwise the row fails on `diagonally_skew`.
    # delta has 2n variables and `skew` is wxw_span's guard, run once here
    span = ha._gram_span(delta, n) if skew else None
    factor_ok = span is not None and all(
        span.trace(mu, nu) == chi1[mu] * chi2[nu] for mu in parts for nu in parts
    )
    sign = ch.sign_character(n)
    scan = ha.vanishing_scan(d, delta)
    checks = {
        "diagram": d.serialize(),
        "nonzero": bool(delta),
        "diagonally_skew": skew,
        "bidegree_matches_roots": (d1, d2) == (len(rd.axis1), len(rd.axis2)),
        "harmonic": ha.harmonicity(delta, n),
        "span_dim_factorizes": span is not None
        and span.dim == e1span.dim * e2span.dim,
        "span_character_factorizes": factor_ok,
        "second_is_first_times_sign": all(
            chi2[mu] == chi1[mu] * sign[mu] for mu in parts
        ),
        "vanishing_scan": scan["ok"],
    }
    checks["ok"] = all(bool(v) for k, v in checks.items() if k != "diagram")
    return checks


def harmonics_suite(max_boxes=5, common_bound=8, jobs=1):
    if max_boxes > 6:
        raise ResourceLimit(f"harmonics bound {max_boxes} over the limit 6")
    rows = _map_diagrams(harmonics_checks, _young_diagrams(max_boxes), jobs)
    for d in _young_diagrams(common_bound):
        rep = ch.common_constituent_report(d)
        rows.append(
            {
                "diagram": d.serialize(),
                "common_constituent_unique": rep["unique_multiplicity_one"],
                "ok": rep["unique_multiplicity_one"],
            }
        )
    return _suite_report("harmonics", rows)


# ---------------------------------------------------------------------------
# rectangular


RECT_CROSS_CHECK_BOUND = 12  # box bound of the rectangles checked against diagram pairs


def rect_suite(dim_bound=20, so_sizes=(1, 2, 3), algebras=("sl", "sp", "so")):
    rows = []
    ok = True
    for alg in algebras:
        rep = re_.survey_embeddings(alg, dim_bound)
        if not rep["rows"]:
            raise UsageError(
                f"the rectangular suite has no cases at this bound: no {alg} "
                f"embedding of dimension at most {dim_bound}"
            )
        ok = ok and rep["agree"]
        rows.append(
            {
                "check": f"classification_{alg}",
                "agree": rep["agree"],
                "accepted": sum(1 for r in rep["rows"] if r["is_pn_pair"]),
                "ok": rep["agree"],
            }
        )
    # bi-exponents of rectangles against the diagram pairs
    for a in range(1, RECT_CROSS_CHECK_BOUND + 1):
        for b in range(1, a + 1):
            if "sl" not in algebras or a * b > RECT_CROSS_CHECK_BOUND or a * b < 2:
                continue
            accepted, exps = re_.is_regular_embedding(
                re_.EmbeddingSpec("sl", ((a, b),))
            )
            d = Diagram([(p, q) for q in range(b) for p in range(a)])
            pair, h = build_pair(d)
            exps2 = biexponents(pair, h)
            boxes = tuple(sorted(x for x in d.boxes if x != (0, 0)))
            row_ok = accepted and exps == exps2 == boxes
            ok = ok and row_ok
            rows.append(
                {
                    "check": f"rectangle_{a}x{b}",
                    "embedding": None if exps is None else [list(e) for e in exps],
                    "diagram": [list(e) for e in exps2],
                    "ok": row_ok,
                }
            )
    for n in so_sizes if "so" in algebras else ():
        rep = re_.even_orthogonal_pair_report(n)
        ok = ok and rep["ok"]
        rows.append(
            {"check": f"even_orthogonal_{4 * n + 2}", "ok": rep["ok"], "detail": {
                k: v for k, v in rep.items() if not k.startswith("candidate")
            }}
        )
    return {"suite": "rectangular", "rows": rows, "ok": ok}


# ---------------------------------------------------------------------------
# shared plumbing


def _check_one(args):
    func, d = args
    return func(d)


def _map_diagrams(func, diagrams, jobs):
    if jobs and jobs > 1:
        import multiprocessing as mp

        with mp.Pool(jobs) as pool:
            rows = pool.map(_check_one, [(func, d) for d in diagrams])
    else:
        rows = [func(d) for d in diagrams]
    rows.sort(key=lambda r: (len(r.get("diagram", "")), r.get("diagram", "")))
    return rows


def _suite_report(name, rows):
    if not rows:
        raise UsageError(f"the {name} suite has no cases at this bound")
    return {"suite": name, "rows": rows, "ok": all(r["ok"] for r in rows)}
