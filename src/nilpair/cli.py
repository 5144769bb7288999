"""Command-line surface: build and inspect single pairs, run verification
suites, and survey the sl2-embedding classification.

Exit codes: 0 all checks pass, 1 a mathematical check failed (the payload
carries the counterexample), 2 usage or parse error, 3 resource bound.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import surveys
from .diagrams import ParseError, ResourceError, ShapeClass, ShapeError
from .diagrams import classify_shape, parse
from .linalg import Subspace
from .modules import PairAction, limit_space
from .pairs import (
    ClassificationError,
    biexponents,
    build_pair,
    centralizer,
    centralizer_bigraded,
    classify_pair,
    weak_lefschetz_report,
)
from .surveys import ResourceLimit, UsageError


def canonical_json(payload):
    return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"


def _emit(payload, args):
    if args.format == "json":
        text = canonical_json(payload)
    else:
        text = _as_table(payload)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _as_table(payload, indent=0):
    lines = []

    def walk(obj, depth):
        pad = "  " * depth
        if isinstance(obj, dict):
            for k in sorted(obj):
                v = obj[k]
                if isinstance(v, (dict, list)) and v and not _is_flat(v):
                    lines.append(f"{pad}{k}:")
                    walk(v, depth + 1)
                else:
                    lines.append(f"{pad}{k}: {_flat(v)}")
        elif isinstance(obj, list):
            for item in obj:
                if isinstance(item, (dict, list)) and item and not _is_flat(item):
                    lines.append(f"{pad}-")
                    walk(item, depth + 1)
                else:
                    lines.append(f"{pad}- {_flat(item)}")
        else:
            lines.append(f"{pad}{_flat(obj)}")

    walk(payload, indent)
    return "\n".join(lines) + "\n"


def _is_flat(v):
    if isinstance(v, list):
        return all(not isinstance(x, (dict, list)) for x in v)
    return False


def _flat(v):
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, list):
        return "[" + ", ".join(str(x) for x in v) + "]"
    return str(v)


def build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--format", choices=("table", "json"), default="table")
    shared.add_argument("--out", default=None)
    shared.add_argument("--jobs", type=int, default=1)
    top = argparse.ArgumentParser(prog="nilpair")
    sub = top.add_subparsers(dest="command", required=True)

    p_pair = sub.add_parser(
        "pair", help="inspect the pair of one diagram", parents=[shared]
    )
    p_pair.add_argument(
        "action",
        choices=("build", "centralizer", "biexponents", "classify", "lefschetz", "limits"),
    )
    p_pair.add_argument("--diagram", required=True)

    p_ver = sub.add_parser("verify", help="run a verification suite", parents=[shared])
    p_ver.add_argument(
        "suite",
        choices=("structure", "skew", "cohomology", "multiplicity", "harmonics"),
    )
    p_ver.add_argument("--diagram", default=None)
    p_ver.add_argument("--all", type=int, default=None, metavar="N")
    p_ver.add_argument("--lambda", dest="highest_weight", default=None)
    p_ver.add_argument("--alt-positive-system", action="store_true")

    p_rect = sub.add_parser(
        "rect", help="survey the sl2-embedding classification", parents=[shared]
    )
    p_rect.add_argument("algebra", choices=("sl", "sp", "so"))
    p_rect.add_argument("bound", type=int)
    return top


def cmd_pair(args):
    pair, h = build_pair(parse(args.diagram))
    if args.action == "build":
        payload = pair.to_jsonable()
        payload.update(h.to_jsonable())
        return payload, True
    if args.action == "centralizer":
        blocks = centralizer_bigraded(pair, h, "sl")
        return {
            "dim_sl": centralizer(pair, "sl", h=h).dim,
            "dim_gl": centralizer(pair, "gl", h=h).dim,
            "bidegrees": [[p, q, sp.dim] for (p, q), sp in sorted(blocks.items())],
        }, True
    if args.action == "biexponents":
        return {"biexponents": [list(e) for e in biexponents(pair, h)]}, True
    if args.action == "classify":
        return {"class": classify_pair(pair, h)}, True
    if args.action == "lefschetz":
        rows = weak_lefschetz_report(pair, h)
        return {"rows": rows, "ok": all(r["ok"] for r in rows)}, all(
            r["ok"] for r in rows
        )
    if args.action == "limits":
        n = pair.n
        cartan = [{i * (n + 1): 1} for i in range(n)]
        lim = limit_space(PairAction.adjoint(pair), Subspace(n * n, cartan))
        zgl = centralizer(pair, "gl", h=h)
        return {
            "limit_of_diagonals_dim": lim.dim,
            "equals_centralizer": lim == zgl,
        }, lim == zgl
    raise AssertionError


def cmd_verify(args):
    if (args.diagram is None) == (args.all is None):
        raise UsageError("give exactly one of --diagram or --all N")
    single_multiplicity = args.suite == "multiplicity" and args.diagram is not None
    for flag, given in (
        ("--lambda", args.highest_weight is not None),
        ("--alt-positive-system", args.alt_positive_system),
    ):
        if given and not single_multiplicity:
            raise UsageError(f"{flag} applies only to verify multiplicity --diagram")
    if args.diagram is not None:
        if args.suite == "multiplicity":
            if args.highest_weight is None:
                raise UsageError("--lambda is required with --diagram")
            lam = _highest_weight(args.highest_weight, parse(args.diagram).n)
            rep = surveys.judge_multiplicity(
                surveys.multiplicity_checks_for(
                    args.diagram, lam, alt=args.alt_positive_system
                )
            )
            return rep, rep["ok"]
        check, domain = {
            "structure": (surveys.structure_checks, ShapeClass.YOUNG),
            "skew": (surveys.skew_checks, ShapeClass.SKEW),
            "cohomology": (surveys.cohomology_checks, ShapeClass.YOUNG),
            "harmonics": (surveys.harmonics_checks, ShapeClass.YOUNG),
        }[args.suite]
        d = parse(args.diagram)
        shape = classify_shape(d)
        if shape != domain:
            raise UsageError(
                f"the {args.suite} checks cover {domain.value} shapes, "
                f"not {shape.value}"
            )
        rep = check(d)
        return rep, rep["ok"]
    bound = args.all
    surveys.check_box_bound(bound)
    if args.suite == "multiplicity":
        rep = surveys.multiplicity_suite(bound, jobs=args.jobs)
    elif args.suite == "structure":
        rep = surveys.structure_suite(bound, jobs=args.jobs)
    elif args.suite == "skew":
        rep = surveys.skew_suite(bound, jobs=args.jobs)
    elif args.suite == "cohomology":
        rep = surveys.cohomology_suite(bound, jobs=args.jobs)
    else:
        rep = surveys.harmonics_suite(
            bound, common_bound=8 if bound >= 5 else bound, jobs=args.jobs
        )
    return rep, rep["ok"]


def _highest_weight(text, n):
    """The --lambda weight: a partition with at most n parts."""
    try:
        lam = tuple(int(x) for x in text.split(","))
    except ValueError:
        raise UsageError(f"--lambda {text!r} is not a list of integers") from None
    if lam[-1] < 0 or any(a < b for a, b in zip(lam, lam[1:])):
        raise UsageError(f"--lambda {text} is not a partition")
    if len(lam) > n:
        raise UsageError(f"--lambda {text} has more than {n} parts")
    return lam


def cmd_rect(args):
    if args.bound < 1:
        raise ResourceLimit(f"dimension bound {args.bound} below 1")
    if args.bound > 24:
        raise ResourceLimit(f"dimension bound {args.bound} over the limit 24")
    rep = surveys.rect_suite(dim_bound=args.bound, algebras=(args.algebra,))
    return rep, rep["ok"]


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code else 0
    try:
        if args.jobs < 1:
            raise UsageError(f"--jobs {args.jobs} is below 1")
        if args.command == "pair":
            payload, ok = cmd_pair(args)
        elif args.command == "verify":
            payload, ok = cmd_verify(args)
        else:
            payload, ok = cmd_rect(args)
    except (ParseError, ShapeError, ClassificationError, UsageError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except (ResourceError, ResourceLimit) as exc:
        sys.stderr.write(f"resource bound: {exc}\n")
        return 3
    _emit(payload, args)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
