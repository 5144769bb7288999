"""Workloads of the nilpair benchmark: the input pools and the seeded draw.

A pool item is one call of a public per-check function, named by an id such
as ``cohomology:(0,0);(1,0)``.  Items are grouped into strata; a workload is
an ordered plan of (stratum, how many to draw), where ``None`` takes the
whole stratum.  The draw depends only on the seed and the plan, so every seed
does comparable work and the same seed always gives the same inputs.

The pools and their reference rows live in ``reference.json`` (written by
``run.py --make-reference``); ``pool_items`` below needs ``nilpair`` and is
only used to build that file.
"""

from __future__ import annotations

import random

WORKLOADS = {
    "cohomology-young": {
        "why": "Exact elimination on stacked ad matrices up to 128x64: "
        "cohomology checks on every Young shape up to 4 boxes, seeded draws "
        "of 5- to 7-box shapes, and the 8-box shape (3,3,2).",
        "plan": [(f"cohomology/young-{n}", None) for n in range(1, 5)]
        + [
            ("cohomology/young-5", 3),
            ("cohomology/young-6", 2),
            ("cohomology/young-7", 1),
            ("cohomology/young-8/anchor", None),
        ],
    },
    "multiplicity-modules": {
        "why": "Dense module-size matrix products in the bifiltration "
        "multiplicity: the frozen 2,2/(2,2) finding (proposed regime) and "
        "the proven 3/(4,2) case with a seeded positive system.",
        "plan": [("multiplicity/frozen", None), ("multiplicity/proven-27", 1)],
    },
    "structure-skew": {
        "why": "Many small eliminations with cache reuse per diagram: "
        "structure checks on Young shapes up to 7 boxes and skew checks on "
        "skew shapes up to 7 boxes, seeded draws from 7 and from skew.",
        "plan": [(f"structure/young-{n}", None) for n in range(1, 7)]
        + [("structure/young-7/anchor", None), ("structure/young-7", 4)]
        + [("skew/skew-4", 1), ("skew/skew-5", 2), ("skew/skew-6", 7), ("skew/skew-7", 20)],
    },
    "harmonics-rect": {
        "why": "The only workload for polys, harmonics, characters and "
        "rectangular: harmonics up to 4 boxes and on (4,1) or its conjugate, "
        "constituents up to 8 boxes, rect suite, strictness.",
        "plan": [(f"harmonics/young-{n}", None) for n in range(1, 5)]
        + [("harmonics/young-5/pair", 1)]
        + [(f"constituents/young-{n}", None) for n in range(1, 9)]
        + [("rect/suite", None), ("strictness/witness", None)],
    },
}


def draw(workload, seed, strata):
    """Item ids of one workload for one seed, in plan order.

    ``strata`` maps a stratum name to its item ids in pool order.  Within a
    stratum the drawn ids keep pool order, so the checks run in the order
    the suites use.
    """
    rng = random.Random(f"{workload}:{seed}")
    ids = []
    for stratum, take in WORKLOADS[workload]["plan"]:
        pool = strata[stratum]
        if take is None:
            ids.extend(pool)
            continue
        picked = sorted(rng.sample(range(len(pool)), take))
        ids.extend(pool[i] for i in picked)
    return ids


def pool_items():
    """Every pool item as (stratum, id, kind, args).  Imports nilpair."""
    from nilpair.diagrams import ShapeClass, enumerate_diagrams, parse

    def young(n):
        return enumerate_diagrams(n, ShapeClass.YOUNG)

    out = []

    def add(stratum, kind, *args):
        key = ":".join([kind] + [_arg_text(a) for a in args])
        out.append((stratum, key, kind, list(args)))

    for n in range(1, 8):
        for d in young(n):
            add(f"cohomology/young-{n}", "cohomology", d.serialize())
    # the costliest 8-box check; a fixed tail keeps slowest_check_s the same
    # check for every seed
    add("cohomology/young-8/anchor", "cohomology", parse("3,3,2").serialize())
    anchor = parse("7")  # the costliest 7-box structure check
    add("structure/young-7/anchor", "structure", anchor.serialize())
    for n in range(1, 8):
        for d in young(n):
            if d != anchor:
                add(f"structure/young-{n}", "structure", d.serialize())
    for n in range(4, 8):
        for d in enumerate_diagrams(n, ShapeClass.SKEW):
            add(f"skew/skew-{n}", "skew", d.serialize())

    # the frozen finding: two-variable pair, module dimension 20; the
    # degenerate pair "3" is the proven regime, module dimension 27
    add("multiplicity/frozen", "multiplicity", "2,2", [2, 2], False)
    for alt in (False, True):
        add("multiplicity/proven-27", "multiplicity", "3", [4, 2], alt)

    for n in range(1, 5):
        for d in young(n):
            add(f"harmonics/young-{n}", "harmonics", d.serialize())
    # a conjugate pair of 5-box shapes, which cost about the same; other
    # 5-box shapes cost up to twice as much and would make the work depend
    # on the seed
    for spec in ("4,1", "2,1,1,1"):
        add("harmonics/young-5/pair", "harmonics", parse(spec).serialize())
    for n in range(1, 9):
        for d in young(n):
            add(f"constituents/young-{n}", "constituents", d.serialize())
    add("rect/suite", "rect")
    add("strictness/witness", "strictness")
    return out


def _arg_text(a):
    if isinstance(a, bool):
        return "alt" if a else "std"
    if isinstance(a, list):
        return "[" + ",".join(str(x) for x in a) + "]"
    return str(a)
