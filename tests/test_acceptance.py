"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line.  Everything is exact rational arithmetic, so every tolerance is
equality.

The multiplicity criterion follows the suite's finding contract: the
degenerate one-variable regime must agree outright; for the two-variable
pairs any dominant-weight discrepancy under the quadrant-cone hypothesis is
a first-class finding that the command line reports with exit code 1 and a
full counterexample payload.  The one observed finding is frozen below so a
silent change in behaviour fails the suite in either direction.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from nilpair import surveys
from nilpair.cli import canonical_json
from nilpair.diagrams import ShapeClass, enumerate_diagrams

# canonical reports of the structure, skew, cohomology, harmonics and
# rectangular suites at their acceptance bounds; a change that alters a
# single byte of one fails here
DATA = Path(__file__).parent / "data"


def _matches_golden(rep, name):
    return canonical_json(rep).encode() == (DATA / name).read_bytes()


def _report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'} {name} {detail}".rstrip())
    return ok


def test_criterion_1_structure():
    rep = surveys.structure_suite(8)
    assert len(rep["rows"]) == 66  # all Young shapes with up to eight boxes
    keys = (
        "centralizer_dim_ok",
        "positive_quadrant",
        "abelian",
        "nilpotent",
        "biexponents_match_boxes",
        "monomial_basis",
        "weak_lefschetz",
        "shift_basis_all_bidegrees",
    )
    ok = all(all(r[k] for k in keys) for r in rep["rows"]) and rep["ok"]
    assert _report("criterion-1 structure-suite (66 diagrams, <=8 boxes)", ok)
    assert _matches_golden(rep, "structure_suite_8.json")


def test_criterion_2_skew():
    rep = surveys.skew_suite(7)
    assert rep["rows"], "no strict skew shapes enumerated"
    ok = rep["ok"]
    assert _report(
        f"criterion-2 skew-suite ({len(rep['rows'])} strict skew shapes, <=7 boxes)",
        ok,
    )
    assert _matches_golden(rep, "skew_suite_7.json")


def test_criterion_3_cohomology():
    rep = surveys.cohomology_suite(8)
    keys = (
        "total_is_twice_rank",
        "support_families",
        "coker_formulas",
        "euler_identity",
        "exponent_sums",
        "product_identity",
        "product_identity_nw",
        "slice_se",
        "slice_nw",
    )
    ok = all(all(r[k] for k in keys) for r in rep["rows"]) and rep["ok"]
    assert _report("criterion-3 cohomology-suite (<=8 boxes)", ok)
    assert _matches_golden(rep, "cohomology_suite_8.json")


def test_criterion_4_multiplicity():
    rep = surveys.multiplicity_suite(6)
    proven = [r for r in rep["rows"] if r["regime"] == "proven"]
    proposed = [r for r in rep["rows"] if r["regime"] == "proposed"]
    # (a) degenerate pairs: hard equality
    ok_a = all(r["ok"] for r in proven)
    _report("criterion-4a degenerate-regime equality", ok_a)
    # (c) the alternating formula specialises to the classical multiplicity
    ok_c = all(
        r["classical_specialization"] and r["classical_oracle"] for r in rep["rows"]
    )
    _report("criterion-4c classical specialization", ok_c)
    # (b) two-variable pairs: equality or a fully reported counterexample
    in_scope = [r for r in proposed if r["in_scope"]]
    contract_ok = True
    for r in in_scope:
        if not r["equal_at_dominant"]:
            reported = any(
                f["diagram"] == r["diagram"] and f["lambda"] == r["lambda"]
                for f in rep["findings"]
            )
            contract_ok = contract_ok and reported
    _report("criterion-4b crosscheck-or-finding contract", contract_ok)
    # freeze the single known finding so behaviour drift is caught
    scope_findings = [
        (f["diagram"], tuple(f["lambda"])) for f in rep["findings"] if f["in_ne_cone"]
    ]
    frozen = scope_findings == [("2,2", (2, 2))]
    if frozen:
        f = next(f for f in rep["findings"] if f["in_ne_cone"])
        row = f["rows"][0]
        frozen = (
            row["mu"] == [1, 1, 1, 1]
            and row["P_direct"] == [[0, 2, 1], [2, 0, 1]]
            and row["P_formula"]
            == [[0, 0, 1], [0, 1, -1], [0, 2, 1], [1, 0, -1], [1, 1, 1], [2, 0, 1]]
        )
    _report(
        "criterion-4 known finding frozen (square diagram, square weight, zero weight)",
        frozen,
    )
    assert ok_a and ok_c and contract_ok and frozen


def test_criterion_5_harmonics():
    rep = surveys.harmonics_suite(5, common_bound=8)
    ok = rep["ok"]
    assert _report("criterion-5 harmonics-suite (n<=5, constituents <=8)", ok)
    assert _matches_golden(rep, "harmonics_suite_5.json")


def test_criterion_6_rectangular():
    rep = surveys.rect_suite(dim_bound=20)
    ok = rep["ok"]
    cls = [r for r in rep["rows"] if r["check"].startswith("classification_")]
    rect = [r for r in rep["rows"] if r["check"].startswith("rectangle_")]
    ortho = [r for r in rep["rows"] if r["check"].startswith("even_orthogonal_")]
    assert len(cls) == 3 and rect and len(ortho) == 3
    for r in ortho:
        assert r["detail"]["centralizer_dim"] == r["detail"]["rank"]
        assert r["detail"]["basis_spans"]
    assert _report("criterion-6 rectangular-suite (bound 20, orthogonal n=1,2,3)", ok)
    assert _matches_golden(rep, "rect_suite_20.json")


def test_criterion_7_strictness_witness():
    rep = surveys.strictness_witness()
    lim, inv = rep["zero_weight_dims"]
    ok = rep["witness"] and rep["contained"] and (lim, inv) == (1, 4)
    assert _report(
        f"criterion-7 strictness witness (limit dim {lim} < invariants dim {inv})", ok
    )


def test_criterion_8_determinism():
    def run():
        return subprocess.run(
            [
                sys.executable,
                "-m",
                "nilpair",
                "verify",
                "structure",
                "--all",
                "4",
                "--format",
                "json",
            ],
            capture_output=True,
            text=True,
        )

    a, b = run(), run()
    ok = a.returncode == b.returncode == 0 and a.stdout == b.stdout and a.stdout
    json.loads(a.stdout)  # well-formed
    assert _report("criterion-8 byte-identical survey output", bool(ok))
