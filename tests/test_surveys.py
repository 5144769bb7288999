import os
from pathlib import Path

import pytest

from nilpair import surveys
from nilpair.cli import canonical_json
from nilpair.diagrams import parse
from nilpair.multiplicity import root_data

GOLDEN = Path(__file__).parent / "data" / "multiplicity_suite_6.json"


def test_admissible_highest_weights():
    out = surveys.admissible_highest_weights(3, 6)
    assert (2, 1) in out and (3, 3) in out and (2, 2, 2) in out
    assert all(sum(lam) % 3 == 0 for lam in out)
    assert all(len(lam) <= 3 for lam in out)


def test_structure_checks_single():
    rep = surveys.structure_checks(parse("3,2"))
    assert rep["ok"]


def test_skew_checks_single():
    rep = surveys.skew_checks(parse("3,2/1"))
    assert rep["ok"]


@pytest.mark.parametrize("spec", ["4,3,2,1", ",".join(["1"] * 10)])
def test_structure_checks_reach_ten_boxes(spec):
    assert surveys.structure_checks(parse(spec))["ok"]


def test_structure_row_classifies_its_pair_once(monkeypatch):
    # classified_principal and the bi-exponents share one verdict
    from nilpair import pairs
    from nilpair.diagrams import ShapeClass, enumerate_diagrams

    calls = []
    original = pairs._classify

    def counted(pair, h=None):
        calls.append(pair)
        return original(pair, h)

    monkeypatch.setattr(pairs, "_classify", counted)
    rows = 0
    for n in range(2, 6):
        for d in enumerate_diagrams(n, ShapeClass.YOUNG):
            calls.clear()
            assert surveys.structure_checks(d)["ok"]
            assert len(calls) == 1, d.serialize()
            rows += 1
    assert rows == 17


def test_skew_row_closes_its_centralizer_once(monkeypatch):
    # a distinguished row reads centralizer_nilpotent from the classifier's
    # test; a row the classifier calls principal still runs the test itself
    from nilpair import pairs

    calls = []
    original = pairs.is_nilpotent_family

    def counted(space, n):
        calls.append(n)
        return original(space, n)

    monkeypatch.setattr(pairs, "is_nilpotent_family", counted)
    monkeypatch.setattr(surveys, "is_nilpotent_family", counted)
    rep = surveys.skew_checks(parse("3,2/1"))
    assert rep["ok"] and rep["centralizer_nilpotent"] and len(calls) == 1
    calls.clear()
    rep = surveys.skew_checks(parse("2,1"))
    assert not rep["classified_distinguished"] and rep["centralizer_nilpotent"]
    assert len(calls) == 1


def test_skew_row_nilpotency_is_the_centralizers():
    # the field read back from the classifier is the verdict on the sl
    # centralizer itself, whatever class the row gets
    from nilpair.diagrams import ShapeClass, enumerate_diagrams
    from nilpair.pairs import build_pair, centralizer, is_nilpotent_family

    for n in range(2, 6):
        for d in enumerate_diagrams(n, ShapeClass.SKEW):
            pair, h = build_pair(d)
            z = centralizer(pair, "sl", h=h)
            want = is_nilpotent_family(z, pair.n)
            assert surveys.skew_checks(d)["centralizer_nilpotent"] == want


def test_cohomology_row_builds_its_root_data_once(monkeypatch):
    # the row's three root-data checks read one build from the pair's record
    from nilpair import pairs

    builds = []

    def counted(h, alt=False):
        builds.append((h, alt))
        return root_data(h, alt)

    monkeypatch.setattr(pairs, "root_data", counted)
    assert surveys.cohomology_checks(parse("2,2,1"))["ok"]
    assert len(builds) == 1
    builds.clear()
    assert surveys.cohomology_checks(parse("3,1"))["ok"]
    assert len(builds) == 1


def test_root_data_is_shared_per_grading():
    # one record shares its root data per alt; two equal gradings of two
    # pairs build equal root data in their own records
    from nilpair.pairs import build_pair

    pair, h = build_pair(parse("3,1"))
    other, same = build_pair(parse("3,1"))
    g = pair.graded(h)
    assert g.roots() is g.roots() is pair.graded(same).roots()
    assert g.roots(alt=True) is g.roots(alt=True)
    assert g.roots(alt=True) is not g.roots()
    assert g.roots(alt=True) != g.roots()
    assert other.graded(same).roots() == g.roots() == root_data(h)
    assert other.graded(same).roots() is not g.roots()
    assert other.graded(same).roots(alt=True) == g.roots(alt=True)


def test_cohomology_checks_single():
    rep = surveys.cohomology_checks(parse("2,2,1"))
    assert rep["ok"]
    assert rep["slice_complement_choice_invariant"]


def test_multiplicity_single_case_alt_system_agrees():
    base = surveys.multiplicity_checks_for("2,1", (2, 1))
    alt = surveys.multiplicity_checks_for("2,1", (2, 1), alt=True)
    assert base["equal_at_dominant"] and alt["equal_at_dominant"]
    assert base["positive_system"] != alt["positive_system"]


def test_parabolic_checks_small_survey():
    from nilpair.pairs import build_pair
    from test_pairs import parabolic_checks
    from nilpair.diagrams import ShapeClass, enumerate_diagrams

    for n in range(2, 6):
        for d in enumerate_diagrams(n, ShapeClass.YOUNG):
            pair, h = build_pair(d)
            assert parabolic_checks(pair, h)["ok"], d


def test_run_config_env_cap(monkeypatch):
    monkeypatch.setenv(surveys.MAX_N_ENV, "3")
    with pytest.raises(surveys.ResourceLimit):
        surveys.check_box_bound(4)
    surveys.check_box_bound(3)


def test_multiplicity_suite_matches_golden():
    text = canonical_json(surveys.multiplicity_suite(6))
    assert text.encode() == GOLDEN.read_bytes()


def test_multiplicity_suite_jobs_match_serial():
    serial = canonical_json(surveys.multiplicity_suite(4, jobs=1))
    assert canonical_json(surveys.multiplicity_suite(4, jobs=2)) == serial


def test_multiplicity_tensor_degree_is_a_resource_bound():
    with pytest.raises(surveys.ResourceLimit):
        surveys.multiplicity_checks_for("2,1", (9,))


@pytest.mark.parametrize(
    "spec", ["6", "5,1", "4,2", "4,1,1", "3,3", "3,2,1", "3,1,1,1", "2,2,2",
             "2,2,1,1", "2,1,1,1,1", "1,1,1,1,1,1"],
)
def test_harmonics_checks_six_boxes(spec):
    # the reach the Gram route opens: every six-box row of `harmonics --all 6`
    row = surveys.harmonics_checks(parse(spec))
    assert row["ok"], row
