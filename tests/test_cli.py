import json
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).parent / "data" / "multiplicity_suite_6.json"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "nilpair", *args],
        capture_output=True,
        text=True,
    )
    return proc


def test_pair_biexponents_json():
    proc = run_cli("pair", "biexponents", "--diagram", "2,1", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"biexponents": [[0, 1], [1, 0]]}


def test_pair_classify():
    proc = run_cli("pair", "classify", "--diagram", "3,2/1", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["class"] == "distinguished"


def test_pair_limits_young_equals_centralizer():
    proc = run_cli("pair", "limits", "--diagram", "3,2,1", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {
        "equals_centralizer": True,
        "limit_of_diagonals_dim": 6,
    }


def test_pair_limits_strict_skew_misses_centralizer():
    proc = run_cli("pair", "limits", "--diagram", "3,2/1", "--format", "json")
    assert proc.returncode == 1
    assert json.loads(proc.stdout) == {
        "equals_centralizer": False,
        "limit_of_diagonals_dim": 4,
    }


def test_parse_error_exit_code():
    proc = run_cli("pair", "build", "--diagram", "3,1,0")
    assert proc.returncode == 2
    assert "error" in proc.stderr


def test_usage_error_exit_code():
    proc = run_cli("verify", "structure")
    assert proc.returncode == 2


def test_resource_bound_exit_code():
    proc = run_cli("verify", "structure", "--all", "99")
    assert proc.returncode == 3


def test_verify_single_diagram():
    proc = run_cli("verify", "structure", "--diagram", "2,2", "--format", "json")
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["ok"]


def test_verify_multiplicity_single():
    proc = run_cli(
        "verify",
        "multiplicity",
        "--diagram",
        "2,1",
        "--lambda",
        "2,1,0",
        "--format",
        "json",
    )
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["equal_at_dominant"]


def test_rect_sp_small():
    proc = run_cli("rect", "sp", "3", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    accepted = [r for r in payload["rows"] if r.get("accepted")]
    assert payload["ok"]


def test_rect_bound_below_one_exits_three():
    for algebra, bound in (("sp", "0"), ("sl", "-5"), ("so", "0")):
        proc = run_cli("rect", algebra, bound, "--format", "json")
        assert proc.returncode == 3, (algebra, bound)
        assert proc.stdout == ""
        assert "below 1" in proc.stderr


def test_rect_bound_without_embeddings_exits_two():
    for algebra in ("sl", "sp", "so"):
        proc = run_cli("rect", algebra, "1", "--format", "json")
        assert proc.returncode == 2, algebra
        assert proc.stdout == ""
        assert "no cases" in proc.stderr


RECT_GOLDEN = Path(__file__).parent / "data" / "rect_suite_20.json"


@pytest.mark.parametrize("algebra", ["sl", "sp", "so"])
def test_rect_payload_at_every_bound(algebra, capsys):
    # `rect ALGEBRA B` for B in 1..24: the classification row's accepted
    # count and agreement come from the decompose-first reference (its rows
    # up to B boxes), the sl rectangles and the so orthogonal pairs do not
    # depend on B and are those of the golden report, and a bound with no
    # embedding exits 2
    from nilpair.cli import main
    from test_rectangular import _reference_survey

    reference = [
        (sum(n * m for n, m in r["J"]), r)
        for r in _reference_survey(algebra, 24)["rows"]
    ]
    prefix = {"sl": "rectangle_", "so": "even_orthogonal_"}.get(algebra)
    extra = [
        r
        for r in json.loads(RECT_GOLDEN.read_text())["rows"]
        if prefix and r["check"].startswith(prefix)
    ]
    for bound in range(1, 25):
        code = main(["rect", algebra, str(bound), "--format", "json"])
        out, err = capsys.readouterr()
        rows = [r for dim, r in reference if dim <= bound]
        if not rows:
            assert code == 2 and out == "" and "no cases" in err, bound
            continue
        agree = all(r["is_pn_pair"] == r["expected"] for r in rows)
        classification = {
            "check": f"classification_{algebra}",
            "agree": agree,
            "accepted": sum(1 for r in rows if r["is_pn_pair"]),
            "ok": agree,
        }
        ok = agree and all(r["ok"] for r in extra)
        assert code == (0 if ok else 1), bound
        assert json.loads(out) == {
            "suite": "rectangular",
            "rows": [classification, *extra],
            "ok": ok,
        }, bound


def test_lefschetz_failure_exits_one():
    proc = run_cli("pair", "lefschetz", "--diagram", "3,2/1", "--format", "json")
    assert proc.returncode == 1
    payload = json.loads(proc.stdout)
    assert any(not r["ok"] for r in payload["rows"])


def test_out_file(tmp_path):
    out = tmp_path / "report.json"
    proc = run_cli(
        "pair", "build", "--diagram", "2,1", "--format", "json", "--out", str(out)
    )
    assert proc.returncode == 0
    payload = json.loads(out.read_text())
    assert payload["n"] == 3 and payload["provenance"] == "(0,0);(1,0);(0,1)"
    assert payload["e1"] == [[1, 0, 1]] and payload["e2"] == [[2, 0, 1]]


def test_determinism_byte_identical():
    a = run_cli("verify", "structure", "--all", "3", "--format", "json")
    b = run_cli("verify", "structure", "--all", "3", "--format", "json")
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout


def test_jobs_flag_matches_serial():
    a = run_cli("verify", "structure", "--all", "4", "--format", "json")
    b = run_cli("verify", "structure", "--all", "4", "--format", "json", "--jobs", "2")
    assert a.stdout == b.stdout


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(jobs, monkeypatch, capsys):
    import multiprocessing

    from nilpair.cli import main

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(multiprocessing, "Pool", no_pool)
    code = main(["verify", "structure", "--all", "2", "--jobs", jobs])
    assert code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: --jobs {jobs} is below 1\n"


def test_multiplicity_tensor_degree_exits_three():
    proc = run_cli("verify", "multiplicity", "--diagram", "2,1", "--lambda", "9,0,0")
    assert proc.returncode == 3
    assert "resource bound" in proc.stderr


def test_multiplicity_lambda_not_a_partition_exits_two():
    proc = run_cli("verify", "multiplicity", "--diagram", "2,1", "--lambda", "1,2")
    assert proc.returncode == 2
    assert "not a partition" in proc.stderr


def test_multiplicity_lambda_too_many_parts_exits_two():
    proc = run_cli("verify", "multiplicity", "--diagram", "2,1", "--lambda", "1,1,1,1")
    assert proc.returncode == 2
    assert "more than 3 parts" in proc.stderr


def test_multiplicity_lambda_not_integers_exits_two():
    proc = run_cli("verify", "multiplicity", "--diagram", "2,1", "--lambda", "a,b")
    assert proc.returncode == 2
    assert "not a list of integers" in proc.stderr


def test_multiplicity_empty_bound_exits_three():
    for bound in ("0", "-1"):
        proc = run_cli("verify", "multiplicity", "--all", bound, "--format", "json")
        assert proc.returncode == 3, bound
        assert proc.stdout == ""


def test_multiplicity_single_diagram_uses_suite_rule():
    suite_rows = json.loads(GOLDEN.read_text())["rows"]
    for spec, lam, code in (("2,1", "3", 0), ("2,2", "2,2", 1), ("3", "2,1", 0)):
        proc = run_cli(
            "verify", "multiplicity", "--diagram", spec, "--lambda", lam,
            "--format", "json",
        )
        assert proc.returncode == code, (spec, lam)
        row = next(
            r
            for r in suite_rows
            if r["diagram"] == spec and r["lambda"] == [int(x) for x in lam.split(",")]
        )
        assert json.loads(proc.stdout) == row


def test_empty_suite_exits_two():
    cases = (("skew", "1"), ("skew", "3"), ("multiplicity", "1"))
    for suite, bound in cases:
        args = (suite, "--all", bound)
        proc = run_cli("verify", *args, "--format", "json")
        assert proc.returncode == 2, args
        assert proc.stdout == ""
        assert "no cases" in proc.stderr


def test_suite_bound_over_limit_exits_three():
    for suite, bound in (("skew", "9"), ("harmonics", "7")):
        args = (suite, "--all", bound)
        proc = run_cli("verify", *args, "--format", "json")
        assert proc.returncode == 3, args
        assert proc.stdout == ""
        assert "over the limit" in proc.stderr


def test_mu_flag_is_gone():
    proc = run_cli(
        "verify", "multiplicity", "--diagram", "2,1", "--lambda", "2,1,0",
        "--mu", "9,9,9",
    )
    assert proc.returncode == 2
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "args",
    [
        ("verify", "structure", "--diagram", "3,2/1"),
        ("verify", "cohomology", "--diagram", "3,2/1"),
        ("verify", "harmonics", "--diagram", "3,2/1"),
        ("verify", "skew", "--diagram", "3,2"),
        ("pair", "biexponents", "--diagram", "3,2/1"),
    ],
    ids=["structure", "cohomology", "harmonics", "skew", "biexponents"],
)
def test_shape_outside_domain_exits_two(args):
    proc = run_cli(*args, "--format", "json")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error:")


@pytest.mark.parametrize("cap", ["abc", "7.5", "0"])
def test_max_n_not_a_positive_integer_is_a_usage_error(cap, monkeypatch, capsys):
    from nilpair.cli import main

    monkeypatch.setenv("NILPAIR_MAX_N", cap)
    assert main(["verify", "structure", "--all", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: NILPAIR_MAX_N={cap!r} is not a positive integer\n"


def test_max_n_is_read_only_by_bounded_runs(monkeypatch, capsys):
    from nilpair.cli import main

    monkeypatch.setenv("NILPAIR_MAX_N", "abc")
    assert main(["pair", "classify", "--diagram", "2,1", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"class": "principal"}


ALT = "--alt-positive-system"


@pytest.mark.parametrize(
    "args, flag",
    [
        (("multiplicity", "--all", "4", ALT), ALT),
        (("multiplicity", "--all", "4", "--lambda", "2,2"), "--lambda"),
        (("structure", "--diagram", "2,1", "--lambda", "2,1"), "--lambda"),
        (("structure", "--diagram", "2,1", ALT), ALT),
        (("cohomology", "--all", "3", "--lambda", "1"), "--lambda"),
    ],
    ids=["alt-all", "lambda-all", "lambda-structure", "alt-structure", "lambda-cohomology"],
)
def test_multiplicity_flags_elsewhere_are_a_usage_error(args, flag, capsys):
    # --lambda and --alt-positive-system steer verify multiplicity --diagram
    # only; anywhere else they are refused, not silently dropped
    from nilpair.cli import main

    assert main(["verify", *args, "--format", "json"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error:") and flag in err


def test_alt_positive_system_steers_the_single_diagram_run(capsys):
    from nilpair.cli import main

    base = ["verify", "multiplicity", "--diagram", "2,1", "--lambda", "2,1"]
    systems = []
    for extra in ([], [ALT]):
        assert main([*base, *extra, "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["equal_at_dominant"]
        systems.append(payload["positive_system"])
    assert systems[0] != systems[1]
