"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import nilpair

SOURCES = sorted(Path(nilpair.__file__).parent.glob("*.py"))


def test_no_assert_statements_in_package():
    # `python -O` strips assert statements, so a check written as one would
    # silently stop running; the package raises typed errors instead
    assert len(SOURCES) > 1
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _trace_layers():
    """perfbench/trace_layers.py, loaded from the source checkout."""
    import importlib.util

    path = Path(__file__).resolve().parent.parent / "perfbench" / "trace_layers.py"
    spec = importlib.util.spec_from_file_location("trace_layers", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_trace_layers_resolve():
    # `perfbench/run.py --trace 1` wraps every function LAYERS names and
    # reads each one from its owner's __dict__, so a rename in the package
    # would make the traced run die with KeyError before any check runs
    import importlib

    layers = _trace_layers().LAYERS
    missing = []
    for specs in layers.values():
        for module, path, _, _ in specs:
            owner = importlib.import_module(f"nilpair.{module}")
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            if owner is None or parts[-1] not in owner.__dict__:
                missing.append(f"{module}.{path}")
    assert sum(len(specs) for specs in layers.values()) > 30
    assert missing == []


def test_only_pairs_names_ad_matrix():
    # the dense n^2 x n^2 ad matrix is a test reference; package code
    # builds its kernels from pairs.ad columns instead
    assert "def ad_matrix" in (Path(nilpair.__file__).parent / "pairs.py").read_text()
    found = [
        path.name
        for path in SOURCES
        if path.name != "pairs.py" and "ad_matrix" in path.read_text()
    ]
    assert found == []


def test_trace_key_functions_hash_a_pair():
    # the per-layer trace keys its reuse counters on pair members, so
    # members must stay hashable
    from nilpair.diagrams import parse
    from nilpair.pairs import build_pair

    layers = _trace_layers()
    keys = set()
    for _ in range(2):
        pair, h = build_pair(parse("2,1"))
        keys.add(
            (
                layers._key_pieces(h),
                layers._key_centralizer(pair, h),
                layers._key_h1(pair, h),
            )
        )
    # two builds of one pair give equal keys, so the reuse counters see them
    assert len(keys) == 1


def test_pair_path_modules_do_not_name_matrix():
    # pair members, slice points, the explicit orthogonal pairs and their
    # brackets are flattened vectors, and alternants take the fraction-free
    # linalg.determinant of dense rows; no package module outside linalg
    # and the ad_matrix reference in pairs names the dense Matrix
    found = [
        name
        for name in (
            "cohomology.py",
            "modules.py",
            "surveys.py",
            "cli.py",
            "rectangular.py",
            "harmonics.py",
            "polys.py",
        )
        if "Matrix" in (Path(nilpair.__file__).parent / name).read_text()
    ]
    assert found == []


def test_harmonics_grows_no_two_sided_closure():
    # the S_n x S_n span comes from the Gram class function (wxw_span); the
    # two-sided closure is a test reference, and the package closes one
    # side only (u_side_span)
    text = (Path(nilpair.__file__).parent / "harmonics.py").read_text()
    assert "def wxw_span" in text and "def u_side_span" in text
    assert 'side="both"' not in text and "side='both'" not in text


def test_modules_build_no_tensor_closure():
    # the Gelfand-Tsetlin matrix units are closed forms, so building a
    # module or its matrices eliminates nothing; the tensor-power closure
    # is the reference in test_modules.py
    tree = _tree("modules.py")
    imported = {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert "EchelonBasis" not in imported
    defined = {node.name for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)}
    assert "act_matrix" in defined
    assert not defined & {"coordinates", "character", "_apply_unit", "_highest_weight_tensor"}

def _exact_operand(node):
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("frac", "Fraction")
    )


def test_every_division_has_a_fraction_operand():
    # integral values travel as ints, and int / int is a float; a true
    # division stays exact only with a frac(...) or Fraction(...) operand
    divisions, found = 0, []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                operands = (node.left, node.right)
            elif isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Div):
                operands = (node.value,)
            else:
                continue
            divisions += 1
            if not any(_exact_operand(op) for op in operands):
                found.append(f"{path.name}:{node.lineno}")
    assert divisions >= 4
    assert found == []


def _tree(module):
    return ast.parse((Path(nilpair.__file__).parent / module).read_text())


def _function(module, name):
    return next(
        node
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.FunctionDef) and node.name == name
    )


def _called_names(func):
    """The plain names a function calls: f(...) gives f, and X.m(...)
    gives X.m."""
    names = set()
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Name):
                names.add(f.id)
            elif isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name):
                names.add(f"{f.value.id}.{f.attr}")
    return names


def test_rank_only_paths_do_not_eliminate_fully():
    # the slice samples, the staircase check and the H^1 table read ranks
    # or echelon spans from the forward elimination, and the null space is
    # built in canonical form, so none of them pays for a reduced basis
    for name in ("slice_samples", "_corner_containment_ok", "_h1_table"):
        called = _called_names(_function("cohomology.py", name))
        assert "row_echelon" in called or "kernel_in" in called, name
        assert not called & {"EchelonBasis", "lift"}, name
    called = _called_names(_function("linalg.py", "_null_space"))
    assert "Subspace.canonical" in called
    assert "Subspace" not in called


def _sl_branch(func):
    """The body of the function's `if ambient == "sl":` branch."""
    return next(
        node
        for node in ast.walk(func)
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.Compare)
        and isinstance(node.test.left, ast.Name)
        and node.test.left.id == "ambient"
        and isinstance(node.test.comparators[0], ast.Constant)
        and node.test.comparators[0].value == "sl"
    )


def test_sl_blocks_are_cut_from_the_gl_ones():
    # the trace-zero pieces and graded kernels are the gl ones cut by one
    # helper, never built again by a second elimination: the sl branch of
    # the pieces' builder and of the record's pieces and kernel accessors
    # hands the gl blocks to the helper, the gl kernel builder brackets, and
    # the helper cuts with the trace hyperplane and brackets nothing
    for name in ("bigraded_pieces", "pieces", "kernels"):
        func = _function("pairs.py", name)
        named = {
            node.id for node in ast.walk(_sl_branch(func)) if isinstance(node, ast.Name)
        }
        assert "_sl_cut" in named, name
        assert not named & {"kernel_in", "ad_each", "traceless_cut"}, name
        assert "traceless_cut" not in _called_names(func), name
    called = _called_names(_function("pairs.py", "_kernel_blocks"))
    assert "kernel_in" in called
    assert not called & {"_sl_cut", "traceless_cut"}
    called = _called_names(_function("pairs.py", "_sl_cut"))
    assert "traceless_cut" in called
    assert not called & {"kernel_in", "ad_each"}


def test_pair_data_lives_in_the_pair_record():
    # a pair's bigraded pieces, root data, graded kernels, kernel towers,
    # H^1 table and corner frames, and its diagram's subset pairs, live in
    # its GradedPair record (NilPair.graded) or are built anew per call, and
    # are freed with the pair: no module cache holds them.  The partitions
    # of an integer, which no pair owns, keep the one cache
    for module, allowed in (
        ("pairs.py", set()),
        ("cohomology.py", set()),
        ("diagrams.py", {"partitions"}),
        ("multiplicity.py", set()),
    ):
        tree = _tree(module)
        cached = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and any("cache" in ast.unparse(dec) for dec in node.decorator_list)
        }
        uses = [
            node
            for node in ast.walk(tree)
            if (isinstance(node, ast.Name) and "cache" in node.id)
            or (isinstance(node, ast.Attribute) and "cache" in node.attr)
        ]
        assert cached == allowed, module
        assert len(uses) == len(allowed), module
    # the record is the one place that turns h = None into the diagram
    # grading; centralizer and the classifier also take the ungraded route
    callers = {
        func.name
        for path in SOURCES
        for func in ast.walk(ast.parse(path.read_text()))
        if isinstance(func, ast.FunctionDef)
        and "provenance_grading" in _called_names(func)
    }
    assert callers == {"graded", "centralizer", "_classify"}
    assert "NilPair" not in _called_names(_tree("cohomology.py"))


def test_no_bounded_lru_cache_in_package():
    # a bounded cache evicts by call order, so what a check rebuilds depends
    # on what ran before it; derived data lives in the pair's record
    # instead.  A bare @lru_cache is bounded too (maxsize 128)
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            for dec in node.decorator_list:
                call = dec if isinstance(dec, ast.Call) else ast.Call(dec, [], [])
                if ast.unparse(call.func).split(".")[-1] != "lru_cache":
                    continue
                sizes = call.args[:1] + [k.value for k in call.keywords if k.arg == "maxsize"]
                if not any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                    found.append(f"{path.name}:{node.name}")
    assert found == []


def test_cone_coordinates_are_partial_sums():
    # the simple-basis coordinates are partial sums along the positive
    # system's chain: no elimination and no module cache on that path
    text = (Path(nilpair.__file__).parent / "multiplicity.py").read_text()
    assert "solve_affine" not in text
    for name in ("cone_coordinates", "height"):
        func = _function("multiplicity.py", name)
        assert not func.decorator_list, name
        assert _called_names(func) <= {"len", "sum", "tuple", "cone_coordinates"}, name


def test_one_weyl_sum_and_one_root_search():
    # the alternating sum walks the Weyl group in weyl_arguments alone, the
    # table and the classical oracle both read it, and the partition search
    # keeps its memo per call; the root data lives in the pair's record, so
    # the module keeps no cache
    tree = _tree("multiplicity.py")

    def orbit_walks(top):
        return [
            node
            for node in ast.walk(top)
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "permutations"
        ]

    walker = _function("multiplicity.py", "weyl_arguments")
    assert len(orbit_walks(tree)) == len(orbit_walks(walker)) == 1
    cached = [
        node.name
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and any("cache" in ast.unparse(dec) for dec in node.decorator_list)
    ]
    assert cached == []
    for name in ("multiplicity_formula", "classical_multiplicity"):
        assert "weyl_arguments" in _called_names(_function("multiplicity.py", name))
    for name in ("in_ne_cone", "classical_partition_count"):
        assert "_root_partitions" in _called_names(_function("multiplicity.py", name))
    imported = {
        alias.name
        for node in ast.walk(_tree("surveys.py"))
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }
    assert not imported & {"_perm_sign", "height"}


def test_import_loads_neither_dataclasses_nor_inspect():
    # every command is a fresh process, so the import is part of its wall
    # time; dataclasses pulls in inspect, ast, dis and tokenize with it
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import nilpair, nilpair.surveys, nilpair.characters, nilpair.cli\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(nilpair.__file__).parent.parent))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    added = set(proc.stdout.split())
    assert "nilpair.cli" in added
    assert not added & {"dataclasses", "inspect"}


def test_adjoint_module_is_described_once():
    # one factor table describes the adjoint module: the decomposition and
    # the summand count both read _factors, which lists each summand's own
    # and cross factor pairs, and the survey walk reads their sizes; the
    # Counter-building and closed-form helpers they replaced are gone
    table = {"_own_factors", "_cross_factors"}
    assert table <= _called_names(_function("rectangular.py", "_factors"))
    for name in ("decompose_adjoint", "summand_count"):
        assert "_factors" in _called_names(_function("rectangular.py", name)), name
    assert table <= _called_names(_function("rectangular.py", "_multisets"))
    defined = {
        node.name
        for node in ast.walk(_tree("rectangular.py"))
        if isinstance(node, ast.FunctionDef)
    }
    assert table <= defined
    assert not defined & {
        "_pair_tensor",
        "_pair_sym2",
        "_pair_alt2",
        "_own_term",
        "_cross_term",
        "_sym",
        "_alt",
        "_closed_form_count",
    }
    # the diagram pair and the centrally symmetric one share one member
    # construction
    assert "_diagram_members" in _called_names(_function("pairs.py", "build_pair"))
    called = _called_names(_function("rectangular.py", "symmetric_diagram_pair"))
    assert "_diagram_members" in called


def _family_predicate_owners(tree):
    """The functions holding a conjunction of `x >= 1` and `y <= 0`, in
    either order: the test for one of the two H^1 class families."""
    owners = set()
    for func in ast.walk(tree):
        if not isinstance(func, ast.FunctionDef):
            continue
        for node in ast.walk(func):
            if not (isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And)):
                continue
            tests = {
                (type(v.ops[0]), v.comparators[0].value)
                for v in node.values
                if isinstance(v, ast.Compare)
                and len(v.ops) == 1
                and isinstance(v.comparators[0], ast.Constant)
            }
            if {(ast.GtE, 1), (ast.LtE, 0)} <= tests:
                owners.add(func.name)
    return owners


def test_class_families_are_named_once():
    # cohomology.family alone decides which family a bidegree belongs to,
    # and the names its table made unnecessary are gone from the package
    owners = {
        (path.name, name)
        for path in Path(nilpair.__file__).parent.glob("*.py")
        for name in _family_predicate_owners(ast.parse(path.read_text()))
    }
    assert owners == {("cohomology.py", "family")}
    for name in ("support_ok", "quadrant_totals", "coker_formula_check", "slice_basis"):
        assert "family" in _called_names(_function("cohomology.py", name)), name
    gone = {"SliceBasis", "h1_dims", "se_biexponents", "include_skipped"}
    for path in Path(nilpair.__file__).parent.glob("*.py"):
        named = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
            elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                named.add(node.name)
            elif isinstance(node, (ast.arg, ast.keyword)):
                named.add(node.arg)
        assert not named & gone, path.name
