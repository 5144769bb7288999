import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nilpair.diagrams import (
    Diagram,
    ParseError,
    ResourceError,
    ShapeClass,
    ShapeError,
    _closure_subsets,
    classify_shape,
    enumerate_diagrams,
    in_subsets,
    out_subsets,
    parse,
    subset_pairs,
)


def test_parse_hook():
    assert parse("2,1").boxes == ((0, 0), (1, 0), (0, 1))


def test_parse_skew_difference():
    assert parse("2,2/1").boxes == ((1, 0), (0, 1), (1, 1))


def test_parse_rejects_zero_part():
    with pytest.raises(ParseError):
        parse("3,1,0")


def test_parse_rejects_increasing_parts():
    with pytest.raises(ParseError):
        parse("1,2")


def test_parse_rejects_bad_containment():
    with pytest.raises(ParseError):
        parse("2,2/3")


def test_parse_box_list():
    d = parse("(0,0);(2,0)")
    assert d.boxes == ((0, 0), (2, 0))


def test_classify_single_row_is_young():
    assert classify_shape(parse("3")) == ShapeClass.YOUNG


def test_classify_gap_is_disconnected():
    assert classify_shape(parse("(0,0);(2,0)")) == ShapeClass.DISCONNECTED


def test_classify_rotated_hook_is_minus_young():
    # the difference (2,2)/(1) is a translate of the negated hook
    d = parse("2,2/1")
    assert classify_shape(d) == ShapeClass.MINUS_YOUNG
    assert d.negate().boxes == parse("2,1").boxes


def test_classify_strict_skew():
    assert classify_shape(parse("3,2/1")) == ShapeClass.SKEW


def test_classify_up_right_staircase_is_other():
    d = parse("(0,0);(1,0);(1,1)")
    # rows move right going up, so neither the shape nor its negative is skew
    assert classify_shape(d) == ShapeClass.CONNECTED_OTHER


def test_transpose_involution_on_enumeration():
    for d in enumerate_diagrams(5, ShapeClass.YOUNG):
        assert d.transpose().transpose() == d
        assert classify_shape(d.transpose()) == ShapeClass.YOUNG


def test_negate_class_behaviour():
    # After translation normalisation the negative of a skew shape is again a
    # skew shape, so only the Young/minus-Young distinction survives negation.
    d = parse("4,2/1")
    assert classify_shape(d) == ShapeClass.SKEW
    assert classify_shape(d.negate()) == ShapeClass.SKEW
    y = parse("3,1")
    assert classify_shape(y.negate()) == ShapeClass.MINUS_YOUNG
    assert classify_shape(y.negate().negate()) == ShapeClass.YOUNG


def test_enumerate_young_counts():
    assert len(enumerate_diagrams(3, ShapeClass.YOUNG)) == 3
    assert len(enumerate_diagrams(4, ShapeClass.YOUNG)) == 5
    assert len(enumerate_diagrams(8, ShapeClass.YOUNG)) == 22


def test_enumerate_strict_skew_contains_known_shape():
    shapes = enumerate_diagrams(4, ShapeClass.SKEW)
    assert parse("3,2/1") in shapes
    assert all(classify_shape(d) == ShapeClass.SKEW for d in shapes)


def test_enumerate_skew_excludes_young_and_minus_young():
    for n in range(2, 6):
        for d in enumerate_diagrams(n, ShapeClass.SKEW):
            assert classify_shape(d) not in (ShapeClass.YOUNG, ShapeClass.MINUS_YOUNG)


def test_subset_pairs_hook_single_shift():
    pairs = subset_pairs(parse("2,1"), 1, 0)
    assert len(pairs) == 1
    assert pairs[0].nu_in == ((0, 0),)
    assert pairs[0].nu_out == ((1, 0),)


def test_subset_pairs_zero_shift_contains_identity():
    for spec in ("2,1", "3,2/1", "2,2"):
        d = parse(spec)
        pairs = subset_pairs(d, 0, 0)
        assert any(sp.nu_in == d.boxes and sp.nu_out == d.boxes for sp in pairs)


def test_subset_pairs_hook_diagonal_empty():
    assert subset_pairs(parse("2,1"), 1, 1) == []


def test_subset_pairs_requires_skewish():
    with pytest.raises(ShapeError):
        subset_pairs(parse("(0,0);(2,0)"), 0, 0)


def _brute_force_pairs(d, p, q):
    """Independent oracle: scan all subset pairs of the box set directly."""

    from itertools import chain, combinations

    boxes = list(d.boxes)
    box_set = set(boxes)
    count = 0
    for r in range(1, len(boxes) + 1):
        for sub in combinations(boxes, r):
            sub_set = set(sub)
            moved = {(a + p, b + q) for a, b in sub_set}
            if not moved <= box_set:
                continue
            if not _is_in_subset(sub_set, box_set):
                continue
            if not _is_out_subset(moved, box_set):
                continue
            count += 1
    return count


def _connected(boxes):
    seen, stack = set(), [next(iter(boxes))]
    while stack:
        b = stack.pop()
        if b in seen:
            continue
        seen.add(b)
        p, q = b
        for nb in ((p + 1, q), (p - 1, q), (p, q + 1), (p, q - 1)):
            if nb in boxes:
                stack.append(nb)
    return seen == boxes


def _is_in_subset(sub, boxes):
    if not _connected(sub):
        return False
    return all(
        (i, j) in sub
        for (p, q) in sub
        for (i, j) in boxes
        if i <= p and j <= q
    )


def _is_out_subset(sub, boxes):
    if not _connected(sub):
        return False
    return all(
        (i, j) in sub
        for (p, q) in sub
        for (i, j) in boxes
        if i >= p and j >= q
    )


@given(st.integers(2, 6), st.integers(0, 3), st.integers(0, 3), st.randoms(use_true_random=False))
@settings(max_examples=30, deadline=None)
def test_subset_pairs_against_brute_force(n, p, q, rng):
    shapes = enumerate_diagrams(n, ShapeClass.YOUNG) + enumerate_diagrams(
        n, ShapeClass.SKEW
    )
    if not shapes:
        return
    d = shapes[rng.randrange(len(shapes))]
    assert len(subset_pairs(d, p, q)) == _brute_force_pairs(d, p, q)


def test_in_out_subsets_of_strict_skew():
    d = parse("3,2/1")
    ins = {frozenset(s) for s in in_subsets(d)}
    assert frozenset({(1, 0)}) in ins
    assert frozenset({(0, 1)}) in ins
    outs = {frozenset(s) for s in out_subsets(d)}
    assert frozenset({(2, 0)}) in outs
    assert frozenset({(1, 1)}) in outs


def _mask_closure_subsets(boxes, direction):
    """Reference for _closure_subsets: every nonempty box mask over the
    sorted boxes in increasing order, kept when the subset is connected and
    holds every box south-west (+1) or north-east (-1) of each of its
    boxes."""
    items = sorted(set(boxes))
    out = []
    for mask in range(1, 1 << len(items)):
        subset = {b for i, b in enumerate(items) if mask >> i & 1}
        if not _connected(subset):
            continue
        if all(
            (i, j) in subset
            for (p, q) in subset
            for (i, j) in items
            if direction * (i - p) <= 0 and direction * (j - q) <= 0
        ):
            out.append(frozenset(subset))
    return out


def test_order_ideals_match_the_mask_enumeration():
    # the same subsets in the same order, both directions, on every Young
    # shape up to 10 boxes and every skew shape up to 8
    shapes = [d for n in range(1, 11) for d in enumerate_diagrams(n, ShapeClass.YOUNG)]
    shapes += [d for n in range(2, 9) for d in enumerate_diagrams(n, ShapeClass.SKEW)]
    cases = 0
    for d in shapes:
        for direction in (1, -1):
            got = _closure_subsets(d.boxes, direction)
            assert got == _mask_closure_subsets(d.boxes, direction), (d, direction)
            cases += 1
    assert cases == 910
    # the single box, and the row (3), whose closed sets are its prefixes
    assert _closure_subsets([(0, 0)], 1) == [frozenset({(0, 0)})]
    row = parse("3").boxes
    assert [len(s) for s in _closure_subsets(row, 1)] == [1, 2, 3]
    assert _closure_subsets(row, -1) == [
        frozenset({(2, 0)}),
        frozenset({(1, 0), (2, 0)}),
        frozenset(row),
    ]


def test_closure_subsets_refuse_more_than_twenty_boxes():
    with pytest.raises(ResourceError):
        _closure_subsets(parse("21").boxes, 1)
    assert len(_closure_subsets(parse("20").boxes, 1)) == 20
