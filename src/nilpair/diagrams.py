"""Box diagrams on the integer plane: Young diagrams, skew shapes, their
negatives, and the in/out subset combinatorics used for centralizer bases.

Coordinates: the first entry p of a box (p, q) is the horizontal position
(column index), the second entry q the vertical position (row index).
Diagrams are normalised so the minimal p and minimal q over all boxes are
both 0; box lists are kept sorted by (q, p), which is also the basis-label
order used when turning a diagram into a matrix pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


class ShapeClass(Enum):
    YOUNG = "young"
    MINUS_YOUNG = "minus_young"
    SKEW = "skew"
    MINUS_SKEW = "minus_skew"
    CONNECTED_OTHER = "connected_other"
    DISCONNECTED = "disconnected"


class ParseError(ValueError):
    pass


class ShapeError(ValueError):
    pass


def _normalize(boxes):
    boxes = set(map(tuple, boxes))
    if not boxes:
        raise ParseError("empty box set")
    mp = min(p for p, _ in boxes)
    mq = min(q for _, q in boxes)
    return tuple(sorted(((p - mp, q - mq) for p, q in boxes), key=lambda b: (b[1], b[0])))


class Diagram:
    """A nonempty finite set of boxes, normalised to the origin."""

    __slots__ = ("boxes",)

    def __init__(self, boxes):
        self.boxes = _normalize(boxes)

    def __eq__(self, other):
        return isinstance(other, Diagram) and self.boxes == other.boxes

    def __hash__(self):
        return hash(self.boxes)

    def __len__(self):
        return len(self.boxes)

    def __contains__(self, box):
        return tuple(box) in set(self.boxes)

    def __repr__(self):
        return f"Diagram({list(self.boxes)})"

    def __iter__(self):
        return iter(self.boxes)

    @property
    def n(self):
        return len(self.boxes)

    def row(self, q):
        return sorted(p for p, qq in self.boxes if qq == q)

    def rows(self):
        qs = sorted({q for _, q in self.boxes})
        return {q: self.row(q) for q in qs}

    def column(self, p):
        return sorted(q for pp, q in self.boxes if pp == p)

    def columns(self):
        ps = sorted({p for p, _ in self.boxes})
        return {p: self.column(p) for p in ps}

    def transpose(self):
        return Diagram([(q, p) for p, q in self.boxes])

    def negate(self):
        return Diagram([(-p, -q) for p, q in self.boxes])

    def translate(self, dp, dq):
        """Raw translated box set (not normalised)."""
        return {(p + dp, q + dq) for p, q in self.boxes}

    def is_connected(self):
        return _connected(set(self.boxes))

    def serialize(self):
        return ";".join(f"({p},{q})" for p, q in self.boxes)


def _connected(boxes):
    if not boxes:
        return False
    seen = set()
    stack = [next(iter(boxes))]
    while stack:
        b = stack.pop()
        if b in seen:
            continue
        seen.add(b)
        p, q = b
        for nb in ((p + 1, q), (p - 1, q), (p, q + 1), (p, q - 1)):
            if nb in boxes and nb not in seen:
                stack.append(nb)
    return seen == boxes


def parse(spec):
    """Parse a diagram from text.

    Accepted forms: a partition "r1,r2,..." of row lengths with the bottom
    row first (weakly decreasing); "outer/inner" for a skew difference of two
    such partitions; or an explicit box list "(p,q);(p,q);...".
    """
    spec = spec.strip()
    if not spec:
        raise ParseError("empty diagram spec")
    if spec.startswith("("):
        boxes = []
        for part in spec.split(";"):
            part = part.strip()
            if not (part.startswith("(") and part.endswith(")")):
                raise ParseError(f"bad box syntax: {part!r}")
            try:
                p, q = (int(x) for x in part[1:-1].split(","))
            except Exception as exc:
                raise ParseError(f"bad box syntax: {part!r}") from exc
            boxes.append((p, q))
        if len(set(boxes)) != len(boxes):
            raise ParseError("repeated box")
        return Diagram(boxes)
    if "/" in spec:
        outer_s, inner_s = spec.split("/", 1)
        outer = _parse_partition(outer_s)
        inner = _parse_partition(inner_s)
        if len(inner) > len(outer) or any(
            i > o for i, o in zip(inner, outer)
        ):
            raise ParseError("inner shape is not contained in the outer one")
        boxes = []
        for q, r in enumerate(outer):
            start = inner[q] if q < len(inner) else 0
            boxes.extend((p, q) for p in range(start, r))
        if not boxes:
            raise ParseError("empty skew difference")
        return Diagram(boxes)
    parts = _parse_partition(spec)
    return Diagram([(p, q) for q, r in enumerate(parts) for p in range(r)])


def _parse_partition(text):
    try:
        parts = [int(x) for x in text.split(",") if x.strip() != ""]
    except Exception as exc:
        raise ParseError(f"bad partition: {text!r}") from exc
    if not parts:
        raise ParseError(f"bad partition: {text!r}")
    if any(p < 1 for p in parts):
        raise ParseError("partition parts must be >= 1")
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        raise ParseError("partition parts must be weakly decreasing")
    return parts


def _row_intervals(d):
    """Per-row (start, end) or None if some row is not contiguous."""
    rows = d.rows()
    qs = sorted(rows)
    if qs != list(range(qs[0], qs[-1] + 1)):
        return None
    out = []
    for q in qs:
        ps = rows[q]
        if ps != list(range(ps[0], ps[-1] + 1)):
            return None
        out.append((ps[0], ps[-1]))
    return out


def _is_skew_shape(d):
    """True if d is a translate of a connected difference of nested Young
    diagrams anchored at the same south-west corner."""
    iv = _row_intervals(d)
    if iv is None:
        return False
    starts = [a for a, _ in iv]
    ends = [b for _, b in iv]
    if any(starts[i] < starts[i + 1] for i in range(len(iv) - 1)):
        return False
    if any(ends[i] < ends[i + 1] for i in range(len(iv) - 1)):
        return False
    # overlap between consecutive rows gives edge-connectivity
    return all(starts[i] <= ends[i + 1] for i in range(len(iv) - 1))


def _is_young_shape(d):
    iv = _row_intervals(d)
    if iv is None:
        return False
    if any(a != 0 for a, _ in iv):
        return False
    ends = [b for _, b in iv]
    return all(ends[i] >= ends[i + 1] for i in range(len(iv) - 1))


def classify_shape(d):
    """Finest applicable label; young beats minus_young beats skew, etc."""
    if not d.is_connected():
        return ShapeClass.DISCONNECTED
    if _is_young_shape(d):
        return ShapeClass.YOUNG
    neg = d.negate()
    if _is_young_shape(neg):
        return ShapeClass.MINUS_YOUNG
    if _is_skew_shape(d):
        return ShapeClass.SKEW
    if _is_skew_shape(neg):
        return ShapeClass.MINUS_SKEW
    return ShapeClass.CONNECTED_OTHER


SKEWISH = (
    ShapeClass.YOUNG,
    ShapeClass.MINUS_YOUNG,
    ShapeClass.SKEW,
    ShapeClass.MINUS_SKEW,
)


def row_lengths(d):
    """Row lengths bottom-first (partition when d is Young)."""
    return tuple(len(ps) for _, ps in sorted(d.rows().items()))


def column_lengths(d):
    return tuple(len(qs) for _, qs in sorted(d.columns().items()))


@dataclass(frozen=True)
class SubsetPair:
    """An in-subset and the out-subset obtained from it by one translation."""

    nu_in: tuple
    nu_out: tuple
    shift: tuple

    def to_jsonable(self):
        return {
            "in": [list(b) for b in self.nu_in],
            "out": [list(b) for b in self.nu_out],
            "shift": list(self.shift),
        }


def _closure_subsets(boxes, direction):
    """Connected subsets closed under moving south-west (+1) or north-east
    (-1), in the order of their masks over the sorted boxes.

    The closed sets are the order ideals of the boxes under the product
    order (reversed for -1), so they are walked directly: from the empty
    set, add one box whose cone (the other boxes south-west of it for +1,
    north-east for -1) is already in the set."""
    items = sorted(set(boxes))
    n = len(items)
    if n > 20:
        raise ResourceError("diagram too large for subset enumeration")
    cones = [
        sum(
            1 << j
            for j, (i, k) in enumerate(items)
            if j != b and direction * (i - p) <= 0 and direction * (k - q) <= 0
        )
        for b, (p, q) in enumerate(items)
    ]
    seen = {0}
    frontier = [0]
    while frontier:
        new = []
        for mask in frontier:
            for b, cone in enumerate(cones):
                grown = mask | 1 << b
                if grown != mask and cone & mask == cone and grown not in seen:
                    seen.add(grown)
                    new.append(grown)
        frontier = new
    out = []
    for mask in sorted(seen - {0}):
        subset = {items[b] for b in range(n) if mask >> b & 1}
        if _connected(subset):
            out.append(frozenset(subset))
    return out


class ResourceError(ValueError):
    pass


@lru_cache(maxsize=256)
def in_subsets(d):
    return _closure_subsets(d.boxes, +1)


@lru_cache(maxsize=256)
def out_subsets(d):
    return _closure_subsets(d.boxes, -1)


def subset_pairs(d, p, q):
    """All (in-subset, out-subset) pairs related by translation by (p, q)."""
    if classify_shape(d) not in SKEWISH:
        raise ShapeError("diagram is not a (minus) skew shape")
    if p < 0 or q < 0:
        raise ValueError("shift components must be non-negative")
    outs = set(out_subsets(d))
    pairs = []
    for nu in in_subsets(d):
        moved = frozenset((i + p, j + q) for i, j in nu)
        if moved in outs:
            pairs.append(
                SubsetPair(
                    tuple(sorted(nu, key=lambda b: (b[1], b[0]))),
                    tuple(sorted(moved, key=lambda b: (b[1], b[0]))),
                    (p, q),
                )
            )
    pairs.sort(key=lambda sp: sp.nu_in)
    return pairs


@lru_cache(maxsize=None)
def partitions(n, cap=None):
    """Partitions of n with parts <= cap, largest part first."""
    if n == 0:
        return ((),)
    cap = n if cap is None else min(cap, n)
    out = []
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def _skew_row_specs(n):
    """All normalised connected skew box sets with n boxes, via row intervals."""
    results = set()

    def extend(rows_acc, remaining):
        # rows_acc: list of (start, end) from bottom to top
        if remaining == 0:
            boxes = [
                (p, q)
                for q, (a, b) in enumerate(rows_acc)
                for p in range(a, b + 1)
            ]
            results.add(Diagram(boxes))
            return
        prev_a, prev_b = rows_acc[-1]
        for b in range(prev_a, prev_b + 1):
            # next row must move weakly left and overlap the previous one
            for a in range(max(0, b - remaining + 1), b + 1):
                if a <= prev_a and b <= prev_b and (b - a + 1) <= remaining:
                    extend(rows_acc + [(a, b)], remaining - (b - a + 1))

    # bottom row: any interval of length w at any offset >= 0; rows above move
    # weakly left, so offsets up to n-w suffice and normalisation dedupes.
    for w in range(1, n + 1):
        for offset in range(0, n - w + 1):
            extend([(offset, offset + w - 1)], n - w)
    return results


def enumerate_diagrams(n, shape, max_n=12):
    """All diagrams with n boxes in the given class, up to normalisation."""
    if n < 1 or n > max_n:
        raise ResourceError(f"box count {n} outside the allowed range 1..{max_n}")
    if shape == ShapeClass.YOUNG:
        return [
            Diagram([(p, q) for q, r in enumerate(part) for p in range(r)])
            for part in sorted(partitions(n), reverse=True)
        ]
    if shape == ShapeClass.MINUS_YOUNG:
        return sorted(
            {d.negate() for d in enumerate_diagrams(n, ShapeClass.YOUNG, max_n)},
            key=lambda d: d.boxes,
        )
    if shape == ShapeClass.SKEW:
        out = {d for d in _skew_row_specs(n) if classify_shape(d) == ShapeClass.SKEW}
        return sorted(out, key=lambda d: d.boxes)
    if shape == ShapeClass.MINUS_SKEW:
        out = {
            d.negate()
            for d in _skew_row_specs(n)
            if classify_shape(d.negate()) == ShapeClass.MINUS_SKEW
        }
        return sorted(out, key=lambda d: d.boxes)
    raise ValueError(f"enumeration not supported for {shape}")
