"""Weight-preserving 17-case injection between two parity-separated families.

The source family is evens-over-distinct-odds (``Family.OD_EU``); the
image family is distinct-odds-over-evens (``Family.EU_OD``).  A source
partition falls in exactly one structural case, decided by its block
lengths and a few gap conditions.  ``forward`` rewrites it into an image
partition of the same weight whose shape satisfies that case's image
signature, and ``backward`` undoes the rewrite exactly.  Both directions
are defined only at or above the case's minimum weight, and ``forward``
refuses a weight above ``MAX_MAP_WEIGHT``.

Each case is one row of ``CASES``.  The case code reads a partition as
its two blocks, the even parts and the odd parts, which come from
``core.parity_split``.  Cases of one shape share one rewrite pair, and
their rows bind its constants:

- cases 2, 3 and 4 are one block swap, ``_swap``, bound with sign 1
  forward and -1 backward;
- cases 10, 12, 13 and 14 (j evens above one odd part) are one affine
  tower, ``_fwd_tower`` and ``_bwd_tower``;
- case 17 is case 16 with 12 moved from the top part into six parts 2,
  and both use ``_fwd_long`` and ``_bwd_long``.

In each group the conditions, signatures and minimum weights stay
separate.

A source condition reads five features of the member, its shape
``(a, b, gap, od0, top_gap)`` from ``source_shape``: the two block
lengths, the cross gap ``ev[-1] - od[0]``, the top odd part and the gap
``ev[0] - ev[1]`` between the two top evens, None where those parts do
not exist.  An image signature is its gate, the leading conjuncts on
the block lengths u and v and the count f2 of parts 2, then the rest on
the blocks (none for cases 1, 5 and 11).  Every classification goes
through a ``Classifier``, which keeps the source matches per shape and
the gated signatures per ``(u, v, f2)``; why that is exact is in its
docstring.  ``source_case_matches`` and ``image_case_matches`` use a
fresh one per call, the verifier one per driver call.

The public functions take a ``Partition`` and check membership on its
blocks.  ``classify_source`` and ``classify_image`` hold the match-count
rules, exactly one source case and at most one image signature, and
``forward`` and ``backward`` classify through them, then split the
partition again for the rewrite.  The verifier, whose members arrive as
their two blocks, classifies the blocks directly and splits each
rewrite's output with ``parity_split``, without building a ``Partition``.

Image signatures do not cover the whole image family: ``witness``
produces, for any weight from 373 up, an image-family member that matches
no signature, which is what makes the map strictly non-surjective there.
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Callable, Iterable
from functools import partial

from .core import MAX_PARTS, Block, Partition, format_partition, parity_split
from .families import Family, blocks_in_family

__all__ = [
    "SOURCE_FAMILY",
    "IMAGE_FAMILY",
    "NUM_CASES",
    "WITNESS_MIN_WEIGHT",
    "source_case_matches",
    "classify_source",
    "forward",
    "image_case_matches",
    "classify_image",
    "backward",
    "witness",
]

SOURCE_FAMILY = Family.OD_EU
IMAGE_FAMILY = Family.EU_OD

# forward refuses a heavier member: an image of weight w has at most about
# w/2 + sqrt(w) parts, so this keeps it near the parse bound
MAX_MAP_WEIGHT = 2 * MAX_PARTS

WITNESS_MIN_WEIGHT = 373
# A witness scan ending above this weight is refused; each weight costs a
# few microseconds, so a scan to the cutoff takes seconds.
WITNESS_CUTOFF = 1_000_000


# A source member's shape (a, b, gap, od0, top_gap); see ``source_shape``.
Shape = tuple[int, int, int | None, int | None, int | None]
# The signature rest of a case: e, o, u, v, f2 -> bool, or None.
Rest = Callable[[Block, Block, int, int, int], bool]


class Case(namedtuple("Case", "min_weight source forward gate image backward")):
    """Everything about one case; both directions start at ``min_weight``.

    ``source`` is the case's condition on a source member's shape
    (``source_shape``), and the rewrites ``forward`` and ``backward`` are
    functions of a member's even and odd blocks, returning the other
    side's parts in any order.  The image signature has two parts:
    ``gate``, its leading conjuncts on the image's block lengths u, v and
    its count f2 of parts 2, ``(u, v, f2) -> bool``, and ``image``, the
    rest on the blocks, a ``Rest``, or None where nothing remains.  A
    member matches the signature when the gate holds and then the rest
    does.
    """

    __slots__ = ()


def _join(ev, od):
    """Case 1, both ways: one block is empty, so the parts stay as they are."""
    return ev + od


def _swap(sign, ev, od):
    """Cases 2-4, forward with sign 1 and backward with sign -1.  The m
    largest parts of the top block (the evens forward, the odds backward)
    and the m smallest of the other block trade parity, where m is the
    shorter block's length.  The swapped top parts gain the steps sign *
    (2m-3, 2m-5, ..., 1, -1), the first of them also sign * 2 per part not
    swapped; the swapped low parts lose the same steps, and every part not
    swapped moves by -2 * sign."""
    top, low = (ev, od) if sign > 0 else (od, ev)
    m = min(len(ev), len(od))
    steps = [sign * (2 * (m - k) - 3) for k in range(m)]
    moved = [part + step for part, step in zip(top, steps)]
    moved[0] += sign * 2 * (len(ev) + len(od) - 2 * m)
    kept = [part - 2 * sign for part in top[m:] + low[: len(low) - m]]
    return moved + kept + [part - step for part, step in zip(low[len(low) - m :], steps)]


def _fwd_5(ev, od):
    return [ev[0] - 1] + list(od[:-1]) + [od[-1] + 1]


def _fwd_6(ev, od):
    return list(od[:-2]) + [od[-2] + 1, od[-1] + 1] + [2] * ((ev[0] - 2) // 2)


def _fwd_7(ev, od):
    return [part + 4 for part in od[1:]] + [3] + [2] * (ev[0] - 2 * len(od))


def _fwd_8(ev, od):
    return [ev[0] - 3, od[0] - 4] + [2] * ((od[1] + 7) // 2)


def _fwd_9(ev, od):
    half = ev[0] // 2
    return [4 * half - 15, 5, 3, 2, 2, 2]


def _fwd_tower(inc, tail, drop, ev, od):
    """Cases 10 and 12-14: the evens below the top one and the odd part gain
    inc, part by part, and join the fixed odd parts tail; the top even, less
    drop, becomes parts 2."""
    rest = ev[1:] + od
    return [rest[k] + c for k, c in enumerate(inc)] + list(tail) + [2] * ((ev[0] - drop) // 2)


def _fwd_11(ev, od):
    return [ev[0] + 1] + list(ev[1:])


def _fwd_15(ev, od):
    return (
        [ev[1] + 5, ev[2] + 3, ev[3] + 1]
        + list(ev[4:])
        + [od[0] + 1]
        + [2] * ((ev[0] - 10) // 2)
    )


def _fwd_long(top, twos, ev, od):
    """Cases 16 and 17: the three top evens turn odd, the top one taking
    top, the four bottom evens move down by 2 and the odd part becomes
    even; case 17 also turns 12 of its top even into six parts 2."""
    return (
        [ev[0] + top, ev[1] + 3, ev[2] + 1]
        + list(ev[3:-4])
        + [part - 2 for part in ev[-4:]]
        + [od[0] - 1]
        + [2] * twos
    )


def _bwd_5(e, o):
    return [o[0] + 1] + list(o[1:]) + [e[0] - 1]


def _bwd_6(e, o):
    return [2 * len(e) - 2] + list(o) + [e[0] - 1, e[1] - 1]


def _bwd_7(e, o):
    u, v = len(e), len(o)
    return [u + 2 * v, u + 2 * v - 1] + [part - 4 for part in o[:-1]]


def _bwd_8(e, o):
    return [o[0] + 3, o[1] + 4, 2 * e.count(2) - 7]


def _bwd_9(e, o):
    half = (o[0] + 15) // 4
    return [2 * half, 2 * half - 1]


def _bwd_tower(inc, drop, e, o):
    """The inverse of ``_fwd_tower``; the count of image evens restores the top even."""
    return [2 * len(e) + drop] + [o[k] - c for k, c in enumerate(inc)]


def _bwd_11(e, o):
    return [o[0] - 1] + list(e) + [1]


def _bwd_15(e, o):
    twos = e.count(2)
    keep = len(e) - twos
    return (
        [2 * twos + 10, o[0] - 5, o[1] - 3, o[2] - 1]
        + list(e[: keep - 1])
        + [e[keep - 1] - 1]
    )


def _bwd_long(top, twos, e, o):
    """The inverse of ``_fwd_long``, read from the evens above the last twos parts 2."""
    k = len(e) - twos
    return (
        [o[0] - top, o[1] - 3, o[2] - 1]
        + list(e[: k - 5])
        + [part + 2 for part in e[k - 5 : k - 1]]
        + [e[k - 1] + 1]
    )


# One row per case.  The first lines hold the source side: minimum
# weight, condition and forward rewrite.  The rest hold the image side:
# gate, the rest of the signature and backward rewrite.  Cases 2-4 bind
# the direction's sign into the swap, cases 10 and 12-14 their constants
# into the tower pair, cases 16 and 17 into the long pair.  A source
# condition reads the shape (a, b, gap, od0, top_gap) of ``source_shape``;
# in a source member the cross gap ev[-1] - od[0] is odd and at least 1,
# by strict block separation.  ev/e are the even blocks, od/o the odd
# blocks, u and v the image block lengths, f2 the number of image parts
# equal to 2.
CASES: dict[int, Case] = {
    1: Case(1, lambda a, b, gap, od0, top_gap: a == 0 or b == 0, _join,
            lambda u, v, f2: u == 0 or v == 0, None, _join),
    2: Case(12, lambda a, b, gap, od0, top_gap: a == b >= 2, partial(_swap, 1),
            lambda u, v, f2: u == v >= 2,
            lambda e, o, u, v, f2: o[-1] - e[0] >= 2 * v - 3, partial(_swap, -1)),
    3: Case(16, lambda a, b, gap, od0, top_gap: a > b >= 2, partial(_swap, 1),
            lambda u, v, f2: u > v >= 2,
            lambda e, o, u, v, f2: o[0] - o[1] >= 2 * (u - v + 1)
            and e[u - v - 1] - e[u - v] >= 2 * v - 4, partial(_swap, -1)),
    4: Case(21, lambda a, b, gap, od0, top_gap: b > a >= 2, partial(_swap, 1),
            lambda u, v, f2: v > u >= 2,
            lambda e, o, u, v, f2: o[0] - o[1] >= 2 * (v - u + 1)
            and o[-1] - e[0] >= 2 * u - 3, partial(_swap, -1)),
    5: Case(5, lambda a, b, gap, od0, top_gap: a == 1 and b >= 1 and gap >= 3, _fwd_5,
            lambda u, v, f2: u == 1 and v >= 1, None, _bwd_5),
    6: Case(35, lambda a, b, gap, od0, top_gap: a == 1 and b >= 5 and gap == 1, _fwd_6,
            lambda u, v, f2: v >= 3 and u - v >= 3,
            lambda e, o, u, v, f2: 2 * u - 3 == o[0] and e[0] - e[1] >= 2 and e[2] == 2,
            _bwd_6),
    7: Case(54, lambda a, b, gap, od0, top_gap: a == 1 and b in (3, 4) and gap == 1, _fwd_7,
            lambda u, v, f2: v in (3, 4) and u >= 6 and u % 2 == 0,
            lambda e, o, u, v, f2: o[-1] == 3 and e[0] == 2
            and 2 * v + 1 <= o[0] <= u + 2 * v + 1, _bwd_7),
    8: Case(20, lambda a, b, gap, od0, top_gap: a == 1 and b == 2 and gap == 1, _fwd_8,
            lambda u, v, f2: v == 2 and u >= 4,
            lambda e, o, u, v, f2: o[0] - o[1] == 2 and e[0] == 2
            and o[1] - 2 * u + 11 > 0 and o[0] >= 5, _bwd_8),
    # the rest implies the gate: three parts 2 below three odd parts
    9: Case(23, lambda a, b, gap, od0, top_gap: a == 1 and b == 1 and gap == 1, _fwd_9,
            lambda u, v, f2: u == 3 and v == 3,
            lambda e, o, u, v, f2: e == (2, 2, 2) and o[1:] == (5, 3)
            and o[0] >= 9 and o[0] % 4 == 1, _bwd_9),
    10: Case(83, lambda a, b, gap, od0, top_gap: a == 2 and b == 1,
             partial(_fwd_tower, (7, 6), (5,), 18),
             lambda u, v, f2: v == 3 and u >= 5,
             lambda e, o, u, v, f2: o[2] == 5 and e[0] == 2 and 2 * u + 25 >= o[0],
             partial(_bwd_tower, (7, 6), 18)),
    11: Case(7, lambda a, b, gap, od0, top_gap: a >= 3 and b == 1 and od0 == 1, _fwd_11,
             lambda u, v, f2: u >= 2 and v == 1, None, _bwd_11),
    12: Case(95, lambda a, b, gap, od0, top_gap: a == 3 and b == 1 and od0 >= 3,
             partial(_fwd_tower, (7, 5, 4), (), 16),
             lambda u, v, f2: v == 3 and u >= 4,
             lambda e, o, u, v, f2: o[2] >= 7 and e[0] == 2 and 2 * u + 23 >= o[0],
             partial(_bwd_tower, (7, 5, 4), 16)),
    13: Case(159, lambda a, b, gap, od0, top_gap: a == 4 and b == 1 and od0 >= 3,
             partial(_fwd_tower, (7, 5, 3, 2), (3,), 20),
             lambda u, v, f2: u >= 6 and v == 5,
             lambda e, o, u, v, f2: o[4] == 3 and e[0] == 2 and 2 * u + 27 >= o[0],
             partial(_bwd_tower, (7, 5, 3, 2), 20)),
    14: Case(227, lambda a, b, gap, od0, top_gap: a == 5 and b == 1 and od0 >= 3,
             partial(_fwd_tower, (9, 7, 5, 3, 2), (), 26),
             lambda u, v, f2: u >= 6 and v == 5,
             lambda e, o, u, v, f2: o[4] >= 5 and e[0] == 2 and 2 * u + 35 >= o[0],
             partial(_bwd_tower, (9, 7, 5, 3, 2), 26)),
    15: Case(373, lambda a, b, gap, od0, top_gap: 6 <= a <= 10 and b == 1 and od0 >= 3,
             _fwd_15,
             lambda u, v, f2: f2 > 12 and v == 3 and 3 <= u - f2 <= 7,
             lambda e, o, u, v, f2: e[u - f2 - 1] >= 4 and 2 * f2 + 15 >= o[0], _bwd_15),
    16: Case(47, lambda a, b, gap, od0, top_gap: a >= 11 and b == 1 and od0 >= 3
             and top_gap <= 10, partial(_fwd_long, 5, 0),
             lambda u, v, f2: u >= 9 and v == 3 and f2 <= 5,
             lambda e, o, u, v, f2: o[0] - o[1] <= 12 and e[u - 6] - e[u - 5] >= 2,
             partial(_bwd_long, 5, 0)),
    17: Case(59, lambda a, b, gap, od0, top_gap: a >= 11 and b == 1 and od0 >= 3
             and top_gap >= 12, partial(_fwd_long, -7, 6),
             lambda u, v, f2: u >= 15 and v == 3 and 6 <= f2 <= 11,
             lambda e, o, u, v, f2: e[u - 12] - e[u - 11] >= 2,
             partial(_bwd_long, -7, 6)),
}
NUM_CASES = len(CASES)


def from_parts(parts: Iterable[int]) -> Partition:
    """The validated partition with these parts; raises ValueError on a part below 1."""
    return Partition(sorted(parts, reverse=True))


def source_shape(ev: Block, od: Block) -> Shape:
    """The five features the source conditions read: ``len(ev)``,
    ``len(od)``, the cross gap ``ev[-1] - od[0]``, ``od[0]`` and the top
    gap ``ev[0] - ev[1]``, each None where its parts do not exist."""
    a, b = len(ev), len(od)
    return (
        a,
        b,
        ev[-1] - od[0] if a and b else None,
        od[0] if b else None,
        ev[0] - ev[1] if a > 1 else None,
    )


def shape_cases(shape: Shape) -> tuple[int, ...]:
    """Every case whose source condition holds on this shape, in case order."""
    return tuple([case for case, row in CASES.items() if row.source(*shape)])


class Classifier:
    """Every case whose source condition, or image signature, holds for a
    pair of blocks, in case order.

    ``source`` keeps the matches per source shape (``source_shape``), and
    ``image`` the gated rows, (case, signature rest), per image
    ``(u, v, f2)``, each computed from all 17 rows of the live ``CASES``
    the first time its key is met.  This is exact, not a dispatch that
    assumes the cases exclusive: a source member's matches are a function
    of its shape alone, and which gates hold a function of ``(u, v, f2)``
    alone, and each member's candidate rests all run on its blocks.  So
    every member still gets every condition and every signature, and an
    overlap still shows as more than one match.  Over the weights 55..60, the 34 905 source
    members have 8 097 shapes and the 42 447 image members 2 274 keys,
    counted per weight.
    """

    def __init__(self) -> None:
        self._shapes: dict[Shape, tuple[int, ...]] = {}
        self._gates: dict[tuple[int, int, int], tuple[tuple[int, Rest | None], ...]] = {}

    def source(self, ev: Block, od: Block) -> tuple[int, ...]:
        shape = source_shape(ev, od)
        matches = self._shapes.get(shape)
        if matches is None:
            matches = self._shapes[shape] = shape_cases(shape)
        return matches

    def image(self, e: Block, o: Block) -> tuple[int, ...]:
        u, v, f2 = lengths = len(e), len(o), e.count(2)
        rows = self._gates.get(lengths)
        if rows is None:
            rows = self._gates[lengths] = tuple(
                [(case, row.image) for case, row in CASES.items() if row.gate(u, v, f2)]
            )
        return tuple([case for case, rest in rows if rest is None or rest(e, o, u, v, f2)])


def _member_blocks(p: Partition, family: Family) -> tuple[Block, Block]:
    """The even and odd blocks of p; raises ValueError unless p is in the family."""
    blocks = parity_split(p)
    if not blocks_in_family(*blocks, family):
        raise ValueError(f"{format_partition(p)} is not in family {family.value}")
    return blocks


def source_case_matches(p: Partition) -> tuple[int, ...]:
    """Every source-side case condition that holds for p, in case order.

    The conditions are evaluated independently rather than as a decision
    tree, so totality and mutual exclusion can be verified instead of
    assumed.  ``classify_source`` gives the single-case view.
    """
    return Classifier().source(*_member_blocks(p, SOURCE_FAMILY))


def classify_source(p: Partition) -> int:
    """The unique case of a source-family partition, or ValueError."""
    matches = source_case_matches(p)
    if len(matches) != 1:
        raise ValueError(
            f"{format_partition(p)} matched source cases {list(matches)}, expected exactly one"
        )
    return matches[0]


def forward(p: Partition) -> Partition:
    """Map a source-family partition to its image partition.

    Raises ValueError when the weight sits below the case's minimum, where
    the rewrite is not defined, or above ``MAX_MAP_WEIGHT``.
    """
    if p.weight > MAX_MAP_WEIGHT:
        raise ValueError(f"weight {p.weight} exceeds the map cutoff {MAX_MAP_WEIGHT}")
    case = classify_source(p)
    row = CASES[case]
    if p.weight < row.min_weight:
        raise ValueError(
            f"case {case} is undefined below weight {row.min_weight}, got {p.weight}"
        )
    return from_parts(row.forward(*parity_split(p)))


def image_case_matches(p: Partition) -> tuple[int, ...]:
    """Every image-side case signature that p matches, in case order.

    Signatures are checked independently so pairwise disjointness can be
    verified; on signature-covered members exactly one should hold.
    """
    return Classifier().image(*_member_blocks(p, IMAGE_FAMILY))


def classify_image(p: Partition) -> int | None:
    """The case whose image signature p matches, None when none does, or
    ValueError when more than one does."""
    matches = image_case_matches(p)
    if len(matches) > 1:
        raise ValueError(
            f"{format_partition(p)} matched image signatures {list(matches)},"
            " expected at most one"
        )
    return matches[0] if matches else None


def backward(p: Partition) -> Partition:
    """Map a signature-matched image partition back to its source.

    Raises ValueError when no signature matches or the weight sits below
    the matched case's minimum.
    """
    case = classify_image(p)
    if case is None:
        raise ValueError(f"{format_partition(p)} matches none of the {NUM_CASES} image signatures")
    row = CASES[case]
    if p.weight < row.min_weight:
        raise ValueError(
            f"case {case} inverse is undefined below weight {row.min_weight}, got {p.weight}"
        )
    return from_parts(row.backward(*parity_split(p)))


def witness(n: int) -> Partition:
    """An image-family member at weight n matching no case signature.

    Defined for n at least 373; the shape depends on n modulo 6.
    """
    if n < WITNESS_MIN_WEIGHT:
        raise ValueError(f"witness construction starts at weight {WITNESS_MIN_WEIGHT}, got {n}")
    k, r = divmod(n, 6)
    if r % 2 == 1:
        parts = [2 * k + 3, 2 * k + 1, 2 * k + r - 8, 2, 2]
    else:
        parts = [2 * k + 1, 2 * k - 1, 2 * k + r - 7, 3, 2, 2]
    return from_parts(parts)
