"""Weight-preserving 17-case injection between two parity-separated families.

The source family is evens-over-distinct-odds (``Family.OD_EU``); the
image family is distinct-odds-over-evens (``Family.EU_OD``).  A source
partition falls in exactly one structural case, decided by its block
lengths and a few gap conditions.  ``forward`` rewrites it into an image
partition of the same weight whose shape satisfies that case's image
signature, and ``backward`` undoes the rewrite exactly.  Both directions
are defined only at or above the case's minimum weight.

Each case is one row of ``CASES``.  The case code reads a partition as
its two blocks, the even parts and the odd parts, which come from
``core.parity_split``.  Cases 2, 3 and 4 are one block swap and share one
rewrite pair, ``_fwd_swap`` and ``_bwd_swap``; their conditions,
signatures and minimum weights stay separate.  The public functions take
a ``Partition``: each splits it once, checks membership on the blocks
and looks its case up once.  The verifier, whose members arrive as their two blocks, calls the
block-level helpers ``source_cases`` and ``image_cases`` directly and
splits each rewrite's output with ``parity_split``, without building a
``Partition``.

Image signatures do not cover the whole image family: ``witness``
produces, for any weight from 373 up, an image-family member that matches
no signature, which is what makes the map strictly non-surjective there.
"""

from __future__ import annotations

from typing import Callable, Iterable, NamedTuple

from .core import Block, Partition, format_partition, parity_split
from .families import Family, blocks_in_family

__all__ = [
    "SOURCE_FAMILY",
    "IMAGE_FAMILY",
    "NUM_CASES",
    "case_min_weight",
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
NUM_CASES = 17

WITNESS_MIN_WEIGHT = 373


class Case(NamedTuple):
    """Everything about one case, as functions of a member's even and odd blocks.

    The rewrites return the other side's parts in any order.
    """

    min_weight: int
    source: Callable[[Block, Block], bool]
    forward: Callable[[Block, Block], list[int]]
    image: Callable[[Block, Block, int, int, int], bool]
    backward: Callable[[Block, Block], list[int]]


def _slide(count: int) -> list[int]:
    """The odd increments 2*count-3, 2*count-5, ..., 1 used by the block swaps."""
    return [2 * count - 2 * k - 3 for k in range(count - 1)]


def _fwd_1(ev, od):
    return ev + od


def _fwd_swap(ev, od):
    """Cases 2-4: the m largest evens and the m smallest odds trade parity,
    where m is the shorter block's length; the other parts move down by 2
    and the top new odd part takes 2 per moved part."""
    m = min(len(ev), len(od))
    inc = _slide(m)
    low = od[len(od) - m :]
    to_odd = [ev[0] + 2 * (len(ev) + len(od) - 2 * m) + inc[0]]
    to_odd += [ev[k] + inc[k] for k in range(1, m - 1)]
    to_odd += [ev[m - 1] - 1]
    kept = [part - 2 for part in ev[m:] + od[: len(od) - m]]
    to_even = [low[k] - inc[k] for k in range(m - 1)] + [low[-1] + 1]
    return to_odd + kept + to_even


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


def _fwd_10(ev, od):
    return [ev[1] + 7, od[0] + 6, 5] + [2] * ((ev[0] - 18) // 2)


def _fwd_11(ev, od):
    return [ev[0] + 1] + list(ev[1:])


def _fwd_12(ev, od):
    return [ev[1] + 7, ev[2] + 5, od[0] + 4] + [2] * ((ev[0] - 16) // 2)


def _fwd_13(ev, od):
    return [ev[1] + 7, ev[2] + 5, ev[3] + 3, od[0] + 2, 3] + [2] * ((ev[0] - 20) // 2)


def _fwd_14(ev, od):
    return [ev[1] + 9, ev[2] + 7, ev[3] + 5, ev[4] + 3, od[0] + 2] + [2] * (
        (ev[0] - 26) // 2
    )


def _fwd_15(ev, od):
    return (
        [ev[1] + 5, ev[2] + 3, ev[3] + 1]
        + list(ev[4:])
        + [od[0] + 1]
        + [2] * ((ev[0] - 10) // 2)
    )


def _fwd_16(ev, od):
    return (
        [ev[0] + 5, ev[1] + 3, ev[2] + 1]
        + list(ev[3:-4])
        + [part - 2 for part in ev[-4:]]
        + [od[0] - 1]
    )


def _fwd_17(ev, od):
    return (
        [ev[0] - 7, ev[1] + 3, ev[2] + 1]
        + list(ev[3:-4])
        + [part - 2 for part in ev[-4:]]
        + [od[0] - 1]
        + [2] * 6
    )


def _bwd_1(e, o):
    return e + o


def _bwd_swap(e, o):
    """The inverse of ``_fwd_swap``, with m the shorter image block's length."""
    m = min(len(e), len(o))
    inc = _slide(m)
    low = e[len(e) - m :]
    to_even = [o[0] - 2 * (len(e) + len(o) - 2 * m) - inc[0]]
    to_even += [o[k] - inc[k] for k in range(1, m - 1)]
    to_even += [o[m - 1] + 1]
    kept = [part + 2 for part in o[m:] + e[: len(e) - m]]
    to_odd = [low[k] + inc[k] for k in range(m - 1)] + [low[-1] - 1]
    return to_even + kept + to_odd


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


def _bwd_10(e, o):
    return [2 * len(e) + 18, o[0] - 7, o[1] - 6]


def _bwd_11(e, o):
    return [o[0] - 1] + list(e) + [1]


def _bwd_12(e, o):
    return [2 * len(e) + 16, o[0] - 7, o[1] - 5, o[2] - 4]


def _bwd_13(e, o):
    return [2 * len(e) + 20, o[0] - 7, o[1] - 5, o[2] - 3, o[3] - 2]


def _bwd_14(e, o):
    return [2 * len(e) + 26, o[0] - 9, o[1] - 7, o[2] - 5, o[3] - 3, o[4] - 2]


def _bwd_15(e, o):
    twos = e.count(2)
    keep = len(e) - twos
    return (
        [2 * twos + 10, o[0] - 5, o[1] - 3, o[2] - 1]
        + list(e[: keep - 1])
        + [e[keep - 1] - 1]
    )


def _bwd_16(e, o):
    u = len(e)
    return (
        [o[0] - 5, o[1] - 3, o[2] - 1]
        + list(e[: u - 5])
        + [part + 2 for part in e[u - 5 : u - 1]]
        + [e[-1] + 1]
    )


def _bwd_17(e, o):
    u = len(e)
    return (
        [o[0] + 7, o[1] - 3, o[2] - 1]
        + list(e[: u - 11])
        + [part + 2 for part in e[u - 11 : u - 7]]
        + [e[u - 7] + 1]
    )


# One row per case.  The first line holds the source side: minimum
# weight, condition and forward rewrite.  The rest holds the image side:
# signature and backward rewrite.  ev/e are the even blocks, od/o the odd
# blocks, u and v the image block lengths, f2 the number of image parts
# equal to 2.  In a source member the cross gap ev[-1] - od[0] is odd and
# at least 1, by strict block separation.
CASES: dict[int, Case] = {
    1: Case(1, lambda ev, od: not ev or not od, _fwd_1,
            lambda e, o, u, v, f2: u == 0 or v == 0, _bwd_1),
    2: Case(12, lambda ev, od: len(ev) == len(od) >= 2, _fwd_swap,
            lambda e, o, u, v, f2: u == v >= 2 and o[-1] - e[0] >= 2 * v - 3, _bwd_swap),
    3: Case(16, lambda ev, od: len(ev) > len(od) >= 2, _fwd_swap,
            lambda e, o, u, v, f2: u > v >= 2
            and o[0] - o[1] >= 2 * (u - v + 1)
            and e[u - v - 1] - e[u - v] >= 2 * v - 4, _bwd_swap),
    4: Case(21, lambda ev, od: len(od) > len(ev) >= 2, _fwd_swap,
            lambda e, o, u, v, f2: v > u >= 2
            and o[0] - o[1] >= 2 * (v - u + 1)
            and o[-1] - e[0] >= 2 * u - 3, _bwd_swap),
    5: Case(5, lambda ev, od: len(ev) == 1 and len(od) >= 1 and ev[-1] - od[0] >= 3, _fwd_5,
            lambda e, o, u, v, f2: u == 1 and v >= 1, _bwd_5),
    6: Case(35, lambda ev, od: len(ev) == 1 and len(od) >= 5 and ev[-1] - od[0] == 1, _fwd_6,
            lambda e, o, u, v, f2: v >= 3 and u - v >= 3 and 2 * u - 3 == o[0]
            and e[0] - e[1] >= 2 and e[2] == 2, _bwd_6),
    7: Case(54, lambda ev, od: len(ev) == 1 and len(od) in (3, 4) and ev[-1] - od[0] == 1, _fwd_7,
            lambda e, o, u, v, f2: v in (3, 4) and u >= 6 and u % 2 == 0 and o[-1] == 3
            and e[0] == 2 and 2 * v + 1 <= o[0] <= u + 2 * v + 1, _bwd_7),
    8: Case(20, lambda ev, od: len(ev) == 1 and len(od) == 2 and ev[-1] - od[0] == 1, _fwd_8,
            lambda e, o, u, v, f2: v == 2 and u >= 4 and o[0] - o[1] == 2 and e[0] == 2
            and o[1] - 2 * u + 11 > 0 and o[0] >= 5, _bwd_8),
    9: Case(23, lambda ev, od: len(ev) == 1 and len(od) == 1 and ev[-1] - od[0] == 1, _fwd_9,
            lambda e, o, u, v, f2: e == (2, 2, 2) and o[1:] == (5, 3)
            and o[0] >= 9 and o[0] % 4 == 1, _bwd_9),
    10: Case(83, lambda ev, od: len(ev) == 2 and len(od) == 1, _fwd_10,
             lambda e, o, u, v, f2: v == 3 and u >= 5 and o[2] == 5 and e[0] == 2
             and 2 * u + 25 >= o[0], _bwd_10),
    11: Case(7, lambda ev, od: len(ev) >= 3 and len(od) == 1 and od[0] == 1, _fwd_11,
             lambda e, o, u, v, f2: u >= 2 and v == 1, _bwd_11),
    12: Case(95, lambda ev, od: len(ev) == 3 and len(od) == 1 and od[0] >= 3, _fwd_12,
             lambda e, o, u, v, f2: v == 3 and u >= 4 and o[2] >= 7 and e[0] == 2
             and 2 * u + 23 >= o[0], _bwd_12),
    13: Case(159, lambda ev, od: len(ev) == 4 and len(od) == 1 and od[0] >= 3, _fwd_13,
             lambda e, o, u, v, f2: u >= 6 and v == 5 and o[4] == 3 and e[0] == 2
             and 2 * u + 27 >= o[0], _bwd_13),
    14: Case(227, lambda ev, od: len(ev) == 5 and len(od) == 1 and od[0] >= 3, _fwd_14,
             lambda e, o, u, v, f2: u >= 6 and v == 5 and o[4] >= 5 and e[0] == 2
             and 2 * u + 35 >= o[0], _bwd_14),
    15: Case(373, lambda ev, od: 6 <= len(ev) <= 10 and len(od) == 1 and od[0] >= 3, _fwd_15,
             lambda e, o, u, v, f2: f2 > 12 and v == 3 and 3 <= u - f2 <= 7
             and e[u - f2 - 1] >= 4 and 2 * f2 + 15 >= o[0], _bwd_15),
    16: Case(47, lambda ev, od: len(ev) >= 11 and len(od) == 1 and od[0] >= 3
             and ev[0] - ev[1] <= 10, _fwd_16,
             lambda e, o, u, v, f2: u >= 9 and v == 3 and f2 <= 5 and o[0] - o[1] <= 12
             and e[u - 6] - e[u - 5] >= 2, _bwd_16),
    17: Case(59, lambda ev, od: len(ev) >= 11 and len(od) == 1 and od[0] >= 3
             and ev[0] - ev[1] >= 12, _fwd_17,
             lambda e, o, u, v, f2: u >= 15 and v == 3 and 6 <= f2 <= 11
             and e[u - 12] - e[u - 11] >= 2, _bwd_17),
}


def case_min_weight(case: int) -> int:
    """Smallest weight at which the case's map and inverse are defined."""
    if case not in CASES:
        raise ValueError(f"case must be 1..{NUM_CASES}, got {case}")
    return CASES[case].min_weight


def from_parts(parts: Iterable[int]) -> Partition:
    """The validated partition with these parts; raises ValueError on a part below 1."""
    return Partition(sorted(parts, reverse=True))


def source_cases(ev: Block, od: Block) -> tuple[int, ...]:
    """Every case whose source condition holds for these blocks, in case order."""
    return tuple([case for case, row in CASES.items() if row.source(ev, od)])


def image_cases(e: Block, o: Block) -> tuple[int, ...]:
    """Every case whose image signature holds for these blocks, in case order."""
    u, v, f2 = len(e), len(o), e.count(2)
    return tuple([case for case, row in CASES.items() if row.image(e, o, u, v, f2)])


def _member_blocks(p: Partition, family: Family) -> tuple[Block, Block]:
    """The even and odd blocks of p; raises ValueError unless p is in the family."""
    blocks = parity_split(p)
    if not blocks_in_family(*blocks, family):
        shown = format_partition(p) or "(empty)"
        raise ValueError(f"{shown} is not in family {family.value}")
    return blocks


def _one_source_case(p: Partition, ev: Block, od: Block) -> int:
    matches = source_cases(ev, od)
    if len(matches) == 1:
        return matches[0]
    shown = format_partition(p) or "(empty)"
    raise ValueError(f"{shown} matched source cases {list(matches)}, expected exactly one")


def _one_image_case(p: Partition, e: Block, o: Block) -> int | None:
    matches = image_cases(e, o)
    if len(matches) > 1:
        raise ValueError(
            f"{format_partition(p)} matched image signatures {list(matches)},"
            " expected at most one"
        )
    return matches[0] if matches else None


def source_case_matches(p: Partition) -> tuple[int, ...]:
    """Every source-side case condition that holds for p, in case order.

    The conditions are evaluated independently rather than as a decision
    tree, so totality and mutual exclusion can be verified instead of
    assumed.  ``classify_source`` gives the single-case view.
    """
    return source_cases(*_member_blocks(p, SOURCE_FAMILY))


def classify_source(p: Partition) -> int:
    """The unique case of a source-family partition."""
    return _one_source_case(p, *_member_blocks(p, SOURCE_FAMILY))


def forward(p: Partition) -> Partition:
    """Map a source-family partition to its image partition.

    Raises ValueError when the weight sits below the case's minimum, where
    the rewrite is not defined.
    """
    ev, od = _member_blocks(p, SOURCE_FAMILY)
    case = _one_source_case(p, ev, od)
    row = CASES[case]
    if p.weight < row.min_weight:
        raise ValueError(
            f"case {case} is undefined below weight {row.min_weight}, got {p.weight}"
        )
    return from_parts(row.forward(ev, od))


def image_case_matches(p: Partition) -> tuple[int, ...]:
    """Every image-side case signature that p matches, in case order.

    Signatures are checked independently so pairwise disjointness can be
    verified; on signature-covered members exactly one should hold.
    """
    return image_cases(*_member_blocks(p, IMAGE_FAMILY))


def classify_image(p: Partition) -> int | None:
    """The case whose image signature p matches, or None when none does."""
    return _one_image_case(p, *_member_blocks(p, IMAGE_FAMILY))


def backward(p: Partition) -> Partition:
    """Map a signature-matched image partition back to its source.

    Raises ValueError when no signature matches or the weight sits below
    the matched case's minimum.
    """
    e, o = _member_blocks(p, IMAGE_FAMILY)
    case = _one_image_case(p, e, o)
    if case is None:
        raise ValueError(f"{format_partition(p)} matches no image-side case signature")
    row = CASES[case]
    if p.weight < row.min_weight:
        raise ValueError(
            f"case {case} inverse is undefined below weight {row.min_weight}, got {p.weight}"
        )
    return from_parts(row.backward(e, o))


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
