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
``core.parity_split``.  Cases of one shape share one rewrite, and their
rows bind its constants:

- cases 2, 3 and 4 are one block swap, ``_swap``, bound with sign 1
  forward and -1 backward;
- cases 5, 6, 10 and 12-17 are one window rewrite, ``_fwd_window``: a
  head and a tail window of the parts gain fixed steps, the parts
  between are copied, fixed odd parts may join, and parts 2 come from
  the top even or are added.  Three readers invert it, split by where
  the copied parts land: ``_bwd_odds`` for cases 5 and 6 (among the odd
  parts), ``_bwd_tower`` for cases 10 and 12-14 (none is copied, and
  every image even is a part 2) and ``_bwd_long`` for cases 15-17
  (among the evens).

In each group the conditions, signatures and minimum weights stay
separate.

A source condition and an image gate are each a record: a conjunction
of atoms ``(form, rel, constant)`` that compare integer forms of a member
with int constants.  A source member has six forms: its block lengths a
and b, their difference a - b, the cross gap ``ev[-1] - od[0]``, the top
odd part od0 and the gap ``ev[0] - ev[1]`` between the two top evens,
the last three 0 where those parts do not exist.  A real cross gap is an
even part less an odd one, so it is odd, and case 1's one atom ``("gap",
"==", 0)`` holds exactly where a block is empty.  An image member has
seven, read off its block lengths u and v and its count f2 of parts 2:
u, v, f2, u - v, u - f2, u % 2 and min(u, v).  An image signature is its
gate, then the rest on the blocks (none for cases 1, 5 and 11).
``record_cases`` reads one field's records as they stand on a tuple of
forms.  The constants cut each form into finitely many cells
(``record_clamps``, which also refuses an atom on any other form), and
every member in a cell meets the same records.
Every classification goes through a ``Classifier``, which caches per
source cell and per image ``(u, v, f2)``, exactly (see its docstring).
``source_case_matches`` and ``image_case_matches`` use a fresh one per
call, the verifier one per driver call.

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
from functools import cache, partial
from operator import add, eq, ge, gt, le, lt, sub

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


# The integer forms that the atoms of a source record, and of a gate,
# compare, in this order; see ``record_cases``.
SOURCE_FORMS = ("a", "b", "a - b", "gap", "od0", "top_gap")
IMAGE_FORMS = ("u", "v", "f2", "u - v", "u - f2", "u % 2", "min(u, v)")
# A record, the conjunction of its atoms (form, rel, constant).
Record = tuple[tuple[str, str, int], ...]
# Per relation: its test, and the offsets below and above such that a
# comparison with the constant c holds alike on every x <= c + below, and
# alike on every x >= c + above.
_RELATIONS = {
    "<": (lt, -1, 0),
    "<=": (le, 0, 1),
    "==": (eq, -1, 1),
    ">=": (ge, -1, 0),
    ">": (gt, 0, 1),
}
# The signature rest of a case: e, o, u, v, f2 -> bool, or None.
Rest = Callable[[Block, Block, int, int, int], bool]


class Case(namedtuple("Case", "min_weight source forward gate image backward")):
    """Everything about one case; both directions start at ``min_weight``.

    ``source`` is the case's condition, a record of atoms on a source
    member's ``SOURCE_FORMS``.  The rewrites ``forward`` and ``backward``
    are functions of a member's even and odd blocks, returning the other
    side's parts in any order.  The image signature has two parts:
    ``gate``, its leading conjuncts, a record of atoms on an image
    member's ``IMAGE_FORMS``, and ``image``, the rest on the blocks, a
    ``Rest``, or None where nothing remains.  A member matches the
    signature when the gate holds and then the rest does.
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
    steps = range(sign * (2 * m - 3), -2 * sign, -2 * sign)
    moved = list(map(add, top, steps))
    moved[0] += sign * 2 * (len(ev) + len(od) - 2 * m)
    shift = (-2 * sign).__add__
    moved += map(shift, top[m:])
    moved += map(shift, low[: len(low) - m])
    moved += map(sub, low[len(low) - m :], steps)
    return moved


def _fwd_7(ev, od):
    return [part + 4 for part in od[1:]] + [3] + [2] * (ev[0] - 2 * len(od))


def _fwd_8(ev, od):
    return [ev[0] - 3, od[0] - 4] + [2] * ((od[1] + 7) // 2)


def _fwd_9(ev, od):
    half = ev[0] // 2
    return [4 * half - 15, 5, 3, 2, 2, 2]


def _fwd_window(start, head, tail, fixed, twos, ev, od):
    """Cases 5, 6, 10 and 12-17: of the parts ev + od from index start on,
    the first len(head) gain head and the last len(tail) gain tail, part
    by part, the rest are copied and the fixed odd parts follow.  Where
    start is 1 the top even, less twos, becomes parts 2; else twos parts 2
    are added."""
    parts = ev[start:] + od
    cut = len(parts) - len(tail)
    moved = list(map(add, parts, head))
    moved += parts[len(head) : cut]
    moved += map(add, parts[cut:], tail)
    moved += fixed
    moved += [2] * ((ev[0] - twos) // 2 if start else twos)
    return moved


def _fwd_11(ev, od):
    return [ev[0] + 1] + list(ev[1:])


def _bwd_7(e, o):
    u, v = len(e), len(o)
    return [u + 2 * v, u + 2 * v - 1] + [part - 4 for part in o[:-1]]


def _bwd_8(e, o):
    return [o[0] + 3, o[1] + 4, 2 * e.count(2) - 7]


def _bwd_9(e, o):
    half = (o[0] + 15) // 4
    return [2 * half, 2 * half - 1]


def _bwd_tower(inc, drop, e, o):
    """Cases 10 and 12-14, the inverse of ``_fwd_window`` where every image
    even is a part 2: the odd parts lose inc, and the count of image evens
    restores the top even."""
    return [2 * len(e) + drop] + [o[k] - c for k, c in enumerate(inc)]


def _bwd_odds(start, head, tail, twos, e, o):
    """Cases 5 and 6, the inverse of ``_fwd_window`` where the copied parts
    are odd: the odd parts, the first len(head) losing head, then the
    leading evens losing tail; the evens below them are the parts 2 that,
    where start is 1, restore the top even."""
    parts = [o[k] - c for k, c in enumerate(head)]
    parts += o[len(head) :]
    parts += [e[k] - c for k, c in enumerate(tail)]
    if start:
        parts.append(2 * (len(e) - len(tail)) + twos)
    return parts


def _bwd_11(e, o):
    return [o[0] - 1] + list(e) + [1]


def _bwd_long(start, head, tail, twos, e, o):
    """Cases 15-17, the inverse of ``_fwd_window`` where the copied parts
    are even: the odd parts lose head, and the evens above the parts 2
    that the rewrite added, the last len(tail) losing tail.  Case 15
    (start 1) counts its parts 2 to restore its top even; the last part
    is indexed, so an even block too short raises."""
    count = e.count(2) if start else twos
    k = len(e) - count
    parts = [o[i] - c for i, c in enumerate(head)]
    parts += e[: k - len(tail)]
    parts += map(sub, e[k - len(tail) : k - 1], tail)
    parts.append(e[k - 1] - tail[-1])
    if start:
        parts.append(2 * count + twos)
    return parts


# One row per case.  The first lines hold the source side: minimum weight,
# condition and forward rewrite.  The rest hold the image side: gate, the
# rest of the signature and backward rewrite.  Cases 2-4 bind the
# direction's sign into the swap; cases 5, 6, 10 and 12-17 bind their window
# (start, head, tail, fixed odd parts, twos) into ``_fwd_window`` and its
# reader.  A source condition and a gate are records of atoms (form, rel,
# constant), all of which must hold, over ``SOURCE_FORMS`` and
# ``IMAGE_FORMS``; case 7's b in (3, 4) is b >= 3 and b <= 4, and its gate
# likewise for v.  ev/e are the even blocks, od/o the odd blocks, u and v
# the image block lengths, f2 the number of image parts equal to 2.
CASES: dict[int, Case] = {
    1: Case(1, (("gap", "==", 0),), _join, (("min(u, v)", "==", 0),), None, _join),
    2: Case(12, (("a - b", "==", 0), ("b", ">=", 2)), partial(_swap, 1),
            (("u - v", "==", 0), ("v", ">=", 2)),
            lambda e, o, u, v, f2: o[-1] - e[0] >= 2 * v - 3, partial(_swap, -1)),
    3: Case(16, (("a - b", ">", 0), ("b", ">=", 2)), partial(_swap, 1),
            (("u - v", ">", 0), ("v", ">=", 2)),
            lambda e, o, u, v, f2: o[0] - o[1] >= 2 * (u - v + 1)
            and e[u - v - 1] - e[u - v] >= 2 * v - 4, partial(_swap, -1)),
    4: Case(21, (("a - b", "<", 0), ("a", ">=", 2)), partial(_swap, 1),
            (("u - v", "<", 0), ("u", ">=", 2)),
            lambda e, o, u, v, f2: o[0] - o[1] >= 2 * (v - u + 1)
            and o[-1] - e[0] >= 2 * u - 3, partial(_swap, -1)),
    5: Case(5, (("a", "==", 1), ("b", ">=", 1), ("gap", ">=", 3)),
            partial(_fwd_window, 0, (-1,), (1,), (), 0),
            (("u", "==", 1), ("v", ">=", 1)), None, partial(_bwd_odds, 0, (-1,), (1,), 0)),
    6: Case(35, (("a", "==", 1), ("b", ">=", 5), ("gap", "==", 1)),
            partial(_fwd_window, 1, (), (1, 1), (), 2),
            (("v", ">=", 3), ("u - v", ">=", 3)),
            lambda e, o, u, v, f2: 2 * u - 3 == o[0] and e[0] - e[1] >= 2 and e[2] == 2,
            partial(_bwd_odds, 1, (), (1, 1), 2)),
    7: Case(54, (("a", "==", 1), ("b", ">=", 3), ("b", "<=", 4), ("gap", "==", 1)),
            _fwd_7,
            (("v", ">=", 3), ("v", "<=", 4), ("u", ">=", 6), ("u % 2", "==", 0)),
            lambda e, o, u, v, f2: o[-1] == 3 and e[0] == 2
            and 2 * v + 1 <= o[0] <= u + 2 * v + 1, _bwd_7),
    8: Case(20, (("a", "==", 1), ("b", "==", 2), ("gap", "==", 1)), _fwd_8,
            (("v", "==", 2), ("u", ">=", 4)),
            lambda e, o, u, v, f2: o[0] - o[1] == 2 and e[0] == 2
            and o[1] - 2 * u + 11 > 0 and o[0] >= 5, _bwd_8),
    # the rest implies the gate: three parts 2 below three odd parts
    9: Case(23, (("a", "==", 1), ("b", "==", 1), ("gap", "==", 1)), _fwd_9,
            (("u", "==", 3), ("v", "==", 3)),
            lambda e, o, u, v, f2: e == (2, 2, 2) and o[1:] == (5, 3)
            and o[0] >= 9 and o[0] % 4 == 1, _bwd_9),
    10: Case(83, (("a", "==", 2), ("b", "==", 1)),
             partial(_fwd_window, 1, (7, 6), (), (5,), 18),
             (("v", "==", 3), ("u", ">=", 5)),
             lambda e, o, u, v, f2: o[2] == 5 and e[0] == 2 and 2 * u + 25 >= o[0],
             partial(_bwd_tower, (7, 6), 18)),
    11: Case(7, (("a", ">=", 3), ("b", "==", 1), ("od0", "==", 1)), _fwd_11,
             (("u", ">=", 2), ("v", "==", 1)), None, _bwd_11),
    12: Case(95, (("a", "==", 3), ("b", "==", 1), ("od0", ">=", 3)),
             partial(_fwd_window, 1, (7, 5, 4), (), (), 16),
             (("v", "==", 3), ("u", ">=", 4)),
             lambda e, o, u, v, f2: o[2] >= 7 and e[0] == 2 and 2 * u + 23 >= o[0],
             partial(_bwd_tower, (7, 5, 4), 16)),
    13: Case(159, (("a", "==", 4), ("b", "==", 1), ("od0", ">=", 3)),
             partial(_fwd_window, 1, (7, 5, 3, 2), (), (3,), 20),
             (("u", ">=", 6), ("v", "==", 5)),
             lambda e, o, u, v, f2: o[4] == 3 and e[0] == 2 and 2 * u + 27 >= o[0],
             partial(_bwd_tower, (7, 5, 3, 2), 20)),
    14: Case(227, (("a", "==", 5), ("b", "==", 1), ("od0", ">=", 3)),
             partial(_fwd_window, 1, (9, 7, 5, 3, 2), (), (), 26),
             (("u", ">=", 6), ("v", "==", 5)),
             lambda e, o, u, v, f2: o[4] >= 5 and e[0] == 2 and 2 * u + 35 >= o[0],
             partial(_bwd_tower, (9, 7, 5, 3, 2), 26)),
    15: Case(373, (("a", ">=", 6), ("a", "<=", 10), ("b", "==", 1), ("od0", ">=", 3)),
             partial(_fwd_window, 1, (5, 3, 1), (1,), (), 10),
             (("f2", ">", 12), ("v", "==", 3), ("u - f2", ">=", 3), ("u - f2", "<=", 7)),
             lambda e, o, u, v, f2: e[u - f2 - 1] >= 4 and 2 * f2 + 15 >= o[0],
             partial(_bwd_long, 1, (5, 3, 1), (1,), 10)),
    16: Case(47, (("a", ">=", 11), ("b", "==", 1), ("od0", ">=", 3), ("top_gap", "<=", 10)),
             partial(_fwd_window, 0, (5, 3, 1), (-2, -2, -2, -2, -1), (), 0),
             (("u", ">=", 9), ("v", "==", 3), ("f2", "<=", 5)),
             lambda e, o, u, v, f2: o[0] - o[1] <= 12 and e[u - 6] - e[u - 5] >= 2,
             partial(_bwd_long, 0, (5, 3, 1), (-2, -2, -2, -2, -1), 0)),
    17: Case(59, (("a", ">=", 11), ("b", "==", 1), ("od0", ">=", 3), ("top_gap", ">=", 12)),
             partial(_fwd_window, 0, (-7, 3, 1), (-2, -2, -2, -2, -1), (), 6),
             (("u", ">=", 15), ("v", "==", 3), ("f2", ">=", 6), ("f2", "<=", 11)),
             lambda e, o, u, v, f2: e[u - 12] - e[u - 11] >= 2,
             partial(_bwd_long, 0, (-7, 3, 1), (-2, -2, -2, -2, -1), 6)),
}
NUM_CASES = len(CASES)


def from_parts(parts: Iterable[int]) -> Partition:
    """The validated partition with these parts; raises ValueError on a part below 1."""
    return Partition(sorted(parts, reverse=True))


@cache
def record_clamps(
    field: str, forms: tuple[str, ...], records: tuple[Record, ...]
) -> tuple[tuple[int, int], ...]:
    """Per form, in the order of forms, the narrowest [lo, hi] such that
    clamping the form's value to it leaves every comparison in these
    records true or false as it was; (0, 0) for a form that none compares.
    Raises ValueError, naming the row field, on an atom on any other form,
    or with a relation other than a comparison, or a constant not an int."""
    ends: dict[str, list[int]] = {form: [] for form in forms}
    for record in records:
        for atom in record:
            form, rel, constant = atom
            if form not in ends:
                raise ValueError(f"{field} atom {atom} reads {form!r}, not one of {forms}")
            if rel not in _RELATIONS or not isinstance(constant, int):
                raise ValueError(f"{field} atom {atom} is none of {(*_RELATIONS,)} with an int")
            _, below, above = _RELATIONS[rel]
            ends[form] += (constant + below, constant + above)
    return tuple([(min(found), max(found)) if found else (0, 0) for found in ends.values()])


def record_cases(field: str, forms: tuple[str, ...], values: tuple[int, ...]) -> tuple[int, ...]:
    """Every case of the live ``CASES`` whose record in the row field holds
    on these values of forms, in case order: every atom compares its form
    with its constant.  The atoms must have passed ``record_clamps``."""
    named = dict(zip(forms, values))
    matches = []
    for case, row in CASES.items():
        for form, rel, constant in getattr(row, field):
            if not _RELATIONS[rel][0](named[form], constant):
                break
        else:
            matches.append(case)
    return tuple(matches)


class Classifier:
    """Every case whose source condition, or image signature, holds for a
    pair of blocks, in case order.

    ``source`` keeps the matches per cell: a member's ``SOURCE_FORMS``,
    computed straight from the blocks, each clamped to its [lo, hi] from
    ``record_clamps`` (top_gap's <= 10 and >= 12 give [10, 12]).  The
    first time a cell is met, ``record_cases`` reads the 17 source records
    of the live ``CASES`` on the cell itself, which clamping leaves a
    valid input to every atom.  ``image`` keeps one entry per raw ``(u,
    v, f2)``, so each call makes one lookup: the gated rows, (case,
    signature rest), found the first time the key is met by reading the
    17 gate records on its ``IMAGE_FORMS``, and the matches themselves
    where none of those rows has a rest, else None.  A Classifier derives
    the clamps of the live records of both sides when it is made (once
    per set of records in a process), so it refuses a bad atom on either
    side before anything is classified.

    This is exact, not a dispatch that assumes the cases exclusive: every
    atom has one truth value on a whole cell, so a source member's
    matches are a function of its cell, and which gates hold is a
    function of ``(u, v, f2)``.  Where every gated row has a rest of None,
    its gate is its whole signature, so the key alone fixes the matches;
    elsewhere each member's candidate rests all run on its blocks.  So
    every member still gets every condition and every signature, and an
    overlap still shows as more than one match.  Over the weights 55..60,
    counted per weight, the 34 905 source members fall in 533 cells, so
    the source records are read 533 times, and the 42 447 image members
    have 2 274 keys, 1 270 of them with fixed matches.  The image side
    keeps its raw keys: a signature's rest reads the blocks themselves,
    and of the 74 798 image classifications the verifier makes there (the
    walk and the images of checked sources), only those 2 274 read the
    gates and 54 306 get fixed matches.
    """

    def __init__(self) -> None:
        rows = CASES.values()
        record_clamps("gate", IMAGE_FORMS, tuple([row.gate for row in rows]))
        clamps = record_clamps("source", SOURCE_FORMS, tuple([row.source for row in rows]))
        self._clamps = tuple([end for clamp in clamps for end in clamp])
        self._cells: dict[tuple[int, ...], tuple[int, ...]] = {}
        self._keys: dict[
            tuple[int, int, int], tuple[tuple[int, ...] | None, tuple[tuple[int, Rest | None], ...]]
        ] = {}

    def source(self, ev: Block, od: Block) -> tuple[int, ...]:
        alo, ahi, blo, bhi, dlo, dhi, glo, ghi, olo, ohi, tlo, thi = self._clamps
        a, b = len(ev), len(od)
        # each form, 0 where its parts do not exist, clamped to its [lo, hi]
        gap = ev[-1] - od[0] if a and b else 0
        od0 = od[0] if b else 0
        top_gap = ev[0] - ev[1] if a > 1 else 0
        cell = (
            alo if a <= alo else ahi if a >= ahi else a,
            blo if b <= blo else bhi if b >= bhi else b,
            dlo if (d := a - b) <= dlo else dhi if d >= dhi else d,
            glo if gap <= glo else ghi if gap >= ghi else gap,
            olo if od0 <= olo else ohi if od0 >= ohi else od0,
            tlo if top_gap <= tlo else thi if top_gap >= thi else top_gap,
        )
        matches = self._cells.get(cell)
        if matches is None:
            matches = self._cells[cell] = record_cases("source", SOURCE_FORMS, cell)
        return matches

    def image(self, e: Block, o: Block) -> tuple[int, ...]:
        u, v, f2 = key = len(e), len(o), e.count(2)
        entry = self._keys.get(key)
        if entry is None:
            cases = record_cases("gate", IMAGE_FORMS, (u, v, f2, u - v, u - f2, u % 2, min(u, v)))
            rows = tuple([(case, CASES[case].image) for case in cases])
            fixed = all(rest is None for _, rest in rows)
            entry = self._keys[key] = (cases if fixed else None, rows)
        matches, rows = entry
        if matches is not None:
            return matches
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
