"""The eight families of partitions whose parts are separated by parity.

A family fixes a parity and a repetition mode for the upper block and the
opposite parity with its own mode for the lower block; every upper part
must be strictly larger than every lower part, and either block may be
empty.  Tokens name the lower block first: ``od_eu`` is distinct odd
parts below unrestricted even parts.

Counting uses an exact dynamic program over part values taken in
decreasing order, with one array for states that have not yet started
the lower block and one for states that have.  Sampling unranks against
completion counts tabulated in increasing part order: each next part and
its multiplicity are found by bisection, and the table is triangular,
row v holding only the weights 0..n - v that can remain once v is
placed.  Both tables are built by slice-add kernels (``_take``,
``_cross``) that keep the per-cell additions in C.

Enumeration is an independent route, so counting, sampling and
enumeration cross-check each other.  ``member_blocks`` walks each member
as the two blocks it is made of: a generator places the upper parts, and
each lower block comes from a list builder memoised per walk, so members
share their block tuples and need no split.
``enumerate_family`` joins the two blocks into a ``Partition``; the
exhaustive verifier consumes the blocks directly and builds a
``Partition`` only to show a failure.  Membership is decided on the two
blocks (``blocks_in_family``); ``in_family`` takes them from
``core.parity_split``, the package's one parity split.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import add, itemgetter
from typing import Iterable, Iterator

from .core import Block, Partition, parity_split

__all__ = [
    "ENUMERATION_CUTOFF",
    "SAMPLE_CUTOFF",
    "COUNT_CUTOFF",
    "Family",
    "CountTable",
    "FamilySampler",
    "in_family",
    "enumerate_family",
    "count_family",
    "sample_family",
    "counts_csv",
]

# Above this weight enumeration is refused; counting and sampling still work.
ENUMERATION_CUTOFF = 70
# Above this weight a sampler is refused: its tables grow as n^2 cells of
# O(sqrt n)-digit counts (see the README for the measured peak RSS).
SAMPLE_CUTOFF = 5000
# Above this weight counting is refused: a table is a list per weight of
# counts up to O(sqrt n) digits, built in O(n^2) additions (see the README).
COUNT_CUTOFF = 10_000


def check_enumerable(n: int, cutoff: int = ENUMERATION_CUTOFF) -> None:
    """Raise ValueError unless weight n is nonnegative and at most the
    enumeration cutoff."""
    if n < 0:
        raise ValueError(f"weight must be nonnegative, got {n}")
    if n > cutoff:
        raise ValueError(
            f"enumeration at n={n} exceeds the cutoff {cutoff}; use counting or sampling"
        )


def check_samplable(n: int) -> None:
    """Raise ValueError unless weight n is nonnegative and at most ``SAMPLE_CUTOFF``."""
    if n < 0:
        raise ValueError(f"weight must be nonnegative, got {n}")
    if n > SAMPLE_CUTOFF:
        raise ValueError(f"sampling at n={n} exceeds the cutoff {SAMPLE_CUTOFF}")


def check_countable(n: int) -> None:
    """Raise ValueError unless weight n is nonnegative and at most ``COUNT_CUTOFF``."""
    if n < 0:
        raise ValueError(f"weight must be nonnegative, got {n}")
    if n > COUNT_CUTOFF:
        raise ValueError(f"counting at n={n} exceeds the cutoff {COUNT_CUTOFF}")


class Family(Enum):
    """One of the eight parity-separated families, in chain order.

    Token letters: ``e``/``o`` give the block's parity, ``u``/``d`` say
    whether its parts are unrestricted or distinct.  The lower block is
    named first, so ``eu_od`` has unrestricted even parts below distinct
    odd parts.
    """

    ED_OD = "ed_od"
    OD_ED = "od_ed"
    OD_EU = "od_eu"
    EU_OD = "eu_od"
    ED_OU = "ed_ou"
    EU_OU = "eu_ou"
    OU_ED = "ou_ed"
    OU_EU = "ou_eu"

    def __init__(self, token: str):
        # plain attributes, read from the token once per member
        self.lower_odd = token[0] == "o"
        self.lower_distinct = token[1] == "d"
        self.upper_odd = token[3] == "o"
        self.upper_distinct = token[4] == "d"

    @classmethod
    def from_token(cls, token: str) -> "Family":
        try:
            return cls(token)
        except ValueError:
            valid = ", ".join(fam.value for fam in cls)
            raise ValueError(f"unknown family {token!r}, expected one of: {valid}") from None


def in_family(p: Partition, family: Family) -> bool:
    """Membership test: block parities, repetition modes, strict separation."""
    return blocks_in_family(*parity_split(p), family)


def blocks_in_family(evens: Block, odds: Block, family: Family) -> bool:
    """``in_family`` on a partition given as its even and odd blocks, each
    in decreasing order."""
    upper, lower = (odds, evens) if family.upper_odd else (evens, odds)
    if upper and lower and upper[-1] <= lower[0]:
        return False
    if family.upper_distinct and len(set(upper)) != len(upper):
        return False
    if family.lower_distinct and len(set(lower)) != len(lower):
        return False
    return True


def member_blocks(
    family: Family, n: int, *, cutoff: int = ENUMERATION_CUTOFF
) -> Iterator[tuple[Block, Block]]:
    """Yield every member at weight n as its ``(evens, odds)`` blocks, in the
    decreasing lexicographic order of ``enumerate_family``.

    A generator walks the upper block part by part.  Where a lower part
    comes next, it takes every lower block starting with that part from a
    list builder that steps by 2 over the lower-parity values.  The builder
    is memoised for the walk, so members that share a block share its
    tuple; the memo holds at most the lower-parity partitions of weights up
    to n.  Raises ValueError for negative n or when n exceeds the cutoff.
    """
    check_enumerable(n, cutoff)
    upper_rem = 1 if family.upper_odd else 0
    upper_distinct = family.upper_distinct
    lower_distinct = family.lower_distinct
    memo: dict[tuple[int, int], list[Block]] = {}

    def lower_blocks(remaining: int, value: int) -> list[Block]:
        """Every lower block of weight ``remaining`` whose largest part is ``value``."""
        blocks = memo.get((remaining, value))
        if blocks is None:
            rest = remaining - value
            if not rest:
                blocks = [(value,)]
            else:
                blocks = []
                head = (value,)
                # the next part has value's parity, fits in rest, and is
                # below value if the lower block is distinct
                top = min(value - 2 if lower_distinct else value, rest - (rest - value) % 2)
                for next_value in range(top, 0, -2):
                    blocks += map(head.__add__, lower_blocks(rest, next_value))
            memo[(remaining, value)] = blocks
        return blocks

    def segments(upper: Block, remaining: int, largest: int) -> Iterator[tuple[Block, list[Block]]]:
        """Pairs (upper block, its lower blocks) in member order."""
        if not remaining:
            yield upper, [()]
            return
        for value in range(min(largest, remaining), 0, -1):
            if value % 2 == upper_rem:
                yield from segments(
                    upper + (value,), remaining - value, value - 1 if upper_distinct else value
                )
            else:
                lowers = lower_blocks(remaining, value)
                if lowers:
                    yield upper, lowers

    if family.upper_odd:
        for upper, lowers in segments((), n, n):
            yield from zip(lowers, repeat(upper))
    else:
        for upper, lowers in segments((), n, n):
            yield from zip(repeat(upper), lowers)


def enumerate_family(
    family: Family, n: int, *, cutoff: int = ENUMERATION_CUTOFF
) -> Iterator[Partition]:
    """Yield every member of the family at weight n in decreasing lexicographic order.

    Raises ValueError for negative n or when n exceeds the cutoff; use
    counting or sampling beyond it.
    """
    blocks = member_blocks(family, n, cutoff=cutoff)
    if family.upper_odd:
        for evens, odds in blocks:
            yield Partition(odds + evens)
    else:
        for evens, odds in blocks:
            yield Partition(evens + odds)


def _take(row: list[int], value: int, distinct: bool) -> None:
    """Let the counts in ``row``, indexed by weight, use parts equal to
    ``value``: at most once if distinct, else any number of times."""
    if distinct:
        row[value:] = map(add, row[value:], row[:-value])
        return
    # row[m] += row[m - value] in ascending m: each block of length value
    # adds the block before it, which is already updated
    for start in range(value, len(row), value):
        stop = start + value
        row[start:stop] = map(add, row[start:stop], row[start - value : start])


def _cross(crossed: list[int], open_block: list[int], value: int, distinct: bool) -> None:
    """Take the lower-parity ``value`` into ``crossed``, from crossed states
    and, crossing the blocks, from open ones:
    ``crossed[m] += crossed[m - value] + open_block[m - value]``, where the
    right-hand ``crossed`` is the old row if distinct and the updated one
    otherwise."""
    if distinct:
        source = map(add, crossed[:-value], open_block[:-value])
        crossed[value:] = map(add, crossed[value:], source)
        return
    for start in range(value, len(crossed), value):
        stop = start + value
        source = map(add, crossed[start - value : start], open_block[start - value : start])
        crossed[start:stop] = map(add, crossed[start:stop], source)


@dataclass(frozen=True)
class CountTable:
    """Exact member counts of one family at every weight 0..max_n."""

    family: Family
    counts: tuple[int, ...]

    @property
    def max_n(self) -> int:
        return len(self.counts) - 1

    def __getitem__(self, n: int) -> int:
        return self.counts[n]

    @classmethod
    def build(cls, family: Family, max_n: int) -> "CountTable":
        """Tabulate counts by scanning part values from max_n down to 1.

        ``open_block[m]`` counts partial partitions of weight m that have
        used only upper-parity values so far; ``crossed[m]`` counts those
        that already contain a lower part.  Taking a lower-parity value
        from an open state performs the block crossing, after which
        upper-parity values are no longer available.
        """
        check_countable(max_n)
        upper_rem = 1 if family.upper_odd else 0
        open_block = [0] * (max_n + 1)
        open_block[0] = 1
        crossed = [0] * (max_n + 1)
        for value in range(max_n, 0, -1):
            if value % 2 == upper_rem:
                _take(open_block, value, family.upper_distinct)
            else:
                _cross(crossed, open_block, value, family.lower_distinct)
        return cls(family=family, counts=tuple(map(add, open_block, crossed)))


_tables: dict[Family, CountTable] = {}


def count_family(family: Family, n: int) -> int:
    """Exact number of members at weight n, never by enumeration."""
    check_countable(n)
    table = _tables.get(family)
    if table is None or table.max_n < n:
        # grow geometrically so ascending queries cost O(n^2) overall, but
        # never past the cutoff, so a legal query is never refused
        target = min(max(n, 2 * table.max_n if table else 0, 64), COUNT_CUTOFF)
        table = CountTable.build(family, target)
        _tables[family] = table
    return table[n]


def counts_csv(lo: int, hi: int, families: Iterable[Family] | None = None) -> str:
    """CSV table of counts, one row per weight, columns in chain order."""
    if lo < 0 or hi < lo:
        raise ValueError(f"bad weight range {lo}..{hi}")
    chosen = tuple(Family) if families is None else tuple(families)
    header = "n," + ",".join(f"p_{fam.value}" for fam in chosen)
    rows = [header]
    for fam in chosen:
        count_family(fam, hi)  # one table per family, sized for the whole range
    for n in range(lo, hi + 1):
        rows.append(f"{n}," + ",".join(str(count_family(fam, n)) for fam in chosen))
    return "\n".join(rows)


class FamilySampler:
    """Uniform sampler for one family at a fixed weight, by unranking.

    Completion counts are tabulated per (largest value allowed, weight
    still to place, crossed into the lower block yet) state, in increasing
    part order.  Member ``index`` in decreasing lexicographic order, the
    order of ``enumerate_family``, is found by bisection (Nijenhuis and
    Wilf's unranking): the completions whose parts are all at most v are
    the last ``table[v][remaining]`` of the current block, so the next part
    is the smallest v that still covers the index.  Of the members that go
    on with v, the first ``table[v][remaining - c * v]`` have at least c
    copies of it, so its multiplicity is a bisection too.  A draw costs
    O(log n) table reads per distinct part.

    Once a part v is placed every later lookup has weight at most n - v,
    so row v keeps only weights 0..n - v and the tables are triangular;
    the first part reads column n, which is kept apart as ``_top``.
    Weights above ``SAMPLE_CUTOFF`` are refused with ValueError.
    """

    def __init__(self, family: Family, n: int):
        check_samplable(n)
        self.family = family
        self.n = n
        upper_rem = 1 if family.upper_odd else 0
        # before[v][m]: completions of weight m using values <= v, lower block untouched
        # after[v][m]:  the same once some lower part has been placed; the
        # empty completion is valid there, the crossing part already exists
        # Rows are never written once stored, so equal rows are shared objects.
        before = [[1] + [0] * n]
        after = [before[0]]
        # top[v] = before[v][n], the one cell past the triangle
        top = [before[0][n]]
        for value in range(1, n + 1):
            size = n + 1 - value
            b_row = before[-1][:size]
            # before[value][m] gains source[m - value]: the members whose
            # first part is value
            if value % 2 == upper_rem:
                a_row = after[-1]
                _take(b_row, value, family.upper_distinct)
                source = before[-1] if family.upper_distinct else b_row
            else:
                a_row = after[-1][:size]
                _take(a_row, value, family.lower_distinct)
                source = after[-1] if family.lower_distinct else a_row
                # from an untouched state, placing this value crosses the blocks
                b_row[value:] = map(add, b_row[value:], source)
            before.append(b_row)
            after.append(a_row)
            top.append(top[-1] + source[size - 1])
        self._before = before
        self._after = after
        self._top = top
        self.count: int = top[n]

    def unrank(self, index: int) -> Partition:
        """The index-th member in decreasing lexicographic order."""
        if not 0 <= index < self.count:
            raise ValueError(f"index {index} out of range, count is {self.count}")
        family = self.family
        upper_rem = 1 if family.upper_odd else 0
        upper_distinct = family.upper_distinct
        lower_distinct = family.lower_distinct
        before, after = self._before, self._after
        parts: list[int] = []
        remaining = limit = self.n
        table = before
        # total: members of the current block; index counts from its first
        total = self.count
        while remaining:
            # the last table[v][remaining] members of the block have parts <= v;
            # the next part is the smallest v whose suffix still holds index
            if parts:
                value = bisect_left(
                    table, total - index, 1, limit + 1, key=itemgetter(remaining)
                )
                index -= total - table[value][remaining]
            else:
                value = bisect_left(self._top, total - index, 1, limit + 1)
                index -= total - self._top[value]
            if value % 2 == upper_rem:
                table, distinct = before, upper_distinct
            else:
                table, distinct = after, lower_distinct
            if distinct:
                rest = remaining - value
            else:
                # the first row[rest] members have at least (remaining - rest) // value
                # copies of value; take the most copies whose prefix holds index,
                # then skip the members that have one copy more
                row = table[value]
                rests = range(remaining % value, remaining - value + 1, value)
                rest = rests[bisect_right(rests, index, key=row.__getitem__)]
                if rest >= value:
                    index -= row[rest - value]
            parts += [value] * ((remaining - rest) // value)
            remaining = rest
            limit = value - 1
            total = table[limit][remaining]
        return Partition(parts)

    def sample(self, rng: random.Random) -> Partition:
        """Draw one member uniformly at random."""
        if self.count == 0:
            raise ValueError(f"family {self.family.value} has no members at n={self.n}")
        return self.unrank(rng.randrange(self.count))


def sample_family(family: Family, n: int, seed: int) -> Partition:
    """One uniform draw; a fixed (family, n, seed) always gives the same member."""
    return FamilySampler(family, n).sample(random.Random(seed))
