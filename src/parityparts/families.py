"""The eight families of partitions whose parts are separated by parity.

A family fixes a parity and a repetition mode for the upper block and the
opposite parity with its own mode for the lower block; every upper part
must be strictly larger than every lower part, and either block may be
empty.  Tokens name the lower block first: ``od_eu`` is distinct odd
parts below unrestricted even parts.

Counting uses an exact dynamic program over part values taken in
decreasing order, with one array for states that have not yet started
the lower block and one for states that have.  Every part placed before
value v exceeds v, so taking v leaves the weights v + 1..2v unchanged:
the program sets cell v from the empty state and slice-adds only from
weight 2v on, about half the additions of a full pass.  Sampling unranks
against completion counts tabulated in increasing part order, where no
such band exists: each next part and its multiplicity are found by
bisection, and the table is triangular, row v holding only the weights
0..n - v that can remain once v is placed.  Past about n / 2, once every
weight that a table's row v - 1 stores is below v, a part v changes none
of it, so that table shares it as row v, not a copy.  Where the upper parts
are even (``od_ed``, ``od_eu``, ``ou_ed``, ``ou_eu``), the weight left while
the upper block is open always has n's parity, so the rows for that state
hold only the weights of n's parity: about 3n²/8 cells in all.  Where they
are odd, the lower parts are even, so the rows for the state after the
crossing hold only the even weights: about 15n²/32 cells.  Both tables are
built by slice-add kernels (``_take``, and ``_cross`` for counting) that
keep the per-cell additions in C.  A draw comes out as its two blocks (``unrank_blocks``):
the upper block is the prefix of parts placed before the walk crosses into
the lower block, so neither a ``Partition`` nor a split is needed.

Enumeration is an independent route, so counting, sampling and
enumeration cross-check each other.  ``member_blocks`` walks each member
as the two blocks it is made of: a generator places the upper parts, and
each lower block comes from a list builder memoised per walk, so members
share their block tuples and need no split.  An unrestricted upper block
is placed by part multiplicities (Knuth, TAOCP 7.2.1.4): each distinct
value with all its copies in one step, and the least upper value (2 or 1)
in place, with only the copy counts a lower block can complete.  A lower
block is not looked for under a top whose heaviest block is lighter than
the weight left, nor at all when the lower parts are even and the weight
left is odd.
``enumerate_family`` joins the two blocks into a ``Partition``; the
exhaustive verifier consumes the blocks directly and builds a
``Partition`` only to show a failure.  Membership is decided on the two
blocks (``blocks_in_family``); ``in_family`` takes them from
``core.parity_split``, the package's one parity split.
"""

from __future__ import annotations

import random
from bisect import bisect_left, bisect_right
from collections.abc import Iterable, Iterator
from enum import Enum
from itertools import accumulate, repeat
from operator import add, itemgetter

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
# O(sqrt n)-digit counts.  At 5000 one build takes 1.0 s and 384 MiB peak RSS
# for ou_eu, and 1.0 s and 401 MiB for eu_ou, the largest odd-upper family,
# whose table keeps one parity only after the crossing (Python 3.11.7,
# x86-64 Xeon VM; the README lists smaller weights).
SAMPLE_CUTOFF = 5000
# Above this weight counting is refused: a table is a list per weight of
# counts up to O(sqrt n) digits, built in O(n^2) additions (see the README).
COUNT_CUTOFF = 10_000
# Above this many draws a sampling run is refused, counting the draws of all
# weights of a sampled verification run together: a draw costs 0.3-0.4 ms
# at n = 5000, so a run's draws stay within about 40 s (see the README).
MAX_DRAWS = 100_000
# Above this many weights a sampled verification run is refused: it builds
# one sampler per weight, about 1 s each near SAMPLE_CUTOFF.  With both bounds
# at their limits, 50 weights ending at the cutoff and MAX_DRAWS draws in all,
# the longest legal run takes about a minute (see the README).
MAX_SAMPLED_WEIGHTS = 50


def check_enumerable(n: int, cutoff: int = ENUMERATION_CUTOFF) -> None:
    """Raise ValueError unless weight n is nonnegative and at most the
    enumeration cutoff."""
    if n < 0:
        raise ValueError(f"weight must be nonnegative, got {n}")
    if n > cutoff:
        raise ValueError(
            f"enumeration at n={n} exceeds the cutoff {cutoff}; use counting or sampling"
        )


def check_range(lo: int, hi: int) -> None:
    """Raise ValueError unless lo..hi is a weight range: 0 <= lo <= hi."""
    if lo < 0 or hi < lo:
        raise ValueError(f"bad weight range {lo}..{hi}")


def check_samplable(n: int) -> None:
    """Raise ValueError unless weight n is nonnegative and at most ``SAMPLE_CUTOFF``."""
    if n < 0:
        raise ValueError(f"weight must be nonnegative, got {n}")
    if n > SAMPLE_CUTOFF:
        raise ValueError(f"sampling at n={n} exceeds the cutoff {SAMPLE_CUTOFF}")


def check_draws(count: int) -> None:
    """Raise ValueError unless a run's draw count is positive and at most
    ``MAX_DRAWS``."""
    if count < 1:
        raise ValueError(f"samples must be positive, got {count}")
    if count > MAX_DRAWS:
        raise ValueError(f"{count} draws exceed the cutoff {MAX_DRAWS}")


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

    A generator walks the values from the largest down.  At an upper-parity
    value v it places the upper parts: one copy of v and a step down to
    v - 1 if the upper block is distinct, else k copies of v at once, for k
    from ``remaining // v`` down to 1, each followed by the walk below v.
    That is the order of the one-part-at-a-time walk: after one copy of v
    it tried v again before any smaller value, so the members with more
    copies of v come first, and among equal copies the rest decides.  The
    least upper value (2 for even upper parts, 1 for odd ones) is resolved
    in place: below it only a lower block of top 1 can follow, or nothing
    when that value is 1, so the walk takes only the copy counts whose rest
    that block can complete, one or two of them, with no deeper step.

    Where a lower part t comes next, it takes every lower block starting
    with t from a list builder that steps by 2 over the lower-parity values.
    A top t is skipped when ``cap[t]``, the heaviest lower block with parts
    at most t, is below the weight left: the builder would return nothing
    there.  Where the lower parts are even and the weight left is odd, the
    walk steps over the odd upper values alone, since no lower block can
    come next.  The builder is memoised for the walk, so members that share a
    block share its tuple; the memo holds at most the lower-parity
    partitions of weights up to n.  Raises ValueError for negative n or
    when n exceeds the cutoff.
    """
    check_enumerable(n, cutoff)
    upper_rem = 1 if family.upper_odd else 0
    upper_distinct = family.upper_distinct
    lower_distinct = family.lower_distinct
    least_upper, least_lower = 2 - upper_rem, 1 + upper_rem
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

    # cap[t]: the heaviest lower block whose parts are at most t, or n when
    # an unrestricted lower block has a part to repeat
    if lower_distinct:
        cap = list(accumulate(t if t % 2 != upper_rem else 0 for t in range(n + 1)))
    else:
        cap = [0] * least_lower + [n] * (n + 1 - least_lower)

    def segments(upper: Block, remaining: int, largest: int) -> Iterator[tuple[Block, list[Block]]]:
        """Pairs (upper block, its lower blocks) in member order."""
        if not remaining:
            yield upper, [()]
            return
        top = min(largest, remaining)
        if upper_rem and remaining % 2:
            # even lower parts never weigh an odd amount: only the odd
            # upper values can come next
            values = range(top - 1 + top % 2, 0, -2)
        else:
            values = range(top, 0, -1)
        for value in values:
            if value % 2 != upper_rem:
                if cap[value] >= remaining:
                    lowers = lower_blocks(remaining, value)
                    if lowers:
                        yield upper, lowers
            elif upper_distinct:
                yield from segments(upper + (value,), remaining - value, value - 1)
            elif value != least_upper:
                for copies in range(remaining // value, 0, -1):
                    yield from segments(
                        upper + (value,) * copies, remaining - copies * value, value - 1
                    )
            else:
                # below the least upper value only a lower block of top 1
                # can follow (none below 1, where cap[0] == 0 leaves rest 0):
                # take just the copy counts whose rest that block completes
                fewest = max(1, -((cap[value - 1] - remaining) // value))
                for copies in range(remaining // value, fewest - 1, -1):
                    rest = remaining - copies * value
                    yield upper + (value,) * copies, lower_blocks(rest, 1) if rest else [()]

    if family.upper_odd:
        for upper, lowers in segments((), n, n):
            yield from zip(lowers, repeat(upper))
    else:
        for upper, lowers in segments((), n, n):
            yield from zip(repeat(upper), lowers)


def enumerate_family(family: Family, n: int) -> Iterator[Partition]:
    """Yield every member of the family at weight n in decreasing lexicographic order.

    Raises ValueError for negative n or when n exceeds ``ENUMERATION_CUTOFF``;
    use counting or sampling beyond it.
    """
    blocks = member_blocks(family, n)
    if family.upper_odd:
        for evens, odds in blocks:
            yield Partition(odds + evens)
    else:
        for evens, odds in blocks:
            yield Partition(evens + odds)


def _take(row: list[int], value: int, distinct: bool, first: int) -> None:
    """Let the counts in ``row``, indexed by weight, use parts equal to
    ``value``: at most once if distinct, else any number of times.  Only
    weights from ``first`` (at least ``value``) up are updated; the caller
    guarantees that the weights below it gain nothing.  A row that keeps
    one parity of weights is passed with weight and value both halved."""
    if distinct:
        row[first:] = map(add, row[first:], row[first - value : -value])
        return
    # row[m] += row[m - value] in ascending m: each block of length value
    # adds the block before it, which is already updated
    for start in range(first, len(row), value):
        stop = start + value
        row[start:stop] = map(add, row[start:stop], row[start - value : start])


def _cross(
    crossed: list[int], open_block: list[int], value: int, distinct: bool, first: int
) -> None:
    """Take the lower-parity ``value`` into ``crossed``, from crossed states
    and, crossing the blocks, from open ones:
    ``crossed[m] += crossed[m - value] + open_block[m - value]``, where the
    right-hand ``crossed`` is the old row if distinct and the updated one
    otherwise.  As in ``_take``, only weights from ``first`` up are updated."""
    if distinct:
        source = map(add, crossed[first - value : -value], open_block[first - value : -value])
        crossed[first:] = map(add, crossed[first:], source)
        return
    for start in range(first, len(crossed), value):
        stop = start + value
        source = map(add, crossed[start - value : start], open_block[start - value : start])
        crossed[start:stop] = map(add, crossed[start:stop], source)


class CountTable:
    """Exact member counts of one family at every weight 0..max_n."""

    __slots__ = ("family", "counts")

    def __init__(self, family: Family, counts: tuple[int, ...]):
        self.family = family
        self.counts = counts

    def __eq__(self, other: object) -> bool:
        same = type(other) is CountTable
        return same and self.family is other.family and self.counts == other.counts

    def __hash__(self) -> int:
        return hash((self.family, self.counts))

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

        Band invariant: before value v is taken, every part placed so far
        exceeds v, so apart from ``open_block[0] == 1`` every nonzero cell
        of either row sits at weight v + 1 or above.  Taking v therefore
        adds ``open_block[0]`` to cell v, adds nothing to cells v + 1..2v,
        and leaves the slice-add to start at 2v for an unrestricted block
        (its first block of length v reads the updated cell v) or at
        2v + 1 for a distinct one.  That is about sum(max(0, n - 2v))
        additions instead of sum(n - v), half as many.
        """
        check_countable(max_n)
        upper_rem = 1 if family.upper_odd else 0
        open_block = [0] * (max_n + 1)
        open_block[0] = 1
        crossed = [0] * (max_n + 1)
        for value in range(max_n, 0, -1):
            if value % 2 == upper_rem:
                distinct = family.upper_distinct
                open_block[value] += open_block[0]
                _take(open_block, value, distinct, 2 * value + distinct)
            else:
                distinct = family.lower_distinct
                crossed[value] += open_block[0]
                _cross(crossed, open_block, value, distinct, 2 * value + distinct)
        return cls(family=family, counts=tuple(map(add, open_block, crossed)))


def count_family(family: Family, n: int) -> int:
    """Exact number of members at weight n, never by enumeration; each call
    builds a table, so read many weights from one ``CountTable.build``."""
    return CountTable.build(family, n)[n]


def counts_csv(lo: int, hi: int, families: Iterable[Family] | None = None) -> str:
    """CSV table of counts, one row per weight, columns in chain order."""
    check_range(lo, hi)
    chosen = tuple(Family) if families is None else tuple(families)
    header = "n," + ",".join(f"p_{fam.value}" for fam in chosen)
    rows = [header]
    tables = [CountTable.build(fam, hi) for fam in chosen]
    for n in range(lo, hi + 1):
        rows.append(f"{n}," + ",".join(str(table[n]) for table in tables))
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
    the first part reads column n, which is kept apart as ``_top``.  Rows
    may hold more than their triangle, never less, and every stored cell is
    exact.  Each table decides its sharing alone: once every weight its
    row v - 1 stores is below v, from about v = n / 2 + 1, taking v
    changes none of that row's cells, so its row v is row v - 1, the same
    object.  Past that point in both tables only ``_top`` still grows.

    Parity rule: in a family whose upper parts are even, every weight left
    to place while the upper block is open has n's parity.  So the
    ``before`` rows, the only ones read in that state, keep just the
    weights of n's parity in 0..n - v, weight m at index m // 2; an even
    upper part v moves v // 2 indices.  In a family whose upper parts are
    odd, the lower parts are even, so once a lower part is placed only even
    weights can remain, and every odd-weight ``after`` cell is 0: the
    ``after`` rows keep the even weights, weight m at index m // 2.  The
    other table of each family keeps every weight at index m.  Draws do not
    depend on the layout.  Weights above ``SAMPLE_CUTOFF`` are refused with
    ValueError.
    """

    def __init__(self, family: Family, n: int):
        check_samplable(n)
        self.family = family
        self.n = n
        upper_rem = 1 if family.upper_odd else 0
        # by the parity rule one table keeps every other weight: the before
        # rows keep low, low + 2, ... when the upper parts are even, the
        # after rows 0, 2, ... when the lower parts are
        b_step, a_step = 2 - upper_rem, 1 + upper_rem
        low = n % b_step
        # before[v][m // b_step]: completions of weight m using values <= v,
        # lower block untouched
        # after[v][m // a_step]: the same once some lower part has been
        # placed; the empty completion is valid there, the crossing part
        # already exists
        # Rows are never written once stored, so equal rows are shared objects.
        # row 0 at every weight: only the empty completion, of weight 0
        row0 = [1] + [0] * n
        after = [row0[::a_step]]
        before = [row0[low::b_step]]
        # top[v] = before[v] at weight n, the one cell past the triangle
        top = [row0[n]]
        for value in range(1, n + 1):
            b_row, a_row = b_last, a_last = before[-1], after[-1]
            # a part equal to value changes no weight below it, so a row whose
            # stored weights are all below value is the row before it, the
            # same object; a row that stores a weight from value up is copied,
            # keeping its weights up to n - value
            if (len(b_last) - 1) * b_step + low >= value:
                b_row = b_last[: (n - value - low) // b_step + 1]
            # before[value] at weight m gains source at weight m - value: the
            # members whose first part is value.  value is a multiple of its
            # table's step, so it moves value // step indices; a shared row
            # holds no index that far, so it is never written.
            if value % 2 == upper_rem:
                shift = value // b_step
                _take(b_row, shift, family.upper_distinct, shift)
                source = b_last if family.upper_distinct else b_row
            else:
                if (len(a_last) - 1) * a_step >= value:
                    a_row = a_last[: (n - value) // a_step + 1]
                shift = value // a_step
                _take(a_row, shift, family.lower_distinct, shift)
                source = a_last if family.lower_distinct else a_row
                # from an untouched state, placing this value crosses the
                # blocks; first is the least kept weight >= value, and
                # exactly one of the steps is 2
                first = value + (n - value) % b_step
                b_row[first // b_step :: a_step] = map(
                    add,
                    b_row[first // b_step :: a_step],
                    source[(first - value) // a_step :: b_step],
                )
            before.append(b_row)
            after.append(a_row)
            # column n gains source at weight n - value; an after row of
            # step 2 keeps no odd weight, whose cell is 0
            if value % 2 == upper_rem:
                top.append(top[-1] + source[(n - value) // b_step])
            elif (n - value) % a_step:
                top.append(top[-1])
            else:
                top.append(top[-1] + source[(n - value) // a_step])
        self._before_step = b_step
        self._after_step = a_step
        self._before = before
        self._after = after
        self._top = top
        self.count: int = top[n]

    def unrank_blocks(self, index: int) -> tuple[Block, Block]:
        """The index-th member in decreasing lexicographic order, as its
        ``(evens, odds)`` blocks, each in decreasing order."""
        if not 0 <= index < self.count:
            raise ValueError(f"index {index} out of range, count is {self.count}")
        family = self.family
        upper_rem = 1 if family.upper_odd else 0
        upper_distinct = family.upper_distinct
        lower_distinct = family.lower_distinct
        before, after = self._before, self._after
        b_step, a_step = self._before_step, self._after_step
        parts: list[int] = []
        # the upper block is parts[:upper_end], the parts placed before the
        # walk switches from the before table to the after table
        upper_end = 0
        remaining = limit = self.n
        # the current block's table holds weight m at index m // scale
        table, scale = before, b_step
        # total: members of the current block; index counts from its first
        total = self.count
        while remaining:
            # the last members of the block, as many as table[v] holds at
            # weight remaining, have parts <= v; the next part is the smallest
            # v whose suffix still holds index.  No part exceeds the weight
            # still to place.
            high = min(limit, remaining) + 1
            if parts:
                column = remaining // scale
                value = bisect_left(table, total - index, 1, high, key=itemgetter(column))
                index -= total - table[value][column]
            else:
                value = bisect_left(self._top, total - index, 1, high)
                index -= total - self._top[value]
            if value % 2 == upper_rem:
                table, scale, distinct = before, b_step, upper_distinct
            else:
                table, scale, distinct = after, a_step, lower_distinct
            if distinct:
                rest = remaining - value
            else:
                # the first row[rest] members have at least (remaining - rest) // value
                # copies of value; take the most copies whose prefix holds index,
                # then skip the members that have one copy more.  In index
                # space, weight remaining is column and value is shift.
                row = table[value]
                column, shift = remaining // scale, value // scale
                columns = range(column % shift, column - shift + 1, shift)
                rest_column = columns[bisect_right(columns, index, key=row.__getitem__)]
                if rest_column >= shift:
                    index -= row[rest_column - shift]
                rest = remaining - (column - rest_column) * scale
            parts += [value] * ((remaining - rest) // value)
            if table is before:
                upper_end = len(parts)
            remaining = rest
            limit = value - 1
            total = table[limit][remaining // scale]
        upper, lower = tuple(parts[:upper_end]), tuple(parts[upper_end:])
        return (lower, upper) if family.upper_odd else (upper, lower)

    def unrank(self, index: int) -> Partition:
        """The index-th member in decreasing lexicographic order."""
        evens, odds = self.unrank_blocks(index)
        return Partition(odds + evens if self.family.upper_odd else evens + odds)

    def sample_blocks(self, rng: random.Random) -> tuple[Block, Block]:
        """Draw one member uniformly at random, as its ``(evens, odds)`` blocks."""
        return self.unrank_blocks(rng.randrange(self.count))

    def sample(self, rng: random.Random) -> Partition:
        """Draw one member uniformly at random; the draw of ``sample_blocks``
        for the same generator state."""
        return self.unrank(rng.randrange(self.count))


def sample_family(family: Family, n: int, seed: int) -> Partition:
    """One uniform draw; a fixed (family, n, seed) always gives the same member."""
    return FamilySampler(family, n).sample(random.Random(seed))
