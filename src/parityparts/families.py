"""The eight families of partitions whose parts are separated by parity.

A family fixes a parity and a repetition mode for the upper block and the
opposite parity with its own mode for the lower block; every upper part
must be strictly larger than every lower part, and either block may be
empty.  Tokens name the lower block first: ``od_eu`` is distinct odd
parts below unrestricted even parts.

Three routes reach the members, and each is independent of the others,
so they cross-check each other:

- counting, ``CountTable.build``: an exact dynamic program over the part
  values taken in decreasing order;
- sampling, ``FamilySampler``: unranking against completion counts
  tabulated in increasing part order, a draw coming out as its two
  blocks (``FamilySampler.unrank_blocks``);
- enumeration, ``member_blocks``: a walk that yields each member as its
  two blocks; ``enumerate_family`` joins them into a ``Partition``.

Each docstring there holds its route's design, reasons and measurements.
Counting and sampling share the slice-add kernel ``_take`` (counting with
odd upper parts also uses ``_cross``), which keeps the per-cell additions
in C.  Membership is decided on the two blocks (``blocks_in_family``);
``in_family`` takes them from ``core.parity_split``, the package's one
parity split.  The ``check_*`` functions hold the size refusals that the
routes, the verifier and the CLI share.
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
# A cutoff above this is refused: the members, and with them the time, grow
# faster than any power of the weight (one ``verify_exhaustive`` run takes
# about 3.5 times as long at 120 as at 105), and 121, at about 13 s, is the
# heaviest weight the README measures.
MAX_ENUMERATION_CUTOFF = 121
# Above this weight a sampler is refused: its tables grow as n^2 cells of
# O(sqrt n)-digit counts.  At 5000 one build takes 0.44 s and 287 MiB peak
# RSS for ou_eu, the largest family, and 0.44 s and 286 MiB for eu_ou, the
# largest odd-upper one (Python 3.11.7, x86-64 Xeon VM, one CPU; the README
# lists smaller weights).  Both have an unrestricted lower block, whose
# sampler keeps every lower row.
SAMPLE_CUTOFF = 5000
# Above this weight counting is refused: a table is a list per weight of
# counts up to O(sqrt n) digits, built in O(n^2) additions (see the README).
COUNT_CUTOFF = 10_000
# Above this many draws a sampling run is refused, counting the draws of all
# weights of a sampled verification run together: a checked draw costs about
# 0.09 ms at n = 5000, so a run's draws stay within about 10 s (see the README).
MAX_DRAWS = 100_000
# Above this many weights a sampled verification run is refused: it builds
# one sampler per weight, about 0.5 s each near SAMPLE_CUTOFF.  With both
# bounds at their limits, 50 weights ending at the cutoff and MAX_DRAWS draws
# in all, the longest legal run takes about 30 s (see the README).
MAX_SAMPLED_WEIGHTS = 50


def check_enumerable(n: int, cutoff: int = ENUMERATION_CUTOFF) -> None:
    """Raise ValueError unless weight n is nonnegative and at most the
    enumeration cutoff, and the cutoff nonnegative and at most
    ``MAX_ENUMERATION_CUTOFF``."""
    if cutoff < 0:
        raise ValueError(f"enumeration cutoff must be nonnegative, got {cutoff}")
    if cutoff > MAX_ENUMERATION_CUTOFF:
        raise ValueError(
            f"enumeration cutoff {cutoff} exceeds the maximum {MAX_ENUMERATION_CUTOFF}"
        )
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
        raise ValueError(f"draw count must be positive, got {count}")
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
    from ``remaining // v`` down to 1, each followed by the walk below v
    (placement by part multiplicities, Knuth, TAOCP 7.2.1.4).
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
    there.  The builder is memoised for the walk, so members that share a
    memoised block share its tuple.  The memo keeps only the lists of weight
    ``remaining`` at most 2n/3: at 120 the ``eu_od`` walk hits those about
    100 times per key (141 569 hits over 1 390 keys) and the heavier ones
    about 2.6 times (1 135 over 440), yet the heavier ones hold 1.72M of
    the 1.93M block entries, so building them again costs little and
    keeping them set the walk's peak memory.  The memo holds at most the
    lower-parity partitions of weights up to 2n/3, and where the lower
    parts are even it may also hold empty entries at odd weights.  When
    the walk ends, is closed or is dropped, reference counting frees the
    memo at once, with no wait for the cyclic collector.  Raises ValueError
    for negative n, when n exceeds the cutoff or when the cutoff is negative
    or exceeds ``MAX_ENUMERATION_CUTOFF``.
    """
    check_enumerable(n, cutoff)
    upper_rem = 1 if family.upper_odd else 0
    upper_distinct = family.upper_distinct
    lower_distinct = family.lower_distinct
    least_upper, least_lower = 2 - upper_rem, 1 + upper_rem
    memo: dict[tuple[int, int], list[Block]] = {}
    memo_limit = 2 * n // 3

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
            if remaining <= memo_limit:
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
        for value in range(min(largest, remaining), 0, -1):
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

    try:
        if family.upper_odd:
            for upper, lowers in segments((), n, n):
                yield from zip(lowers, repeat(upper))
        else:
            for upper, lowers in segments((), n, n):
                yield from zip(repeat(upper), lowers)
    finally:
        # each builder reaches itself through its closure cell; emptying
        # the cells breaks that cycle, so reference counting frees the memo,
        # cap and the builders as soon as the walk ends, is closed or is dropped
        del lower_blocks, segments


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
    otherwise.  As in ``_take``, only weights from ``first`` up are updated.

    Odd-upper counting keeps this fused pass on purpose.  A ``_take`` of the
    lower value plus a separate add of the open row, as even-upper counting
    does, gives the same counts but was measured slower:
    ``CountTable.build(eu_od, 3000)`` 89 → 99 ms and
    ``verify_inequality(50, 3000)`` 172 → 181 ms (Python 3.11.7, x86-64 VM,
    one CPU)."""
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

        Parity rule: where the upper parts are even, every open weight is
        even, so ``open_block`` keeps weight m at index m // 2 and an upper
        value v moves v // 2 indices.  A lower value v is then odd, so
        ``crossed`` gains the open row only at the odd weights from 2v + 1
        up, in a slice-add beside its ``_take`` of v.  Where the upper parts
        are odd, ``_cross`` does both additions in one pass.
        """
        check_countable(max_n)
        upper_rem = 1 if family.upper_odd else 0
        step = 2 - upper_rem
        open_block = [0] * (max_n // step + 1)
        open_block[0] = 1
        crossed = [0] * (max_n + 1)
        for value in range(max_n, 0, -1):
            if value % 2 == upper_rem:
                distinct = family.upper_distinct
                shift = value // step
                open_block[shift] += open_block[0]
                _take(open_block, shift, distinct, 2 * shift + distinct)
                continue
            distinct = family.lower_distinct
            crossed[value] += open_block[0]
            if step == 1:
                _cross(crossed, open_block, value, distinct, 2 * value + distinct)
                continue
            # odd m gains open weight m - v after a distinct take, which
            # reads the old row, and before an unrestricted one, which
            # carries it up
            if distinct:
                _take(crossed, value, True, 2 * value + 1)
            crossed[2 * value + 1 :: 2] = map(
                add, crossed[2 * value + 1 :: 2], open_block[(value + 1) // 2 :]
            )
            if not distinct:
                _take(crossed, value, False, 2 * value)
        crossed[::step] = map(add, crossed[::step], open_block)
        return cls(family=family, counts=tuple(crossed))


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


class _SkippedRow:
    """A lower row that ``FamilySampler`` does not store, read from the
    stored row below it: cell i is ``base[i] + base[i - shift]``, or
    ``base[i]`` when i < shift.  It holds no cells and is never written."""

    __slots__ = ("base", "shift")

    def __init__(self, base: list[int], shift: int):
        self.base, self.shift = base, shift

    def __getitem__(self, i: int) -> int:
        base = self.base
        return base[i] + base[i - self.shift] if i >= self.shift else base[i]


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
    row v - 1 stores is below v (below v - 1 for an upper row, which also
    gains a crossing term), from about v = n / 2 + 1, building row v
    changes none of that row's cells, so row v is row v - 1, the same
    object.  Past that point in both tables only ``_top`` still grows.

    Each table stores rows only at 0 and at the values of its own block's
    parity: ``_upper`` holds the ``before`` rows at the upper values and
    ``_lower`` the ``after`` rows at the lower values.  An ``after`` row at
    an upper value is the row below it, as no lower part is placed there.
    A ``before`` row at a lower value v is the row below it plus a crossing
    term: the members whose first part is v, followed by a lower block of
    parts at most v (below v if distinct), the ``after`` row at v (at v - 1)
    at weight m - v.  That row is never built: the ``before`` row at the
    upper value v + 1 copies the row below v and adds the crossing term.

    Where the lower block is distinct, only row 0 and the lower rows at the
    2nd, 4th, ... lower values are stored.  The ``after`` row at v - 1 is
    the one at v - 2, so the row at a skipped value v is
    ``after[v-2][m] + after[v-2][m - v]``, two cells of the stored row
    below it; ``_lower`` holds a view there that reads them, or the stored
    row itself once the two are shared.  An unrestricted lower row has no
    such O(1) form, so those families store every lower row.

    One build body serves every value: the table of its parity takes it
    into a row and stores it, or keeps a skipped lower row only until the
    crossing term of the next upper value has read it, and ``_top`` gains
    that row's cell at weight n - v (read before a distinct take).  A draw
    is one walk with one pass per block: each pass bisects its own table's
    rows for the next part and its multiplicity, and a distinct part
    subtracts the count below it.  The upper pass also probes the one
    lower value just below the row found, which decides whether the walk
    crosses; once it has crossed, the lower pass reads the lower rows
    alone.  Both passes read every row alike: only the build knows which
    rows are stored.  The tables keep about 3n²/16 cells where the upper
    parts are even and the lower ones distinct, 15n²/64 where the upper
    parts are odd and the lower ones distinct, and 9n²/32 where the lower
    block is unrestricted.

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
        upper_distinct, lower_distinct = family.upper_distinct, family.lower_distinct
        # by the parity rule one table keeps every other weight: the before
        # rows keep low, low + 2, ... when the upper parts are even, the
        # after rows 0, 2, ... when the lower parts are
        b_step, a_step = 2 - upper_rem, 1 + upper_rem
        low = n % b_step
        # upper[k][m // b_step]: before at the k-th upper-parity value,
        # 2k - upper_rem, and at 0 for k = 0: completions of weight m using
        # values <= it, lower block untouched
        # lower[k][m // a_step]: after at the k-th lower-parity value,
        # 2k - 1 + upper_rem, and at 0 for k = 0: the same once some lower
        # part has been placed; the empty completion is valid there, the
        # crossing part already exists
        # Rows are never written once stored, so equal rows are shared objects.
        # row 0 at every weight: only the empty completion, of weight 0
        row0 = [1] + [0] * n
        upper = [row0[low::b_step]]
        lower = [row0[::a_step]]
        # the last two after rows built, stored or not
        below = last = lower[0]
        # top[v] = before[v] at weight n, the one cell past the triangle
        top = [row0[n]]
        for value in range(1, n + 1):
            # the table of value's parity takes it into a row; least is the
            # least weight that row gains, value - 1 for an upper row, which
            # also gains the crossing term of the lower value below it
            upper_value = value % 2 == upper_rem
            if upper_value:
                row, step, base, distinct, least = upper[-1], b_step, low, upper_distinct, value - 1
            else:
                row, step, base, distinct, least = last, a_step, 0, lower_distinct, value
            # a row whose stored weights are all below least is the row
            # before it, the same object, and is never written; one that
            # stores a weight from least up keeps its weights up to
            # n - value, in a copy
            if (len(row) - 1) * step + base >= least:
                row = row[: (n - value - base) // step + 1]
            if upper_value and value > 1:
                # the before row at the lower value just below is the row
                # before it plus the members whose first part is that value:
                # the after row there (the one before it if distinct) at
                # weight m - crossing.  first is the least kept weight
                # >= crossing, and exactly one of the steps is 2
                crossing = value - 1
                source = below if lower_distinct else last
                first = crossing + (n - crossing) % b_step
                row[first // b_step :: a_step] = map(
                    add,
                    row[first // b_step :: a_step],
                    source[(first - crossing) // a_step :: b_step],
                )
            # top gains the row's cell at n - value, read before a distinct
            # take; a step-2 after row keeps no odd weight, whose cell is 0
            column, odd = divmod(n - value - base, step)
            term = 0 if odd else row[column]
            shift = value // step
            _take(row, shift, distinct, shift)
            top.append(top[-1] + (term if distinct or odd else row[column]))
            if upper_value:
                upper.append(row)
                continue
            below, last = last, row
            # a distinct lower block stores the after rows at its 2nd, 4th,
            # ... values only; the row at the 1st, 3rd, ... is a view on the
            # stored row below it, or that row itself once they are shared
            if lower_distinct and (value + 1 - upper_rem) & 2 and row is not below:
                row = _SkippedRow(below, shift)
            lower.append(row)
        self._before_step = b_step
        self._after_step = a_step
        self._upper = upper
        self._lower = lower
        self._top = top
        self.count: int = top[n]

    def unrank_blocks(self, index: int) -> tuple[Block, Block]:
        """The index-th member in decreasing lexicographic order, as its
        ``(evens, odds)`` blocks, each in decreasing order."""
        if not isinstance(index, int):
            raise ValueError(f"index must be an int, got {index!r}")
        if not 0 <= index < self.count:
            raise ValueError(f"index {index} out of range, count is {self.count}")
        family = self.family
        upper_rem = 1 if family.upper_odd else 0
        upper, lower = self._upper, self._lower
        # the before table at the lower value just below upper row k's value
        # is row k - 1 plus a crossing term from lower row k - back, the
        # after row at the value below it if the lower block is distinct
        back = upper_rem + family.lower_distinct
        remaining = self.n
        if not remaining:
            return (), ()
        # target: the members from index to the end of the current block.
        # The last members of the block, as many as the table at v holds at
        # weight remaining, have parts <= v; the next part is the smallest v
        # whose suffix still holds index, so target does not change.  ways
        # is the table at v and prev at v - 1, both at weight remaining.
        target = self.count - index
        top = self._top
        value = bisect_left(top, target, 1, remaining + 1)
        ways, prev = top[value], top[value - 1]
        blocks = []
        # one pass per block, upper first: rows, step, the parity of the
        # block's values, its repetition mode, and whether the walk can
        # still cross; a lower row is the table at every value up to the
        # next lower one
        for rows, step, rem, distinct, crossing in (
            (upper, self._before_step, upper_rem, family.upper_distinct, True),
            (lower, self._after_step, 1 - upper_rem, family.lower_distinct, False),
        ):
            parts: list[int] = []
            k = (value + rem) // 2
            while value % 2 == rem:
                if distinct:
                    # the members that go on with value come first, before
                    # the prev members with parts below it
                    rest = remaining - value
                    target -= prev
                else:
                    # index counts from the first member that goes on with
                    # value; the first row[rest] of them have at least
                    # (remaining - rest) // value copies of it.  Take the
                    # most copies whose prefix holds index; the block is
                    # then the members with exactly that many, which end at
                    # row[rest].  In index space, weight remaining is column
                    # and value is shift.
                    index = ways - target
                    row = rows[k]
                    column, shift = remaining // step, value // step
                    columns = range(column % shift, column - shift + 1, shift)
                    rest_column = columns[bisect_right(columns, index, key=row.__getitem__)]
                    target = row[rest_column] - index
                    rest = remaining - (column - rest_column) * step
                parts += [value] * ((remaining - rest) // value)
                remaining = rest
                if not remaining:
                    break
                # bisect the rows up to min(value - 1, remaining), written
                # out: a call to min costs more than the rest of the bound.
                # In the upper block, probe the lower value just below the
                # row found, which past the last row is the only value left.
                # Its crossing term is at weight gap; a lower row of step 2
                # (upper_rem 1) keeps no odd weight, whose term is 0.
                column = remaining // step
                high = value - 1 if value <= remaining else remaining
                k = bisect_left(rows, target, 1, (high + rem) // 2 + 1, key=itemgetter(column))
                value = 2 * k - rem
                prev = rows[k - 1][column]
                if crossing and value > 1 and not (gap := remaining - value + 1) & upper_rem:
                    ways = prev + lower[k - back][gap >> upper_rem]
                    if ways >= target:
                        value -= 1
                        break
                    prev = ways
                ways = rows[k][column]
            blocks.append(tuple(parts))
        upper_block, lower_block = blocks
        return (lower_block, upper_block) if family.upper_odd else (upper_block, lower_block)

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
