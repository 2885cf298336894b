import gc
import hashlib
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parityparts.core import Partition, parity_split, parse_partition
from parityparts.families import (
    COUNT_CUTOFF,
    ENUMERATION_CUTOFF,
    MAX_ENUMERATION_CUTOFF,
    SAMPLE_CUTOFF,
    CountTable,
    Family,
    FamilySampler,
    _SkippedRow,
    blocks_in_family,
    count_family,
    counts_csv,
    enumerate_family,
    in_family,
    member_blocks,
    member_segments,
    sample_family,
)
from parityparts.verify import verify_exhaustive

from fresh_python import PRINT_PEAK, run_fresh
from partition_oracle import all_partitions

CHAIN = tuple(Family)


def brute_members(family, n):
    return [Partition(p) for p in all_partitions(n) if in_family(Partition(p), family)]


def reference_enumerate(family, n):
    """The nested generator that the block walk replaced: one part at a
    time, from the largest value down, each member built as a tuple."""
    upper_rem = 1 if family.upper_odd else 0

    def extend(remaining, largest, crossed):
        if remaining == 0:
            yield ()
            return
        for value in range(min(largest, remaining), 0, -1):
            if value % 2 == upper_rem:
                if crossed:
                    continue
                bound = value - 1 if family.upper_distinct else value
                for rest in extend(remaining - value, bound, False):
                    yield (value, *rest)
            else:
                bound = value - 1 if family.lower_distinct else value
                for rest in extend(remaining - value, bound, True):
                    yield (value, *rest)

    for parts in extend(n, n, False):
        yield Partition(parts)


def reference_counts(family, max_n):
    """The per-cell CountTable loop that the slice-add kernels replaced."""
    upper_rem = 1 if family.upper_odd else 0
    open_block = [0] * (max_n + 1)
    open_block[0] = 1
    crossed = [0] * (max_n + 1)
    for value in range(max_n, 0, -1):
        if value % 2 == upper_rem:
            if family.upper_distinct:
                for m in range(max_n, value - 1, -1):
                    open_block[m] += open_block[m - value]
            else:
                for m in range(value, max_n + 1):
                    open_block[m] += open_block[m - value]
        else:
            eligible = [a + b for a, b in zip(open_block, crossed)]
            if family.lower_distinct:
                for m in range(max_n, value - 1, -1):
                    eligible[m] += eligible[m - value]
            else:
                for m in range(value, max_n + 1):
                    eligible[m] += eligible[m - value]
            crossed = [e - o for e, o in zip(eligible, open_block)]
    return tuple(a + b for a, b in zip(open_block, crossed))


def reference_sampler_tables(family, n):
    """The per-cell FamilySampler loop that the slice-add kernels replaced."""
    upper_rem = 1 if family.upper_odd else 0
    before = [[0] * (n + 1)]
    after = [[0] * (n + 1)]
    before[0][0] = 1
    after[0][0] = 1
    for value in range(1, n + 1):
        b_prev, a_prev = before[-1], after[-1]
        if value % 2 == upper_rem:
            a_row = a_prev
            if family.upper_distinct:
                b_row = [
                    b_prev[m] + (b_prev[m - value] if m >= value else 0)
                    for m in range(n + 1)
                ]
            else:
                b_row = b_prev[:]
                for m in range(value, n + 1):
                    b_row[m] += b_row[m - value]
        else:
            if family.lower_distinct:
                a_row = [
                    a_prev[m] + (a_prev[m - value] if m >= value else 0)
                    for m in range(n + 1)
                ]
                b_row = [
                    b_prev[m] + (a_prev[m - value] if m >= value else 0)
                    for m in range(n + 1)
                ]
            else:
                a_row = a_prev[:]
                for m in range(value, n + 1):
                    a_row[m] += a_row[m - value]
                b_row = [
                    b_prev[m] + (a_row[m - value] if m >= value else 0)
                    for m in range(n + 1)
                ]
        before.append(b_row)
        after.append(a_row)
    return before, after


def sampler_ways(sampler, crossed, value, weight):
    """The sampler's completion count with parts at most ``value`` at
    ``weight``, after the crossing into the lower block or before it, read
    from its stored rows; the one read of the tests that check its tables.

    ``_upper`` row k is the before table at the k-th upper-parity value
    (value 0 for k = 0), weight m at index m // ``_before_step``, and
    ``_lower`` row k the after table at the k-th lower-parity value (0 for
    k = 0), weight m at index m // ``_after_step``.  The after table at an
    upper value is its row at the value below, where no lower part is
    placed, and an after row of step 2 drops the odd weights, whose count
    is 0.  The before table at a lower value v is derived: the row at v - 1
    plus the members whose first part is v, which cross at once into the
    lower block with weight m - v left and parts at most v, or below v if
    the lower block is distinct.  A before row of step 2 holds only
    weights of n's parity, the only ones that remain before the crossing.
    Every row is read alike, including the views that stand for the lower
    rows a distinct lower block does not store.
    """
    upper_rem = 1 if sampler.family.upper_odd else 0
    if crossed:
        step = sampler._after_step
        if weight % step:
            return 0
        return sampler._lower[(value + 1 - upper_rem) // 2][weight // step]
    ways = sampler._upper[(value + upper_rem) // 2][weight // sampler._before_step]
    if value % 2 != upper_rem and 1 <= value <= weight:
        source = value - 1 if sampler.family.lower_distinct else value
        ways += sampler_ways(sampler, True, source, weight - value)
    return ways


def reference_unrank(sampler, index):
    """The linear walk that bisection replaced: every part value from n
    down to 1, and every multiplicity from the largest down to 1.  It reads
    the sampler's own tables through ``sampler_ways``, which the per-cell
    reference test pins down."""
    family = sampler.family
    upper_rem = 1 if family.upper_odd else 0
    parts = []
    remaining = sampler.n
    crossed = False
    value = sampler.n
    while remaining > 0:
        assert value >= 1, "completion tables inconsistent with index walk"
        if value % 2 == upper_rem:
            if not crossed:
                cap = remaining // value
                if family.upper_distinct:
                    cap = min(cap, 1)
                for copies in range(cap, 0, -1):
                    rest = remaining - copies * value
                    ways = sampler_ways(sampler, False, value - 1, rest)
                    if index < ways:
                        parts.extend([value] * copies)
                        remaining -= copies * value
                        break
                    index -= ways
        else:
            cap = remaining // value
            if family.lower_distinct:
                cap = min(cap, 1)
            for copies in range(cap, 0, -1):
                rest = remaining - copies * value
                ways = sampler_ways(sampler, True, value - 1, rest)
                if index < ways:
                    parts.extend([value] * copies)
                    remaining -= copies * value
                    crossed = True
                    break
                index -= ways
        value -= 1
    return Partition(parts)


def test_family_tokens_round_trip():
    for family in Family:
        assert Family.from_token(family.value) is family
    with pytest.raises(ValueError):
        Family.from_token("eo_du")


# token: (lower_distinct, upper_odd, upper_distinct)
FAMILY_FLAGS = {
    "ed_od": (True, True, True),
    "od_ed": (True, False, True),
    "od_eu": (True, False, False),
    "eu_od": (False, True, True),
    "ed_ou": (True, True, False),
    "eu_ou": (False, True, False),
    "ou_ed": (False, False, True),
    "ou_eu": (False, False, False),
}


def test_family_flags():
    for family in Family:
        flags = {name: value for name, value in vars(family).items() if not name.startswith("_")}
        lower_distinct, upper_odd, upper_distinct = FAMILY_FLAGS[family.value]
        assert flags == {
            "lower_distinct": lower_distinct,
            "upper_odd": upper_odd,
            "upper_distinct": upper_distinct,
        }
        # the lower block has the other parity, so it needs no flag
        assert (family.value[0] == "o") is not upper_odd


@pytest.mark.parametrize(
    "text,family,expected",
    [
        ("8,8,8,7,5,3", Family.OD_EU, True),
        ("11,9,7,4,4,4", Family.EU_OD, True),
        ("3,1,1", Family.EU_OD, False),  # repeated odd part, upper block is distinct
        ("6,4,3,3,1", Family.OD_EU, False),  # repeated odd part in the distinct block
        ("4,3,2", Family.OD_EU, False),  # even part 2 sits below the odd part 3
        ("9,7,5,4,2^5", Family.EU_OD, True),
        ("", Family.ED_OU, True),
        ("5", Family.OD_EU, True),
        ("5", Family.EU_OD, True),
    ],
)
def test_membership_examples(text, family, expected):
    assert in_family(parse_partition(text), family) is expected


def test_enumerate_od_eu_at_5():
    members = list(enumerate_family(Family.OD_EU, 5))
    assert members == [(5,), (4, 1), (2, 2, 1)]


def test_enumerate_eu_od_at_5():
    members = list(enumerate_family(Family.EU_OD, 5))
    assert members == [(5,), (3, 2)]


def test_enumerate_weight_zero():
    assert list(enumerate_family(Family.OU_ED, 0)) == [Partition()]


def test_enumerate_rejects_beyond_cutoff():
    with pytest.raises(ValueError):
        list(enumerate_family(Family.OD_EU, ENUMERATION_CUTOFF + 1))
    assert ENUMERATION_CUTOFF == 70


def test_a_cutoff_above_the_hard_maximum_is_refused():
    """Even at weight 0: the refusal reads the cutoff, not the weight."""
    assert MAX_ENUMERATION_CUTOFF == 121
    assert list(member_blocks(Family.OD_EU, 0, cutoff=121)) == [((), ())]
    with pytest.raises(ValueError, match="^enumeration cutoff 122 exceeds the maximum 121$"):
        next(member_blocks(Family.OD_EU, 0, cutoff=122))


def test_a_negative_cutoff_is_refused_by_name():
    """Even at weight 0, which no cutoff below it could admit."""
    with pytest.raises(ValueError, match="^enumeration cutoff must be nonnegative, got -1$"):
        next(member_blocks(Family.OD_EU, 0, cutoff=-1))


def test_enumerate_order_is_lex_decreasing():
    for family in CHAIN:
        members = list(enumerate_family(family, 13))
        assert members == sorted(members, reverse=True)
        assert len(set(members)) == len(members)


@pytest.mark.parametrize("family", CHAIN, ids=lambda fam: fam.value)
def test_enumerate_matches_brute_force(family):
    for n in range(0, 29):
        assert list(enumerate_family(family, n)) == brute_members(family, n)


def assert_walk_matches_reference(family, n):
    reference = list(reference_enumerate(family, n))
    pairs = list(member_blocks(family, n))
    assert list(enumerate_family(family, n)) == reference, n
    assert len(pairs) == len(reference), n
    for (evens, odds), member in zip(pairs, reference):
        assert evens == tuple(part for part in member if part % 2 == 0), (n, member)
        assert odds == tuple(part for part in member if part % 2 == 1), (n, member)


@pytest.mark.parametrize("family", CHAIN, ids=lambda fam: fam.value)
def test_block_walk_matches_reference_enumeration(family):
    for n in range(0, 41):
        assert_walk_matches_reference(family, n)


@pytest.mark.parametrize(
    "family,reach",
    [(Family.OD_EU, 50), (Family.OU_EU, 43), (Family.ED_OU, 48), (Family.EU_OU, 46)],
    ids=lambda arg: arg.value if isinstance(arg, Family) else str(arg),
)
def test_multiplicity_walk_matches_reference_enumeration_past_40(family, reach):
    """The unrestricted-upper families, whose walk places each upper value
    with all its copies in one step, checked past the all-family range; the
    four reaches cost about 2 s together."""
    for n in range(41, reach + 1):
        assert_walk_matches_reference(family, n)


@pytest.mark.parametrize("family", CHAIN, ids=lambda fam: fam.value)
def test_block_walk_yields_every_member_once_in_order_at_the_cutoff(family):
    n = ENUMERATION_CUTOFF
    count = 0
    previous = None
    for evens, odds in member_blocks(family, n):
        assert blocks_in_family(evens, odds, family), (evens, odds)
        member = odds + evens if family.upper_odd else evens + odds
        assert previous is None or member < previous, (previous, member)
        previous = member
        count += 1
    assert count == count_family(family, n)


@pytest.mark.parametrize("family", CHAIN, ids=lambda fam: fam.value)
def test_segments_joined_are_the_block_walk(family):
    """Each segment is an upper block with a nonempty list of lower blocks
    that complete it, and the segments joined in order are the members
    of ``member_blocks``, at every weight up to the cutoff."""
    for n in range(ENUMERATION_CUTOFF + 1):
        walk = member_blocks(family, n)
        for upper, lowers in member_segments(family, n):
            assert lowers, (n, upper)
            for lower in lowers:
                assert next(walk) == ((lower, upper) if family.upper_odd else (upper, lower))
        assert next(walk, None) is None, n


def _walk_closed_after_first_member():
    walk = member_blocks(Family.EU_OD, 40)
    next(walk)
    walk.close()


def _walk_dropped_after_first_member():
    walk = member_blocks(Family.EU_OD, 40)
    next(walk)
    del walk


# walks that must leave nothing for the cyclic collector; the report's JSON
# is left out, as the stdlib's indented encoder makes cycles of its own
WALK_ENDINGS = {
    "full": lambda: sum(1 for _ in member_blocks(Family.EU_OD, 40)),
    "od_eu": lambda: sum(1 for _ in member_blocks(Family.OD_EU, 40)),
    "closed": _walk_closed_after_first_member,
    "dropped": _walk_dropped_after_first_member,
    "enumerate_family": lambda: sum(1 for _ in enumerate_family(Family.OD_EU, 40)),
    "verify_exhaustive": lambda: verify_exhaustive(40),
}


@pytest.mark.parametrize("ending", sorted(WALK_ENDINGS))
def test_a_walk_frees_its_memo_by_reference_counting(ending):
    """A walk that ends, is closed or is dropped leaves no reference cycle,
    so its memo is freed at once, not at the collector's next full pass.
    A memo reached through its builders' closure cells left about 1 700
    objects behind after an ``eu_od`` walk at 40."""
    gc.collect()
    gc.disable()
    try:
        WALK_ENDINGS[ending]()
        assert gc.collect() == 0
    finally:
        gc.enable()


def _walk_peak(family, n):
    """The member count of a walk at n and its peak traced memory."""
    tracemalloc.start()
    try:
        count = sum(1 for _ in member_blocks(family, n, cutoff=n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return count, peak


def test_walk_at_90_peaks_below_12_mib():
    """The memo keeps only lower blocks of weight at most 2n/3: an ``eu_od``
    walk at 90 peaks at about 6.6 MiB of traced memory, where a memo of
    every block peaked at 25.2 MiB.  The upper tails are kept only up to
    weight n/3: an ``od_eu`` walk at 90, whose unrestricted upper block
    has the most tails, peaks at about 1.5 MiB, against 0.7 MiB with no
    tail memo."""
    count, peak = _walk_peak(Family.EU_OD, 90)
    assert count == count_family(Family.EU_OD, 90) == 177_143
    assert peak < 12 * 2**20
    count, peak = _walk_peak(Family.OD_EU, 90)
    assert count == count_family(Family.OD_EU, 90)
    assert peak < 4 * 2**20


@pytest.mark.parametrize("family", CHAIN, ids=lambda fam: fam.value)
def test_count_matches_enumeration(family):
    for n in range(0, 33):
        assert count_family(family, n) == sum(1 for _ in enumerate_family(family, n))


def test_count_at_zero_is_one():
    for family in CHAIN:
        assert count_family(family, 0) == 1


def test_count_rejects_negative():
    with pytest.raises(ValueError):
        count_family(Family.OD_EU, -1)


def test_count_table_direct():
    table = CountTable.build(Family.OD_EU, 12)
    assert table.max_n == 12
    assert table[5] == 3
    assert table.counts == tuple(count_family(Family.OD_EU, n) for n in range(13))


def test_count_tables_compare_and_hash_by_value():
    first, second = CountTable.build(Family.OD_EU, 20), CountTable.build(Family.OD_EU, 20)
    assert first == second and hash(first) == hash(second)
    assert len({first, second}) == 1
    assert first != CountTable.build(Family.OD_EU, 19)
    assert first != CountTable(Family.EU_OD, first.counts)


@pytest.mark.parametrize("family", CHAIN, ids=lambda fam: fam.value)
@pytest.mark.parametrize("max_n", [0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 257, 400])
def test_count_table_matches_per_cell_reference(family, max_n):
    """Weights 4..9 pin the band edges: v == max_n, 2v + 1 == len(row) and
    2v + 1 > len(row)."""
    assert CountTable.build(family, max_n).counts == reference_counts(family, max_n)


@pytest.mark.parametrize("family", [Family.EU_OD, Family.OD_EU], ids=lambda fam: fam.value)
def test_count_table_matches_per_cell_reference_at_1000(family):
    assert CountTable.build(family, 1000).counts == reference_counts(family, 1000)


@pytest.mark.parametrize("family", CHAIN, ids=lambda fam: fam.value)
def test_sampler_tables_match_per_cell_reference(family):
    """Every cell of the triangle, each value v and each weight m in
    0..n - v, read through ``sampler_ways``, equals the full reference row:
    the before table at the weights its rows keep, the derived cells at
    lower values included, and the after table at every weight, where the
    odd weights a step-2 row drops are 0 in the reference.

    ``_upper`` holds a row for 0 and for each upper-parity value,
    ``_lower`` one for 0 and for each lower-parity value.  Where the lower
    block is distinct, the lower rows at its 1st, 3rd, ... values are not
    stored: each is a view on the stored row before it, below the midpoint
    only, whose cells, read as a row's, are checked like a stored row's.
    Each row of a table with step s holds weight m at index m // s: an
    ``_upper`` row the weights of n's parity (all weights for s = 1), a
    ``_lower`` row the even weights (all for s = 1).  The before step is 2
    when the upper parts are even, the after step when the lower parts
    are; the other step is 1.
    Each stored row is a prefix of its weights that covers the triangle's
    weights (0..n - v) of that class, and every stored cell, past the
    triangle too, is exact; the odd weights an after row of step 2 drops
    are 0 in the reference up to n.  ``_top`` is column n.  Once every value
    from the row before it up to its own is at least n // 2 + 2, a row is
    that very object; where the row before it is a view, it is the row the
    view stands for, which is not kept.  The band edges are n = 0, 1 and 2,
    where a parity row can be empty, and v at and around n / 2, where the
    slice-adds first reach past the end of row v and the rows start to be
    shared; every cell of every n below 121, and of n = 400 and 401, is
    checked, so both parities of n meet each edge.
    """
    upper_rem = 1 if family.upper_odd else 0
    b_step, a_step = 2 - upper_rem, 1 + upper_rem
    for n in (*range(121), 400, 401):
        sampler = FamilySampler(family, n)
        before, after = reference_sampler_tables(family, n)
        assert (sampler._before_step, sampler._after_step) == (b_step, a_step)
        low = n % b_step
        for v in range(n + 1):
            for m in range(low, n + 1 - v, b_step):
                assert sampler_ways(sampler, False, v, m) == before[v][m], (n, v, m)
            for m in range(n + 1 - v):
                assert sampler_ways(sampler, True, v, m) == after[v][m], (n, v, m)
        for rows, values, full_rows, step, low in (
            (sampler._upper, [0, *range(2 - upper_rem, n + 1, 2)], before, b_step, low),
            (sampler._lower, [0, *range(1 + upper_rem, n + 1, 2)], after, a_step, 0),
        ):
            # one row per listed value, skipped values included
            assert len(rows) == len(values), n
            for k, (row, v) in enumerate(zip(rows, values)):
                cells = row
                if type(row) is _SkippedRow:
                    # at a distinct block's 1st, 3rd, ... lower value, on the
                    # stored row before it, with as many cells
                    assert rows is sampler._lower and family.lower_distinct and k % 2, (n, v)
                    assert row.base is rows[k - 1] and v <= n // 2 + 1, (n, v)
                    cells = [row[i] for i in range(len(row.base))]
                stored = range(low, low + step * len(cells), step)
                assert len(range(low, n + 1 - v, step)) <= len(cells), (n, v)
                assert not stored or stored[-1] <= n, (n, v)
                assert cells == [full_rows[v][m] for m in stored], (n, v)
                if k and values[k - 1] + 1 >= n // 2 + 2 and type(rows[k - 1]) is list:
                    assert row is rows[k - 1], (n, v)
        for v, full in enumerate(after):
            # with step 2 the after rows drop the odd weights, all 0
            assert not any(full[m] for m in range(n + 1) if m % a_step), (n, v)
        assert sampler._top == [row[n] for row in before], n


def _cells(sampler):
    rows = {id(row): row for row in (*sampler._upper, *sampler._lower) if type(row) is list}
    return sum(map(len, rows.values()))


def test_sampler_stores_about_three_sixteenths_n_squared_cells():
    # od_eu at 2000, the deep weight of sampled verification: 3n^2/16 is
    # 750k cells, where lower rows at every lower value held about 1.13M
    # (9n^2/32), and before rows at every value about 1.5M
    assert _cells(FamilySampler(Family.OD_EU, 2000)) <= 760_000


def _assert_each_table_shares_by_its_own_weights(sampler):
    """A row, stored or skipped, is the row before it, the same object,
    exactly when that row stores no weight from the least one that its
    value writes: such parts change none of its cells.  Between two lower
    values lies an upper value, which places no lower part, so each lower
    row is judged at its own value.  An upper row at v also gains the
    crossing of the lower value v - 1 below it (none below 1 when the upper
    parts are odd), so it is judged from v - 1.  Neither table's sharing
    waits for the other's.  A row that is not shared is a copy that holds
    exactly its triangle, the weights 0..n - v.  Where the lower block is
    distinct, the rows at its 1st, 3rd, ... lower values are not stored:
    each is a view on the stored row before it exactly where it would be a
    copy.  The row after a view is then the skipped row itself, whose
    triangle reaches two weights past its own, when only the skipped row
    is a copy."""
    n = sampler.n
    upper_rem = 1 if sampler.family.upper_odd else 0
    skips = sampler.family.lower_distinct
    for rows, step, low, first_value in (
        (sampler._upper, sampler._before_step, n % sampler._before_step, 2 - upper_rem),
        (sampler._lower, sampler._after_step, 0, 1 + upper_rem),
    ):
        length = len(rows[0])
        for k in range(1, len(rows)):
            value = first_value + 2 * (k - 1)
            first = value - 1 if rows is sampler._upper and value > 1 else value
            copied = (length - 1) * step + low >= first
            if copied:
                length = (n - value - low) // step + 1
            row, prev = rows[k], rows[k - 1]
            skipped = skips and rows is sampler._lower and k % 2 == 1
            assert (type(row) is _SkippedRow) is (skipped and copied), (n, value)
            if skipped and copied:
                assert row.base is prev, (n, value)
                continue
            if type(prev) is list:
                assert (row is prev) is not copied, (n, value)
            assert len(row) == length, (n, value)


@pytest.mark.parametrize("family", CHAIN, ids=lambda fam: fam.value)
def test_each_sampler_table_shares_a_row_by_its_own_stored_weights(family):
    for n in (*range(121), 373, 374, 375):
        _assert_each_table_shares_by_its_own_weights(FamilySampler(family, n))


def test_od_eu_sampler_at_2000_shares_per_table_and_stores_754_252_cells():
    # the deep weight of sampled verification, where the two tables start
    # sharing at different values
    sampler = FamilySampler(Family.OD_EU, 2000)
    _assert_each_table_shares_by_its_own_weights(sampler)
    assert _cells(sampler) == 754_252


# the cells stored at 2000: an unrestricted lower block keeps a lower row at
# every lower value, a distinct one at every other, and where the lower
# parts are even those rows are half as long
CELLS_AT_2000 = {
    Family.ED_OD: 942_002,
    Family.OD_ED: 754_252,
    Family.EU_OD: 1_129_752,
    Family.ED_OU: 942_002,
    Family.EU_OU: 1_129_752,
    Family.OU_ED: 1_129_752,
    Family.OU_EU: 1_129_752,
}


@pytest.mark.parametrize("family", list(CELLS_AT_2000), ids=lambda fam: fam.value)
def test_sampler_at_2000_stores_its_cells_by_its_lower_block(family):
    sampler = FamilySampler(family, 2000)
    _assert_each_table_shares_by_its_own_weights(sampler)
    assert _cells(sampler) == CELLS_AT_2000[family]


def test_od_eu_sampler_at_2000_peaks_below_27_mib():
    """Rows at one parity per table, and every other lower row: the build
    of the deep sampled weight peaks at about 22.7 MiB of traced memory,
    where a lower row at every lower value peaked at 33 MiB and a
    ``before`` row at every value at 45 MiB."""
    tracemalloc.start()
    try:
        sampler = FamilySampler(Family.OD_EU, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sampler.count == count_family(Family.OD_EU, 2000)
    assert peak < 27 * 2**20


SAMPLER_PEAK_RSS = """
import sys
sys.path.insert(0, sys.argv[1])
from parityparts.families import SAMPLE_CUTOFF, Family, FamilySampler
FamilySampler(Family(sys.argv[2]), SAMPLE_CUTOFF)
""" + PRINT_PEAK


@pytest.mark.slow
def test_eu_ou_sampler_at_the_cutoff_peaks_below_340_mib():
    """The largest odd-upper family at ``SAMPLE_CUTOFF``: the whole process
    peaks at about 286 MiB, where a ``before`` row at every value took
    396 MiB."""
    peak = int(run_fresh(SAMPLER_PEAK_RSS, Family.EU_OU.value))
    assert peak < 340 * 1024, f"peak RSS {peak} KiB"


@pytest.mark.slow
def test_od_eu_sampler_at_the_cutoff_peaks_below_220_mib():
    """The source family at ``SAMPLE_CUTOFF``, whose distinct lower block
    stores every other lower row: the whole process peaks at about
    186 MiB, where a lower row at every lower value took 270 MiB."""
    peak = int(run_fresh(SAMPLER_PEAK_RSS, Family.OD_EU.value))
    assert peak < 220 * 1024, f"peak RSS {peak} KiB"


# prints, for each weight, whether the sampler's count is the DP's and
# whether its column n never decreases; one sampler at a time keeps the
# peak at one table
SAMPLER_AT_CUTOFF = """
import sys
sys.path.insert(0, sys.argv[1])
from parityparts.families import SAMPLE_CUTOFF, CountTable, Family, FamilySampler
family = Family(sys.argv[2])
table = CountTable.build(family, SAMPLE_CUTOFF)
for n in (SAMPLE_CUTOFF - 1, SAMPLE_CUTOFF):
    sampler = FamilySampler(family, n)
    top = sampler._top
    print(n, sampler.count == table[n], all(a <= b for a, b in zip(top, top[1:])))
    del sampler, top
"""


@pytest.mark.slow
@pytest.mark.parametrize("family", CHAIN, ids=lambda fam: fam.value)
def test_sampler_count_matches_count_table_at_the_cutoff(family):
    """The largest tables, where the most rows are shared past n / 2 and
    one table keeps a single parity: the count against the DP's, and
    column n nondecreasing in the largest part allowed.  Each family runs
    in a fresh interpreter, so the test process never holds a table this
    size: a process that has held one keeps its memory."""
    assert run_fresh(SAMPLER_AT_CUTOFF, family.value) == (
        f"{SAMPLE_CUTOFF - 1} True True\n{SAMPLE_CUTOFF} True True\n"
    )


TABLES_300 = {family: CountTable.build(family, 300) for family in CHAIN}


@given(st.sampled_from(CHAIN), st.integers(0, 300))
def test_sampler_count_matches_count_table(family, n):
    assert FamilySampler(family, n).count == TABLES_300[family][n]


def test_every_family_has_a_member_at_every_weight():
    # the empty member at 0 and the one-part member (n) above it, so a
    # sampler always has a member to draw
    assert len(TABLES_300) == len(Family)
    for family, table in TABLES_300.items():
        assert all(table[n] > 0 for n in range(301)), family.value


TABLES_400 = {family: CountTable.build(family, 400) for family in CHAIN}

# the weights in 0..400 where each link of the chain is not strict; each
# link is strict from one above its largest, its threshold in ROADMAP's
# Baseline (11, 4, 50, 5, 6, 5 and 4)
CHAIN_LINK_FAILURES = {
    (Family.ED_OD, Family.OD_ED): {0, 1, 2, 4, 5, 6, 10},
    (Family.OD_ED, Family.OD_EU): {0, 1, 2, 3},
    (Family.OD_EU, Family.EU_OD): {*range(18), *range(19, 50, 2)},
    (Family.EU_OD, Family.ED_OU): {0, 1, 4},
    (Family.ED_OU, Family.EU_OU): {0, 1, 2, 3, 5},
    (Family.EU_OU, Family.OU_ED): {0, 1, 2, 4},
    (Family.OU_ED, Family.OU_EU): {0, 1, 2, 3},
}


def test_chain_links_fail_exactly_at_their_frozen_sets():
    assert list(CHAIN_LINK_FAILURES) == list(zip(CHAIN, CHAIN[1:]))
    for (small, large), failures in CHAIN_LINK_FAILURES.items():
        loose = {n for n in range(401) if not TABLES_400[small][n] < TABLES_400[large][n]}
        assert loose == failures, (small.value, large.value)


def test_chain_ordering_50_to_400():
    """The eight counts are weakly increasing along the chain, strictly at
    the asserted links, for every weight from 50 to 400."""
    strict_pairs = [
        (Family.ED_OD, Family.OD_ED),
        (Family.EU_OU, Family.OU_EU),
        (Family.OD_EU, Family.ED_OU),
        (Family.EU_OD, Family.OU_ED),
        (Family.OD_ED, Family.EU_OD),
        (Family.OD_EU, Family.EU_OD),
    ]
    for n in range(50, 401):
        counts = [TABLES_400[family][n] for family in CHAIN]
        for left, right in zip(counts, counts[1:]):
            assert left <= right, (n, counts)
        for small, large in strict_pairs:
            assert TABLES_400[small][n] < TABLES_400[large][n], (n, small.value, large.value)


def test_counts_csv_shape():
    csv = counts_csv(4, 5)
    lines = csv.splitlines()
    assert lines[0] == "n,p_ed_od,p_od_ed,p_od_eu,p_eu_od,p_ed_ou,p_eu_ou,p_ou_ed,p_ou_eu"
    assert lines[1].startswith("4,")
    assert lines[2].split(",")[0] == "5"
    assert lines[2].split(",")[3] == "3"  # p_od_eu(5)
    assert lines[2].split(",")[4] == "2"  # p_eu_od(5)


def test_counts_csv_builds_one_table_per_family(monkeypatch):
    build = CountTable.build.__func__
    built = []

    def recording_build(cls, family, max_n):
        built.append((family, max_n))
        return build(cls, family, max_n)

    monkeypatch.setattr(CountTable, "build", classmethod(recording_build))
    csv = counts_csv(0, 300, families=[Family.OD_EU, Family.EU_OD])
    assert built == [(Family.OD_EU, 300), (Family.EU_OD, 300)]
    assert csv.splitlines()[301].startswith("300,")


def test_counts_csv_subset_keeps_chain_order():
    csv = counts_csv(5, 5, families=[Family.OD_EU, Family.EU_OD])
    assert csv.splitlines()[0] == "n,p_od_eu,p_eu_od"


@pytest.mark.parametrize("family", CHAIN, ids=lambda fam: fam.value)
def test_unrank_agrees_with_enumeration(family):
    for n in range(0, 15):
        sampler = FamilySampler(family, n)
        members = list(enumerate_family(family, n))
        assert sampler.count == len(members)
        assert [sampler.unrank(i) for i in range(sampler.count)] == members


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(CHAIN), st.integers(0, 600), st.data())
def test_unrank_matches_linear_walk(family, n, data):
    sampler = FamilySampler(family, n)
    last = sampler.count - 1
    for index in (0, last, data.draw(st.integers(0, last))):
        assert sampler.unrank(index) == reference_unrank(sampler, index), index


def test_unrank_matches_linear_walk_at_every_index_from_15_to_39():
    # below 15, test_unrank_agrees_with_enumeration covers every index
    for family in CHAIN:
        for n in range(15, 40):
            sampler = FamilySampler(family, n)
            for index in range(sampler.count):
                assert sampler.unrank(index) == reference_unrank(sampler, index)


def test_unrank_blocks_split_unrank_at_every_index_below_40():
    for family in CHAIN:
        for n in range(40):
            sampler = FamilySampler(family, n)
            for index in range(sampler.count):
                assert sampler.unrank_blocks(index) == parity_split(sampler.unrank(index))


@pytest.mark.parametrize("n", [200, 373, 374, 501])
def test_unrank_blocks_split_unrank_at_seeded_indices(n):
    rng = random.Random(n)
    for family in CHAIN:
        sampler = FamilySampler(family, n)
        for _ in range(300):
            index = rng.randrange(sampler.count)
            evens, odds = sampler.unrank_blocks(index)
            assert type(evens) is type(odds) is tuple
            assert (evens, odds) == parity_split(sampler.unrank(index)), (family, index)


# sha256 per family of 200 draws at each weight of DRAW_DIGEST_WEIGHTS,
# frozen before the sampler stored its rows at one parity per table
DRAW_DIGEST_WEIGHTS = (0, 1, 2, 999, 1000, 1001)
DRAW_DIGESTS = {
    "ed_od": "03cc43b3e55f5b118cf086900285c9fb4048ee4748da01d965bc8e7f1839b491",
    "od_ed": "dd9eafd883823afc42be5acc8ba64027f9bdd4e2e96974a21fcad8442707433a",
    "od_eu": "c04d27d57d4bc683cae04d1bbbf0e1f36e1a5ba7566def063064ffdaee261deb",
    "eu_od": "49ef05220fba2bc401eed5056c91a2dc915fafbb699f1dd6cee6b4a0b26d60f9",
    "ed_ou": "aa946441aecddcb7cedd6fd19c89b474795baf6f96c280a9d30ee3dd66cb8591",
    "eu_ou": "4230221e075a2d746643acbc03cdf091ab08617996d01347c40ed445a6c183c5",
    "ou_ed": "cdc8f5d9bee0f747621ed375dab3370502ace73e817bf610ac610e8324218373",
    "ou_eu": "f34d0fd1b315984105e841e31414e8a1a87afdd8606ab4b880ae44b39f4e8faa",
}


@pytest.mark.parametrize("family", CHAIN, ids=lambda fam: fam.value)
def test_seeded_draws_are_frozen(family):
    """200 indices per weight, drawn by ``random.Random(n)``: the sizes
    where a parity row is empty or short, and both parities of n at 1000."""
    digest = hashlib.sha256()
    for n in DRAW_DIGEST_WEIGHTS:
        sampler = FamilySampler(family, n)
        rng = random.Random(n)
        for _ in range(200):
            index = rng.randrange(sampler.count)
            digest.update(f"{n} {index} {sampler.unrank_blocks(index)}\n".encode())
    assert digest.hexdigest() == DRAW_DIGESTS[family.value]


def test_sample_blocks_draws_what_sample_draws():
    for family in CHAIN:
        sampler = FamilySampler(family, 101)
        blocks_rng, parts_rng = random.Random(5), random.Random(5)
        for _ in range(20):
            assert sampler.sample_blocks(blocks_rng) == parity_split(sampler.sample(parts_rng))


def test_sampler_rejects_weights_above_cutoff():
    # only the rejection is tested: a sampler at the cutoff allocates
    # hundreds of MiB
    for family in CHAIN:
        with pytest.raises(ValueError, match="cutoff"):
            FamilySampler(family, SAMPLE_CUTOFF + 1)
    with pytest.raises(ValueError, match="cutoff"):
        sample_family(Family.OD_EU, 10**9, 0)


def test_sampler_rejects_negative_weights():
    with pytest.raises(ValueError, match="^weight must be nonnegative, got -1$"):
        FamilySampler(Family.OD_EU, -1)


def test_counting_rejects_weights_above_cutoff():
    # only the rejection is tested: nothing of this size is allocated
    for family in CHAIN:
        with pytest.raises(ValueError, match="cutoff"):
            CountTable.build(family, COUNT_CUTOFF + 1)
        with pytest.raises(ValueError, match="cutoff"):
            count_family(family, 10**12)


def test_unrank_range_errors():
    sampler = FamilySampler(Family.OD_EU, 5)
    with pytest.raises(ValueError):
        sampler.unrank(-1)
    with pytest.raises(ValueError):
        sampler.unrank(sampler.count)
    # refused, not read as a nearby int's member
    for index in (1.5, 2.0, "1", None):
        with pytest.raises(ValueError, match=f"^index must be an int, got {index!r}$"):
            sampler.unrank(index)
        with pytest.raises(ValueError, match="^index must be an int"):
            sampler.unrank_blocks(index)


def test_sample_family_is_deterministic():
    draws = [sample_family(Family.OD_EU, 40, seed) for seed in (7, 7, 8)]
    assert draws[0] == draws[1]
    assert in_family(draws[2], Family.OD_EU)
    assert draws[2].weight == 40


@given(st.integers(0, 2**64 - 1))
def test_sample_membership_and_weight(seed):
    p = sample_family(Family.EU_OD, 23, seed)
    assert p.weight == 23
    assert in_family(p, Family.EU_OD)


def test_sampler_rng_stream_is_stable():
    sampler = FamilySampler(Family.OD_EU, 30)
    rng = random.Random(123)
    first = [sampler.sample(rng) for _ in range(5)]
    rng = random.Random(123)
    second = [sampler.sample(rng) for _ in range(5)]
    assert first == second


def test_sample_uniformity_chi_square():
    """16000 seeded draws over the 8 members at weight 9; chi-square with
    7 degrees of freedom stays under the 99.9% critical value 24.322."""
    members = list(enumerate_family(Family.OD_EU, 9))
    assert len(members) == 8
    observed = {member: 0 for member in members}
    for seed in range(16000):
        observed[sample_family(Family.OD_EU, 9, seed)] += 1
    expected = 16000 / len(members)
    statistic = sum((count - expected) ** 2 / expected for count in observed.values())
    assert statistic < 24.322, observed
