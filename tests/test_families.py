import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parityparts.core import Partition, parity_split, parse_partition
from parityparts.families import (
    COUNT_CUTOFF,
    ENUMERATION_CUTOFF,
    SAMPLE_CUTOFF,
    CountTable,
    Family,
    FamilySampler,
    blocks_in_family,
    count_family,
    counts_csv,
    enumerate_family,
    in_family,
    member_blocks,
    sample_family,
)

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


def reference_unrank(sampler, index):
    """The linear walk that bisection replaced: every part value from n
    down to 1, and every multiplicity from the largest down to 1.  It reads
    the sampler's own rows, which the per-cell reference test pins down;
    ``_before`` rows hold weight m at index m // ``_before_step``, and
    ``_after`` rows at index m // ``_after_step``, keeping no weight whose
    cell is 0."""
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
                    ways = sampler._before[value - 1][rest // sampler._before_step]
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
                step = sampler._after_step
                # a weight the after rows drop has no completion
                ways = sampler._after[value - 1][rest // step] if rest % step == 0 else 0
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


def test_family_flags():
    fam = Family.OD_EU
    assert fam.lower_odd and fam.lower_distinct
    assert not fam.upper_odd and not fam.upper_distinct
    fam = Family.EU_OD
    assert not fam.lower_odd and not fam.lower_distinct
    assert fam.upper_odd and fam.upper_distinct


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
    """Every stored cell equals the full reference row at its weight, and
    every weight an ``_after`` row does not store is 0 in the reference (the
    weights a ``_before`` row drops can never remain).

    Each row v of a table with step s holds weight m at index m // s: a
    ``_before`` row holds the weights of n's parity (all weights for s = 1),
    an ``_after`` row the even weights (all for s = 1).  The before step is
    2 when the upper parts are even, the after step when the lower parts
    are; the other step is 1.  Each row is a prefix of its weights that
    covers the triangle's weights (0..n - v) of that class.  ``_top`` is
    column n.  From n // 2 + 2 on, every row is the very object stored for
    the value before it.  The band edges are n = 0, 1 and 2, where a parity
    row can be empty, and v at and around n / 2, where the slice-adds first
    reach past the end of row v and the rows start to be shared; every row
    of every n below 121, and of n = 400 and 401, is checked, so both
    parities of n meet each edge.
    """
    b_step = 1 if family.upper_odd else 2
    a_step = 2 if family.upper_odd else 1
    for n in (*range(121), 400, 401):
        sampler = FamilySampler(family, n)
        before, after = reference_sampler_tables(family, n)
        assert (sampler._before_step, sampler._after_step) == (b_step, a_step)
        assert len(sampler._before) == len(sampler._after) == n + 1, n
        for rows, full_rows, step, low in (
            (sampler._before, before, b_step, n % b_step),
            (sampler._after, after, a_step, 0),
        ):
            for v, (row, full) in enumerate(zip(rows, full_rows)):
                stored = range(low, low + step * len(row), step)
                assert len(range(low, n + 1 - v, step)) <= len(row), (n, v)
                assert not stored or stored[-1] <= n, (n, v)
                assert row == [full[m] for m in stored], (n, v)
        for v, full in enumerate(after):
            # with step 2 the after rows drop the odd weights, all 0
            assert not any(full[m] for m in range(n + 1) if m % a_step), (n, v)
        for v in range(n // 2 + 2, n + 1):
            assert sampler._before[v] is sampler._before[v - 1], (n, v)
            assert sampler._after[v] is sampler._after[v - 1], (n, v)
        assert sampler._top == [row[n] for row in before], n


def test_sampler_stores_about_three_eighths_n_squared_cells():
    # od_eu at 2000, the deep weight of sampled verification: 3n^2/8 is
    # 1.5M cells, where unshared rows past the midpoint held about 2.01M
    sampler = FamilySampler(Family.OD_EU, 2000)
    rows = {id(row): row for row in (*sampler._before, *sampler._after)}
    assert sum(map(len, rows.values())) <= 1_510_000


def _assert_each_table_shares_by_its_own_weights(sampler):
    """Row v of a table is row v - 1, the same object, exactly when every
    weight that row v - 1 stores is below v; an ``_after`` row is also
    row v - 1 at every v of the upper parity, where no lower part is
    placed.  Neither table's sharing waits for the other's."""
    n = sampler.n
    upper_rem = 1 if sampler.family.upper_odd else 0
    before, after = sampler._before, sampler._after
    b_step, a_step = sampler._before_step, sampler._after_step
    for v in range(1, n + 1):
        b_stored = (len(before[v - 1]) - 1) * b_step + n % b_step
        assert (before[v] is before[v - 1]) == (b_stored < v), (n, v)
        a_stored = (len(after[v - 1]) - 1) * a_step
        assert (after[v] is after[v - 1]) == (v % 2 == upper_rem or a_stored < v), (n, v)


@pytest.mark.parametrize("family", CHAIN, ids=lambda fam: fam.value)
def test_each_sampler_table_shares_a_row_by_its_own_stored_weights(family):
    for n in (*range(121), 373, 374, 375):
        _assert_each_table_shares_by_its_own_weights(FamilySampler(family, n))


def test_od_eu_sampler_at_2000_shares_per_table_and_stores_1_505_002_cells():
    # the deep weight of sampled verification, where the two tables start
    # sharing at different values
    sampler = FamilySampler(Family.OD_EU, 2000)
    _assert_each_table_shares_by_its_own_weights(sampler)
    rows = {id(row): row for row in (*sampler._before, *sampler._after)}
    assert sum(map(len, rows.values())) == 1_505_002


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


def test_chain_ordering_50_to_400():
    """The eight counts are weakly increasing along the chain, strictly at
    the asserted links, for every weight from 50 to 400."""
    tables = {family: CountTable.build(family, 400) for family in CHAIN}
    strict_pairs = [
        (Family.ED_OD, Family.OD_ED),
        (Family.EU_OU, Family.OU_EU),
        (Family.OD_EU, Family.ED_OU),
        (Family.EU_OD, Family.OU_ED),
        (Family.OD_ED, Family.EU_OD),
        (Family.OD_EU, Family.EU_OD),
    ]
    for n in range(50, 401):
        counts = [tables[family][n] for family in CHAIN]
        for left, right in zip(counts, counts[1:]):
            assert left <= right, (n, counts)
        for small, large in strict_pairs:
            assert tables[small][n] < tables[large][n], (n, small.value, large.value)


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
