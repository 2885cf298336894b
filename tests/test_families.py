import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parityparts import families
from parityparts.core import Partition, parse_partition
from parityparts.families import (
    COUNT_CUTOFF,
    ENUMERATION_CUTOFF,
    SAMPLE_CUTOFF,
    CountTable,
    Family,
    FamilySampler,
    count_family,
    counts_csv,
    enumerate_family,
    in_family,
    member_blocks,
    sample_family,
)

CHAIN = tuple(Family)


def all_partitions(n, largest=None):
    """Textbook generator of every partition of n, the oracle route."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(largest, n), 0, -1):
        for rest in all_partitions(n - first, first):
            yield (first, *rest)


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
    the sampler's own rows, which the per-cell reference test pins down."""
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
                    ways = sampler._before[value - 1][remaining - copies * value]
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
                ways = sampler._after[value - 1][remaining - copies * value]
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


@pytest.mark.parametrize("family", CHAIN, ids=lambda fam: fam.value)
def test_block_walk_matches_reference_enumeration(family):
    for n in range(0, 41):
        reference = list(reference_enumerate(family, n))
        pairs = list(member_blocks(family, n))
        assert list(enumerate_family(family, n)) == reference, n
        assert len(pairs) == len(reference), n
        for (evens, odds), member in zip(pairs, reference):
            assert evens == tuple(part for part in member if part % 2 == 0), (n, member)
            assert odds == tuple(part for part in member if part % 2 == 1), (n, member)


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


@pytest.mark.parametrize("family", CHAIN, ids=lambda fam: fam.value)
@pytest.mark.parametrize("max_n", [0, 1, 2, 3, 64, 257, 400])
def test_count_table_matches_per_cell_reference(family, max_n):
    assert CountTable.build(family, max_n).counts == reference_counts(family, max_n)


@pytest.mark.parametrize("family", CHAIN, ids=lambda fam: fam.value)
def test_sampler_tables_match_per_cell_reference(family):
    """Every stored row is a prefix of the full reference row that covers
    the triangle (weights 0..n - v of row v); ``_top`` is column n."""
    for n in range(121):
        sampler = FamilySampler(family, n)
        before, after = reference_sampler_tables(family, n)
        for rows, reference in ((sampler._before, before), (sampler._after, after)):
            assert len(rows) == n + 1, n
            for v, (row, full) in enumerate(zip(rows, reference)):
                assert n + 1 - v <= len(row) <= n + 1, (n, v)
                assert row == full[: len(row)], (n, v)
        assert sampler._top == [row[n] for row in before], n


TABLES_300 = {family: CountTable.build(family, 300) for family in CHAIN}


@given(st.sampled_from(CHAIN), st.integers(0, 300))
def test_sampler_count_matches_count_table(family, n):
    assert FamilySampler(family, n).count == TABLES_300[family][n]


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

    monkeypatch.setattr(families, "_tables", {})
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


def test_sampler_rejects_weights_above_cutoff():
    # only the rejection is tested: a sampler at the cutoff allocates
    # hundreds of MiB
    for family in CHAIN:
        with pytest.raises(ValueError, match="cutoff"):
            FamilySampler(family, SAMPLE_CUTOFF + 1)
    with pytest.raises(ValueError, match="cutoff"):
        sample_family(Family.OD_EU, 10**9, 0)


def test_counting_rejects_weights_above_cutoff():
    # only the rejection is tested: nothing of this size is allocated
    for family in CHAIN:
        with pytest.raises(ValueError, match="cutoff"):
            CountTable.build(family, COUNT_CUTOFF + 1)
        with pytest.raises(ValueError, match="cutoff"):
            count_family(family, 10**12)


def test_count_family_growth_stops_at_the_cutoff(monkeypatch):
    expected = CountTable.build(Family.OD_EU, 90)
    monkeypatch.setattr(families, "COUNT_CUTOFF", 100)
    monkeypatch.setattr(families, "_tables", {})
    assert count_family(Family.OD_EU, 60) == expected[60]
    # the doubled target 128 is cut to 100, so this legal query is answered
    assert count_family(Family.OD_EU, 90) == expected[90]
    assert families._tables[Family.OD_EU].max_n == 100
    with pytest.raises(ValueError, match="cutoff"):
        count_family(Family.OD_EU, 101)


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
