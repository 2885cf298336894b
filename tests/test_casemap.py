import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parityparts.casemap import (
    CASES,
    IMAGE_FAMILY,
    NUM_CASES,
    SOURCE_FAMILY,
    backward,
    case_min_weight,
    classify_image,
    classify_source,
    _bwd_swap,
    _fwd_swap,
    _slide,
    forward,
    image_case_matches,
    image_cases,
    source_case_matches,
    source_cases,
    witness,
)
from parityparts.core import parity_split, parse_partition
from parityparts.families import (
    Family,
    FamilySampler,
    enumerate_family,
    in_family,
    member_blocks,
)
from parityparts.verify import _source_fault

# (case, source, image) triples with hand-checked weights; the map must
# reproduce each image exactly and invert it back to the source.
KNOWN_PAIRS = [
    (2, "8,8,8,7,5,3", "11,9,7,4,4,4"),
    (3, "6,6,6,4,3,1", "11,5,4,2,2,2"),
    (4, "8,8,7,5,3,1", "13,7,5,3,2,2"),
    (5, "6,3,1", "5,3,2"),
    (6, "10,9,7,5,3,1", "9,7,5,4,2,2,2,2,2"),
    (7, "14,13,11,9,7", "15,13,11,3,2,2,2,2,2,2"),
    (8, "10,9,3", "7,5,2,2,2,2,2"),
    (9, "12,11", "9,5,3,2,2,2"),
    (10, "30,28,27", "35,33,5,2,2,2,2,2,2"),
    (11, "10,8,6,1", "11,8,6"),
    (12, "26,26,26,25", "33,31,29,2,2,2,2,2"),
    (13, "38,36,36,36,33", "43,41,39,35,3,2^9"),
    (14, "40,38,38,38,38,35", "47,45,43,41,37,2^7"),
    (15, "64,62,60,58,56,54,19", "67,63,59,56,54,20,2^27"),
    (16, "4^11,3", "9,7,5,4,4,4,4,2^5"),
    (17, "16,4^10,3", "9,7,5,4,4,4,4,2^11"),
]

# The one case-15 member at weight 373 whose image falls outside the case-15
# signature: its image has f2 = 12, and the signature needs f2 > 12.
CASE_15_GAP = parse_partition("34^10,33")

MIN_WEIGHTS = {
    1: 1, 2: 12, 3: 16, 4: 21, 5: 5, 6: 35, 7: 54, 8: 20, 9: 23,
    10: 83, 11: 7, 12: 95, 13: 159, 14: 227, 15: 373, 16: 47, 17: 59,
}


def test_case_min_weight_table():
    assert NUM_CASES == 17
    for case, expected in MIN_WEIGHTS.items():
        assert case_min_weight(case) == expected
    with pytest.raises(ValueError):
        case_min_weight(0)
    with pytest.raises(ValueError):
        case_min_weight(18)


@pytest.mark.parametrize("case,source,image", KNOWN_PAIRS, ids=lambda value: str(value))
def test_known_pairs_forward(case, source, image):
    p = parse_partition(source)
    q = parse_partition(image)
    assert p.weight == q.weight
    assert classify_source(p) == case
    assert forward(p) == q


@pytest.mark.parametrize("case,source,image", KNOWN_PAIRS, ids=lambda value: str(value))
def test_known_pairs_backward(case, source, image):
    p = parse_partition(source)
    q = parse_partition(image)
    assert classify_image(q) == case
    assert backward(q) == p


def test_case_1_is_identity_both_ways():
    evens_only = parse_partition("8,6,6,2")
    odds_only = parse_partition("9,5,3")
    assert classify_source(evens_only) == 1
    assert forward(evens_only) == evens_only
    assert classify_source(odds_only) == 1
    assert forward(odds_only) == odds_only
    assert classify_image(odds_only) == 1
    assert backward(odds_only) == odds_only


def test_case_9_inverse_formula_example():
    image = parse_partition("65,5,3,2,2,2")
    assert classify_image(image) == 9
    assert backward(image) == (40, 39)


def test_classification_is_total_and_unique_up_to_45():
    for n in range(0, 46):
        for member in enumerate_family(SOURCE_FAMILY, n):
            assert len(source_case_matches(member)) == 1, member


def test_image_signatures_pairwise_disjoint_up_to_45():
    for n in range(0, 46):
        for member in enumerate_family(IMAGE_FAMILY, n):
            assert len(image_case_matches(member)) <= 1, member


def test_forward_rejects_below_min_weight():
    with pytest.raises(ValueError):
        forward(parse_partition("2,1"))  # weight 3, case 9 starts at 23
    with pytest.raises(ValueError):
        forward(parse_partition("4,3,1"))  # weight 8, case 8 starts at 20


def test_forward_works_at_min_weight():
    source = parse_partition("4,4,3,1")  # weight 12, the first case 2 weight
    assert classify_source(source) == 2
    image = forward(source)
    assert image == (5, 3, 2, 2)
    assert backward(image) == source


def test_classify_rejects_non_members():
    with pytest.raises(ValueError):
        classify_source(parse_partition("4,3,2"))
    with pytest.raises(ValueError):
        image_case_matches(parse_partition("3,3,2"))


def test_backward_rejects_unmatched_image():
    with pytest.raises(ValueError):
        backward(witness(373))


def test_case_15_gap_at_373():
    assert CASE_15_GAP.weight == 373
    assert classify_source(CASE_15_GAP) == 15
    image = forward(CASE_15_GAP)
    assert image.weight == 373
    assert in_family(image, IMAGE_FAMILY)
    assert image.count(2) == 12
    assert classify_image(image) is None
    with pytest.raises(ValueError):
        backward(image)


@pytest.mark.parametrize("weight", [373, 401, 502])
def test_roundtrip_on_sampled_members(weight):
    sampler = FamilySampler(SOURCE_FAMILY, weight)
    rng = random.Random(99)
    for _ in range(150):
        source = sampler.sample(rng)
        case = classify_source(source)
        image = forward(source)
        assert image.weight == weight
        assert in_family(image, IMAGE_FAMILY)
        if source == CASE_15_GAP:
            assert classify_image(image) is None
            continue
        assert classify_image(image) == case
        assert backward(image) == source


_sampler_200 = FamilySampler(SOURCE_FAMILY, 200)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_roundtrip_property_weight_200(seed):
    source = _sampler_200.sample(random.Random(seed))
    case = classify_source(source)
    if source.weight < case_min_weight(case):
        return
    image = forward(source)
    assert image.weight == 200
    assert in_family(image, IMAGE_FAMILY)
    assert classify_image(image) == case
    assert backward(image) == source


def test_witness_below_373_rejected():
    with pytest.raises(ValueError):
        witness(372)


def test_witness_frozen_shapes():
    assert witness(373) == (127, 125, 117, 2, 2)
    assert witness(374) == (125, 123, 119, 3, 2, 2)
    assert witness(379) == (129, 127, 119, 2, 2)


@pytest.mark.parametrize("n", list(range(373, 434)))
def test_witness_is_unmatched_member(n):
    w = witness(n)
    assert w.weight == n
    assert in_family(w, IMAGE_FAMILY)
    assert image_case_matches(w) == ()


# The three per-case rewrites that cases 2-4 used before they shared
# _fwd_swap and _bwd_swap, kept as the reference for the merged pair.
def _fwd_2(ev, od):
    inc = _slide(len(ev))
    to_odd = [ev[k] + inc[k] for k in range(len(ev) - 1)] + [ev[-1] - 1]
    to_even = [od[k] - inc[k] for k in range(len(od) - 1)] + [od[-1] + 1]
    return to_odd + to_even


def _fwd_3(ev, od):
    n_ev, n_od = len(ev), len(od)
    inc = _slide(n_od)
    to_odd = [ev[0] + 2 * (n_ev - n_od) + (2 * n_od - 3)]
    to_odd += [ev[k] + inc[k] for k in range(1, n_od - 1)]
    to_odd += [ev[n_od - 1] - 1]
    kept_even = [part - 2 for part in ev[n_od:]]
    to_even = [od[k] - inc[k] for k in range(n_od - 1)] + [od[-1] + 1]
    return to_odd + kept_even + to_even


def _fwd_4(ev, od):
    n_ev, n_od = len(ev), len(od)
    inc = _slide(n_ev)
    to_odd = [ev[0] + 2 * (n_od - n_ev) + (2 * n_ev - 3)]
    to_odd += [ev[k] + inc[k] for k in range(1, n_ev - 1)]
    to_odd += [ev[-1] - 1]
    kept_odd = [part - 2 for part in od[: n_od - n_ev]]
    tail = od[n_od - n_ev :]
    to_even = [tail[k] - inc[k] for k in range(n_ev - 1)] + [tail[-1] + 1]
    return to_odd + kept_odd + to_even


def _bwd_2(e, o):
    inc = _slide(len(e))
    to_even = [o[k] - inc[k] for k in range(len(o) - 1)] + [o[-1] + 1]
    to_odd = [e[k] + inc[k] for k in range(len(e) - 1)] + [e[-1] - 1]
    return to_even + to_odd


def _bwd_3(e, o):
    u, v = len(e), len(o)
    inc = _slide(v)
    to_even = [o[0] - (2 * (u - v) + 2 * v - 3)]
    to_even += [o[k] - inc[k] for k in range(1, v - 1)]
    to_even += [o[-1] + 1]
    kept_even = [part + 2 for part in e[: u - v]]
    tail = e[u - v :]
    to_odd = [tail[k] + inc[k] for k in range(v - 1)] + [tail[-1] - 1]
    return to_even + kept_even + to_odd


def _bwd_4(e, o):
    u, v = len(e), len(o)
    inc = _slide(u)
    to_even = [o[0] - (2 * (v - u) + 2 * u - 3)]
    to_even += [o[k] - inc[k] for k in range(1, u - 1)]
    to_even += [o[u - 1] + 1]
    kept_odd = [part + 2 for part in o[u:]]
    to_odd = [e[k] + inc[k] for k in range(u - 1)] + [e[-1] - 1]
    return to_even + kept_odd + to_odd


REFERENCE_SWAPS = {2: (_fwd_2, _bwd_2), 3: (_fwd_3, _bwd_3), 4: (_fwd_4, _bwd_4)}


def _swap_case(evens, odds):
    """Which of cases 2-4 rewrites blocks of these lengths, on either side."""
    return 2 if len(evens) == len(odds) else 3 if len(evens) > len(odds) else 4


def _forward_matches_reference(ev, od):
    return sorted(_fwd_swap(ev, od)) == sorted(REFERENCE_SWAPS[_swap_case(ev, od)][0](ev, od))


def _backward_matches_reference(e, o):
    return sorted(_bwd_swap(e, o)) == sorted(REFERENCE_SWAPS[_swap_case(e, o)][1](e, o))


def test_cases_2_to_4_share_one_rewrite_pair():
    assert {CASES[case].forward for case in REFERENCE_SWAPS} == {_fwd_swap}
    assert {CASES[case].backward for case in REFERENCE_SWAPS} == {_bwd_swap}


def test_block_swap_matches_reference_up_to_50():
    sources = images = 0
    for n in range(51):
        for ev, od in member_blocks(SOURCE_FAMILY, n):
            if source_cases(ev, od)[0] in REFERENCE_SWAPS:
                assert _forward_matches_reference(ev, od), (ev, od)
                sources += 1
        for e, o in member_blocks(IMAGE_FAMILY, n):
            if set(image_cases(e, o)) & set(REFERENCE_SWAPS):
                assert _backward_matches_reference(e, o), (e, o)
                images += 1
    assert sources > 3000 and images > 900


@pytest.mark.parametrize("weight", [373, 401])
def test_block_swap_matches_reference_on_draws(weight):
    """Seeded uniform draws of both families; a drawn source's image is
    checked too, since it carries the same case's signature."""
    rng = random.Random(weight)
    sources = FamilySampler(SOURCE_FAMILY, weight)
    images = FamilySampler(IMAGE_FAMILY, weight)
    checked = 0
    for _ in range(2000):
        ev, od = parity_split(sources.sample(rng))
        if source_cases(ev, od)[0] in REFERENCE_SWAPS:
            assert _forward_matches_reference(ev, od), (ev, od)
            assert _backward_matches_reference(*parity_split(_fwd_swap(ev, od)))
            checked += 2
        e, o = parity_split(images.sample(rng))
        if set(image_cases(e, o)) & set(REFERENCE_SWAPS):
            assert _backward_matches_reference(e, o), (e, o)
            checked += 1
    assert checked > 50


_blocks = st.lists(st.integers(1, 200), min_size=2, max_size=14)


@settings(max_examples=200, deadline=None)
@given(_blocks, _blocks)
def test_block_swap_matches_reference_on_any_block_lengths(evens, odds):
    """The rewrites are formulas in the block lengths and parts, so the
    merged pair must equal the reference on any two blocks of length 2+."""
    evens = tuple(sorted((2 * part for part in evens), reverse=True))
    odds = tuple(sorted((2 * part - 1 for part in odds), reverse=True))
    assert _forward_matches_reference(evens, odds)
    assert _backward_matches_reference(evens, odds)


def _even_blocks(j, total, lowest):
    """Weakly decreasing j-tuples of even parts, each at least lowest
    (itself even), that sum to total."""
    if j == 0:
        if total == 0:
            yield ()
        return
    for top in range(total - (j - 1) * lowest, lowest - 1, -1):
        if top % 2 == 0 and top * j >= total:
            for rest in _even_blocks(j - 1, total - top, lowest):
                if not rest or rest[0] <= top:
                    yield (top,) + rest


def _case_members(j, n, lowest_odd):
    """Source blocks of weight n with j even parts strictly above one odd
    part of at least lowest_odd: cases 10 (j = 2) and 12 (j = 3, odd part
    at least 3)."""
    for odd in range(lowest_odd, n, 2):
        for evens in _even_blocks(j, n - odd, odd + 1):
            yield evens, (odd,)


# case: (even parts, smallest odd part, members below the minimum weight,
# how many of them fail a check, the one member failing at the last
# failing weight).  Only a few failures have the shape (2m)^j,(2m-1) of
# the last one: 13 of case 10's 455, one every 6 weights up to 77.
BOUNDARY_ATLAS = {10: (2, 1, 1981, 455, "26,26,25"), 12: (3, 3, 6754, 715, "22,22,22,21")}


@pytest.mark.parametrize("case", sorted(BOUNDARY_ATLAS))
def test_case_walk_matches_enumeration(case):
    j, lowest_odd = BOUNDARY_ATLAS[case][:2]
    for n in range(1, 46, 2):
        walked = list(_case_members(j, n, lowest_odd))
        assert len(set(walked)) == len(walked)
        enumerated = {m for m in member_blocks(SOURCE_FAMILY, n) if source_cases(*m) == (case,)}
        assert set(walked) == enumerated


@pytest.mark.parametrize("case", sorted(BOUNDARY_ATLAS))
def test_boundary_atlas_below_min_weight(case):
    """Below its minimum weight a case's rewrites fail the verifier's
    source checks on some members and pass on the rest; from the minimum
    weight up to 39 past it, every member passes."""
    j, lowest_odd, members, failing, last = BOUNDARY_ATLAS[case]
    min_weight = CASES[case].min_weight
    below = 0
    failed = {}
    for n in range(1, min_weight + 40, 2):
        for source in _case_members(j, n, lowest_odd):
            assert source_cases(*source) == (case,)
            fault = _source_fault(source, case, n, {})
            if n >= min_weight:
                assert fault is None, (n, source, fault)
                continue
            below += 1
            if fault is not None:
                failed.setdefault(n, []).append(source)
    assert below == members
    assert sum(map(len, failed.values())) == failing
    last_weight = max(failed)
    assert [parity_split(parse_partition(last))] == failed[last_weight]
    assert last_weight == parse_partition(last).weight
