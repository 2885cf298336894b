import random
from functools import partial
from itertools import accumulate, combinations, product

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from parityparts.casemap import (
    CASES,
    IMAGE_FAMILY,
    IMAGE_FORMS,
    MAX_MAP_WEIGHT,
    NUM_CASES,
    SOURCE_FAMILY,
    SOURCE_FORMS,
    Case,
    Classifier,
    backward,
    classify_image,
    classify_source,
    _bwd_long,
    _bwd_odds,
    _bwd_tower,
    _fwd_window,
    _swap,
    forward,
    image_case_matches,
    record_cases,
    record_clamps,
    source_case_matches,
    witness,
)
from parityparts.core import Partition, parity_split, parse_partition
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
    # its image meets the signature rest 2 * f2 + 15 >= o[0] with equality
    (15, "40^9,39", "45,43,41,40^6,2^15"),
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
    assert {case: row.min_weight for case, row in CASES.items()} == MIN_WEIGHTS


def test_replacing_a_field_of_a_case_gives_a_case():
    # the verifier's mutation tests swap rows built this way into CASES
    row = CASES[2]._replace(min_weight=0)
    assert type(row) is Case
    assert row.min_weight == 0 and row[1:] == CASES[2][1:]


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


def test_forward_refuses_weight_above_the_map_cutoff():
    # one part is case 1, the identity; only the refusal is tested
    assert forward(Partition([MAX_MAP_WEIGHT])) == (MAX_MAP_WEIGHT,)
    with pytest.raises(ValueError, match="exceeds the map cutoff"):
        forward(Partition([MAX_MAP_WEIGHT + 1]))


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


def test_backward_names_the_signatures_it_misses():
    # the one message for an unmatched image, shown as is by map --inverse
    with pytest.raises(ValueError, match="matches none of the 17 image signatures"):
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
    if source.weight < CASES[case].min_weight:
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


# The three per-case rewrites that cases 2-4 used before they shared one
# sign-flipped _swap, kept as the reference for it, with their own _slide.
def _slide(count):
    """The odd increments 2*count-3, 2*count-5, ..., 1."""
    return [2 * count - 2 * k - 3 for k in range(count - 1)]


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


# The per-case rewrites that cases 5, 6, 10 and 12-17 used before they
# shared the window rewrite _fwd_window and its readers _bwd_odds,
# _bwd_tower and _bwd_long, kept as the reference for the shared rewrites.
def _fwd_5(ev, od):
    return [ev[0] - 1] + list(od[:-1]) + [od[-1] + 1]


def _fwd_6(ev, od):
    return list(od[:-2]) + [od[-2] + 1, od[-1] + 1] + [2] * ((ev[0] - 2) // 2)


def _fwd_10(ev, od):
    return [ev[1] + 7, od[0] + 6, 5] + [2] * ((ev[0] - 18) // 2)


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


def _bwd_5(e, o):
    return [o[0] + 1] + list(o[1:]) + [e[0] - 1]


def _bwd_6(e, o):
    return [2 * len(e) - 2] + list(o) + [e[0] - 1, e[1] - 1]


def _bwd_10(e, o):
    return [2 * len(e) + 18, o[0] - 7, o[1] - 6]


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


REFERENCE_ODDS = {5: (_fwd_5, _bwd_5), 6: (_fwd_6, _bwd_6)}
REFERENCE_TOWERS = {
    10: (_fwd_10, _bwd_10),
    12: (_fwd_12, _bwd_12),
    13: (_fwd_13, _bwd_13),
    14: (_fwd_14, _bwd_14),
}
REFERENCE_LONGS = {15: (_fwd_15, _bwd_15), 16: (_fwd_16, _bwd_16), 17: (_fwd_17, _bwd_17)}


def _swap_case(evens, odds):
    """Which of cases 2-4 rewrites blocks of these lengths, on either side."""
    return 2 if len(evens) == len(odds) else 3 if len(evens) > len(odds) else 4


def _forward_matches_reference(ev, od):
    case = _swap_case(ev, od)
    return sorted(CASES[case].forward(ev, od)) == sorted(REFERENCE_SWAPS[case][0](ev, od))


def _backward_matches_reference(e, o):
    case = _swap_case(e, o)
    return sorted(CASES[case].backward(e, o)) == sorted(REFERENCE_SWAPS[case][1](e, o))


def _binding(rewrite, like):
    """A row's rewrite as its function and as many of its bound constants
    as the expected rewrite like binds."""
    bound = len(getattr(like, "args", ()))
    return getattr(rewrite, "func", rewrite), getattr(rewrite, "args", ())[:bound]


@pytest.mark.parametrize(
    "cases,fwd,bwd",
    [
        pytest.param(REFERENCE_SWAPS, partial(_swap, 1), partial(_swap, -1), id="swap"),
        pytest.param(REFERENCE_ODDS, _fwd_window, _bwd_odds, id="odds"),
        pytest.param(REFERENCE_TOWERS, _fwd_window, _bwd_tower, id="tower"),
        pytest.param(REFERENCE_LONGS, _fwd_window, _bwd_long, id="long"),
    ],
)
def test_cases_of_one_shape_share_one_rewrite_pair(cases, fwd, bwd):
    """Each group's rows hold one function, bare or with bound constants;
    the swap's rows bind sign 1 forward and -1 backward, and the nine
    window rows bind one forward, each group with its own reader."""
    assert {_binding(CASES[case].forward, fwd) for case in cases} == {_binding(fwd, fwd)}
    assert {_binding(CASES[case].backward, bwd) for case in cases} == {_binding(bwd, bwd)}


def test_case_2_rewrite_is_its_own_inverse():
    """On blocks of equal length ``_swap`` gives the same parts with either
    sign, so case 2's forward of an image gives its source back.  Binding
    sign -1 as case 2's forward is therefore an equivalent mutant on the
    case's domain, which only the binding test above can see."""
    classify = Classifier().source
    checked = 0
    for n in range(CASES[2].min_weight, 61):
        for ev, od in member_blocks(SOURCE_FAMILY, n):
            if classify(ev, od) == (2,):
                image = CASES[2].forward(ev, od)
                assert sorted(_swap(-1, ev, od)) == sorted(image), (ev, od)
                assert sorted(CASES[2].forward(*parity_split(image))) == sorted(ev + od)
                checked += 1
    assert checked == 1956


def test_block_swap_matches_reference_up_to_50():
    sources = images = 0
    for n in range(51):
        for ev, od in member_blocks(SOURCE_FAMILY, n):
            if Classifier().source(ev, od)[0] in REFERENCE_SWAPS:
                assert _forward_matches_reference(ev, od), (ev, od)
                sources += 1
        for e, o in member_blocks(IMAGE_FAMILY, n):
            if set(Classifier().image(e, o)) & set(REFERENCE_SWAPS):
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
        if Classifier().source(ev, od)[0] in REFERENCE_SWAPS:
            assert _forward_matches_reference(ev, od), (ev, od)
            image = CASES[_swap_case(ev, od)].forward(ev, od)
            assert _backward_matches_reference(*parity_split(image))
            checked += 2
        e, o = parity_split(images.sample(rng))
        if set(Classifier().image(e, o)) & set(REFERENCE_SWAPS):
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


def _odd_blocks(b, total, lowest):
    """Strictly decreasing b-tuples of odd parts, each at least lowest
    (itself odd), that sum to total."""
    if b == 0:
        if total == 0:
            yield ()
        return
    for least in range(lowest, total // b + 1, 2):
        for above in _odd_blocks(b - 1, total - least, least + 2):
            yield above + (least,)


def _case_members(j, n, lowest_odd, b=1):
    """Source blocks of weight n with j even parts strictly above b
    distinct odd parts of at least lowest_odd: with one odd part, cases 10
    (j = 2), 12-14 (j = 3 to 5, odd part at least 3) and, with j from 6,
    cases 15-17; with one even part, cases 5 and 6."""
    if (n - b) % 2:
        return  # b odd parts weigh b's parity, the evens an even weight
    for odd_weight in range(b * (lowest_odd + b - 1), n, 2):
        for odds in _odd_blocks(b, odd_weight, lowest_odd):
            for evens in _even_blocks(j, n - odd_weight, odds[0] + 1):
                yield evens, odds


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
        enumerated = {
            m for m in member_blocks(SOURCE_FAMILY, n) if Classifier().source(*m) == (case,)
        }
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
    classifier = Classifier()
    for n in range(1, min_weight + 40, 2):
        for source in _case_members(j, n, lowest_odd):
            assert Classifier().source(*source) == (case,)
            fault = _source_fault(source, case, n, classifier)
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


# case: (even parts, smallest odd part, {weight: members at that weight}),
# at and just above the case's minimum weight
TOWERS_ABOVE_MIN = {13: (4, 3, {159: 12470, 161: 13125}), 14: (5, 3, {227: 207338})}


@pytest.mark.parametrize("case", sorted(TOWERS_ABOVE_MIN))
def test_tower_members_pass_at_min_weight(case):
    """Every member of cases 13 and 14 at its minimum weight (and for case
    13 the next odd weight) is classified as that case and passes every
    source check."""
    j, lowest_odd, members = TOWERS_ABOVE_MIN[case]
    classifier = Classifier()
    walked = {}
    for n in members:
        assert n >= CASES[case].min_weight
        for source in _case_members(j, n, lowest_odd):
            assert Classifier().source(*source) == (case,)
            assert _source_fault(source, case, n, classifier) is None, (n, source)
            walked[n] = walked.get(n, 0) + 1
    assert walked == members


@st.composite
def _edge_members(draw, case, j, lowest_odd):
    """A source member of j even parts above one odd part of at least
    lowest_odd, at weight min_weight + 2k up to ``MAX_MAP_WEIGHT``, drawn as
    nonnegative offsets from the flattest member with the largest odd part
    at that weight.  The all-zero draw is that member at the minimum
    weight, the domain edge: a fixed-shape case fails exactly where its top
    part is too small, so shrinking walks toward the failures."""
    min_weight = CASES[case].min_weight
    n = min_weight + 2 * draw(st.integers(0, (MAX_MAP_WEIGHT - min_weight) // 2))
    # the largest odd part leaves room for j even parts above it:
    # (j + 1) * odd + j <= n
    largest = (n - j) // (j + 1)
    largest -= 1 - largest % 2
    odd = largest - 2 * draw(st.integers(0, (largest - lowest_odd) // 2))
    # each even part is odd + 1 plus twice its share of spare
    spare = (n - odd - j * (odd + 1)) // 2
    shares = [0] * j
    for i in range(j - 1):
        # lift parts 0..i by step, so part i stands 2 * step above part i + 1
        step = draw(st.integers(0, spare // (i + 1)))
        spare -= step * (i + 1)
        shares[: i + 1] = [share + step for share in shares[: i + 1]]
    flat, extra = divmod(spare, j)
    evens = [odd + 1 + 2 * (share + flat + (i < extra)) for i, share in enumerate(shares)]
    return Partition([*evens, odd])


def _maps_through(case, source):
    """Whether the source's image matches the case's signature and inverts
    back to the source; the classification, the image's weight and its
    membership are asserted."""
    assert classify_source(source) == case
    image = forward(source)
    assert image.weight == source.weight
    assert in_family(image, IMAGE_FAMILY)
    return classify_image(image) == case and backward(image) == source


# (case, even parts, smallest odd part) for each fixed length of the cases
# whose source members are j even parts above one odd part
EDGE_SHAPES = [(10, 2, 1), (12, 3, 3), (13, 4, 3), (14, 5, 3)]
EDGE_SHAPES += [(15, j, 3) for j in range(6, 11)]


@pytest.mark.parametrize("case,j,lowest_odd", EDGE_SHAPES)
def test_edge_members_map_through(case, j, lowest_odd):
    """From the domain edge up, every drawn member maps through, except
    the one case-15 member at 373 whose image has f2 = 12."""
    failing = set()

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(_edge_members(case, j, lowest_odd))
    def check(source):
        if not _maps_through(case, source):
            failing.add(source)

    check()
    assert failing == ({CASE_15_GAP} if (case, j) == (15, 10) else set())


@st.composite
def _one_even_members(draw, case, b):
    """A source member of one even part t + 1 above b distinct odd parts
    topped by t, at the case's least weight with members plus a multiple of
    2 (of 4 when b = 1, where the weight 2t + 1 of an odd t is 3 mod 4), up
    to ``MAX_MAP_WEIGHT``.  It is drawn as nonnegative offsets from the
    flattest member at that weight: the least top t, with the other odd
    parts packed right below it.  The all-zero draw is that member at the
    least weight, the domain edge: these cases fail below it exactly at
    their flattest members, so shrinking walks toward the failures."""
    step = 4 if b == 1 else 2
    # the flattest member with b odd parts, 2b above 2b - 1, ..., 3, 1,
    # weighs b^2 + 2b; case 6 has no member below it once b passes 5
    least_weight = max(CASES[case].min_weight, b * b + 2 * b)
    first = least_weight + ((3 if b == 1 else b) - least_weight) % step
    n = first + step * draw(st.integers(0, (MAX_MAP_WEIGHT - first) // step))
    # the odd parts below t weigh n - 2t - 1: at most (b - 1)(t - b), right
    # below t, and at least (b - 1)^2, as 1, 3, 5, ...
    least = -(-(n - 1 + (b - 1) * b) // (b + 1))
    least += 1 - least % 2
    most = (n - 1 - (b - 1) ** 2) // 2
    most -= 1 - most % 2
    # right above the flattest member some weights have no member, such as
    # 37 for b = 5, where least > most
    assume(least <= most)
    top = least + 2 * draw(st.integers(0, (most - least) // 2))
    # the k-th least odd part is 2k - 1 plus twice its lift; the lifts do not
    # decrease with k, stay at most (t - 2b + 1) / 2 and sum to spare, and
    # each is drawn down from its largest, the top one first
    spare = (n - 2 * top - 1 - (b - 1) ** 2) // 2
    lift = (top - 2 * b + 1) // 2
    odds = [top]
    for k in range(b - 1, 0, -1):
        highest = min(lift, spare)
        lift = highest - draw(st.integers(0, highest - -(-spare // k)))
        spare -= lift
        odds.append(2 * k - 1 + 2 * lift)
    return Partition([top + 1, *odds])


# (case, odd parts) for each fixed length of the cases whose source members
# are one even part above the odd ones, right above the top odd part
ONE_EVEN_SHAPES = [(6, 5), (6, 9), (7, 4), (7, 3), (8, 2), (9, 1)]


@pytest.mark.parametrize("case,b", ONE_EVEN_SHAPES)
def test_one_even_edge_members_map_through(case, b):
    """From the domain edge up, every drawn member maps through."""

    @settings(max_examples=100, derandomize=True, database=None, deadline=None)
    @given(_one_even_members(case, b))
    def check(source):
        assert _maps_through(case, source), source

    check()


@st.composite
def _separated_members(draw, lengths, least_gap, lift_odds):
    """A source member of a even parts above b distinct odd parts, with
    (a, b) drawn from lengths, the cross gap at least least_gap, up to
    ``MAX_MAP_WEIGHT``.  It is drawn as nonnegative offsets from the
    flattest member with those lengths, the odd parts 2b - 1, ..., 3, 1
    under a evens equal to 2b - 1 + least_gap (at least 2): lifts of the
    odd parts, each lifting every part above it too (none unless
    lift_odds), and gaps below the evens, each lifting every even above
    it too.  The all-zero draw at the least lengths is the case's least
    member, so shrinking walks toward the domain edge."""
    a, b = draw(lengths)
    even = max(2 * b - 1 + least_gap, 2)
    # the weight left above the flattest member, in units of 2
    spare = (MAX_MAP_WEIGHT - b * b - a * even) // 2
    # lifts[k] lifts odd part k, the odd parts above it and every even
    lifts = []
    for k in range(b):
        lifts.append(draw(st.integers(0, spare // (k + 1 + a))) if lift_odds else 0)
        spare -= lifts[-1] * (k + 1 + a)
    # gaps[i] lifts even part i and the even parts above it
    gaps = []
    for i in range(a):
        gaps.append(draw(st.integers(0, spare // (i + 1))))
        spare -= gaps[-1] * (i + 1)
    odds = [2 * (b - k) - 1 + 2 * lift for k, lift in enumerate(_suffix_sums(lifts))]
    base = even + 2 * sum(lifts)
    return Partition([base + 2 * gap for gap in _suffix_sums(gaps)] + odds)


def _suffix_sums(values):
    """The sums values[k:] for each k."""
    return list(accumulate(reversed(values)))[::-1]


# case: (its block lengths (a, b), its least cross gap, whether its odd
# parts may lift) for the cases whose source members have any lengths; the
# least members are 1, 4,4,3,1, 4,4,4,3,1, 6,6,5,3,1, 4,1 and 2,2,2,1, at
# each case's minimum weight
SEPARATED_SHAPES = {
    1: (st.integers(1, 20).flatmap(lambda n: st.sampled_from([(0, n), (n, 0)])), 1, True),
    2: (st.integers(2, 20).map(lambda n: (n, n)), 1, True),
    3: (st.integers(2, 19).flatmap(lambda b: st.tuples(st.integers(b + 1, 20), st.just(b))),
        1, True),
    4: (st.integers(2, 19).flatmap(lambda a: st.tuples(st.just(a), st.integers(a + 1, 20))),
        1, True),
    5: (st.tuples(st.just(1), st.integers(1, 20)), 3, True),
    11: (st.tuples(st.integers(3, 20), st.just(1)), 1, False),
}


@pytest.mark.parametrize("case", sorted(SEPARATED_SHAPES))
def test_separated_edge_members_map_through(case):
    """From the domain edge up, every drawn member with blocks of up to 20
    parts maps through."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(_separated_members(*SEPARATED_SHAPES[case]))
    def check(source):
        assert _maps_through(case, source), source

    check()


@st.composite
def _long_members(draw, case):
    """A source member of case 16 or 17: j = 11..20 even parts above one
    odd part of at least 3, up to ``MAX_MAP_WEIGHT``.  It is drawn as
    nonnegative offsets from the flattest member with j even parts, 4^j,3
    for case 16 and 16,4^(j-1),3 for case 17, whose top gaps 0 and 12 are
    the least of each case: the top gap (at most 10 for case 16), a lift
    of the odd part, which lifts every even part with it, and the gaps
    below the top part.  The all-zero draw is 4^11,3 at weight 47 or
    16,4^10,3 at 59, each case's minimum weight, so shrinking walks toward
    the domain edge."""
    j = draw(st.integers(11, 20))
    least_top = 0 if case == 16 else 6
    # the weight left above the flattest member, in units of 2
    spare = (MAX_MAP_WEIGHT - 4 * j - 3) // 2 - least_top
    top = least_top + draw(st.integers(0, 5 if case == 16 else spare))
    spare -= top - least_top
    odd_lift = draw(st.integers(0, spare // (j + 1)))
    spare -= odd_lift * (j + 1)
    # gaps[i] is half the gap between even parts i and i + 1 (for the last,
    # between the least even part and odd + 1), so it lifts parts 0..i
    gaps = [top]
    for i in range(1, j):
        gaps.append(draw(st.integers(0, spare // (i + 1))))
        spare -= gaps[-1] * (i + 1)
    odd = 3 + 2 * odd_lift
    lifts = _suffix_sums(gaps)
    return Partition([odd + 1 + 2 * lift for lift in lifts] + [odd])


@pytest.mark.parametrize("case", [16, 17])
def test_long_edge_members_map_through(case):
    """From each case's minimum weight up, every drawn member with 11 to 20
    even parts maps through."""

    @settings(max_examples=500, derandomize=True, database=None, deadline=None)
    @given(_long_members(case))
    def check(source):
        assert _maps_through(case, source), source

    check()


REFERENCE_SHARED = {**REFERENCE_ODDS, **REFERENCE_TOWERS, **REFERENCE_LONGS}

# case: the even-block and odd-block lengths of its members and their
# smallest odd part
SHARED_WALKS = {
    5: ([1], range(1, 9), 1),
    6: ([1], range(5, 9), 1),
    10: ([2], [1], 1),
    12: ([3], [1], 3),
    13: ([4], [1], 3),
    14: ([5], [1], 3),
    15: (range(6, 11), [1], 3),
    16: (range(11, 18), [1], 3),
    17: (range(11, 18), [1], 3),
}


def _outcome(rewrite, a, b):
    try:
        return sorted(rewrite(a, b))
    except Exception as exc:
        return type(exc)


def _check_shared(case, backward, a, b):
    """The shared rewrite's parts in increasing order, after checking that
    the case's reference gives the same parts or raises the same type."""
    row = CASES[case]
    shared = _outcome(row.backward if backward else row.forward, a, b)
    assert shared == _outcome(REFERENCE_SHARED[case][backward], a, b), (case, a, b)
    return shared


@pytest.mark.parametrize("case", sorted(REFERENCE_SHARED))
def test_shared_pairs_match_reference_on_case_walks(case):
    """Every member of the case at weights up to 71, most of them below
    its minimum weight, and the blocks of each forward image."""
    lengths, odd_lengths, lowest_odd = SHARED_WALKS[case]
    checked = 0
    for n in range(1, 72):
        for j in lengths:
            for b in odd_lengths:
                for ev, od in _case_members(j, n, lowest_odd, b):
                    if Classifier().source(ev, od) == (case,):
                        image = _check_shared(case, 0, ev, od)
                        _check_shared(case, 1, *parity_split(image[::-1]))
                        checked += 1
    assert checked > 20


def _block(parts):
    return parts.map(lambda drawn: tuple(sorted(drawn, reverse=True)))


_even_parts = st.integers(1, 120).map(lambda half: 2 * half)
_odd_parts = st.integers(0, 120).map(lambda half: 2 * half + 1)


@pytest.mark.parametrize("case", sorted(REFERENCE_SHARED))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_shared_forward_matches_reference_on_drawn_blocks(case, data):
    """Blocks of the case's lengths with any parts, so most sit below the
    case's minimum weight or outside its condition."""
    lengths, odd_lengths, _ = SHARED_WALKS[case]
    j = data.draw(st.sampled_from(lengths))
    b = data.draw(st.sampled_from(odd_lengths))
    ev = data.draw(_block(st.lists(_even_parts, min_size=j, max_size=j)))
    od = data.draw(_block(st.lists(_odd_parts, min_size=b, max_size=b)))
    _check_shared(case, 0, ev, od)


@settings(max_examples=200, deadline=None)
@given(_block(st.lists(_even_parts, max_size=20)), _block(st.lists(_odd_parts, max_size=8)))
def test_shared_backward_matches_reference_on_any_image_blocks(e, o):
    """An odd block shorter than the rewrite reads must raise as the
    reference does."""
    for case in REFERENCE_SHARED:
        _check_shared(case, 1, e, o)


# The source conditions and image signatures as they read before each
# condition took the five-feature shape and each signature its (u, v, f2)
# gate, kept as the reference for Classifier().source and .image.
REFERENCE_SOURCE = {
    1: lambda ev, od: not ev or not od,
    2: lambda ev, od: len(ev) == len(od) >= 2,
    3: lambda ev, od: len(ev) > len(od) >= 2,
    4: lambda ev, od: len(od) > len(ev) >= 2,
    5: lambda ev, od: len(ev) == 1 and len(od) >= 1 and ev[-1] - od[0] >= 3,
    6: lambda ev, od: len(ev) == 1 and len(od) >= 5 and ev[-1] - od[0] == 1,
    7: lambda ev, od: len(ev) == 1 and len(od) in (3, 4) and ev[-1] - od[0] == 1,
    8: lambda ev, od: len(ev) == 1 and len(od) == 2 and ev[-1] - od[0] == 1,
    9: lambda ev, od: len(ev) == 1 and len(od) == 1 and ev[-1] - od[0] == 1,
    10: lambda ev, od: len(ev) == 2 and len(od) == 1,
    11: lambda ev, od: len(ev) >= 3 and len(od) == 1 and od[0] == 1,
    12: lambda ev, od: len(ev) == 3 and len(od) == 1 and od[0] >= 3,
    13: lambda ev, od: len(ev) == 4 and len(od) == 1 and od[0] >= 3,
    14: lambda ev, od: len(ev) == 5 and len(od) == 1 and od[0] >= 3,
    15: lambda ev, od: 6 <= len(ev) <= 10 and len(od) == 1 and od[0] >= 3,
    16: lambda ev, od: len(ev) >= 11 and len(od) == 1 and od[0] >= 3 and ev[0] - ev[1] <= 10,
    17: lambda ev, od: len(ev) >= 11 and len(od) == 1 and od[0] >= 3 and ev[0] - ev[1] >= 12,
}
REFERENCE_SIGNATURES = {
    1: lambda e, o, u, v, f2: u == 0 or v == 0,
    2: lambda e, o, u, v, f2: u == v >= 2 and o[-1] - e[0] >= 2 * v - 3,
    3: lambda e, o, u, v, f2: u > v >= 2
    and o[0] - o[1] >= 2 * (u - v + 1)
    and e[u - v - 1] - e[u - v] >= 2 * v - 4,
    4: lambda e, o, u, v, f2: v > u >= 2
    and o[0] - o[1] >= 2 * (v - u + 1)
    and o[-1] - e[0] >= 2 * u - 3,
    5: lambda e, o, u, v, f2: u == 1 and v >= 1,
    6: lambda e, o, u, v, f2: v >= 3 and u - v >= 3 and 2 * u - 3 == o[0]
    and e[0] - e[1] >= 2 and e[2] == 2,
    7: lambda e, o, u, v, f2: v in (3, 4) and u >= 6 and u % 2 == 0 and o[-1] == 3
    and e[0] == 2 and 2 * v + 1 <= o[0] <= u + 2 * v + 1,
    8: lambda e, o, u, v, f2: v == 2 and u >= 4 and o[0] - o[1] == 2 and e[0] == 2
    and o[1] - 2 * u + 11 > 0 and o[0] >= 5,
    9: lambda e, o, u, v, f2: e == (2, 2, 2) and o[1:] == (5, 3)
    and o[0] >= 9 and o[0] % 4 == 1,
    10: lambda e, o, u, v, f2: v == 3 and u >= 5 and o[2] == 5 and e[0] == 2
    and 2 * u + 25 >= o[0],
    11: lambda e, o, u, v, f2: u >= 2 and v == 1,
    12: lambda e, o, u, v, f2: v == 3 and u >= 4 and o[2] >= 7 and e[0] == 2
    and 2 * u + 23 >= o[0],
    13: lambda e, o, u, v, f2: u >= 6 and v == 5 and o[4] == 3 and e[0] == 2
    and 2 * u + 27 >= o[0],
    14: lambda e, o, u, v, f2: u >= 6 and v == 5 and o[4] >= 5 and e[0] == 2
    and 2 * u + 35 >= o[0],
    15: lambda e, o, u, v, f2: f2 > 12 and v == 3 and 3 <= u - f2 <= 7
    and e[u - f2 - 1] >= 4 and 2 * f2 + 15 >= o[0],
    16: lambda e, o, u, v, f2: u >= 9 and v == 3 and f2 <= 5 and o[0] - o[1] <= 12
    and e[u - 6] - e[u - 5] >= 2,
    17: lambda e, o, u, v, f2: u >= 15 and v == 3 and 6 <= f2 <= 11
    and e[u - 12] - e[u - 11] >= 2,
}


def _reference_source_cases(ev, od):
    return tuple([case for case, condition in REFERENCE_SOURCE.items() if condition(ev, od)])


def _reference_image_cases(e, o):
    u, v, f2 = len(e), len(o), e.count(2)
    return tuple(
        [case for case, signature in REFERENCE_SIGNATURES.items() if signature(e, o, u, v, f2)]
    )


def _classified(classify, a, b):
    try:
        return classify(a, b)
    except Exception as exc:
        return type(exc)


def test_source_cases_match_reference_on_every_source_and_its_image_to_70():
    """Every source member and the forward rewrite of each, below its
    case's minimum weight too, whenever the rewrite gives a partition."""
    sources = images = 0
    for n in range(71):
        for ev, od in member_blocks(SOURCE_FAMILY, n):
            [case] = Classifier().source(ev, od)
            assert (case,) == _reference_source_cases(ev, od), (ev, od)
            sources += 1
            try:
                e, o = parity_split(CASES[case].forward(ev, od))
            except ValueError:
                continue
            assert Classifier().image(e, o) == _reference_image_cases(e, o), (ev, od)
            images += 1
    # four rewrites below their case's minimum weight give a part below 1
    assert (sources, images) == (202786, 202782)


@pytest.mark.parametrize("per_weight", [False, True], ids=["fresh", "per-weight"])
def test_image_cases_match_reference_on_every_image_member_to_70(per_weight):
    """With a fresh Classifier per member every key is met cold; with one
    per weight, as the verifier uses it, every later member of a key gets
    what the key's first member left, fixed matches included."""
    members = 0
    for n in range(71):
        classifier = Classifier()
        for e, o in member_blocks(IMAGE_FAMILY, n):
            if not per_weight:
                classifier = Classifier()
            assert classifier.image(e, o) == _reference_image_cases(e, o), (e, o)
            members += 1
    assert members == 250629


@st.composite
def _any_blocks(draw):
    """An even and an odd block of any lengths, empty ones included, in
    decreasing order, with enough parts 2 to reach every f2 gate."""
    twos = draw(st.integers(0, 20))
    evens = draw(st.lists(st.integers(1, 40).map(lambda half: 2 * half), max_size=20))
    odds = draw(st.lists(st.integers(0, 40).map(lambda half: 2 * half + 1), max_size=8))
    return (
        tuple(sorted(evens + [2] * twos, reverse=True)),
        tuple(sorted(odds, reverse=True)),
    )


# blocks ((2,), (3,)) are no member: their cross gap is -1, which a case-1
# atom must not take for an empty block
@settings(max_examples=400, deadline=None)
@given(_any_blocks())
@example(((2,), (3,)))
def test_classifiers_match_reference_on_any_blocks(blocks):
    """Both classifiers give the reference's matches or raise its exception type."""
    a, b = blocks
    # a fresh Classifier per call, so every key is met cold
    assert _classified(lambda ev, od: Classifier().source(ev, od), a, b) == _classified(
        _reference_source_cases, a, b
    )
    assert _classified(lambda e, o: Classifier().image(e, o), a, b) == _classified(
        _reference_image_cases, a, b
    )


SHARED_CLASSIFIER = Classifier()


@settings(max_examples=400, deadline=None)
@given(_any_blocks())
@example(((2,), (3,)))
def test_shared_classifier_matches_reference_on_any_blocks(blocks):
    """One classifier across all examples, so most keys are met warm,
    gives the reference's matches or raises its exception type."""
    a, b = blocks
    source, image = SHARED_CLASSIFIER.source, SHARED_CLASSIFIER.image
    assert _classified(source, a, b) == _classified(_reference_source_cases, a, b)
    assert _classified(image, a, b) == _classified(_reference_image_cases, a, b)


_source_cases = partial(record_cases, "source", SOURCE_FORMS)
_gate_cases = partial(record_cases, "gate", IMAGE_FORMS)


def _forms(shape):
    """The forms (a, b, a - b, gap, od0, top_gap) of a shape (a, b, gap,
    od0, top_gap), whose features are None where their parts do not exist
    and whose forms are 0 there."""
    a, b, gap, od0, top_gap = shape
    return a, b, a - b, gap or 0, od0 or 0, top_gap or 0


def _shape_lattice():
    """Every lattice shape (a, b, gap, od0, top_gap), None where the
    feature's parts do not exist."""
    for a in range(14):
        for b in range(8):
            gaps = (1, 3, 5) if a and b else (None,)
            # b distinct odd parts put the largest at 2b - 1 or above
            tops = range(max(1, 2 * b - 1), 16, 2) if b else (None,)
            top_gaps = range(0, 15, 2) if a >= 2 else (None,)
            for gap in gaps:
                for od0 in tops:
                    for top_gap in top_gaps:
                        yield a, b, gap, od0, top_gap


def test_shape_lattice_has_exactly_one_source_case_everywhere():
    """The source conditions are total and exclusive on every lattice
    shape; ``test_every_realizable_cell_has_exactly_one_source_case``
    carries this to every shape at every weight."""
    shapes = list(_shape_lattice())
    assert len(shapes) == 10318
    assert [shape for shape in shapes if len(_source_cases(_forms(shape))) != 1] == []


def _live_clamps(field, forms):
    """Per form, its [lo, hi] in the live records of the row field."""
    records = tuple([getattr(row, field) for row in CASES.values()])
    return dict(zip(forms, record_clamps(field, forms, records)))


def test_source_clamps_are_frozen():
    # case 1's gap == 0 puts gap's lo at -1, so a negative cross gap, which
    # only blocks outside the source family have, stays out of its cell
    assert _live_clamps("source", SOURCE_FORMS) == {
        "a": (0, 11), "b": (0, 5), "a - b": (-1, 1), "gap": (-1, 3), "od0": (0, 3),
        "top_gap": (10, 12),
    }


def test_image_clamps_are_frozen():
    # case 1's min(u, v) == 0 and case 7's u % 2 == 0 give (-1, 1), though
    # neither form is ever negative on an image key
    assert _live_clamps("gate", IMAGE_FORMS) == {
        "u": (0, 15), "v": (0, 6), "f2": (5, 13), "u - v": (-1, 3), "u - f2": (2, 8),
        "u % 2": (-1, 1), "min(u, v)": (-1, 1),
    }


def _cell(values, clamps):
    """The values of the forms of clamps, in its order, each clamped to
    the form's [lo, hi]; the one clamp rule of both sides' proofs."""
    return tuple(min(max(value, lo), hi) for value, (lo, hi) in zip(values, clamps.values()))


def _realizable_shapes(clamps):
    """Realizable source shapes that meet every realizable cell of these
    clamps.

    A source shape has a, b >= 0, a cross gap odd and at least 1 where
    a and b are, od0 odd and at least 2b - 1 where b is, and a top gap
    even and at least 0 where a >= 2; the gaps, od0 and the top gap run
    to past their clamps' hi.  The lengths run to 2K + 1, K the largest
    of 2 and the clamp ends of a, b and a - b: a source member with both
    lengths above K keeps its cell with both one less, and one with
    b <= K < 2K + 1 < a keeps it with a one less (a - b stays above K),
    and so the other way round; a shorter odd block leaves od0 realizable.
    """
    ends = [abs(end) for form in ("a", "b", "a - b") for end in clamps[form]]
    reach = 2 * max(2, *ends) + 1
    gap_hi, od0_hi, top_hi = (max(clamps[form][1], 0) for form in ("gap", "od0", "top_gap"))
    for a, b in product(range(reach + 1), repeat=2):
        gaps = range(1, gap_hi + 2, 2) if a and b else [None]
        od0s = range(2 * b - 1, max(2 * b - 1, od0_hi) + 2, 2) if b else [None]
        top_gaps = range(0, top_hi + 2, 2) if a >= 2 else [None]
        for gap, od0, top_gap in product(gaps, od0s, top_gaps):
            yield a, b, gap, od0, top_gap


def _realizable_cells(clamps):
    """The first shape met in each realizable cell of these clamps."""
    cells = {}
    for shape in _realizable_shapes(clamps):
        cells.setdefault(_cell(_forms(shape), clamps), shape)
    return cells


def _cell_faults():
    """Each realizable cell's first shape whose matches are not exactly
    one case, with those matches."""
    faults = {}
    for shape in _realizable_cells(_live_clamps("source", SOURCE_FORMS)).values():
        matches = _source_cases(_forms(shape))
        if len(matches) != 1:
            faults[shape] = matches
    return faults


def test_every_realizable_cell_has_exactly_one_source_case():
    """Source totality and exclusivity at every weight: every atom holds or
    fails alike on a whole cell, so every shape of a cell meets the
    conditions its first shape meets."""
    assert len(_realizable_cells(_live_clamps("source", SOURCE_FORMS))) == 332
    assert _cell_faults() == {}


# A source record mutated in one atom, and the cells where the proof then
# fails, by their first shape, with the cases each meets.
CELL_MUTATIONS = {
    # case 16's top gap <= 8 leaves top gap 10 to no case
    16: (
        (("a", ">=", 11), ("b", "==", 1), ("od0", ">=", 3), ("top_gap", "<=", 8)),
        {(11, 1, 1, 3, 10): (), (11, 1, 3, 3, 10): ()},
    ),
    # case 15's a <= 11 overlaps cases 16 and 17 at a = 11
    15: (
        (("a", ">=", 6), ("a", "<=", 11), ("b", "==", 1), ("od0", ">=", 3)),
        {
            (11, 1, 1, 3, 0): (15, 16), (11, 1, 1, 3, 12): (15, 17),
            (11, 1, 3, 3, 0): (15, 16), (11, 1, 3, 3, 12): (15, 17),
        },
    ),
}


@pytest.mark.parametrize("case", CELL_MUTATIONS)
def test_cell_proof_fails_on_a_mutated_record(monkeypatch, case):
    record, faults = CELL_MUTATIONS[case]
    monkeypatch.setitem(CASES, case, CASES[case]._replace(source=record))
    assert _cell_faults() == faults


def _blocks_of(shape):
    """Source blocks with this shape: the odd parts od0, od0 - 2, ..., and
    a - 1 equal evens gap above od0 (at 2 without odd parts) under a top
    even top_gap above them."""
    a, b, gap, od0, top_gap = shape
    od = tuple(range(od0, od0 - 2 * b, -2)) if b else ()
    low = od0 + gap if a and b else 2
    ev = ((low + top_gap,) + (low,) * (a - 1))[:a] if a >= 2 else (low,) * a
    return ev, od


def _shape_of(ev, od):
    """The shape (a, b, gap, od0, top_gap) of source blocks."""
    a, b = len(ev), len(od)
    gap = ev[-1] - od[0] if a and b else None
    return a, b, gap, od[0] if b else None, ev[0] - ev[1] if a > 1 else None


def test_classifier_keys_each_realizable_shape_on_its_cell():
    """The inline clamp of ``Classifier.source`` keys every realizable
    shape, past each clamp's ends too, on the cell the proof walks, and
    meets those cells in the proof's order."""
    clamps = _live_clamps("source", SOURCE_FORMS)
    classifier = Classifier()
    for shape in _realizable_shapes(clamps):
        ev, od = _blocks_of(shape)
        assert _shape_of(ev, od) == shape
        classifier.source(ev, od)
    assert list(classifier._cells) == list(_realizable_cells(clamps))


@st.composite
def _drawn_shape(draw):
    """A source shape with its features up to 60 (od0 at most 60 above
    its least value 2b - 1), None where absent."""
    a, b = draw(st.integers(0, 60)), draw(st.integers(0, 60))
    gap = draw(st.integers(0, 29).map(lambda half: 2 * half + 1)) if a and b else None
    od0 = draw(st.integers(b, b + 30).map(lambda half: 2 * half - 1)) if b else None
    top_gap = draw(st.integers(0, 30).map(lambda half: 2 * half)) if a >= 2 else None
    return a, b, gap, od0, top_gap


@settings(max_examples=200, deadline=None)
@given(st.lists(_drawn_shape(), min_size=1, max_size=30))
def test_one_classifier_matches_reference_whichever_shape_of_a_cell_came_first(shapes):
    classifier = Classifier()
    for shape in shapes:
        ev, od = _blocks_of(shape)
        assert _shape_of(ev, od) == shape
        assert classifier.source(ev, od) == _reference_source_cases(ev, od), shape


@pytest.mark.parametrize(
    "atom",
    [
        ("c", "==", 1), ("a + b", ">", 0), ("a", "!=", 1), ("gap", "is", 0),
        ("gap", "is", None), ("gap", "==", None),
    ],
    ids=["form-c", "form-a+b", "rel-!=", "is-0", "is-None", "==-None"],
)
def test_compiling_an_unknown_atom_raises(atom):
    # deriving the clamps is the one step from the records to a Classifier
    with pytest.raises(ValueError, match="source atom"):
        record_clamps("source", SOURCE_FORMS, ((("a", "==", 1), atom),))


def test_an_unknown_atom_after_a_false_one_is_refused(monkeypatch):
    # a reader that stops at a false atom reaches the last one only on a
    # member with a = 1, b = 1 and gap 1; the Classifier refuses it first
    record = CASES[9].source + (("c", "==", 1),)
    monkeypatch.setitem(CASES, 9, CASES[9]._replace(source=record))
    with pytest.raises(ValueError, match="source atom .* reads 'c'"):
        Classifier()


def test_an_unknown_gate_atom_is_refused(monkeypatch):
    # an image key reads a gate only on a miss; the Classifier refuses it first
    record = CASES[9].gate + (("w", "==", 1),)
    monkeypatch.setitem(CASES, 9, CASES[9]._replace(gate=record))
    with pytest.raises(ValueError, match="gate atom .* reads 'w'"):
        Classifier()


# The gates as they read before they became records, (u, v, f2) -> bool.
REFERENCE_GATES = {
    1: lambda u, v, f2: u == 0 or v == 0,
    2: lambda u, v, f2: u == v >= 2,
    3: lambda u, v, f2: u > v >= 2,
    4: lambda u, v, f2: v > u >= 2,
    5: lambda u, v, f2: u == 1 and v >= 1,
    6: lambda u, v, f2: v >= 3 and u - v >= 3,
    7: lambda u, v, f2: v in (3, 4) and u >= 6 and u % 2 == 0,
    8: lambda u, v, f2: v == 2 and u >= 4,
    9: lambda u, v, f2: u == 3 and v == 3,
    10: lambda u, v, f2: v == 3 and u >= 5,
    11: lambda u, v, f2: u >= 2 and v == 1,
    12: lambda u, v, f2: v == 3 and u >= 4,
    13: lambda u, v, f2: u >= 6 and v == 5,
    14: lambda u, v, f2: u >= 6 and v == 5,
    15: lambda u, v, f2: f2 > 12 and v == 3 and 3 <= u - f2 <= 7,
    16: lambda u, v, f2: u >= 9 and v == 3 and f2 <= 5,
    17: lambda u, v, f2: u >= 15 and v == 3 and 6 <= f2 <= 11,
}


def _image_forms(key):
    """The ``IMAGE_FORMS`` of an image key (u, v, f2)."""
    u, v, f2 = key
    return u, v, f2, u - v, u - f2, u % 2, min(u, v)


def test_gate_records_match_reference_gates_to_120():
    gates = REFERENCE_GATES.items()
    mismatches = [
        key
        for u, v in product(range(121), repeat=2)
        for key in [(u, v, f2) for f2 in range(u + 1)]
        if _gate_cases(_image_forms(key)) != tuple([case for case, gate in gates if gate(*key)])
    ]
    assert mismatches == []


def _image_keys(clamps):
    """Image keys (u, v, f2) that meet every cell of these clamps.

    Every u, v >= 0 and 0 <= f2 <= u make a key: f2 parts 2 and u - f2
    parts 4 under v distinct odd parts.  A form at or past an end of its
    clamp keeps its clamp however far past it goes.  u runs to H + 2, H
    the largest hi of u and of the two sums f2 + (u - f2) and, where
    u >= v, v + (u - v): a key with u above that has in each sum a form
    at least 2 past its hi, and lowering it and u by 2 keeps the cell,
    u % 2 with it; min(u, v) stays past its hi, and where v > u, u - v
    stays at its lo.  v then runs to max(H + 2, hi of v) + 1: a key with
    v >= u + 2 and v past its hi keeps its cell with v one less, u - v
    still at or below its lo -1 and min(u, v) still u.
    """
    hi = {form: clamp[1] for form, clamp in clamps.items()}
    reach = max(hi["u"], hi["f2"] + hi["u - f2"], hi["v"] + hi["u - v"]) + 2
    for u in range(reach + 1):
        for v in range(max(reach, hi["v"]) + 2):
            for f2 in range(u + 1):
                yield u, v, f2


def _gate_cells(clamps):
    """The first key met in each cell of these clamps."""
    cells = {}
    for key in _image_keys(clamps):
        cells.setdefault(_cell(_image_forms(key), clamps), key)
    return cells


# Case pairs whose gates both hold on some image key: the gates alone do
# not make these signatures disjoint, so their rests must.
GATE_OVERLAPS = [
    (2, 9), (3, 6), (3, 7), (3, 8), (3, 10), (3, 12), (3, 13), (3, 14), (3, 15), (3, 16),
    (3, 17), (6, 7), (6, 10), (6, 12), (6, 13), (6, 14), (6, 15), (6, 16), (6, 17), (7, 10),
    (7, 12), (7, 15), (7, 16), (7, 17), (10, 12), (10, 15), (10, 16), (10, 17), (12, 15),
    (12, 16), (12, 17), (13, 14),
]


def _gate_overlaps():
    """Every pair of cases whose gates both hold on one cell."""
    overlaps = set()
    for key in _gate_cells(_live_clamps("gate", IMAGE_FORMS)).values():
        overlaps.update(combinations(_gate_cases(_image_forms(key)), 2))
    return sorted(overlaps)


def test_gate_overlaps_are_frozen():
    """The gate overlaps at every key: every atom holds or fails alike on
    a whole cell, so every key of a cell meets the gates its first key
    meets."""
    cells = _gate_cells(_live_clamps("gate", IMAGE_FORMS))
    assert len(cells) == 1383
    assert max(max(key[:2]) for key in cells.values()) == 23
    assert _gate_overlaps() == GATE_OVERLAPS


def test_gate_walk_fails_on_a_mutated_gate(monkeypatch):
    # case 16's f2 <= 6 meets case 17's f2 >= 6 at u >= 15 and v = 3
    record = (("u", ">=", 9), ("v", "==", 3), ("f2", "<=", 6))
    monkeypatch.setitem(CASES, 16, CASES[16]._replace(gate=record))
    assert _gate_overlaps() == sorted(GATE_OVERLAPS + [(16, 17)])


def test_only_cases_1_5_and_11_have_no_signature_rest():
    assert [case for case, row in CASES.items() if row.image is None] == [1, 5, 11]
