import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parityparts.casemap import (
    IMAGE_FAMILY,
    NUM_CASES,
    SOURCE_FAMILY,
    backward,
    case_min_weight,
    classify_image,
    classify_source,
    forward,
    image_case_matches,
    source_case_matches,
    witness,
)
from parityparts.core import parse_partition
from parityparts.families import Family, FamilySampler, enumerate_family, in_family

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
