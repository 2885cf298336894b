import pytest
from hypothesis import given
from hypothesis import strategies as st

from parityparts.core import (
    MAX_GLYPHS,
    MAX_PARTS,
    Partition,
    format_partition,
    parity_split,
    parse_partition,
    render_ferrers,
)

partitions = st.lists(st.integers(1, 60), max_size=40).map(
    lambda parts: Partition(sorted(parts, reverse=True))
)


def test_partition_validates_order():
    with pytest.raises(ValueError):
        Partition((3, 5))


def test_partition_rejects_nonpositive_parts():
    with pytest.raises(ValueError):
        Partition((4, 0))
    with pytest.raises(ValueError):
        Partition((4, -2))


def test_weight_is_cached_sum():
    p = Partition((9, 7, 5, 4, 2, 2, 2, 2, 2))
    assert p.weight == 35


def test_repr_shows_the_parts():
    assert repr(Partition((3, 1))) == "Partition([3, 1])"


def test_empty_partition():
    p = Partition()
    assert p.weight == 0
    assert format_partition(p) == ""
    assert parse_partition("") == p
    assert parse_partition("   ") == p


def test_parse_plain_and_frequency_forms():
    assert parse_partition("8,8,8,7,5,3") == (8, 8, 8, 7, 5, 3)
    assert parse_partition("9,7,5,4,2^5") == (9, 7, 5, 4, 2, 2, 2, 2, 2)
    assert parse_partition("9,7,5,4,2^5").weight == 35


def test_parse_sorts_input():
    assert parse_partition("3,7,5,8,8,8") == (8, 8, 8, 7, 5, 3)


@pytest.mark.parametrize("text", ["1,,2", "2^0", "2^-1", "0", "-3", "a", "4^b", ","])
def test_parse_rejects_malformed(text):
    with pytest.raises(ValueError):
        parse_partition(text)


def test_parse_bounds_the_part_count():
    # rejected before the repeated parts are built
    with pytest.raises(ValueError, match=f"more than {MAX_PARTS} parts"):
        parse_partition("2^10000000000")
    with pytest.raises(ValueError, match=f"more than {MAX_PARTS} parts"):
        parse_partition(f"3,1^{MAX_PARTS}")


@given(partitions)
def test_parse_format_roundtrip(p):
    assert parse_partition(format_partition(p)) == p


@given(partitions)
def test_parity_split_reconstructs(p):
    evens, odds = parity_split(p)
    assert sorted(evens + odds, reverse=True) == list(p)
    assert all(part % 2 == 0 for part in evens)
    assert all(part % 2 == 1 for part in odds)
    assert len(evens) + len(odds) == len(p)


def test_parity_split_example():
    evens, odds = parity_split(Partition((6, 4, 3, 3, 1)))
    assert evens == (6, 4)
    assert odds == (3, 3, 1)
    assert (len(evens), len(odds)) == (2, 3)


def test_parity_split_sorts_and_validates_parts():
    assert parity_split([3, 6, 1, 4, 3]) == ((6, 4), (3, 3, 1))
    assert parity_split([2, 9, 2, 7, 9, 2]) == ((2, 2, 2), (9, 9, 7))
    assert parity_split(iter([1, 8])) == ((8,), (1,))
    assert parity_split([]) == ((), ())
    # the message Partition gives for the same parts
    with pytest.raises(ValueError, match="^parts must be positive integers, got 0$"):
        parity_split([0, 5, 2])
    with pytest.raises(ValueError, match="^parts must be positive integers, got 0$"):
        Partition((5, 2, 0))


@pytest.mark.parametrize("parts", [[5, 2, 0], [-3], [4, -3, 0, 1], [-2, -3, 6], [1, -1, -1]])
def test_parity_split_refuses_parts_below_1_as_partition_does(parts):
    # the message Partition gives for the same parts in decreasing order
    with pytest.raises(ValueError) as expected:
        Partition(sorted(parts, reverse=True))
    with pytest.raises(ValueError) as raised:
        parity_split(parts)
    assert str(raised.value) == str(expected.value)
    assert str(raised.value).startswith("parts must be positive integers, got ")


@given(st.lists(st.integers(1, 60), max_size=40))
def test_parity_split_matches_the_blocks_of_the_sorted_parts(parts):
    ordered = sorted(parts, reverse=True)
    assert parity_split(parts) == (
        tuple(part for part in ordered if part % 2 == 0),
        tuple(part for part in ordered if part % 2),
    )


def test_render_ferrers():
    assert render_ferrers(Partition((3, 1))) == "###\n#"
    assert render_ferrers(Partition()) == ""


def test_render_ferrers_refuses_diagrams_above_the_glyph_bound():
    # only the refusal is tested: the diagram itself would be huge
    with pytest.raises(ValueError, match=f"cutoff of {MAX_GLYPHS} glyphs"):
        render_ferrers(Partition((MAX_GLYPHS, 1)))
    with pytest.raises(ValueError, match="weight 1000000000 exceeds"):
        render_ferrers(Partition((10**9,)))
