import tracemalloc
from math import isqrt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from parityparts.families import COUNT_CUTOFF, Family, count_family
from parityparts.series import (
    Series,
    _divide_by_euler_even,
    diff_series,
    euler_inverse_even,
    series_invert,
    series_mul,
    series_p_eu_od,
    series_p_od_eu,
)

from partition_oracle import all_partitions

units = st.sampled_from([1, -1])
small_series = st.builds(
    lambda lead, rest: Series([lead] + rest),
    units,
    st.lists(st.integers(-9, 9), min_size=1, max_size=12),
)


def test_series_requires_constant_term():
    with pytest.raises(ValueError):
        Series([])


def test_series_indexing():
    s = Series([1, 2, 3])
    assert s.order == 2
    assert s[2] == 3
    with pytest.raises(IndexError):
        s[3]


def test_series_compare_and_hash_by_value():
    a, b = Series([1, 2, 3]), Series((1, 2, 3))
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != Series([1, 2]) and a != (1, 2, 3)


def test_mul_truncates_to_smaller_order():
    a = Series([1, 1, 1, 1])
    b = Series([1, 1])
    assert series_mul(a, b).coeffs == (1, 2)


def test_mul_small_known_product():
    # (1 + q)(1 - q + q^2) = 1 + q^3
    assert series_mul(Series([1, 1, 0, 0]), Series([1, -1, 1, 0])).coeffs == (1, 0, 0, 1)


@given(small_series, small_series)
def test_mul_commutes(a, b):
    assert series_mul(a, b).coeffs == series_mul(b, a).coeffs


@given(small_series)
def test_invert_is_right_inverse(a):
    product = series_mul(a, series_invert(a))
    assert product.coeffs == (1,) + (0,) * product.order


def test_invert_rejects_nonunit_lead():
    with pytest.raises(ValueError):
        series_invert(Series([2, 1]))


def test_euler_inverse_even_counts_even_partitions():
    """Oracle: filter the textbook all-partitions generator down to even parts."""
    series = euler_inverse_even(20)
    for n in range(21):
        expected = sum(
            1 for p in all_partitions(n) if all(part % 2 == 0 for part in p)
        )
        assert series[n] == expected
    assert series[8] == 5
    assert series[3] == 0


def dense_euler_even(order):
    """The product of (1 - q^(2k)) for all 2k up to the order."""
    coeffs = [0] * (order + 1)
    coeffs[0] = 1
    step = 2
    while step <= order:
        for m in range(order, step - 1, -1):
            coeffs[m] -= coeffs[m - step]
        step += 2
    return Series(coeffs)


def dense_correction(order):
    """The alternating double sum of series_p_od_eu as a dense series."""
    correction = [0] * (order + 1)
    m = 1
    while m * (m + 1) // 2 <= order:
        for j in range(1, m + 1):
            sign = -1 if (m + j) % 2 else 1
            low = m * (3 * m + 1) // 2 - j * j
            high = low + 2 * m + 1
            if low <= order:
                correction[low] += sign
            if high <= order:
                correction[high] -= sign
        m += 1
    return Series(correction)


@pytest.mark.parametrize("order", [0, 1, 2, 5, 300, 1000])
def test_sparse_routes_match_dense_products(order):
    """Oracle: the dense inversion and Cauchy products that division by the
    sparse even Euler product replaced."""
    base = series_invert(dense_euler_even(order))
    assert euler_inverse_even(order).coeffs == base.coeffs
    squares = Series(int(isqrt(k) ** 2 == k) for k in range(order + 1))
    assert series_p_eu_od(order).coeffs == series_mul(base, squares).coeffs
    signed = base - series_mul(base, dense_correction(order))
    unsigned = tuple(c if k % 2 == 0 else -c for k, c in enumerate(signed.coeffs))
    assert series_p_od_eu(order).coeffs == unsigned


@pytest.mark.parametrize("order", [0, 1, 2, 7, 40])
def test_sparse_mul_matches_dense_product(order):
    """The sparse terms over the even Euler product, against their dense
    product with the dense inverse of that product: unit, non-unit and zero
    coefficients at even and odd shifts, plus shifts at and past the order."""
    terms = {0: 1, 1: -1, 2: 2, 3: 0, 4: -2, 5: 3, 9: -3, order: 1, order + 1: 2, order + 4: -1}
    dense = [0] * (order + 1)
    for shift, coeff in terms.items():
        if shift <= order:
            dense[shift] += coeff
    expected = series_mul(series_invert(dense_euler_even(order)), Series(dense))
    assert _divide_by_euler_even(terms, order) == list(expected.coeffs)


def test_series_p_eu_od_small_values():
    series = series_p_eu_od(6)
    assert series.coeffs == tuple(count_family(Family.EU_OD, n) for n in range(7))
    assert series[5] == 2


def test_series_p_od_eu_small_values():
    series = series_p_od_eu(6)
    assert series.coeffs == tuple(count_family(Family.OD_EU, n) for n in range(7))
    assert series[5] == 3


@pytest.mark.parametrize("family,builder", [
    (Family.EU_OD, series_p_eu_od),
    (Family.OD_EU, series_p_od_eu),
])
def test_series_against_counting_to_120(family, builder):
    series = builder(120)
    for n in range(121):
        assert series[n] == count_family(family, n), (family.value, n)


FROZEN_DIFF = {
    0: 0,
    3: -1,
    5: -1,
    7: -2,
    8: -1,
    9: -2,
    11: -4,
    12: -1,
    13: -4,
    14: 0,
    15: -8,
    16: 0,
    17: -8,
    18: 2,
    49: -2,
    50: 816,
    51: 18,
}


def test_diff_series_frozen_values():
    diff = diff_series(100)
    for n, expected in FROZEN_DIFF.items():
        assert diff[n] == expected, n


def test_diff_series_matches_family_counts():
    diff = diff_series(80)
    for n in range(81):
        assert diff[n] == count_family(Family.EU_OD, n) - count_family(Family.OD_EU, n)


def test_series_rejects_orders_above_the_count_cutoff():
    # only the rejection is tested: nothing of this size is allocated
    for route in (euler_inverse_even, series_p_eu_od, series_p_od_eu, diff_series):
        for order in (COUNT_CUTOFF + 1, 10**12):
            with pytest.raises(ValueError, match="cutoff"):
                route(order)


def test_series_routes_refuse_a_negative_order():
    for route in (euler_inverse_even, series_p_eu_od, series_p_od_eu, diff_series):
        with pytest.raises(ValueError, match="^order must be nonnegative, got -1$"):
            route(-1)


@pytest.mark.parametrize("order,message", [
    (-1, "order must be nonnegative, got -1"),
    (COUNT_CUTOFF + 1, f"counting at n={COUNT_CUTOFF + 1} exceeds the cutoff {COUNT_CUTOFF}"),
])
def test_series_p_eu_od_refuses_before_allocating(order, message):
    # a row of COUNT_CUTOFF + 1 coefficients alone takes about 80 KB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as refused:
            series_p_eu_od(order)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == message
    assert peak < 16_384
