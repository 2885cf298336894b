"""Exact truncated power series over the integers.

Coefficients are plain Python ints, so nothing here ever rounds.  The
module builds the two counting series for the families tied by the
strict inequality: the distinct-odds-over-evens family has generating
function (sum of q^(k^2)) / (product of 1 - q^(2k)), and the
evens-over-distinct-odds family comes from an alternating double sum
against the same even Euler factor, unwrapped by flipping the sign of
every odd coefficient.

Both are quotients by the even Euler factor, the product of 1 - q^(2k).
Besides its constant term it is nonzero only at the even pentagonal
offsets j(3j-1) and j(3j+1), about 2 * sqrt(order / 3) of them, so each
route divides by it in one forced pentagonal recurrence and never
expands its reciprocal.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import isqrt
from operator import neg

from .families import check_countable

__all__ = [
    "Series",
    "euler_inverse_even",
    "series_p_eu_od",
    "series_p_od_eu",
    "diff_series",
]


class Series:
    """Integer coefficients c[0..order]; index k is the coefficient of q^k."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int]):
        self.coeffs = tuple(coeffs)
        if not self.coeffs:
            raise ValueError("a series needs at least its constant coefficient")

    def __eq__(self, other: object) -> bool:
        return type(other) is Series and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> int:
        if not 0 <= k <= self.order:
            raise IndexError(f"coefficient index {k} outside 0..{self.order}")
        return self.coeffs[k]

    def __sub__(self, other: "Series") -> "Series":
        return Series(a - b for a, b in zip(self.coeffs, other.coeffs))


def series_mul(a: Series, b: Series) -> Series:
    """Cauchy product truncated to the smaller order."""
    order = min(a.order, b.order)
    out = [0] * (order + 1)
    for i in range(order + 1):
        left = a.coeffs[i]
        if left == 0:
            continue
        for j in range(order + 1 - i):
            right = b.coeffs[j]
            if right:
                out[i + j] += left * right
    return Series(out)


def series_invert(a: Series) -> Series:
    """Multiplicative inverse; the constant term must be +1 or -1 so the
    inverse stays integral."""
    lead = a.coeffs[0]
    if lead not in (1, -1):
        raise ValueError(f"constant term must be +1 or -1 to invert, got {lead}")
    order = a.order
    out = [0] * (order + 1)
    out[0] = lead
    for k in range(1, order + 1):
        acc = 0
        for i in range(1, k + 1):
            if a.coeffs[i]:
                acc += a.coeffs[i] * out[k - i]
        out[k] = -lead * acc
    return Series(out)


def _divide_by_euler_even(terms: dict[int, int], order: int) -> list[int]:
    """Coefficients 0..order of the sum of c q^s over terms, divided by the
    even Euler factor; terms with s above the order are dropped.

    By Euler's pentagonal theorem at q^2 the factor is 1 plus, for each
    j >= 1, (-1)^j (q^(j(3j-1)) + q^(j(3j+1))).  So the quotient follows one
    forced recurrence, out[k] = f[k] + sum over j of (-1)^(j+1)
    (out[k - j(3j-1)] + out[k - j(3j+1)]), where f is the sum of the terms.
    Each offset joins its sign's list once k reaches it, as a negative
    index into the output built so far, so every coefficient is one sum
    per sign, run in C.
    """
    forcing = [0] * (order + 1)
    for shift, coeff in terms.items():
        if shift <= order:
            forcing[shift] += coeff
    out: list[int] = []
    plus, minus = [], []
    j, low = 1, 2
    for k, f in enumerate(forcing):
        # the offsets of j are low = j(3j-1) and low + 2j = j(3j+1)
        if k == low or k == low + 2 * j:
            (plus if j % 2 else minus).append(-k)
            if k != low:
                j += 1
                low = j * (3 * j - 1)
        out.append(sum(map(out.__getitem__, plus), f) - sum(map(out.__getitem__, minus)))
    return out


def _check_order(order: int) -> None:
    """Raise ValueError unless order is nonnegative, then as ``check_countable``."""
    if order < 0:
        raise ValueError(f"order must be nonnegative, got {order}")
    check_countable(order)


def euler_inverse_even(order: int) -> Series:
    """Coefficients of 1 / product(1 - q^(2k)): partitions into even parts,
    the partition numbers on the even indices and zero on every odd one.
    ``order`` is a weight, bounded by ``families.COUNT_CUTOFF``."""
    _check_order(order)
    return Series(_divide_by_euler_even({0: 1}, order))


def series_p_eu_od(order: int) -> Series:
    """Member counts of the distinct-odds-over-evens family, weights 0..order:
    the squares, constant term included, divided by the even Euler factor."""
    _check_order(order)
    squares = {k * k: 1 for k in range(isqrt(order) + 1)}
    return Series(_divide_by_euler_even(squares, order))


def series_p_od_eu(order: int) -> Series:
    """Member counts of the evens-over-distinct-odds family, weights 0..order.

    The closed form gives the alternating-sign counts: 1 - correction
    divided by the even Euler factor, where the correction is an
    alternating double sum whose (m, j) term carries sign (-1)^(m+j) and
    exponents m(3m+1)/2 - j^2 and that plus 2m+1.  The outer index m is
    exhausted once its smallest exponent m(m+1)/2 passes the order.
    Flipping every odd-index sign at the end removes the alternation.
    """
    _check_order(order)
    factor = {0: 1}
    m = 1
    while m * (m + 1) // 2 <= order:
        for j in range(1, m + 1):
            sign = -1 if (m + j) % 2 else 1
            low = m * (3 * m + 1) // 2 - j * j
            high = low + 2 * m + 1
            factor[low] = factor.get(low, 0) - sign
            factor[high] = factor.get(high, 0) + sign
        m += 1
    signed = _divide_by_euler_even(factor, order)
    signed[1::2] = map(neg, signed[1::2])
    return Series(signed)


def diff_series(order: int) -> Series:
    """Coefficientwise count difference, image family minus source family."""
    return series_p_eu_od(order) - series_p_od_eu(order)
