"""Exact truncated power series over the integers.

Coefficients are plain Python ints, so nothing here ever rounds.  The
module builds the two counting series for the families tied by the
strict inequality: the distinct-odds-over-evens family has generating
function (sum of q^(k^2)) / (product of 1 - q^(2k)), and the
evens-over-distinct-odds family comes from an alternating double sum
against the same even Euler factor, unwrapped by flipping the sign of
every odd coefficient.

The even Euler factor is zero at every odd index, so both products work
on its even half, the partition numbers p(0..order//2): a sparse term
c q^s adds c * p into every second coefficient from s on, and the
common terms with c = +1 or -1 add or subtract p without multiplying.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from operator import add, mul, neg, sub
from typing import Iterable

from .families import check_countable

__all__ = [
    "Series",
    "euler_inverse_even",
    "theta_squares",
    "series_p_eu_od",
    "series_p_od_eu",
    "diff_series",
]


@dataclass(frozen=True)
class Series:
    """Integer coefficients c[0..order]; index k is the coefficient of q^k."""

    coeffs: tuple[int, ...]

    def __init__(self, coeffs: Iterable[int]):
        object.__setattr__(self, "coeffs", tuple(coeffs))
        if not self.coeffs:
            raise ValueError("a series needs at least its constant coefficient")

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


def _even_partitions(order: int) -> list[int]:
    """The partition numbers p(0..order//2), which count the partitions of
    each even weight 2k up to ``order`` into even parts.

    They come from Euler's pentagonal recurrence, p(k) = sum over j >= 1
    of (-1)^(j+1) (p(k - j(3j-1)/2) + p(k - j(3j+1)/2)).  ``order`` is a
    weight, bounded by ``families.COUNT_CUTOFF``.
    """
    check_countable(order)
    half = order // 2
    p = [1] + [0] * half
    for k in range(1, half + 1):
        acc = 0
        j = 1
        while True:
            low = k - j * (3 * j - 1) // 2
            if low < 0:
                break
            high = low - j
            term = p[low] + p[high] if high >= 0 else p[low]
            acc += term if j % 2 else -term
            j += 1
        p[k] = acc
    return p


def euler_inverse_even(order: int) -> Series:
    """Coefficients of 1 / product(1 - q^(2k)): partitions into even parts.

    The partition numbers ``_even_partitions(order)`` sit on the even
    indices; every odd coefficient is zero.
    """
    p = _even_partitions(order)
    coeffs = [0] * (order + 1)
    coeffs[::2] = p
    return Series(coeffs)


def theta_squares(order: int) -> Series:
    """Indicator series of the perfect squares, constant term included;
    ``order`` is bounded by ``families.COUNT_CUTOFF``."""
    check_countable(order)
    coeffs = [0] * (order + 1)
    k = 0
    while k * k <= order:
        coeffs[k * k] = 1
        k += 1
    return Series(coeffs)


def _sparse_mul(p: list[int], terms: dict[int, int], order: int) -> list[int]:
    """Coefficients 0..order of ``euler_inverse_even(order)`` times the sum
    of c q^s over terms, given its even half ``p = _even_partitions(order)``.

    The base is zero at every odd index, so a term c q^s reaches only the
    indices s, s + 2, ...: one slice-add of c * p into ``out[s::2]`` per
    nonzero term, with no multiplication when c is +1 or -1.
    """
    out = [0] * (order + 1)
    for shift, coeff in terms.items():
        if not coeff or shift > order:
            continue
        target = out[shift::2]
        if coeff == 1:
            out[shift::2] = map(add, target, p)
        elif coeff == -1:
            out[shift::2] = map(sub, target, p)
        else:
            out[shift::2] = map(add, target, map(mul, p, repeat(coeff)))
    return out


def series_p_eu_od(order: int) -> Series:
    """Member counts of the distinct-odds-over-evens family, weights 0..order."""
    p = _even_partitions(order)
    squares = {k: c for k, c in enumerate(theta_squares(order).coeffs) if c}
    return Series(_sparse_mul(p, squares, order))


def series_p_od_eu(order: int) -> Series:
    """Member counts of the evens-over-distinct-odds family, weights 0..order.

    The closed form gives the alternating-sign counts: the base factor is
    1 / product(1 - q^(2k)), corrected by an alternating double sum whose
    (m, j) term carries sign (-1)^(m+j) and exponents m(3m+1)/2 - j^2 and
    that plus 2m+1.  The outer index m is exhausted once its smallest
    exponent m(m+1)/2 passes the order.  Flipping every odd-index sign at
    the end removes the alternation.  The base is multiplied by
    1 - correction as a sparse operand: about 0.4 * order of its terms
    are nonzero, and most of those are +1 or -1 (1006 of 1155 at order
    3000).
    """
    p = _even_partitions(order)
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
    signed = _sparse_mul(p, factor, order)
    signed[1::2] = map(neg, signed[1::2])
    return Series(signed)


def diff_series(order: int) -> Series:
    """Coefficientwise count difference, image family minus source family."""
    return series_p_eu_od(order) - series_p_od_eu(order)
