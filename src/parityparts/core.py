"""Integer partitions and their parity structure.

A partition is a weakly decreasing sequence of positive integer parts.
This module provides the base value type plus parsing, canonical text
formatting, the parity split into even and odd blocks, and Ferrers
diagram rendering.
"""

from __future__ import annotations

from collections.abc import Iterable

__all__ = [
    "Partition",
    "parse_partition",
    "format_partition",
    "parity_split",
    "render_ferrers",
]

# the parts of one parity, in decreasing order
Block = tuple[int, ...]

# parse_partition refuses text that expands to more parts than this
MAX_PARTS = 1_000_000
# render_ferrers refuses a partition whose diagram has more glyphs than this
MAX_GLYPHS = 1_000_000


class Partition(tuple):
    """A weakly decreasing tuple of positive integer parts.

    Instances are immutable and hashable.  ``weight`` is the sum of the
    parts, computed once at construction.
    """

    weight: int

    def __new__(cls, parts: Iterable[int] = ()) -> "Partition":
        self = super().__new__(cls, parts)
        previous = None
        for part in self:
            if not isinstance(part, int) or part < 1:
                raise ValueError(f"parts must be positive integers, got {part!r}")
            if previous is not None and part > previous:
                raise ValueError(
                    f"parts must be weakly decreasing, got {part} after {previous}"
                )
            previous = part
        self.weight = sum(self)
        return self

    def __repr__(self) -> str:
        return f"Partition({list(self)!r})"


def parse_partition(text: str) -> Partition:
    """Parse comma separated parts, with optional ``part^count`` repetition.

    Accepts plain lists like ``"8,8,8,7,5,3"`` as well as the repetition
    form ``"9,7,5,4,2^5"``.  Parts are sorted into weakly decreasing
    order, so input order does not matter.  Whitespace around tokens is
    ignored; an empty or blank string is the empty partition.

    Raises ValueError on malformed tokens, parts below 1, repetition
    counts below 1, or more than ``MAX_PARTS`` parts in all.
    """
    parts: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            if text.strip():
                raise ValueError(f"empty token in partition text {text!r}")
            continue
        base, caret, exponent = token.partition("^")
        try:
            value = int(base)
            count = int(exponent) if caret else 1
        except ValueError:
            raise ValueError(f"malformed partition token {token!r}") from None
        if count < 1:
            raise ValueError(f"repetition count must be at least 1 in {token!r}")
        if len(parts) + count > MAX_PARTS:
            raise ValueError(f"partition text has more than {MAX_PARTS} parts")
        parts.extend([value] * count)
    parts.sort(reverse=True)
    return Partition(parts)


def format_partition(p: Partition) -> str:
    """Canonical text form: parts joined by commas, empty string for the empty partition."""
    return ",".join(str(part) for part in p)


def parity_split(parts: Iterable[int]) -> tuple[Block, Block]:
    """The even parts and the odd parts, each block in decreasing order.

    The parts may come in any order; they are sorted once and split in one
    pass.  Raises the ValueError ``Partition`` raises on a part below 1.
    """
    parts = sorted(parts, reverse=True)
    if parts and parts[-1] < 1:
        bad = next(part for part in parts if part < 1)
        raise ValueError(f"parts must be positive integers, got {bad!r}")
    evens: list[int] = []
    odds: list[int] = []
    for part in parts:
        if part % 2:
            odds.append(part)
        else:
            evens.append(part)
    return tuple(evens), tuple(odds)


def render_ferrers(p: Partition) -> str:
    """Ferrers diagram, one row of ``#`` glyphs per part.

    Raises ValueError when the diagram would have more than ``MAX_GLYPHS``
    glyphs, one per unit of weight.
    """
    weight = sum(p)
    if weight > MAX_GLYPHS:
        raise ValueError(
            f"a Ferrers diagram of weight {weight} exceeds the cutoff of {MAX_GLYPHS} glyphs"
        )
    return "\n".join("#" * part for part in p)
