"""The textbook partition generator, the tests' oracle route.

It imports nothing from the library, so the library's enumeration and
counts can be checked against it.
"""


def all_partitions(n, largest=None):
    """Every partition of n with parts at most largest (n by default), as
    decreasing tuples in decreasing lexicographic order."""
    if largest is None:
        largest = n
    if n == 0:
        yield ()
        return
    for first in range(min(largest, n), 0, -1):
        for rest in all_partitions(n - first, first):
            yield (first, *rest)
