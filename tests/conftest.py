"""Make every property test reproducible: each ``@settings`` block keeps its
own ``max_examples`` but draws the same examples on every run, derived from
the test itself, and no example database is read or written."""

from hypothesis import settings

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")
