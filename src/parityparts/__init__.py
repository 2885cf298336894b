"""Partitions with parts separated by parity.

Counting, enumeration, and uniform sampling for the eight families of
partitions whose even and odd parts occupy separate blocks; exact
coefficient series for the two families tied by the strict count
inequality; the 17-case weight-preserving injection with its inverse and
unmatched witnesses; and verification drivers that check all of it.

The package exports what each module lists in its ``__all__``.
"""

from . import casemap, core, families, series, verify
from .core import *
from .families import *
from .series import *
from .casemap import *
from .verify import *

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *core.__all__,
    *families.__all__,
    *series.__all__,
    *casemap.__all__,
    *verify.__all__,
]
