"""Partitions with parts separated by parity.

Counting, enumeration, and uniform sampling for the eight families of
partitions whose even and odd parts occupy separate blocks; exact
coefficient series for the two families tied by the strict count
inequality; the 17-case weight-preserving injection with its inverse and
unmatched witnesses; and verification drivers that check all of it.
"""

from .core import (
    Partition,
    format_partition,
    parity_split,
    parse_partition,
    render_ferrers,
)
from .families import (
    COUNT_CUTOFF,
    ENUMERATION_CUTOFF,
    SAMPLE_CUTOFF,
    CountTable,
    Family,
    FamilySampler,
    count_family,
    counts_csv,
    enumerate_family,
    in_family,
    sample_family,
)
from .series import (
    Series,
    diff_series,
    euler_inverse_even,
    series_p_eu_od,
    series_p_od_eu,
    theta_squares,
)
from .casemap import (
    IMAGE_FAMILY,
    NUM_CASES,
    SOURCE_FAMILY,
    WITNESS_MIN_WEIGHT,
    backward,
    case_min_weight,
    classify_image,
    classify_source,
    forward,
    image_case_matches,
    source_case_matches,
    witness,
)
from .verify import (
    CaseTally,
    Failure,
    InequalityRecord,
    VerificationReport,
    verify_exhaustive,
    verify_inequality,
    verify_sampled,
    verify_witnesses,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Partition",
    "parse_partition",
    "format_partition",
    "parity_split",
    "render_ferrers",
    "ENUMERATION_CUTOFF",
    "SAMPLE_CUTOFF",
    "COUNT_CUTOFF",
    "Family",
    "CountTable",
    "FamilySampler",
    "in_family",
    "enumerate_family",
    "count_family",
    "sample_family",
    "counts_csv",
    "Series",
    "euler_inverse_even",
    "theta_squares",
    "series_p_eu_od",
    "series_p_od_eu",
    "diff_series",
    "SOURCE_FAMILY",
    "IMAGE_FAMILY",
    "NUM_CASES",
    "WITNESS_MIN_WEIGHT",
    "case_min_weight",
    "source_case_matches",
    "classify_source",
    "image_case_matches",
    "classify_image",
    "forward",
    "backward",
    "witness",
    "CaseTally",
    "Failure",
    "InequalityRecord",
    "VerificationReport",
    "verify_exhaustive",
    "verify_sampled",
    "verify_inequality",
    "verify_witnesses",
]
