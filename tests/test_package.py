"""The package's export list is the union of its modules' ``__all__``
lists, and the package imports nothing outside the standard library."""

import ast
import sys
from pathlib import Path

import parityparts
from parityparts import casemap, core, families, series, verify

MODULES = (core, families, series, casemap, verify)

# the 43 names the package exported when each module's list became its source
EXPORTS = [
    "COUNT_CUTOFF", "CaseTally", "CountTable", "ENUMERATION_CUTOFF", "Failure", "Family",
    "FamilySampler", "IMAGE_FAMILY", "InequalityRecord", "NUM_CASES", "Partition",
    "SAMPLE_CUTOFF", "SOURCE_FAMILY", "Series", "VerificationReport", "WITNESS_MIN_WEIGHT",
    "__version__", "backward", "case_min_weight", "classify_image", "classify_source",
    "count_family", "counts_csv", "diff_series", "enumerate_family", "euler_inverse_even",
    "format_partition", "forward", "image_case_matches", "in_family", "parity_split",
    "parse_partition", "render_ferrers", "sample_family", "series_p_eu_od", "series_p_od_eu",
    "source_case_matches", "theta_squares", "verify_exhaustive", "verify_inequality",
    "verify_sampled", "verify_witnesses", "witness",
]


def test_export_list_has_no_duplicates():
    assert len(set(parityparts.__all__)) == len(parityparts.__all__)


def test_export_list_is_frozen():
    assert sorted(parityparts.__all__) == EXPORTS


def test_each_export_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(parityparts, name) is getattr(module, name), (module.__name__, name)


def test_src_imports_only_stdlib():
    sources = sorted(Path(parityparts.__file__).parent.glob("*.py"))
    assert len(sources) > 1
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top in sys.stdlib_module_names, (path.name, name)
