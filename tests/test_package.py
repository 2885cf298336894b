"""The package's export list is the union of its modules' ``__all__``
lists, each export and each top-level definition in src/ has a user,
every dotted name the docs cite resolves, and the package imports
nothing outside the standard library, and neither ``dataclasses`` nor
``typing``."""

import ast
import importlib
import re
import subprocess
import sys
from pathlib import Path
from types import ModuleType

import parityparts
from parityparts import casemap, core, families, series, verify

MODULES = (core, families, series, casemap, verify)
SRC = Path(parityparts.__file__).parent
ROOT = SRC.parents[1]

# the 41 names the package exports; an export that nothing uses goes
EXPORTS = [
    "COUNT_CUTOFF", "CaseTally", "CountTable", "ENUMERATION_CUTOFF", "Failure", "Family",
    "FamilySampler", "IMAGE_FAMILY", "InequalityRecord", "NUM_CASES", "Partition",
    "SAMPLE_CUTOFF", "SOURCE_FAMILY", "Series", "VerificationReport", "WITNESS_MIN_WEIGHT",
    "__version__", "backward", "classify_image", "classify_source", "count_family",
    "counts_csv", "diff_series", "enumerate_family", "euler_inverse_even", "format_partition",
    "forward", "image_case_matches", "in_family", "parity_split", "parse_partition",
    "render_ferrers", "sample_family", "series_p_eu_od", "series_p_od_eu",
    "source_case_matches", "verify_exhaustive", "verify_inequality", "verify_sampled",
    "verify_witnesses", "witness",
]


def test_export_list_has_no_duplicates():
    assert len(set(parityparts.__all__)) == len(parityparts.__all__)


def test_export_list_is_frozen():
    assert sorted(parityparts.__all__) == EXPORTS


def test_each_export_is_its_module_object():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(parityparts, name) is getattr(module, name), (module.__name__, name)


def _src_uses() -> set[str]:
    """The names that code in ``src/`` loads, as a name or an attribute,
    outside the top-level definition of that name.  The ``__all__`` lists
    and the docstrings are strings, so they name nothing here."""
    used = set()
    for path in SRC.glob("*.py"):
        for statement in ast.parse(path.read_text(), str(path)).body:
            own = getattr(statement, "name", None)
            for node in ast.walk(statement):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    name = node.attr
                else:
                    continue
                if name != own:
                    used.add(name)
    return used


def _readme_names() -> set[str]:
    """The identifiers in the README's code blocks and inline code."""
    pieces = (ROOT / "README.md").read_text().split("```")
    code = pieces[1::2] + [span for text in pieces[::2] for span in re.findall(r"`([^`]+)`", text)]
    return set(re.findall(r"[A-Za-z_]\w*", "\n".join(code)))


def _tracer_names() -> set[str]:
    """The words of perfbench/tracer.py, which binds functions by their names, as strings."""
    return set(re.findall(r"\w+", (ROOT / "perfbench" / "tracer.py").read_text()))


def test_every_export_has_a_user():
    users = _src_uses() | _readme_names() | _tracer_names() | {"__version__"}
    assert sorted(set(parityparts.__all__) - users) == []


def _top_level_names(path: Path) -> set[str]:
    """The functions, classes and assigned names a module defines at its top level."""
    names = set()
    for statement in ast.parse(path.read_text(), str(path)).body:
        if isinstance(statement, (ast.FunctionDef, ast.ClassDef)):
            names.add(statement.name)
        elif isinstance(statement, (ast.Assign, ast.AnnAssign)):
            names.update(
                node.id
                for node in ast.walk(statement)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
            )
    return names


def test_every_top_level_definition_has_a_user():
    """A function, class or name defined at a module's top level is used
    elsewhere in src/, bound by name in the tracer, or an export the README
    names; code kept in src/ only for the tests, or only for the README's
    prose, goes."""
    users = _src_uses() | _tracer_names() | (_readme_names() & set(parityparts.__all__))
    unused = {
        (path.name, name)
        for path in SRC.glob("*.py")
        for name in _top_level_names(path)
        if not (name.startswith("__") and name.endswith("__")) and name not in users
    }
    assert sorted(unused) == []


DOTTED = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def _doc_references() -> list[tuple[str, str]]:
    """(file, dotted name) for each double-backtick span in src/ and each
    README inline code span that starts with a dotted name, such as
    ``families.MAX_DRAWS`` or ``casemap.WITNESS_CUTOFF = 1000000``."""
    spans = [
        (path.name, span)
        for path in sorted(SRC.glob("*.py"))
        for span in re.findall(r"``(.+?)``", path.read_text(), re.S)
    ]
    prose = (ROOT / "README.md").read_text().split("```")[::2]
    spans += [("README.md", span) for text in prose for span in re.findall(r"`([^`]+)`", text)]
    return [(name, match[0]) for name, span in spans if (match := DOTTED.match(span))]


def _resolves(dotted: str) -> bool:
    """The head is the package, one of its modules, one of its exports or a
    stdlib module, and each later name is an attribute or a submodule."""
    head, *names = dotted.split(".")
    if head == "parityparts":
        target = parityparts
    elif (SRC / f"{head}.py").exists():
        target = importlib.import_module(f"parityparts.{head}")
    elif head in parityparts.__all__:
        target = getattr(parityparts, head)
    elif head in sys.stdlib_module_names:
        target = importlib.import_module(head)
    else:
        return False
    for name in names:
        if isinstance(target, ModuleType) and not hasattr(target, name):
            try:
                importlib.import_module(f"{target.__name__}.{name}")
            except ModuleNotFoundError:
                return False
        if not hasattr(target, name):
            return False
        target = getattr(target, name)
    return True


def test_every_dotted_doc_reference_resolves():
    """A rename that leaves a docstring, a comment or the README behind fails here."""
    references = _doc_references()
    assert {name for name, _ in references} >= {"README.md", "families.py", "verify.py"}
    assert [(name, dotted) for name, dotted in references if not _resolves(dotted)] == []


def test_dotted_doc_references_fail_when_stale():
    stale = ("families.member_walk", "FamilySampler.draw", "core.nope", "nope.x", "functools.nope")
    for dotted in stale:
        assert not _resolves(dotted), dotted


def test_src_imports_only_stdlib():
    sources = sorted(SRC.glob("*.py"))
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


def test_src_modules_use_every_name_they_import():
    # a deletion must not leave an import behind; the package's
    # __init__.py imports only to re-export
    sources = sorted(SRC.glob("*.py"))
    sources = [path for path in sources if path.name != "__init__.py"]
    assert len(sources) > 1
    for path in sources:
        tree = ast.parse(path.read_text(), str(path))
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported.add(alias.asname or alias.name.split(".")[0])
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        assert imported <= used, (path.name, sorted(imported - used))


def test_import_loads_neither_dataclasses_nor_typing():
    # a fresh -I -S interpreter, as site packages may import typing themselves
    src = str(SRC.parent)
    code = (
        f"import sys; sys.path.insert(0, {src!r}); import parityparts, parityparts.cli; "
        "print(sorted({'dataclasses', 'typing', 'inspect', 'ast'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code], capture_output=True, text=True, check=True
    )
    assert result.stdout == "[]\n"
