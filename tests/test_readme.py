"""The README's examples run as written.

The Library block is executed as is, every expression in it whose
trailing comment starts with a Python literal must equal that literal,
and every Command-line example whose trailing comment is its exact
output is run through ``cli.run`` and compared with that comment
(`` / `` separates output lines).
"""

import ast
import re
from pathlib import Path

import pytest

from parityparts.cli import run

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()

# commands whose comment in the README is their whole output
EXACT_OUTPUT = ("count", "enumerate", "map", "classify", "witness")


def _code_block(heading: str, language: str) -> str:
    section = README.split(f"\n## {heading}\n", 1)[1]
    return section.split(f"```{language}\n", 1)[1].split("```", 1)[0]


def _exact_examples() -> list[tuple[list[str], str]]:
    examples = []
    for line in _code_block("Command line", "sh").splitlines():
        match = re.fullmatch(r"parityparts (\S+)(.*?)\s+# (.+)", line)
        if match and match.group(1) in EXACT_OUTPUT:
            argv = [match.group(1), *match.group(2).split()]
            examples.append((argv, match.group(3).replace(" / ", "\n") + "\n"))
    return examples


EXAMPLES = _exact_examples()


def test_library_example_runs():
    exec(compile(_code_block("Library", "python"), "README.md", "exec"), {})


def _leading_literal(comment: str) -> tuple[bool, object]:
    """Whether the comment's text up to its first comma or colon outside
    brackets is a Python literal, and its value."""
    depth = 0
    end = len(comment)
    for at, char in enumerate(comment):
        depth += (char in "([{") - (char in ")]}")
        if depth == 0 and char in ",:":
            end = at
            break
    try:
        return True, ast.literal_eval(comment[:end])
    except (ValueError, SyntaxError):
        return False, None


def _plain(value):
    """The value with every tuple in it, a ``Partition`` included, as a
    plain tuple, in lists and tuples at any depth."""
    if isinstance(value, list):
        return [_plain(item) for item in value]
    if isinstance(value, tuple):
        return tuple(_plain(item) for item in value)
    return value


def test_library_value_comments_hold():
    """Each statement runs in order; an expression whose comment starts
    with a literal is compared with it by repr, so 1 is not True."""
    block = _code_block("Library", "python")
    lines = block.splitlines()
    namespace = {}
    checked = []
    for node in ast.parse(block).body:
        comment = re.search(r"\s#\s(.*)$", lines[node.end_lineno - 1])
        literal, expected = _leading_literal(comment.group(1)) if comment else (False, None)
        code = ast.get_source_segment(block, node)
        if isinstance(node, ast.Expr) and literal:
            assert repr(_plain(eval(code, namespace))) == repr(expected), code
            checked.append(code)
        else:
            exec(code, namespace)
    assert len(checked) == 8, checked


def test_every_exact_output_command_is_checked():
    assert sorted(argv[0] for argv, _ in EXAMPLES) == [
        "classify", "count", "enumerate", "map", "map", "witness",
    ]


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_command_line_example_prints_its_comment(capsys, argv, expected):
    assert run(argv) == 0
    assert capsys.readouterr().out == expected
