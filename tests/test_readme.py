"""The README's examples run as written.

The Library block is executed as is, and every Command-line example
whose trailing comment is its exact output is run through ``cli.run``
and compared with that comment (`` / `` separates output lines).
"""

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


def test_every_exact_output_command_is_checked():
    assert sorted(argv[0] for argv, _ in EXAMPLES) == [
        "classify", "count", "enumerate", "map", "map", "witness",
    ]


@pytest.mark.parametrize("argv, expected", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_command_line_example_prints_its_comment(capsys, argv, expected):
    assert run(argv) == 0
    assert capsys.readouterr().out == expected
