"""The command-line examples of ``README.md``, run as goldens.

Each ``$ nambu ...`` line of the README's example block runs in-process
from the repository root, and the lines under it are its exact stdout.  A
trailing ``; echo $?`` adds the exit code as the last output line, and a
``...`` line ends the comparison for its command.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from nambu.cli import main

ROOT = Path(__file__).resolve().parent.parent
BLOCK_TITLE = "Examples against the shipped fixtures:"
ECHO_STATUS = "; echo $?"


def examples() -> list[tuple[str, list[str], bool]]:
    """``(command, expected stdout lines, truncated)`` for each example."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split(BLOCK_TITLE, 1)[1].split("```")[1]
    found: list[tuple[str, list[str], bool]] = []
    for line in block.splitlines():
        if line.startswith("$ "):
            found.append((line[2:], [], False))
        elif found and not found[-1][2]:
            command, expected, _ = found[-1]
            if line == "...":
                found[-1] = (command, expected, True)
            else:
                expected.append(line)
    return found


EXAMPLES = examples()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 5


@pytest.mark.parametrize("command, expected, truncated", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_readme_example(command, expected, truncated, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    command, echo, _ = command.partition(ECHO_STATUS)
    argv = shlex.split(command)
    assert argv[0] == "nambu"
    code = main(argv[1:])
    lines = capsys.readouterr().out.splitlines()
    if echo:
        lines.append(str(code))
    if truncated:
        lines = lines[: len(expected)]
    assert lines == expected
