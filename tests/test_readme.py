"""The README's `clone-bound` examples, run through `cli.main`.

A shell block followed by a JSON block documents the bytes its command
prints; a command whose comment ends in "exit N" documents its status.
Both are checked here, so the README cannot drift from the CLI.
"""

import re
import shlex
from pathlib import Path

import pytest

from clonebound import cli

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
#: (language, body) of every fenced block, in order
BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, flags=re.M | re.S)


def _commands(body):
    """(argv, comment) for each `clone-bound` line of a shell block."""
    for line in body.splitlines():
        command, _, comment = line.partition("#")
        words = shlex.split(command)
        if words[:1] == ["clone-bound"]:
            yield words[1:], comment.strip()


OUTPUT_EXAMPLES = [
    (argv, documented)
    for (lang, body), (next_lang, documented) in zip(BLOCKS, BLOCKS[1:])
    if lang == "sh" and next_lang == "json"
    for argv, _ in _commands(body)
]
STATUS_EXAMPLES = [
    (argv, int(match.group(1)))
    for lang, body in BLOCKS if lang == "sh"
    for argv, comment in _commands(body)
    if (match := re.search(r"exit (\d+)$", comment))
]


def _ids(examples):
    return [" ".join(argv) for argv, _ in examples]


def test_examples_are_found():
    assert [argv[0] for argv, _ in OUTPUT_EXAMPLES] == ["optimize", "signal"]
    assert [argv[0] for argv, _ in STATUS_EXAMPLES] == ["verify"] * 3


@pytest.mark.parametrize("argv, documented", OUTPUT_EXAMPLES, ids=_ids(OUTPUT_EXAMPLES))
def test_documented_bytes(capsys, argv, documented):
    assert cli.main(argv) == 0
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (documented, "")


@pytest.mark.parametrize("argv, status", STATUS_EXAMPLES, ids=_ids(STATUS_EXAMPLES))
def test_documented_exit_status(capsys, argv, status):
    assert cli.main(argv) == status
    assert capsys.readouterr().err == ""
