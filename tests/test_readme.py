"""The README's command-line examples, run as a golden transcript.

Every `$ nestrec ...` line in a README code block is run through cli.main
and its output compared with the lines shown under it.  `seed = ` lines are
what the command prints on stderr; a `...` line means the lines above it
are a prefix of the output.  Examples that write a file (`--out`) or need
an OEIS snapshot (`oeis-match`) are skipped.
"""

from __future__ import annotations

import shlex
from pathlib import Path

import pytest

from nestrec import cli

README = Path(__file__).resolve().parent.parent / "README.md"


def transcript() -> list[tuple[str, list[str]]]:
    """(command line, lines shown under it) for each `$ nestrec` example."""
    examples: list[tuple[str, list[str]]] = []
    in_block = False
    current = None
    for line in README.read_text().splitlines():
        if line.startswith("```"):
            in_block = not in_block
            current = None
        elif in_block and line.startswith("$ nestrec "):
            current = (line[2:], [])
            examples.append(current)
        elif in_block and current is not None:
            current[1].append(line)
    return [(command, shown) for command, shown in examples
            if "--out" not in shlex.split(command) and shlex.split(command)[1] != "oeis-match"]


EXAMPLES = transcript()


def test_readme_has_examples():
    assert len(EXAMPLES) >= 8


@pytest.mark.parametrize("command,shown", EXAMPLES, ids=[command for command, _ in EXAMPLES])
def test_readme_example(command, shown, capsys):
    code = cli.main(shlex.split(command)[1:])
    captured = capsys.readouterr()
    assert code == 0
    stderr = [line for line in shown if line.startswith("seed = ")]
    stdout = [line for line in shown if not line.startswith("seed = ")]
    for line in stderr:
        assert line in captured.err.splitlines()
    out = captured.out.splitlines()
    if stdout and stdout[-1] == "...":
        assert out[: len(stdout) - 1] == stdout[:-1]
        assert len(out) > len(stdout) - 1
    else:
        assert out == stdout
