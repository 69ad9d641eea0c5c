"""Replay tests/golden/cli_transcript.txt through cli.main: stdout, stderr and exit code, byte for byte.

tests/cli_transcript.py holds the commands and writes the file; see its
docstring for the format.
"""

from __future__ import annotations

import pytest

from cli_transcript import TRANSCRIPT, parse, run_command

with open(TRANSCRIPT, newline="") as handle:
    FILES, RESULTS = parse(handle.read())


def test_transcript_covers_the_commands():
    commands = [command.split()[:2] for command, *_ in RESULTS]
    assert len(RESULTS) >= 40
    for family in ("order_one", "higher_order", "superposed", "kary", "conolly", "kary_h"):
        for sub in ("eval", "tree", "ic", "freq", "verify", "prune", "explore", "oeis-match"):
            assert [sub, family] in commands


@pytest.mark.parametrize("command,code,out,err", RESULTS, ids=[command for command, *_ in RESULTS])
def test_cli_transcript(command, code, out, err, tmp_path, monkeypatch):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    assert run_command(command) == (code, out, err)
