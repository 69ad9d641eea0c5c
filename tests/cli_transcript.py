"""Write tests/golden/cli_transcript.txt: stdout, stderr and exit code of each command below.

Run it from the repository root to regenerate the transcript after a
deliberate change of output:

    PYTHONPATH=src python tests/cli_transcript.py

test_cli_transcript.py replays the file through cli.main and compares
every stream byte for byte.  The file's format:

    + NAME          a file that the commands read, with its lines below
    $ nestrec ...   a command, then its stdout and stderr lines
    | text          one line of the file or of stdout
    ! text          one line of stderr
    [exit N]        the command's exit code, closing its block

Each command runs in a directory that holds the `+` files.  Lines keep
their own endings, so explore's CSV rows end in CRLF.
"""

from __future__ import annotations

import contextlib
import io
import os
import shlex
from pathlib import Path

from nestrec import cli

TRANSCRIPT = Path(__file__).resolve().parent / "golden" / "cli_transcript.txt"

FILES = {
    "recursion.json": '{"arity": 2, "order": 1, "a": [0, 1], "b": [[1], [2]], "ic": [1, 2]}\n',
    # Conolly's recursion from 1, 3, 1: R(4)'s second outer index 4 - 1 - R(2) is 0
    "dying.json": '{"arity": 2, "order": 1, "a": [0, 1], "b": [[1], [2]], "ic": [1, 3, 1]}\n',
    # two initial conditions, but R(3) reads R(3 - 4)
    "short.json": '{"arity": 2, "order": 1, "a": [0, 2], "b": [[2], [4]], "ic": [1, 2]}\n',
    "tree.json": '{"k": 2, "s": 1, "j": 3, "per_cell": 1, "last_cell": 2, "regular": 2}\n',
    "malformed.json": '{"arity": "2", "order": 2.9, "a": "01", "b": ["12", "23"], "ic": "1223"}\n',
    "stripped.txt": ("# a small stand-in for the OEIS stripped file\n"
                     "A046699 ,1,2,2,3,4,4,4,5,6,6,7,8,8,8,8,9,10,10,11,12,\n"
                     "A900001 ,1,2,3,3,3,4,5,6,6,6,6,6,7,8,9,9,10,11,12,12,\n"
                     "A900002 ,1,1,1,2,2,2,3,3,3,4,4,4,5,5,5,6,6,6,7,7,\n"),
}

FAMILIES = [
    "order_one s=1 j=3 m=1",
    "higher_order s=0 j=2 m=1 p=2",
    "superposed s=0 j=1 m=1 p=2",
    "kary k=3 m=1 p=2",
    "conolly",
    "kary_h k=3",
]

COMMANDS = [
    *(command for family in FAMILIES for command in (
        f"eval {family} --n 24",
        f"tree {family} --n 24 --format csv",
        f"ic {family}",
        f"freq {family} --vmax 8",
        f"verify {family} --n 3000",
        f"prune {family} --n 40",
        f"explore {family} --n 300",
        f"oeis-match {family} --n 12 --stripped stripped.txt",
    )),
    "eval order_one s=1 j=3 m=1 --n 9 --format json",
    "eval conolly --n 6 --format bfile",
    "ic kary k=4 m=2 p=3 --n 30 --format json",
    "freq superposed s=0 j=1 m=1 p=2 --vmax 6 --empirical 400 --format table",
    "freq kary k=3 m=1 p=2 --vmax 5 --format json",
    "verify superposed s=1 j=2 m=-1 p=2 --n 500",
    "verify higher_order s=1 j=2 m=3 p=3 --n 1000000000000 --sparse 12 --seed 4",
    "verify kary k=4 m=3 p=3 --n 1000000000000000000 --sparse 12 --seed 9",
    "prune order_one s=0 j=2 m=1 --n 300 --check 4 --seed 7",
    "prune kary k=3 m=0 p=1 --n 500 --check 3 --seed 11",
    "prune superposed s=0 j=2 m=-1 p=2 --n 17",
    "explore order_one --grid 's=0,1;j=1..2;m=-1..3' --n 200",
    "explore superposed s=0 --grid 'j=1..2;m=-2..1;p=2' --n 200 --prune-check",
    "explore kary --grid 'k=1..3;m=0..2;p=1' --n 150 --prune-check",
    "explore q_family --grid 's=0;j=2;q=0..2' --n 100 --prune-check",
    "explore c_sjk --grid 's=0,1;j=1;k=2..3' --n 100 --prune-check",
    "explore higher_order s=1 j=1 --grid 'm=0..4;p=2' --n 120 --prune-check",
    "explore neg_gamma k=2 gamma=-1 delta=3 --n 200",
    "eval --spec recursion.json --n 10",
    "eval --spec dying.json --n 10",
    "eval --spec short.json --n 10",
    "tree --spec tree.json --n 12 --format json",
    "freq --spec tree.json --vmax 5",
    "oeis-match --spec recursion.json --n 10 --stripped stripped.txt",
    # usage and input errors, exit 2
    "eval no_such_family --n 5",
    "eval order_one s=1 j=0 m=0 --n 5",
    "eval order_one s=x j=3 m=1 --n 5",
    "eval order_one s=1 j=3 --n 5",
    "tree conolly --spec tree.json --n 5",
    "eval --spec malformed.json --n 5",
    "eval --spec missing.json --n 5",
    "verify --spec recursion.json --n 5",
    "eval q_family s=0 j=2 q=1 --n 5",
    "prune order_one s=1 j=3 m=1 --n 10",
    "prune conolly --n 20 --check -1",
    "verify conolly --n 10 --sparse 3 --seed 2",
    "verify q_family s=0 j=2 q=1 --n 0",
    "verify c_sjk s=0 j=1 k=3 --n 100 --sparse 3 --seed 1",
    "prune q_family s=0 j=2 q=1 --n 50 --check -1",
    "prune q_family s=0 j=2 q=1 --n 50 --check 3 --seed 1",
    "prune neg_gamma k=2 gamma=-1 delta=3 --n 50",
    "freq conolly --vmax 20 --empirical 10",
    "explore order_one s=0 --grid 's=1;j=1;m=0'",
    "oeis-match conolly --n 5 --stripped missing.txt",
    # refused since the transcript was first written: before, a key given twice
    # kept its last values, an empty range printed a bare CRLF, and an empty
    # freq table printed its header alone, each with exit 0
    "explore order_one --grid 's=0;s=1;j=1;m=0'",
    "explore order_one --grid 'm=3..1'",
    "freq conolly --vmax 0",
    "freq conolly --vmax -2 --format json",
    "freq conolly --vmax 5 --empirical -5",
    # refused since: before, --sparse 0 ran the dense check to --n, --check 0
    # ran one prune at --n, and --trace beside --check was dropped unread
    "verify order_one s=1 j=3 m=1 --n 1000000000000000000 --sparse 0",
    "prune kary k=3 m=0 p=1 --n 1000000000000000000 --check 0",
    "prune order_one s=0 j=2 m=1 --n 300 --check 2 --seed 7 --trace",
    # --n caps the sampled n since: before, --n 2 checked n = 5 and --n 5 checked n = 6
    "prune kary k=3 m=0 p=1 --n 2 --check 2 --seed 1",
    "prune kary k=3 m=0 p=1 --n 5 --check 3 --seed 1",
]


def run_command(command: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of one `nestrec` command line, run in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(shlex.split(command))
    return code, out.getvalue(), err.getvalue()


def _lines(prefix: str, text: str) -> list[str]:
    if text and not text.endswith("\n"):
        raise ValueError(f"output does not end in a newline: {text[-40:]!r}")
    return [f"{prefix} {line}" if line.strip("\r\n") else prefix + line for line in text.splitlines(keepends=True)]


def render(files: dict[str, str], results: list[tuple[str, int, str, str]]) -> str:
    blocks = [[f"+ {name}\n", *_lines("|", text)] for name, text in files.items()]
    blocks += [[f"$ nestrec {command}\n", *_lines("|", out), *_lines("!", err), f"[exit {code}]\n"]
               for command, code, out, err in results]
    return "\n".join("".join(block) for block in blocks)


def parse(text: str) -> tuple[dict[str, str], list[tuple[str, int, str, str]]]:
    """The files and the (command, exit code, stdout, stderr) records of a transcript."""
    files: dict[str, str] = {}
    results: list[tuple[str, int, str, str]] = []
    streams: dict[str, list[str]] = {}
    for line in text.splitlines(keepends=True):
        head = line.rstrip("\r\n")
        if head.startswith("+ "):
            streams = {"|": []}
            files[head[2:]] = streams["|"]
        elif head.startswith("$ nestrec "):
            streams = {"|": [], "!": []}
            command = head[len("$ nestrec "):]
        elif head.startswith("[exit "):
            results.append((command, int(head[6:-1]), "".join(streams["|"]), "".join(streams["!"])))
        elif line[:1] in ("|", "!"):
            streams[line[0]].append(line[2:] if line[1:2] == " " else line[1:])
    return {name: "".join(lines) for name, lines in files.items()}, results


def record(directory: Path) -> str:
    """Run every command in `directory`, which gets the files, and render the transcript."""
    for name, text in FILES.items():
        (directory / name).write_text(text)
    here = os.getcwd()
    os.chdir(directory)
    try:
        results = [(command, *run_command(command)) for command in COMMANDS]
    finally:
        os.chdir(here)
    return render(FILES, results)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        text = record(Path(scratch))
    with open(TRANSCRIPT, "w", newline="") as handle:
        handle.write(text)
    print(f"wrote {len(COMMANDS)} commands to {TRANSCRIPT}")
