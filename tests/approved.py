"""The approved CLI transcript, ``golden/cli.txt``, and the report of the cells
in which a received output differs from an approved one.

Each entry of the transcript is a ``$ qdcascade <argv>`` line, then an
``exit N`` line, then each line of that command's stderr behind ``2> ``, then
its exact stdout. Argv tokens are plain words with no quotes, spaces or glob
characters, so ``str.split`` and bash word splitting both read them back.
"""

import io
import re
from contextlib import redirect_stderr, redirect_stdout
from itertools import zip_longest
from pathlib import Path

from qdcascade import cli

GOLDEN_DIR = Path(__file__).parent / "golden"
TRANSCRIPT = GOLDEN_DIR / "cli.txt"
ERR = "2> "  # the prefix of a stderr line; no stdout line starts with it


def run_main(argv):
    """Exit code, stderr and stdout of one command, run in this process."""
    err, out = io.StringIO(), io.StringIO()
    with redirect_stderr(err), redirect_stdout(out):
        code = cli.main(argv)
    return code, err.getvalue(), out.getvalue()


def read_transcript(text):
    """The entries of a transcript, as ``(argv, exit code, stderr, stdout)`` in order."""
    entries = []
    for block in re.split(r"^\$ qdcascade ", text, flags=re.M)[1:]:
        argv, code, rest = block.split("\n", 2)
        err = re.match(f"(?:{ERR}.*\n)*", rest).group()
        entries.append((argv.split(), int(code.removeprefix("exit ")), re.sub(f"(?m)^{ERR}", "", err), rest[len(err):]))
    return entries


def write_transcript(entries):
    """The text of a transcript of ``(argv, exit code, stderr, stdout)`` entries."""
    return "".join(f"$ qdcascade {' '.join(argv)}\nexit {code}\n" + "".join(ERR + line for line in err.splitlines(True))
                   + out for argv, code, err, out in entries)


def moved_cells(name, old, new):
    """One line per cell in which the text ``new`` differs from ``old``.

    Cells are the comma-separated parts of a line. A column is named by the
    header where the first line of ``old`` is one (identifiers only), else
    numbered from 1; a line or cell that one side lacks reads None.
    """
    old_lines, new_lines = old.split("\n"), new.split("\n")
    header = old_lines[0].split(",")
    if not all(cell.isidentifier() for cell in header):
        header = []
    moved = []
    for number, (a, b) in enumerate(zip_longest(old_lines, new_lines), 1):
        cells = zip_longest([] if a is None else a.split(","), [] if b is None else b.split(","))
        for k, (x, y) in enumerate(cells):
            if x != y:
                column = header[k] if k < len(header) else k + 1
                moved.append(f"{name}: line {number}, column {column}: {x!r} -> {y!r}")
    return moved


def transcript_report(approved, received):
    """The moved exit codes, stderr lines and stdout cells of every entry, over two transcripts of the same argv."""
    report = []
    for (argv, code, err, out), (_, new_code, new_err, new_out) in zip(approved, received):
        name = "qdcascade " + " ".join(argv)
        if code != new_code:
            report.append(f"{name}: exit {code} -> {new_code}")
        report += moved_cells(f"{name} (stderr)", err, new_err) + moved_cells(name, out, new_out)
    return report
