"""Golden CLI transcripts: the commands, and the script that records them.

Each transcript holds one command's argv, its exit code, its stdout and,
for bad input, its stderr.  `tests/test_cli.py` replays them through
`cli.main` and `test_reproduce_everything` compares its `reproduce` run
with the stored one, so any change to CLI output shows up as a failing
test that names the command.

Regenerate them from a given tree (never edit the JSON by hand), then
state the changed commands as a contract change:

    PYTHONPATH=<tree>/src python tests/cli_transcripts.py

pytest does not collect this file.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

from minuscule.cli import main

PATH = Path(__file__).resolve().parent / "transcripts" / "cli.json"

REPRODUCE = ("reproduce", "--threads", "2")


def commands() -> list[tuple[str, ...]]:
    """The replayed commands, in a fixed order."""
    out = []
    csp = [("cayley-moufang", k) for k in (*range(21), 80)]
    csp += [("freudenthal", k) for k in range(17)]
    csp += [(f"propeller-{p}", k) for p in range(3, 7) for k in range(7)]
    out += [("verify-csp", "--poset", poset, "--k", str(k), "--json") for poset, k in csp]
    out += [("period", "--poset", "freudenthal", "--m", str(m)) for m in range(18, 31)]
    out += [
        ("gapless-table", "--poset", poset, "--format", fmt)
        for poset in ("freudenthal", "propeller-5")
        for fmt in ("text", "json", "csv")
    ]
    out += [
        ("rowmotion-orbits", "--poset", "cayley-moufang", "--k", "2"),
        ("rowmotion-orbits", "--poset", "freudenthal", "--k", "1", "--format", "json"),
        ("rowmotion-orbits", "--poset", "propeller-4", "--k", "3", "--format", "csv"),
        ("qpoly", "--poset", "freudenthal", "--k", "3"),
        ("qpoly", "--poset", "cayley-moufang", "--k", "5"),
        ("frame-check",),
        ("frame-check", "--poset", "cayley-moufang"),
    ]
    out += [
        ("rowmotion-orbits", "--poset", "dodecahedron", "--k", "1"),
        ("period", "--poset", "cayley-moufang", "--m", "5"),
        ("gapless-table", "--poset", "rectangle-1x256", "--fresh"),
    ]
    return out


def run(argv) -> dict:
    """One command through `cli.main`: argv, exit code, stdout, stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return {"argv": list(argv), "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


def load() -> dict:
    return json.loads(PATH.read_text())


if __name__ == "__main__":
    PATH.parent.mkdir(exist_ok=True)
    record = {"commands": [run(argv) for argv in commands()], "reproduce": run(REPRODUCE)}
    PATH.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {len(record['commands'])} transcripts and reproduce to {PATH}", file=sys.stderr)
