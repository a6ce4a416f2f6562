"""Regenerate the golden files compared by tests/test_cli.py.

The cases are the lines of tests/golden/manifest.tsv, each a case name,
a tab and its shell-quoted argv; a new case is one new manifest line.
Each case runs once in text mode and once with --json, and its outputs
land in tests/golden/ as NAME.txt and NAME.json.  Inspect the diff
before committing: the goldens are the frozen contract.
"""

from __future__ import annotations

import contextlib
import io
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lieflag import cli


def capture(argv) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        code = cli.run(argv)
    if code != 0:
        raise SystemExit(f"{argv} exited {code}")
    return buffer.getvalue()


def main() -> None:
    golden = Path(__file__).resolve().parent.parent / "tests" / "golden"
    manifest = (golden / "manifest.tsv").read_text().splitlines()
    for line in manifest:
        name, command = line.split("\t")
        argv = shlex.split(command)
        (golden / f"{name}.txt").write_text(capture(argv))
        (golden / f"{name}.json").write_text(capture(argv + ["--json"]))
    print(f"wrote {2 * len(manifest)} files under {golden}")


if __name__ == "__main__":
    cli.main(main)
