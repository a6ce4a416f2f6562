"""Regenerate the golden files compared by tests/test_cli.py.

The cases are the lines of tests/golden/manifest.tsv, each a case name, a
tab and its shell-quoted argv; a new case is one new manifest line.  Each
case runs once in text mode and once with --json (``outputs``, which the
tests also read), and lands in tests/golden/ as NAME.txt and NAME.json.
Inspect the diff before committing: the goldens are the frozen contract.
"""

from __future__ import annotations

import contextlib
import io
import shlex
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lieflag import cli

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"


def cases() -> dict[str, list[str]]:
    """Each case's argv by its name, in manifest order."""
    lines = (GOLDEN / "manifest.tsv").read_text().splitlines()
    return {name: shlex.split(argv) for name, argv in (line.split("\t") for line in lines)}


def outputs(argv: list[str]) -> list[str]:
    """What argv writes in text mode and with --json; a nonzero exit stops."""
    written = []
    for args in (argv, [*argv, "--json"]):
        with contextlib.redirect_stdout(io.StringIO()) as buffer:
            if code := cli.run(args):
                raise SystemExit(f"{args} exited {code}")
        written.append(buffer.getvalue())
    return written


def main() -> None:
    manifest = cases()
    for name, argv in manifest.items():
        for suffix, out in zip(("txt", "json"), outputs(argv)):
            (GOLDEN / f"{name}.{suffix}").write_text(out)
    print(f"wrote {2 * len(manifest)} files under {GOLDEN}")


if __name__ == "__main__":
    cli.main(main)
