"""Count the lines of lieflag's modules: all of them, as ``wc -l`` does,
and the code lines among them.

A code line holds a token other than a comment or a string that stands
as a whole statement (a docstring), so blank lines, comments and
docstrings are not code, and moving prose between them changes nothing.
A string inside code, over several lines or not, counts on every line
it spans.

    python3 scripts/loc.py

Prints one line per module of src/lieflag, then the total.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_NOT_CODE = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}


def code_lines(path: Path) -> int:
    """The number of lines of a module that hold code."""
    lines: set[int] = set()
    statement: list[tokenize.TokenInfo] = []  # the tokens of one logical line
    with path.open("rb") as handle:
        for tok in tokenize.tokenize(handle.readline):
            if tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in _NOT_CODE:
                statement.append(tok)
    return len(lines)


def counts(package: Path) -> list[tuple[str, int, int]]:
    """(module, wc -l lines, code lines) of each module under a directory."""
    return [
        (str(module.relative_to(package)), module.read_bytes().count(b"\n"), code_lines(module))
        for module in sorted(package.rglob("*.py"))
    ]


def main() -> None:
    rows = counts(ROOT / "src" / "lieflag")
    rows.append(("total", sum(r[1] for r in rows), sum(r[2] for r in rows)))
    print(f"{'lines':>6}  {'code':>6}  module")
    for name, lines, code in rows:
        print(f"{lines:>6}  {code:>6}  {name}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))  # for the exit path alone; counting imports no lieflag
    from lieflag import cli

    cli.main(main)
