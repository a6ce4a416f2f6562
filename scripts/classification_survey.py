"""Walk every covered group through the verdict ladder and print the
variety lists, from the trivial range up to the database-backed cases.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lieflag import cli
from lieflag.classifier import GroupSpec, classify
from lieflag.parabolic import r_min

GROUPS = (
    [GroupSpec("SL", m) for m in range(2, 7)]
    + [GroupSpec("Sp", m) for m in (4, 6, 8)]
    + [GroupSpec("Spin", m) for m in range(7, 11)]
    + [GroupSpec("G2")]
)


def main() -> None:
    for group in GROUPS:
        r = r_min(group.dynkin()).value
        print(f"== {group.label()}  (type {group.dynkin()}, r = {r})")
        for n in range(max(1, r - 1), r + 2):
            result = classify(group, n)
            if result.verdict == "full_list":
                names = ", ".join(d.name for d in result.entries)
                print(f"  n={n}: {len(result.entries)} families: {names}")
            elif result.verdict == "homogeneous":
                names = ", ".join(d.name for d in result.entries)
                print(f"  n={n}: homogeneous: {names}")
            else:
                print(f"  n={n}: {result.verdict}")
        if group.label() == "SL(3)":
            quasi = classify(group, 4, quasihomogeneous_only=True)
            names = ", ".join(d.name for d in quasi.entries)
            print(f"  n=4 (dense orbit): {len(quasi.entries)} families: {names}")
        print()


if __name__ == "__main__":
    cli.main(main)
