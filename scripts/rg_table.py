"""Survey table: minimal flag-variety dimension r against the smallest
nontrivial irreducible, for every covered classical group and G2.

The final column marks the groups whose smallest representation has
dimension exactly r + 1; those are the series whose projective space
P(V) is itself the minimal variety.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from lieflag import cli
from lieflag.classifier import GroupSpec
from lieflag.parabolic import minimal_homogeneous_varieties, r_min
from lieflag.representations import check_rg_plus_one, min_nontrivial_irrep


GROUPS = (
    [GroupSpec("SL", m) for m in range(2, 10)]
    + [GroupSpec("Sp", m) for m in range(4, 11, 2)]
    + [GroupSpec("Spin", m) for m in range(7, 13)]
    + [GroupSpec("G2")]
)


def main() -> None:
    header = f"{'group':>9}  {'type':>4}  {'r':>3}  {'minimal varieties':<24}  {'min irrep':>9}  r+1?"
    print(header)
    print("-" * len(header))
    for group in GROUPS:
        dtype = group.dynkin()
        best = r_min(dtype)
        varieties = ", ".join(
            hv.label() for hv in minimal_homogeneous_varieties(dtype)
        )
        irrep = min_nontrivial_irrep(dtype)
        flag = "yes" if check_rg_plus_one(dtype) else ""
        print(
            f"{group.label():>9}  {str(dtype):>4}  {best.value:>3}  {varieties:<24}  "
            f"{irrep.dim:>9}  {flag}"
        )


if __name__ == "__main__":
    cli.main(main)
