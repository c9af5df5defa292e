"""Worst error of the default 64-node geometric mean against the oracle.

    python3 benchmarks/accuracy.py

PAIRS seeded dim-3 accretive pairs (condition cap 100) at each sector half-angle,
weights 0.1, 0.5 and 0.9; prints one markdown table row per angle with the
worst relative Frobenius error of `sectorlab.geometric_mean` against
A (A^-1 B)^lam.
"""

from __future__ import annotations

import math
import os
import sys
from pathlib import Path

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sectorlab  # noqa: E402

import inputs  # noqa: E402
import oracle  # noqa: E402

ANGLES = (0.4, 0.8, 0.95, 0.97, 0.99)
LAMBDAS = (0.1, 0.5, 0.9)
PAIRS = 20
SEED = 0


def main() -> int:
    print("| angle / (pi/2) | worst rel. error, 64 nodes | median rel. error |")
    print("| --- | --- | --- |")
    for frac in ANGLES:
        errs = []
        for k in range(PAIRS):
            a, b = inputs.sector_pair(inputs.stream(SEED, 6, k), 3, frac * math.pi / 2, 100.0)
            for lam in LAMBDAS:
                errs.append(oracle.rel_err(sectorlab.geometric_mean(a, b, lam),
                                           oracle.geometric_mean(a, b, lam)))
        errs.sort()
        print(f"| {frac} | {errs[-1]:.1e} | {errs[len(errs) // 2]:.1e} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
