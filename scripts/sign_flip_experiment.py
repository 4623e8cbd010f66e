#!/usr/bin/env python3
"""Reproduce the off-diagonal sign-flip experiment.

For generic integer symmetric matrices, flipping the off-diagonal signs
in every combination yields agreement profiles {11, 13, 16} at n=4 and
{16, 19, 20, 21, 23, 25, 32} at n=5; the count 2^n - 1 (all minors but
the determinant) never occurs.  This script samples seeded matrices,
prints the profiles, and flags the forbidden count.
"""

from __future__ import annotations

import argparse
import random
import time

from principal_minors.membership import sign_flip_profile
from principal_minors.sampling import random_symmetric_matrix

EXPECTED = {4: {11, 13, 16}, 5: {16, 19, 20, 21, 23, 25, 32}}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=5)
    parser.add_argument("--trials", type=int, default=5, help="matrices per size")
    parser.add_argument("--sizes", type=int, nargs="+", default=[4, 5])
    args = parser.parse_args()

    rng = random.Random(args.seed)
    for n in args.sizes:
        print(f"== n = {n}  ({1 << (n * (n - 1) // 2)} sign patterns per matrix) ==")
        for trial in range(args.trials):
            matrix = random_symmetric_matrix(n, rng, nonzero_offdiag=True)
            start = time.perf_counter()
            profile = sign_flip_profile(matrix)
            elapsed = time.perf_counter() - start
            counts = ", ".join(f"{c}:{f}" for c, f in profile.counts)
            almost = (1 << n) - 1
            verdict = "FORBIDDEN COUNT PRESENT" if almost in profile.distinct_counts \
                else f"count {almost} absent"
            generic = " (generic profile)" if profile.distinct_counts == EXPECTED.get(n) \
                else ""
            print(f"trial {trial}: {{{counts}}}  {verdict}{generic}  [{elapsed:.2f}s]")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
