"""Exhaustive check of ``smclm.model.erf`` against ``scipy.special.erf`` on
every one of the 2^32 float32 bit patterns.

Run from the repository root, with no options:

    PYTHONPATH=src python tests/erf_exhaustive.py

It walks the patterns in blocks of 2^22, compares the two results bit for
bit (any NaN equals any NaN), prints progress every 2^28 patterns and ends
with the mismatch count and the seconds taken; it exits 1 on any mismatch.
The file name keeps pytest from collecting it: one run takes 7-12 minutes
on one core (721 s on a shared 2-core x86-64 machine).
"""

import sys
import time

import numpy as np
from scipy.special import erf as scipy_erf

from smclm.model import erf

BLOCK = 1 << 22
TOTAL = 1 << 32


def mismatches(x: np.ndarray) -> np.ndarray:
    ours, ref = erf(x), scipy_erf(x)
    same = (ours.view(np.uint32) == ref.view(np.uint32)) | (np.isnan(ours) & np.isnan(ref))
    return x[~same]


def main() -> int:
    start = time.perf_counter()
    found, first = 0, []
    with np.errstate(invalid="ignore"):  # signalling NaN patterns warn on the cast
        for lo in range(0, TOTAL, BLOCK):
            x = np.arange(lo, lo + BLOCK, dtype=np.uint32).view(np.float32)
            bad = mismatches(x)
            found += len(bad)
            first += bad[: 10 - len(first)].tolist()
            if (lo + BLOCK) % (1 << 28) == 0:
                print(f"{(lo + BLOCK) >> 28}/16 done, {found} mismatches so far", flush=True)
    seconds = time.perf_counter() - start
    print(f"{found} mismatches over {TOTAL} float32 inputs in {seconds:.0f} s")
    if first:
        print("first mismatching inputs:", first)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
