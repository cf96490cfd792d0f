"""Check that ``vsmeval.floattext`` writes ``repr``'s bytes, on a seeded
sweep of float64 values.

    PYTHONPATH=src python tools/check_float_text.py --count 2000000 --seed 0

The sweep holds ``--count`` raw 64-bit patterns (the finite ones), then
the ``nextafter`` ladder of every power of ten from 1e-323 to 1e308, and
every binade edge ``2.0**k`` from ``2**-1074`` to ``2**1023`` with both
neighbours, each in both signs. Values are compared in chunks, so memory
stays small. Exits 1 on the first mismatch, which it prints.
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from vsmeval import floattext

CHUNK = 100_000


def ladders() -> np.ndarray:
    """Powers of ten and of two with their neighbours, in both signs."""
    centres = np.array([10.0 ** e for e in range(-323, 309)]
                       + [math.ldexp(1.0, k) for k in range(-1074, 1024)])
    values = np.concatenate([np.nextafter(centres, 0), centres,
                             np.nextafter(centres, np.inf)])
    values = values[np.isfinite(values)]
    return np.concatenate([values, -values])


def sweep(count: int, seed: int):
    """Chunks of the values to check."""
    rng = np.random.default_rng(seed)
    for start in range(0, count, CHUNK):
        size = min(CHUNK, count - start)
        bits = rng.integers(0, np.iinfo(np.uint64).max, size,
                            dtype=np.uint64, endpoint=True)
        values = bits.view(np.float64)
        yield values[np.isfinite(values)]
    yield ladders()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--count", type=int, default=2_000_000,
                        help="raw 64-bit patterns to draw")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    checked = 0
    for values in sweep(args.count, args.seed):
        got = floattext.texts(values)
        want = list(map(repr, values.tolist()))
        if got != want:
            i = next((i for i, (a, b) in enumerate(zip(got, want))
                      if a != b), min(len(got), len(want)) - 1)
            bits = values[i:i + 1].view(np.uint64)[0]
            print(f"mismatch at 0x{int(bits):016x}: floattext "
                  f"{got[i:i + 1]}, repr {want[i:i + 1]}")
            return 1
        checked += len(values)
    print(f"{checked} values: floattext writes repr's bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
