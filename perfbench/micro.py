"""Micro-timings of the hot layers on seeded inputs, in a fresh process:

    python3 perfbench/micro.py SEED RESULT.json

RESULT.json maps each metric name to [value, unit]; a metric whose code is
gone is listed under "missing" instead of being timed.
"""

from __future__ import annotations

import json
import random
import statistics
import sys
import time
from fractions import Fraction
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
REPEATS = 9


def _median_per_call(fn, calls: int, repeats: int = REPEATS) -> float:
    """Median over repeats of the seconds per call, `fn` making `calls` calls."""
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples)


def _field_elements(rng: random.Random, count: int):
    from quartic_twist.cyclotomic import CycNum

    # Sparse, small coefficients, like the zeta powers and line coefficients
    # the verifier multiplies.
    elements = []
    while len(elements) < count:
        value = CycNum([
            Fraction(rng.randint(-4, 4), rng.choice((1, 2))) if rng.random() < 0.5 else 0
            for _ in range(8)
        ])
        if value:
            elements.append(value)
    return elements


def cycnum_mul_ns(rng):
    pairs = list(zip(_field_elements(rng, 1024), _field_elements(rng, 1024)))

    def run():
        for x, y in pairs:
            x * y

    return _median_per_call(run, len(pairs)) * 1e9


def cycnum_inv_us(rng):
    elements = _field_elements(rng, 64)

    def run():
        for x in elements:
            x.inv()

    return _median_per_call(run, len(elements)) * 1e6


def expand_branch_p17_ms(rng):
    """expand_branch at precision 17 with the expansion cache cleared, at
    every catalogued point in seeded order; the median over points."""
    from quartic_twist import valuations
    from quartic_twist.curve import CATALOG

    cache = valuations._EXPANSION_CACHE
    points = list(CATALOG.values())
    rng.shuffle(points)
    samples = []
    for point in points:
        cache.clear()
        start = time.perf_counter()
        valuations.expand_branch(point, 17)
        samples.append(time.perf_counter() - start)
    cache.clear()
    return statistics.median(samples) * 1e3


def sweep_ms(rng):
    """One image_submodule sweep over all 2048 elements of M, for a seeded
    choice of the printed generators."""
    from quartic_twist.mordell_weil import PRINTED_S3, PRINTED_S5, image_submodule

    s = rng.choice((PRINTED_S3, PRINTED_S5))
    return _median_per_call(lambda: image_submodule(s), 1, repeats=5) * 1e3


# name -> (unit, timing function of a seeded rng)
MICRO = {
    "cyclotomic.mul_ns": ("ns", cycnum_mul_ns),
    "cyclotomic.inv_us": ("us", cycnum_inv_us),
    "valuations.expand_branch_p17_ms": ("ms", expand_branch_p17_ms),
    "mordell_weil.sweep_ms": ("ms", sweep_ms),
}


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: micro.py SEED RESULT.json", file=sys.stderr)
        return 2
    seed, result_path = int(argv[0]), Path(argv[1])
    sys.path.insert(0, str(SRC))
    metrics, missing = {}, []
    for name, (unit, fn) in MICRO.items():
        try:
            metrics[name] = (fn(random.Random(f"{seed}:{name}")), unit)
        except (ImportError, AttributeError):
            missing.append(name)
    result_path.write_text(json.dumps({"metrics": metrics, "missing": missing}), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
