"""Layer probes: public constructors and operators on fixed, seeded operands.

Each probe is timed with the package's caches untouched (none of these
operators is cached) and reported as the median over repetitions; a probe
repeats until its repetitions add up to PROBE_SECONDS, at least once and
at most MAX_REPS times.

Operand sizes:
  rings.probe.laurent_mul_t{10,100,1000}_s  square of a Laurent polynomial with
      that many terms (consecutive exponents from -t/2), integer coefficients
      below 2^16
  rings.probe.fraction_mul_s   one Fraction product, numerators and
      denominators of FRACTION_BITS bits
  matrix3.probe.mul_sym_s      product of two Matrix3 whose entries are
      Laurent polynomials of 32 terms
  matrix3.probe.pow_rational_s Matrix3 with 16-bit rational entries to the
      power 256
"""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

PROBE_SECONDS = 0.5
MAX_REPS = 51
FRACTION_BITS = 4096
FRACTION_BATCH = 64


def _median_time(fn, per_call: int = 1) -> float:
    times: list[float] = []
    while not times or (sum(times) < PROBE_SECONDS and len(times) < MAX_REPS):
        t0 = time.perf_counter()
        fn()
        times.append((time.perf_counter() - t0) / per_call)
    return statistics.median(times)


def _laurent(rng: random.Random, terms: int):
    from jacobsthal3 import LaurentPolynomial

    low = -(terms // 2)
    return LaurentPolynomial({low + i: rng.choice((-1, 1)) * rng.randrange(1, 2 ** 16)
                              for i in range(terms)})


def run(seed: int) -> dict[str, float]:
    from jacobsthal3 import Matrix3

    rng = random.Random(f"probes:{seed}")
    out = {}
    for t in (10, 100, 1000):
        poly = _laurent(rng, t)
        out[f"rings.probe.laurent_mul_t{t}_s"] = _median_time(lambda: poly * poly)

    def big() -> Fraction:
        return Fraction(rng.getrandbits(FRACTION_BITS) | 1 << (FRACTION_BITS - 1),
                        rng.getrandbits(FRACTION_BITS) | 1 << (FRACTION_BITS - 1))

    pairs = [(big(), big()) for _ in range(FRACTION_BATCH)]
    out["rings.probe.fraction_mul_s"] = _median_time(
        lambda: [a * b for a, b in pairs], per_call=FRACTION_BATCH)

    a = Matrix3([[_laurent(rng, 32) for _ in range(3)] for _ in range(3)])
    b = Matrix3([[_laurent(rng, 32) for _ in range(3)] for _ in range(3)])
    out["matrix3.probe.mul_sym_s"] = _median_time(lambda: a * b)

    r = Matrix3([[Fraction(rng.randrange(1, 2 ** 16), rng.randrange(1, 2 ** 16))
                  for _ in range(3)] for _ in range(3)])
    out["matrix3.probe.pow_rational_s"] = _median_time(lambda: r ** 256)
    return out
