"""Seeded op generators for the two benchmark workloads.

An op is one `jac3` invocation, given to the program only as an argv list.
`verify-default` repeats one op. `deep` is an endless sequence of cycles;
a cycle visits a fixed list of slots, one per op kind (and, for rational k,
per k value). Across cycles a slot walks its index range along a
golden-ratio rotation folded by the tent map u -> 1 - |2u - 1|; the seed
sets each slot's phase and its first sign and format. The fold makes the
sequence smooth at the wrap-around, so the mean cost of a slot's ops
converges fast and any run of a few cycles holds nearly the same amount of
work whatever the seed. That keeps the seed-to-seed spread of the
end-to-end numbers small without fixing the inputs themselves.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Iterator, Optional

_GOLDEN = (math.sqrt(5) - 1) / 2


@dataclass(frozen=True)
class Op:
    command: str  # term, matrix, table or verify
    family: str = ""
    k: Optional[str] = None  # "p/q" or "sym"
    n: int = 0  # index; the first index for table
    to: int = 0  # last index, table only
    fmt: Optional[str] = None

    @property
    def kind(self) -> str:
        kind = f"{self.command} {self.family}".strip()
        return f"{kind} sym" if self.k == "sym" else kind

    @property
    def argv(self) -> list[str]:
        if self.command == "verify":
            return ["verify", "--identity", "all"]
        argv = [self.command, "--family", self.family, "--k", self.k]
        if self.command == "table":
            argv += [f"--from={self.n}", f"--to={self.to}"]
        else:
            argv.append(f"--n={self.n}")
        if self.fmt is not None:
            argv += ["--format", self.fmt]
        return argv


def _log_uniform(lo: int, hi: int, u: float) -> int:
    return round(lo * (hi / lo) ** u)


def _triangular(u: float) -> float:
    """Quantile function of the triangular distribution on [0, 1] with its mode at 1/2."""
    return math.sqrt(u / 2) if u < 0.5 else 1 - math.sqrt((1 - u) / 2)


class _Slot:
    """One op kind; `draw(c)` gives its parameters in cycle c."""

    def __init__(self, rng: random.Random, command: str, family: str, k: str, lo: int, hi: int,
                 signed: bool, fmts: tuple[Optional[str], ...], shape=lambda u: u):
        self.command, self.family, self.k = command, family, k
        self.lo, self.hi, self.signed, self.fmts, self.shape = lo, hi, signed, fmts, shape
        self.phase = rng.random()
        self.sign0 = rng.randrange(2)
        self.fmt0 = rng.randrange(len(fmts))

    def draw(self, c: int) -> Op:
        u = (self.phase + c * _GOLDEN) % 1.0
        n = _log_uniform(self.lo, self.hi, self.shape(1 - abs(2 * u - 1)))
        if self.signed and (self.sign0 + c) % 2:
            n = -n
        fmt = self.fmts[(self.fmt0 + c) % len(self.fmts)]
        if self.command == "table":
            return Op("table", self.family, self.k, n, n + TABLE_ROWS - 1, fmt)
        return Op(self.command, self.family, self.k, n, 0, fmt)


_RATIONAL_K = ("2", "7/3", "1/2")
_ANY_FORMAT = ("pretty", "json", "csv")
RATIONAL_N = (200, 2000)  # |n|, log-uniform
SYMBOLIC_N = (30, 200)
TABLE_ROWS = 4
# Slot order within a cycle: kind-major across the three k blocks of 12.
_INTERLEAVE = [block * 12 + kind for kind in range(12) for block in range(3)]


def _deep_rational(rng: random.Random) -> list[_Slot]:
    # Every kind at every k in each cycle, heavy and light kinds interleaved,
    # so a cut-off cycle holds a similar mix on every seed. M and N run the
    # O(n) matrix recurrence and cost the most per op; with one slot each
    # against term, table and power slots no single kind takes half the time.
    lo, hi = RATIONAL_N
    slots = []
    for k in _RATIONAL_K:
        slots += [_Slot(rng, "term", f, k, lo, hi, True, (None,)) for f in "JjTt"]
        slots += [_Slot(rng, "matrix", f, k, lo, hi, True, _ANY_FORMAT) for f in ("Jn", "jn")]
        slots += [_Slot(rng, "matrix", f, k, lo, hi, False, _ANY_FORMAT) for f in "MN"]
        slots += [_Slot(rng, "table", f, k, lo, hi, True, _ANY_FORMAT) for f in "JjTt"]
    return [slots[i] for i in _INTERLEAVE]


def _deep_symbolic(rng: random.Random) -> list[_Slot]:
    # Laurent operands of dozens to hundreds of terms. log|n| is triangular
    # rather than uniform, so op costs crowd around the middle of the range.
    # Symbolic matrices are read back as JSON, whose cells are unambiguous.
    lo, hi = SYMBOLIC_N
    slots = [_Slot(rng, "term", f, "sym", lo, hi, True, (None,), _triangular) for f in "JjTt"]
    slots += [_Slot(rng, "matrix", f, "sym", lo, hi, True, ("json",), _triangular)
              for f in ("Jn", "jn")]
    return slots


def _deep(rng: random.Random) -> list[_Slot]:
    # The 36 rational slots with one of the 6 symbolic slots after every
    # sixth, so a run cut off mid-cycle holds both kinds in proportion.
    rational, symbolic = _deep_rational(rng), _deep_symbolic(rng)
    return [slot for i, sym in enumerate(symbolic) for slot in rational[6 * i:6 * i + 6] + [sym]]


WORKLOADS = ("verify-default", "deep")


def ops(workload: str, seed: int) -> Iterator[Op]:
    """The endless op sequence of a workload; the same seed gives the same ops."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    if workload == "verify-default":
        while True:
            yield Op("verify")
    slots = _deep(random.Random(f"{workload}:{seed}"))
    c = 0
    while True:
        for slot in slots:
            yield slot.draw(c)
        c += 1
