"""Benchmark worker: one process, one thread, calling `jacobsthal3.cli.main`.

Started by run.py as `python3 bench/worker.py <src dir>`. It reads pickled
requests from stdin and writes one pickled reply per request to stdout:

  ("op", argv)            -> (exit code, stdout, stderr, seconds, cache counts, spans)
  ("traced_op", argv)     -> the same, run under the span wrappers
  ("trace_report", path)  -> write the spans to path, return their summary
  ("probes", seed)        -> layer probe timings
  ("reference",)          -> seconds of one reference job
  ("rss",)                -> peak resident set size in KiB

Only the call to `main` is timed. After every op the worker reads and then
clears every functools cache on the package's module attributes, so each op
costs what a fresh `jac3` process pays for it.
"""

from __future__ import annotations

import contextlib
import io
import os
import pickle
import random
import resource
import sys
import time
import traceback
from fractions import Fraction

PACKAGE = "jacobsthal3"

_REF_RNG = random.Random(0)
_REF_POLY = {e: Fraction(_REF_RNG.randrange(1, 1 << 12), _REF_RNG.randrange(1, 1 << 6)) for e in range(-25, 25)}
_REF_A, _REF_B = _REF_RNG.getrandbits(40_000), _REF_RNG.getrandbits(30_000) | 1


def reference_job() -> float:
    """Seconds taken by fixed work of the program's kind, which calls nothing of the program.

    A product of two 50-term polynomials with `Fraction` coefficients held in
    a dict, then big-integer products and quotients. On a shared host its
    time follows the host's speed for the program's work (bench/DESIGN.md).
    """
    t0 = time.perf_counter()
    product: dict[int, Fraction] = {}
    for e1, c1 in _REF_POLY.items():
        for e2, c2 in _REF_POLY.items():
            product[e1 + e2] = product.get(e1 + e2, 0) + c1 * c2
    for _ in range(3):
        (_REF_A * _REF_B) // (_REF_B + 2)
    return time.perf_counter() - t0


def find_caches() -> dict[str, object]:
    """Every functools cache held by a package module attribute, found by `cache_clear`."""
    caches = {}
    for name, module in sorted(sys.modules.items()):
        if module is None or not (name == PACKAGE or name.startswith(PACKAGE + ".")):
            continue
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)) and callable(getattr(value, "cache_info", None)):
                label = f"{value.__module__.rpartition('.')[2]}.{value.__qualname__}"
                caches[label] = value
    return caches


def drain_caches(caches: dict[str, object]) -> dict[str, tuple[int, int]]:
    """(hits, misses) of each cache since the last drain, then clear it."""
    counts = {}
    for label, cache in caches.items():
        info = cache.cache_info()
        counts[label] = (info.hits, info.misses)
        cache.cache_clear()
    return counts


def run_op(cli, argv: list[str]) -> tuple:
    """(exit code, stdout, stderr, seconds) of one `cli.main(argv)` call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:  # a crash is a failed op, reported with its traceback
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - t0
    return code, out.getvalue(), err.getvalue(), seconds


def serve(src: str) -> None:
    sys.path.insert(0, src)
    from jacobsthal3 import cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(src) + os.sep):
        raise ImportError(f"jacobsthal3 was imported from {cli.__file__}, not from {src}")
    caches = find_caches()
    drain_caches(caches)
    tracer = None
    requests, replies = sys.stdin.buffer, sys.stdout.buffer
    while True:
        try:
            request = pickle.load(requests)
        except EOFError:
            return
        kind = request[0]
        if kind == "op":
            code, out, err, seconds = run_op(cli, request[1])
            reply = (code, out, err, seconds, drain_caches(caches), 0)
        elif kind == "traced_op":
            if tracer is None:
                from tracing import Tracer

                tracer = Tracer()
            tracer.op += 1
            tracer.install()
            try:
                code, out, err, seconds = run_op(cli, request[1])
            finally:
                tracer.uninstall()
            reply = (code, out, err, seconds, drain_caches(caches), len(tracer.starts))
        elif kind == "trace_report":
            tracer.write(request[1])
            reply = tracer.summary()
        elif kind == "probes":
            import probes

            reply = probes.run(request[1])
        elif kind == "reference":
            reply = reference_job()
        elif kind == "rss":
            reply = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        else:
            raise ValueError(f"unknown request {kind!r}")
        pickle.dump(reply, replies)
        replies.flush()


if __name__ == "__main__":
    serve(sys.argv[1])
