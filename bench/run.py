"""jac3 benchmark: one workload, one seed, one result.

    python3 bench/run.py --workload verify-default --seed 1 --seconds 50 --trace 0

The program is the `src/jacobsthal3` tree of the checkout that holds this
file. A single client drives one worker process (one thread) in a closed
loop: it sends the next op only after the previous one returned. Ops come
from the seeded generator in workloads.py and reach the program only as
argv lists for `jacobsthal3.cli.main`. The first ops, until their op
seconds reach WARMUP_S, warm the worker up and are not timed; the loop then
runs until the timed op seconds reach --seconds. Every op's exit code and
output are checked against oracle.py outside the timed window.

--trace 0 reports the end-to-end metrics, with every time calibrated by a
reference job that the worker runs between ops (DESIGN.md, Calibration);
the raw wall-clock figures stay in the record. --trace 1 runs ops for half
of --seconds, each one twice in a row: untraced, then with span wrappers
installed (tracing.py); it then runs the layer probes (probes.py) and
reports the per-layer metrics. The last line of stdout is one JSON object
with the keys correct, attempted, failed and metrics; the full record, with
metadata and the metrics that are not in that line, goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pickle
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import oracle
import tracing
from workloads import WORKLOADS, ops

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_RUNS = 15
# The worker times its reference job REFERENCE_RUNS times per run, and
# reported times are scaled to a host on which its median takes REFERENCE_S
# (see DESIGN.md, Calibration).
REFERENCE_RUNS = 100
REFERENCE_S = 0.025
WARMUP_S = 1.0  # op seconds run before timing starts; at least one op
CACHED = ("generator", "M_matrix", "N_matrix", "J_power", "j_power")


class BenchmarkError(Exception):
    pass


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units: dict[str, str] = {}

    def calls_and_self(*groups: str) -> None:
        for group in groups:
            units[f"{group}.calls"] = "count"
            units[f"{group}.self_s"] = "s"

    calls_and_self("rings.laurent_mul")
    units["rings.laurent_mul.terms_mean"] = "terms"
    calls_and_self("rings.laurent_add", "rings.laurent_exact_div", "rings.omega_mul")
    units["rings.max_coeff_bits"] = "bits"
    calls_and_self(*(f"matrix3.{f}" for f in ("mul", "pow", "inverse", "det")))
    calls_and_self(*(f"sequences.{f}" for f in tracing.FUNCTIONS["sequences"]))
    calls_and_self(*(f"matrices.{f}" for f in tracing.FUNCTIONS["matrices"]))
    for f in CACHED:
        units[f"matrices.{f}.hit_ratio"] = "ratio"
    units["classic.self_s"] = "s"
    for name, _ in oracle.DEFAULT_VERIFY_REPORT:
        units[f"identities.{name}.self_s"] = "s"
    units["identities.engine.self_s"] = "s"
    units["identities.checks"] = "count"
    for group in ("parse", "run_term", "run_matrix", "run_table", "run_verify"):
        units[f"cli.{group}.self_s"] = "s"
    for t in (10, 100, 1000):
        units[f"rings.probe.laurent_mul_t{t}_s"] = "s"
    units["rings.probe.fraction_mul_s"] = "s"
    units["matrix3.probe.mul_sym_s"] = "s"
    units["matrix3.probe.pow_rational_s"] = "s"
    units["trace.overhead_frac"] = "ratio"
    return units


END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_s": "s",
    "peak_rss_mb": "MB",
}


class Worker:
    """The worker process; requests and replies are pickles on its stdin and stdout."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), str(SRC)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT,
        )

    def call(self, *request):
        pickle.dump(request, self.proc.stdin)
        self.proc.stdin.flush()
        try:
            return pickle.load(self.proc.stdout)
        except EOFError:
            raise BenchmarkError("the worker process ended unexpectedly") from None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Tally:
    """Timings, checks and cache counts of the ops of one phase."""

    def __init__(self):
        self.ops: list = []
        self.seconds: list[float] = []
        self.failures: list[str] = []
        self.max_bits = 0
        self.cache = defaultdict(lambda: [0, 0])
        self.clears = 0

    def add(self, op, code, out, err, seconds, caches) -> None:
        self.ops.append(op)
        self.seconds.append(seconds)
        problem = oracle.check(op, code, out)
        if problem:
            detail = err.strip().splitlines()[-1:] or [""]
            self.failures.append(f"{' '.join(op.argv)}: {problem} {detail[0]}".strip())
        else:
            self.max_bits = max(self.max_bits, oracle.max_coeff_bits(op, out))
        for label, (hits, misses) in caches.items():
            self.cache[label][0] += hits
            self.cache[label][1] += misses
        self.clears += len(caches)


def run_phase(worker: Worker, op_iter, tally: Tally, seconds: float, between_ops=None,
              traced: Tally | None = None) -> float:
    """Closed loop: one op at a time until the timed op seconds reach `seconds`.

    `between_ops(share)` runs after each op, while the worker idles, with
    the share of `seconds` measured so far. With a `traced` tally each op
    runs again right away under the span wrappers, so that both runs of an
    op see the same machine load.
    """
    measured = 0.0
    for op in op_iter:
        if measured >= seconds:
            break
        code, out, err, dt, caches, _ = worker.call("op", op.argv)
        measured += dt
        tally.add(op, code, out, err, dt, caches)
        if between_ops is not None:
            between_ops(measured / seconds)
        if traced is not None:
            code, out, err, dt, caches, spans = worker.call("traced_op", op.argv)
            traced.add(op, code, out, err, dt, caches)
            if spans >= tracing.MAX_SPANS:
                break
    return measured


class Sampler:
    """Seconds of a job run between ops, `runs` times spread over the run.

    `job()` runs the job once and returns its seconds. Spreading the samples
    keeps their median from hanging on the load of one moment.
    """

    def __init__(self, job, runs: int):
        self.job, self.runs = job, runs
        job()  # untimed: writes bytecode caches, warms allocators
        self.times: list[float] = []

    def sample_until(self, share: float) -> None:
        while len(self.times) < self.runs * min(share, 1.0):
            self.times.append(self.job())

    def median(self) -> float:
        self.sample_until(1.0)
        return statistics.median(self.times)


def setup_job():
    """A fresh interpreter importing jacobsthal3.cli, as every CLI call starts; returns its seconds."""
    cmd = [sys.executable, "-c", "import jacobsthal3.cli"]
    options = {"env": dict(os.environ, PYTHONPATH=str(SRC)), "cwd": ROOT, "check": True,
               "stdout": subprocess.DEVNULL}

    def job() -> float:
        t0 = time.perf_counter()
        subprocess.run(cmd, **options)
        return time.perf_counter() - t0

    return job


def latency_tail(seconds: list[float]) -> dict | None:
    """The highest percentile with at least ten samples beyond it (nearest rank)."""
    n = len(seconds)
    if n <= 10:
        return None
    return {"percentile": 100 * (n - 10) / n, "value": sorted(seconds)[n - 11], "samples": n}


def source_files() -> list[Path]:
    return sorted(p for p in SRC.rglob("*.py") if "__pycache__" not in p.parts)


def metadata(workload: str, seed: int, seconds: int, trace: int) -> dict:
    files = source_files()
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                    capture_output=True, text=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = None
    if commit is None:
        digest = hashlib.sha256()
        for path in files:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
        commit = "src-sha256:" + digest.hexdigest()[:16]
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "commit": commit,
        "src_loc": sum(1 for p in files for line in p.read_text().splitlines() if line.strip()),
    }


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(tally: Tally, measured: float, setup_s: float, rss_kib: int, scale: float = 1.0) -> dict:
    """The end-to-end metrics, with every time multiplied by `scale`."""
    values = {
        "setup_s": setup_s * scale,
        "ops_per_s": (len(tally.ops) - len(tally.failures)) / (measured * scale),
        "latency_p50_s": statistics.median(tally.seconds) * scale,
        "peak_rss_mb": rss_kib / 1024,
    }
    return {name: _metric(values[name], unit) for name, unit in END_TO_END_UNITS.items()}


def per_layer(summary: dict, tally: Tally, overhead: float, probe_times: dict) -> dict:
    units = per_layer_units()
    values: dict[str, float] = {}
    for name in units:
        group, _, field = name.rpartition(".")
        if field == "calls":
            values[name] = summary["calls"].get(group, 0)
        elif field == "self_s":
            values[name] = summary["self_s"].get(group, 0.0)
        elif field == "hit_ratio":
            hits, misses = tally.cache.get(group, (0, 0))
            values[name] = hits / (hits + misses) if hits + misses else 0.0
    values["rings.laurent_mul.terms_mean"] = summary["laurent_mul_terms_mean"]
    values["rings.max_coeff_bits"] = tally.max_bits
    values["identities.checks"] = summary["identity_checks"]
    values["trace.overhead_frac"] = overhead
    values.update(probe_times)
    return {name: _metric(values[name], unit) for name, unit in units.items()}


def kind_shares(tally: Tally) -> dict:
    counts: Counter = Counter()
    time_by_kind: Counter = Counter()
    for op, dt in zip(tally.ops, tally.seconds):
        counts[op.kind] += 1
        time_by_kind[op.kind] += dt
    total = sum(time_by_kind.values())
    return {kind: {"ops": counts[kind], "time_share": time_by_kind[kind] / total}
            for kind in sorted(counts)}


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    if not (SRC / "jacobsthal3" / "cli.py").is_file():
        raise BenchmarkError(f"no program to measure: {SRC / 'jacobsthal3'} is missing")
    sys.set_int_max_str_digits(0)  # outputs run to thousands of digits
    OUT_DIR.mkdir(exist_ok=True)
    record = metadata(workload, seed, seconds, trace)
    stream = ops(workload, seed)
    warmup, tally = Tally(), Tally()
    with Worker() as worker:
        run_phase(worker, stream, warmup, WARMUP_S)
        if not trace:
            setup = Sampler(setup_job(), SETUP_RUNS)
            reference = Sampler(lambda: worker.call("reference"), REFERENCE_RUNS)

            def between_ops(share: float) -> None:
                setup.sample_until(share)
                reference.sample_until(share)

            measured = run_phase(worker, stream, tally, seconds, between_ops=between_ops)
            setup_s, reference_s = setup.median(), reference.median()
            rss = worker.call("rss")
            scale = REFERENCE_S / reference_s
            record["reference_s"] = reference_s
            record["raw_metrics"] = end_to_end(tally, measured, setup_s, rss)
            record["metrics"] = end_to_end(tally, measured, setup_s, rss, scale)
            record["latency_tail"] = latency_tail([dt * scale for dt in tally.seconds])
        else:
            traced = Tally()
            run_phase(worker, stream, tally, seconds / 2, traced=traced)
            spans_path = OUT_DIR / f"{workload}-seed{seed}.spans"
            summary = worker.call("trace_report", str(spans_path))
            overhead = sum(traced.seconds) / sum(tally.seconds) - 1
            probe_times = worker.call("probes", seed)
            record["metrics"] = per_layer(summary, traced, overhead, probe_times)
            record["spans"] = {"file": str(spans_path.relative_to(ROOT)), "count": summary["spans"],
                               "traced_ops": len(traced.ops)}
            tally.ops += traced.ops
            tally.seconds += traced.seconds
            tally.failures += traced.failures
            tally.clears += traced.clears
    record["ops_by_kind"] = kind_shares(tally)
    record["warmup_ops"] = len(warmup.ops)
    attempted = len(warmup.ops) + len(tally.ops)
    failures = warmup.failures + tally.failures
    record["attempted"] = attempted
    record["failed"] = len(failures)
    record["error_rate"] = len(failures) / attempted
    record["failures"] = failures[:10]
    record["caches"] = {"found": sorted(tally.cache), "clears": warmup.clears + tally.clears}
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    try:
        record = run(args.workload, args.seed, args.seconds, args.trace)
    except (BenchmarkError, OSError, subprocess.CalledProcessError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
