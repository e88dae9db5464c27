"""Run every workload and print every metric by name with its unit.

    python3 bench/report.py

For each workload this runs bench/run.py for the run_seconds of
BENCHMARK.json, untraced with seeds 1..10 and traced once with seed 1, then
prints the metadata, the output check (attempted, failed, error rate), the
latency tail, each op kind's share of the run time, the end-to-end metrics
(median and quartiles over the seeds, and the quartile spread as a share of
the median, which the bounds in BENCHMARK.json apply to), the reference
job's time and the raw wall-clock end-to-end figures it calibrates, and the
per-layer metrics. It also writes .bench_out/report.json, one trajectory point in the
schema of bench/trajectory.json; appending that object to the list there
adds the measured commit to the trajectory.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import REFERENCE_S
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
OUT_DIR = BENCH.parent / ".bench_out"
SEEDS = 10
DIGITS = 6  # rounding of the end-to-end figures in a trajectory point


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL)
    return json.loads((OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json").read_text())


def figures(values: list[float], unit: str) -> dict:
    """Median, quartiles and quartile spread (as a share of the median) of one metric's runs."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    out = {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}
    return {**{key: round(v, DIGITS) for key, v in out.items()}, "unit": unit}


def per_metric(records: list[dict], key: str) -> dict:
    return {name: figures([r[key][name]["value"] for r in records], metric["unit"])
            for name, metric in records[0][key].items()}


def summarize(workload: str, seconds: int) -> tuple[dict, dict]:
    """The workload's entry of a trajectory point, and the traced record."""
    records = [run(workload, seed, seconds, 0) for seed in range(1, SEEDS + 1)]
    traced = run(workload, 1, seconds, 1)
    entry = {
        "end_to_end": per_metric(records, "metrics"),
        "raw_end_to_end": per_metric(records, "raw_metrics"),
        "reference_s": figures([r["reference_s"] for r in records], "s"),
        "attempted": sum(r["attempted"] for r in records + [traced]),
        "failed": sum(r["failed"] for r in records + [traced]),
        "ops_per_run": [r["attempted"] for r in records],
        "latency_tail_seed1": records[0]["latency_tail"],
        "per_layer_seed1": {name: m["value"] for name, m in traced["metrics"].items()},
    }
    traced["failures"] = [f for r in records + [traced] for f in r["failures"]][:10]
    traced["ops_by_kind"] = records[0]["ops_by_kind"]
    return entry, traced


def print_workload(name: str, entry: dict, traced: dict) -> None:
    error_rate = entry["failed"] / entry["attempted"]
    print(f"\n== {name}: ops per run {entry['ops_per_run']}, attempted {entry['attempted']}, "
          f"failed {entry['failed']}, error_rate {error_rate:.4g}")
    for failure in traced["failures"]:
        print(f"   FAILED {failure}")
    tail = entry["latency_tail_seed1"]
    if tail:
        print(f"   latency_tail_s {tail['value']:.6g} s  (p{tail['percentile']:.1f} of {tail['samples']} ops, seed 1)")
    else:
        print("   latency_tail_s: none, ten ops or fewer per run")
    print(f"   caches cleared between ops: {', '.join(traced['caches']['found'])}")
    for kind, share in traced["ops_by_kind"].items():
        print(f"   {kind:<14} {share['ops']:>4} ops  {100 * share['time_share']:5.1f}% of op time (seed 1)")
    for metric, m in entry["end_to_end"].items():
        print(f"   {metric:<40} {m['median']:>14.6g} {m['unit']:<6} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.3f}")
    ref = entry["reference_s"]
    print(f"   reference job {ref['median']:.6g} s (median over the seeds; calibration factor "
          f"{REFERENCE_S / ref['median']:.4g}); raw wall-clock figures:")
    for metric, m in entry["raw_end_to_end"].items():
        print(f"     raw {metric:<36} {m['median']:>14.6g} {m['unit']:<6} "
              f"q1 {m['q1']:.6g}  q3 {m['q3']:.6g}  spread {m['spread']:.3f}")
    for metric, m in traced["metrics"].items():
        print(f"   {metric:<40} {m['value']:>14.6g} {m['unit']}")


def main() -> int:
    seconds = json.loads((BENCH.parent / "BENCHMARK.json").read_text())["run_seconds"]
    point = {"seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in WORKLOADS:
        entry, traced = summarize(workload, seconds)
        point.update({key: traced[key] for key in ("commit", "python", "nproc", "src_loc")})
        point["workloads"][workload] = entry
        print_workload(workload, entry, traced)
    print(f"\npython {point['python']}, nproc {point['nproc']}, commit {point['commit']}, "
          f"src_loc {point['src_loc']}")
    order = ("commit", "python", "nproc", "src_loc", "seconds", "seeds", "workloads")
    (OUT_DIR / "report.json").write_text(json.dumps({key: point[key] for key in order}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
