#!/usr/bin/env python3
"""srbetti end-to-end benchmark.

    python3 bench/run.py --workload froberg6|corpus|general|all \\
        --seed N --seconds S --trace 0|1

Run from a checkout (any directory holding `src/srbetti` and `bench`).
Every job runs in a fresh single-threaded interpreter, one at a time, as a
closed loop, so no cache survives from one job, run or workload to the next.

The work of a run is fixed by the workload, --seed and --seconds: it is
sized so that a run takes about --seconds at the baseline commit, and a
faster program finishes the same work sooner.  --trace 0 measures the
end-to-end metrics: set-up is timed in several fresh interpreters and
reported as a median, then one interpreter runs the items, and call times
are scaled to the machine's reference speed, sampled during the calls (see
worker.Calibration).  --trace 1 runs
the same items untraced and then with every layer wrapped (see layers.py)
and reports per-layer counts and times; the counts repeat exactly.  Every
output is checked by gate.py; an exception, a nonzero exit code or a
failed check counts the call as failed.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import layers  # noqa: E402

SETUP_REPS = 20  # set-up-only interpreters per run, on top of the measured one
JOB_TIMEOUT_S = 170


@dataclass(frozen=True)
class Workload:
    name: str
    size: int  # froberg6: vertices per graph; corpus: n_max; general: n
    item_s: float  # seconds per item at the baseline commit; sizes a run

    @property
    def weight(self) -> int:
        """Items per call: froberg6 counts the graphs of its sweep."""
        return 1 << (self.size * (self.size - 1) // 2) if self.name == "froberg6" else 1

    def items(self, seconds: float) -> int:
        """Items per run: one sweep for froberg6, else about `seconds` of work."""
        if self.name == "froberg6":
            return 1
        return max(1, round(seconds / self.item_s))


# Why these three: froberg6 is the slowest job users run and loads the
# restriction layer and the homology cache; corpus is the default `verify`
# corpus shape, many small distinct complexes over GF(p) and Q with a 2^n
# size tail; general is `analyze` on random non-flag complexes, where
# elimination dominates and the cache barely helps.  froberg6 is one
# indivisible sweep of about 25 s, so its run is one sweep whatever
# --seconds says.
WORKLOADS = {
    "froberg6": Workload("froberg6", 6, 25.0),
    "corpus": Workload("corpus", 9, 0.0055),
    "general": Workload("general", 10, 0.9),
}

END_TO_END = (
    ("items_per_s", "1/s"),
    ("call_p50_s", "s"),
    ("call_p90_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mib", "MiB"),
)


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def build() -> None:
    """Byte-compile the program so no run pays for compilation."""
    if not (SRC / "srbetti" / "__init__.py").is_file():
        raise BenchError(f"no srbetti sources under {SRC}")
    for path in (SRC, BENCH):
        if not compileall.compile_dir(str(path), quiet=1):
            raise BenchError(f"byte-compiling {path} failed")


def job(w: Workload, seed: int, items: int, run_dir: Path, *, trace=False, setup_only=False) -> dict:
    """Run one worker interpreter to completion and return its result."""
    run_dir.mkdir(parents=True, exist_ok=True)
    job_dir = run_dir / f"job{sum(1 for _ in run_dir.iterdir())}"
    job_dir.mkdir()
    spec = {"workload": w.name, "size": w.size, "seed": seed, "items": items,
            "dir": str(job_dir), "trace": trace, "setup_only": setup_only}
    (job_dir / "spec.json").write_text(json.dumps(spec), encoding="utf-8")
    argv = [sys.executable, "-I", "-S", str(BENCH / "worker.py"), str(job_dir / "spec.json"), str(job_dir / "result.json")]
    spawn_ns = time.monotonic_ns()
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=sys.stderr, timeout=JOB_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{w.name} job exceeded {JOB_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"{w.name} worker exited with code {proc.returncode}")
    result = json.loads((job_dir / "result.json").read_text(encoding="utf-8"))
    result["setup_s"] = (result["ready_ns"] - spawn_ns) / 1e9
    result["dir"] = job_dir
    return result


def _golden(w: Workload, seed: int) -> list[str]:
    """Expected math digests of the items, for the default seed and size only."""
    table = json.loads((BENCH / "golden.json").read_text(encoding="utf-8"))
    return table["digests"].get(f"{w.name}-{w.size}", []) if seed == table["seed"] else []


def grade(w: Workload, seed: int, items: list[dict]) -> tuple[int, int]:
    """(attempted, failed) items; froberg6 counts graphs, not calls."""
    golden = _golden(w, seed)
    attempted = failed = 0
    weight = w.weight
    for item in items:
        attempted += weight
        doc = None
        if item["error"]:
            problems = ["exception: " + item["error"].strip().splitlines()[-1]]
        elif item["rc"] != 0:
            problems = [f"exit code {item['rc']}"]
        else:
            digest = golden[item["index"]] if item["index"] < len(golden) else None
            try:
                doc = json.loads(Path(item["out"]).read_text(encoding="utf-8"))
                problems = gate.item_problems(w.name, doc, item["n"], digest)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"unreadable output: {exc!r}"]
        if not problems:
            continue
        print(f"{w.name} item {item['index']}: " + "; ".join(problems), file=sys.stderr)
        if w.name == "froberg6" and doc is not None and doc.get("checked") == weight:
            failed += len(doc["mismatches"])
        else:
            failed += weight
    return attempted, failed


def measure(w: Workload, seed: int, seconds: float, run_dir: Path) -> dict:
    """End-to-end metrics: median set-up, then one interpreter runs the items.

    Call times are at reference speed (worker.Calibration); the wall-clock
    throughput and the machine's speed are printed alongside.
    """
    n = w.items(seconds)
    setups = [job(w, seed, n, run_dir, setup_only=True)["setup_s"] for _ in range(SETUP_REPS)]
    result = job(w, seed, n, run_dir)
    attempted, failed = grade(w, seed, result["items"])
    times = [item["ref_s"] for item in result["items"]]
    wall = sum(item["s"] for item in result["items"])
    print(f"# {w.name}: wall-clock {(attempted - failed) / wall:.6g} items/s, "
          f"machine at {sum(times) / wall:.3f} of reference speed")
    values = {
        "items_per_s": (attempted - failed) / sum(times),
        "call_p50_s": statistics.median(times),
        "call_p90_s": statistics.quantiles(times, n=10, method="inclusive")[-1] if n > 1 else times[0],
        "setup_s": statistics.median(setups + [result["setup_s"]]),
        "peak_rss_mib": result["rss_kib"] / 1024,
    }
    return {"attempted": attempted, "failed": failed, "values": values, "units": dict(END_TO_END)}


def trace(w: Workload, seed: int, seconds: float, run_dir: Path) -> dict:
    """Per-layer metrics: the run's items untraced, then the same items traced."""
    n = w.items(seconds)
    plain = job(w, seed, n, run_dir)
    traced = job(w, seed, n, run_dir, trace=True)
    overhead = sum(i["s"] for i in traced["items"]) / sum(i["s"] for i in plain["items"])
    spans_csv = traced["dir"] / "spans.csv"
    values = layers.aggregate(layers.read_spans(spans_csv), traced["counts"], traced["missing"], overhead)
    shutil.move(spans_csv, run_dir.parent / f"{w.name}-spans.csv")
    for name in traced["missing"]:
        print(f"{w.name}: layer {name} not found, reported as not measured", file=sys.stderr)
    attempted, failed = grade(w, seed, plain["items"] + traced["items"])
    return {"attempted": attempted, "failed": failed, "values": values, "units": dict(layers.PER_LAYER)}


def run(w: Workload, seed: int, seconds: float, traced: bool) -> dict:
    run_dir = WORK / f"{w.name}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        return trace(w, seed, seconds, run_dir) if traced else measure(w, seed, seconds, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Exit through SystemExit on SIGTERM so subprocess.run kills the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        build()
        results = {name: run(WORKLOADS[name], args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchError as exc:
        print(f"bench: error: {exc}", file=sys.stderr)
        return 2
    metrics = {}
    for name, res in results.items():
        prefix = f"{name}." if args.workload == "all" else ""
        print(f"# {name}: attempted {res['attempted']}, failed {res['failed']}, "
              f"fail_ratio {res['failed'] / res['attempted']:.6g}")
        for metric, value in res["values"].items():
            unit = res["units"][metric]
            print(f"{name:9s} {metric:34s} {value:>14.6g} {unit}")
            metrics[prefix + metric] = {"value": value, "unit": unit}
    attempted = sum(res["attempted"] for res in results.values())
    failed = sum(res["failed"] for res in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
