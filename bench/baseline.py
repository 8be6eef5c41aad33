#!/usr/bin/env python3
"""Record the benchmark baseline, or the golden digests.

    python3 bench/baseline.py            # writes bench/BASELINE.json
    python3 bench/baseline.py --golden   # writes bench/golden.json

The first form runs the command from BENCHMARK.json exactly as a harness
would: for every workload, once untraced per seed 1..10 and twice traced
with seed 1.  It writes the machine (nproc, CPU model, Python, load
average), the commit, the seeds, every value, the wall-clock throughput and
machine speed of every run, and per end-to-end metric the median, quartiles
and spread (quartile distance over median) next to the metric's bound, and
whether the per-layer counts repeated exactly.

The second form rewrites golden.json: the math digests of the default
seed's items at BENCHMARK.json's run length.  Only do that when a change
of results is intended and checked.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
ROADMAP_FROBERG6_S = 24.9  # one-off perf_counter timing of the sweep in ROADMAP.md
RUNS = 10


def bench(workload: str, seed: int, trace: int) -> dict:
    argv = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    lines = proc.stdout.strip().splitlines()
    out = json.loads(lines[-1])
    out["wall_s"] = time.monotonic() - start
    wall = re.search(r"wall-clock (\S+) items/s, machine at (\S+) of", proc.stdout)
    if wall:
        out["wall_items_per_s"], out["speed"] = float(wall[1]), float(wall[2])
    return out


def machine() -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "loadavg_start": list(os.getloadavg())}


def git(*args: str) -> str | None:
    try:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def summary(values: list[float], bound: float) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / median
    return {"median": median, "q1": q1, "q3": q3, "spread": spread, "bound": bound,
            "spread_below_third_of_bound": spread < bound / 3, "values": values}


def record() -> None:
    doc = {
        "schema": "srbetti-bench-baseline/1",
        "machine": machine(),
        "commit": git("rev-parse", "HEAD"),
        "src_tree": git("rev-parse", "HEAD:src"),
        "command": SPEC["command"],
        "run_seconds": SPEC["run_seconds"],
        "seeds": list(range(1, RUNS + 1)),
        "trace_seed": 1,
        "workloads": {},
    }
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    for w in SPEC["workloads"]:
        name = w["name"]
        results = [bench(name, seed, 0) for seed in doc["seeds"]]
        traced = [bench(name, 1, 1) for _ in range(2)]
        counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]
        entry = {
            "all_correct": all(r["correct"] for r in results + traced),
            "run_wall_s": [r["wall_s"] for r in results],
            "wall_clock_items_per_s": [r["wall_items_per_s"] for r in results],
            "machine_speed": [r["speed"] for r in results],
            "end_to_end": {m: summary([r["metrics"][m]["value"] for r in results], bounds[m]) for m in bounds},
            "per_layer_counts_repeat": all(traced[0]["metrics"][c] == traced[1]["metrics"][c] for c in counts),
            "per_layer": {m: [t["metrics"][m]["value"] for t in traced] for m in traced[0]["metrics"]},
        }
        if name == "froberg6":
            sweep = (1 << 15) / statistics.median(entry["wall_clock_items_per_s"])
            entry["roadmap_cross_check"] = {"roadmap_sweep_s": ROADMAP_FROBERG6_S, "wall_clock_sweep_s": sweep,
                                            "ratio": sweep / ROADMAP_FROBERG6_S}
        doc["workloads"][name] = entry
        doc["machine"]["loadavg_end"] = list(os.getloadavg())
        (BENCH / "BASELINE.json").write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        print(name, {m: round(s["spread"], 4) for m, s in entry["end_to_end"].items()}, flush=True)


def golden() -> None:
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    import gate
    import run

    table = {"seed": 1, "digests": {}}
    run_dir = run.WORK / "golden"
    try:
        for name in ("corpus", "general"):
            w = run.WORKLOADS[name]
            items = run.job(w, table["seed"], min(w.items(SPEC["run_seconds"]), 256), run_dir)["items"]
            digests = table["digests"][f"{name}-{w.size}"] = []
            for item in items:
                doc = json.loads(Path(item["out"]).read_text(encoding="utf-8"))
                if item["rc"] != 0 or gate.item_problems(name, doc, item["n"], None):
                    raise SystemExit(f"{name} item {item['index']} fails the gate; no golden written")
                digests.append(gate.math_digest(doc["reports"][0] if name == "corpus" else doc))
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    (BENCH / "golden.json").write_text(json.dumps(table, indent=1) + "\n", encoding="utf-8")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--golden", action="store_true", help="rewrite golden.json instead")
    if parser.parse_args().golden:
        golden()
    else:
        record()


if __name__ == "__main__":
    main()
