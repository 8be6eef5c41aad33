"""One benchmark job, run in a fresh single-threaded interpreter.

Usage: python3 -I -S bench/worker.py SPEC.json RESULT.json

The spec names the workload, seed, number of items and whether to trace.
The worker imports srbetti from the checkout's `src`, writes the first
input, records when it is ready (the end of set-up), then calls the
program once per item as a closed loop: the next call starts only after
the previous one returned.  Each call is timed on its own; inputs are
written and the next item generated outside the timed call.  The result
file lists every call, its exit code or exception, its wall time and its
time at reference speed (see Calibration).
"""

from __future__ import annotations

import json
import resource
import signal
import sys
import time
import traceback
from bisect import bisect_left
from itertools import accumulate, chain, islice
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

from inputs import corpus_items, general_items  # noqa: E402

CAL_PERIOD_S = 0.02
CAL_LOOP = 10_000
CAL_REF_S = 0.0006  # the loop's time at full speed on the baseline machine; fixes the unit
CAL_WINDOW_S = 0.25


class Calibration:
    """Samples the machine's current speed while the program runs.

    The speed of a shared machine drifts by up to 1.8x over seconds to
    minutes; on the baseline machine this spread ten wall-clock runs of the
    same sweep by 26 %.  Every CAL_PERIOD_S a timer signal runs a fixed
    pure-Python loop between the program's bytecodes (about 3 % of the
    time) and records how long it took.  A call's time at reference speed
    is its wall time minus the loop time spent inside it, scaled by
    CAL_REF_S over the mean loop time within CAL_WINDOW_S of the call.  A
    run that hit a fast period read 35 % above its neighbours on the wall
    clock and 12 % above at reference speed.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration) per loop

    def _sample(self, signum, frame):
        start = time.perf_counter()
        s = 0
        for i in range(CAL_LOOP):
            s += i * i % 7
        self.samples.append((start, time.perf_counter() - start))

    def __enter__(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, CAL_PERIOD_S, CAL_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def annotate(self, items: list[dict]) -> None:
        """Replace each item's start and end by `s`, its wall time without
        the loops run inside it, and `ref_s`, that time at reference speed."""
        starts = [t for t, _ in self.samples]
        total = list(accumulate((d for _, d in self.samples), initial=0.0))

        def loops(a: float, b: float) -> tuple[int, float]:
            i, j = bisect_left(starts, a), bisect_left(starts, b)
            return j - i, total[j] - total[i]

        for item in items:
            start, end = item.pop("start"), item.pop("end")
            item["s"] = end - start - loops(start, end)[1]
            count, spent = loops(start - CAL_WINDOW_S, end + CAL_WINDOW_S)
            if not count:
                count, spent = len(starts), total[-1]
            item["ref_s"] = item["s"] * CAL_REF_S * count / spent if count else item["s"]


def _calls(workload: str, size: int, seed: int, out_dir: Path):
    """Yield (item index, vertex count, output path, zero-argument call)."""
    from srbetti import cli, exactla, verify

    if workload == "froberg6":
        out = out_dir / "sweep.json"

        def sweep():
            result = verify.froberg_exhaustive(size, exactla.FieldSpec.prime(32003))
            out.write_text(json.dumps(result.to_json_dict()), encoding="utf-8")
            return 0

        yield 0, size, out, sweep
        return
    items = corpus_items(seed, size) if workload == "corpus" else general_items(seed, size)
    command = "verify" if workload == "corpus" else "analyze"
    for item in items:
        src = out_dir / f"{item.index}{item.suffix}"
        out = out_dir / f"{item.index}.json"
        src.write_text(item.text, encoding="utf-8")
        argv = [command, str(src), "--format", "json", "--out", str(out)]
        yield item.index, item.n, out, lambda argv=argv: cli.main(argv)


def _timed(index: int, n: int, out: Path, call) -> dict:
    rc = error = None
    start = time.perf_counter()
    try:
        rc = call()
    except Exception:  # a failed item is counted, never fatal
        error = traceback.format_exc(limit=3)
    end = time.perf_counter()
    return {"index": index, "n": n, "out": str(out), "rc": rc, "error": error, "start": start, "end": end}


def main(spec_path: str, result_path: str) -> None:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    out_dir = Path(spec["dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    calls = _calls(spec["workload"], spec["size"], spec["seed"], out_dir)
    first = next(calls)
    ready_ns = time.monotonic_ns()
    result = {"ready_ns": ready_ns, "items": []}
    if spec["trace"]:
        from layers import Tracer

        tracer = Tracer()
        tracer.install()
        for index, n, out, call in islice(chain([first], calls), spec["items"]):
            tracer.item = index
            item = _timed(index, n, out, call)
            item["s"] = item.pop("end") - item.pop("start")
            result["items"].append(item)
        tracer.write(out_dir / "spans.csv")
        result["counts"] = dict(tracer.counts)
        result["missing"] = sorted(tracer.missing)
    elif not spec["setup_only"]:
        with Calibration() as cal:
            items = [_timed(index, n, out, call) for index, n, out, call in islice(chain([first], calls), spec["items"])]
        cal.annotate(items)
        result["items"] = items
    result["rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
