"""Per-layer spans recorded from outside srbetti.

A layer is a public function or method of srbetti.  `Tracer.install`
replaces it, under every name an srbetti module looks it up by (for
example `homology.rank` and `verify.graded_betti`), with a wrapper that
records a span: layer, parent span, item index, start and end.  Spans stay
in memory until the job ends and are then written as CSV; `aggregate`
turns them into call counts, inclusive and self times.  A layer whose
function no longer exists is reported as not measured (-1), so the program
can rename or delete functions without breaking the benchmark.
"""

from __future__ import annotations

import csv
import functools
import sys
from collections import Counter
from time import perf_counter_ns

NOT_MEASURED = -1

# (layer, home module, qualified name); a layer may cover several functions.
LAYERS = (
    ("cli.main", "cli", "main"),
    ("verify.verify_complex", "verify", "verify_complex"),
    ("verify.to_json", "verify", "VerificationReport.to_json_dict"),
    ("verify.to_json", "verify", "dumps_report"),
    ("betti.graded_betti", "betti", "graded_betti"),
    ("betti.classify", "betti", "classify"),
    ("homology.reduced_dims", "homology", "reduced_dims_from_facets"),
    ("exactla.rank", "exactla", "rank"),
    ("graphs.is_chordal", "graphs", "is_chordal"),
    ("graphs.clique_complex", "graphs", "clique_complex"),
    ("simplicial.f_vector", "simplicial", "f_vector"),
    ("simplicial.h_vector", "simplicial", "h_vector"),
    ("hilbert.series_from_f", "hilbert", "series_from_f"),
    ("hilbert.verify_series_identity", "hilbert", "verify_series_identity"),
    ("formulas.betti_from_h", "formulas", "betti_from_h"),
    ("formulas.h_relations", "formulas", "h_relations"),
    ("formulas.check_lower_bound", "formulas", "check_lower_bound"),
)

RANK_BUCKETS = ((64, "cells_lt64"), (1024, "cells_lt1024"), (4096, "cells_lt4096"), (None, "cells_ge4096"))

# Per-layer metrics, in the order BENCHMARK.json lists them.  The comment
# names the end-to-end metric each one is expected to move.
PER_LAYER = (
    # froberg6 and corpus items_per_s; no effect predicted on general
    ("betti.graded_betti.calls", "count"),
    ("betti.graded_betti.self_s", "s"),
    ("betti.subsets", "count"),
    # calls are homology-cache misses: froberg6/corpus items_per_s, peak_rss_mib
    ("homology.reduced_dims.calls", "count"),
    ("homology.reduced_dims.self_s", "s"),
    ("homology.miss_per_subset", "ratio"),
    # general items_per_s and call_p90_s, and corpus; no effect on froberg6
    ("exactla.rank.gf.calls", "count"),
    ("exactla.rank.gf.s", "s"),
    ("exactla.rank.q.calls", "count"),
    ("exactla.rank.q.s", "s"),
    ("exactla.rank.cells", "count"),
    ("exactla.rank.nnz", "count"),
    *((f"exactla.rank.{bucket}", "count") for _, bucket in RANK_BUCKETS),
    # froberg6 items_per_s
    ("graphs.is_chordal.calls", "count"),
    ("graphs.is_chordal.s", "s"),
    ("graphs.clique_complex.calls", "count"),
    ("graphs.clique_complex.s", "s"),
    # fixed per-item overhead: corpus call_p50_s
    ("cli.main.self_s", "s"),
    ("verify.verify_complex.self_s", "s"),
    ("verify.to_json.s", "s"),
    ("betti.classify.s", "s"),
    ("simplicial.f_vector.s", "s"),
    ("simplicial.h_vector.s", "s"),
    ("hilbert.series_from_f.s", "s"),
    ("hilbert.verify_series_identity.s", "s"),
    ("formulas.betti_from_h.s", "s"),
    ("formulas.h_relations.s", "s"),
    ("formulas.check_lower_bound.s", "s"),
    # traced job time over untraced job time on the same work
    ("trace.overhead", "ratio"),
)


def _rank_probe(args, kwargs, counts: Counter) -> str:
    m = args[0] if args else kwargs["m"]
    field = args[1] if len(args) > 1 else kwargs.get("field")
    cells = m.rows * m.cols
    counts["exactla.rank.cells"] += cells
    counts["exactla.rank.nnz"] += len(m.entries)
    counts["exactla.rank." + next(name for limit, name in RANK_BUCKETS if limit is None or cells < limit)] += 1
    return "exactla.rank.q" if field is not None and field.p is None else "exactla.rank.gf"


def _betti_probe(args, kwargs, counts: Counter) -> str:
    c = args[0] if args else kwargs["c"]
    counts["betti.subsets"] += 1 << c.n
    return "betti.graded_betti"


# Probes read a call's arguments to split a layer (rank by field) and to
# count work; COUNTERS maps each count to the layer whose probe makes it.
PROBES = {"exactla.rank": _rank_probe, "betti.graded_betti": _betti_probe}
COUNTERS = {
    "betti.subsets": "betti.graded_betti",
    "exactla.rank.cells": "exactla.rank",
    "exactla.rank.nnz": "exactla.rank",
    **{f"exactla.rank.{bucket}": "exactla.rank" for _, bucket in RANK_BUCKETS},
}


def _resolve(module, qualname: str):
    """(owner, attribute, object) for a dotted name, or None when it is gone."""
    owner = module
    parts = qualname.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    obj = getattr(owner, parts[-1], None) if owner is not None else None
    return None if obj is None else (owner, parts[-1], obj)


class Tracer:
    def __init__(self, layers=LAYERS):
        self.layers = layers
        self.spans: list[tuple] = []  # (id, layer, parent id, item, start ns, end ns), by end
        self.next_id = 0
        self.stack: list[int] = []
        self.item = -1
        self.counts: Counter = Counter()
        self.missing: set[str] = set()  # layers not measured

    def install(self, package: str = "srbetti") -> None:
        """Wrap every layer at each name it is bound to in the loaded package."""
        modules = [m for name, m in sys.modules.items() if name == package or name.startswith(package + ".")]
        for layer, home, qualname in self.layers:
            found = _resolve(sys.modules.get(f"{package}.{home}"), qualname)
            if found is None:
                self.missing.add(layer)
                continue
            owner, attr, original = found
            wrapper = self._wrap(layer, original)
            setattr(owner, attr, wrapper)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, name, wrapper)

    def _wrap(self, layer: str, fn):
        spans, stack, counts = self.spans, self.stack, self.counts
        probe = PROBES.get(layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = layer
            if probe is not None:
                try:
                    name = probe(args, kwargs, counts)
                except (AttributeError, IndexError, KeyError, TypeError):
                    self.missing.add(layer)
            sid = self.next_id
            self.next_id = sid + 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                spans.append((sid, name, parent, self.item, start, end))

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["id", "layer", "parent", "item", "start_ns", "end_ns"])
            out.writerows(sorted(self.spans))


def read_spans(path) -> list[tuple[str, int, int, int]]:
    """(layer, parent id, start ns, end ns) per span, indexed by span id."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        next(rows)
        return [(layer, int(parent), int(start), int(end)) for _, layer, parent, _, start, end in rows]


def _layer_of(metric: str) -> str:
    if metric in COUNTERS:
        return COUNTERS[metric]
    return next(layer for layer, _, _ in LAYERS if metric.startswith(layer + "."))


def aggregate(spans, counts: dict, missing, overhead: float) -> dict[str, float]:
    """Per-layer metric values from spans, probe counts and missing layers.

    A layer's self time is its duration minus the time of its child spans;
    its inclusive time counts only spans not nested in the same layer.
    """
    child_ns = [0] * len(spans)
    for _, parent, start, end in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    calls: Counter = Counter()
    total_ns: Counter = Counter()
    self_ns: Counter = Counter()
    for sid, (layer, parent, start, end) in enumerate(spans):
        calls[layer] += 1
        self_ns[layer] += end - start - child_ns[sid]
        while parent >= 0 and spans[parent][0] != layer:
            parent = spans[parent][1]
        if parent < 0:
            total_ns[layer] += end - start

    out: dict[str, float] = {}
    for metric, _ in PER_LAYER:
        if metric == "trace.overhead":
            out[metric] = overhead
        elif metric == "homology.miss_per_subset":
            misses, subsets = out["homology.reduced_dims.calls"], out["betti.subsets"]
            out[metric] = misses / subsets if misses >= 0 and subsets > 0 else NOT_MEASURED
        elif _layer_of(metric) in missing:
            out[metric] = NOT_MEASURED
        elif metric in COUNTERS:
            out[metric] = counts.get(metric, 0)
        else:
            name, kind = metric.rsplit(".", 1)
            if kind == "calls":
                out[metric] = calls[name]
            else:
                out[metric] = (self_ns if kind == "self_s" else total_ns)[name] / 1e9
    return out
