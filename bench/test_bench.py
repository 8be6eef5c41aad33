"""Self-tests of the benchmark.  Run with: python3 -m pytest bench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import gate  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))

# Same code paths as the real workloads at a size that runs in seconds.
TINY = {
    "froberg6": run.Workload("froberg6", 4, 0.01),
    "corpus": run.Workload("corpus", 6, 0.01),
    "general": run.Workload("general", 8, 0.1),
}


def test_benchmark_json_matches_the_emitted_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(layers.PER_LAYER)


@pytest.mark.parametrize("name", list(TINY))
def test_smoke_run_of_each_workload(name, tmp_path):
    res = run.measure(TINY[name], 1, 0.5, tmp_path)
    assert res["attempted"] >= 1 and res["failed"] == 0
    assert set(res["values"]) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in res["values"].values())


def test_per_layer_counts_repeat_across_traced_runs(tmp_path):
    first, second = (run.trace(TINY["corpus"], 3, 0.5, tmp_path / str(k)) for k in range(2))
    assert first["failed"] == second["failed"] == 0
    assert set(first["values"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = [name for name, unit in layers.PER_LAYER if unit == "count"]
    assert {k: first["values"][k] for k in counts} == {k: second["values"][k] for k in counts}
    assert first["values"]["homology.reduced_dims.calls"] > 0
    assert layers.NOT_MEASURED not in first["values"].values()


def test_gate_counts_an_altered_betti_cell_as_failed(tmp_path):
    w = TINY["general"]
    result = run.job(w, 5, 2, tmp_path)
    assert run.grade(w, 5, result["items"]) == (2, 0)
    out = Path(result["items"][0]["out"])
    report = json.loads(out.read_text(encoding="utf-8"))
    i, j, v = next(cell for cell in report["betti_table"] if cell[0] >= 1)
    report["betti_table"][report["betti_table"].index([i, j, v])] = [i, j, str(int(v) + 1)]
    assert not gate.k_polynomial_holds(report)
    out.write_text(json.dumps(report), encoding="utf-8")
    assert run.grade(w, 5, result["items"]) == (2, 1)


def test_golden_digest_mismatch_fails():
    report = {
        "identity": {"n": 4},
        "dimension_d": 2,
        "betti_table": [[0, 0, "1"], [1, 2, "2"], [2, 4, "1"]],
        "h_vector": ["1", "2", "1"],
        "shape": {"kind": "pure"},
        "all_identities_hold": True,
    }
    assert gate.report_problems(report, 4, "general") == []
    digest = gate.math_digest(report)
    assert gate.item_problems("general", report, 4, digest) == []
    assert gate.item_problems("general", report, 4, "0" * 16) == ["math digest differs from the golden value"]


def test_corpus_inputs_are_the_verify_corpus_relabeled():
    from srbetti.verify import corpus_graphs

    ours = inputs.chordal_corpus(9)
    relabeled = inputs.corpus_items(3, 9)
    for g in corpus_graphs(40, 9, inputs.VERIFY_SEED):
        adj, item = next(ours), next(relabeled)
        lines = ["vertices " + " ".join(g.labels)] + [f"{u} {v}" for u, v in g.edges()]
        assert inputs.graph_text(adj) == "\n".join(lines) + "\n"
        assert (item.n, item.text.count("\n")) == (len(adj), len(lines))


def test_missing_layer_is_reported_not_measured(monkeypatch):
    from srbetti import betti, complex_from_facets

    for name, module in list(sys.modules.items()):
        if name.startswith("srbetti") and hasattr(module, "graded_betti"):
            monkeypatch.setattr(module, "graded_betti", module.graded_betti)
    tracer = layers.Tracer((("betti.graded_betti", "betti", "graded_betti"), ("betti.classify", "betti", "renamed_away")))
    tracer.install()
    betti.graded_betti(complex_from_facets([["a", "b"], ["b", "c"]]))
    assert tracer.missing == {"betti.classify"}
    spans = [(layer, parent, start, end) for _, layer, parent, _, start, end in sorted(tracer.spans)]
    values = layers.aggregate(spans, tracer.counts, tracer.missing, 1.0)
    assert values["betti.classify.s"] == layers.NOT_MEASURED
    assert values["betti.graded_betti.calls"] == 1 and values["betti.subsets"] == 8


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
