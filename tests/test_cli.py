"""CLI behavior: output content, exit codes, determinism."""

import json
import os
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest

from srbetti import DATA_DIR, cli, fixture_path, is_chordal, read_graph
from srbetti.cli import build_parser, main

SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_analyze_c4_text(capsys):
    code, out, _ = run(capsys, "analyze", str(fixture_path("c4.cplx")))
    assert code == 0
    assert "f-vector: (1, 4, 4)" in out
    assert "h-vector: (1, 2, 1)" in out
    assert "(1 + 2z + z^2) / (1-z)^2" in out
    assert "classification: pure, degrees (2, 4)" in out
    assert "formula match: yes" in out
    # triangle rows: the generators and the relation
    assert "total: 1 2 1" in out


def test_analyze_k3_graph(capsys):
    code, out, _ = run(capsys, "analyze", str(fixture_path("k3.graph")))
    assert code == 0
    assert "zero ideal (complex is a simplex)" in out
    assert "graph chordal: yes" in out


def test_analyze_p3_linear(capsys):
    code, out, _ = run(capsys, "analyze", str(fixture_path("p3.graph")))
    assert code == 0
    assert "classification: 2-linear" in out
    assert "formula match: yes" in out


def test_analyze_json_same_numbers(capsys):
    code, text_out, _ = run(capsys, "analyze", str(fixture_path("c4.cplx")))
    code2, json_out, _ = run(capsys, "analyze", str(fixture_path("c4.cplx")), "--format", "json")
    assert code == code2 == 0
    doc = json.loads(json_out)
    assert doc["f_vector"] == ["1", "4", "4"]
    assert doc["hilbert_series"] == {"numerator": ["1", "2", "1"], "pole_order": 2}
    assert doc["multiplicity"] == "4"
    assert doc["source"]["kind"] == "complex"
    assert "f-vector: (1, 4, 4)" in text_out


def test_analyze_rp2_field_two_notes_dependence(capsys):
    code, out, _ = run(capsys, "analyze", str(fixture_path("rp2.cplx")), "--field", "2")
    assert code == 0
    assert "field-dependent Betti numbers detected" in out
    # same process, same parser: --field 2 must not carry over
    code, out, _ = run(capsys, "analyze", str(fixture_path("rp2.cplx")))
    assert "field: GF(32003)" in out
    assert "betti table agrees with char 0: yes" in out


def test_analyze_malformed_file(tmp_path, capsys):
    bad = tmp_path / "bad.graph"
    bad.write_text("this is not an edge line\n")
    code, _, err = run(capsys, "analyze", str(bad))
    assert code == 2
    assert "error" in err


def test_analyze_unknown_extension(tmp_path, capsys):
    f = tmp_path / "x.txt"
    f.write_text("1 2\n")
    code, _, err = run(capsys, "analyze", str(f))
    assert code == 2


def test_analyze_respects_n_cap(tmp_path, capsys):
    f = tmp_path / "big.cplx"
    f.write_text(" ".join(f"v{i}" for i in range(12)) + "\n")
    code, _, err = run(capsys, "analyze", str(f), "--n-cap", "8")
    assert code == 2
    assert "exceeds" in err


def test_oversized_input_refused_before_its_complex_is_built(tmp_path, capsys, monkeypatch):
    # the complete 8-partite graph K_{3,...,3} has 3^8 maximal cliques: its
    # clique complex takes seconds to build, and is never needed; as a
    # .cplx of those cliques, the pairwise antichain test would take seconds
    labels = [f"v{i:02d}" for i in range(24)]
    graph = tmp_path / "k8x3.graph"
    edges = [f"{labels[a]} {labels[b]}" for a in range(24) for b in range(a + 1, 24) if a // 3 != b // 3]
    graph.write_text("vertices " + " ".join(labels) + "\n" + "\n".join(edges) + "\n")
    cplx = tmp_path / "k8x3.cplx"
    cliques = product(*(labels[3 * part:3 * part + 3] for part in range(8)))
    cplx.write_text("\n".join(" ".join(c) for c in cliques) + "\n")

    def refuse(_):
        raise AssertionError("oversized input reached the complex-building stage")

    monkeypatch.setattr(cli, "is_chordal", refuse)
    monkeypatch.setattr(cli, "clique_complex", refuse)
    monkeypatch.setattr(cli, "complex_from_facets", refuse)
    for f in (graph, cplx):
        for argv in (["analyze", str(f)], ["verify", str(f)]):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", "srbetti: error: 24 vertices exceeds --n-cap 20\n"), argv
    # past the 64-bit face representation a .cplx still refuses itself
    monkeypatch.undo()
    wide = tmp_path / "wide.cplx"
    wide.write_text(" ".join(f"v{i}" for i in range(65)) + "\n")
    code, out, err = run(capsys, "analyze", str(wide), "--n-cap", "10")
    assert (code, out, err) == (2, "", "srbetti: error: 65 vertices exceeds the 64-bit face representation\n")


def test_gen_chordal_writes_deterministic_chordal_file(tmp_path, capsys):
    out1 = tmp_path / "a.graph"
    out2 = tmp_path / "b.graph"
    assert main(["gen-chordal", "8", "0.5", "42", "--out", str(out1)]) == 0
    assert main(["gen-chordal", "8", "0.5", "42", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    g = read_graph(out1)
    assert g.n == 8
    assert is_chordal(g)[0]


def test_gen_chordal_k3(capsys):
    code, out, _ = run(capsys, "gen-chordal", "3", "1.0", "1")
    assert code == 0
    assert out.splitlines()[0] == "vertices 1 2 3"
    assert sorted(out.splitlines()[1:]) == ["1 2", "1 3", "2 3"]


def test_verify_corpus_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "--count", "15", "--n-max", "8", "--seed", "7")
    assert code == 0
    assert "verdict: pass" in out
    assert "froberg_linear" in out


def test_verify_paths_mode(capsys):
    code, out, _ = run(capsys, "verify", str(fixture_path("c4.cplx")))
    assert code == 0
    assert "classification: pure, degrees (2, 4)" in out
    assert "verdict: pass" in out


def test_verify_path_general_shape_passes(tmp_path, capsys):
    # a non-pure complex has no formula section; its applicable checks pass
    f = tmp_path / "mixed.cplx"
    f.write_text("1 3 4\n1 3 5\n1 4 5\n2 3 4\n2 3 5\n2 4 5\n")
    code, out, _ = run(capsys, "verify", str(f))
    assert code == 0
    assert "classification: general (not pure)" in out


def test_verify_json_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    args = ["verify", "--count", "12", "--n-max", "8", "--seed", "5", "--format", "json"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    doc = json.loads(a.read_text())
    assert doc["schema"] == "srbetti-corpus/1"
    assert doc["all_passed"] is True


def test_verify_exhaustive_froberg_flag(capsys):
    code, out, _ = run(
        capsys, "verify", "--count", "5", "--n-max", "6", "--seed", "2", "--exhaustive-froberg"
    )
    assert code == 0
    assert "exhaustive sweep n=6: 32768 graphs, 0 mismatches" in out
    assert "verdict: pass" in out


def test_verify_field_q(capsys):
    code, out, _ = run(capsys, "verify", str(fixture_path("c4.cplx")), "--field", "Q")
    assert code == 0
    assert "field: Q" in out


def test_bad_field_flag(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "x.cplx", "--field", "6"])


def test_bad_n_cap(capsys):
    code, _, err = run(capsys, "verify", "--count", "2", "--n-max", "4", "--n-cap", "99")
    assert code == 2


def test_verify_corpus_refuses_n_max_above_n_cap(capsys):
    code, out, err = run(capsys, "verify", "--count", "3", "--n-max", "9", "--n-cap", "3")
    assert code == 2
    assert out == ""
    assert "--n-max 9 exceeds --n-cap 3" in err


def test_verify_refuses_froberg_sweep_above_n_cap(capsys):
    code, out, err = run(capsys, "verify", "--count", "2", "--n-max", "4", "--n-cap", "5", "--exhaustive-froberg")
    assert code == 2
    assert out == ""
    assert "--exhaustive-froberg needs --n-cap 6 or more, got 5" in err


@pytest.mark.parametrize(
    "flags", [["--count", "1"], ["--n-max", "4"], ["--seed", "3"], ["--exhaustive-froberg"]]
)
def test_verify_paths_refuse_corpus_flags(flags, capsys):
    # a corpus flag cannot apply to explicit paths: refused before any work
    code, out, err = run(capsys, "verify", str(fixture_path("c4.cplx")), *flags)
    assert code == 2
    assert out == ""
    assert f"{flags[0]} applies only to the corpus" in err


def test_gen_chordal_rejects_seed_flag(capsys):
    # the seed is positional; --seed belongs to verify's corpus only
    with pytest.raises(SystemExit) as exc:
        main(["gen-chordal", "8", "0.5", "42", "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


def test_reused_parser_leaks_no_state(capsys):
    # every main call parses with the same parser; no call may see the
    # flags or defaults of the one before it
    # (test_analyze_rp2_field_two_notes_dependence covers --field)
    assert build_parser() is build_parser()
    c4 = str(fixture_path("c4.cplx"))
    assert run(capsys, "verify", "--count", "3", "--n-max", "5")[0] == 0
    # the corpus defaults went onto that call's namespace, not the parser
    assert run(capsys, "verify", c4)[0] == 0
    code, out, err = run(capsys, "verify", c4, "--count", "3")
    assert code == 2
    assert "--count applies only to the corpus" in err

    code, out, _ = run(capsys, "analyze", c4, "--format", "json")
    assert code == 0
    assert json.loads(out)["source"]["kind"] == "complex"
    code, out, _ = run(capsys, "analyze", c4)
    assert code == 0
    assert out.startswith(f"input: {c4} (complex, n=4)")


def test_verify_paths_json_renders_no_text(capsys, monkeypatch):
    def refuse(*_):
        raise AssertionError("text report rendered for --format json")

    monkeypatch.setattr(cli, "report_text", refuse)
    code, out, _ = run(capsys, "verify", str(fixture_path("c4.cplx")), "--format", "json")
    assert code == 0
    assert json.loads(out)["all_passed"] is True


def test_fresh_process_matches_reused_parser(capsys, monkeypatch):
    argv = ["verify", "c4.cplx", "rp2.cplx", "--format", "json"]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    fresh = subprocess.run([sys.executable, "-m", "srbetti.cli", *argv], cwd=DATA_DIR,
                           env=env, capture_output=True, timeout=120)
    monkeypatch.chdir(DATA_DIR)
    run(capsys, "analyze", "rp2.cplx", "--field", "2")
    run(capsys, "verify", "--count", "2", "--n-max", "4", "--format", "json")
    code, out, _ = run(capsys, *argv)
    assert code == fresh.returncode == 0
    assert out.encode("utf-8") == fresh.stdout
