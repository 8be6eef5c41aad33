"""CLI behavior: output content, exit codes, determinism."""

import json
import os
import subprocess
import sys
import time
import tracemalloc
from itertools import product
from pathlib import Path

import pytest

from srbetti import (
    DATA_DIR,
    classify,
    cli,
    clique_complex,
    fingerprint,
    fixture_path,
    graded_betti,
    is_chordal,
    read_graph,
    verify,
    verify_chordal_corpus,
)
from srbetti.cli import build_parser, main, polynomial_text, series_text
from srbetti.verify import corpus_graphs

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


def test_polynomial_and_series_text():
    assert polynomial_text((1, 2, 1)) == "1 + 2z + z^2"
    assert polynomial_text((1, 0, -2, 1)) == "1 - 2z^2 + z^3"
    assert polynomial_text(()) == "0"
    assert polynomial_text((0, -3)) == "-3z"
    assert series_text((1,), 3) == "1 / (1-z)^3"
    assert series_text((1, 1), 1) == "(1 + z) / (1-z)"
    assert series_text((1, 2, 1), 0) == "(1 + 2z + z^2)"


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
    # no line is read, so the message names the file alone
    f = tmp_path / "x.txt"
    f.write_text("1 2\n")
    code, out, err = run(capsys, "analyze", str(f))
    assert (code, out) == (2, "")
    assert err == f"srbetti: error: {f}: unrecognized input extension '.txt' (want .cplx or .graph)\n"


def test_analyze_respects_sweep_cap(tmp_path, capsys):
    f = tmp_path / "big.cplx"
    f.write_text(" ".join(f"v{i}" for i in range(21)) + "\n")
    code, _, err = run(capsys, "analyze", str(f))
    assert code == 2
    assert "21 vertices exceeds the sweep cap 20" in err


def test_every_input_error_is_one_stderr_line_and_exit_two(tmp_path, capsys):
    # ParseError, TooManyVerticesError and OSError alike.  A file that
    # holds nothing to analyze is an error of the whole file: it is named,
    # with no line number, also among the files of `verify`
    (tmp_path / "bad.graph").write_text("this is not an edge line\n")
    (tmp_path / "empty.cplx").write_text("# no facets\n")
    (tmp_path / "empty.graph").write_text("# no vertices\n")
    (tmp_path / "bare.graph").write_text("vertices\n")
    (tmp_path / "wide.cplx").write_text(" ".join(f"v{i}" for i in range(65)) + "\n")
    (tmp_path / "utf16.cplx").write_bytes("1 2\n".encode("utf-16"))
    (tmp_path / "utf16.graph").write_bytes("1 2\n".encode("utf-16"))
    whole = {"empty.cplx": "no facets given", "empty.graph": "no vertices or edges found", "bare.graph": "no vertices or edges found"}
    whole |= {"utf16.cplx": "not UTF-8 text", "utf16.graph": "not UTF-8 text"}
    names = ("bad.graph", "empty.cplx", "empty.graph", "bare.graph", "wide.cplx", "missing.cplx", "utf16.cplx", "utf16.graph")
    for name in names:
        code, out, err = run(capsys, "analyze", str(tmp_path / name))
        assert code == 2 and out == ""
        assert err.startswith("srbetti: error: ") and err.count("\n") == 1
        if name in whole:
            assert err == f"srbetti: error: {tmp_path / name}: {whole[name]}\n"
    code, out, err = run(capsys, "verify", str(fixture_path("c4.cplx")), str(tmp_path / "empty.cplx"))
    assert (code, out, err) == (2, "", f"srbetti: error: {tmp_path / 'empty.cplx'}: no facets given\n")
    code, out, err = run(capsys, "verify", str(fixture_path("c4.cplx")), str(tmp_path / "utf16.graph"))
    assert (code, out, err) == (2, "", f"srbetti: error: {tmp_path / 'utf16.graph'}: not UTF-8 text\n")


def test_byte_order_mark_gives_the_plain_report(tmp_path, capsys):
    # the triangle boundary with a UTF-8 BOM was analyzed as a 4-vertex path
    (tmp_path / "tri.cplx").write_text("a b\nb c\nc a\n")
    (tmp_path / "tri.graph").write_text("a b\nb c\nc a\n")
    plains = [tmp_path / "tri.cplx", tmp_path / "tri.graph", fixture_path("rp2.cplx"), fixture_path("k3.graph")]
    for plain in plains:
        bom = tmp_path / f"bom-{plain.name}"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        docs = []
        for path in (plain, bom):
            code, out, err = run(capsys, "analyze", str(path), "--format", "json")
            assert (code, err) == (0, "")
            doc = json.loads(out)
            assert doc["source"].pop("path") == str(path)
            docs.append(doc)
        assert docs[0] == docs[1], plain.name


def test_oversized_input_refused_before_its_complex_is_built(tmp_path, capsys, monkeypatch):
    # the complete 8-partite graph K_{3,...,3} has 3^8 maximal cliques: its
    # clique complex took 0.44 s to build and, as a .cplx of those cliques,
    # the complex 0.86 s (2-vCPU Xeon VM, Python 3.11.7); neither is needed
    labels = [f"v{i:02d}" for i in range(24)]
    graph = tmp_path / "k8x3.graph"
    edges = [f"{labels[a]} {labels[b]}" for a in range(24) for b in range(a + 1, 24) if a // 3 != b // 3]
    graph.write_text("vertices " + " ".join(labels) + "\n" + "\n".join(edges) + "\n")
    cplx = tmp_path / "k8x3.cplx"
    cliques = product(*(labels[3 * part:3 * part + 3] for part in range(8)))
    cplx.write_text("\n".join(" ".join(c) for c in cliques) + "\n")

    def refuse(*_):
        raise AssertionError("oversized input reached the complex-building stage")

    monkeypatch.setattr(cli, "graph_from_edges", refuse)
    monkeypatch.setattr(cli, "is_chordal", refuse)
    monkeypatch.setattr(cli, "clique_complex", refuse)
    monkeypatch.setattr(cli, "complex_from_facets", refuse)
    for f in (graph, cplx):
        for argv in (["analyze", str(f)], ["verify", str(f)]):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", "srbetti: error: 24 vertices exceeds the sweep cap 20\n"), argv
    # past the 64-bit face representation too the sweep cap refuses first
    wide = tmp_path / "wide.cplx"
    wide.write_text(" ".join(f"v{i}" for i in range(65)) + "\n")
    code, out, err = run(capsys, "analyze", str(wide))
    assert (code, out, err) == (2, "", "srbetti: error: 65 vertices exceeds the sweep cap 20\n")


def test_large_graph_file_refused_in_time(tmp_path, capsys):
    # 100,000 edges checked against a 10,000-label header: a linear scan of
    # the header per edge took about 9 s before the sweep cap was compared
    labels = [f"v{i}" for i in range(10000)]
    f = tmp_path / "circulant.graph"
    edges = [f"{labels[a]} {labels[(a + d) % 10000]}" for a in range(10000) for d in range(1, 11)]
    f.write_text("vertices " + " ".join(labels) + "\n" + "\n".join(edges) + "\n")
    start = time.perf_counter()
    code, out, err = run(capsys, "analyze", str(f))
    assert time.perf_counter() - start < 3.0
    assert (code, out, err) == (2, "", "srbetti: error: 10000 vertices exceeds the sweep cap 20\n")


def test_large_graph_refused_before_its_adjacency_masks(tmp_path, capsys):
    # an edge-only path: with its adjacency masks built before the sweep cap was
    # compared the refusal peaked at 36.6 MiB, counting its labels first at 6.1
    f = tmp_path / "path.graph"
    f.write_text("".join(f"v{i} v{i + 1}\n" for i in range(19999)))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "analyze", str(f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", "srbetti: error: 20000 vertices exceeds the sweep cap 20\n")
    assert peak < 16 << 20


@pytest.mark.parametrize(
    "n, top", [(21, 2), (31, 2), (63, 2), (64, 2), (63, 18)], ids=["21", "31", "63", "64", "63-facet18"]
)
def test_over_cap_input_refused_before_it_allocates(tmp_path, capsys, n, top):
    # a facet on the first `top` vertices and a path on the rest: the
    # sweep's 2^n results, 4 bytes each, are 8 GiB at n = 31, so the refusal
    # comes before the sweep allocates them, and before the 2^18 faces of
    # the 18-vertex facet are counted (which peaked at about 18 MiB)
    f = tmp_path / "path.cplx"
    facet = " ".join(f"v{i:02d}" for i in range(top))
    f.write_text(facet + "\n" + "".join(f"v{i:02d} v{i + 1:02d}\n" for i in range(top - 1, n - 1)))
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "analyze", str(f))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out, err) == (2, "", f"srbetti: error: {n} vertices exceeds the sweep cap 20\n")
    assert peak < 1 << 20


def test_gen_chordal_writes_deterministic_chordal_file(tmp_path, capsys):
    out1 = tmp_path / "a.graph"
    out2 = tmp_path / "b.graph"
    assert main(["gen-chordal", "8", "0.5", "42", "--out", str(out1)]) == 0
    assert main(["gen-chordal", "8", "0.5", "42", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    g = read_graph(out1)
    assert g.n == 8
    assert is_chordal(g.adj)[0]


def test_gen_chordal_prints_what_out_writes(tmp_path, capsys):
    path = tmp_path / "g.graph"
    assert main(["gen-chordal", "8", "0.5", "42", "--out", str(path)]) == 0
    code, out, _ = run(capsys, "gen-chordal", "8", "0.5", "42")
    assert code == 0
    assert out.encode("utf-8") == path.read_bytes()


def test_gen_chordal_refuses_n_above_sweep_cap(capsys):
    code, out, err = run(capsys, "gen-chordal", "21", "0.5", "1")
    assert code == 2
    assert out == ""
    assert "21 vertices exceeds the sweep cap 20" in err


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


SWEEP_JSON = ("verify", "--count", "2", "--n-max", "4", "--exhaustive-froberg", "--format", "json")


def test_verify_json_carries_the_froberg_sweep(capsys):
    code, out, _ = run(capsys, *SWEEP_JSON)
    doc = json.loads(out)
    assert code == 0
    assert doc["froberg_sweep"] == {
        "schema": "srbetti-sweep/1", "n": 6, "checked": 32768, "mismatches": [], "all_passed": True,
    }
    assert doc["all_passed"] is True


def test_verify_json_fails_on_a_sweep_mismatch_alone(capsys, monkeypatch):
    # flip the chordality flag, bit 2, of the path 1-0-5: edges 0-1 and
    # 0-5, edge mask 2^0 + 2^4 in the order (0, 1), (0, 2), ...
    real = verify._clique_flags

    def flipped(n):
        flags = real(n)
        flags[0b10001] ^= 4
        return flags

    monkeypatch.setattr(verify, "_clique_flags", flipped)
    code, out, _ = run(capsys, *SWEEP_JSON)
    doc = json.loads(out)
    # the corpus passed, and the sweep alone fails the run
    assert doc["first_failure"] is None
    assert all(entry["not_linear"] for entry in doc["converse_nonchordal"])
    assert doc["froberg_sweep"]["mismatches"] == [17]
    assert doc["froberg_sweep"]["all_passed"] is False
    assert doc["all_passed"] is False
    assert code == 1


def test_verify_names_the_first_failing_corpus_complex(capsys, monkeypatch):
    # a lower bound that fails on every pure table; the corpus for count 4,
    # n_max 6, seed 1 starts with two simplices, so the third complex fails
    # first
    monkeypatch.setattr(verify, "check_lower_bound", lambda betti: (False,) * len(betti))
    complexes = [clique_complex(g) for g in corpus_graphs(4, 6, 1)]
    assert [classify(graded_betti(c)).kind for c in complexes[:3]] == ["trivial", "trivial", "linear"]
    first = fingerprint(complexes[2])
    summary = verify_chordal_corpus(4, 6, 1)
    assert summary.first_failure == first
    assert not summary.gate_passed()
    code, out, _ = run(capsys, "verify", "--count", "4", "--n-max", "6", "--seed", "1")
    assert f"  first failing complex: {first}\n" in out
    assert "verdict: FAIL" in out
    assert code == 1


def test_verify_field_q(capsys):
    code, out, _ = run(capsys, "verify", str(fixture_path("c4.cplx")), "--field", "Q")
    assert code == 0
    assert "field: Q" in out


def test_bad_field_flag(capsys):
    with pytest.raises(SystemExit):
        main(["analyze", "x.cplx", "--field", "6"])


def test_field_that_is_no_number_nor_q(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "x.cplx", "--field", "foo"])
    assert exc.value.code == 2
    assert "--field must be a prime or 'Q', got 'foo'" in capsys.readouterr().err


def test_missing_fixture_is_refused():
    with pytest.raises(FileNotFoundError, match="no bundled fixture 'missing.cplx'"):
        fixture_path("missing.cplx")


def test_verify_corpus_refuses_n_max_above_sweep_cap(capsys, monkeypatch):
    # refused before any corpus graph is swept
    def refuse(*_):
        raise AssertionError("a corpus graph was swept before --n-max was checked")

    monkeypatch.setattr(verify, "graded_betti", refuse)
    code, out, err = run(capsys, "verify", "--count", "3", "--n-max", "21")
    assert code == 2
    assert out == ""
    assert err == "srbetti: error: 21 vertices exceeds the sweep cap 20\n"


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
