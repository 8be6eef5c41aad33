"""Command-line front end: analyze, gen-chordal, verify.

Text and JSON outputs carry the same numbers; JSON is schema-stable and
byte-deterministic, so the exit status plus the JSON report are safe to wire
into CI.  Exit codes: 0 on success, which for `analyze` means its report
was written, whatever its checks say; 1 only from `verify`, when a check
failed; 2 usage/parse/resource errors.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .betti import BettiTable, _check_cap
from .errors import ParseError
from .exactla import GF_DEFAULT, QQ, FieldSpec
from .graphs import gen_chordal, graph_from_edges, graph_text, is_chordal, clique_complex, read_edges
from .hilbert import multiplicity, series_from_f
from .simplicial import complex_from_facets, read_facets
from .verify import (
    VerificationReport,
    dumps_report,
    froberg_exhaustive,
    verify_chordal_corpus,
    verify_complex,
)


def _parse_field(text: str) -> FieldSpec:
    if text.strip().upper() == "Q":
        return QQ
    try:
        p = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"--field must be a prime or 'Q', got {text!r}")
    try:
        return FieldSpec.prime(p)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _emit(text: str, args) -> None:
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load_input(path: str):
    """Load a .cplx complex or a .graph graph (which analyzes as its clique
    complex).  Returns (complex, source), source being the report's
    {"path", "kind", "chordal"} section; chordal is None for a complex."""
    suffix = Path(path).suffix
    # over the sweep cap, refused before anything is built: a complex's antichain
    # test is quadratic in its facets, a graph's adjacency masks are O(n^2)
    # bits and its clique complex can be exponential in n
    if suffix == ".cplx":
        facets = read_facets(path)
        _check_cap(len(set().union(*facets)))
        return complex_from_facets(facets), {"path": path, "kind": "complex", "chordal": None}
    if suffix == ".graph":
        edges, vertices = read_edges(path)
        _check_cap(len(set(vertices or ()).union(*edges)))
        graph = graph_from_edges(edges, vertices)
        chordal = is_chordal(graph.adj)[0]
        return clique_complex(graph), {"path": path, "kind": "graph", "chordal": chordal}
    raise ParseError(path, None, f"unrecognized input extension {suffix!r} (want .cplx or .graph)")


def betti_triangle(table: BettiTable) -> str:
    """Betti table in the standard triangle layout: column i, row j - i.

    A linear resolution shows up as a single nonzero row, which is the whole
    point of drawing it this way.
    """
    pdim = table.pdim
    cells = table.as_dict()
    max_row = max(j - i for (i, j) in cells)
    width = max(len(str(v)) for v in cells.values())
    width = max(width, len(str(pdim)), *(len(str(table.total(i))) for i in range(pdim + 1)))
    head = "       " + " ".join(f"{i:>{width}}" for i in range(pdim + 1))
    total = "total: " + " ".join(f"{table.total(i):>{width}}" for i in range(pdim + 1))
    lines = [head, total]
    for row in range(max_row + 1):
        body = " ".join(
            f"{cells.get((i, row + i), '.'):>{width}}" for i in range(pdim + 1)
        )
        lines.append(f"{row:>5}: {body}")
    return "\n".join(lines)


def polynomial_text(coeffs: tuple[int, ...]) -> str:
    """A polynomial in z from its coefficients, lowest degree first: "1 - 2z^2 + z^3"."""
    text = ""
    for k, a in enumerate(coeffs):
        if a:
            mag = "" if abs(a) == 1 and k else str(abs(a))
            body = mag + ("" if k == 0 else "z" if k == 1 else f"z^{k}")
            sign = "-" if a < 0 else "+"
            text += f" {sign} {body}" if text else ("-" + body if a < 0 else body)
    return text or "0"


def series_text(numerator: tuple[int, ...], pole_order: int) -> str:
    """numerator / (1-z)^pole_order, the numerator parenthesized unless a constant."""
    num = polynomial_text(numerator)
    if len(numerator) > 1:
        num = f"({num})"
    if pole_order == 0:
        return num
    den = "(1-z)" if pole_order == 1 else f"(1-z)^{pole_order}"
    return f"{num} / {den}"


def _yesno(holds: bool) -> str:
    return "yes" if holds else "no"


def report_text(rep: VerificationReport, source: dict) -> str:
    lines = []
    lines.append(f"input: {source['path']} ({source['kind']}, n={rep.table.n})")
    if source.get("chordal") is not None:
        lines.append(f"graph chordal: {_yesno(source['chordal'])}")
    lines.append(f"field: {rep.table.field}")
    lines.append(f"f-vector: ({', '.join(map(str, rep.f.entries))})")
    lines.append(f"h-vector: ({', '.join(map(str, rep.h.entries))})")
    lines.append(f"hilbert series: {series_text(*series_from_f(rep.f))}")
    checks = rep.checks()
    lines.append(f"multiplicity: {multiplicity(rep.h)} (= f_(d-1) = {rep.f.entries[-1]}: {_yesno(checks['multiplicity'])})")
    lines.append(f"betti table over {rep.table.field}:")
    lines.append(betti_triangle(rep.table))
    lines.append(f"pdim: {rep.table.pdim}, codim: {rep.codim} (pdim >= codim: {_yesno(checks['pdim_codim'])})")
    if rep.shape.kind == "trivial":
        lines.append("classification: zero ideal (complex is a simplex)")
    elif rep.shape.kind == "general":
        lines.append("classification: general (not pure)")
    else:
        degrees = ", ".join(map(str, rep.shape.degrees))
        if rep.shape.kind == "linear":
            lines.append(f"classification: {rep.shape.t}-linear, degrees ({degrees})")
        else:
            lines.append(f"classification: pure, degrees ({degrees})")
        lines.append(
            f"resolution view: p={rep.shape.p}, degrees=({degrees}), "
            f"betti=({', '.join(map(str, rep.shape.betti))})"
        )
        lines.append(f"formula betti: ({', '.join(map(str, rep.formula_betti))})")
        lines.append(f"formula match: {_yesno(checks['theorem_formula'])}")
        lines.append(f"series identity residual: {polynomial_text(rep.series_residual)}")
        lines.append(f"lower bound beta_i >= C(p,i): {_yesno(checks['lower_bound'])}")
        if rep.relation_residuals is not None:
            shown = ", ".join(map(str, rep.relation_residuals)) or "none emitted"
            lines.append(f"h-relation residuals (j > p+t): {shown}")
    if checks["char_zero"] is not None:
        lines.append(f"betti table agrees with char 0: {_yesno(checks['char_zero'])}")
        if not checks["char_zero"]:
            lines.append("note: field-dependent Betti numbers detected")
    lines.append(f"all identity checks hold: {_yesno(rep.all_identities_hold())}")
    return "\n".join(lines) + "\n"


def cmd_analyze(args) -> int:
    c, source = _load_input(args.path)
    rep = verify_complex(c, args.field)
    if args.format == "json":
        doc = rep.to_json_dict()
        numerator, pole_order = series_from_f(rep.f)
        doc["hilbert_series"] = {"numerator": [str(a) for a in numerator], "pole_order": pole_order}
        doc["multiplicity"] = str(multiplicity(rep.h))
        doc["source"] = source
        _emit(dumps_report(doc), args)
    else:
        _emit(report_text(rep, source), args)
    return 0


def cmd_gen_chordal(args) -> int:
    _check_cap(args.n)  # refused before its adjacency is allocated
    _emit(graph_text(gen_chordal(args.n, args.density, args.seed)), args)
    return 0


# verify's corpus-mode flags and their defaults; they are refused with paths
CORPUS_DEFAULTS = {"count": 50, "n_max": 9, "seed": 7, "exhaustive_froberg": False}


def cmd_verify(args) -> int:
    if args.paths:
        for name in CORPUS_DEFAULTS:
            if getattr(args, name) is not None:
                flag = "--" + name.replace("_", "-")
                raise ValueError(f"{flag} applies only to the corpus (verify without paths)")
        reports = []
        ok = True
        for path in args.paths:
            c, source = _load_input(path)
            rep = verify_complex(c, args.field)
            ok = ok and rep.all_identities_hold()
            reports.append((rep, source))
        if args.format == "json":
            doc = {
                "schema": "srbetti-verify-paths/1",
                "reports": [rep.to_json_dict() | {"source": source} for rep, source in reports],
                "all_passed": ok,
            }
            _emit(dumps_report(doc), args)
        else:
            texts = [report_text(rep, source) for rep, source in reports]
            _emit("\n".join(texts) + f"verdict: {'pass' if ok else 'FAIL'}\n", args)
        return 0 if ok else 1

    for name, default in CORPUS_DEFAULTS.items():
        if getattr(args, name) is None:
            setattr(args, name, default)
    summary = verify_chordal_corpus(args.count, args.n_max, args.seed, args.field)
    ok = summary.gate_passed()
    sweep = None
    if args.exhaustive_froberg:
        sweep = froberg_exhaustive(6)
        ok = ok and sweep.passed
    if args.format == "json":
        doc = summary.to_json_dict()
        if sweep is not None:
            doc["froberg_sweep"] = sweep.to_json_dict()
            doc["all_passed"] = ok
        _emit(dumps_report(doc), args)
    else:
        lines = [
            f"chordal corpus: count={summary.count} n_max={summary.n_max} "
            f"seed={summary.seed} field={summary.field}"
        ]
        for name, counts in summary.checks.items():
            lines.append(f"  {name:16s} pass={counts.passed:<4d} fail={counts.failed:<4d} n/a={counts.na}")
        for name, kind, flag in summary.converse:
            lines.append(f"  converse {name}: {kind} (not linear: {_yesno(flag)})")
        if summary.first_failure:
            lines.append(f"  first failing complex: {summary.first_failure}")
        if sweep is not None:
            lines.append(
                f"exhaustive sweep n={sweep.n}: {sweep.checked} graphs, "
                f"{len(sweep.mismatches)} mismatches"
            )
        lines.append(f"verdict: {'pass' if ok else 'FAIL'}")
        _emit("\n".join(lines) + "\n", args)
    return 0 if ok else 1


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one argparse tree, built on first use and shared by every later
    `main` call in the process.

    Sharing it is safe because `parse_args` does not mutate the parser, the
    one non-trivial default (`--field`'s `FieldSpec`) is immutable, and
    `cmd_verify` writes its corpus defaults onto the parsed `Namespace`,
    never onto the parser.  It is not built at import time, so importing
    the module stays cheap.
    """
    parser = argparse.ArgumentParser(
        prog="srbetti",
        description="Betti tables, Hilbert series and h-vector identities of face rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    def report_options(p: argparse.ArgumentParser) -> None:
        p.add_argument("--field", type=_parse_field, default=GF_DEFAULT,
                       help=f"coefficient field: a prime p or Q (default {GF_DEFAULT.p})")
        p.add_argument("--format", choices=("text", "json"), default="text")
        common(p)

    p_an = sub.add_parser("analyze", help="full analysis of a .cplx complex or .graph clique complex")
    p_an.add_argument("path")
    report_options(p_an)
    p_an.set_defaults(func=cmd_analyze)

    p_gen = sub.add_parser("gen-chordal", help="write a seeded random chordal graph")
    p_gen.add_argument("n", type=int)
    p_gen.add_argument("density", type=float)
    p_gen.add_argument("seed", type=int)
    common(p_gen)
    p_gen.set_defaults(func=cmd_gen_chordal)

    p_ver = sub.add_parser("verify", help="verify identities on files or a seeded corpus")
    p_ver.add_argument("paths", nargs="*", help="explicit .cplx/.graph files; empty = corpus mode")
    # corpus flags default to None so that paths mode can refuse them
    p_ver.add_argument("--count", type=int, help=f"corpus size (default {CORPUS_DEFAULTS['count']})")
    p_ver.add_argument("--n-max", type=int,
                       help=f"max vertices per corpus graph (default {CORPUS_DEFAULTS['n_max']})")
    p_ver.add_argument("--seed", type=int, help=f"corpus seed (default {CORPUS_DEFAULTS['seed']})")
    p_ver.add_argument("--exhaustive-froberg", action="store_true", default=None,
                       help="also sweep all graphs on 6 vertices")
    report_options(p_ver)
    p_ver.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"srbetti: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
