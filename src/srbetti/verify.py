"""End-to-end verification: compute everything for a complex, cross-check
every identity, and emit a structured, deterministic report.

Reports never raise on a mathematical disagreement; surfacing disagreements
is their purpose.  Only resource and validation problems raise.

JSON schema ("srbetti-report/1"):  math values that can grow without bound
(f/h entries, Betti values, residual coefficients, multiplicities) are
encoded as decimal strings so consumers are not bound by 53-bit floats;
small structural integers (n, d, p, degrees, indices) stay JSON numbers.
Absent sections are null.  Serialization is sorted-key JSON with no
timestamps, so identical inputs give byte-identical reports.
"""

from __future__ import annotations

import json
from collections import Counter, namedtuple

from .betti import BettiTable, ResolutionShape, _check_cap, _clique_flags, classify, graded_betti
from .errors import TooManyVerticesError
from .exactla import GF_DEFAULT, FieldSpec
from .formulas import betti_from_h, check_lower_bound, h_relations
from .graphs import Graph, Xorshift64Star, clique_complex, cycle_graph, gen_chordal
from .hilbert import multiplicity, verify_series_identity
from .homology import torsion_shift
from .simplicial import Complex, FVector, HVector, f_vector, h_vector

try:  # the builtin module, without hashlib's OpenSSL; gone in Python 3.12
    from _sha256 import sha256
except ImportError:
    from hashlib import sha256


def fingerprint(c: Complex) -> str:
    """Stable identity of a complex: sha256 over n and the facet masks."""
    blob = f"{c.n}:{','.join(map(str, c.facets))}".encode()
    return sha256(blob).hexdigest()[:16]


def _verdict(outcomes: dict[str, bool | None]) -> bool:
    """No gating check failed.  char_zero is informational (field dependence
    is legitimate data) and never gates; None means "does not apply"."""
    return not any(ok is False for name, ok in outcomes.items() if name != "char_zero")


class VerificationReport(namedtuple("VerificationReport", [
    "facet_hash", "f", "h", "table", "shape", "formula_betti", "match",
    "series_residual", "relation_residuals", "bound_verdicts", "char_zero_agrees",
])):
    """Everything computed for one complex, plus per-identity outcomes.

    The shape, the formula's values and the residuals and verdicts derived
    from the table, f and h are computed once, by verify_complex, for the
    checks and the renderers to read; codim is read from the table and f."""

    __slots__ = ()
    facet_hash: str
    f: FVector
    h: HVector
    table: BettiTable
    shape: ResolutionShape
    formula_betti: tuple[int, ...] | None
    match: tuple[bool, ...] | None
    series_residual: tuple[int, ...] | None
    relation_residuals: tuple[int, ...] | None
    bound_verdicts: tuple[bool, ...] | None
    char_zero_agrees: bool | None

    @property
    def codim(self) -> int:
        return self.table.n - self.f.d

    def checks(self) -> dict[str, bool | None]:
        """Per-identity outcomes, in report and tally order, None where the
        identity does not apply.  Which identities apply to which shape is
        decided once, by the fields verify_complex fills in.

        "froberg_linear" is the forward direction of Froberg's theorem: a
        chordal graph's clique complex must classify linear (or trivial, for
        a complete graph, where the ideal is zero).  Only the corpus knows
        its inputs are chordal, so only the corpus decides it; a single
        report leaves it None."""
        residual = self.series_residual
        relations = self.relation_residuals
        return {
            "theorem_formula": None if self.match is None else all(self.match),
            "multiplicity": multiplicity(self.h) == self.f.entries[-1],
            "series_identity": None if residual is None else residual == (),
            "h_relations": None if relations is None else all(r == 0 for r in relations),
            "lower_bound": None if self.bound_verdicts is None else all(self.bound_verdicts),
            "froberg_linear": None,
            "pdim_codim": self.table.pdim >= self.codim,
            "char_zero": self.char_zero_agrees,
        }

    def all_identities_hold(self) -> bool:
        return _verdict(self.checks())

    def to_json_dict(self) -> dict:
        checks = self.checks()
        shape = {
            "kind": self.shape.kind,
            "degrees": list(self.shape.degrees) if self.shape.degrees is not None else None,
            "t": self.shape.t,
            "p": self.shape.p,
        }
        resolution = None
        if self.shape.is_pure:
            resolution = {
                "p": self.shape.p,
                "degrees": list(self.shape.degrees),
                "betti": [str(b) for b in self.shape.betti],
            }
        return {
            "schema": "srbetti-report/1",
            "identity": {"n": self.table.n, "facets_sha256": self.facet_hash},
            "field": str(self.table.field),
            "f_vector": [str(x) for x in self.f.entries],
            "h_vector": [str(x) for x in self.h.entries],
            "dimension_d": self.f.d,
            "codim": self.codim,
            "pdim": self.table.pdim,
            "pdim_ge_codim": checks["pdim_codim"],
            "betti_table": [[i, j, str(v)] for i, j, v in self.table.cells],
            "shape": shape,
            "resolution_view": resolution,
            "formula_betti": [str(b) for b in self.formula_betti] if self.formula_betti is not None else None,
            "match": list(self.match) if self.match is not None else None,
            "multiplicity_check": {
                "h_sum": str(multiplicity(self.h)),
                "f_top": str(self.f.entries[-1]),
                "equal": checks["multiplicity"],
            },
            "series_residual": [str(a) for a in self.series_residual] if self.series_residual is not None else None,
            "relation_residuals": [str(r) for r in self.relation_residuals] if self.relation_residuals is not None else None,
            "bound_verdicts": list(self.bound_verdicts) if self.bound_verdicts is not None else None,
            "char_zero_agrees": self.char_zero_agrees,
            "all_identities_hold": _verdict(checks),
        }


def verify_complex(c: Complex, field: FieldSpec = GF_DEFAULT) -> VerificationReport:
    """Full cross-check of one complex over the given field.

    Per-identity outcomes land in report fields; nothing mathematical raises.
    When the field is finite, char_zero_agrees says whether the table equals
    the one over Q, as it does iff no torsion factor of a restriction is
    divisible by the characteristic: field dependence is reported, not hidden.
    """
    # the sweep refuses an input above its cap before any face is counted
    table = graded_betti(c, field)
    f = f_vector(c)
    h = h_vector(f)
    shape = classify(table)

    formula = None
    match = None
    residual = None
    relations = None
    bounds = None
    if shape.is_pure:
        formula = betti_from_h(h, c.n, shape.degrees)
        match = tuple(a == b for a, b in zip(formula, shape.betti))
        residual = verify_series_identity(h, table)
        bounds = check_lower_bound(shape.betti)
        if shape.kind == "linear":
            relations = h_relations(h, c.n, shape.p, shape.t)

    char_zero = None
    if field.p is not None:
        char_zero = not any(torsion_shift(tors, field.p) for (_, tors), _ in table.torsion)

    return VerificationReport(
        facet_hash=fingerprint(c),
        f=f,
        h=h,
        table=table,
        shape=shape,
        formula_betti=formula,
        match=match,
        series_residual=residual,
        relation_residuals=relations,
        bound_verdicts=bounds,
        char_zero_agrees=char_zero,
    )


# Converse fixtures: chordless cycles, whose clique complexes must NOT
# classify linear.
NONCHORDAL_FIXTURES = ("C4", "C5", "C6")


class CheckCounts(namedtuple("CheckCounts", "passed failed na")):
    __slots__ = ()
    passed: int
    failed: int
    na: int


class CorpusSummary(namedtuple("CorpusSummary", "count n_max seed field checks converse first_failure")):
    __slots__ = ()
    count: int
    n_max: int
    seed: int
    field: FieldSpec
    checks: dict
    converse: tuple[tuple[str, str, bool], ...]  # (name, shape kind, not linear?)
    first_failure: str | None

    def gate_passed(self) -> bool:
        """Exit-status verdict: no corpus complex failed a gating check (so
        there is no first failure) and the converse holds."""
        return self.first_failure is None and all(flag for _, _, flag in self.converse)

    def to_json_dict(self) -> dict:
        return {
            "schema": "srbetti-corpus/1",
            "params": {
                "count": self.count,
                "n_max": self.n_max,
                "seed": self.seed,
                "field": str(self.field),
            },
            "checks": {
                name: {"pass": c.passed, "fail": c.failed, "na": c.na}
                for name, c in self.checks.items()
            },
            "converse_nonchordal": [
                {"graph": name, "shape": kind, "not_linear": flag}
                for name, kind, flag in self.converse
            ],
            "first_failure": self.first_failure,
            "all_passed": self.gate_passed(),
        }


def corpus_graphs(count: int, n_max: int, seed: int) -> list[Graph]:
    """The seeded chordal corpus: per-graph (n, density, subseed) drawn from
    one master stream, so the corpus is a pure function of its parameters."""
    if count < 1 or n_max < 2:
        raise ValueError("need count >= 1 and n_max >= 2")
    _check_cap(n_max)  # refused before any graph is drawn or swept
    rng = Xorshift64Star(seed)
    out = []
    for _ in range(count):
        n = 2 + rng.below(n_max - 1)
        density = (20 + rng.below(61)) / 100.0
        subseed = rng.next_u64()
        out.append(gen_chordal(n, density, subseed))
    return out


def verify_chordal_corpus(count: int, n_max: int, seed: int, field: FieldSpec = GF_DEFAULT) -> CorpusSummary:
    """Generate seeded chordal graphs, verify every identity on each clique
    complex, and check the converse on the chordless-cycle fixtures; an
    n_max above VERTEX_CAP is refused before any sweep (corpus_graphs)."""
    # check name, in checks() order -> outcome -> complexes; corpus_graphs
    # refuses count < 1, so every name is seen
    tally: dict[str, Counter] = {}
    first_failure = None
    for g in corpus_graphs(count, n_max, seed):
        rep = verify_complex(clique_complex(g), field)
        outcomes = rep.checks()
        outcomes["froberg_linear"] = rep.shape.is_linear_or_trivial
        for name, ok in outcomes.items():
            tally.setdefault(name, Counter())[ok] += 1
        if first_failure is None and not _verdict(outcomes):
            first_failure = rep.facet_hash
    converse = []
    for name in NONCHORDAL_FIXTURES:
        g = cycle_graph(int(name[1:]))
        shape = classify(graded_betti(clique_complex(g), field))
        converse.append((name, shape.kind, not shape.is_linear_or_trivial))
    checks = {name: CheckCounts(t[True], t[False], t[None]) for name, t in tally.items()}
    return CorpusSummary(count, n_max, seed, field, checks, tuple(converse), first_failure)


class SweepResult(namedtuple("SweepResult", "n checked mismatches")):
    __slots__ = ()
    n: int
    checked: int
    mismatches: tuple[int, ...]  # edge bitmasks of failing graphs

    @property
    def passed(self) -> bool:
        return not self.mismatches

    def to_json_dict(self) -> dict:
        return {
            "schema": "srbetti-sweep/1",
            "n": self.n,
            "checked": self.checked,
            "mismatches": list(self.mismatches),
            "all_passed": self.passed,
        }


# no flag complex on this many vertices or fewer has torsion (Katzman, J.
# Combin. Theory Ser. A 113, 2006), so the Froberg sweep's verdicts hold
# over every field.  The cap is the theorem's, not a resource bound: the
# sweep's memo of the ids of the sum over j < n of C(n, j) 2^C(j, 2)
# graphs, 253,450 at n = 7, and its planes of 2^C(n,2) bits, 256 KiB at
# n = 7, outgrow memory well before it
FROBERG_VERTEX_CAP = 10


def froberg_exhaustive(n: int = 6, field: FieldSpec = GF_DEFAULT) -> SweepResult:
    """Two-sided linearity/chordality sweep over ALL graphs on n labeled vertices.

    It checks two theorems on every edge set.  Froberg's: the clique
    complex has a linear resolution (the zero ideal counting as vacuously
    linear) iff the graph is chordal.  Katzman's: no restriction of the
    clique complex has torsion, so the verdict is the same over every
    field; a graph one of whose restrictions has torsion is a mismatch,
    chordal or not.  `field` is not read; it stays because `bench/worker.py`
    passes it positionally, and ROADMAP item 1a deletes it together with
    that argument.
    2^C(n,2) graphs; n = 6 is acceptance criterion 6, and the suite also
    runs n = 7, its strongest check.

    The flags come from one sweep over every graph (`betti._clique_flags`).
    n < 1 is refused, and so is n above `FROBERG_VERTEX_CAP` (10), where
    Katzman's theorem stops.
    Mismatches are edge masks in the bit order of the pairs (i, j), i < j,
    in lexicographic order, sorted ascending.
    """
    if n < 1:
        raise ValueError(f"the Froberg sweep needs at least 1 vertex, got n = {n}")
    if n > FROBERG_VERTEX_CAP:
        raise TooManyVerticesError(f"{n} vertices exceeds the Froberg sweep cap {FROBERG_VERTEX_CAP}")
    flags = _clique_flags(n)
    # by flags, 1 for a mismatch: torsion whatever the chordality, else
    # linear and chordal disagreeing
    verdicts = flags.translate(bytes(f & 2 > 0 or f & 1 != f >> 2 & 1 for f in range(256)))
    mismatches = []
    at = verdicts.find(1)
    while at >= 0:
        mismatches.append(at)
        at = verdicts.find(1, at + 1)
    return SweepResult(n, len(flags), tuple(mismatches))


def dumps_report(obj: dict) -> str:
    """Canonical JSON encoding used everywhere reports are written."""
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
