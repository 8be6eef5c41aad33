"""Correctness gate for benchmark outputs, written without srbetti.

Every report is checked against the K-polynomial identity

    sum_{i,j} (-1)^i beta_{i,j} z^j  =  (1 - z)^(n - d) * sum_i h_i z^i,

which holds for every simplicial complex over every field, in plain
integer arithmetic.  Workload-specific verdicts and, for the default seed,
golden digests of the mathematical content come on top.  Digests cover the
Betti cells, the h-vector and the shape kind only, so a change of report
layout does not trip them.
"""

from __future__ import annotations

import hashlib
import json
from math import comb


def k_polynomial_holds(report: dict) -> bool:
    lhs: dict[int, int] = {}
    for i, j, v in report["betti_table"]:
        lhs[j] = lhs.get(j, 0) + (-1) ** i * int(v)
    m = report["identity"]["n"] - report["dimension_d"]
    rhs: dict[int, int] = {}
    for i, h in enumerate(report["h_vector"]):
        for k in range(m + 1):
            rhs[i + k] = rhs.get(i + k, 0) + (-1) ** k * comb(m, k) * int(h)
    support = set(lhs) | set(rhs)
    return all(lhs.get(j, 0) == rhs.get(j, 0) for j in support)


def math_digest(report: dict) -> str:
    blob = {
        "betti": [[i, j, int(v)] for i, j, v in report["betti_table"]],
        "h": [int(h) for h in report["h_vector"]],
        "kind": report["shape"]["kind"],
    }
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()[:16]


def report_problems(report: dict, n: int, workload: str) -> list[str]:
    """Reasons one per-complex report is wrong; empty when it passes."""
    problems = []
    if report["identity"]["n"] != n:
        problems.append(f"n={report['identity']['n']}, input has {n} vertices")
    if not k_polynomial_holds(report):
        problems.append("K-polynomial identity fails")
    if report["all_identities_hold"] is not True:
        problems.append("program reports a failed identity")
    if workload == "corpus":
        if report["shape"]["kind"] not in ("linear", "trivial"):
            problems.append(f"chordal graph classified {report['shape']['kind']!r}")
        if report["char_zero_agrees"] is not True:
            problems.append("char-0 recheck disagrees")
    return problems


def item_problems(workload: str, doc: dict, n: int, golden: str | None) -> list[str]:
    """Reasons one item's output document is wrong; empty when it passes."""
    if workload == "froberg6":
        expect = 1 << (n * (n - 1) // 2)
        problems = []
        if doc["checked"] != expect:
            problems.append(f"checked {doc['checked']} of {expect} graphs")
        if doc["mismatches"]:
            problems.append(f"{len(doc['mismatches'])} Froberg mismatches")
        return problems
    report = doc["reports"][0] if workload == "corpus" else doc
    problems = report_problems(report, n, workload)
    if golden is not None and math_digest(report) != golden:
        problems.append("math digest differs from the golden value")
    return problems
