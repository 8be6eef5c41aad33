"""Betti tables, Hilbert series and h-vector identities of face rings.

Everything is exact integer arithmetic over bitmask combinatorics, and all
values are immutable.  The process-wide state is the homology cache and the
CLI parser, neither of which changes a result.  A cache entry is one value
written once, so two threads may compute the same miss, but no reader sees
Betti numbers without their torsion.
"""

from .betti import (
    DEFAULT_VERTEX_CAP,
    BettiTable,
    ResolutionShape,
    classify,
    graded_betti,
)
from .errors import (
    EmptyInputError,
    NonPositiveResultError,
    NotChordalError,
    ParseError,
    TooManyVerticesError,
)
from .exactla import GF_DEFAULT, QQ, FieldSpec, rank
from .formulas import (
    betti_from_h,
    check_lower_bound,
    chordal_h_relations,
    h_relations,
)
from .graphs import (
    Graph,
    Xorshift64Star,
    clique_complex,
    complement,
    complete_graph,
    cycle_graph,
    gen_chordal,
    graph_from_edges,
    is_chordal,
    maximal_cliques,
    path_graph,
    read_graph,
    write_graph,
)
from .hilbert import (
    HilbertSeries,
    IntPolynomial,
    multiplicity,
    series_from_f,
    verify_series_identity,
)
from .simplicial import (
    MAX_VERTICES,
    Complex,
    FVector,
    HVector,
    complex_from_facets,
    f_from_h,
    f_vector,
    h_vector,
    induced_subcomplex,
    minimal_non_faces,
    read_complex,
    write_complex,
)
from .verify import (
    CorpusSummary,
    SweepResult,
    VerificationReport,
    fingerprint,
    froberg_exhaustive,
    verify_chordal_corpus,
    verify_complex,
)

__version__ = "0.1.0"

from pathlib import Path as _Path

DATA_DIR = _Path(__file__).resolve().parent / "data"


def fixture_path(name: str) -> _Path:
    """Path of a bundled example file (e.g. 'c4.cplx', 'rp2.cplx', 'k3.graph')."""
    path = DATA_DIR / name
    if not path.is_file():
        raise FileNotFoundError(f"no bundled fixture {name!r} in {DATA_DIR}")
    return path
