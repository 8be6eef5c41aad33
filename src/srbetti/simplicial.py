"""Simplicial complexes on labeled vertex sets, stored as bitmask facets.

Vertex tokens map to bit positions 0..n-1 in sorted token order, so every
derived quantity (face masks, f-vectors, minimal non-faces) is deterministic
under reordering of the input.  A face is an int whose set bits select
vertices; the empty face is 0.

The complex whose only face is the empty face is representable
(labels=(), facets=(0,)) but is never produced by `complex_from_facets`;
tests build it directly.  The sweep in `betti` restricts by the mask set
{f & w} and never builds a Complex: at W = {} that set is {0}, the empty
complex, the one core of every sweep.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from collections.abc import Iterable
from math import comb
from pathlib import Path

from .errors import EmptyInputError, ParseError, TooManyVerticesError

MAX_VERTICES = 64


def _bits(mask: int) -> list[int]:
    """Set bit positions of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _maximal_masks(masks: Iterable[int]) -> list[int]:
    """Inclusion-maximal elements of a set of masks, largest first: the
    distinct masks by descending cardinality, each kept unless it lies
    inside one kept before it."""
    out: list[int] = []
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        for k in out:
            if m & k == m:
                break
        else:
            out.append(m)
    return out


class Complex(namedtuple("Complex", "labels facets")):
    """A simplicial complex given by its facets (maximal faces).

    labels  -- vertex tokens in sorted order; labels[k] names bit k
    facets  -- antichain of face masks, sorted ascending, covering every bit

    Down-closure is implicit: a mask is a face iff it is contained in some
    facet.  Immutable; safe to share between threads.
    """

    __slots__ = ()
    labels: tuple[str, ...]
    facets: tuple[int, ...]

    def __new__(cls, labels, facets):
        n = len(labels)
        if n > MAX_VERTICES:
            raise TooManyVerticesError(f"{n} vertices exceeds the {MAX_VERTICES}-bit face representation")
        if len(set(labels)) != n:
            raise ValueError("duplicate vertex labels")
        if any(not isinstance(t, str) or not t or t.split() != [t] for t in labels):
            raise ValueError("vertex labels must be nonempty tokens without whitespace")
        if tuple(sorted(labels)) != labels:
            raise ValueError("labels must be sorted")
        if not facets:
            raise ValueError("facets may not be empty; the empty complex is facets=(0,)")
        if tuple(sorted(set(facets))) != facets:
            raise ValueError("facets must be sorted and distinct")
        full = (1 << n) - 1
        cover = 0
        for f in facets:
            if f < 0 or f & ~full:
                raise ValueError("facet mask out of vertex range")
            cover |= f
        if cover != full:
            missing = [labels[v] for v in range(n) if not (cover >> v) & 1]
            raise ValueError(f"vertices in no facet (every singleton must be a face): {missing}")
        if len(_maximal_masks(facets)) != len(facets):
            raise ValueError("facets must form an antichain")
        return tuple.__new__(cls, (labels, facets))

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        """Dimension: one less than the largest facet cardinality (-1 for the empty complex)."""
        return max(f.bit_count() for f in self.facets) - 1

    def tokens_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[v] for v in _bits(mask))


def complex_from_facets(facets: Iterable[Iterable[str]]) -> Complex:
    """Build a complex from facet token sets.

    The vertex set is the sorted union of all tokens, so every vertex lies in
    some facet and the singleton condition holds by construction.  Dominated
    facets are dropped silently.  Complex refuses more than MAX_VERTICES.
    """
    facet_tokens = [tuple(f) for f in facets]
    if not facet_tokens:
        raise EmptyInputError("no facets given")
    tokens: set[str] = set()
    for fac in facet_tokens:
        for t in fac:
            if not isinstance(t, str) or not t:
                raise ValueError(f"vertex tokens must be nonempty strings, got {t!r}")
            tokens.add(t)
    if not tokens:
        raise EmptyInputError("all facets are empty")
    labels = tuple(sorted(tokens))
    index = {t: k for k, t in enumerate(labels)}
    masks = []
    for fac in facet_tokens:
        m = 0
        for t in fac:
            m |= 1 << index[t]
        masks.append(m)
    return Complex(labels, tuple(sorted(_maximal_masks(masks))))


def face_masks(facets: Iterable[int]) -> set[int]:
    """Every face spanned by the facet masks, the empty face 0 included.
    Cost is sum of 2^|facet|."""
    faces = {0}
    for fac in facets:
        sub = fac
        while sub:
            faces.add(sub)
            sub = (sub - 1) & fac
    return faces


class FVector(namedtuple("FVector", "entries")):
    """Face counts (f_{-1}, f_0, ..., f_{d-1}); entry 0 is the empty face count 1."""

    __slots__ = ()
    entries: tuple[int, ...]

    def __new__(cls, entries):
        if not entries or entries[0] != 1:
            raise ValueError("f-vector must start with f_{-1} = 1")
        if any(e <= 0 for e in entries):
            raise ValueError("face counts must be positive")
        return tuple.__new__(cls, (entries,))

    @property
    def d(self) -> int:
        """Krull dimension of the face ring: dim(complex) + 1."""
        return len(self.entries) - 1


class HVector(namedtuple("HVector", "entries")):
    """The sequence (h_0, ..., h_d)."""

    __slots__ = ()
    entries: tuple[int, ...]

    def __new__(cls, entries):
        if not entries or entries[0] != 1:
            raise ValueError("h-vector must start with h_0 = 1")
        return tuple.__new__(cls, (entries,))


def f_vector(c: Complex) -> FVector:
    """Count faces by dimension; entry at index i+1 counts i-dimensional faces."""
    counts = Counter(map(int.bit_count, face_masks(c.facets)))
    return FVector(tuple(counts[k] for k in range(len(counts))))


def h_vector(f: FVector) -> HVector:
    """The h-vector h_j = sum_i (-1)^(j-i) C(d-i, j-i) f_{i-1}, j = 0..d.

    Equivalently the coefficients of sum_i f_{i-1} t^i (1-t)^(d-i).
    """
    d = f.d
    ent = tuple(
        sum((-1) ** (j - i) * comb(d - i, j - i) * f.entries[i] for i in range(j + 1))
        for j in range(d + 1)
    )
    return HVector(ent)


def minimal_non_faces(c: Complex) -> list[tuple[str, ...]]:
    """Inclusion-minimal non-faces: the monomial generators of the non-face ideal.

    Sorted by (cardinality, tokens).  Each one, t, is met once, from the
    face t - v for its highest vertex v: a candidate qualifies iff it is
    not a face while t - u is for every u.
    """
    faces = face_masks(c.facets)
    labeled = []
    for s in faces:
        for v in range(s.bit_length(), c.n):
            t = s | 1 << v
            if t not in faces and all(t ^ 1 << u in faces for u in _bits(s)):
                labeled.append(c.tokens_of(t))
    labeled.sort(key=lambda t: (len(t), t))
    return labeled


def write_complex(c: Complex, path) -> None:
    """One facet per line as whitespace-separated tokens (.cplx format).
    A label starting with '#' (a comment line) or U+FEFF (a byte order
    mark, which the reader drops at the start of a file): ValueError."""
    if c.n == 0:
        raise EmptyInputError("the empty complex has no facet-file representation")
    for label in c.labels:
        if label.startswith(("#", "\ufeff")):
            raise ValueError(f"vertex label {label!r} cannot be written to a .cplx file")
    lines = [" ".join(c.tokens_of(f)) for f in c.facets]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _lines(path):
    """(line number, stripped text) of each line of an input file that is
    neither blank nor a '#' comment.  The file is UTF-8 text, a leading byte
    order mark dropped; one that does not decode is refused as a whole."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.strip()
                if line and not line.startswith("#"):
                    yield lineno, line
    except UnicodeDecodeError:  # no line or offset: the decoder's count within its chunk
        raise ParseError(path, None, "not UTF-8 text") from None


def read_facets(path) -> list[list[str]]:
    """The facet token lists of a .cplx file (see _lines): each line is a
    facet, and a file without one is refused."""
    facets = [line.split() for _, line in _lines(path)]
    if not facets:
        raise ParseError(path, None, "no facets given")
    return facets


def read_complex(path) -> Complex:
    """Parse a .cplx facet file (see read_facets) into a complex."""
    return complex_from_facets(read_facets(path))
