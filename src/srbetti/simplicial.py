"""Simplicial complexes on labeled vertex sets, stored as bitmask facets.

Vertex tokens map to bit positions 0..n-1 in sorted token order, so every
derived quantity (face masks, f-vectors, minimal non-faces) is deterministic
under reordering of the input.  A face is an int whose set bits select
vertices; the empty face is 0.

The complex whose only face is the empty face is representable internally
(labels=(), facets=(0,)); it arises from restriction to the empty vertex set
but is never produced by `complex_from_facets`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Iterable, Sequence

from .errors import EmptyInputError, TooManyVerticesError

MAX_VERTICES = 64


def _bits(mask: int) -> list[int]:
    """Set bit positions of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _maximal_masks(masks: Iterable[int]) -> tuple[int, ...]:
    """Inclusion-maximal elements of a set of masks, sorted ascending."""
    uniq = set(masks)
    out = [m for m in uniq if not any(m != o and m & o == m for o in uniq)]
    return tuple(sorted(out))


@dataclass(frozen=True)
class Complex:
    """A simplicial complex given by its facets (maximal faces).

    labels  -- vertex tokens in sorted order; labels[k] names bit k
    facets  -- antichain of face masks, sorted ascending, covering every bit

    Down-closure is implicit: a mask is a face iff it is contained in some
    facet.  Immutable; safe to share between threads.
    """

    labels: tuple[str, ...]
    facets: tuple[int, ...]

    def __post_init__(self):
        n = len(self.labels)
        if n > MAX_VERTICES:
            raise TooManyVerticesError(f"{n} vertices exceeds the {MAX_VERTICES}-bit face representation")
        if len(set(self.labels)) != n:
            raise ValueError("duplicate vertex labels")
        if any(not isinstance(t, str) or not t or t.split() != [t] for t in self.labels):
            raise ValueError("vertex labels must be nonempty tokens without whitespace")
        if tuple(sorted(self.labels)) != self.labels:
            raise ValueError("labels must be sorted")
        if not self.facets:
            raise ValueError("facets may not be empty; the empty complex is facets=(0,)")
        if tuple(sorted(set(self.facets))) != self.facets:
            raise ValueError("facets must be sorted and distinct")
        full = (1 << n) - 1
        cover = 0
        for f in self.facets:
            if f < 0 or f & ~full:
                raise ValueError("facet mask out of vertex range")
            cover |= f
        if cover != full:
            missing = [self.labels[v] for v in range(n) if not (cover >> v) & 1]
            raise ValueError(f"vertices in no facet (every singleton must be a face): {missing}")
        for f in self.facets:
            if any(f != o and f & o == f for o in self.facets):
                raise ValueError("facets must form an antichain")

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def dim(self) -> int:
        """Dimension: one less than the largest facet cardinality (-1 for the empty complex)."""
        return max(f.bit_count() for f in self.facets) - 1

    def mask_of(self, tokens: Iterable[str]) -> int:
        index = {t: k for k, t in enumerate(self.labels)}
        mask = 0
        for t in tokens:
            if t not in index:
                raise ValueError(f"unknown vertex label {t!r}")
            mask |= 1 << index[t]
        return mask

    def tokens_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[v] for v in _bits(mask))

    def is_face(self, mask: int) -> bool:
        return any(mask & f == mask for f in self.facets)


def complex_from_facets(facets: Iterable[Iterable[str]]) -> Complex:
    """Build a complex from facet token sets.

    The vertex set is the sorted union of all tokens, so every vertex lies in
    some facet and the singleton condition holds by construction.  Dominated
    facets are dropped silently.
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
    if len(labels) > MAX_VERTICES:
        raise TooManyVerticesError(f"{len(labels)} vertices exceeds the {MAX_VERTICES}-bit face representation")
    index = {t: k for k, t in enumerate(labels)}
    masks = []
    for fac in facet_tokens:
        m = 0
        for t in fac:
            m |= 1 << index[t]
        masks.append(m)
    return Complex(labels, _maximal_masks(masks))


def masks_by_card(facets: Sequence[int]) -> list[list[int]]:
    """All faces spanned by the facet masks, grouped by cardinality.

    Group k lists the k-vertex face masks, in no particular order; group 0
    is the empty face.  Cost is sum of 2^|facet|.
    """
    seen: set[int] = set()
    for fac in facets:
        sub = fac
        while sub:
            seen.add(sub)
            sub = (sub - 1) & fac
    top = max((f.bit_count() for f in facets), default=0)
    groups: list[list[int]] = [[] for _ in range(top + 1)]
    groups[0].append(0)
    for m in seen:
        groups[m.bit_count()].append(m)
    return groups


@dataclass(frozen=True)
class FVector:
    """Face counts (f_{-1}, f_0, ..., f_{d-1}); entry 0 is the empty face count 1."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries or self.entries[0] != 1:
            raise ValueError("f-vector must start with f_{-1} = 1")
        if any(e <= 0 for e in self.entries):
            raise ValueError("face counts must be positive")

    @property
    def d(self) -> int:
        """Krull dimension of the face ring: dim(complex) + 1."""
        return len(self.entries) - 1

    def get(self, i: int) -> int:
        """f_i, with i from -1 to d-1."""
        return self.entries[i + 1]


@dataclass(frozen=True)
class HVector:
    """The sequence (h_0, ..., h_d); indices outside the range read as 0."""

    entries: tuple[int, ...]

    def __post_init__(self):
        if not self.entries or self.entries[0] != 1:
            raise ValueError("h-vector must start with h_0 = 1")

    @property
    def d(self) -> int:
        return len(self.entries) - 1

    def get(self, j: int) -> int:
        if 0 <= j < len(self.entries):
            return self.entries[j]
        return 0

    def total(self) -> int:
        return sum(self.entries)


def f_vector(c: Complex) -> FVector:
    """Count faces by dimension; entry at index i+1 counts i-dimensional faces."""
    return FVector(tuple(len(g) for g in masks_by_card(c.facets)))


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


def f_from_h(h: HVector, d: int | None = None) -> FVector:
    """Inverse transform f_{j-1} = sum_i C(d-i, j-i) h_i."""
    if d is None:
        d = h.d
    ent = tuple(
        sum(comb(d - i, j - i) * h.get(i) for i in range(j + 1)) for j in range(d + 1)
    )
    return FVector(ent)


def induced_subcomplex(c: Complex, w: Iterable[str]) -> Complex:
    """Restriction of c to a subset of its vertex labels.

    Faces of the result are exactly the faces of c contained in w, relabeled
    so that the k-th vertex of w is bit k; relabeling keeps the facets
    ascending.  The empty label set yields the empty complex.
    """
    wmask = c.mask_of(w)
    positions = _bits(wmask)
    facets = tuple(
        sum(((m >> pos) & 1) << k for k, pos in enumerate(positions))
        for m in _maximal_masks(f & wmask for f in c.facets)
    )
    return Complex(tuple(c.labels[p] for p in positions), facets)


def minimal_non_faces(c: Complex) -> list[tuple[str, ...]]:
    """Inclusion-minimal non-faces: the monomial generators of the non-face ideal.

    Built level by level: a candidate of cardinality k extends a (k-1)-face by
    one vertex and qualifies iff it is not itself a face while all of its
    cardinality-(k-1) subsets are.  Sorted by (cardinality, tokens).
    """
    groups = masks_by_card(c.facets)
    face_sets = [set(g) for g in groups]
    n = c.n
    out: list[int] = []
    for k in range(2, len(groups) + 1):
        lower = groups[k - 1]
        lower_set = face_sets[k - 1]
        this_set = face_sets[k] if k < len(groups) else set()
        cands: set[int] = set()
        for g in lower:
            for v in range(n):
                b = 1 << v
                if g & b:
                    continue
                m = g | b
                if m not in this_set:
                    cands.add(m)
        for m in sorted(cands):
            if all((m ^ (1 << v)) in lower_set for v in _bits(m)):
                out.append(m)
    labeled = [c.tokens_of(m) for m in out]
    labeled.sort(key=lambda t: (len(t), t))
    return labeled


def write_complex(c: Complex, path) -> None:
    """One facet per line as whitespace-separated tokens (.cplx format)."""
    if c.n == 0:
        raise EmptyInputError("the empty complex has no facet-file representation")
    lines = [" ".join(c.tokens_of(f)) for f in c.facets]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def read_facets(path) -> list[list[str]]:
    """The facet token lists of a .cplx file: '#' lines are comments, other
    lines are facets."""
    facets = []
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            facets.append(line.split())
    return facets


def read_complex(path) -> Complex:
    """Parse a .cplx facet file (see read_facets) into a complex."""
    return complex_from_facets(read_facets(path))
