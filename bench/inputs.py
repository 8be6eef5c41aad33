"""Seeded benchmark inputs, generated without calling srbetti.

The program under test only ever sees the files written here.  The chordal
corpus reproduces srbetti's default `verify` corpus (documented xorshift64*
stream, incremental simplicial-vertex insertion, seed 7); a self-test checks
that the two agree.  The general complexes follow the ROADMAP baseline
recipe: n vertices, 2n facets of 3 to 6 vertices from `random.Random`.

In both workloads the k-th complex is the same for every seed, and the
seed relabels its vertices (and shuffles the facets of a general complex).
Every seed thus does the same mathematical work in a different
presentation, so which complexes a seed happens to draw does not move the
run's figures.

Items are produced lazily, one per call, so that set-up time measures the
program's start, not this generator.
"""

from __future__ import annotations

import random
from itertools import count
from typing import Iterator, NamedTuple

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class Xorshift64Star:
    """xorshift64* seeded through splitmix64, as documented in srbetti.graphs."""

    def __init__(self, seed: int):
        z = (seed + _GOLDEN) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        self.state = z or _GOLDEN

    def next_u64(self) -> int:
        x = self.state
        x ^= x >> 12
        x = (x ^ (x << 25)) & _MASK64
        x ^= x >> 27
        self.state = x
        return (x * 0x2545F4914F6CDD1D) & _MASK64

    def below(self, m: int) -> int:
        return self.next_u64() % m


class Item(NamedTuple):
    index: int
    n: int  # vertices of the input, which every report must echo
    suffix: str  # ".graph" or ".cplx"
    text: str  # file contents handed to the program


def chordal_adjacency(n: int, density: float, seed: int) -> list[int]:
    """Random chordal graph: vertex k joins a greedily grown clique of 0..k-1."""
    rng = Xorshift64Star(seed)
    adj = [0] * n
    for k in range(1, n):
        target = max(1, int(density * k + 0.5))
        cand = list(range(k))
        clique = 0
        while cand and clique.bit_count() < target:
            v = cand[rng.below(len(cand))]
            clique |= 1 << v
            cand = [u for u in cand if u != v and (adj[u] >> v) & 1]
        adj[k] |= clique
        for v in range(k):
            if (clique >> v) & 1:
                adj[v] |= 1 << k
    return adj


def graph_text(adj: list[int]) -> str:
    n = len(adj)
    width = len(str(n))
    labels = [str(i).zfill(width) for i in range(1, n + 1)]
    lines = ["vertices " + " ".join(labels)]
    lines += [f"{labels[v]} {labels[u]}" for v in range(n) for u in range(v + 1, n) if (adj[v] >> u) & 1]
    return "\n".join(lines) + "\n"


VERIFY_SEED = 7  # the `verify` command's default --seed


def chordal_corpus(n_max: int) -> Iterator[list[int]]:
    """Adjacency of each graph of `verify.corpus_graphs(count, n_max, 7)`, in order."""
    rng = Xorshift64Star(VERIFY_SEED)
    while True:
        n = 2 + rng.below(n_max - 1)
        density = (20 + rng.below(61)) / 100.0
        yield chordal_adjacency(n, density, rng.next_u64())


def corpus_items(seed: int, n_max: int) -> Iterator[Item]:
    """Endless default `verify` corpus, each graph relabeled by the seed."""
    for k, adj in enumerate(chordal_corpus(n_max)):
        n = len(adj)
        label = list(range(n))
        random.Random(f"corpus:{seed}:{k}").shuffle(label)
        relabeled = [0] * n
        for v in range(n):
            for u in range(n):
                if (adj[v] >> u) & 1:
                    relabeled[label[v]] |= 1 << label[u]
        yield Item(k, n, ".graph", graph_text(relabeled))


def general_items(seed: int, n: int) -> Iterator[Item]:
    """Endless random complexes: 2n facets of 3..6 of n vertices each."""
    for k in count():
        rng = random.Random(f"general:{k}")
        facets = [rng.sample(range(n), rng.randint(3, min(6, n))) for _ in range(2 * n)]
        shuffle = random.Random(f"general:{seed}:{k}")
        label = list(range(n))
        shuffle.shuffle(label)
        shuffle.shuffle(facets)
        used = len({v for f in facets for v in f})
        text = "".join(" ".join(f"v{label[v]}" for v in f) + "\n" for f in facets)
        yield Item(k, used, ".cplx", text)
