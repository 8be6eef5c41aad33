"""Boundary maps and reduced homology dimensions, checked against the
dense full-chain-complex oracle of the test helpers."""

import random
from itertools import combinations

from helpers import bits, brute_face_masks, brute_reduced_dims, cross_polytope, random_complex, suspension
from sweep_helpers import boundary_rows, composes_to_zero, reduced_betti
from srbetti import GF_DEFAULT, complex_from_facets, f_vector, fixture_path, induced_subcomplex, read_complex
from srbetti.homology import reduced_dims_from_facets, torsion_shift


def checked_betti(c, p=None):
    """reduced_betti, asserted equal to the oracle first."""
    out = reduced_betti(c, p)
    assert out == brute_reduced_dims(brute_face_masks(c), p), (c.facets, p)
    return out


def simplex_boundary(k):
    """Boundary of the k-simplex: all k-subsets of k+1 vertices."""
    verts = [str(i) for i in range(1, k + 2)]
    return complex_from_facets([list(c) for c in combinations(verts, k)])


def test_augmentation_matrix():
    c = complex_from_facets([["a"], ["b"], ["c"]])
    assert boundary_rows(c, 0) == [{0: 1}, {0: 1}, {0: 1}]


def test_edge_boundary_signs():
    c = complex_from_facets([["1", "2"]])
    assert boundary_rows(c, 1) == [{0: -1, 1: 1}]


def test_triangle_boundary_signs():
    c = complex_from_facets([["1", "2", "3"]])
    # columns are the edges sorted by mask: 12, 13, 23
    assert boundary_rows(c, 2) == [{0: 1, 1: -1, 2: 1}]


def test_boundary_squared_zero():
    rnd = random.Random(3001)
    for _ in range(40):
        assert composes_to_zero(random_complex(rnd))
    assert composes_to_zero(read_complex(fixture_path("rp2.cplx")))


def test_homology_examples():
    tri = complex_from_facets([["1", "2"], ["1", "3"], ["2", "3"]])
    assert checked_betti(tri, GF_DEFAULT.p) == [0, 0, 1]
    two = complex_from_facets([["a"], ["b"]])
    assert checked_betti(two, GF_DEFAULT.p) == [0, 1]
    cone = complex_from_facets([["1", "2", "3", "4"]])
    assert all(b == 0 for b in checked_betti(cone, GF_DEFAULT.p))


def test_empty_complex_degree_minus_one():
    c4 = complex_from_facets([["1", "2"], ["2", "3"], ["3", "4"], ["1", "4"]])
    empty = induced_subcomplex(c4, [])
    assert checked_betti(empty, GF_DEFAULT.p) == [1]
    # any complex with a vertex has nothing in degree -1
    assert checked_betti(c4, GF_DEFAULT.p)[0] == 0


def test_simplex_boundary_spheres():
    for k in range(2, 7):
        assert checked_betti(simplex_boundary(k), GF_DEFAULT.p) == [0] * k + [1], k


def test_euler_identity():
    rnd = random.Random(3002)
    for _ in range(60):
        c = random_complex(rnd)
        f = f_vector(c)
        b = checked_betti(c, GF_DEFAULT.p)
        lhs = sum((-1) ** i * f.get(i) for i in range(0, f.d)) - 1
        rhs = sum((-1) ** i * b[i + 1] for i in range(0, f.d)) - b[0]
        assert lhs == rhs


def test_projective_plane_homology_by_field():
    rp2 = read_complex(fixture_path("rp2.cplx"))
    assert f_vector(rp2).entries == (1, 6, 15, 10)
    assert checked_betti(rp2) == [0, 0, 0, 0]
    assert checked_betti(rp2, GF_DEFAULT.p) == [0, 0, 0, 0]
    assert checked_betti(rp2, 2) == [0, 0, 1, 1]


def miss_inputs():
    """(n, masks) as the sweep hands them to a miss: {f & w} for vertex
    subsets W, neither relabeled nor an antichain; plus the empty complex,
    a full simplex with dominated masks and a cone over C4."""
    rnd = random.Random(3003)
    rp2 = read_complex(fixture_path("rp2.cplx"))
    out = [(1, (0,)), (4, (0b1111, 0b0011, 0)), (5, (0b10011, 0b10110, 0b11100, 0b11001))]
    complexes = [rp2, suspension(rp2)] + [cross_polytope(r) for r in (2, 3, 4)]
    complexes += [random_complex(rnd, max_n=7, max_facets=10, max_size=4) for _ in range(30)]
    for c in complexes:
        full = (1 << c.n) - 1
        subsets = range(1 << c.n) if c.n <= 6 else [full] + rnd.sample(range(full), 24)
        out += [(c.n, {f & w for f in c.facets}) for w in subsets]
    return out


def test_quotient_matches_full_chain_complex_oracle():
    # the homology of a miss is computed on the quotient by one vertex star;
    # the oracle ranks the full augmented chain complex over Q, GF(2) and
    # GF(3), and a relabeling moves the apex without changing the result
    rnd = random.Random(3004)
    with_torsion = 0
    for n, masks in miss_inputs():
        faces = {s for s in range(1 << n) if any(s & m == s for m in masks)}
        dims, torsion = reduced_dims_from_facets(masks)
        assert list(dims) == brute_reduced_dims(faces), masks
        for p in (2, 3):
            over_p = list(dims)
            for k in torsion_shift(torsion, p):
                over_p[k] += 1
            assert over_p == brute_reduced_dims(faces, p), (masks, p)
        with_torsion += bool(torsion)
        for _ in range(5):
            perm = rnd.sample(range(n), n)
            moved = [sum(1 << perm[v] for v in bits(m)) for m in masks]
            assert reduced_dims_from_facets(moved) == (dims, torsion), masks
    assert with_torsion >= 2
