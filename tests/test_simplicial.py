"""Complex construction, f/h-vectors, restrictions, minimal non-faces, file IO."""

import random
from math import comb

import pytest

from helpers import brute_face_masks, brute_minimal_non_faces, h_by_expansion, random_complex
from srbetti import (
    Complex,
    EmptyInputError,
    FVector,
    HVector,
    ParseError,
    TooManyVerticesError,
    complex_from_facets,
    f_vector,
    h_vector,
    minimal_non_faces,
    multiplicity,
    read_complex,
    write_complex,
)
from srbetti.homology import reduced_dims_from_facets
from srbetti.simplicial import _maximal_masks, face_masks

C4_FACETS = [["1", "2"], ["2", "3"], ["3", "4"], ["1", "4"]]


def test_construction_basic():
    c = complex_from_facets([["a", "b"], ["b", "c"]])
    assert c.n == 3
    assert c.labels == ("a", "b", "c")
    assert c.facets == (0b011, 0b110)


def test_dominated_facet_dropped():
    c = complex_from_facets([["a", "b"], ["a"]])
    assert c.facets == (0b11,)


def test_empty_input_rejected():
    # the empty complex builds directly, but never from facet input
    empty = Complex((), (0,))
    assert empty.labels == () and empty.dim == -1
    with pytest.raises(EmptyInputError):
        complex_from_facets([])
    with pytest.raises(EmptyInputError):
        complex_from_facets([[]])


def test_vertex_cap():
    with pytest.raises(TooManyVerticesError):
        complex_from_facets([[f"v{i}" for i in range(65)]])


def test_input_order_irrelevant():
    a = complex_from_facets(C4_FACETS)
    b = complex_from_facets(list(reversed(C4_FACETS)))
    assert a == b


def test_f_vector_examples():
    assert f_vector(complex_from_facets([["x", "y", "z"]])).entries == (1, 3, 3, 1)
    assert f_vector(complex_from_facets(C4_FACETS)).entries == (1, 4, 4)
    assert f_vector(complex_from_facets([["a"], ["b"]])).entries == (1, 2)


def test_h_vector_examples():
    # frozen values cross-checked against the expansion oracle below
    assert h_vector(f_vector(complex_from_facets(C4_FACETS))).entries == (1, 2, 1)
    tri = complex_from_facets([["1", "2"], ["1", "3"], ["2", "3"]])
    assert h_vector(f_vector(tri)).entries == (1, 1, 1)
    simplex = complex_from_facets([["1", "2", "3"]])
    assert h_vector(f_vector(simplex)).entries == (1, 0, 0, 0)


def test_h_vector_matches_polynomial_expansion():
    rnd = random.Random(1001)
    for _ in range(150):
        c = random_complex(rnd)
        f = f_vector(c)
        assert list(h_vector(f).entries) == h_by_expansion(f.entries)


def test_h_sum_is_top_f():
    rnd = random.Random(1002)
    for _ in range(150):
        c = random_complex(rnd)
        f = f_vector(c)
        assert multiplicity(h_vector(f)) == f.entries[-1]


def test_f_h_round_trip():
    # h determines f: f_{i-1} = sum_{j <= i} C(d - j, i - j) h_j
    rnd = random.Random(1003)
    for _ in range(150):
        f = f_vector(random_complex(rnd))
        h = h_vector(f).entries
        back = tuple(sum(comb(f.d - j, i - j) * h[j] for j in range(i + 1)) for i in range(f.d + 1))
        assert FVector(back) == f


def test_faces_match_brute_force():
    rnd = random.Random(1004)
    for _ in range(50):
        c = random_complex(rnd, max_n=6)
        f = f_vector(c)
        by_card = {}
        for m in brute_face_masks(c):
            by_card[m.bit_count()] = by_card.get(m.bit_count(), 0) + 1
        assert all(f.entries[k] == by_card[k] for k in by_card)
        assert sum(f.entries) == len(brute_face_masks(c))


def test_minimal_non_faces_examples():
    c4 = complex_from_facets(C4_FACETS)
    assert minimal_non_faces(c4) == [("1", "3"), ("2", "4")]
    assert minimal_non_faces(complex_from_facets([["1", "2", "3"]])) == []
    tri = complex_from_facets([["1", "2"], ["1", "3"], ["2", "3"]])
    assert minimal_non_faces(tri) == [("1", "2", "3")]


def test_minimal_non_faces_brute_force():
    rnd = random.Random(1005)
    for _ in range(80):
        c = random_complex(rnd, max_n=6)
        got = {frozenset(t) for t in minimal_non_faces(c)}
        assert got == brute_minimal_non_faces(c)


def test_minimal_non_faces_characterize_faces():
    # F is a face iff it contains no minimal non-face
    rnd = random.Random(1006)
    for _ in range(30):
        c = random_complex(rnd, max_n=6)
        non_faces = [sum(1 << c.labels.index(v) for v in t) for t in minimal_non_faces(c)]
        faces = brute_face_masks(c)
        for mask in range(1 << c.n):
            contains = any(mask & m == m for m in non_faces)
            assert (mask in faces) == (not contains)
        assert all(m.bit_count() >= 2 for m in non_faces)


def test_induced_subcomplex_examples():
    # the sweep restricts to W by the mask set {f & w}; its homology is the
    # restriction's
    c4 = complex_from_facets(C4_FACETS)
    two_points = {f & 0b0101 for f in c4.facets}
    assert face_masks(two_points) == {0, 0b0001, 0b0100}
    assert reduced_dims_from_facets(two_points)[0] == (0, 1)
    edge = {f & 0b0011 for f in c4.facets}
    assert face_masks(edge) == {0, 0b01, 0b10, 0b11}
    assert reduced_dims_from_facets(edge)[0] == (0, 0, 0)
    empty = {f & 0 for f in c4.facets}
    assert empty == {0} and face_masks(empty) == {0}
    assert reduced_dims_from_facets(empty)[0] == (1,)


def test_induced_full_vertex_set_is_identity():
    rnd = random.Random(1007)
    for _ in range(50):
        c = random_complex(rnd)
        full = (1 << c.n) - 1
        assert face_masks({f & full for f in c.facets}) == brute_face_masks(c)


def test_induced_faces_are_restricted_faces():
    rnd = random.Random(1008)
    for _ in range(40):
        c = random_complex(rnd, max_n=6)
        w = sum(1 << v for v in range(c.n) if rnd.random() < 0.5)
        expected = {m for m in brute_face_masks(c) if m & w == m}
        assert face_masks({f & w for f in c.facets}) == expected


def test_cplx_round_trip(tmp_path):
    rnd = random.Random(1009)
    for k in range(25):
        c = random_complex(rnd)
        path = tmp_path / f"c{k}.cplx"
        write_complex(c, path)
        assert read_complex(path) == c


def test_cplx_writer_refuses_comment_label(tmp_path):
    # "#a b" would read back as a comment, leaving only the facet "b c"
    c = complex_from_facets([["#a", "b"], ["b", "c"]])
    with pytest.raises(ValueError, match="'#a'"):
        write_complex(c, tmp_path / "x.cplx")


def test_cplx_writer_refuses_byte_order_mark_label(tmp_path):
    # the reader drops a U+FEFF at the start of the file: "\ufeffa" would read back as "a"
    c = complex_from_facets([["\ufeffa"]])
    with pytest.raises(ValueError, match=r"'\\ufeffa'"):
        write_complex(c, tmp_path / "x.cplx")


def test_cplx_byte_order_mark_is_dropped(tmp_path):
    # the triangle boundary saved with a UTF-8 BOM was read as a path whose
    # fourth vertex was '\ufeffa'; before a comment, the BOM hid the '#'
    for name, text in [("tri", "a b\nb c\nc a\n"), ("c4", "# square\n1 2\n2 3\n3 4\n1 4\n")]:
        plain = tmp_path / f"{name}.cplx"
        plain.write_text(text, encoding="utf-8")
        bom = tmp_path / f"{name}-bom.cplx"
        bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert read_complex(bom) == read_complex(plain)
    assert read_complex(tmp_path / "tri-bom.cplx") == complex_from_facets([["a", "b"], ["b", "c"], ["c", "a"]])


def test_cplx_not_utf8_is_refused_as_a_whole_file(tmp_path):
    # a UTF-16 BOM at the start, and a stray byte past the decoder's first chunk
    for name, data in [("utf16", b"\xff\xfe1 2\n"), ("late", b"1 2\n" * 5000 + b"\xff\n")]:
        path = tmp_path / f"{name}.cplx"
        path.write_bytes(data)
        with pytest.raises(ParseError) as caught:
            read_complex(path)
        assert str(caught.value) == f"{path}: not UTF-8 text" and caught.value.lineno is None


def test_cplx_comments_and_blanks(tmp_path):
    path = tmp_path / "x.cplx"
    path.write_text("# comment\n\n1 2\n2 3\n# another\n3 4\n1 4\n")
    assert read_complex(path) == complex_from_facets(C4_FACETS)


def test_direct_complex_validation():
    with pytest.raises(ValueError):
        Complex(("a", "b"), (0b01,))  # vertex b in no facet
    with pytest.raises(ValueError):
        Complex(("a", "b"), (0b01, 0b11))  # not an antichain
    with pytest.raises(ValueError):
        Complex(("b", "a"), (0b11,))  # labels unsorted


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda tmp: Complex(tuple(f"v{i:02}" for i in range(65)), (1,)), TooManyVerticesError,
         "65 vertices exceeds the 64-bit face representation"),
        (lambda tmp: Complex(("a", "a"), (0b11,)), ValueError, "duplicate vertex labels"),
        (lambda tmp: Complex(("a b",), (0b1,)), ValueError, "vertex labels must be nonempty tokens without whitespace"),
        (lambda tmp: Complex(("a",), ()), ValueError, "facets may not be empty; the empty complex is facets=(0,)"),
        (lambda tmp: Complex(("a", "b"), (0b10, 0b01)), ValueError, "facets must be sorted and distinct"),
        (lambda tmp: Complex(("a",), (0b11,)), ValueError, "facet mask out of vertex range"),
        (lambda tmp: complex_from_facets([["a", ""]]), ValueError, "vertex tokens must be nonempty strings, got ''"),
        (lambda tmp: FVector((2, 1)), ValueError, "f-vector must start with f_{-1} = 1"),
        (lambda tmp: FVector((1, 0)), ValueError, "face counts must be positive"),
        (lambda tmp: HVector((0, 1)), ValueError, "h-vector must start with h_0 = 1"),
        (lambda tmp: write_complex(Complex((), (0,)), tmp / "x.cplx"), EmptyInputError,
         "the empty complex has no facet-file representation"),
    ],
)
def test_input_checks(tmp_path, build, error, message):
    with pytest.raises(ValueError) as caught:
        build(tmp_path)
    assert type(caught.value) is error and str(caught.value) == message


def brute_maximal(masks):
    """The masks that lie in no other mask of the list."""
    return {m for m in masks if all(o == m or m | o != o for o in masks)}


def random_mask_list(rnd, n):
    """Random masks on n bits with duplicates, nested masks and sometimes 0."""
    masks = [rnd.getrandbits(n) for _ in range(rnd.randint(1, 8))]
    masks += [m & rnd.getrandbits(n) for m in rnd.choices(masks, k=rnd.randint(0, 4))]
    masks += rnd.choices(masks, k=rnd.randint(0, 3))
    rnd.shuffle(masks)
    return masks


def test_maximal_masks_against_brute_force():
    rnd = random.Random(2005)
    for _ in range(500):
        masks = random_mask_list(rnd, rnd.randint(0, 6))
        out = _maximal_masks(masks)
        assert len(out) == len(set(out))
        assert set(out) == brute_maximal(masks), masks
        sizes = [m.bit_count() for m in out]
        assert sizes == sorted(sizes, reverse=True)
    assert _maximal_masks([0, 0]) == [0]


def test_complex_raises_antichain_exactly_on_non_antichains():
    rnd = random.Random(2006)
    seen = {True: 0, False: 0}
    for _ in range(500):
        facets = tuple(sorted(set(random_mask_list(rnd, rnd.randint(0, 6)))))
        cover = 0
        for f in facets:
            cover |= f
        n = cover.bit_length()
        if cover != (1 << n) - 1:
            continue
        labels = tuple(f"v{i}" for i in range(n))
        antichain = len(brute_maximal(facets)) == len(facets)
        seen[antichain] += 1
        if antichain:
            assert Complex(labels, facets).facets == facets
        else:
            with pytest.raises(ValueError, match="antichain"):
                Complex(labels, facets)
    assert min(seen.values()) > 50, seen
