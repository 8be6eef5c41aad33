"""Byte-identity pin: the CLI reports of the bundled fixtures (one `analyze`
each, and one paths-mode `verify` of all four) and of a small seeded corpus
hash to fixed sha256 values.

The values were recorded before the verification layer and the rank kernel
were consolidated; the paths-mode `verify` values before the CLI parser was
built once per process.  The fixtures have at most 6 vertices, so two
larger inputs, written to a temporary directory, pin `analyze --format json`
over each field where the sweep does more work: a general 14-vertex complex
and a chordal 16-vertex graph.  A change that is meant to keep every result (a
refactor, a speedup, a deletion of dead code) must keep every hash; a change
that alters a report on purpose must say so and re-record the value.
"""

import hashlib

import pytest

from helpers import general_complex
from srbetti import DATA_DIR, write_complex
from srbetti.cli import main

FIXTURES = ("c4.cplx", "rp2.cplx", "k3.graph", "p3.graph")
FIELDS = ("32003", "2", "Q")

EXPECTED = {
    "analyze c4.cplx --field 2 --format json":
        "e06e3cb72a38ceda2bba8a9debf321582b80e28dd2562d0f608bd23955ad7b1e",
    "analyze c4.cplx --field 2 --format text":
        "1284bc3378573ac00d559ea965ee4325873ca021014ff9bdf05eb54ea031c6d3",
    "analyze c4.cplx --field 32003 --format json":
        "04c8f310478538f6ea4854b591cbe2806b07c2d97930ac0eb1ad85351b07c14b",
    "analyze c4.cplx --field 32003 --format text":
        "91b2521921a95736b508ae4e69bc766e444fae85849cb1df33ec5024412190c6",
    "analyze c4.cplx --field Q --format json":
        "aa4ace778d7e08fffe2b00ef2a8cefccbbf2bfcfedf327296572409b6519e873",
    "analyze c4.cplx --field Q --format text":
        "82a641eb6a9ba74eea367ad67e8de131bacd6ea4e11b687821825d0938699348",
    "analyze k3.graph --field 2 --format json":
        "af1fd7540a9025d3e23415634bdb6eba66062f287140e6182f9e1401a29608e6",
    "analyze k3.graph --field 2 --format text":
        "2a2c23dad312e3841660e2d41a7a3470d0d29b6983841c76e6c469911032dc07",
    "analyze k3.graph --field 32003 --format json":
        "c60e2d95f0b05fe3d313bf5b64549ac1ec22ecee0d17de42581ccf5f8d348dcd",
    "analyze k3.graph --field 32003 --format text":
        "750ac1d6f48e768c2cf71cb5bd89d0d2f779b05f1a3e25de808d8f713a861207",
    "analyze k3.graph --field Q --format json":
        "da3154d02525d9770b68a49f3aa42fa10effe130e0b184c504bc0ff3ced87071",
    "analyze k3.graph --field Q --format text":
        "b6add7b22cb68eca20ef4115cf5d186034fcefe4cb4008435c707cb92eb24b07",
    "analyze p3.graph --field 2 --format json":
        "1aeeeb4f2e492ca9787e6451b52dc2efcc07b7b1fd19def0a97412ad65d49b81",
    "analyze p3.graph --field 2 --format text":
        "3d0d958a7fda7f16c13b9bcad9e21c5ab3c2a851f7811ae0654308d49964dcdd",
    "analyze p3.graph --field 32003 --format json":
        "427d4f101e5e165527bc3ae3fcf3e7df2e43b578ef4d0b763a071b12ec7ebef4",
    "analyze p3.graph --field 32003 --format text":
        "f7332c43f41039029b0681cf90e3498f17fa42182f0c42ea29fca61eb951ddd5",
    "analyze p3.graph --field Q --format json":
        "844fdcd0f8ecbd91a56a2099025d5318051c201e94c488a29af09271228516be",
    "analyze p3.graph --field Q --format text":
        "1f25cd07c3d32778a379c1e28163ff36fa0ab1be0c9e022e19ceae77a71e211a",
    "analyze rp2.cplx --field 2 --format json":
        "7b7652c8d3f919608ff3beb41bae6bdfbb74ecc485ef4e6782e845d54502660b",
    "analyze rp2.cplx --field 2 --format text":
        "fcd7c177a8350070daa714109a5652a4d1119994704f526c59d517075dee912d",
    "analyze rp2.cplx --field 32003 --format json":
        "43b665937fe460d8580c40c4a62a065c7156374f88008dd8c0d93650ff8d8f48",
    "analyze rp2.cplx --field 32003 --format text":
        "22d57825aee2eb85b71e15f272f4b9fcac646f117398e4c7c00cd4d4d9f66f92",
    "analyze rp2.cplx --field Q --format json":
        "00a459d6ab8d8aee84fd9115f49269fe1fb9efae5bff739ac43317454fce2492",
    "analyze rp2.cplx --field Q --format text":
        "a04b658743230e205f51c6c9063088d838d534ea9ebdde25cdf7238c8dd283fb",
    "verify c4.cplx rp2.cplx k3.graph p3.graph --field 2 --format json":
        "f4c1f6538362be36649f4063b42685d41cb01ec5a34344f4273a0403dbc50dc1",
    "verify c4.cplx rp2.cplx k3.graph p3.graph --field 2 --format text":
        "ce1e668312cb3925eed98bf827aaabd0056c5381adc8d62801f6d2aac2ac1c47",
    "verify c4.cplx rp2.cplx k3.graph p3.graph --field 32003 --format json":
        "3b734452fcce13e5032f18d0d54e998e899fcd662b85861fe9535d2fd4b87600",
    "verify c4.cplx rp2.cplx k3.graph p3.graph --field 32003 --format text":
        "fd1f26e38ff64f0de2424a244345f1e341b6feffb7f003d4ce209c6f8ff8bdaa",
    "verify c4.cplx rp2.cplx k3.graph p3.graph --field Q --format json":
        "3839bcd6873927b0fe58bdf34ec35359aee21de116115eff45b2f939114950d2",
    "verify c4.cplx rp2.cplx k3.graph p3.graph --field Q --format text":
        "39ad21380d63dda24cec4348ca07adc6f25bc0206969749f64545ccd12dc0838",
    "verify corpus --format json":
        "69259d1282e364b4a3119582e1a48f3ab52fff1e4553281e92bc4a4f4b3d8de0",
    "verify corpus --format text":
        "357d2c51a603f00c5f46f8fcc2c798673e6718b9d8f42555753924f9b25e993a",
}

LARGER_EXPECTED = {
    "analyze general14.cplx --field 2":
        "3dfc472cc3ba136826146d4c6c9701a25ac96bd23fe1b47e2f7922050cf86a7b",
    "analyze general14.cplx --field 32003":
        "f071bbc9a7fab420fa303da43bf30b6f7db11b796215e9a890ba3ea56111adfe",
    "analyze general14.cplx --field Q":
        "836c7d0f3ac3bd66032a665c192d25a16ed7578e6fff179643b5e1a770028710",
    "analyze chordal16.graph --field 2":
        "22a395b235b1ee9a906ea3153bb4f6a2538f2b8a7e17a986ba6f2249a4353225",
    "analyze chordal16.graph --field 32003":
        "347214fb40586c47e381755f583f011673cd6200deb5317fb613cb27552c113f",
    "analyze chordal16.graph --field Q":
        "1f71ce2abdefc5e0383a288841a241f12a4d361341c0438395e00448168bd782",
}

CORPUS_ARGS = ("verify", "--count", "12", "--n-max", "8", "--seed", "5")


def _cases():
    for name in FIXTURES:
        for field in FIELDS:
            for fmt in ("text", "json"):
                yield (f"analyze {name} --field {field} --format {fmt}",
                       ("analyze", name, "--field", field, "--format", fmt))
    for field in FIELDS:
        for fmt in ("text", "json"):
            yield (f"verify {' '.join(FIXTURES)} --field {field} --format {fmt}",
                   ("verify",) + FIXTURES + ("--field", field, "--format", fmt))
    for fmt in ("text", "json"):
        yield (f"verify corpus --format {fmt}", CORPUS_ARGS + ("--format", fmt))


CASES = dict(_cases())


def report_sha256(argv, capsys) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("key", sorted(CASES))
def test_report_bytes_pinned(key, capsys, monkeypatch):
    # reports echo the input path, so run from the fixture directory
    monkeypatch.chdir(DATA_DIR)
    code, digest = report_sha256(CASES[key], capsys)
    assert code == 0
    assert digest == EXPECTED[key]


@pytest.mark.parametrize("key", sorted(LARGER_EXPECTED))
def test_larger_report_bytes_pinned(key, tmp_path, capsys, monkeypatch):
    # general_complex(14, 3) as a .cplx, and `gen-chordal 16 0.5 1`
    monkeypatch.chdir(tmp_path)
    write_complex(general_complex(14, 3), "general14.cplx")
    assert main(["gen-chordal", "16", "0.5", "1", "--out", "chordal16.graph"]) == 0
    code, digest = report_sha256(key.split() + ["--format", "json"], capsys)
    assert code == 0
    assert digest == LARGER_EXPECTED[key]
