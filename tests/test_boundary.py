"""The JSON boundary on raw values.

Loading a complex, morphism, height or triangle document makes no
`RingElement` and parses each distinct coefficient string of a document once
per load (nothing is kept across loads).  The writer formats raw values, and
its bytes are those of the per-entry rule it replaced, kept here as the
oracle: `str` of every element of `named_triples` (of `indexed_triples` for
the tau and homotopy blocks), written by a streaming
`json.dump(..., indent=1, sort_keys=True)` and a newline.  `save_scomplex`
writes the text itself, without the encoder; its oracle is
`json.dumps(scomplex_to_json(x), indent=1, sort_keys=True)` and a newline.
"""

import functools
import io
import json
import random

import pytest

from scx import cli, scomplex
from scx.functors import dual, suspend, tensor
from scx.gradedlin import GradedMatrix
from scx.heights import height_to_json, iota, kappa
from scx.linkfam import hopf_complex, torus_knot_summand, torus_link_complex, unknot_complex
from scx.randgen import rand_height_morphism, rand_morphism, rand_scomplex
from scx.rings import FRAC_LAURENT_Q, LAURENT_Z, Q, RingElement, Z, Zp, eval_t_at_one
from scx.scomplex import (
    SComplex,
    SMorphism,
    _gens_to_json,
    load_scomplex,
    morphism_from_json,
    morphism_to_json,
    ring_to_json,
    save_scomplex,
    scomplex_from_json,
    scomplex_json_text,
    scomplex_to_json,
)
from scx.solve import solve_triangle_witnesses
from scx.triangles import ExactTriangleData, cone_triangle, triangle_to_json

_RINGS = [Z, Zp(3), Q, LAURENT_Z, FRAC_LAURENT_Q]
_ALL_RINGS = [Z, Q, Zp(2), Zp(3), LAURENT_Z, FRAC_LAURENT_Q]
_MATRIX_KEYS = ("d", "v", "delta1", "delta2", "r", "s")


# -- the writer before raw-value formatting, the oracle


def _old_rows(m):
    return [[tn, sn, str(x)] for tn, sn, x in m.named_triples()]


def _old_indexed_rows(m):
    return [[tn, sn, str(v)] for tn, sn, v in m.indexed_triples()]


def _old_complex(x):
    bigr = {"gr_z": x.metadata.get("gr_z", {}), "gr_i": x.metadata.get("gr_i", {})}
    doc = {"ring": ring_to_json(x.ring), "modulus": x.modulus,
           "irreducible": _gens_to_json(x.irr, bigr), "reducible": _gens_to_json(x.red, bigr),
           "d": _old_rows(x.d), "v": _old_rows(x.v), "delta1": _old_rows(x.delta1),
           "delta2": _old_rows(x.delta2), "r": _old_rows(x.r)}
    if x.s is not None:
        doc["s"] = _old_rows(x.s)
    meta = {k: v for k, v in x.metadata.items() if k not in ("gr_z", "gr_i")}
    if meta:
        doc["metadata"] = meta
    return doc


def _old_morphism(f, include_complexes=True):
    doc = {"degree": f.degree, "lambda": _old_rows(f.lam), "mu": _old_rows(f.mu),
           "Delta1": _old_rows(f.delta1), "Delta2": _old_rows(f.delta2),
           "rho": _old_rows(f.rho)}
    if include_complexes:
        doc["source"] = _old_complex(f.source)
        doc["target"] = _old_complex(f.target)
    return doc


def _old_height(h):
    doc = _old_morphism(SMorphism(h.source, h.target, h.degree, h.lam, h.mu, h.delta1,
                                  h.delta2, h.tau_at(0)))
    doc.pop("rho")
    doc["height"] = h.height
    doc["tau"] = {str(i): _old_indexed_rows(t) for i, t in h.tau.items() if i <= 0}
    return doc


def _old_triangle(t):
    def hom(h):
        return {name: _old_indexed_rows(getattr(h, name)) for name in ("K", "L", "M1", "M2", "J")}

    return {"complexes": [_old_complex(c) for c in t.complexes],
            "morphisms": [_old_morphism(f, False) for f in t.morphisms],
            "homotopies": [hom(h) for h in t.homotopies],
            "n_maps": [None if n is None else _old_morphism(n, False) for n in t.n_maps]}


def _old_text(doc, **kwargs):
    out = io.StringIO()
    json.dump(doc, out, indent=1, sort_keys=True, **kwargs)
    out.write("\n")
    return out.getvalue()


def _text(doc):
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _tensor_pair():
    p = tensor(torus_link_complex(3), dual(torus_link_complex(4)))
    return p, dual(p)


# -- the writer's bytes


def test_family_documents_are_written_byte_for_byte_as_before(tmp_path, capsys):
    cases = [("unknot", (), unknot_complex()), ("hopf", (), hopf_complex())]
    cases += [("torus-link", ("--k", str(k)), torus_link_complex(k)) for k in range(1, 6)]
    cases += [("torus-knot", ("--k", str(k)), torus_knot_summand(k)) for k in range(2, 6)]
    for name, extra, x in cases:
        out = tmp_path / f"{name}{extra}.json"
        assert cli.main(["family", "--name", name, *extra, "--out", str(out)]) == 0
        assert out.read_text() == _old_text(_old_complex(x)), name
        capsys.readouterr()
        assert cli.main(["family", "--name", name, *extra, "--json"]) == 0
        assert capsys.readouterr().out == _old_text(_old_complex(x), default=str), name
    for x in _tensor_pair():
        out = tmp_path / "tensor.json"
        save_scomplex(x, out)
        assert out.read_text() == _old_text(_old_complex(x))


def test_morphism_height_and_triangle_documents_are_as_before():
    x = unknot_complex().base_change(eval_t_at_one())
    heights = [iota(x, 1), kappa(x, 1), kappa(x, 2)]
    docs = []
    for ring in _RINGS:
        rng = random.Random(31 + (ring.p or 0))
        for _ in range(3):
            a = rand_scomplex(ring, rng, max_rank=3)
            f = rand_morphism(a, a, rng, 0)
            docs.append((morphism_to_json(f), _old_morphism(f)))
            docs.append((morphism_to_json(f, include_complexes=False), _old_morphism(f, False)))
            t = cone_triangle(f)
            docs.append((triangle_to_json(t), _old_triangle(t)))
        if ring in (Z, Q, Zp(3)):
            heights += [rand_height_morphism(ring, rng, n) for n in (-1, 0, 1)]
    rng = random.Random(5)
    a = rand_scomplex(Q, rng, max_rank=3)
    t = cone_triangle(rand_morphism(a, a, rng, 0))
    homs, nmaps = solve_triangle_witnesses(t.complexes, t.morphisms,
                                           [t.iso_expression(j) for j in range(3)])
    solved = ExactTriangleData(t.complexes, t.morphisms, homs, nmaps)
    assert all(n is not None for n in solved.n_maps)
    docs.append((triangle_to_json(solved), _old_triangle(solved)))
    docs += [(height_to_json(h), _old_height(h)) for h in heights]
    assert any(doc["tau"] for doc, _ in docs[-len(heights):])
    for new, old in docs:
        assert _text(new) == _old_text(old)


def test_homology_json_output_is_as_before(tmp_path, capsys):
    p = _tensor_pair()[0]
    over_laurent, over_z = tmp_path / "p.json", tmp_path / "p1.json"
    save_scomplex(p, over_laurent)
    save_scomplex(p.base_change(eval_t_at_one()), over_z)
    for path, ring, which in ((over_laurent, "frac-laurent", "total"),
                              (over_laurent, "z", "irreducible"), (over_z, "q", "total"),
                              (over_z, "z2", "reducible"), (over_z, None, "total")):
        argv = ["homology", "--in", str(path), "--which", which, "--json"]
        capsys.readouterr()
        assert cli.main(argv + (["--ring", ring] if ring else [])) == 0
        x = cli._apply_ring(load_scomplex(path), ring)
        h = {"total": x.total_homology, "irreducible": x.irreducible_homology,
             "reducible": x.reducible_homology}[which]()
        assert capsys.readouterr().out == _old_text(cli._homology_payload(h), default=str)


# -- what loading does


def _documents(tmp_path):
    """(loader, argument) pairs: complexes over every ring kind, a tensor
    product, morphisms, heights and triangles, each written first."""
    loads = []
    for ring in _RINGS:
        rng = random.Random(47 + (ring.p or 0))
        a = rand_scomplex(ring, rng, max_rank=4)
        f = rand_morphism(a, a, rng, 0)
        loads.append((scomplex_from_json, scomplex_to_json(a)))
        loads.append((morphism_from_json, morphism_to_json(f)))
        path = tmp_path / f"triangle-{ring.kind}.json"
        path.write_text(json.dumps(triangle_to_json(cone_triangle(f))))
        loads.append((cli._triangle_from_file, path))
    for x in _tensor_pair():
        loads.append((scomplex_from_json, scomplex_to_json(x)))
    x = unknot_complex().base_change(eval_t_at_one())
    rng = random.Random(3)
    for i, h in enumerate([iota(x, 1), kappa(x, 2), rand_height_morphism(Q, rng, -1)]):
        path = tmp_path / f"height{i}.json"
        path.write_text(json.dumps(height_to_json(h)))
        loads.append((cli._height_from_file, path))
    return loads


def test_loading_a_document_makes_no_ring_element(tmp_path, monkeypatch):
    loads = _documents(tmp_path)
    made = []
    real = RingElement.__init__

    def counting(self, ring, val):
        made.append(ring)
        real(self, ring, val)

    monkeypatch.setattr(RingElement, "__init__", counting)
    for load, arg in loads:
        load(arg)
        assert not made, (load.__name__, len(made))
    assert RingElement(Z, 1) and made == [Z]  # the counter counts


@pytest.mark.parametrize("load", [load_scomplex, lambda p: scomplex_from_json(json.loads(p.read_text()))],
                         ids=["file", "document"])
def test_each_distinct_coefficient_of_a_document_is_parsed_once_per_load(tmp_path, monkeypatch,
                                                                          load):
    path = tmp_path / "p.json"
    save_scomplex(_tensor_pair()[0], path)
    doc = json.loads(path.read_text())
    matrices = [[row[2] for row in doc[key]] for key in _MATRIX_KEYS if key in doc]
    want = sorted({t for texts in matrices for t in texts})
    # the matrices repeat their coefficients, also across matrices
    assert len(want) < sum(len(set(texts)) for texts in matrices) < sum(map(len, matrices)) / 2
    calls = []
    real = scomplex.parse_raw
    monkeypatch.setattr(scomplex, "parse_raw",
                        lambda ring, text: calls.append(text) or real(ring, text))
    for _ in range(2):  # a second load of the same document parses it all again
        calls.clear()
        load(path)
        assert sorted(calls) == want


# -- the direct writer against its oracle


def _oracle_text(x):
    """The writer's oracle: the standard library's encoder on the document."""
    return json.dumps(scomplex_to_json(x), indent=1, sort_keys=True) + "\n"


def _rebuilt(x, rename=lambda n: n, metadata=None, s="keep"):
    """x with its generators renamed, its metadata replaced (kept when None)
    and its s-map replaced (kept by default; None drops it)."""
    irr, red = x.irr.shift(0, rename), x.red.shift(0, rename)

    def moved(m, source, target):
        return GradedMatrix(source, target, m.degree, m.entries)

    if s == "keep":
        s = x.s
    return SComplex(irr, red, moved(x.d, irr, irr), moved(x.v, irr, irr),
                    moved(x.delta1, irr, red), moved(x.delta2, red, irr),
                    moved(x.r, red, red), None if s is None else moved(s, red, red),
                    x.metadata if metadata is None else metadata)


# characters the encoder escapes beside ones it does not, so that names sort
# in one order as text and in another as JSON text
_ODD_CHARS = ['"', "#", "\\", "]", "\x01\x1f\n\t", " ", "\u00e9", "z", "\U0001d53d\u2200",
              "\x7f", "\uffff", ""]


def _writer_cases():
    cases = []
    for ring in _ALL_RINGS:
        rng = random.Random(61 + (ring.p or 0))
        for _ in range(12):
            cases.append(rand_scomplex(ring, rng, max_rank=6))
    hopf = hopf_complex()  # carries an s-map
    assert hopf.s is not None and cases[0].s is None
    # empty maps: an empty s-map, and no irreducible generators at all
    x = rand_scomplex(Z, random.Random(3), max_rank=3)
    unknot = unknot_complex()
    assert unknot.irr.rank == 0
    cases += [hopf, _rebuilt(hopf, s=None), _rebuilt(x, s=GradedMatrix.zero(x.red, x.red, -2)),
              unknot, torus_link_complex(2)]
    # odd names: quotes, backslashes, control, non-ASCII and non-BMP characters
    odd = tensor(torus_link_complex(3), dual(torus_link_complex(2)))
    names = {n: "g" + _ODD_CHARS[i % len(_ODD_CHARS)] + str(i)
             for i, n in enumerate(sorted(n for n, _ in odd.irr.gens + odd.red.gens))}
    texts = {json.dumps(n): n for n in names.values()}
    assert [texts[t] for t in sorted(texts)] != sorted(names.values())
    grz = {names[n]: v for n, v in odd.metadata.get("gr_z", {}).items()}
    first, second, *rest = sorted(names.values())
    meta = {"gr_z": {**grz, first: [1, {"b": None, "a": 2.5}]},
            "gr_i": {first: "1/2", second: 3, rest[0]: {"nested": ["x", (1, 2)]}},
            "name": "odd \u00e9 \"quoted\"",
            "nested": {"list": [[], {}, [1, [2, [3]]]], "none": None, "float": -0.25,
                       "nan": float("nan"), "tuple": (1, "two", 3.0), "empty": {}},
            "flag": True, "off": False, "big": 10 ** 30, "int keys": {2: "b", 1: [None]},
            "deep": functools.reduce(lambda v, k: {k: [v, k]}, "abcdefghijklmnopqrst", "end")}
    cases.append(_rebuilt(odd, lambda n: names[n], meta))
    cases.append(_rebuilt(suspend(odd, 1), lambda n: "\u00fc" + n, {"k": ["\U0001f600"]}))
    return cases


def test_the_writer_is_the_encoder_byte_for_byte(tmp_path):
    cases = _writer_cases()
    assert {x.ring for x in cases} >= set(_ALL_RINGS)
    assert any(x.s is not None for x in cases) and any(x.s is None for x in cases)
    for i, x in enumerate(cases):
        want = _oracle_text(x)
        assert scomplex_json_text(x) == want, i
        path = tmp_path / f"x{i}.json"
        save_scomplex(x, path)
        assert path.read_bytes() == want.encode("ascii"), i


def test_a_document_the_writer_cannot_encode_leaves_the_file_as_it_was(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("before")
    loop = [1]
    loop.append({"back": loop})
    for meta, error in (({"kept": {1.5, 2}}, TypeError), ({"loop": loop}, ValueError)):
        x = _rebuilt(unknot_complex(), metadata=meta)
        with pytest.raises(error):
            _oracle_text(x)
        with pytest.raises(error):
            save_scomplex(x, path)
        assert path.read_text() == "before"


@pytest.mark.parametrize("ring", _ALL_RINGS, ids=repr)
def test_what_is_saved_loads_back_equal(tmp_path, ring):
    rng = random.Random(83 + (ring.p or 0))
    xs = [rand_scomplex(ring, rng, max_rank=6) for _ in range(8)]
    if ring == LAURENT_Z:
        xs += [hopf_complex(), tensor(torus_link_complex(3), dual(torus_link_complex(4)))]
    for i, x in enumerate(xs):
        path = tmp_path / f"x{i}.json"
        save_scomplex(x, path)
        y = load_scomplex(path)
        for key in ("irr", "red") + _MATRIX_KEYS:
            assert getattr(x, key) == getattr(y, key), (i, key)
        assert dict(y.metadata) == dict(x.metadata)
        assert path.read_text() == _oracle_text(y)


# -- malformed rows: the loader's refusals, through the CLI


_BAD_ROWS = [
    ("v", [["xi1"], "xi2", "1"], "unknown target generator ['xi1']"),
    ("v", [{"a": 1}, "xi2", "1"], "unknown target generator {'a': 1}"),
    ("v", [7, "xi2", "1"], "unknown target generator 7"),
    ("v", ["xi9", "xi2", "1"], "unknown target generator 'xi9'"),
    ("v", ["xi1", ["xi2"], "1"], "unknown source generator ['xi2']"),
    ("delta1", ["theta+", {"b": [2]}, "1"], "unknown source generator {'b': [2]}"),
    ("v", ["xi1", 3, "1"], "unknown source generator 3"),
    ("v", ["xi1", "xi2", 1], "coefficient must be a string, got 1"),
    ("v", ["xi1", "xi2", None], "coefficient must be a string, got None"),
    ("v", ["xi1", "xi2", ["1"]], "coefficient must be a string, got ['1']"),
    ("v", ["xi1", "xi2"], "matrix entries are [target, source, coeff] triples"),
    ("v", ["xi1", "xi2", "1", "1"], "matrix entries are [target, source, coeff] triples"),
    ("v", "xi1", "matrix entries are [target, source, coeff] triples"),
    ("r", {"t": "theta+"}, "matrix entries are [target, source, coeff] triples"),
    ("d", ["xi1", "xi2", "1"], "inhomogeneous entry at (xi1,xi2): 1 - 3 != 3 mod 4"),
]


@pytest.mark.parametrize("key,row,message", _BAD_ROWS, ids=[m for _, _, m in _BAD_ROWS])
def test_a_malformed_row_is_refused_with_its_message(tmp_path, capsys, key, row, message):
    doc = scomplex_to_json(torus_link_complex(3).base_change(eval_t_at_one()))
    doc[key] = doc[key] + [row]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["homology", "--in", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"
