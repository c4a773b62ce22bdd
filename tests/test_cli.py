import json

import pytest

from scx.cli import build_parser, main
from scx.scomplex import load_scomplex


def run(*argv):
    return main(list(argv))


def test_family_verify_pipeline(tmp_path, capsys):
    out = tmp_path / "t8.json"
    assert run("family", "--name", "torus-link", "--k", "4", "--out", str(out)) == 0
    assert run("verify", "--in", str(out)) == 0
    x = load_scomplex(out)
    assert x.verify().ok  # every file the CLI writes re-loads and re-verifies


def test_froyshov_verb(tmp_path, capsys):
    out = tmp_path / "t8.json"
    run("family", "--name", "torus-link", "--k", "4", "--out", str(out))
    capsys.readouterr()
    assert run("froyshov", "--in", str(out), "--ring", "frac-laurent", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    lo, hi = doc["window"]
    assert doc["d"][str(lo)] == 2 and doc["d"][str(hi)] == 0
    assert doc["d"]["1"] == 1


def test_qa_verb(capsys):
    assert run("qa", "--det", "11", "--components", "1", "--json") == 0
    assert json.loads(capsys.readouterr().out)["rank"] == 5


def test_exit_codes(tmp_path, capsys):
    assert run("verify", "--in", str(tmp_path / "missing.json")) == 2
    out = tmp_path / "t4.json"
    run("family", "--name", "torus-link", "--k", "2", "--out", str(out))
    # froyshov over Z[T^{+-1}] is refused with the unsupported exit code
    assert run("froyshov", "--in", str(out)) == 3
    assert run("family", "--name", "twisted", "--p", "2", "--q", "1", "--k", "1") == 3
    # without --ring, homology and froyshov over Z[T^{+-1}] print one refusal each
    out = tmp_path / "t6.json"
    run("family", "--name", "torus-link", "--k", "3", "--out", str(out))
    capsys.readouterr()
    for verb, line in (
            ("homology", "unsupported: homology over LaurentZ is refused; "
                         "base-change to Z or a field first"),
            ("froyshov", "unsupported: Froyshov profile needs Z or field coefficients")):
        assert run(verb, "--in", str(out)) == 3
        assert capsys.readouterr().err == line + "\n"


def _set_degree_true(doc):
    doc["irreducible"][0]["degree"] = True


def _set_degree_text(doc):
    doc["irreducible"][0]["degree"] = "x"


def _set_coefficient_int(doc):
    doc["delta1"][0][2] = 7


def _set_generators_int(doc):
    doc["irreducible"] = 5


def _set_gr_i_list(doc):
    doc["irreducible"][0]["gr_i"] = [1]


def _set_gr_i_text(doc):
    doc["irreducible"][0]["gr_i"] = "x"


def _set_modulus_float(doc):
    doc["modulus"] = 2.0


def _set_modulus_float_four(doc):
    doc["modulus"] = 4.0


def _set_metadata_list(doc):
    doc["metadata"] = [1]


def _set_ring_kind_list(doc):
    doc["ring"] = {"kind": []}


def _set_ring_kind_object(doc):
    doc["ring"] = {"kind": {}}


def _set_p_text(doc):
    doc["ring"] = {"kind": "Zp", "p": "x"}


def _set_p_list(doc):
    doc["ring"] = {"kind": "Zp", "p": [3]}


def _set_p_float(doc):
    doc["ring"] = {"kind": "Zp", "p": 2.0}


def _set_p_infinite(doc):
    # json writes Infinity; the primality test never returns on it
    doc["ring"] = {"kind": "Zp", "p": float("inf")}


def _set_p_mersenne_61(doc):
    # prime, but refused by its size before it is trial-divided
    doc["ring"] = {"kind": "Zp", "p": 2 ** 61 - 1}


def _set_metadata_gr_z(doc):
    doc["metadata"] = {"gr_z": 5}


def _set_metadata_gr_i(doc):
    doc["metadata"] = {"gr_i": {"u": "1/2"}}


def _set_d_target_name_list(doc):
    doc["d"] = [[["u"], "u", "1"]]


def _set_d_source_name_object(doc):
    doc["d"] = [["u", {"u": 1}, "1"]]


@pytest.mark.parametrize("edit", [_set_degree_true, _set_degree_text,
                                  _set_coefficient_int, _set_generators_int,
                                  _set_gr_i_list, _set_gr_i_text, _set_modulus_float,
                                  _set_modulus_float_four, _set_metadata_list,
                                  _set_ring_kind_list, _set_ring_kind_object, _set_p_text,
                                  _set_p_list, _set_p_float, _set_p_infinite,
                                  _set_p_mersenne_61, _set_metadata_gr_z,
                                  _set_metadata_gr_i, _set_d_target_name_list,
                                  _set_d_source_name_object])
def test_malformed_complex_is_a_usage_error(tmp_path, capsys, edit):
    path = tmp_path / "o1.json"
    run("atomic", "--n", "1", "--out", str(path))
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("verify", "--in", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_repeated_main_calls_match_fresh_parsers(tmp_path, capsys):
    # main reuses one parser; a run of calls, a usage error among them, must
    # print and exit exactly as each call would with a newly built parser
    doc = str(tmp_path / "t4.json")
    calls = [["family", "--name", "torus-link", "--k", "2", "--out", doc],
             ["qa", "--det", "11", "--components", "1", "--json"],
             ["qa", "--det", "eleven", "--components", "1"],
             ["homology", "--in", doc, "--ring", "z", "--json"],
             ["no-such-verb"],
             ["verify", "--in", doc],
             ["qa", "--det", "11", "--components", "1", "--json"]]

    def outcomes(fresh):
        got = []
        for argv in calls:
            if fresh:
                build_parser.cache_clear()
            code = main(list(argv))
            out, err = capsys.readouterr()
            got.append((code, out, err))
        return got

    shared = outcomes(fresh=False)
    assert [code for code, _, _ in shared] == [0, 0, 2, 0, 2, 0, 0]
    assert shared == outcomes(fresh=True)
    assert shared[1] == shared[-1]


def test_metadata_gradings_refused_before_dual_and_suspend(tmp_path, capsys):
    path = tmp_path / "o1.json"
    run("atomic", "--n", "1", "--out", str(path))
    doc = json.loads(path.read_text())
    doc["metadata"] = {"gr_z": 5}
    path.write_text(json.dumps(doc))
    out = str(tmp_path / "out.json")
    assert run("dual", "--in", str(path), "--out", out) == 2
    assert run("suspend", "--in", str(path), "--n", "0", "--out", out) == 2


def test_unreadable_input_is_a_usage_error(tmp_path, capsys):
    binary = tmp_path / "latin1.json"
    binary.write_bytes(b'{"ring": "\xff"}')
    for path in (tmp_path, binary):  # a directory, then a file that is not UTF-8
        capsys.readouterr()
        assert run("verify", "--in", str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_morphism_degree_must_be_an_integer(tmp_path, capsys):
    from scx.functors import atomic
    from scx.scomplex import SMorphism, morphism_to_json

    doc = morphism_to_json(SMorphism.identity(atomic(1)))
    doc["degree"] = "x"
    path = tmp_path / "map.json"
    path.write_text(json.dumps(doc))
    assert run("cone", "--map", str(path), "--out", str(tmp_path / "c.json")) == 2
    assert capsys.readouterr().err.startswith("error: morphism degree")


def test_functor_verbs(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    run("family", "--name", "torus-knot", "--k", "2", "--out", str(a))
    assert run("dual", "--in", str(a), "--out", str(b)) == 0
    assert run("verify", "--in", str(b)) == 0
    c = tmp_path / "c.json"
    assert run("suspend", "--in", str(a), "--n", "-1", "--out", str(c)) == 0
    assert run("verify", "--in", str(c)) == 0
    t = tmp_path / "t.json"
    assert run("tensor", "--a", str(a), "--b", str(b), "--out", str(t)) == 0
    assert run("verify", "--in", str(t)) == 0
    o = tmp_path / "o.json"
    assert run("atomic", "--n", "-2", "--out", str(o)) == 0
    assert run("verify", "--in", str(o)) == 0


_IJP_ROWS = ("hat differential squares", "check differential squares", "i is a chain map",
             "j is a chain map", "p is a chain map", "exact at hat", "exact at bar",
             "exact at check")
_IJP_PASS = {"checks": [{"name": n, "offender": None, "ok": True} for n in _IJP_ROWS],
             "ok": True}

# `scx equivariant --n 3 --json --exactness` on O(1) and on the trefoil
# summand (`--ring z`): (document, flavor) -> payload, as printed when the
# models and the i/j/p maps were built by per-column rules
_EQUIVARIANT_PINNED = {
    ("O(1)", "hat"): {"differential": [], "rank": 4},
    ("O(1)", "check"): {"differential": [["x-1.w", "c.u", "1"]], "rank": 4},
    ("O(1)", "bar"): {"differential": [], "rank": 6},
    ("trefoil", "hat"): {"differential": [], "rank": 4},
    ("trefoil", "check"): {"differential": [], "rank": 4},
    ("trefoil", "bar"): {"differential": [], "rank": 6},
}


def test_equivariant_verb(tmp_path, capsys):
    o = tmp_path / "o1.json"
    run("atomic", "--n", "1", "--out", str(o))
    tre = tmp_path / "trefoil.json"
    run("family", "--name", "torus-knot", "--k", "2", "--out", str(tre))
    capsys.readouterr()
    assert run("equivariant", "--in", str(o), "--flavor", "check", "--n", "3",
               "--exactness") == 0
    capsys.readouterr()
    for (name, flavor), pinned in _EQUIVARIANT_PINNED.items():
        path, ring = (o, []) if name == "O(1)" else (tre, ["--ring", "z"])
        assert run("equivariant", "--in", str(path), "--flavor", flavor, "--n", "3",
                   *ring, "--json", "--exactness") == 0
        want = dict(pinned, exactness=_IJP_PASS, flavor=flavor, ok=True)
        assert capsys.readouterr().out == json.dumps(want, indent=1, sort_keys=True) + "\n"


def test_equivariant_exactness_names_the_offender_of_a_failing_square(tmp_path, capsys):
    # over Q with C = a -> b -> c and d d (a) = c: both model differentials
    # fail to square to zero, and their rows name the first offender
    doc = {"d": [["b", "a", "1"], ["c", "b", "1"]], "delta1": [], "delta2": [],
           "irreducible": [{"degree": 2, "name": "a"}, {"degree": 1, "name": "b"},
                           {"degree": 0, "name": "c"}],
           "metadata": {"name": "d2"}, "modulus": 4, "r": [], "reducible": [],
           "ring": {"kind": "Q"}, "v": []}
    path = tmp_path / "d2.json"
    path.write_text(json.dumps(doc))
    assert run("equivariant", "--in", str(path), "--flavor", "hat", "--n", "1",
               "--json", "--exactness") == 1
    checks = {c["name"]: (c["ok"], c["offender"])
              for c in json.loads(capsys.readouterr().out)["exactness"]["checks"]}
    assert checks["hat differential squares"] == (False, ["c.c", "c.a", "1"])
    assert checks["check differential squares"] == (False, ["c.c", "c.a", "1"])
    assert checks["exact at hat"] == (False, None)
    assert checks["i is a chain map"] == (True, None)
    assert run("equivariant", "--in", str(path), "--flavor", "check", "--n", "1",
               "--exactness") == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[1] == "FAIL  hat differential squares  (first offender c.c <- c.a: 1)"


def test_skein_chi_verb(tmp_path, capsys):
    tree = {"triple": {"eps1": 1, "eps2": -1, "solve": "Lpp",
                       "L": {"leaf": {"components": 2, "xi": -1, "name": "T(2,4)"}},
                       "Lp": {"leaf": {"components": 1, "chi": 0}},
                       "Lpp": {"leaf": {"components": 1, "name": "T(2,5)"}}}}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    capsys.readouterr()
    assert run("skein-chi", "--in", str(path), "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["chi"] == "-2"


@pytest.mark.parametrize("tree,message", [
    ({"leaf": 5}, "leaf must be an object, got 5"),
    ({"leaf": {"components": 1, "chi": "abc"}},
     "leaf chi must be a rational number, got 'abc'"),
    ({"triple": {"eps2": 1, "L": {"leaf": {"components": 2, "chi": 0}},
                 "Lp": {"leaf": {"components": 1, "chi": 0}},
                 "Lpp": {"leaf": {"components": 1, "chi": 0}}}}, "triple needs eps1"),
    ({"leaf": {"family": 5}}, "leaf family must be an object, got 5"),
    ({"leaf": {"family": {"kind": "torus2"}}}, "torus2 family needs key 'k'"),
    ({"leaf": {"components": "2", "xi": 1}}, "leaf components must be an integer, got '2'"),
])
def test_malformed_skein_tree_is_a_usage_error(tmp_path, capsys, tree, message):
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    capsys.readouterr()
    assert run("skein-chi", "--in", str(path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def _chain_of_sums(levels):
    """A skein tree whose chi is a sum of `levels` leaves with 1000-digit
    denominators that share almost no factor: each triple solves its Lp, so
    the recursion reads its L leaf and the triple below."""
    node = {"leaf": {"components": 1, "chi": f"1/{10 ** 999 + levels}"}}
    for i in range(levels):
        node = {"triple": {"eps1": 1, "eps2": 1, "solve": "Lp",
                           "L": {"leaf": {"components": 2, "chi": f"1/{10 ** 999 + i}"}},
                           "Lp": {"leaf": {"components": 1, "name": f"K{i}"}},
                           "Lpp": node}}
    return node


@pytest.mark.parametrize("tree,message", [
    ({"leaf": {"components": 20000, "xi": 1}},
     "leaf components must be between 1 and 1000, got 20000"),
    ({"leaf": {"components": 0, "chi": 1}}, "leaf components must be between 1 and 1000, got 0"),
    ({"leaf": {"components": 1, "chi": "1e100000000"}},
     "leaf chi must be a rational number, got '1e100000000'"),
    ({"leaf": {"components": 1, "xi": "1e5"}}, "leaf xi must be a rational number, got '1e5'"),
    ({"leaf": {"components": 1, "chi": True}}, "leaf chi must be a rational number, got True"),
    ({"leaf": {"components": 1, "chi": 0.5}}, "leaf chi must be a rational number, got 0.5"),
    ({"leaf": {"components": 1, "chi": "1/0"}}, "leaf chi must be a rational number, got '1/0'"),
    ({"leaf": {"components": 1, "xi": "1/" + "7" * 1001}},
     "leaf xi may have at most 1000 digits above and below the fraction bar"),
    ({"leaf": {"components": 1, "chi": -10 ** 1000}},
     "leaf chi may have at most 1000 digits above and below the fraction bar"),
    (_chain_of_sums(6), "chi of 'K3' has more than 4000 digits"),
])
def test_skein_tree_past_a_bound_is_a_usage_error(tmp_path, capsys, tree, message):
    # at the parent the first ends in a ValueError traceback (an int of more
    # than 4300 digits does not print) and the third runs without end
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    capsys.readouterr()
    assert run("skein-chi", "--in", str(path)) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_skein_tree_at_the_bounds_prints(tmp_path, capsys):
    from fractions import Fraction

    big = 10 ** 1000 - 1
    tree = {"triple": {"eps1": 1, "eps2": 1, "solve": "L",
                       "L": {"leaf": {"components": 1000, "name": "L"}},
                       "Lp": {"leaf": {"components": 999, "xi": f"-{big}/{big - 1}"}},
                       "Lpp": {"leaf": {"components": 999, "chi": big}}}}
    path = tmp_path / "tree.json"
    path.write_text(json.dumps(tree))
    capsys.readouterr()
    assert run("skein-chi", "--in", str(path), "--json") == 0
    want = -Fraction(2) ** 997 * Fraction(big, big - 1) + big  # case I: delta 0
    assert json.loads(capsys.readouterr().out)["chi"] == str(want)
    path.write_text(json.dumps(_chain_of_sums(3)))  # a denominator of 3,996 digits
    assert run("skein-chi", "--in", str(path)) == 0


@pytest.mark.parametrize("verb", ["verify", "skein-chi"])
def test_deeply_nested_document_is_a_usage_error(tmp_path, capsys, verb):
    # json.load raises RecursionError; at the parent it escaped as a traceback
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000)
    capsys.readouterr()
    assert run(verb, "--in", str(path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: input nested too deeply: ") and err.count("\n") == 1


def test_homology_verb(tmp_path, capsys):
    out = tmp_path / "t6.json"
    run("family", "--name", "torus-link", "--k", "3", "--out", str(out))
    capsys.readouterr()
    assert run("homology", "--in", str(out), "--which", "irreducible",
               "--ring", "frac-laurent", "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["total_rank"] == 2 and doc["euler"] == -2


def test_deterministic_output(tmp_path, capsys):
    out = tmp_path / "x.json"
    run("family", "--name", "torus-link", "--k", "3", "--out", str(out))
    first = out.read_bytes()
    out2 = tmp_path / "y.json"
    run("family", "--name", "torus-link", "--k", "3", "--out", str(out2))
    assert first == out2.read_bytes()


def test_family_report(capsys):
    assert run("family", "--name", "twisted", "--p", "3", "--q", "5", "--k", "1",
               "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["determinant"] == 1 and doc["signatures"] == {"o": -8}


def test_cone_verb(tmp_path):
    a = tmp_path / "a.json"
    run("family", "--name", "torus-knot", "--k", "2", "--out", str(a))
    x = load_scomplex(a)
    from scx.scomplex import SMorphism, morphism_to_json

    m = tmp_path / "m.json"
    m.write_text(json.dumps(morphism_to_json(SMorphism.identity(x))))
    c = tmp_path / "cone.json"
    assert run("cone", "--map", str(m), "--out", str(c)) == 0
    assert run("verify", "--in", str(c)) == 0


def test_heights_compose_verb(tmp_path, capsys):
    from scx.heights import height_to_json, iota, kappa
    from scx.linkfam import unknot_complex
    from scx.rings import eval_t_at_one

    x = unknot_complex().base_change(eval_t_at_one())
    f = tmp_path / "f.json"
    g = tmp_path / "g.json"
    f.write_text(json.dumps(height_to_json(iota(x, 1))))
    g.write_text(json.dumps(height_to_json(kappa(x, 1))))
    capsys.readouterr()
    assert run("heights-compose", "--f", str(f), "--g", str(g), "--json") == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["height"] == 0 and doc["strong"] is True


def _heights_compose_pairs(tmp_path):
    """(name, f document, g document) of seeded height morphisms over Q and
    Z/2: kappa/iota chains down to depth 3, and one f that does not
    verify."""
    import random

    from scx.functors import suspend
    from scx.gradedlin import GradedMatrix
    from scx.heights import HeightMorphism, height_to_json, iota, kappa
    from scx.randgen import rand_morphism, rand_scomplex
    from scx.rings import Q, Zp

    def doc(h):
        path = tmp_path / f"h{len(list(tmp_path.iterdir()))}.json"
        path.write_text(json.dumps(height_to_json(h)))
        return path

    out = []
    for ring in (Q, Zp(2)):
        rng = random.Random(f"heights-compose {ring}")
        x = rand_scomplex(ring, rng, max_rank=4, r_perfect=True, allow_cone=False)
        while x.delta1.is_zero or x.delta2.is_zero:
            x = rand_scomplex(ring, rng, max_rank=4, r_perfect=True, allow_cone=False)
        for n in (1, 2, 3):
            sx = suspend(x, n)
            pairs = {
                "iota.kappa": (kappa(x, n), iota(x, n)),
                "kappa.iota": (iota(x, n), kappa(x, n)),
                "kappa.h": (HeightMorphism.from_morphism(rand_morphism(sx, sx, rng, 0)),
                             kappa(x, n)),
                "h.kappa": (kappa(x, n),
                               HeightMorphism.from_morphism(rand_morphism(x, x, rng, 0))),
            }
            for what, (f, g) in pairs.items():
                name = f"{ring} {what} {n}"
                out.append((name, doc(f), doc(g)))
        # lambda + 1 breaks relation 2 by delta1
        m = rand_morphism(x, x, rng, 0)
        bad = HeightMorphism.from_components(x, x, 0, m.lam + GradedMatrix.identity(x.irr), m.mu,
                                             m.delta1, m.delta2, {0: m.rho})
        name = f"{ring} broken"
        out.append((name, doc(bad), doc(iota(x, 1))))
    return out


# `scx heights-compose` on `_heights_compose_pairs`: name -> (exit code,
# text line, --json payload), as printed before the composite was read off
# the lifts into the suspension tower
_HEIGHTS_COMPOSE_PINNED = {
    'Q iota.kappa 1': (0, 'composite height 0 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': 0, 'ok': True, 'strong': True}),
    'Q kappa.iota 1': (0, 'composite height 0 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': 0, 'ok': True, 'strong': True}),
    'Q kappa.h 1': (0, 'composite height -1 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': -1, 'ok': True, 'strong': True}),
    'Q h.kappa 1': (0, 'composite height 8 (not strong), degree 0, verified: True\n',
        {'degree': 0, 'height': 8, 'ok': True, 'strong': False}),
    'Q iota.kappa 2': (0, 'composite height 0 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': 0, 'ok': True, 'strong': True}),
    'Q kappa.iota 2': (0, 'composite height 0 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': 0, 'ok': True, 'strong': True}),
    'Q kappa.h 2': (0, 'composite height -2 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': -2, 'ok': True, 'strong': True}),
    'Q h.kappa 2': (0, 'composite height -2 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': -2, 'ok': True, 'strong': True}),
    'Q iota.kappa 3': (0, 'composite height 0 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': 0, 'ok': True, 'strong': True}),
    'Q kappa.iota 3': (0, 'composite height 0 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': 0, 'ok': True, 'strong': True}),
    'Q kappa.h 3': (0, 'composite height -3 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': -3, 'ok': True, 'strong': True}),
    'Q h.kappa 3': (0, 'composite height -3 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': -3, 'ok': True, 'strong': True}),
    'Q broken': (1, 'composite height 1 (strong), degree 0, verified: False\n',
        {'degree': 0, 'height': 1, 'ok': False, 'strong': True}),
    'Z/2 iota.kappa 1': (0, 'composite height 0 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': 0, 'ok': True, 'strong': True}),
    'Z/2 kappa.iota 1': (0, 'composite height 0 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': 0, 'ok': True, 'strong': True}),
    'Z/2 kappa.h 1': (0, 'composite height -1 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': -1, 'ok': True, 'strong': True}),
    'Z/2 h.kappa 1': (0, 'composite height 10 (not strong), degree 0, verified: True\n',
        {'degree': 0, 'height': 10, 'ok': True, 'strong': False}),
    'Z/2 iota.kappa 2': (0, 'composite height 0 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': 0, 'ok': True, 'strong': True}),
    'Z/2 kappa.iota 2': (0, 'composite height 0 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': 0, 'ok': True, 'strong': True}),
    'Z/2 kappa.h 2': (0, 'composite height 12 (not strong), degree 0, verified: True\n',
        {'degree': 0, 'height': 12, 'ok': True, 'strong': False}),
    'Z/2 h.kappa 2': (0, 'composite height -2 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': -2, 'ok': True, 'strong': True}),
    'Z/2 iota.kappa 3': (0, 'composite height 0 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': 0, 'ok': True, 'strong': True}),
    'Z/2 kappa.iota 3': (0, 'composite height 0 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': 0, 'ok': True, 'strong': True}),
    'Z/2 kappa.h 3': (0, 'composite height -3 (strong), degree 0, verified: True\n',
        {'degree': 0, 'height': -3, 'ok': True, 'strong': True}),
    'Z/2 h.kappa 3': (0, 'composite height 14 (not strong), degree 0, verified: True\n',
        {'degree': 0, 'height': 14, 'ok': True, 'strong': False}),
    'Z/2 broken': (1, 'composite height 1 (strong), degree 0, verified: False\n',
        {'degree': 0, 'height': 1, 'ok': False, 'strong': True}),
}


def test_heights_compose_output_is_pinned(tmp_path, capsys):
    got = {}
    for name, f, g in _heights_compose_pairs(tmp_path):
        capsys.readouterr()
        code = run("heights-compose", "--f", str(f), "--g", str(g))
        text = capsys.readouterr().out
        assert run("heights-compose", "--f", str(f), "--g", str(g), "--json") == code
        got[name] = (code, text, json.loads(capsys.readouterr().out))
    assert got == _HEIGHTS_COMPOSE_PINNED


def test_triangle_verify_verb(tmp_path, capsys):
    import random

    from scx.randgen import rand_morphism, rand_scomplex
    from scx.rings import Q
    from scx.triangles import cone_triangle, triangle_to_json

    rng = random.Random(41)
    x = rand_scomplex(Q, rng, max_rank=3)
    t = cone_triangle(rand_morphism(x, x, rng, 0))
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(triangle_to_json(t)))
    assert run("triangle-verify", "--in", str(path)) == 0


def test_triangle_verify_verb_on_solved_witnesses(tmp_path, capsys):
    # witnesses re-derived by the joint linear solve serialize like the
    # closed-form ones, their N maps included, and verify from the file
    import random

    from scx.randgen import rand_morphism, rand_scomplex
    from scx.rings import Q
    from scx.solve import solve_triangle_witnesses
    from scx.triangles import ExactTriangleData, cone_triangle, triangle_to_json

    rng = random.Random(5)
    x = rand_scomplex(Q, rng, max_rank=3)
    t = cone_triangle(rand_morphism(x, x, rng, 0))
    targets = [t.iso_expression(j) for j in range(3)]
    homs, nmaps = solve_triangle_witnesses(t.complexes, t.morphisms, targets)
    solved = ExactTriangleData(t.complexes, t.morphisms, homs, nmaps)
    doc = triangle_to_json(solved)
    assert all(n is not None for n in doc["n_maps"])
    path = tmp_path / "solved.json"
    path.write_text(json.dumps(doc))
    assert run("triangle-verify", "--in", str(path)) == 0


_LONG = "1" * 5000  # more digits than int() converts
_FUZZ_VALUES = (None, True, 0, -1, 2.0, "", "x", [], [1], {}, {"a": 1}, _LONG)
_REMOVED = object()  # the fuzz value that deletes the field


def _fields(obj, path=()):
    """Every key path and list index path below the document root."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return
    for k, v in items:
        yield path + (k,)
        yield from _fields(v, path + (k,))


def _with_field(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for k in path[:-1]:
        node = node[k]
    if value is _REMOVED:
        if isinstance(node, list) or path[-1] in node:
            del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _fuzz_seeds(tmp_path, src):
    """(document, fields to fuzz, verb argvs that read it from `src`): a
    complex of each size, a height morphism, an exact triangle, a skein
    tree and a morphism."""
    from scx.functors import atomic
    from scx.heights import height_to_json, iota, kappa
    from scx.linkfam import unknot_complex
    from scx.rings import eval_t_at_one
    from scx.scomplex import SMorphism, morphism_to_json
    from scx.triangles import cone_triangle, triangle_to_json

    seeds = []
    verbs = (["verify", "--in", str(src)],
             ["dual", "--in", str(src), "--out", str(tmp_path / "out.json")])
    for args in (("atomic", "--n", "1"), ("family", "--name", "torus-link", "--k", "4")):
        path = tmp_path / "doc.json"
        assert run(*args, "--out", str(path)) == 0
        doc = json.loads(path.read_text())
        seeds.append((doc, list(_fields(doc)) + [("ring", "p")], verbs))
    x = unknot_complex().base_change(eval_t_at_one())
    g = tmp_path / "g.json"
    g.write_text(json.dumps(height_to_json(kappa(x, 1))))
    f = height_to_json(iota(x, 1))
    seeds.append((f, list(_fields(f)) + [("tau", "x")],
                  (["heights-compose", "--f", str(src), "--g", str(g)],)))
    t = triangle_to_json(cone_triangle(SMorphism.identity(atomic(1))))
    seeds.append((t, list(_fields(t)), (["triangle-verify", "--in", str(src)],)))
    tree = {"triple": {"eps1": 1, "eps2": -1, "solve": "Lpp",
                       "L": {"leaf": {"components": 2, "xi": -1, "name": "T(2,4)"}},
                       "Lp": {"leaf": {"family": {"kind": "torus2", "k": 3}}},
                       "Lpp": {"leaf": {"components": 1, "chi": "0"}}}}
    seeds.append((tree, list(_fields(tree)), (["skein-chi", "--in", str(src)],)))
    m = morphism_to_json(SMorphism.identity(x))
    seeds.append((m, list(_fields(m)),
                  (["cone", "--map", str(src), "--out", str(tmp_path / "cone.json")],)))
    return seeds


def test_loader_fuzz_exits_with_a_known_code(tmp_path, capsys):
    # every field of six valid documents (two complexes, a height morphism,
    # a triangle, a skein tree and a morphism; plus the absent ring.p and a
    # tau key), one at a time, set to each value of a fixed list or removed:
    # each verb that reads the document (verify, then dual on what the
    # loader accepts) must return an exit code and never raise; refusals
    # print one line
    src = tmp_path / "in.json"
    escaped = []
    seen = set()
    for doc, fields, verbs in _fuzz_seeds(tmp_path, src):
        for field in fields:
            for value in _FUZZ_VALUES + (_REMOVED,):
                src.write_text(json.dumps(_with_field(doc, field, value)))
                for argv in verbs:
                    capsys.readouterr()
                    try:
                        code = main(argv)
                    except Exception as exc:  # noqa: BLE001 - collected and reported below
                        escaped.append((argv[0], field, value, repr(exc)))
                        break
                    err = capsys.readouterr().err
                    if code not in (0, 1, 2, 3) or (code >= 2 and err.count("\n") != 1):
                        escaped.append((argv[0], field, value, code, err))
                    seen.add((argv[0], code))
                    if code == 2:
                        break
    assert not escaped, escaped[:5]
    # each seed reaches its verb both as a usable document and as a refused one
    for verb in ("verify", "heights-compose", "triangle-verify", "skein-chi", "cone"):
        assert (verb, 2) in seen and {(verb, 0), (verb, 1)} & seen, verb


def _long_integer_texts(doc, coefficient, integer):
    """doc as JSON text three times: the coefficient string at path
    `coefficient` set to 5,000 digits, then to T^ with 5,000 digits, and the
    integer at path `integer` set to a bare JSON integer of 5,000 digits."""
    texts = [json.dumps(_with_field(doc, coefficient, text)) for text in (_LONG, f"T^{_LONG}")]
    texts.append(json.dumps(_with_field(doc, integer, "@long@")).replace('"@long@"', _LONG))
    return texts


def test_over_long_integers_are_usage_errors(tmp_path, capsys):
    # each ended in a ValueError traceback (exit 1) in every verb that loads;
    # each refusal is one line of under 200 characters
    from scx.functors import atomic
    from scx.heights import height_to_json, iota
    from scx.linkfam import unknot_complex
    from scx.rings import eval_t_at_one
    from scx.scomplex import SMorphism, morphism_to_json, save_scomplex
    from scx.triangles import cone_triangle, triangle_to_json

    src, good, out = tmp_path / "in.json", tmp_path / "good.json", str(tmp_path / "out.json")
    x = atomic(1)
    save_scomplex(x, good)
    complex_doc = json.loads(good.read_text())
    tree = {"leaf": {"components": 2, "chi": "1"}}
    cases = [
        (complex_doc, ("delta1", 0, 2), ("irreducible", 0, "degree"),
         [["verify", "--in", str(src)], ["homology", "--in", str(src)],
          ["dual", "--in", str(src), "--out", out], ["suspend", "--in", str(src), "--n", "1", "--out", out],
          ["tensor", "--a", str(src), "--b", str(good), "--out", out],
          ["tensor", "--a", str(good), "--b", str(src), "--out", out],
          ["equivariant", "--in", str(src)], ["froyshov", "--in", str(src)],
          ["cone", "--map", str(tmp_path / "map.json"), "--source", str(src), "--out", out]]),
        (morphism_to_json(SMorphism.identity(x)), ("lambda", 0, 2), ("degree",),
         [["cone", "--map", str(src), "--out", out]]),
        (height_to_json(iota(unknot_complex().base_change(eval_t_at_one()), 1)),
         ("Delta2", 0, 2), ("height",),
         [["heights-compose", "--f", str(src), "--g", str(src)]]),
        (triangle_to_json(cone_triangle(SMorphism.identity(x))),
         ("homotopies", 0, "K", 0, 2), ("complexes", 1, "modulus"),
         [["triangle-verify", "--in", str(src)]]),
        (tree, ("leaf", "chi"), ("leaf", "components"), [["skein-chi", "--in", str(src)]]),
    ]
    (tmp_path / "map.json").write_text(json.dumps(morphism_to_json(SMorphism.identity(x), False)))
    for doc, coefficient, integer, verbs in cases:
        for text in _long_integer_texts(doc, coefficient, integer):
            src.write_text(text)
            for argv in verbs:
                capsys.readouterr()
                assert main(argv) == 2, argv
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1, err
                # the refusal echoes the long value clipped, not in full
                assert len(err) < 200, (argv, len(err), err[:300])


@pytest.mark.parametrize("key", ["source", "target"])
def test_height_document_missing_a_key_is_a_usage_error(tmp_path, capsys, key):
    from scx.heights import height_to_json, iota
    from scx.linkfam import unknot_complex
    from scx.rings import eval_t_at_one

    doc = height_to_json(iota(unknot_complex().base_change(eval_t_at_one()), 1))
    f = tmp_path / "f.json"
    f.write_text(json.dumps(doc))
    del doc[key]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    for argv in (["--f", str(bad), "--g", str(f)], ["--f", str(f), "--g", str(bad)]):
        capsys.readouterr()
        assert run("heights-compose", *argv) == 2
        err = capsys.readouterr().err
        assert err == f"error: height morphism document is missing key {key!r}\n"


def test_height_document_with_a_non_integer_tau_key_is_a_usage_error(tmp_path, capsys):
    from scx.heights import height_to_json, iota
    from scx.linkfam import unknot_complex
    from scx.rings import eval_t_at_one

    doc = height_to_json(iota(unknot_complex().base_change(eval_t_at_one()), 1))
    doc["tau"] = {"zero": []}
    f = tmp_path / "f.json"
    f.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("heights-compose", "--f", str(f), "--g", str(f)) == 2
    assert capsys.readouterr().err == "error: tau key 'zero' is not an integer\n"


@pytest.mark.parametrize("key", ["complexes", "morphisms", "homotopies"])
def test_triangle_document_missing_a_key_is_a_usage_error(tmp_path, capsys, key):
    from scx.functors import atomic
    from scx.scomplex import SMorphism
    from scx.triangles import cone_triangle, triangle_to_json

    doc = triangle_to_json(cone_triangle(SMorphism.identity(atomic(1))))
    del doc[key]
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("triangle-verify", "--in", str(path)) == 2
    assert capsys.readouterr().err == f"error: triangle document is missing key {key!r}\n"


def _cone_triangle_doc():
    from scx.functors import atomic
    from scx.scomplex import SMorphism
    from scx.triangles import cone_triangle, triangle_to_json

    return triangle_to_json(cone_triangle(SMorphism.identity(atomic(1))))


def test_triangle_homotopy_with_an_unknown_key_is_a_usage_error(tmp_path, capsys):
    # the extra key was ignored and the triangle verified (exit 0)
    doc = _cone_triangle_doc()
    doc["homotopies"][1]["Kx"] = []
    doc["homotopies"][1]["A"] = doc["homotopies"][1]["K"]
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("triangle-verify", "--in", str(path)) == 2
    assert capsys.readouterr().err == "error: unknown homotopy keys ['A', 'Kx']\n"


@pytest.mark.parametrize("key, row, text", [
    ("K", ["B.xi1", "xi1", "1"], "inhomogeneous entry at (B.xi1,xi1): 1 - 1 != 1 mod 4"),
    ("M2", ["A.xi1", "theta+", "1"], "inhomogeneous entry at (A.xi1,theta+): 2 - 0 != 0 mod 4"),
    ("J", ["xi1", "theta+", "1"], "unknown target generator 'xi1'"),
])
def test_triangle_homotopy_block_of_the_wrong_shape_is_a_usage_error(tmp_path, capsys, key,
                                                                     row, text):
    from scx.linkfam import torus_link_complex
    from scx.scomplex import SMorphism
    from scx.triangles import cone_triangle, triangle_to_json

    doc = triangle_to_json(cone_triangle(SMorphism.identity(torus_link_complex(2))))
    doc["homotopies"][0][key] = [row]
    path = tmp_path / "tri.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("triangle-verify", "--in", str(path)) == 2
    assert capsys.readouterr().err == f"error: {text}\n"


@pytest.mark.parametrize("degree", [0, 3, -1, "1", True, None])
def test_triangle_n_map_of_a_degree_other_than_1_is_a_usage_error(tmp_path, capsys, degree):
    # the N map's degree was overwritten with 1 without a word
    from scx.scomplex import SMorphism, morphism_to_json, scomplex_from_json

    doc = _cone_triangle_doc()
    c0 = scomplex_from_json(doc["complexes"][0])
    n = morphism_to_json(SMorphism.zero(c0, c0, 1), include_complexes=False)
    path = tmp_path / "tri.json"
    doc["n_maps"][0] = n
    path.write_text(json.dumps(doc))
    assert run("triangle-verify", "--in", str(path)) == 0
    doc["n_maps"][0] = dict(n, degree=degree)
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run("triangle-verify", "--in", str(path)) == 2
    assert capsys.readouterr().err == f"error: an N map must have degree 1, got {degree!r}\n"


def test_homology_json_reports_torsion_in_a_degree_of_free_rank_zero(tmp_path, capsys):
    # d(a) = 2b over Z: H_0 = Z/2 with free rank 0
    doc = {"ring": {"kind": "Z"}, "modulus": 4,
           "irreducible": [{"name": "a", "degree": 1}, {"name": "b", "degree": 0}],
           "reducible": [], "d": [["b", "a", "2"]], "v": [], "delta1": [], "delta2": [],
           "r": []}
    path = tmp_path / "z2.json"
    path.write_text(json.dumps(doc))
    # the total complex C + C[-1] + R holds the torsion of C twice, shifted
    for which, torsion in (("irreducible", {"0": [2]}), ("total", {"0": [2], "1": [2]})):
        capsys.readouterr()
        assert run("homology", "--in", str(path), "--which", which, "--json") == 0
        got = json.loads(capsys.readouterr().out)
        assert got == {"ranks": {}, "torsion": torsion, "total_rank": 0, "euler": 0}


# d(a) = b and d(b) = a over Z, modulus 2: d.d = 1 at (a, a)
_SQUARE_NOT_ZERO = {"ring": {"kind": "Z"}, "modulus": 2,
                    "irreducible": [{"name": "a", "degree": 0}, {"name": "b", "degree": 1}],
                    "reducible": [], "d": [["b", "a", "1"], ["a", "b", "1"]],
                    "v": [], "delta1": [], "delta2": [], "r": []}


def test_froyshov_refuses_a_document_that_fails_verify(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_SQUARE_NOT_ZERO))
    capsys.readouterr()
    for flags in ([], ["--json"], ["--ring", "q"]):
        assert run("verify", "--in", str(path), *[f for f in flags if f == "--json"]) == 1
        report = capsys.readouterr().out
        assert run("froyshov", "--in", str(path), *flags) == 1
        out = capsys.readouterr().out
        assert out == report  # the verify report, not a profile
    assert "FAIL  d.d = 0  (first offender a <- a: 1)" in out.splitlines()


def test_homology_of_a_non_complex_names_the_first_offender(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(_SQUARE_NOT_ZERO))
    for which, where in (("irreducible", "a <- a"), ("total", "i:a <- i:a")):
        capsys.readouterr()
        assert run("homology", "--in", str(path), "--which", which) == 2
        assert capsys.readouterr().err == (
            f"error: the differential does not square to zero (first offender {where}: 1)\n")


def test_homology_payload_keeps_torsion_beside_free_rank():
    from scx.cli import _homology_payload
    from scx.gradedlin import GradedHomology

    payload = _homology_payload(GradedHomology(4, {0: (0, (2,)), 1: (1, (3,))}))
    assert payload["torsion"] == {"0": [2], "1": [3]} and payload["ranks"] == {"1": 1}


@pytest.mark.parametrize("argv", [["family", "--name", "torus2"],
                                  ["family", "--name", "torus-link"],
                                  ["family", "--name", "pretzel"],
                                  ["family", "--name", "twisted", "--p", "2"]])
def test_family_missing_a_parameter_is_a_usage_error(capsys, argv):
    assert run(*argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --") and err.endswith(" is required for this family\n")
    assert err.count("\n") == 1


@pytest.mark.parametrize("components", ["0", "-1"])
def test_qa_refuses_fewer_than_one_component(capsys, components):
    for extra in ([], ["--xi", "0"]):
        capsys.readouterr()
        assert run("qa", "--det", "-3", "--components", components, *extra) == 2
        err = capsys.readouterr().err
        assert err == f"error: a link has at least one component, got {components}\n"


@pytest.mark.parametrize("extra", [[], ["--xi", "1"]])
def test_qa_with_many_components_is_refused_with_a_short_message(capsys, extra):
    # (det - 2^(c-1))/2 has some 30,000 digits here: the refusal names the
    # datum, not that value, and is decided without forming it
    assert run("qa", "--det", "5", "--components", "100000", *extra) == 2
    err = capsys.readouterr().err
    assert err == ("error: (det - 2^(c-1))/2 is not a nonnegative integer "
                   "for det 5 and |L| = 100000\n")


def test_qa_graded_refusal_names_the_datum():
    from scx.errors import NonIntegralRank
    from scx.linkfam import qa_graded

    for det, components in ((5, 100000), (11, 1)):
        with pytest.raises(NonIntegralRank) as exc:
            qa_graded(det, components, 1)
        assert str(exc.value).startswith("a graded rank is not a nonnegative integer for det ")
        assert len(str(exc.value)) < 100
