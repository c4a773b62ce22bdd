import json

from scx.cli import main
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


def test_exit_codes(tmp_path):
    assert run("verify", "--in", str(tmp_path / "missing.json")) == 2
    out = tmp_path / "t4.json"
    run("family", "--name", "torus-link", "--k", "2", "--out", str(out))
    # froyshov over Z[T^{+-1}] is refused with the unsupported exit code
    assert run("froyshov", "--in", str(out)) == 3
    assert run("family", "--name", "twisted", "--p", "2", "--q", "1", "--k", "1") == 3


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


def test_equivariant_verb(tmp_path, capsys):
    o = tmp_path / "o1.json"
    run("atomic", "--n", "1", "--out", str(o))
    assert run("equivariant", "--in", str(o), "--flavor", "check", "--n", "3",
               "--exactness") == 0


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
