import random

import pytest

from scx.errors import ImpossibleCase
from scx.gradedlin import GradedMatrix, GradedModule, homology_of_pair
from scx.linkfam import hopf_complex, torus_knot_summand, torus_link_complex, unknot_complex
from scx.randgen import RINGS, rand_homotopy_pair, rand_morphism, rand_scomplex, rand_value
from scx.rings import Q, Z, Zp, eval_t_at_one
from scx.scomplex import SHomotopy, SMorphism
from scx.scomplex import _blocks as _real_blocks
from scx.solve import solve_triangle_homotopy, solve_triangle_witnesses
from scx.triangles import (
    ExactTriangleData,
    classify_skein,
    cone_triangle,
    i_minus,
    i_plus,
    les_check,
    rank_bound_from_triangle,
    sum_triangle,
    verify_triangle,
)


def test_cone_triangle_verifies_over_laurent():
    # the N expressions are invertible over Z[T^{+-1}] itself
    t = cone_triangle(SMorphism.identity(torus_link_complex(2)))
    assert verify_triangle(t).ok


def test_cone_triangle_passes_over_fields():
    rng = random.Random(2)
    for ring in (Q, Zp(2)):
        for _ in range(5):
            x = rand_scomplex(ring, rng, max_rank=4)
            f = rand_morphism(x, x, rng, 0)
            t = cone_triangle(f)
            assert verify_triangle(t).ok
            assert les_check(t).ok


def test_cone_triangle_over_z():
    rng = random.Random(3)
    x = rand_scomplex(Z, rng, max_rank=4)
    f = rand_morphism(x, x, rng, 0)
    t = cone_triangle(f)
    assert verify_triangle(t).ok
    assert les_check(t).ok


def test_triangle_witnesses_agree_with_linear_solve_oracle():
    # the homotopies satisfy the axiom equations, so the brute-force solver
    # recovers a complete verified witness set independently
    rng = random.Random(5)
    x = rand_scomplex(Q, rng, max_rank=3)
    f = rand_morphism(x, x, rng, 0)
    t = cone_triangle(f)
    for i in range(3):
        solved = solve_triangle_homotopy(t.morphisms[(i - 1) % 3], t.morphisms[i])
        assert solved is not None and solved.verify().ok
    targets = [t.iso_expression(j) for j in range(3)]
    homs, nmaps = solve_triangle_witnesses(t.complexes, t.morphisms, targets)
    oracle = ExactTriangleData(t.complexes, t.morphisms, homs, nmaps)
    assert verify_triangle(oracle).ok and les_check(oracle).ok


def _random_cone_triangles():
    """Six cone triangles of seeded random degree-0 morphisms over each of
    Z, Z/2, Q and Q(T), with the ring's tag."""
    for tag in ("Z", "Z2", "Q", "QT"):
        rng = random.Random(f"cone triangles {tag}")
        for _ in range(6):
            x = rand_scomplex(RINGS[tag], rng, max_rank=4)
            yield tag, cone_triangle(rand_morphism(x, x, rng, 0))


def test_every_unknown_variable_sits_at_its_blocks_degree(monkeypatch):
    # each unknown the joint triangle solve builds is [[A,0,0],[B,sA,C],[E,0,G]]
    # of total degree k: a variable of A, E or G must sit where the block's
    # generators differ by k, one of B or C where they differ by k - 1
    from scx import solve

    made = []

    class Recorded(solve._Unknown):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(solve, "_Unknown", Recorded)
    placed = {name: 0 for name in "ABCEG"}
    for tag, t in _random_cone_triangles():
        made.clear()
        targets = [t.iso_expression(i) for i in range(3)]
        homs, nmaps = solve.solve_triangle_witnesses(t.complexes, t.morphisms, targets)
        assert len(made) == 6
        mod = t.complexes[0].modulus
        seen = []
        for u in made:
            for name, block in u.blocks.items():
                src, tgt = u.layout[name][:2]
                deg = u.k - 1 if name in "BC" else u.k
                for (i, j), var in block.items():
                    assert (tgt.degree(i) - src.degree(j) - deg) % mod == 0, (tag, name)
                    seen.append(var)
                placed[name] += len(block)
        assert sorted(seen) == list(range(len(seen)))  # each variable once
        for h in homs:
            assert [m.degree for m in (h.K, h.L, h.M1, h.M2, h.J)] == [
                (h.frm.degree + e) % mod for e in (1, 0, 1, 0, 1)]
        for n in nmaps:
            assert [m.degree for m in (n.lam, n.mu, n.delta1, n.delta2, n.rho)] == [
                e % mod for e in (1, 0, 1, 0, 1)]
    assert all(placed.values()), placed


def _block_ids(obj):
    """The identities of the five blocks of a complex, morphism or homotopy."""
    if isinstance(obj, SMorphism):
        return tuple(map(id, (obj.lam, obj.mu, obj.delta1, obj.delta2, obj.rho)))
    if isinstance(obj, SHomotopy):
        return tuple(map(id, (obj.K, obj.L, obj.M1, obj.M2, obj.J)))
    return tuple(map(id, (obj.d, obj.v, obj.delta1, obj.delta2, obj.r)))


def test_relation_checks_assemble_each_s_map_once_and_check_no_matrix(monkeypatch):
    # on pre-built inputs: every total map is placed unchecked, and only the
    # given complexes, morphisms and homotopies are assembled, each once
    from scx import scomplex

    built = [t for _, t in _random_cone_triangles()]
    pairs = []
    for tag in ("Z", "Z2", "Q", "QT"):
        rng = random.Random(f"homotopy pairs {tag}")
        for _ in range(6):
            x = rand_scomplex(RINGS[tag], rng, max_rank=4)
            pairs.append(rand_homotopy_pair(rand_morphism(x, x, rng, rng.choice((0, 1))), rng))
    given = set()
    for t in built:
        for obj in t.complexes + t.morphisms + t.homotopies:
            given.add(_block_ids(obj))
        given.update(_block_ids(m) for h in t.homotopies for m in (h.frm, h.to))
    for g, h in pairs:
        given.update(map(_block_ids, (g.source, g, h, h.frm)))
    checked, placed = [], []
    real_init, real_assemble = GradedMatrix.__init__, scomplex._assemble

    def counted_init(self, *args):
        checked.append(1)
        real_init(self, *args)

    def counted_assemble(x, y, degree, s, blocks):
        placed.append(tuple(map(id, blocks)))
        return real_assemble(x, y, degree, s, blocks)

    monkeypatch.setattr(GradedMatrix, "__init__", counted_init)
    monkeypatch.setattr(scomplex, "_assemble", counted_assemble)
    for t in built:
        assert verify_triangle(t).ok and les_check(t).ok
        assert verify_triangle(t).ok
    for g, h in pairs:
        assert g.verify().ok and h.verify().ok and h.verify().ok
    assert not checked
    assert placed and len(set(placed)) == len(placed)
    assert set(placed) <= given


@pytest.mark.parametrize("tag", ["Z", "Z2", "Q", "QT"])
def test_les_check_splits_a_total_at_most_once_and_no_map_of_matrix_blocks(tag, monkeypatch):
    # the componentwise constructors keep the blocks handed as matrices as
    # views, so f, built of matrices, is never split; a map whose blocks were
    # handed as pieces (the cone triangle's lam1 and lam2) is split on the
    # first read of a block and never again
    from scx import scomplex

    rng = random.Random(f"kept views {tag}")
    for _ in range(4):
        x = rand_scomplex(RINGS[tag], rng, max_rank=4)
        g = rand_morphism(x, x, rng, 0)
        blocks = (g.lam, g.mu, g.delta1, g.delta2, g.rho)
        split = []
        monkeypatch.setattr(scomplex, "_blocks",
                            lambda m, *ends: split.append(m) or _real_blocks(m, *ends))
        f = SMorphism(x, x, 0, *blocks)
        assert all(view is block for view, block in
                   zip((f.lam, f.mu, f.delta1, f.delta2, f.rho), blocks))
        t = cone_triangle(f)
        for _ in range(2):
            assert les_check(t).ok and verify_triangle(t).ok
        monkeypatch.setattr(scomplex, "_blocks", _real_blocks)
        lam1, lam2 = t.morphisms[1:]
        assert sorted(map(id, split)) == sorted(map(id, (lam1.assemble(), lam2.assemble())))
        # lam2's mu, left out, was split with the rest and is kept
        kept = lam2.lam
        assert lam2.mu.is_zero and lam2.lam is kept


def test_joint_solve_finds_witnesses_that_need_a_nonzero_mu():
    # pin the iso expression of C0 to the closed form plus d N0 - N0 d, for an
    # N0 with only a mu block: the solve must find witnesses that reach it
    # (with every mu variable misplaced it returned None on some of these)
    solved = 0
    for tag, t in _random_cone_triangles():
        c = t.complexes[0]
        rng = random.Random(f"mu {tag} {solved}")
        mu = GradedMatrix(c.irr, c.irr, 0, {
            (i, j): rand_value(c.ring, rng) for j in range(c.irr.rank)
            for i in range(c.irr.rank) if (c.irr.degree(i) - c.irr.degree(j)) % c.modulus == 0})
        zero = SMorphism.zero(c, c, 1)
        n0 = SMorphism(c, c, 1, zero.lam, mu, zero.delta1, zero.delta2, zero.rho).assemble()
        d = c.total_differential()
        targets = [t.iso_expression(i) for i in range(3)]
        targets[0] = targets[0] + d @ n0 - n0 @ d
        found = solve_triangle_witnesses(t.complexes, t.morphisms, targets)
        assert found is not None, tag
        t2 = ExactTriangleData(t.complexes, t.morphisms, *found)
        assert [t2.iso_expression(i) for i in range(3)] == targets
        assert all(h.verify().ok for h in t2.homotopies)
        solved += 1
    assert solved == 24


def test_missing_homotopy_fails_axiom_three():
    rng = random.Random(7)
    x = rand_scomplex(Q, rng, max_rank=3)
    f = rand_morphism(x, x, rng, 0)
    while (f.lam.is_zero and f.rho.is_zero):
        f = rand_morphism(x, x, rng, 0)
    t = cone_triangle(f)
    zeroed = [SHomotopy.zero(h.frm, h.to) for h in t.homotopies]
    broken = ExactTriangleData(t.complexes, t.morphisms, zeroed, t.n_maps)
    rep = broken.verify()
    assert not rep.ok


def test_degenerate_sum_triangle():
    x = torus_knot_summand(2).base_change(eval_t_at_one())
    y = unknot_complex().base_change(eval_t_at_one())
    t = sum_triangle(x, y)
    assert verify_triangle(t).ok
    assert les_check(t).ok


def test_torus_family_sum_triangle():
    # the torus decomposition C(T(2,2k)) ~ C(T(2,2k-1)) + C(U1): the unknot
    # summand's Z/4 anchor is shifted by 2k, so gradings match on the nose
    # for even k and mod 2 in general
    from scx.functors import direct_sum

    link = torus_link_complex(2).base_change(eval_t_at_one())
    knot = torus_knot_summand(2).base_change(eval_t_at_one())
    u = unknot_complex().base_change(eval_t_at_one())
    s = direct_sum(knot, u)
    assert s.total_homology().same_ranks(link.total_homology())
    for k in (3, 4):
        link = torus_link_complex(k).base_change(eval_t_at_one()).reduce_mod2()
        knot = torus_knot_summand(k).base_change(eval_t_at_one()).reduce_mod2()
        s = direct_sum(knot, u.reduce_mod2())
        assert s.total_homology().same_ranks(link.total_homology())
    t = sum_triangle(knot, u.reduce_mod2())
    assert verify_triangle(t).ok and les_check(t).ok


def test_vertices_match_opposite_cones():
    from scx.functors import cone

    rng = random.Random(11)
    x = rand_scomplex(Q, rng, max_rank=3)
    f = rand_morphism(x, x, rng, 0)
    t = cone_triangle(f)
    for i in range(3):
        opp = t.morphisms[(i + 2) % 3]  # lambda_{i-1}: C_{i-1} -> C_{i-2}... wait
    # C_1 = Cone(lambda_0) on the nose
    c = cone(t.morphisms[0])
    assert c.total_homology().same_ranks(t.complexes[1].total_homology())
    # C_2 ~ Cone(lambda_1) up to homotopy: rank equality
    c2 = cone(t.morphisms[1])
    assert c2.total_homology().total_rank == t.complexes[2].total_homology().total_rank


def test_i_plus_minus_examples():
    u = unknot_complex().base_change(eval_t_at_one())
    assert i_plus(u).ranks_by_degree() == {1: 1}
    assert i_minus(u).ranks_by_degree() == {0: 1}
    h = hopf_complex().base_change(eval_t_at_one())
    assert i_plus(h).ranks_by_degree() == {1: 2}


# Oracle for `i_plus` and `i_minus`, which read the homology off the
# (de)suspension: the one-sided complexes built by hand on C + R with Z/2
# gradings, the differential [[d, delta2], [0, 0]] for I+ (the sign of the
# suspension's -delta2 dropped) and [[d, 0], [delta1, 0]] for I-.


def _one_sided_oracle(x, shift, block, row, col):
    gens = [(f"c.{n}", d % 2) for n, d in x.irr.gens]
    gens += [(f"q.{n}", (d + shift) % 2) for n, d in x.red.gens]
    mod = GradedModule(x.ring, 2, gens)
    dm = GradedMatrix.from_blocks(mod, mod, 1, (x.d, 0, 0), (block, row, col))
    return homology_of_pair(dm, dm)


def _i_plus_oracle(x):
    return _one_sided_oracle(x, 1, x.delta2, 0, x.irr.rank)


def _i_minus_oracle(x):
    return _one_sided_oracle(x, 0, x.delta1, x.irr.rank, 0)


def test_i_plus_matches_suspension():
    # the whole graded homology, torsion included, on all four rings
    rng = random.Random(13)
    torsion = 0
    for key, ring in RINGS.items():
        checked = 0
        while checked < 30:
            x = rand_scomplex(ring, rng, max_rank=5, r_perfect=checked % 2 == 0)
            if not x.r.is_zero:
                continue
            for got, want in ((i_plus(x), _i_plus_oracle(x)), (i_minus(x), _i_minus_oracle(x))):
                assert got == want, (key, got, want)
                torsion += any(t for _, t in got.table.values())
            checked += 1
    assert torsion  # some of the complexes over Z have torsion in I+ or I-


def test_knot_model_rank_dichotomy():
    # for rank-1 R either rk I+ = rk I + 1 or rk I- = rk I + 1
    rng = random.Random(17)
    count = 0
    while count < 12:
        x = rand_scomplex(Q, rng, max_rank=5, r_perfect=True, allow_cone=False)
        if x.red.rank != 1:
            continue
        base = x.irreducible_homology().total_rank
        up = i_plus(x).total_rank
        dn = i_minus(x).total_rank
        assert up == base + 1 or dn == base + 1
        count += 1


def test_classify_skein_table():
    assert (classify_skein(1, 1).case, classify_skein(1, 1).delta) == ("I", 0)
    assert (classify_skein(-1, 1).case, classify_skein(-1, 1).delta) == ("II", -1)
    assert (classify_skein(1, -1).case, classify_skein(1, -1).delta) == ("III", 1)
    assert classify_skein(-1, 1).suspension_placement == ("Lp", 1)
    assert classify_skein(1, -1).suspension_placement == ("Lpp", -1)
    with pytest.raises(ImpossibleCase):
        classify_skein(-1, -1)


def test_rank_bound():
    assert rank_bound_from_triangle(1, 0) == (1, 1)
    assert rank_bound_from_triangle(0, 0) == (0, 0)
    # quasi-alternating chain for det 5: T(2,5) against (T(2,4), unknot)
    from scx.linkfam import qa_rank

    a = qa_rank(4, 2)  # T(2,4)
    b = qa_rank(1, 1)  # unknot
    lo, hi = rank_bound_from_triangle(a, b, reducible_offset=1)
    assert lo <= qa_rank(5, 1) <= hi and hi == qa_rank(5, 1)
