import random

import pytest

from scx.functors import (
    atomic,
    cone,
    connected_sum_model,
    direct_sum,
    dual,
    o1_o_minus1_witness,
    suspend,
    suspend_homotopy,
    suspend_morphism,
    suspend_once,
    suspension_witness,
    tensor,
)
from scx.gradedlin import GradedMatrix, GradedModule
from scx.linkfam import hopf_complex, torus_knot_summand, torus_link_complex
from scx.randgen import RINGS, rand_homotopy_pair, rand_morphism, rand_scomplex
from scx.rings import FRAC_LAURENT_Q, LAURENT_Z, Q, RingMap, Z, Zp, parse_element
from scx.scomplex import SComplex, SMorphism, scomplex_json_text

INC = RingMap(RingMap.LAURENT_TO_FRAC, LAURENT_Z, FRAC_LAURENT_Q)


def test_atomic_shapes():
    o0 = atomic(0)
    assert o0.irr.rank == 0 and o0.red.gens == (("w", 0),)
    om1 = atomic(-1)
    assert om1.irr.gens == (("u", 2),)  # -2 mod 4
    assert om1.delta2.named_triples() == [("u", "w", Z.one())]
    for n in range(-3, 4):
        assert atomic(n).verify().ok
        assert atomic(n).total_homology().total_rank == 1


def test_dual_of_o1_is_o_minus1():
    d = dual(atomic(1))
    om1 = atomic(-1)
    assert [g for _, g in d.irr.gens] == [g for _, g in om1.irr.gens]
    assert [g for _, g in d.red.gens] == [g for _, g in om1.red.gens]
    assert d.delta1.is_zero and not d.delta2.is_zero
    assert d.verify().ok


def test_dual_involution_ranks():
    rng = random.Random(2)
    for _ in range(10):
        x = rand_scomplex(Q, rng, max_rank=5)
        dd = dual(dual(x))
        assert dd.verify().ok
        assert dd.irr.rank == x.irr.rank and dd.red.rank == x.red.rank
        assert dd.total_homology().same_ranks(x.total_homology())


def test_dual_torus_k2_sign():
    d = dual(torus_link_complex(2))
    want = parse_element(LAURENT_Z, "-T^2 + T^-2")
    assert d.delta2.named_triples() == [("xi1*", "theta+*", want)]
    assert d.delta1.is_zero


def test_dual_entries_follow_the_docstring_formulas():
    # m*[s,t] = m[t,s], times sign.(-1)^deg(s) where a sign is given, deg(s)
    # the degree in X of the source generator s of the entry m[t,s]
    counted = {"delta2*": 0, "r*": 0}
    for tag in ("Z", "Q", "QT"):
        ring = RINGS[tag]
        dom = ring.domain
        rng = random.Random(f"dual {tag}")
        xs = [rand_scomplex(ring, rng, max_rank=6, r_perfect=(i % 2 == 0)) for i in range(30)]
        for _ in range(10):  # cones of random self-maps, for a nonzero r
            y = rand_scomplex(ring, rng, max_rank=4)
            xs.append(cone(rand_morphism(y, y, rng)))
        for x in xs:
            def flipped(m, source=None, sign=None):
                out = {}
                for (t, s), val in m.entries.items():
                    if sign is not None and (sign == -1) != (source.degree(s) % 2 == 1):
                        val = dom.neg(val)
                    out[(s, t)] = val
                return out

            dx = dual(x)
            assert dx.d.entries == flipped(x.d, x.irr, -1)
            assert dx.v.entries == flipped(x.v)
            assert dx.delta1.entries == flipped(x.delta2)
            assert dx.delta2.entries == flipped(x.delta1, x.irr, 1)
            assert dx.r.entries == flipped(x.r, x.red, 1)
            counted["delta2*"] += len(dx.delta2.entries)
            counted["r*"] += len(dx.r.entries)
    assert min(counted.values()) >= 20, counted


def test_tensor_unit():
    x = torus_link_complex(3)
    t = connected_sum_model(x, atomic(0, LAURENT_Z, 4))
    assert t.verify().ok
    assert t.irr.rank == x.irr.rank and t.red.rank == x.red.rank
    xq = x.base_change(INC)
    tq = t.base_change(INC)
    assert tq.total_homology().same_ranks(xq.total_homology())


def test_tensor_o1_om1_matches_frozen_matrices():
    t = connected_sum_model(atomic(1), atomic(-1))
    one = Z.one()

    def elements(m):
        return sorted((k, m.entry(*k)) for k in m.entries)

    assert elements(t.d) == [((1, 2), -one), ((3, 0), one)]
    assert elements(t.v) == [((3, 1), one)]
    assert elements(t.delta1) == [((0, 2), one)]
    assert elements(t.delta2) == [((3, 0), one)]
    assert t.r.is_zero
    h = t.total_homology()
    assert h.total_rank == atomic(0).total_homology().total_rank == 1


def test_tensor_of_random_complexes_verifies():
    rng = random.Random(14)
    for ring in (Z, Q, Zp(2)):
        for _ in range(6):
            x = rand_scomplex(ring, rng, max_rank=4)
            y = rand_scomplex(ring, rng, modulus=x.modulus, max_rank=3)
            assert connected_sum_model(x, y).verify().ok


# -- the entry-by-entry tensor builder that the Kronecker blocks replaced,
# kept as the oracle: each of its `pair` calls places one term at the indices
# it computes itself, with the Koszul sign chosen by a named mode


class _OracleTensorLayout:
    def __init__(self, x, y):
        self.x, self.y = x, y
        ring, mod = x.ring, x.modulus

        def nm(a, b):
            fa = f"({a})" if "⊗" in a else a
            fb = f"({b})" if "⊗" in b else b
            return f"{fa}⊗{fb}"

        cc = [(nm(a, b), da + db) for a, da in x.irr.gens for b, db in y.irr.gens]
        ccs = [(nm(a, b) + "·s", da + db + 1) for a, da in x.irr.gens for b, db in y.irr.gens]
        cr = [(nm(a, b), da + db) for a, da in x.irr.gens for b, db in y.red.gens]
        rc = [(nm(a, b), da + db) for a, da in x.red.gens for b, db in y.irr.gens]
        rr = [(nm(a, b), da + db) for a, da in x.red.gens for b, db in y.red.gens]
        self.irr = GradedModule(ring, mod, cc + ccs + cr + rc)
        self.red = GradedModule(ring, mod, rr)
        nx, ny = x.irr.rank, y.irr.rank
        self.off = {"cc": 0, "ccs": nx * ny, "cr": 2 * nx * ny,
                    "rc": 2 * nx * ny + nx * y.red.rank, "rr": 0}
        self.dims = {"cc": (nx, ny), "ccs": (nx, ny), "cr": (nx, y.red.rank),
                     "rc": (x.red.rank, ny), "rr": (x.red.rank, y.red.rank)}

    def idx(self, block, i, j):
        return self.off[block] + i * self.dims[block][1] + j

    def pair(self, entries, m_a, m_b, row_block, col_block, sign=None, negate=False):
        """Add (m_a ⊗ m_b) to `entries`, None standing for an identity, with
        the sign (-1)^negate times, for sign 'first', (-1)^deg of the first
        factor's source generator or, for 'first_target', of m_a's target."""
        dom = self.x.ring.domain
        a_pairs = (list(m_a.entries.items()) if m_a is not None
                   else [((i, i), dom.one) for i in range(self.dims[col_block][0])])
        b_pairs = (list(m_b.entries.items()) if m_b is not None
                   else [((j, j), dom.one) for j in range(self.dims[col_block][1])])
        first = {b: [d for _, d in (self.x.irr if b in ("cc", "ccs", "cr") else self.x.red).gens]
                 for b in (row_block, col_block)}
        for (ta, sa), va in a_pairs:
            for (tb, sb), vb in b_pairs:
                odd = int(negate)
                if sign == "first":
                    odd += first[col_block][sa]
                elif sign == "first_target":
                    odd += first[row_block][ta]
                v = dom.mul(va, vb)
                v = v if odd % 2 == 0 else dom.neg(v)
                key = (self.idx(row_block, ta, tb), self.idx(col_block, sa, sb))
                cur = entries.get(key)
                entries[key] = v if cur is None else dom.add(cur, v)


def _oracle_tensor(x, y):
    lay = _OracleTensorLayout(x, y)
    one = None
    d_ent, v_ent, d1_ent, d2_ent, r_ent = {}, {}, {}, {}, {}
    for args in ((x.d, one, "cc", "cc"), (one, y.d, "cc", "cc", "first"),
                 (x.v, one, "ccs", "cc", "first_target", True),
                 (one, y.v, "ccs", "cc", "first"), (x.d, one, "ccs", "ccs"),
                 (one, y.d, "ccs", "ccs", "first", True),
                 (one, y.delta2, "ccs", "cr", "first"),
                 (x.delta2, one, "ccs", "rc", "first_target", True),
                 (one, y.delta1, "cr", "cc", "first"), (x.d, one, "cr", "cr"),
                 (one, y.r, "cr", "cr", "first"), (x.delta1, one, "rc", "cc"),
                 (one, y.d, "rc", "rc", "first"), (x.r, one, "rc", "rc")):
        lay.pair(d_ent, *args)
    for args in ((x.v, one, "cc", "cc"), (x.delta2, one, "cc", "rc"),
                 (x.v, one, "ccs", "ccs"), (x.v, one, "cr", "cr"),
                 (x.delta1, one, "rc", "ccs", "first_target"), (one, y.v, "rc", "rc")):
        lay.pair(v_ent, *args)
    lay.pair(d1_ent, x.delta1, one, "rr", "cr")
    lay.pair(d1_ent, one, y.delta1, "rr", "rc", "first")
    lay.pair(d2_ent, x.delta2, one, "cr", "rr")
    lay.pair(d2_ent, one, y.delta2, "rc", "rr")
    lay.pair(r_ent, x.r, one, "rr", "rr")
    lay.pair(r_ent, one, y.r, "rr", "rr", "first")
    irr, red = lay.irr, lay.red
    return SComplex(irr, red, GradedMatrix(irr, irr, -1, d_ent),
                    GradedMatrix(irr, irr, -2, v_ent), GradedMatrix(irr, red, -1, d1_ent),
                    GradedMatrix(red, irr, -2, d2_ent), GradedMatrix(red, red, -1, r_ent),
                    None, {"tensor_of": [x.metadata.get("name"), y.metadata.get("name")]})


def _same_tensor_text(x, y):
    return scomplex_json_text(tensor(x, y)) == scomplex_json_text(_oracle_tensor(x, y))


def test_tensor_equals_the_entry_loop_oracle_on_seeded_pairs():
    pairs = 0
    for tag, ring in RINGS.items():
        for modulus in (2, 4):
            rng = random.Random(f"tensor {tag} {modulus}")
            for i in range(125):
                x = rand_scomplex(ring, rng, modulus=modulus, max_rank=5,
                                  r_perfect=(i % 3 == 0))
                y = rand_scomplex(ring, rng, modulus=modulus, max_rank=5)
                assert _same_tensor_text(x, y), (tag, modulus, i)
                pairs += 1
    assert pairs >= 1000


def test_tensor_equals_the_entry_loop_oracle_on_nested_and_link_tensors():
    for n in (3, -3):
        o = atomic(1 if n > 0 else -1)
        want = _oracle_tensor(_oracle_tensor(o, o), o)
        assert _same_tensor_text(tensor(o, o), o)
        assert scomplex_json_text(tensor(tensor(o, o), o)) == scomplex_json_text(want)
        got = atomic(n)  # the same triple tensor, renamed O(n)
        assert (got.irr, got.red) == (want.irr, want.red)
        assert all(getattr(got, b) == getattr(want, b) for b in ("d", "v", "delta1", "delta2", "r"))
    k = torus_knot_summand(2)  # T(2,3)
    assert _same_tensor_text(tensor(k, k), k)
    assert scomplex_json_text(tensor(tensor(k, k), k)) == scomplex_json_text(
        _oracle_tensor(_oracle_tensor(k, k), k))
    for a, b in ((3, 5), (4, 4), (5, 3), (4, 6), (6, 4)):  # T(2,2a) ⊗ dual T(2,2b)
        assert _same_tensor_text(torus_link_complex(a), dual(torus_link_complex(b))), (a, b)


def test_cone_of_identity_is_acyclic():
    rng = random.Random(4)
    for ring in (Q, Z):
        x = rand_scomplex(ring, rng, max_rank=4)
        c = cone(SMorphism.identity(x))
        assert c.verify().ok
        assert c.total_homology().total_rank == 0


def test_cone_of_zero_is_shifted_sum():
    rng = random.Random(9)
    x = rand_scomplex(Q, rng, max_rank=3)
    y = rand_scomplex(Q, rng, modulus=x.modulus, max_rank=3)
    c = cone(SMorphism.zero(x, y, 0))
    s = direct_sum(x, y)
    assert c.verify().ok and s.verify().ok
    hc = c.total_homology()
    hs_x = x.total_homology().shifted(1)
    hy = y.total_homology()
    for d in set(list(hc.ranks_by_degree()) + list(hs_x.ranks_by_degree())
                 + list(hy.ranks_by_degree())):
        assert hc.free_rank(d) == hs_x.free_rank(d) + hy.free_rank(d)


def test_cone_irr_red_are_cones_of_lambda_and_rho():
    rng = random.Random(11)
    x = rand_scomplex(Q, rng, max_rank=4)
    f = rand_morphism(x, x, rng, 0)
    c = cone(f)
    na = x.irr.rank
    # irreducible block structure is [[-d, 0], [lambda, d']]
    for t, s in c.d.entries:
        val = c.d.entry(t, s)
        if t < na and s < na:
            assert val == -f.source.d.entry(t, s)
        elif t >= na and s < na:
            assert val == f.lam.entry(t - na, s)
        elif t >= na and s >= na:
            assert val == f.target.d.entry(t - na, s - na)
    nr = x.red.rank
    for t, s in c.r.entries:
        val = c.r.entry(t, s)
        if t >= nr and s < nr:
            assert val == f.rho.entry(t - nr, s)


def test_suspend_zero_and_o_one():
    x = torus_link_complex(2)
    assert suspend(x, 0) is x
    s = suspend_once(atomic(0))
    assert s.same_shape_as(atomic(1))
    assert suspend(atomic(0), -1).same_shape_as(atomic(-1))


def test_suspension_euler_identity_torus_k4():
    x = torus_link_complex(4)
    assert x.irreducible_euler() == -3
    chi_r = sum(1 if d % 2 == 0 else -1 for _, d in x.red.gens)
    assert chi_r == 2
    assert suspend(x, 1).irreducible_euler() == -5


def suspend_closed_form(x, n):
    """Oracle for iterated `suspend`: the closed r-perfect display of
    Sigma^n for n >= 1,

        C = C[-2n] + R[-2n+1] + R[-2n+3] + ... + R[-1],
        d first row [d, -delta2, -v delta2, ..., -v^{n-1} delta2],
        v = [[v],[delta1,0..],[0,1,0..],...],
        delta2 = [v^n delta2, 0, ..., 0]^T, delta1 = [0,...,0,1].
    """
    assert n >= 1 and x.is_r_perfect
    ring, mod = x.ring, x.modulus
    gens = [(f"c.{nm}", d + 2 * n) for nm, d in x.irr.gens]
    for i in range(n):
        gens += [(f"q{i}.{nm}", d + 2 * n - 2 * i - 1) for nm, d in x.red.gens]
    irr = GradedModule(ring, mod, gens)
    red = GradedModule(ring, mod, list(x.red.gens))
    nc, nr = x.irr.rank, x.red.rank
    one_r = GradedMatrix.identity(x.red)
    d_m = GradedMatrix.from_blocks(
        irr, irr, -1, (x.d, 0, 0),
        *((-(x.v.power(i) @ x.delta2), 0, nc + i * nr) for i in range(n)))
    v_m = GradedMatrix.from_blocks(
        irr, irr, -2, (x.v, 0, 0), (x.delta1, nc, 0),
        *((one_r, nc + (i + 1) * nr, nc + i * nr) for i in range(n - 1)))
    d2_m = GradedMatrix.from_blocks(red, irr, -2, (x.v.power(n) @ x.delta2, 0, 0))
    d1_m = GradedMatrix.from_blocks(irr, red, -1, (one_r, 0, nc + (n - 1) * nr))
    r_m = GradedMatrix.zero(red, red, -1)
    return SComplex(irr, red, d_m, v_m, d1_m, d2_m, r_m, None, {"suspended": n})


def test_closed_form_suspension_equals_iteration():
    rng = random.Random(20)
    for _ in range(6):
        x = rand_scomplex(Q, rng, max_rank=4, r_perfect=True, allow_cone=False)
        for n in (1, 2, 3):
            assert suspend_closed_form(x, n).same_shape_as(suspend(x, n))


def test_suspension_homology_invariance_and_dual():
    rng = random.Random(23)
    for _ in range(8):
        x = rand_scomplex(Q, rng, max_rank=4)
        h0 = x.total_homology()
        for n in (-2, -1, 1, 2):
            assert suspend(x, n).total_homology().same_ranks(h0.shifted(2 * n))
        # dual(Sigma^n X) has the homology of Sigma^{-n} dual(X)
        for n in (-1, 1):
            a = dual(suspend(x, n)).total_homology()
            b = suspend(dual(x), -n).total_homology()
            assert a.same_ranks(b)


def test_suspension_witness_on_spec_examples():
    for x in (atomic(0), torus_link_complex(3)):
        w = suspension_witness(x)
        assert w.verify().ok
    rng = random.Random(17)
    for _ in range(10):
        x = rand_scomplex(Zp(2), rng, max_rank=5)
        assert suspension_witness(x).verify().ok


@pytest.mark.parametrize("tag, with_r", [("Z", 9), ("Z2", 6), ("Q", 9), ("QT", 8)])
def test_suspension_witness_on_complexes_with_a_nonzero_r(tag, with_r):
    # the cone of f has r = [[-r, 0], [rho, r']], so a self-map with rho != 0
    # gives r != 0, which `rand_scomplex` itself seldom draws
    ring = RINGS[tag]
    rng = random.Random(f"witness with r {tag}")
    xs = []
    for _ in range(10):
        y = rand_scomplex(ring, rng, max_rank=4)
        xs.append(cone(rand_morphism(y, y, rng)))
    assert sum(not x.r.is_zero for x in xs) == with_r
    for x in xs:
        rep = suspension_witness(x).verify()
        assert rep.ok, rep


def test_o1_om1_witness():
    w = o1_o_minus1_witness()
    assert w.verify().ok
    comp = w.forward.compose_after(w.backward)
    ident = SMorphism.identity(w.forward.target)
    diff = comp - ident
    assert all(m.is_zero for m in (diff.lam, diff.mu, diff.delta1, diff.delta2, diff.rho))


def test_sigma_inverse_sigma_homology():
    rng = random.Random(29)
    for _ in range(6):
        x = rand_scomplex(Q, rng, max_rank=4)
        assert suspend(x, 1) and suspend(suspend(x, 1), -1).total_homology() \
            .same_ranks(x.total_homology())


def test_suspend_morphism_and_homotopy():
    rng = random.Random(31)
    for _ in range(8):
        x = rand_scomplex(Q, rng, max_rank=4, r_perfect=True, allow_cone=False)
        ident = SMorphism.identity(x)
        si = suspend_morphism(ident)
        assert si.verify().ok
        diff = si - SMorphism.identity(suspend_once(x))
        assert all(m.is_zero for m in (diff.lam, diff.mu, diff.delta1,
                                       diff.delta2, diff.rho))
        f = rand_morphism(x, x, rng, 0)
        sf = suspend_morphism(f)
        assert sf.verify().ok
        g, h = rand_homotopy_pair(f, rng)
        sh = suspend_homotopy(h)
        assert sh.verify().ok
        zero = SMorphism.zero(x, x, 0)
        szero = suspend_morphism(zero)
        assert szero.lam.is_zero and szero.delta2.is_zero and szero.rho.is_zero


def hand_placed_suspend_morphism_oracle(f):
    """Test oracle: Sigma f as `suspend_morphism` built it before it handed
    its blocks to the `SMorphism` constructor as pieces.  Every block of the
    total [[lambda_S,0,0],[mu_S,lambda_S,Delta2_S],[0,0,rho_S]] is placed at
    offsets written out here, lambda_S twice, by the checked
    `GradedMatrix.from_blocks` (the original placed them unchecked)."""
    x, y = f.source, f.target
    sx, sy = suspend_once(x), suspend_once(y)
    nc, mc = x.irr.rank, y.irr.rank
    big_n, big_m = sx.irr.rank, sy.irr.rank  # where the C[-1] bands start
    lam = ((f.lam, 0, 0), (f.delta2, 0, nc), (f.rho, mc, nc))
    blocks = (*lam, *((b, big_m + row, big_n + col) for b, row, col in lam),
              (f.mu, big_m, 0), (f.delta1, big_m + mc, 0),
              (f.mu @ x.delta2 + y.v @ f.delta2, big_m, 2 * big_n),
              (f.delta1 @ x.delta2 + y.delta1 @ f.delta2, big_m + mc, 2 * big_n),
              (f.rho, 2 * big_m, 2 * big_n))
    return GradedMatrix.from_blocks(sx.total_module(), sy.total_module(), f.degree, *blocks)


@pytest.mark.parametrize("tag", ["Z", "Z2", "Q", "QT"])
def test_suspend_morphism_equals_the_hand_placed_oracle(tag):
    ring = RINGS[tag]
    rng = random.Random(f"hand placed sigma {tag}")
    nonzero = 0
    for _ in range(10):
        x = rand_scomplex(ring, rng, max_rank=4, r_perfect=True, allow_cone=False)
        y = rand_scomplex(ring, rng, modulus=x.modulus, max_rank=4, r_perfect=True,
                          allow_cone=False)
        k = rng.choice((0, 2))
        f, g = rand_morphism(x, y, rng, k), rand_morphism(y, y, rng, 0)
        for m in (f, g.compose_after(f), SMorphism.identity(x), SMorphism.zero(x, y, k)):
            got = suspend_morphism(m)
            assert (got.source, got.target) == (suspend_once(m.source), suspend_once(m.target))
            want = hand_placed_suspend_morphism_oracle(m)
            assert (got.assemble().degree, got.assemble().entries) == (want.degree, want.entries)
            assert got.rho is m.rho  # a block handed as a matrix is kept
            nonzero += not got.is_zero
    assert nonzero


def test_suspended_composition_homotopic():
    # Sigma(g.f) is homotopic to Sigma(g).Sigma(f): solve the homotopy
    from scx.solve import solve_homotopy

    rng = random.Random(37)
    for _ in range(5):
        x = rand_scomplex(Q, rng, max_rank=4, r_perfect=True, allow_cone=False)
        f = rand_morphism(x, x, rng, 0)
        g = rand_morphism(x, x, rng, 0)
        lhs = suspend_morphism(g.compose_after(f))
        rhs = suspend_morphism(g).compose_after(suspend_morphism(f))
        h = solve_homotopy(lhs, rhs)
        assert h is not None and h.verify().ok


def test_connected_sum_examples():
    tre = torus_knot_summand(2).base_change(INC)
    cs = connected_sum_model(tre, tre)
    assert cs.verify().ok
    h = cs.irreducible_homology()
    assert h.euler() == -2  # = sigma(T(2,3) # T(2,3)) / 2
    hopf = hopf_complex().base_change(INC)
    hh = connected_sum_model(hopf, hopf)
    assert hh.irr.rank == 0 and hh.red.rank == 4
    assert hh.total_homology().total_rank == 4


def test_metadata_is_given_at_construction_in_order():
    a, b = atomic(1), atomic(-1)
    t = connected_sum_model(a, b)
    assert list(t.metadata.items()) == [("tensor_of", ["O(1)", "O(-1)"]),
                                        ("connected_sum", ["O(1)", "O(-1)"])]
    assert a.metadata == {"name": "O(1)"} and b.metadata == {"name": "O(-1)"}
    # O(3) = (O(1) x O(1)) x O(1): the outer tensor's metadata, then the name
    assert list(atomic(3).metadata.items()) == [("tensor_of", [None, "O(1)"]), ("name", "O(3)")]
    assert atomic(-2, Q).metadata == {"tensor_of": ["O(-1)", "O(-1)"], "name": "O(-2)"}


def test_solved_homotopy_matrices_hold_elements_of_the_ring():
    # the solver works on raw values; what it returns holds canonical nonzero
    # raw values of the ring: each reads back from its text form unchanged
    from scx.rings import RingElement, parse_element
    from scx.solve import solve_homotopy

    rng = random.Random(43)
    for ring in (Z, Q, Zp(3)):
        entries = 0
        for _ in range(4):
            x = rand_scomplex(ring, rng, max_rank=4)
            f = rand_morphism(x, x, rng, 0)
            g, _ = rand_homotopy_pair(f, rng)
            h = solve_homotopy(f, g)
            assert h is not None and h.verify().ok
            for m in (h.K, h.L, h.M1, h.M2, h.J):
                for k, v in m.entries.items():
                    e = m.entry(*k)
                    assert type(e) is RingElement and e.ring == ring and not e.is_zero
                    assert type(v) is type(ring.domain.zero)
                    assert parse_element(ring, str(e)).val == v
                entries += len(m.entries)
        assert entries, ring


# -- the index-loop suspension witness that block placement replaced, kept as
# the oracle: every entry of every map written at its own tensor index


def _oracle_suspension_blocks(x):
    """name -> matrix for the blocks of the forward and backward morphisms
    and of the homotopy from forward.backward to the identity."""
    t = tensor(x, atomic(1, x.ring, x.modulus))
    sx = suspend_once(x)
    nc, nr = x.irr.rank, x.red.rank
    cc, ccs, cr, rc = 0, nc, 2 * nc, 3 * nc
    dom = x.ring.domain
    one = dom.one

    def sgn(deg, val):
        return val if deg % 2 == 0 else dom.neg(val)

    lam = {(ccs + i, i): one for i in range(nc)}
    lam.update({(rc + j, nc + j): sgn(x.red.degree(j), one) for j in range(nr)})
    mu = {(rc + tj, nc + sj): val for (tj, sj), val in x.r.entries.items()}
    d2 = {(cc + ti, sj): sgn(x.irr.degree(ti), val)
          for (ti, sj), val in x.delta2.entries.items()}
    d2.update({(ccs + ti, sj): sgn(x.irr.degree(ti), val)
               for (ti, sj), val in (x.delta2 @ x.r).entries.items()})
    lam_b = {(ti, cc + si): val for (ti, si), val in x.d.entries.items()}
    lam_b.update({(i, ccs + i): one for i in range(nc)})
    lam_b.update({(ti, cr + si): val for (ti, si), val in x.v.entries.items()})
    lam_b.update({(nc + tj, cr + si): val for (tj, si), val in x.delta1.entries.items()})
    lam_b.update({(nc + j, rc + j): sgn(x.red.degree(j), one) for j in range(nr)})
    mu_b = {(nc + tj, cc + si): val for (tj, si), val in x.delta1.entries.items()}
    mu_b.update({(nc + tj, rc + sj): val for (tj, sj), val in x.r.entries.items()})
    k = {(cc + i, cr + i): sgn(x.irr.degree(i) + 1, one) for i in range(nc)}
    k.update({(ccs + ti, cr + si): sgn(x.irr.degree(ti) + 1, val)
              for (ti, si), val in x.d.entries.items()})
    el = {(rc + j, rc + j): sgn(x.red.degree(j), one) for j in range(nr)}
    m2 = {(ccs + ti, sj): sgn(x.irr.degree(ti) + 1, val)
          for (ti, sj), val in x.delta2.entries.items()}
    m2.update({(rc + tj, sj): dom.add(val, val) for (tj, sj), val in x.r.entries.items()})
    ident = {(j, j): one for j in range(nr)}
    return {
        "fwd lam": GradedMatrix(sx.irr, t.irr, 0, lam),
        "fwd mu": GradedMatrix(sx.irr, t.irr, -1, mu),
        "fwd delta1": GradedMatrix(sx.irr, t.red, 0, {}),
        "fwd delta2": GradedMatrix(sx.red, t.irr, -1, d2),
        "fwd rho": GradedMatrix(sx.red, t.red, 0, ident),
        "bwd lam": GradedMatrix(t.irr, sx.irr, 0, lam_b),
        "bwd mu": GradedMatrix(t.irr, sx.irr, -1, mu_b),
        "bwd delta1": GradedMatrix(t.irr, sx.red, 0, {}),
        "bwd delta2": GradedMatrix(t.red, sx.irr, -1, {}),
        "bwd rho": GradedMatrix(t.red, sx.red, 0, ident),
        "hfb K": GradedMatrix(t.irr, t.irr, 1, k),
        "hfb L": GradedMatrix(t.irr, t.irr, 0, el),
        "hfb M1": GradedMatrix(t.irr, t.red, 1, {}),
        "hfb M2": GradedMatrix(t.red, t.irr, 0, m2),
        "hfb J": GradedMatrix(t.red, t.red, 1, {}),
    }


def _suspension_blocks(w):
    out = {}
    for part, obj in (("fwd", w.forward), ("bwd", w.backward)):
        for b in ("lam", "mu", "delta1", "delta2", "rho"):
            out[f"{part} {b}"] = getattr(obj, b)
    for b in ("K", "L", "M1", "M2", "J"):
        out[f"hfb {b}"] = getattr(w.homotopy_fwd_back, b)
    return out


def test_suspension_witness_equals_the_index_loop_oracle():
    from scx.randgen import RINGS

    xs = [torus_link_complex(k) for k in range(1, 6)]
    for ring in RINGS.values():
        rng = random.Random(41)
        xs += [rand_scomplex(ring, rng, max_rank=6, r_perfect=(i % 2 == 0))
               for i in range(12)]
        # cones of random self-maps, for blocks of a nonzero r
        for _ in range(6):
            y = rand_scomplex(ring, rng, max_rank=4)
            xs.append(cone(rand_morphism(y, y, rng)))
    with_r = 0
    for x in xs:
        got = _suspension_blocks(suspension_witness(x))
        want = _oracle_suspension_blocks(x)
        assert got.keys() == want.keys()
        for name, m in want.items():
            g = got[name]
            assert (g.source, g.target, g.degree, g.entries) == (
                m.source, m.target, m.degree, m.entries), name
        with_r += not x.r.is_zero
    assert {x.ring for x in xs} == set(RINGS.values()) | {LAURENT_Z}
    assert with_r >= 10
