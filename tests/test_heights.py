import random

import pytest

from scx.errors import NotRPerfect, ShapeMismatch
from scx.functors import atomic, direct_sum, suspend, suspend_once
from scx.gradedlin import GradedMatrix, Sweep
from scx.heights import (
    HeightMorphism,
    OddMorphism,
    _tau_bound,
    compose_heights,
    compose_odd_after_height_minus1,
    factor_through_suspension,
    height_to_json,
    heights_equal,
    iota,
    kappa,
    odd_to_suspension_morphism,
    tau_closed_formula,
)
from scx.linkfam import torus_link_complex
from scx.randgen import rand_height_morphism, rand_morphism, rand_scomplex
from scx.rings import FRAC_LAURENT_Q, Q, Z, Zp
from scx.scomplex import SMorphism


def test_iota_and_kappa_are_strong():
    rng = random.Random(2)
    for n in (1, 2):
        x = rand_scomplex(Q, rng, max_rank=4, r_perfect=True, allow_cone=False)
        i = iota(x, n)
        assert i.height == n and i.is_strong and i.verify(n).ok
        k = kappa(x, n)
        assert k.height == -n and k.is_strong and k.verify(-n).ok


def test_even_morphism_with_invertible_rho_is_strong_height_zero():
    rng = random.Random(3)
    x = rand_scomplex(Q, rng, max_rank=4, r_perfect=True, allow_cone=False)
    h = HeightMorphism.from_morphism(SMorphism.identity(x))
    assert h.height == 0 and h.is_strong


def test_strong_over_laurent_needs_a_laurent_inverse():
    x = torus_link_complex(2)
    one = SMorphism.identity(x)
    assert HeightMorphism.from_morphism(one).is_strong
    assert not HeightMorphism.from_morphism(one + one).is_strong


def test_kappa_iota_composite_is_identity_like():
    x = atomic(0, Q, 4)
    c = compose_heights(kappa(x, 1), iota(x, 1))
    assert c.height == 0 and c.is_strong
    assert c.tau_at(0) == GradedMatrix.identity(x.red)


def test_monotone_acceptance():
    rng = random.Random(7)
    x = rand_scomplex(Q, rng, max_rank=4, r_perfect=True, allow_cone=False)
    i2 = iota(x, 2)
    for m in (2, 1, 0):
        assert i2.verify(m).ok
    assert not i2.verify(3).checks[-1][1] or i2.tau_at(2).is_zero


def test_tau_support_bound_rejected():
    x = atomic(0, Q, 4)
    sx = x
    bound = x.irr.rank + x.irr.rank + 2
    big = {bound + 5: GradedMatrix.zero(x.red, x.red, 0)}
    with pytest.raises(ShapeMismatch):
        HeightMorphism(x, x, 0, GradedMatrix.zero(x.irr, x.irr, 0),
                       GradedMatrix.zero(x.irr, x.irr, -1),
                       GradedMatrix.zero(x.irr, x.red, 0),
                       GradedMatrix.zero(x.red, x.irr, -1),
                       {bound + 5: GradedMatrix(x.red, x.red, 0,
                                                {(0, 0): Q.domain.one})}, 0)


@pytest.mark.parametrize("ring", [Z, Zp(2), Q, FRAC_LAURENT_Q], ids=str)
def test_height_refusals_come_in_the_constructor_order(ring):
    # the tau bound first, then the blocks (as the S-morphism constructor
    # refuses them), then the tau in their order; a well-formed tau_0 is the
    # plain morphism's rho.  C = a (1), b (0); R = t (0), u (2)
    from scx.gradedlin import GradedModule
    from scx.scomplex import SComplex

    irr = GradedModule(ring, 4, [("a", 1), ("b", 0)])
    red = GradedModule(ring, 4, [("t", 0), ("u", 2)])
    x = SComplex(irr, red)
    ci, cr = GradedMatrix.identity(irr), GradedMatrix.identity(red)
    bound = _tau_bound(x, x)
    cases = [
        ((cr,), {bound + 1: ci}, f"declared tau support |{bound + 1}| exceeds the bound {bound}"),
        ((cr,), {0: ci}, "component lambda has wrong endpoints"),
        ((None, None, None, [(cr, 0, 0)]), {-1: cr},
         "inhomogeneous entry at (a,t): 1 - 0 != 3 mod 4"),
        ((ci,), {0: ci}, "tau maps R to R'"),
        ((ci,), {0: cr, -1: cr}, "tau_-1 needs degree 2 mod 4"),
        ((ci,), {-1: cr, 0: ci}, "tau_-1 needs degree 2 mod 4"),
    ]
    for blocks, tau, text in cases:
        blocks = (*blocks, *[None] * (4 - len(blocks)))
        with pytest.raises(ShapeMismatch) as info:
            HeightMorphism(x, x, 0, *blocks, tau, 0)
        assert str(info.value) == text
    h = HeightMorphism(x, x, 0, ci, None, None, None, {0: cr}, 0)
    assert h.lam is ci and h._lift(0).rho is cr and h.tau == {0: cr}


def test_heights_need_r_perfect():
    rng = random.Random(11)
    from scx.functors import cone

    x = rand_scomplex(Q, rng, max_rank=3)
    c = cone(rand_morphism(x, x, rng, 0))
    if not c.is_r_perfect:
        with pytest.raises(NotRPerfect):
            iota(c, 1)


def test_composition_heights_add():
    rng = random.Random(13)
    for n, m in [(1, 1), (1, -1), (-1, 1), (0, 1), (0, -1)]:
        f = rand_height_morphism(Q, rng, n)
        y = f.target
        g = HeightMorphism.from_morphism(rand_morphism(y, y, rng, 0))
        if m == 1:
            g = compose_heights(iota(y, 1), g)
        elif m == -1:
            sy = suspend_once(y)
            g = compose_heights(kappa(y, 1),
                                HeightMorphism.from_morphism(rand_morphism(sy, sy, rng, 0)))
            # g: Sigma y -> y; precompose with iota to get y -> y of height 0
            g = compose_heights(g, iota(y, 1))
            m = 0
        comp = compose_heights(g, f)
        assert comp.verify().ok
        assert comp.height >= n + m


def test_factorizations_recompose():
    rng = random.Random(17)
    done = {1: 0, -1: 0}
    while min(done.values()) < 5:
        n = random.Random(rng.random()).choice([-1, 1])
        f = rand_height_morphism(Q, rng, n)
        if f.height != n:
            continue
        fac = factor_through_suspension(f)
        assert fac.verify(0).ok
        if n > 0:
            re = compose_heights(fac, iota(f.source, n))
        else:
            re = compose_heights(kappa(f.target, -n), fac)
        assert heights_equal(re, f)
        done[n] += 1


def factor_via_kappa_oracle(f):
    """Test oracle: `factor_through_suspension(f)` for height n > 0 as the
    composite f . kappa_n, with kappa_n built, swept and lifted (its lift is
    the identity of Sigma^n X).  The library unlifts Sigma^n of f's plain
    morphism instead."""
    return compose_heights(f, kappa(f.source, f.height))


@pytest.mark.parametrize("ring", [Z, Zp(2), Q, FRAC_LAURENT_Q], ids=str)
def test_factor_equals_the_composite_with_kappa(ring):
    rng = random.Random(71)
    for n in (1, 2, 3):
        done = 0
        while done < 3:
            f = _height_morphism_of(ring, rng, n)
            if f.height != n:
                continue
            fac, want = factor_through_suspension(f), factor_via_kappa_oracle(f)
            assert heights_equal(fac, want)
            assert (fac.source.irr, fac.source.red, fac.degree, fac.height) == (
                want.source.irr, want.source.red, want.degree, want.height)
            assert fac.target is want.target is f.target
            done += 1


def test_factor_iota2_has_identity_rho():
    x = atomic(0, Q, 4)
    f = iota(x, 2)
    fac = factor_through_suspension(f)
    assert fac.tau_at(0) == GradedMatrix.identity(x.red)


def test_height_minus1_factored_matrix_shape():
    # the expected 5x3 block matrix: rows (lambda; tau_{-1} delta1 | mu,
    # lambda, Delta2; Delta1, tau_{-1} delta1, tau_0 | 0, 0, tau_{-1})
    rng = random.Random(19)
    f = rand_height_morphism(Q, rng, -1)
    while f.height != -1:
        f = rand_height_morphism(Q, rng, -1)
    fac = factor_through_suspension(f)
    x, y = f.source, f.target
    nc, mc = x.irr.rank, y.irr.rank
    t_m1 = f.tau_at(-1)
    # row block 2 of lambda' is tau_{-1} delta1
    expect = t_m1 @ x.delta1
    for t, s in expect.entries:
        assert fac.lam.entry(mc + t, s) == expect.entry(t, s)
    # Delta2' stacks (Delta2; tau_0)
    for t, s in f.delta2.entries:
        assert fac.delta2.entry(t, s) == f.delta2.entry(t, s)
    for t, s in f.tau_at(0).entries:
        assert fac.delta2.entry(mc + t, s) == f.tau_at(0).entry(t, s)
    # rho' = tau_{-1}
    assert fac.tau_at(0).same_entries_as(t_m1)


def _rand_odd(x, rng):
    gm = rand_morphism(x, x, rng, 1)
    ent = {}
    for s in range(x.red.rank):
        for t in range(x.red.rank):
            if (x.red.degree(t) - x.red.degree(s)) % x.modulus == 0 and rng.random() < 0.6:
                ent[(t, s)] = x.ring.domain.from_int(rng.choice([1, -1]))
    return OddMorphism(gm, GradedMatrix(x.red, x.red, 0, ent))


def test_odd_composition_and_suspension_route():
    rng = random.Random(23)
    for trial in range(8):
        ring = Q if trial % 2 else Zp(2)
        f = rand_height_morphism(ring, rng, -1)
        while f.height != -1:
            f = rand_height_morphism(ring, rng, -1)
        y = f.target
        g = _rand_odd(y, rng)
        comp = compose_odd_after_height_minus1(g, f)
        assert comp.verify().ok
        lam2 = odd_to_suspension_morphism(g)
        assert lam2.verify().ok
        via = lam2.compose_after(factor_through_suspension(f).to_morphism())
        diff = via - comp
        assert all(m.is_zero for m in (diff.lam, diff.mu, diff.delta1,
                                       diff.delta2, diff.rho))
        back = lam2.compose_after(iota(y, 1).to_morphism()) - g.morphism
        assert all(m.is_zero for m in (back.lam, back.mu, back.delta1,
                                       back.delta2, back.rho))


def test_odd_composition_with_zero_tau_is_plain():
    rng = random.Random(29)
    x = rand_scomplex(Q, rng, max_rank=4, r_perfect=True, allow_cone=False)
    f0 = rand_morphism(x, x, rng, 0)
    f = HeightMorphism.from_morphism(f0)
    g = _rand_odd(x, rng)
    comp = compose_odd_after_height_minus1(g, f)
    plain = g.morphism.compose_after(f0)
    diff = comp - plain
    assert all(m.is_zero for m in (diff.lam, diff.mu, diff.delta1,
                                   diff.delta2, diff.rho))


def test_zero_odd_morphism_composes_to_zero():
    rng = random.Random(31)
    f = rand_height_morphism(Q, rng, -1)
    y = f.target
    g = OddMorphism(SMorphism.zero(y, y, 1), GradedMatrix.zero(y.red, y.red, 0))
    comp = compose_odd_after_height_minus1(g, f)
    assert all(m.is_zero for m in (comp.lam, comp.mu, comp.delta1,
                                   comp.delta2, comp.rho))


def tau_closed_formula_oracle(x, y, lam, mu, delta1, delta2, i):
    """Independent oracle for tau_closed_formula: the determined tau_i read
    straight off the closed formula, with the powers of v and v' rebuilt
    for each i."""
    vp = [GradedMatrix.identity(y.irr)]
    vs = [GradedMatrix.identity(x.irr)]
    for _ in range(i - 1):
        vp.append(y.v @ vp[-1])
        vs.append(x.v @ vs[-1])
    out = y.delta1 @ vp[i - 1] @ delta2 + delta1 @ vs[i - 1] @ x.delta2
    for j in range(i - 1):
        out = out + y.delta1 @ vp[j] @ mu @ vs[i - 2 - j] @ x.delta2
    return out


def _height_morphism_of(ring, rng, n):
    """A random height-n morphism X -> Sigma^n X (n > 0), Sigma^{-n} X -> X
    (n < 0) or X -> X (n = 0), from iota/kappa and a random height-0 one."""
    x = rand_scomplex(ring, rng, max_rank=4, r_perfect=True, allow_cone=False)
    if n >= 0:
        h0 = HeightMorphism.from_morphism(rand_morphism(x, x, rng, 0))
        return h0 if n == 0 else compose_heights(iota(x, n), h0)
    sx = suspend(x, -n)
    return compose_heights(kappa(x, -n), HeightMorphism.from_morphism(rand_morphism(sx, sx, rng, 0)))


def _sweep_matches_oracle(h):
    x, y = h.source, h.target
    n = _tau_bound(x, y) + 2  # past the bound too
    args = (x, y, h.lam, h.mu, h.delta1, h.delta2)
    taus = tau_closed_formula(*args, n)
    _, first_zero = tau_sweep_oracle(*args, n)
    assert len(taus) == (n if first_zero is None else first_zero)  # ends at the first zero pair
    for i in range(1, n + 1):
        want = tau_closed_formula_oracle(*args, i)
        if i <= len(taus):
            assert taus[i - 1] == want, i
        else:  # past the list, tau_i reads as zero
            assert want.is_zero, i
    return taus


@pytest.mark.parametrize("ring", [Z, Zp(2), Q, FRAC_LAURENT_Q], ids=str)
def test_tau_sweep_equals_the_closed_formula_oracle(ring):
    rng = random.Random(37)
    nonzero, factored = False, 0
    for n in (-2, -1, 0, 1, 2):
        for _ in range(2):
            h = _height_morphism_of(ring, rng, n)
            taus = _sweep_matches_oracle(h)
            nonzero = nonzero or any(not t.is_zero for t in taus)
            assert h.verify().ok
            x = h.target if n < 0 else h.source
            for m in (1, 2):
                _sweep_matches_oracle(iota(x, m))
                _sweep_matches_oracle(kappa(x, m))
            if h.height == n and n != 0:
                _sweep_matches_oracle(factor_through_suspension(h))
                factored += 1
    assert nonzero and factored  # some positive tau was not zero


def _rand_homogeneous(src, tgt, degree, rng):
    ring = src.ring
    ent = {}
    for t in range(tgt.rank):
        for s in range(src.rank):
            if (tgt.degree(t) - src.degree(s) - degree) % src.modulus == 0 and rng.random() < 0.6:
                c = rng.choice([-2, -1, 1, 3])
                ent[(t, s)] = (ring.monomial(rng.randint(-1, 1), c)
                               if ring == FRAC_LAURENT_Q else ring.from_int(c)).val
    return GradedMatrix(src, tgt, degree, ent)


@pytest.mark.parametrize("ring", [Z, Zp(2), Q, FRAC_LAURENT_Q], ids=str)
def test_tau_sweep_equals_the_oracle_on_random_components(ring):
    # the closed formula is a formula in the components and the complexes'
    # maps alone; on suspensions, whose v are nilpotent of higher order,
    # random components give nonzero tau_i deep into the sweep
    rng = random.Random(43)
    deepest = 0
    for _ in range(8):
        x = suspend(rand_scomplex(ring, rng, max_rank=4, r_perfect=True, allow_cone=False), 3)
        y = suspend(rand_scomplex(ring, rng, modulus=x.modulus, max_rank=4, r_perfect=True,
                                  allow_cone=False), rng.randint(1, 3))
        k = rng.choice((0, 2))
        lam = _rand_homogeneous(x.irr, y.irr, k, rng)
        mu = _rand_homogeneous(x.irr, y.irr, k - 1, rng)
        delta1 = _rand_homogeneous(x.irr, y.red, k, rng)
        delta2 = _rand_homogeneous(x.red, y.irr, k - 1, rng)
        n = _tau_bound(x, y)
        taus = tau_closed_formula(x, y, lam, mu, delta1, delta2, n)
        for i, t in enumerate(taus, 1):
            assert t == tau_closed_formula_oracle(x, y, lam, mu, delta1, delta2, i), i
            if not t.is_zero:
                deepest = max(deepest, i)
    assert deepest >= 3


def test_tampered_tau_1_fails_verify():
    x = atomic(0, Q, 4)
    h = iota(x, 1)
    bad = dict(h.tau)
    bad[1] = h.tau_at(1) + GradedMatrix.identity(x.red)
    t = HeightMorphism(h.source, h.target, h.degree, h.lam, h.mu,
                       h.delta1, h.delta2, bad, h.height)
    report = t.verify()
    assert not report.ok
    assert report.failed() == ["tau_1 closed formula"]


def test_a_raw_datum_composes_with_the_closed_formula_tau():
    # the composite reads the positive tau of its factors from the closed
    # formula, not from the stored ones: a raw datum whose stored tau_1
    # disagrees composes like the datum `from_components` builds, and no
    # longer like the convolution of the stored tau (the oracle's)
    x = atomic(0, Q, 4)
    h, g = iota(x, 1), kappa(x, 1)
    bad = dict(h.tau)
    bad[1] = h.tau_at(1) + GradedMatrix.identity(x.red)
    t = HeightMorphism(h.source, h.target, h.degree, h.lam, h.mu,
                       h.delta1, h.delta2, bad, h.height)
    comp = compose_heights(g, t)
    assert heights_equal(comp, compose_heights(g, h))
    assert comp.tau_at(0) == GradedMatrix.identity(x.red)
    convolved = compose_oracle(g, t)[4][0]
    assert convolved == GradedMatrix.identity(x.red) + GradedMatrix.identity(x.red)


def test_tau_sweep_makes_at_most_five_products_per_index(monkeypatch):
    rng = random.Random(41)
    h = _height_morphism_of(Q, rng, 1)
    x, y = h.source, h.target
    calls = []
    real = GradedMatrix.__matmul__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    monkeypatch.setattr(GradedMatrix, "__matmul__", counted)
    for n in (1, 2, 5, 12, 30):
        _, first_zero = tau_sweep_oracle(x, y, h.lam, h.mu, h.delta1, h.delta2, n)
        calls.clear()
        taus = tau_closed_formula(x, y, h.lam, h.mu, h.delta1, h.delta2, n)
        assert len(taus) == (n if first_zero is None else first_zero)
        assert len(calls) <= 5 * n


def tau_sweep_oracle(x, y, lam, mu, delta1, delta2, n):
    """Test oracle for tau_closed_formula's stop: the sweep of the module
    docstring run for all n steps.  Returns [tau_1, ..., tau_n] and the
    0-based index of the first step whose (P, Q) is (0, 0), or None."""
    taus, first_zero = [], None
    p, q = delta2, x.delta2
    for i in range(n):
        if i:
            p, q = y.v @ p + mu @ q, x.v @ q
        if first_zero is None and p.is_zero and q.is_zero:
            first_zero = i
        taus.append(y.delta1 @ p + delta1 @ q)
    return taus, first_zero


def _tau_inputs(ring, rng):
    """(x, y, lam, mu, delta1, delta2) of seeded height morphisms, of iota
    and kappa, and of random components on the complex whose v is
    invertible (where no (P, Q) is ever zero)."""
    from test_equivariant import _non_nilpotent_s_complex

    out = []
    for n in (-2, -1, 0, 1, 2):
        h = _height_morphism_of(ring, rng, n)
        x = h.target if n < 0 else h.source
        for m in (h, iota(x, 1), kappa(x, 2)):
            out.append((m.source, m.target, m.lam, m.mu, m.delta1, m.delta2))
    z = _non_nilpotent_s_complex(ring)
    for k in (0, 2):
        out.append((z, z, _rand_homogeneous(z.irr, z.irr, k, rng),
                    _rand_homogeneous(z.irr, z.irr, k - 1, rng),
                    _rand_homogeneous(z.irr, z.red, k, rng),
                    _rand_homogeneous(z.red, z.irr, k - 1, rng)))
    return out


@pytest.mark.parametrize("ring", [Z, Zp(2), Q, FRAC_LAURENT_Q], ids=str)
def test_tau_sweep_stops_at_the_first_zero_pair(ring, monkeypatch):
    rng = random.Random(47)
    calls = []
    real = GradedMatrix.__matmul__

    def counted(self, other):
        calls.append(1)
        return real(self, other)

    stops = endless = 0
    for args in _tau_inputs(ring, rng):
        x, y = args[:2]
        n = _tau_bound(x, y) + 3
        want, first_zero = tau_sweep_oracle(*args, n)
        monkeypatch.setattr(GradedMatrix, "__matmul__", counted)
        calls.clear()
        got = tau_closed_formula(*args, n)
        monkeypatch.setattr(GradedMatrix, "__matmul__", real)
        # the list ends at the first zero pair, and the oracle's tau past it are zero
        assert len(got) == (n if first_zero is None else first_zero)
        assert [(t.source, t.target, t.degree, t.entries) for t in got] == [
            (t.source, t.target, t.degree, t.entries) for t in want[:len(got)]]
        assert all(t.is_zero for t in want[len(got):])
        if first_zero is None:
            assert x.v.power(n).entries  # only a non-nilpotent v keeps (P, Q) nonzero
            endless += 1
        else:
            assert len(calls) <= 5 * (first_zero + 1)
            stops += first_zero < n - 1
    assert stops and endless == 2


def test_power_ladders_are_built_only_as_deep_as_they_are_read(monkeypatch):
    # the one sweep left in heights is `_unlift`'s delta1_S v_S^j, which
    # kappa_m . h reads for j < m; a sweep's depth is the number of products
    # it made, so no depth may pass m - 1
    import scx.heights

    built = []

    class Recorded(Sweep):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(scx.heights, "Sweep", Recorded)

    def depths():
        out = [len(s._terms) - 1 for s in built]
        built.clear()
        return out

    # delta1 v^j and v^j delta2 are nonzero for j < 3 and zero at j = 3, so
    # delta1_S v_S^j on S = Sigma^m X is nonzero past j = m - 1
    x = direct_sum(atomic(3, Q, 4), atomic(-3, Q, 4))
    h0 = HeightMorphism.from_morphism(SMorphism.identity(x))
    # verify reads its relations off one residual: no sweep
    for h in (iota(x, 1), kappa(x, 2), h0):
        depths()
        assert h.verify().ok
        assert depths() == []
    # kappa_n after iota_n unlifts from depth n: delta1_S v_S^j to j = n - 1
    for n in (1, 2, 3):
        g, f = kappa(x, n), iota(x, n)
        depths()
        comp = compose_heights(g, f)
        assert depths() == [n - 1]
        assert comp.verify(claimed_height=0).ok
        # factoring iota_n unlifts Sigma^n of its plain morphism: one unlift
        # from depth n
        fac = factor_through_suspension(f)
        assert depths() == [n - 1]
        assert fac.verify(claimed_height=0).ok
        # factoring kappa_n is its lift: no unlift
        factor_through_suspension(g)
        assert depths() == []
    # depth 0 on both sides: the sweep is made and never read
    compose_heights(iota(x, 2), h0)
    assert depths() == [0]


class _Powers:
    """Test oracle: m^0, m^1, ... of a square matrix m, each made from the
    one before.  The heights code reads every block-times-power product from
    a `Sweep` of the block instead; these are the earlier formulas, which
    form the powers."""

    def __init__(self, m):
        self._m = m
        self._out = [GradedMatrix.identity(m.source)]

    def __getitem__(self, j):
        out = self._out
        while len(out) <= j:
            out.append(self._m @ out[-1])
        return out[j]


def relations_oracle(h):
    """Test oracle: relations 1-4 of `HeightMorphism.verify` written out
    block by block, with the tau corrections added by hand and full powers
    of v.  `verify` reads them off the residual of the lift instead."""
    x, y = h.source, h.target
    bound = _tau_bound(x, y)
    vp, vs = _Powers(y.v), _Powers(x.v)
    rel1 = y.d @ h.lam - h.lam @ x.d
    for i in [-i for i in h.tau if i < 0]:
        for j in range(i):
            rel1 = rel1 - vp[j] @ y.delta2 @ h.tau_at(-i) @ x.delta1 @ vs[i - 1 - j]
    rel2 = -(y.delta1 @ h.lam) + h.delta1 @ x.d
    rel3 = h.lam @ x.delta2 + y.d @ h.delta2
    for i in range(0, bound + 1):
        t = h.tau_at(-i)
        if not t.is_zero:
            rel2 = rel2 + t @ x.delta1 @ vs[i]
            rel3 = rel3 - vp[i] @ y.delta2 @ t
    rel4 = (h.mu @ x.d + y.d @ h.mu + h.lam @ x.v - y.v @ h.lam
            + h.delta2 @ x.delta1 - y.delta2 @ h.delta1)
    return [rel1, rel2, rel3, rel4]


def compose_oracle(g, f):
    """Test oracle: lambda, mu, Delta1, Delta2 and the tau family of
    `compose_heights(g, f)` written out block by block, with full powers of
    v, v' and v''; the nonpositive tau are the convolution
    sum_k tau(g)_{i-k}.tau(f)_k and the positive ones the closed formula.
    `compose_heights` composes the lifts in the suspension tower instead."""
    x, ymid, z = f.source, f.target, g.target
    sup_f = max(0, -min([i for i in f.tau] or [0]))
    sup_g = max(0, -min([i for i in g.tau] or [0]))
    vX, vY, vZ = _Powers(x.v), _Powers(ymid.v), _Powers(z.v)
    tg, tf = g.tau_at, f.tau_at
    lam = g.lam @ f.lam
    for i in range(0, sup_g):
        for j in range(i + 1):
            lam = lam + vZ[j] @ z.delta2 @ tg(-(i + 1)) @ f.delta1 @ vX[i - j]
    for i in range(0, sup_f):
        for j in range(i + 1):
            lam = lam + vZ[j] @ g.delta2 @ tf(-(i + 1)) @ x.delta1 @ vX[i - j]
    for i in range(0, sup_g - 1):
        for j in range(i + 1):
            for kk in range(i - j + 1):
                lam = lam + (vZ[j] @ z.delta2 @ tg(-(i + 2)) @ ymid.delta1 @ vY[kk]
                             @ f.mu @ vX[i - j - kk])
    for i in range(0, sup_f - 1):
        for j in range(i + 1):
            for kk in range(i - j + 1):
                lam = lam + (vZ[j] @ g.mu @ vY[kk] @ ymid.delta2 @ tf(-(i + 2))
                             @ x.delta1 @ vX[i - j - kk])
    mu = g.lam @ f.mu + g.mu @ f.lam + g.delta2 @ f.delta1
    d1 = g.delta1 @ f.lam
    for i in range(0, sup_g + 1):
        d1 = d1 + tg(-i) @ f.delta1 @ vX[i]
    for i in range(0, sup_g):
        for j in range(i + 1):
            d1 = d1 + tg(-(i + 1)) @ ymid.delta1 @ vY[j] @ f.mu @ vX[i - j]
    d2 = g.lam @ f.delta2
    for i in range(0, sup_f + 1):
        d2 = d2 + vZ[i] @ g.delta2 @ tf(-i)
    for i in range(0, sup_f):
        for j in range(i + 1):
            d2 = d2 + vZ[j] @ g.mu @ vY[i - j] @ ymid.delta2 @ tf(-(i + 1))
    bound = _tau_bound(x, z)
    tau = {}
    for i in range(-bound, 1):
        acc = GradedMatrix.zero(x.red, z.red, g.degree + f.degree - 2 * i)
        for kk in f.tau:
            if i - kk in g.tau:
                acc = acc + g.tau[i - kk] @ f.tau[kk]
        tau[i] = acc
    for i in range(1, bound + 1):
        tau[i] = tau_closed_formula_oracle(x, z, lam, mu, d1, d2, i)
    return lam, mu, d1, d2, {i: t for i, t in tau.items() if not t.is_zero}


def factor_oracle(f):
    """Test oracle: lambda' and Delta2' of `factor_through_suspension(f)` for
    f of height n != 0, block by block with full powers of v and v'.
    `factor_through_suspension` composes with kappa_n or lifts instead."""
    n = f.height
    x, y = f.source, f.target
    if n > 0:
        sx = suspend(x, n)
        nc, nr = x.irr.rank, x.red.rank
        k = f.degree - 2 * n
        vp, vs = _Powers(y.v), _Powers(x.v)
        # mu_i = sum_{j<i} v'^j mu v^{i-j-1}
        mu_i = [GradedMatrix.zero(x.irr, y.irr, f.degree - 1)]
        for i in range(1, n + 1):
            acc = GradedMatrix.zero(x.irr, y.irr, f.degree - 1 - 2 * (i - 1))
            for j in range(i):
                acc = acc + vp[j] @ f.mu @ vs[i - j - 1]
            mu_i.append(acc)
        lam = GradedMatrix.from_blocks(
            sx.irr, y.irr, k, (f.lam, 0, 0),
            *((mu_i[i - 1] @ x.delta2 + vp[i - 1] @ f.delta2, 0, nc + (i - 1) * nr)
              for i in range(1, n + 1)))
        d2 = mu_i[n] @ x.delta2 + vp[n] @ f.delta2
        return lam, GradedMatrix(sx.red, y.irr, k - 1, dict(d2.entries))
    m = -n
    sy = suspend(y, m)
    mc, mr = y.irr.rank, y.red.rank
    k = f.degree + 2 * m
    vs = _Powers(x.v)
    blocks = [(f.lam, 0, 0)]
    for t in range(m):
        acc = None
        for i in range(t + 1, m + 1):
            term = f.tau_at(-i) @ x.delta1 @ vs[i - 1 - t]
            acc = term if acc is None else acc + term
        blocks.append((acc, mc + t * mr, 0))
    lam = GradedMatrix.from_blocks(x.irr, sy.irr, k, *blocks)
    d2 = GradedMatrix.from_blocks(x.red, sy.irr, k - 1, (f.delta2, 0, 0),
                                  *((f.tau_at(-t), mc + t * mr, 0) for t in range(m)))
    return lam, d2


def _rand_height_data(x, y, rng, height=None):
    """Random components and nonpositive taus tau_0 .. tau_{-3} from x to y,
    which need not satisfy the relations: the sweeps and the oracles are
    formulas in the data alone.  Built by `from_components`, which adds the
    positive taus of the closed formula; with a height, by the raw
    constructor, which keeps the taus as given under that declared height."""
    k = rng.choice((0, 2))
    tau = {-i: _rand_homogeneous(x.red, y.red, k + 2 * i, rng) for i in range(4)}
    comps = (_rand_homogeneous(x.irr, y.irr, k, rng), _rand_homogeneous(x.irr, y.irr, k - 1, rng),
             _rand_homogeneous(x.irr, y.red, k, rng), _rand_homogeneous(x.red, y.irr, k - 1, rng))
    if height is None:
        return HeightMorphism.from_components(x, y, k, *comps, tau)
    return HeightMorphism(x, y, k, *comps, tau, height)


def _rich_complex(ring, rng):
    """O(n) for |n| in {2, 3}, whose delta1 v^j or v^j delta2 vanish only at
    j = 2 or 3, plus a random suspended complex; graded mod 2, so that
    random homogeneous components have many entries."""
    a = atomic(rng.choice((-3, -2, 2, 3)), ring, 2)
    b = rand_scomplex(ring, rng, modulus=2, max_rank=4, r_perfect=True, allow_cone=False)
    return direct_sum(a, suspend(b, rng.randint(0, 2)))


@pytest.mark.parametrize("ring", [Z, Q, FRAC_LAURENT_Q], ids=str)
def test_sweeps_equal_the_power_oracle(ring, monkeypatch):
    # verify's relations, the composite's components and tau family and the
    # factored lambda' and Delta2' equal the formulas with full powers, entry
    # for entry
    import scx.heights
    from scx.scomplex import _rel

    seen = []

    def recording(name, m):
        seen.append(m)
        return _rel(name, m)

    monkeypatch.setattr(scx.heights, "_rel", recording)
    rng = random.Random(47)
    nonzero = 0
    for _ in range(3):
        xs = [_rich_complex(ring, rng) for _ in range(3)]
        f = _rand_height_data(xs[0], xs[1], rng)
        g = _rand_height_data(xs[1], xs[2], rng)
        for h in (f, g):
            seen.clear()
            h.verify()
            assert seen[:4] == relations_oracle(h)
            nonzero += sum(not m.is_zero for m in seen[:4])
        comp = compose_heights(g, f)
        lam, mu, d1, d2, tau = compose_oracle(g, f)
        assert [comp.lam, comp.mu, comp.delta1, comp.delta2] == [lam, mu, d1, d2]
        assert comp.tau == tau and any(i < 0 for i in tau)
        for n in (-3, -1, 1, 3):
            h = _rand_height_data(xs[0], xs[1], rng, n)
            fac = factor_through_suspension(h)
            assert [fac.lam, fac.delta2] == list(factor_oracle(h)), n
            nonzero += not fac.lam.is_zero
    assert nonzero > 10


def compose_odd_oracle(g, f):
    """Test oracle: the odd composite of `compose_odd_after_height_minus1`
    with its nu-corrected components written out block by block.  The
    library composes `odd_to_suspension_morphism(g)` with the lift of f
    instead."""
    gm = g.morphism
    x, ymid, z = f.source, gm.source, gm.target
    t0, tm1 = f.tau_at(0), f.tau_at(-1)
    lam = gm.lam @ f.lam + gm.delta2 @ tm1 @ x.delta1
    mu = gm.lam @ f.mu + gm.mu @ f.lam + gm.delta2 @ f.delta1
    d1 = gm.delta1 @ f.lam + g.nu @ tm1 @ x.delta1
    d2 = (gm.lam @ f.delta2 + gm.delta2 @ t0 + z.delta2 @ g.nu @ tm1
          + z.v @ gm.delta2 @ tm1 + gm.mu @ ymid.delta2 @ tm1)
    k = (gm.degree + f.degree) % x.modulus
    return SMorphism(x, z, k, lam, mu, d1, d2, GradedMatrix.zero(x.red, z.red, k))


@pytest.mark.parametrize("ring", [Z, Zp(2), Q, FRAC_LAURENT_Q], ids=str)
def test_odd_composite_equals_the_block_oracle(ring):
    # on random data of depth 0 and 1, valid or not, entry for entry
    rng = random.Random(53)
    nonzero = 0
    for trial in range(6):
        xs = [_rich_complex(ring, rng) for _ in range(2)]
        k = rng.choice((0, 2))
        tau = {-i: _rand_homogeneous(xs[0].red, xs[1].red, k + 2 * i, rng)
               for i in range(trial % 2 + 1)}
        f = HeightMorphism.from_components(
            xs[0], xs[1], k, _rand_homogeneous(xs[0].irr, xs[1].irr, k, rng),
            _rand_homogeneous(xs[0].irr, xs[1].irr, k - 1, rng),
            _rand_homogeneous(xs[0].irr, xs[1].red, k, rng),
            _rand_homogeneous(xs[0].red, xs[1].irr, k - 1, rng), tau)
        y = xs[1]
        g = OddMorphism(rand_morphism(y, y, rng, 1), _rand_homogeneous(y.red, y.red, 0, rng))
        got, want = compose_odd_after_height_minus1(g, f), compose_odd_oracle(g, f)
        parts = ("lam", "mu", "delta1", "delta2", "rho")
        assert got.degree == want.degree
        assert [getattr(got, p) for p in parts] == [getattr(want, p) for p in parts]
        nonzero += not got.lam.is_zero
    assert nonzero


def _valid_heights(ring, rng, depth):
    """Seeded valid height morphisms with nonpositive tau down to -depth:
    height-0 morphisms for depth 0, kappa_depth after a random height-0
    morphism of the suspension otherwise, and kappa_depth itself, on a
    complex with C nonzero (with C = 0 every datum satisfies the relations)."""
    x = rand_scomplex(ring, rng, max_rank=4, r_perfect=True, allow_cone=False)
    while x.irr.rank < 2:
        x = rand_scomplex(ring, rng, max_rank=4, r_perfect=True, allow_cone=False)
    if depth == 0:
        return [HeightMorphism.from_morphism(rand_morphism(x, x, rng, 0)),
                HeightMorphism.from_morphism(SMorphism.identity(x))]
    sx = suspend(x, depth)
    up = HeightMorphism.from_morphism(rand_morphism(sx, sx, rng, 0))
    return [compose_heights(kappa(x, depth), up), kappa(x, depth)]


def _perturbed(h, rng):
    """h with one of lambda, mu, Delta1, Delta2 or a nonpositive tau moved by
    a nonzero random homogeneous matrix, rebuilt by `from_components`."""
    x, y, k = h.source, h.target, h.degree
    parts = [h.lam, h.mu, h.delta1, h.delta2]
    tau = {i: t for i, t in h.tau.items() if i <= 0}
    depth = max(0, -min(tau, default=0))
    for _ in range(100):
        which = rng.randrange(5)
        i = -rng.randint(0, depth)
        old = parts[which] if which < 4 else h.tau_at(i)
        step = _rand_homogeneous(old.source, old.target, old.degree if which < 4 else k - 2 * i, rng)
        if not step.is_zero:
            break
    if which < 4:
        parts[which] = old + step
    else:
        tau[i] = old + step
    return HeightMorphism.from_components(x, y, k, *parts, tau)


@pytest.mark.parametrize("ring", [Z, Zp(2), Q, FRAC_LAURENT_Q], ids=str)
def test_relations_vanish_exactly_when_the_lift_is_a_chain_map(ring):
    from scx.heights import _depth

    rng = random.Random(59)
    valid = broken = 0
    for depth in (0, 1, 2):
        for _ in range(3):
            for h in _valid_heights(ring, rng, depth):
                assert h.verify().ok
                for cand in (h, _perturbed(h, rng), _perturbed(h, rng)):
                    m = _depth(cand.tau)
                    f = cand._lift(m)
                    residual = (f.target.total_differential() @ f.assemble()
                                - f.assemble() @ cand.source.total_differential())
                    relations = cand.verify().checks[:4]
                    assert all(ok for _, ok, _ in relations) == residual.is_zero
                    assert [r.is_zero for r in relations_oracle(cand)] == [
                        ok for _, ok, _ in relations]
                    valid += residual.is_zero
                    broken += not residual.is_zero
    assert valid >= 18 and broken >= 10


def lift_oracle(h, m):
    """Test oracle: `HeightMorphism._lift(m)` by the componentwise, checked
    `SMorphism` constructor, with lambda_F, mu_F and Delta2_F made by
    `from_blocks` and every missing tau read as a zero matrix.  The library
    hands the blocks to the constructor as pieces instead."""
    x, y = h.source, h.target
    if m == 0:
        return SMorphism(x, y, h.degree, h.lam, h.mu, h.delta1, h.delta2, h.tau_at(0))
    sy = suspend(y, m)
    mc, mr = y.irr.rank, y.red.rank
    k = h.degree + 2 * m
    lam = [(h.lam, 0, 0)]
    acc = GradedMatrix.zero(x.irr, y.red, k)
    for t in reversed(range(m)):
        acc = acc @ x.v + h.tau_at(-(t + 1)) @ x.delta1
        lam.append((acc, mc + t * mr, 0))
    return SMorphism(
        x, sy, k, GradedMatrix.from_blocks(x.irr, sy.irr, k, *lam),
        GradedMatrix.from_blocks(x.irr, sy.irr, k - 1, (h.mu, 0, 0), (h.delta1, mc, 0)),
        delta2=GradedMatrix.from_blocks(x.red, sy.irr, k - 1, (h.delta2, 0, 0),
                                        *((h.tau_at(-t), mc + t * mr, 0) for t in range(m))),
        rho=GradedMatrix(x.red, sy.red, k, dict(h.tau_at(-m).entries)))


@pytest.mark.parametrize("ring", [Z, Zp(2), Q, FRAC_LAURENT_Q], ids=str)
def test_the_lift_is_the_componentwise_morphism_and_is_kept(ring):
    from scx.heights import _depth

    rng = random.Random(61)
    seen = set()
    for depth in range(4):
        for _ in range(2):
            x, y = _rich_complex(ring, rng), _rich_complex(ring, rng)
            k = rng.choice((0, 2))
            # some tau_{-i} above the depth are left out: they read as zero
            tau = {-i: _rand_homogeneous(x.red, y.red, k + 2 * i, rng)
                   for i in range(depth + 1) if i == depth or rng.random() < 0.5}
            h = HeightMorphism.from_components(
                x, y, k, _rand_homogeneous(x.irr, y.irr, k, rng),
                _rand_homogeneous(x.irr, y.irr, k - 1, rng),
                _rand_homogeneous(x.irr, y.red, k, rng),
                _rand_homogeneous(x.red, y.irr, k - 1, rng), tau)
            for g in (h, kappa(x, depth or 1)):
                for m in range(_depth(g.tau), 4):
                    got, want = g._lift(m), lift_oracle(g, m)
                    assert (got.source, got.target, got.degree) == (
                        want.source, want.target, want.degree)
                    assert got.assemble() == want.assemble()
                    assert g._lift(m) is got  # kept
                    seen.add(m)
                # the kept lift equals one rebuilt from the components, which
                # cannot be changed under it
                m = _depth(g.tau)
                again = HeightMorphism(g.source, g.target, g.degree, g.lam, g.mu,
                                       g.delta1, g.delta2, g.tau, g.height)
                assert again._lift(m).assemble() == g._lift(m).assemble()
                for name in ("lam", "tau", "height", "_lifts"):
                    with pytest.raises(AttributeError):
                        setattr(g, name, None)
    assert seen == {0, 1, 2, 3}


def hand_placed_lift_oracle(h, m):
    """Test oracle: `HeightMorphism._lift(m)` as it was built before it
    handed its blocks to the `SMorphism` constructor as pieces.  Every block
    of the total is placed at offsets written out here, lambda_F twice, by
    the checked `GradedMatrix.from_blocks` (the original placed them
    unchecked)."""
    x, y, tau = h.source, h.target, h.tau
    sy = suspend(y, m)
    nc, mc, mr = x.irr.rank, y.irr.rank, y.red.rank
    big = sy.irr.rank  # where the C[-1] band starts
    k = h.degree + 2 * m
    lam = [(h.lam, 0, 0)]
    acc = GradedMatrix.zero(x.irr, y.red, k)
    for t in reversed(range(m)):
        acc = acc @ x.v if -(t + 1) not in tau else acc @ x.v + tau[-(t + 1)] @ x.delta1
        lam.append((acc, mc + t * mr, 0))
    # Delta1 at row big + mc is mu_F's lower block (E when m = 0); in the R
    # column, Delta2_F's tau_{-t} sit at rows big + mc + t.mr, and
    # rho_F = tau_{-m} at 2 big, where R's row band starts
    blocks = [*lam, *((b, big + row, nc + col) for b, row, col in lam),
              (h.mu, big, 0), (h.delta1, big + mc, 0), (h.delta2, big, 2 * nc),
              *((tau[-t], big + mc + t * mr, 2 * nc) for t in range(m + 1) if -t in tau)]
    return GradedMatrix.from_blocks(x.total_module(), sy.total_module(), k, *blocks)


@pytest.mark.parametrize("ring", [Z, Zp(2), Q, FRAC_LAURENT_Q], ids=str)
def test_the_lift_equals_the_hand_placed_oracle(ring):
    from scx.heights import _depth

    rng = random.Random(67)
    nonzero = set()
    for depth in range(4):
        for _ in range(2):
            x, y = _rich_complex(ring, rng), _rich_complex(ring, rng)
            k = rng.choice((0, 2))
            tau = {-i: _rand_homogeneous(x.red, y.red, k + 2 * i, rng)
                   for i in range(depth + 1) if i == depth or rng.random() < 0.5}
            h = HeightMorphism.from_components(
                x, y, k, _rand_homogeneous(x.irr, y.irr, k, rng),
                _rand_homogeneous(x.irr, y.irr, k - 1, rng),
                _rand_homogeneous(x.irr, y.red, k, rng),
                _rand_homogeneous(x.red, y.irr, k - 1, rng), tau)
            for g in (h, kappa(x, depth or 1), iota(x, depth or 1)):
                for m in range(_depth(g.tau), 4):
                    got, want = g._lift(m).assemble(), hand_placed_lift_oracle(g, m)
                    assert (got.source, got.target, got.degree, got.entries) == (
                        want.source, want.target, want.degree, want.entries)
                    if got.entries:
                        nonzero.add(m)
    assert nonzero == {0, 1, 2, 3}


def test_a_compose_and_verify_build_each_suspension_once(monkeypatch):
    # every Sigma of a complex is built once and kept on it: iota_2, kappa_2,
    # the lifts at depth 2, the tower of suspended morphisms and the
    # composite's verify all share Sigma X and Sigma^2 X
    import scx.functors

    built = []
    real = scx.functors._suspension

    def counted(x):
        built.append(x)
        return real(x)

    monkeypatch.setattr(scx.functors, "_suspension", counted)
    rng = random.Random(67)
    x = rand_scomplex(Q, rng, max_rank=4, r_perfect=True, allow_cone=False)
    s2 = suspend(x, 2)
    f = compose_heights(kappa(x, 2), HeightMorphism.from_morphism(rand_morphism(s2, s2, rng, 0)))
    g = HeightMorphism.from_morphism(rand_morphism(x, x, rng, 0))
    assert [id(c) for c in built] == [id(x), id(suspend_once(x))]
    comp = compose_heights(g, f)
    assert comp.height == -2 and comp.verify().ok and f.verify().ok
    assert comp.verify(claimed_height=-2).ok and iota(x, 2).verify().ok
    assert [id(c) for c in built] == [id(x), id(suspend_once(x))]


# Test oracle: `iota` and `kappa` as they were written before they handed
# their blocks to `from_components` as pieces: each identity placed by an
# index loop and each block they leave out written as a zero of its shape.


def _iota_oracle(x, n):
    sx = suspend(x, n)
    nc, nr = x.irr.rank, x.red.rank
    one = x.ring.domain.one
    lam = GradedMatrix(x.irr, sx.irr, 2 * n, {(i, i): one for i in range(nc)})
    d2 = GradedMatrix(x.red, sx.irr, 2 * n - 1, {(nc + j, j): one for j in range(nr)})
    return HeightMorphism.from_components(
        x, sx, 2 * n, lam, GradedMatrix.zero(x.irr, sx.irr, 2 * n - 1),
        GradedMatrix.zero(x.irr, sx.red, 2 * n), d2, {})


def _kappa_oracle(x, n):
    sx = suspend(x, n)
    one = x.ring.domain.one
    lam = GradedMatrix(sx.irr, x.irr, -2 * n, {(i, i): one for i in range(x.irr.rank)})
    return HeightMorphism.from_components(
        sx, x, -2 * n, lam, GradedMatrix.zero(sx.irr, x.irr, -2 * n - 1),
        GradedMatrix.zero(sx.irr, x.red, -2 * n), GradedMatrix.zero(sx.red, x.irr, -2 * n - 1),
        {-n: GradedMatrix.identity(x.red)})


@pytest.mark.parametrize("ring", [Z, Zp(2), Q, FRAC_LAURENT_Q], ids=str)
def test_iota_and_kappa_equal_the_index_loop_oracle(ring):
    rng = random.Random(31)
    for _ in range(4):
        x = rand_scomplex(ring, rng, max_rank=5, r_perfect=True, allow_cone=False)
        for n in (1, 2, 3):
            for build, oracle in ((iota, _iota_oracle), (kappa, _kappa_oracle)):
                got, want = build(x, n), oracle(x, n)
                assert height_to_json(got) == height_to_json(want)
                assert heights_equal(got, want) and got.height == want.height
