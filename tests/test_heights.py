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
    assert len(taus) == n
    for i, t in enumerate(taus, 1):
        assert t == tau_closed_formula_oracle(*args, i), i
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
        calls.clear()
        taus = tau_closed_formula(x, y, h.lam, h.mu, h.delta1, h.delta2, n)
        assert len(taus) == n
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
        assert [(t.source, t.target, t.degree, t.entries) for t in got] == [
            (t.source, t.target, t.degree, t.entries) for t in want]
        if first_zero is None:
            assert x.v.power(n).entries  # only a non-nilpotent v keeps (P, Q) nonzero
            endless += 1
        else:
            assert len(calls) <= 5 * (first_zero + 1)
            stops += first_zero < n - 1
    assert stops and endless == 2


def test_power_ladders_are_built_only_as_deep_as_they_are_read(monkeypatch):
    # every block-times-power product comes from a sweep of that block; a
    # sweep's depth is the number of products it made
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

    # delta1 v^j and v^j delta2 are nonzero for j < 3 and zero at j = 3
    x = direct_sum(atomic(3, Q, 4), atomic(-3, Q, 4))
    # no nonpositive tau: verify reads no term past delta1 and delta2'
    h = iota(x, 1)
    depths()
    assert h.verify(claimed_height=1).ok
    assert depths() == [0, 0]
    # kappa_n has only tau_{-n}: relations 1-3 read delta1 v^0 .. v^n and
    # v'^0 .. v'^n delta2'
    for n in (1, 2, 3):
        k = kappa(x, n)
        depths()
        assert k.verify(claimed_height=-n).ok
        assert depths() == [n, n]
    # kappa_2 after iota_2: only g has a nonpositive tau (tau_{-2}); the
    # sweeps of f's Delta1 and mu are zero from the start, and of the
    # others only delta1' v' and v'' delta2'' are read, to j = 1
    g, f = kappa(x, 2), iota(x, 2)
    depths()
    comp = compose_heights(g, f)
    # made in the order f Delta1, f mu, delta1, delta1', delta2', delta2'',
    # g Delta2, g mu
    assert depths() == [0, 0, 0, 1, 0, 1, 0, 0]
    assert comp.verify(claimed_height=0).ok
    assert depths() == [0, 0]


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
    """Relations 1-3 of `HeightMorphism.verify`, with full powers of v."""
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
    return [rel1, rel2, rel3]


def compose_oracle(g, f):
    """lambda, mu, Delta1 and Delta2 of `compose_heights(g, f)`, with full
    powers of v, v' and v''."""
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
    return lam, mu, d1, d2


def factor_oracle(f):
    """lambda' and Delta2' of `factor_through_suspension(f)` for f of
    height n != 0, with full powers of v and v'."""
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


def _rand_height_data(x, y, rng, height):
    """Random components and nonpositive taus tau_0 .. tau_{-3} from x to y,
    which need not satisfy the relations: the sweeps and the oracles are
    formulas in the data alone."""
    k = rng.choice((0, 2))
    tau = {-i: _rand_homogeneous(x.red, y.red, k + 2 * i, rng) for i in range(4)}
    return HeightMorphism(x, y, k,
                          _rand_homogeneous(x.irr, y.irr, k, rng),
                          _rand_homogeneous(x.irr, y.irr, k - 1, rng),
                          _rand_homogeneous(x.irr, y.red, k, rng),
                          _rand_homogeneous(x.red, y.irr, k - 1, rng),
                          tau, height)


def _rich_complex(ring, rng):
    """O(n) for |n| in {2, 3}, whose delta1 v^j or v^j delta2 vanish only at
    j = 2 or 3, plus a random suspended complex; graded mod 2, so that
    random homogeneous components have many entries."""
    a = atomic(rng.choice((-3, -2, 2, 3)), ring, 2)
    b = rand_scomplex(ring, rng, modulus=2, max_rank=4, r_perfect=True, allow_cone=False)
    return direct_sum(a, suspend(b, rng.randint(0, 2)))


@pytest.mark.parametrize("ring", [Z, Q, FRAC_LAURENT_Q], ids=str)
def test_sweeps_equal_the_power_oracle(ring, monkeypatch):
    # verify's relations, the composite's components and the factored
    # lambda' and Delta2' equal the formulas with full powers, entry for entry
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
        f = _rand_height_data(xs[0], xs[1], rng, 0)
        g = _rand_height_data(xs[1], xs[2], rng, 0)
        for h in (f, g):
            seen.clear()
            h.verify()
            assert seen[:3] == relations_oracle(h)
            nonzero += sum(not m.is_zero for m in seen[:3])
        comp = compose_heights(g, f)
        assert [comp.lam, comp.mu, comp.delta1, comp.delta2] == list(compose_oracle(g, f))
        for n in (-3, -1, 1, 3):
            h = _rand_height_data(xs[0], xs[1], rng, n)
            fac = factor_through_suspension(h)
            assert [fac.lam, fac.delta2] == list(factor_oracle(h)), n
            nonzero += not fac.lam.is_zero
    assert nonzero > 10
