"""Relation reports: a passing check splits nothing, a failing one names the
same first offender as the block-by-block reading.

`scomplex._relations` and `HeightMorphism.verify` answer a residual with no
entry with an all-pass report and split the residual into blocks only when
it has one.  The oracles below are the readings that split every residual;
each perturbed object's report must equal theirs byte for byte, in `repr`
and in the CLI's JSON payload."""

import json
import random

import pytest

import scx.heights
import scx.scomplex
from scx.cli import _report_payload
from scx.functors import atomic, direct_sum, suspend
from scx.gradedlin import GradedMatrix, GradedModule
from scx.heights import (
    HeightMorphism,
    _depth,
    _rows,
    _tau_bound,
    compose_heights,
    iota,
    kappa,
    tau_closed_formula,
)
from scx.randgen import rand_homotopy_pair, rand_morphism, rand_scomplex
from scx.rings import FRAC_LAURENT_Q, Q, Z, Zp
from scx.scomplex import RelationReport, SComplex, SHomotopy, SMorphism, _blocks, _rel
from scx.triangles import cone_triangle

RINGS = [Z, Zp(2), Q, FRAC_LAURENT_Q]


def split_relations_oracle(residual, x, y, rows):
    """Test oracle: `scomplex._relations` reading every row from the split
    residual, whether or not it has an entry."""
    blocks = dict(zip("ABECG", _blocks(residual, x, y)))
    return RelationReport(_rel(name, -blocks[b] if neg else blocks[b]) for name, b, neg in rows)


def height_verify_oracle(h, claimed_height=None):
    """Test oracle: `HeightMorphism.verify` reading relations 1-4 from the
    split residual of the lift and every closed-formula row from the
    difference of the stored and the swept tau."""
    x, y = h.source, h.target
    k, m = h.degree, _depth(h.tau)
    f = h._lift(m)
    total = f.assemble()
    a, b, e, c, _ = _blocks(f.target.total_differential() @ total
                            - total @ x.total_differential(), x, f.target)
    rel2 = -e if m == 0 else -_rows(b, y.red, k - 1, y.irr.rank)
    checks = [
        _rel("relation 1 (d'lambda - lambda d - tau corrections)", _rows(a, y.irr, k - 1)),
        _rel("relation 2 (-delta1' lambda + Delta1 d + tau corrections)", rel2),
        _rel("relation 3 (lambda delta2 + d' Delta2 - tau corrections)",
             -_rows(c, y.irr, k - 2)),
        _rel("relation 4 (mu anticommutator)", -_rows(b, y.irr, k - 2)),
    ]
    bound = _tau_bound(x, y)
    taus = tau_closed_formula(x, y, h.lam, h.mu, h.delta1, h.delta2, bound)
    for i in range(1, bound + 1):  # past the shorter list, tau_i is zero
        want = taus[i - 1] if i <= len(taus) else GradedMatrix.zero(x.red, y.red, k - 2 * i)
        checks.append(_rel(f"tau_{i} closed formula", h.tau_at(i) - want))
    if claimed_height is not None:
        ok = all(h.tau_at(i).is_zero for i in range(-bound, min(claimed_height, bound + 1)))
        checks.append((f"height >= {claimed_height}", ok, None))
    return RelationReport(checks)


def _same_report(got, want):
    assert repr(got) == repr(want)
    assert (json.dumps(_report_payload(got), sort_keys=True)
            == json.dumps(_report_payload(want), sort_keys=True))


def _perturbed(m, degree, rng):
    """m with one unit added at a random position of the given degree (an
    entry that becomes zero is dropped), or None when there is none."""
    src, tgt = m.source, m.target
    mod = src.modulus
    spots = [(t, s) for t in range(tgt.rank) for s in range(src.rank)
             if (tgt.degree(t) - src.degree(s) - degree) % mod == 0]
    if not spots:
        return None
    dom = m.ring.domain
    key = rng.choice(spots)
    ent = dict(m.entries)
    ent[key] = dom.add(ent.get(key, dom.zero), dom.one)
    return GradedMatrix(src, tgt, degree, ent)


def _variants(blocks, rng, tries=3):
    """(index, perturbed block) pairs: `tries` perturbations of each block,
    given as (matrix, degree)."""
    for i, (m, degree) in enumerate(blocks):
        for _ in range(tries):
            p = _perturbed(m, degree, rng)
            if p is not None:
                yield i, p


def _swap(parts, i, p):
    return parts[:i] + [p] + parts[i + 1:]


@pytest.fixture
def recorded(monkeypatch):
    """Every `_relations` report made, paired with the oracle's."""
    calls = []
    real = scx.scomplex._relations

    def recording(residual, x, y, rows):
        rep = real(residual, x, y, rows)
        calls.append((rep, split_relations_oracle(residual, x, y, rows)))
        return rep

    monkeypatch.setattr(scx.scomplex, "_relations", recording)
    return calls


def _checked(recorded, failed):
    rep, want = recorded.pop()
    assert not recorded
    _same_report(rep, want)
    failed.update(rep.failed())


def _r_complex(ring):
    """C = 0 and R = <a, b> (modulus 2) with r(a) = b: a complex whose r
    one perturbed entry makes square to something nonzero."""
    empty = GradedModule(ring, 2, [])
    red = GradedModule(ring, 2, [("a", 0), ("b", 1)])
    return SComplex(empty, red, GradedMatrix.zero(empty, empty, 1),
                    GradedMatrix.zero(empty, empty, 0), GradedMatrix.zero(empty, red, 1),
                    GradedMatrix.zero(red, empty, 0),
                    GradedMatrix(red, red, 1, {(1, 0): ring.domain.one}))


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_failed_complex_morphism_and_homotopy_reports_match_the_split_oracle(ring, recorded):
    rng = random.Random(59)
    failed = {"complex": set(), "morphism": set(), "homotopy": set()}
    for j in range(60):
        if [len(names) for names in failed.values()] == [5, 5, 5]:
            break
        x = rand_scomplex(ring, rng, max_rank=5) if j else _r_complex(ring)
        parts = [x.d, x.v, x.delta1, x.delta2, x.r]
        for i, p in _variants(list(zip(parts, (-1, -2, -1, -2, -1))), rng):
            SComplex(x.irr, x.red, *_swap(parts, i, p), x.s).verify()
            _checked(recorded, failed["complex"])
        f = rand_morphism(x, x, rng, degree=rng.choice([0, 1, 2]))
        k = f.degree
        parts = [f.lam, f.mu, f.delta1, f.delta2, f.rho]
        for i, p in _variants(list(zip(parts, (k, k - 1, k, k - 1, k))), rng):
            SMorphism(x, x, k, *_swap(parts, i, p)).verify()
            _checked(recorded, failed["morphism"])
        g, h = rand_homotopy_pair(f, rng)
        parts = [h.K, h.L, h.M1, h.M2, h.J]
        for i, p in _variants(list(zip(parts, (k + 1, k, k + 1, k, k + 1))), rng):
            SHomotopy(f, g, *_swap(parts, i, p)).verify()
            _checked(recorded, failed["homotopy"])
    # every relation of each kind failed somewhere, and was named as the oracle names it
    assert [len(names) for names in failed.values()] == [5, 5, 5], failed


def _height_pool(ring, rng, base=None):
    """Height morphisms of depth 0 (heights 0, 1, 2) and of depth 1 and 2,
    on `base` or on random r-perfect complexes."""
    out = []
    for n in (0, 1, 2, -1, -2):
        x = base or rand_scomplex(ring, rng, max_rank=4, r_perfect=True, allow_cone=False)
        if n >= 0:
            h0 = HeightMorphism.from_morphism(rand_morphism(x, x, rng, 0))
            out.append(h0 if n == 0 else compose_heights(iota(x, n), h0))
        else:
            sx = suspend(x, -n)
            up = HeightMorphism.from_morphism(rand_morphism(sx, sx, rng, 0))
            out.append(compose_heights(kappa(x, -n), up))
    return out


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_failed_height_reports_match_the_split_oracle(ring):
    rng = random.Random(61)
    failed = {False: set(), True: set()}  # by depth >= 1
    # O(1) + O(-1) carries a nonzero delta1 and delta2
    for base in (direct_sum(atomic(1, ring, 4), atomic(-1, ring, 4)), None, None):
        for h in _height_pool(ring, rng, base):
            x, y, k = h.source, h.target, h.degree
            parts = [h.lam, h.mu, h.delta1, h.delta2]
            blocks = list(zip(parts, (k, k - 1, k, k - 1)))
            blocks += [(h.tau_at(i), k - 2 * i) for i in (-1, 0, 1)]
            for i, p in _variants(blocks, rng):
                tau = dict(h.tau)
                if i >= 4:
                    tau[i - 5] = p
                comps = _swap(parts, i, p) if i < 4 else parts
                g = HeightMorphism(x, y, k, *comps, tau, h.height)
                for claim in (None, h.height):
                    rep = g.verify(claim)
                    _same_report(rep, height_verify_oracle(g, claim))
                failed[_depth(g.tau) >= 1].update(rep.failed())
    for names in failed.values():
        assert {n for n in names if n.startswith("relation")} == set(scx.heights._RELATIONS)
    assert "tau_1 closed formula" in failed[False]


def _passing(ring, rng):
    """Seeded complexes, morphisms, homotopies, height morphisms and cone
    triangles over `ring`, all of which verify."""
    out = []
    for _ in range(4):
        x = rand_scomplex(ring, rng, max_rank=5)
        f = rand_morphism(x, x, rng, degree=rng.choice([0, 1, 2]))
        out += [x, f, rand_homotopy_pair(f, rng)[1]]
        out.append(cone_triangle(rand_morphism(x, x, rng, 0)))
    out += _height_pool(ring, rng)
    return out


@pytest.mark.parametrize("ring", RINGS, ids=str)
def test_a_passing_check_splits_nothing(ring, monkeypatch):
    objs = _passing(ring, random.Random(67))

    def split(*args):
        raise AssertionError("a passing check split its residual")

    monkeypatch.setattr(scx.scomplex, "_blocks", split)
    monkeypatch.setattr(scx.heights, "_blocks", split)
    for obj in objs:
        rep = obj.verify()
        assert rep.ok, (obj, rep)
        assert all(off is None for _, _, off in rep.checks)
