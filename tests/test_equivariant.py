import random

import pytest

from scx.equivariant import (
    _j_module,
    _Ladder,
    _module_basis_and_rank,
    _nilpotency,
    build_small,
    froyshov_profile,
    froyshov_properties_check,
    ijp_exactness_report,
    j_module_oracle,
    j_nesting_ok,
    susequivar_witness,
)
from scx.errors import NotRPerfect, UnsupportedRing
from scx.functors import atomic, direct_sum, dual, suspend
from scx.gradedlin import GradedMatrix, GradedModule, field_span_contains
from scx.linkfam import hopf_complex, torus_knot_summand, torus_link_complex
from scx.randgen import rand_scomplex
from scx.rings import FRAC_LAURENT_Q, LAURENT_Z, Q, RingMap, Z, Zp, eval_t_at_one
from scx.scomplex import SComplex

INC = RingMap(RingMap.LAURENT_TO_FRAC, LAURENT_Z, FRAC_LAURENT_Q)


def test_build_small_examples():
    o0 = atomic(0, Q, 4)
    hat = build_small(o0, "hat", 3)
    assert hat.diff.is_zero and hat.module.rank == 3  # R[x] powers 0..2
    # trefoil-like summand: check differential has only the x^-1 term (v = 0)
    tre = torus_knot_summand(2).base_change(eval_t_at_one())
    chk = build_small(tre, "check", 3)
    entries = chk.diff.named_triples()
    assert all(t.startswith("x-1.") for t, s, v in entries) or not entries
    bar = build_small(tre, "bar", 2)
    assert bar.diff.is_zero


def test_small_models_require_r_perfect():
    from scx.functors import cone
    from scx.randgen import rand_morphism

    rng = random.Random(3)
    x = rand_scomplex(Q, rng, max_rank=3)
    c = cone(rand_morphism(x, x, rng, 0))
    if not c.is_r_perfect:
        with pytest.raises(NotRPerfect):
            build_small(c, "hat", 2)


def test_ijp_exactness_random():
    rng = random.Random(5)
    for _ in range(6):
        x = rand_scomplex(Zp(2), rng, max_rank=5, r_perfect=True, allow_cone=False)
        assert ijp_exactness_report(x, 3).ok


def test_ijp_exactness_torus_over_z():
    x = torus_link_complex(3).base_change(eval_t_at_one())
    assert ijp_exactness_report(x, 4).ok


def test_susequivar_witness():
    assert susequivar_witness(atomic(0, Q, 4)).ok
    assert susequivar_witness(torus_link_complex(3).base_change(eval_t_at_one())).ok
    rng = random.Random(7)
    for _ in range(6):
        x = rand_scomplex(Zp(2), rng, max_rank=4, r_perfect=True, allow_cone=False)
        assert susequivar_witness(x).ok


def test_froyshov_atoms():
    for n in range(-3, 4):
        assert froyshov_profile(atomic(n, Q, 4)).h == n


def test_froyshov_o0_profile():
    p = froyshov_profile(atomic(0, Q, 4))
    lo, hi = p.window
    assert all(p.d[i] == (1 if i <= 0 else 0) for i in range(lo, hi + 1))
    assert p.h == 0


def test_trefoil_profiles():
    tre = torus_knot_summand(2)
    assert froyshov_profile(tre.base_change(INC)).h == 1
    pz = froyshov_profile(tre.base_change(eval_t_at_one()))
    lo, hi = pz.window
    assert all(pz.d[i] == (1 if i <= 0 else 0) for i in range(lo, hi + 1))


def test_t25_model_h():
    # over the fraction field T^2 - T^-2 is a unit, so the T(2,5) model is
    # isomorphic to the suspension of the trefoil model: h = 1 + 1
    t25 = torus_knot_summand(3).base_change(INC)
    assert froyshov_profile(t25).h == 2
    # confirmed by the independent truncated-series oracle
    ob, rank = _module_basis_and_rank(j_module_oracle(t25, 2), FRAC_LAURENT_Q, 1)
    assert rank == 1
    ob, rank = _module_basis_and_rank(j_module_oracle(t25, 3), FRAC_LAURENT_Q, 1)
    assert rank == 0


def test_hopf_trivial_over_z():
    h = hopf_complex().base_change(eval_t_at_one())
    p = froyshov_profile(h)
    lo, hi = p.window
    assert all(p.d[i] == (2 if i <= 0 else 0) for i in range(lo, hi + 1))
    assert p.h is None  # rank-2 reducible summand


def test_direct_sum_additivity_example():
    s = direct_sum(atomic(1, Q, 4), atomic(0, Q, 4))
    p = froyshov_profile(s)
    assert p.d[1] == 1 and p.d[0] == 2


def test_duality_on_trefoil_model():
    tre = torus_knot_summand(2).base_change(INC)
    p = froyshov_profile(tre)
    pd = froyshov_profile(dual(tre))
    lo, hi = pd.window
    for i in range(lo, hi + 1):
        if lo <= 1 - i <= hi:
            assert pd.d[i] == 1 - p.d[1 - i]
    assert pd.h == -1  # h(dual) = -h with h(trefoil model) = 1


def test_suspension_shift_on_torus_k3():
    x = torus_link_complex(3).base_change(INC)
    p = froyshov_profile(x)
    up = froyshov_profile(suspend(x, 1))
    dn = froyshov_profile(suspend(x, -1))
    lo, hi = p.window
    for i in range(lo + 1, hi):
        assert up.d.get(i, None) in (None, p.d[i - 1])
        assert dn.d.get(i, None) in (None, p.d[i + 1])


def test_properties_random_pairs():
    rng = random.Random(11)
    for trial in range(4):
        ring = Q if trial % 2 else Zp(3)
        x = rand_scomplex(ring, rng, max_rank=3, r_perfect=True, allow_cone=False)
        y = rand_scomplex(ring, rng, modulus=x.modulus, max_rank=2,
                          r_perfect=True, allow_cone=False)
        assert froyshov_properties_check(x, y).ok
        p = froyshov_profile(x)
        assert j_nesting_ok(p, ring, x.red.rank)


def test_j_oracle_matches_finite_system():
    rng = random.Random(13)
    ring = Zp(2)
    for _ in range(10):
        x = rand_scomplex(ring, rng, max_rank=3, r_perfect=True, allow_cone=False)
        w = x.irr.rank + x.red.rank + 1
        for i in range(-w, w + 1):
            fb, _ = _module_basis_and_rank(_j_module(x, i), ring, x.red.rank)
            ob, _ = _module_basis_and_rank(j_module_oracle(x, i), ring, x.red.rank)
            assert all(field_span_contains(ob, v, ring) for v in fb)
            assert all(field_span_contains(fb, v, ring) for v in ob)


def test_profile_json():
    p = froyshov_profile(atomic(1, Q, 4))
    doc = p.to_json()
    assert doc["h"] == 1 and doc["window"][0] < 0 < doc["window"][1]
    assert doc["d"][str(doc["window"][0])] == 1


def test_unsupported_ring():
    with pytest.raises(UnsupportedRing):
        froyshov_profile(torus_link_complex(2))  # Laurent coefficients


def test_o1_image_leading_exponent():
    # the i-map image of the O(1) cycle has leading coefficient at x^-1,
    # matching h(O(1)) = 1: J_1 is everything, J_2 is zero
    o1 = atomic(1, Q, 4)
    b1, r1 = _module_basis_and_rank(_j_module(o1, 1), Q, 1)
    b2, r2 = _module_basis_and_rank(_j_module(o1, 2), Q, 1)
    assert r1 == 1 and r2 == 0


def _non_nilpotent_complex():
    # mod 2 gradings let v (degree -2) act within a degree: v is unipotent
    # on the degree-0 pair and invertible on the degree-1 pair, so no power
    # of it vanishes
    c = GradedModule(Q, 2, [("a", 0), ("a2", 0), ("b", 1), ("b2", 1)])
    r = GradedModule(Q, 2, [("r", 1)])
    q = Q.from_int
    v = GradedMatrix(c, c, 0, {(0, 0): q(1), (0, 1): q(1), (1, 1): q(1),
                               (2, 3): q(2), (3, 2): q(-1), (3, 3): q(1)})
    delta1 = GradedMatrix(c, r, 1, {(0, 0): q(1), (0, 1): q(3)})
    delta2 = GradedMatrix(r, c, 0, {(2, 0): q(1), (3, 0): q(-2)})
    zero_c = GradedMatrix.zero(c, c, 1)
    return SComplex(c, r, zero_c, v, delta1, delta2, GradedMatrix.zero(r, r, 1))


@pytest.mark.parametrize("x,nilpotent", [
    (atomic(3, Q, 4), True),
    (atomic(-3, Q, 4), True),
    (atomic(2, Z, 4), True),
    (torus_link_complex(4).base_change(eval_t_at_one()), True),
    (_non_nilpotent_complex(), False),
])
def test_ladder_blocks_match_powers(x, nilpotent):
    e = _nilpotency(x.v)
    assert (e is not None) == nilpotent
    ladder = _Ladder(x)
    for j in range((e or 4) + 4):
        vj = x.v.power(j)
        assert ladder.left(j) == x.delta1 @ vj
        assert ladder.right(j) == vj @ x.delta2


def test_ladder_makes_no_product_past_a_zero_power(monkeypatch):
    x = atomic(3, Q, 4)
    e = _nilpotency(x.v)
    calls = []
    matmul = GradedMatrix.__matmul__
    monkeypatch.setattr(GradedMatrix, "__matmul__",
                        lambda a, b: calls.append(1) or matmul(a, b))
    ladder = _Ladder(x)
    ladder.right(e)
    # v^1 .. v^e are one product each; v^0 .. v^(e-1) are nonzero, two blocks each
    assert len(calls) == e + 2 * e
    for j in range(e, e + 10):
        assert ladder.left(j).is_zero and ladder.right(j).is_zero
    assert len(calls) == 3 * e
