import random
import time
from collections import Counter
from math import log2

import pytest

from scx.equivariant import (
    SmallEquivariantComplex,
    _ijp_matrices,
    _j_module,
    _module_basis_and_rank,
    _nilpotency,
    _suspension_maps,
    _sweeps,
    build_small,
    froyshov_profile,
    froyshov_properties_check,
    ijp_exactness_report,
    ijp_maps,
    j_module_oracle,
    j_nesting_ok,
    susequivar_witness,
)
from scx.errors import NotRPerfect, PlateauNotReached, ScxError, UnsupportedRing
from scx.functors import atomic, direct_sum, dual, suspend, suspend_once, tensor
from scx.gradedlin import (
    ELIMINATIONS,
    GradedMatrix,
    GradedModule,
    Sweep,
    boxed,
    column_basis,
    field_kernel_basis,
    int_kernel_basis,
    spans_equal,
)
from scx.linkfam import hopf_complex, torus_knot_summand, torus_link_complex
from scx.randgen import RINGS, rand_scomplex
from scx.rings import FRAC_LAURENT_Q, LAURENT_Z, Q, RingElement, RingMap, Z, Zp, eval_t_at_one
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


def test_bad_tail_order_and_flavor_are_usage_errors():
    # refused as bad arguments (exit 2 in the CLI), not as an unsupported ring
    o0 = atomic(0, Q, 4)
    for refuse, text in ((lambda: build_small(o0, "hat", 0), "tail order must be >= 1"),
                         (lambda: build_small(o0, "bar", -3), "tail order must be >= 1"),
                         (lambda: SmallEquivariantComplex(o0, "tilde", range(2)),
                          "unknown flavor 'tilde'")):
        with pytest.raises(ScxError) as err:
            refuse()
        assert not isinstance(err.value, UnsupportedRing) and str(err.value) == text


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
    assert len(_module_basis_and_rank(j_module_oracle(t25, 2), 1, FRAC_LAURENT_Q)) == 1
    assert len(_module_basis_and_rank(j_module_oracle(t25, 3), 1, FRAC_LAURENT_Q)) == 0


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


_TO_Q = RingMap(RingMap.Z_TO_Q, Z, Q)


def _z_shapes():
    at_one = eval_t_at_one()
    shapes = [torus_link_complex(k).base_change(at_one) for k in range(1, 6)]
    shapes += [torus_knot_summand(k).base_change(at_one) for k in range(2, 5)]
    shapes += [atomic(n, Z, 4) for n in (-2, -1, 0, 1, 2)]
    rng = random.Random(29)
    shapes += [rand_scomplex(Z, rng, max_rank=4, r_perfect=True, allow_cone=False)
               for _ in range(24)]
    return shapes


def test_the_d_function_over_z_is_the_one_over_q():
    # flat base change, the ground of (viii) as an equality over Z
    for x in _z_shapes():
        for c in (x, dual(x)):
            pz, pq = froyshov_profile(c), froyshov_profile(c.base_change(_TO_Q))
            assert (pz.window, pz.d, pz.h) == (pq.window, pq.d, pq.h)


def test_duality_check_fails_over_z_when_the_dual_reads_too_low(monkeypatch):
    import scx.equivariant as equivariant
    import scx.functors as functors

    x = torus_link_complex(3).base_change(eval_t_at_one())
    y = atomic(0, Z, x.modulus)
    assert froyshov_properties_check(x, y).ok
    duals = []
    real_dual, real_profile = functors.dual, equivariant.froyshov_profile

    def recording_dual(c):
        duals.append(real_dual(c))
        return duals[-1]

    def lowered(c):
        p = real_profile(c)
        if any(c is d for d in duals):
            lo, hi = p.window
            i = next(i for i in range(lo + 1, hi) if lo + 1 <= 1 - i <= hi and p.d[i] > 0)
            p.d[i] -= 1
        return p

    monkeypatch.setattr(functors, "dual", recording_dual)
    monkeypatch.setattr(equivariant, "froyshov_profile", lowered)
    checks = {name: ok for name, ok, _ in froyshov_properties_check(x, y).checks}
    assert duals and not checks.pop("(viii) duality")
    assert all(checks.values())


def test_j_oracle_matches_finite_system():
    rng = random.Random(13)
    ring = Zp(2)
    for _ in range(10):
        x = rand_scomplex(ring, rng, max_rank=3, r_perfect=True, allow_cone=False)
        w = x.irr.rank + x.red.rank + 1
        for i in range(-w, w + 1):
            assert spans_equal(_j_module(x, i), j_module_oracle(x, i), x.red.rank, ring), i


def test_froyshov_atoms_over_z():
    for n in range(-3, 4):
        assert froyshov_profile(atomic(n, Z, 4)).h == n


def test_j_oracle_matches_finite_system_over_z():
    rng = random.Random(17)
    checked = 0
    for _ in range(30):
        x = rand_scomplex(Z, rng, max_rank=3, r_perfect=True, allow_cone=False)
        w = x.irr.rank + x.red.rank + 1
        for i in range(-w, w + 1):
            assert spans_equal(_j_module(x, i), j_module_oracle(x, i), x.red.rank, Z), i
            checked += 1
        assert j_nesting_ok(froyshov_profile(x), Z, x.red.rank)
    assert checked > 100


def test_j_bases_hold_elements_of_the_input_ring():
    # the J_i columns are eliminated on raw values and boxed on the way out,
    # over Z as over a field
    rng = random.Random(19)
    for ring in (Z, Q, Zp(3)):
        cols = 0
        for _ in range(4):
            x = rand_scomplex(ring, rng, max_rank=4, r_perfect=True, allow_cone=False)
            p = froyshov_profile(x)
            lo, hi = p.window
            for i in range(lo, hi + 1):
                assert len(p.j_bases[i]) == p.d[i]
                for col in p.j_bases[i]:
                    assert len(col) == x.red.rank
                    assert all(type(e) is RingElement and e.ring == ring for e in col)
                    cols += 1
        assert cols, ring


def test_profile_json():
    p = froyshov_profile(atomic(1, Q, 4))
    doc = p.to_json()
    assert doc["h"] == 1 and doc["window"][0] < 0 < doc["window"][1]
    assert doc["d"][str(doc["window"][0])] == 1


def test_unsupported_ring():
    from scx.scomplex import SMorphism
    from scx.solve import solve_homotopy

    x = torus_link_complex(2)  # Laurent coefficients
    with pytest.raises(UnsupportedRing) as err:
        froyshov_profile(x)
    assert str(err.value) == "Froyshov profile needs Z or field coefficients"
    with pytest.raises(UnsupportedRing) as err:
        solve_homotopy(SMorphism.identity(x), SMorphism.identity(x))
    assert str(err.value) == "linear solving needs Z or field coefficients"


def test_o1_image_leading_exponent():
    # the i-map image of the O(1) cycle has leading coefficient at x^-1,
    # matching h(O(1)) = 1: J_1 is everything, J_2 is zero
    o1 = atomic(1, Q, 4)
    assert len(_module_basis_and_rank(_j_module(o1, 1), 1, Q)) == 1
    assert len(_module_basis_and_rank(_j_module(o1, 2), 1, Q)) == 0


def _non_nilpotent_s_complex(ring):
    # an r-perfect S-complex whose v = diag(2, 1) is invertible: d a = b,
    # delta1 a = r and delta2 r = b satisfy d v - v d = delta2 delta1, and
    # delta1 v^j = 2^j delta1 and v^j delta2 = delta2 are never zero
    c = GradedModule(ring, 2, [("a", 1), ("b", 0)])
    r = GradedModule(ring, 2, [("r", 0)])
    n = ring.domain.from_int
    return SComplex(c, r, GradedMatrix(c, c, 1, {(1, 0): n(1)}),
                    GradedMatrix(c, c, 0, {(0, 0): n(2), (1, 1): n(1)}),
                    GradedMatrix(c, r, 1, {(0, 0): n(1)}),
                    GradedMatrix(r, c, 0, {(1, 0): n(1)}),
                    GradedMatrix.zero(r, r, 1))


def _nilpotency_oracle(v):
    """Least e with v^e = 0, or None if there is none up to rank + 1, from
    the powers of v formed one product at a time."""
    n = v.source.rank
    p = GradedMatrix.identity(v.source)
    for e in range(1, n + 2):
        p = p @ v
        if p.is_zero:
            return e if n else 0
    return None


def test_nilpotency_matches_the_power_loop():
    c = GradedModule(Q, 2, [("a", 0), ("b", 0), ("c", 0)])
    empty = GradedModule(Q, 2, [])
    shift = GradedMatrix(c, c, 0, {(1, 0): Q.domain.from_int(1), (2, 1): Q.domain.from_int(1)})
    fixed = [GradedMatrix.zero(empty, empty, 0), GradedMatrix.zero(c, c, 0), shift,
             GradedMatrix.identity(c), _non_nilpotent_s_complex(Q).v,
             _non_nilpotent_s_complex(Z).v]
    assert [_nilpotency(v) for v in fixed] == [0, 1, 3, None, None, None]
    assert all(_nilpotency(v) == _nilpotency_oracle(v) for v in fixed)
    rng = random.Random(2026)
    seen = set()
    for ring in RINGS.values():
        for _ in range(60):
            v = rand_scomplex(ring, rng, max_rank=6).v
            e = _nilpotency(v)
            assert e == _nilpotency_oracle(v), v
            seen.add("rank 0" if e == 0 else "v = 0" if e == 1 else "v != 0")
    assert seen == {"rank 0", "v = 0", "v != 0"}


@pytest.mark.parametrize("x,nilpotent", [
    (atomic(3, Q, 4), True),
    (atomic(-3, Q, 4), True),
    (atomic(2, Z, 4), True),
    (torus_link_complex(4).base_change(eval_t_at_one()), True),
    (_non_nilpotent_s_complex(Q), False),
])
def test_ladder_blocks_match_powers(x, nilpotent):
    # sweeps on either side, and the pair a J_i system reads (with delta2
    # negated once), against full powers of v
    e = _nilpotency(x.v)
    assert (e is not None) == nilpotent
    left, right = Sweep(x.delta1, x.v), Sweep(x.delta2, x.v, before=True)
    j_left, j_right_neg = _sweeps(x)
    for j in range((e or 4) + 4):
        vj = x.v.power(j)
        assert left[j] == j_left[j] == x.delta1 @ vj
        assert right[j] == vj @ x.delta2
        assert j_right_neg[j] == -(vj @ x.delta2)


def test_ladder_makes_no_product_past_a_zero_power(monkeypatch):
    # a sweep makes one product per term up to its first zero term and none
    # after it; over O(3) + O(-3), delta1 v^j and v^j delta2 are nonzero for
    # j < e and zero at j = e
    x = direct_sum(atomic(3, Q, 4), atomic(-3, Q, 4))
    e = _nilpotency(x.v)
    calls = []
    matmul = GradedMatrix.__matmul__
    monkeypatch.setattr(GradedMatrix, "__matmul__",
                        lambda a, b: calls.append(1) or matmul(a, b))
    left, right = Sweep(x.delta1, x.v), Sweep(x.delta2, x.v, before=True)
    assert not left[e - 1].is_zero and not right[e - 1].is_zero
    assert len(calls) == 2 * (e - 1)
    assert left[e].is_zero and right[e].is_zero
    assert len(calls) == 2 * e
    for j in range(e, e + 10):
        assert left[j] is left[e] and right[j] is right[e]
    assert len(calls) == 2 * e
    assert len(left._terms) == len(right._terms) == e + 1


@pytest.mark.parametrize("x", [
    atomic(3, Q, 4),
    direct_sum(atomic(3, Q, 4), atomic(-3, Q, 4)),
    atomic(-2, Z, 4),
    torus_link_complex(4).base_change(eval_t_at_one()),
    _non_nilpotent_s_complex(Q),
    _non_nilpotent_s_complex(Z),
])
def test_nilpotency_makes_one_product_per_power(x, monkeypatch):
    # the powers v^2, v^3, ... are made one product each, up to the first
    # zero power: e - 1 products for v of index e, and n for a v that is
    # not nilpotent, with n the rank of its source
    want = _nilpotency_oracle(x.v)
    calls = []
    matmul = GradedMatrix.__matmul__
    monkeypatch.setattr(GradedMatrix, "__matmul__",
                        lambda a, b: calls.append(1) or matmul(a, b))
    assert _nilpotency(x.v) == want
    assert len(calls) == (x.v.source.rank if want is None else want - 1)


def test_torus_link_150_profile_over_z_is_fast():
    # the integer d-function on a rank-149 complex: closed form d = 2 up to
    # i = 0 and 0 above, within a time bound that a dense Smith normal form
    # (about 6 s) misses
    x = torus_link_complex(150).base_change(eval_t_at_one())
    t0 = time.perf_counter()
    prof = froyshov_profile(x)
    dt = time.perf_counter() - t0
    lo, hi = prof.window
    assert prof.d == {i: 2 if i <= 0 else 0 for i in range(lo, hi + 1)}
    assert dt < 4, f"froyshov_profile on T(2,150) over Z took {dt:.1f}s (limit 4s)"


def _trefoil_power(n):
    """T(2,3)^{tensor n} over Q(T); its h is n."""
    tre = torus_knot_summand(2).base_change(INC)
    x = tre
    for _ in range(n - 1):
        x = tensor(x, tre)
    return x


def test_atomic_6_profile_over_z_is_fast():
    # O(6) as a tensor power, rank C 364: d and h from ranks, no J_i
    # system solved
    x = atomic(6, Z)
    t0 = time.perf_counter()
    prof = froyshov_profile(x)
    dt = time.perf_counter() - t0
    assert prof.h == 6
    assert dt < 2, f"froyshov_profile on O(6) over Z took {dt:.1f}s (limit 2s)"


def test_trefoil_fifth_power_profile_over_frac_is_fast():
    # rank C 121 over Q(T): d and h from ranks, no J_i system solved
    x = _trefoil_power(5)
    t0 = time.perf_counter()
    prof = froyshov_profile(x)
    dt = time.perf_counter() - t0
    assert prof.h == 5
    assert dt < 1, f"froyshov_profile on T(2,3)^5 over Q(T) took {dt:.1f}s (limit 1s)"


def full_profile(x):
    """Oracle for `froyshov_profile`: the d-function, J_i bases and h from
    the column basis of every J_i system of the window, each one solved,
    with no index answered without its elimination and no rank taken
    outside it."""
    nr = x.red.rank
    w = x.irr.rank + nr + 1
    sweeps = _sweeps(x)
    d, j_bases = {}, {}
    for i in range(-w, w + 1):
        basis = column_basis(_j_module(x, i, sweeps), nr, x.ring)
        d[i] = len(basis)
        j_bases[i] = boxed(basis, nr, x.ring)
    h = max(i for i in d if d[i] == 1) if nr == 1 else None
    return d, j_bases, h


def _fixed_profile_shapes():
    """Torus links and knot summands at T = 1 and over Q(T), their duals,
    O(+-1..+-4) over Z and Q, T(2,3)^2 and T(2,3)^3 over Q(T), and the
    complexes with an invertible v over Z and Q."""
    at_one = eval_t_at_one()
    xs = []
    for k in range(2, 8):
        for base in (torus_link_complex(k), torus_knot_summand(k)):
            xs += [base.base_change(at_one), base.base_change(INC)]
    xs += [dual(x) for x in xs]
    xs += [atomic(n, ring, 4) for ring in (Z, Q) for n in (1, 2, 3, 4, -1, -2, -3, -4)]
    xs += [_trefoil_power(2), _trefoil_power(3)]
    xs += [_non_nilpotent_s_complex(ring) for ring in (Z, Q)]
    return xs


def test_d_and_h_from_ranks_match_every_system_solved():
    # the rank increments against the oracle that solves every J_i system,
    # on seeded complexes over each ring and on the fixed shapes
    xs = _fixed_profile_shapes()
    rng = random.Random(2031)
    for ring in (Z, Zp(2), Q, FRAC_LAURENT_Q):
        xs += [rand_scomplex(ring, rng, max_rank=6, r_perfect=True, allow_cone=False)
               for _ in range(200)]
    assert all(x.verify().ok for x in xs)
    rising = nonzero_d = 0
    for x in xs:
        prof = froyshov_profile(x)
        d, _, h = full_profile(x)
        assert (prof.d, prof.h) == (d, h), x.ring
        lo, hi = prof.window
        rising += any(0 < d[i] < x.red.rank for i in range(lo, hi + 1))
        nonzero_d += not x.d.is_zero
    assert len(xs) > 800 and rising > 150 and nonzero_d > 150


@pytest.mark.parametrize("k", [2, 5, 9, 15])
def test_a_profile_with_zero_deltas_builds_no_echelon(k, monkeypatch):
    # at T = 1 the torus links have delta1 = delta2 = 0: both sweeps start
    # at zero, so no echelon is built, no product made and no block negated
    import scx.gradedlin as gradedlin

    x = torus_link_complex(k).base_change(eval_t_at_one())
    y = direct_sum(atomic(3, Z), atomic(-3, Z))
    calls = Counter()

    class Counted(gradedlin._FieldEchelon):
        __slots__ = ()

        def __init__(self, dom):
            calls.update(["_FieldEchelon"])
            super().__init__(dom)

    monkeypatch.setattr(gradedlin, "_FieldEchelon", Counted)
    for name in ("__matmul__", "__neg__"):
        real = getattr(GradedMatrix, name)
        monkeypatch.setattr(GradedMatrix, name,
                            lambda *a, real=real, name=name: calls.update([name]) or real(*a))
    assert x.delta1.is_zero and x.delta2.is_zero
    prof = froyshov_profile(x)
    assert not calls
    lo, hi = prof.window
    assert prof.d == {i: 2 if i <= 0 else 0 for i in range(lo, hi + 1)}
    # the counters see what they count: with nonzero deltas each side
    # builds its echelon and sweeps by products, still negating nothing
    froyshov_profile(y)
    assert calls["_FieldEchelon"] == 2 and calls["__matmul__"] and not calls["__neg__"]


def _rising_s_complex(ring):
    """_non_nilpotent_s_complex with d = v = 0: delta1 a = r and delta2 r = b,
    so d.v - v.d = delta2.delta1 fails, and d(0) = 0 < d(1) = 1."""
    x = _non_nilpotent_s_complex(ring)
    return SComplex(x.irr, x.red, delta1=x.delta1, delta2=x.delta2)


@pytest.mark.parametrize("ring", [Z, Q], ids=str)
def test_a_rising_d_function_is_refused(ring):
    # the complexes with an invertible v reach both plateaus in the window
    assert froyshov_profile(_non_nilpotent_s_complex(ring)).h == 0
    x = _rising_s_complex(ring)
    assert not x.verify().ok
    d, _, _ = full_profile(x)
    assert (d[0], d[1]) == (0, 1)  # every system solved says the same
    with pytest.raises(PlateauNotReached) as err:
        froyshov_profile(x)
    assert str(err.value) == "d-function failed to be non-increasing"


@pytest.mark.parametrize("ring", [Z, Q], ids=str)
@pytest.mark.parametrize("read", ["raw_bases", "j_bases"])
def test_profile_solves_nothing_until_the_bases_are_read(ring, read, monkeypatch):
    import scx.equivariant as equivariant
    import scx.gradedlin as gradedlin

    calls = Counter()

    def count(module, name):
        real = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args, **kw: calls.update([name]) or real(*args, **kw))

    count(gradedlin, "smith_form")
    count(gradedlin._FieldEchelon, "reduced")  # the rank echelons add, and never reduce
    count(equivariant, "_j_module")
    count(equivariant, "column_basis")

    class Counted(gradedlin._FieldEchelon):
        __slots__ = ()

        def __init__(self, dom):
            calls.update(["_FieldEchelon"])
            super().__init__(dom)

    monkeypatch.setattr(gradedlin, "_FieldEchelon", Counted)
    # over Z too every rank is read from Q's echelon: Z's entry has none
    assert not hasattr(ELIMINATIONS[Z], "echelon") and hasattr(ELIMINATIONS[Q], "echelon")
    to_ring = {Z: lambda x: x, Q: lambda x: x.base_change(_TO_Q)}[ring]
    xs = [to_ring(torus_link_complex(k).base_change(eval_t_at_one())) for k in (3, 6)]
    xs += [atomic(n, ring, 4) for n in (3, -3)]
    xs += [_non_nilpotent_s_complex(ring)]
    rng = random.Random(37)
    xs += [rand_scomplex(ring, rng, max_rank=5, r_perfect=True, allow_cone=False)
           for _ in range(20)]
    seen, built = Counter(), 0
    for x in xs:
        calls.clear()
        prof = froyshov_profile(x)
        made = calls.pop("_FieldEchelon", 0)
        assert made <= 2 and not calls, x  # one echelon per side
        built += made
        getattr(prof, read)
        lo, hi = prof.window
        assert calls["_j_module"] == hi - lo + 1  # every system of the window, once
        seen.update(calls)
    assert built
    assert set(seen) == ({"smith_form"} if ring == Z else {"_FieldEchelon", "reduced"}) \
        | {"_j_module", "column_basis"}


def test_atomic_7_d_function_is_fast_over_every_ring():
    # O(7) as a tensor power, rank C 1,093: the echelons bound the growth of
    # their entries (Z's ranks go through Q's echelon, and every echelon
    # sets its pivots to one);
    # fraction-free elimination without them did not finish in 15 minutes
    # over Z, nor in 30 s over Q or Q(T)
    for ring in (Z, Q, FRAC_LAURENT_Q):
        x = atomic(7, ring)
        t0 = time.perf_counter()
        prof = froyshov_profile(x)
        dt = time.perf_counter() - t0
        assert prof.h == 7
        assert dt < 2, f"froyshov_profile on O(7) over {ring} took {dt:.1f}s (limit 2s)"


def test_sigma_400_of_o0_profile_over_z_is_fast():
    # rank C 400; solving every J_i system took about 5 s
    x = suspend(atomic(0, Z), 400)
    t0 = time.perf_counter()
    prof = froyshov_profile(x)
    dt = time.perf_counter() - t0
    lo, hi = prof.window
    assert prof.h == 400 and prof.d == {i: 1 if i <= 400 else 0 for i in range(lo, hi + 1)}
    assert dt < 1, f"froyshov_profile on Sigma^400 O(0) over Z took {dt:.1f}s (limit 1s)"


def test_torus_link_400_profile_over_frac_is_fast():
    # rank C 399 over Q(T): d = 2 up to 0 and 1 up to 399; solving every
    # J_i system took about 8 s
    x = torus_link_complex(400).base_change(INC)
    t0 = time.perf_counter()
    prof = froyshov_profile(x)
    dt = time.perf_counter() - t0
    lo, hi = prof.window
    assert prof.d == {i: 2 if i <= 0 else (1 if i <= 399 else 0) for i in range(lo, hi + 1)}
    assert dt < 3, f"froyshov_profile on T(2,400) over Q(T) took {dt:.1f}s (limit 3s)"


@pytest.mark.parametrize("ring", [Z, Q], ids=str)
def test_echelon_entries_stay_within_hadamards_bound(ring):
    # a stored row is a vector of minors of the rows added divided by its
    # pivot's minor (over Z the rows are taken to Q by `to_field`), so no
    # numerator or denominator needs more bits than the product of the
    # rows' norms; fraction-free reduction without gcds, contents or unit
    # pivots reached 288,906 bits on 20 such rows of length 20
    rng = random.Random(41)
    n = 40
    rows = [{j: rng.randint(-5, 5) for j in range(n) if rng.random() < 0.6} for _ in range(30)]
    rows = [{j: y for j, y in row.items() if y} for row in rows]
    for _ in range(15):  # rank stays 30
        a, b = rng.sample(rows, 2)
        rows.append({j: y for j in range(n) if (y := 2 * a.get(j, 0) - 3 * b.get(j, 0))})
    bound = sum(log2(sum(y * y for y in row.values())) / 2 for row in rows[:30]) + 1
    raw = (lambda y: y) if ring == Z else Q.domain.from_int
    rows = [{j: raw(y) for j, y in row.items()} for row in rows]
    elim = ELIMINATIONS[ring]
    ech = ELIMINATIONS[elim.field].echelon()
    grew = [ech.add(elim.to_field(row)) for row in rows]
    assert grew.count(True) == ech.rank == len(elim.diagonal([dict(r) for r in rows], n)) == 30
    assert not any(grew[30:])
    sizes = [abs(part).bit_length() for _, rest in ech.rows for y in rest.values() for part in y]
    assert 0 < max(sizes) <= bound, (max(sizes), bound)


def test_profile_makes_no_ring_element(monkeypatch):
    # the profile and the nesting check work on raw values; the J_i bases
    # are boxed on the first read of j_bases, once
    at_one = eval_t_at_one()
    xs = [torus_link_complex(k).base_change(at_one) for k in (4, 6, 8)]
    xs += [torus_knot_summand(5).base_change(at_one), atomic(3, Z), atomic(-3, Z),
           _trefoil_power(2), _non_nilpotent_s_complex(Z)]
    made = []
    init = RingElement.__init__
    monkeypatch.setattr(RingElement, "__init__",
                        lambda e, ring, val: made.append(1) or init(e, ring, val))
    boxes = []
    monkeypatch.setattr("scx.equivariant.boxed",
                        lambda vecs, n, ring: boxes.append(1) or boxed(vecs, n, ring))
    for x in xs:
        made.clear()
        prof = froyshov_profile(x)
        assert j_nesting_ok(prof, x.ring, x.red.rank)
        assert not made and not boxes
        lo, hi = prof.window
        bases = prof.j_bases
        assert len(boxes) == hi - lo + 1 and made
        boxes.clear()
        made.clear()
        assert prof.j_bases is bases
        assert not made and not boxes
        zero, nr = x.ring.domain.zero, x.red.rank
        assert {i: [[e.val for e in col] for col in cols] for i, cols in bases.items()} \
            == {i: [[vec.get(k, zero) for k in range(nr)] for vec in vecs]
                for i, vecs in prof.raw_bases.items()}


def dense_j_module(x, i):
    """Oracle for `_j_module`: the earlier dense route.  It fills each J_i
    system into dense rows, takes the dense kernel basis (the same
    elimination, entered through `int_kernel_basis` or `field_kernel_basis`),
    and applies delta1 v^(i-1) entry by entry to the dense kernel vectors;
    powers of v come from `GradedMatrix.power`, not from a sweep.  Returns
    {index: raw value} columns, as `_j_module` does."""
    ring = x.ring
    dom = ring.domain
    nc, nr = x.irr.rank, x.red.rank
    zero = ring.zero()

    def fill(rows, m, row_off, col_off, neg=False):
        for t, s in m.entries:
            val = m.entry(t, s)
            rows[row_off + t][col_off + s] = -val if neg else val

    def kernel(rows, n):
        if ring == Z:
            return int_kernel_basis([[e.val for e in row] for row in rows], ncols=n)
        return [[e.val for e in vec] for vec in field_kernel_basis(rows, ring, ncols=n)]

    if i >= 1:
        rows = [[zero] * nc for _ in range(nc + (i - 1) * nr)]
        fill(rows, x.d, 0, 0)
        for j in range(i - 1):
            fill(rows, x.delta1 @ x.v.power(j), nc + j * nr, 0)
        m = (x.delta1 @ x.v.power(i - 1)).entries
        out = []
        for vec in kernel(rows, nc):
            col = [dom.zero] * nr
            for (t, s), val in m.items():
                col[t] = dom.add(col[t], dom.mul(val, vec[s]))
            out.append(col)
        return [{k: y for k, y in enumerate(col) if y != dom.zero} for col in out]
    m = -i
    nvar = nc + (m + 1) * nr
    rows = [[zero] * nvar for _ in range(nc)]
    fill(rows, x.d, 0, 0)
    for j in range(m + 1):
        fill(rows, x.v.power(j) @ x.delta2, 0, nc + j * nr, neg=True)
    return [{k: y for k, y in enumerate(vec[nc + m * nr:]) if y != dom.zero}
            for vec in kernel(rows, nvar)]


def _j_oracle_complexes():
    at_one = eval_t_at_one()
    # T -> 1 kills every map of the torus links: every J_i system is all zero
    xs = [torus_link_complex(k).base_change(at_one) for k in (4, 7)]
    xs += [atomic(3, Z, 4), atomic(-2, Z, 4), torus_knot_summand(3).base_change(INC),
           _non_nilpotent_s_complex(Q)]
    rng = random.Random(2027)
    for ring in (Z, Q, Zp(3), FRAC_LAURENT_Q):
        for _ in range(12 if ring != FRAC_LAURENT_Q else 6):
            xs.append(rand_scomplex(ring, rng, max_rank=6, r_perfect=True, allow_cone=False))
    assert all(x.verify().ok for x in xs)
    return xs


def test_j_module_equals_the_dense_route():
    # the same columns in the same order, not only the same span
    all_zero = past_nilpotency = nonzero_d = 0
    rings_seen = set()
    for x in _j_oracle_complexes():
        nc, nr = x.irr.rank, x.red.rank
        w = nc + nr + 1
        e = _nilpotency(x.v)
        all_zero += x.d.is_zero and x.delta1.is_zero and x.delta2.is_zero and nc > 0
        past_nilpotency += e is not None and e < w
        nonzero_d += not x.d.is_zero  # d d = 0, so a nonzero d is rank-deficient
        rings_seen.add(x.ring)
        sweeps = _sweeps(x)
        for i in range(-w, w + 1):
            got = _j_module(x, i, sweeps)
            assert got == dense_j_module(x, i), (x.ring, i)
            assert _j_module(x, i) == got
    assert rings_seen == {Z, Q, Zp(3), FRAC_LAURENT_Q}
    assert all_zero >= 2 and past_nilpotency > 10 and nonzero_d > 5


# -- the per-column rules that band placement replaced, kept as the oracle
# of the small models, the i/j/p maps and the suspension maps: every map is
# built column by column from the (kind, generator, power) a column index
# decodes to, with its own index arithmetic


def _oracle_col(model, col):
    """('irr', gen) or ('red', gen, power) for a model column."""
    nirr = model.base.irr.rank if model.flavor != "bar" else 0
    if col < nirr:
        return ("irr", col)
    k, g = divmod(col - nirr, model.base.red.rank)
    return ("red", g, model.powers[k])


def _oracle_red(model, gen, power):
    nirr = model.base.irr.rank if model.flavor != "bar" else 0
    return nirr + model.powers.index(power) * model.base.red.rank + gen


def _oracle_map(src, tgt, degree, rule):
    """The matrix whose column col is rule(col), a list of (row, raw value);
    values at one position add."""
    add = src.base.ring.domain.add
    ent = {}
    for col in range(src.module.rank):
        for row, val in rule(col):
            ent[(row, col)] = val if (row, col) not in ent else add(ent[(row, col)], val)
    return GradedMatrix(src.module, tgt.module, degree, ent)


def _oracle_diff(model):
    x = model.base
    ent = {} if model.flavor == "bar" else dict(x.d.entries)
    for p in model.powers:
        if model.flavor == "hat" and p >= 0:
            for (t, s), val in (-(x.v.power(p) @ x.delta2)).entries.items():
                ent[(t, _oracle_red(model, s, p))] = val
        elif model.flavor == "check" and p < 0:
            for (t, s), val in (x.delta1 @ x.v.power(-p - 1)).entries.items():
                ent[(_oracle_red(model, t, p), s)] = val
    return GradedMatrix(model.module, model.module, -1, ent)


def _oracle_x(model):
    x = model.base
    ent = {} if model.flavor == "bar" else dict(x.v.entries)
    lossy = set()
    if model.flavor == "hat":
        for (t, s), val in x.delta1.entries.items():
            if 0 in model.powers:
                ent[(_oracle_red(model, t, 0), s)] = val
            else:
                lossy.add(s)
    for p in model.powers:
        for g in range(x.red.rank):
            col = _oracle_red(model, g, p)
            if model.flavor == "check" and p == -1:
                for (t, s), val in x.delta2.entries.items():
                    if s == g:
                        ent[(t, col)] = val
            elif p + 1 in model.powers:
                ent[(_oracle_red(model, g, p + 1), col)] = x.ring.domain.one
            else:
                lossy.add(col)
    return GradedMatrix(model.module, model.module, -2, ent), lossy


def _oracle_ijp(x, hat, chk, bar, e):
    dom = x.ring.domain
    one = dom.one

    def i_rule(col):
        kind, *rest = _oracle_col(hat, col)
        if kind == "irr":
            return [(_oracle_red(bar, t, -j - 1), val)
                    for j in range(e) if -j - 1 in bar.powers
                    for (t, s), val in (x.delta1 @ x.v.power(j)).entries.items()
                    if s == rest[0]]
        g, p = rest
        return [(_oracle_red(bar, g, p), one)] if p in bar.powers else []

    def j_rule(col):
        kind, *rest = _oracle_col(chk, col)
        return [(rest[0], dom.neg(one))] if kind == "irr" else []

    def p_rule(col):
        _, g, p = _oracle_col(bar, col)
        if p >= 0:
            return [(t, val) for (t, s), val in (x.v.power(p) @ x.delta2).entries.items()
                    if s == g]
        return [(_oracle_red(chk, g, p), one)] if p in chk.powers else []

    return (_oracle_map(hat, bar, 0, i_rule), _oracle_map(chk, hat, -1, j_rule),
            _oracle_map(bar, chk, 0, p_rule))


def _oracle_suspension_maps(x, hat, hat_s, chk, chk_s):
    dom = x.ring.domain
    one = dom.one
    nc = x.irr.rank

    def fhat_rule(col):
        kind, *rest = _oracle_col(hat_s, col)
        if kind == "irr":
            c = rest[0]
            return [(c, one)] if c < nc else [(_oracle_red(hat, c - nc, 0), one)]
        g, p = rest
        return [(_oracle_red(hat, g, p + 1), one)] if p + 1 in hat.powers else []

    def fhat_inv_rule(col):
        kind, *rest = _oracle_col(hat, col)
        if kind == "irr":
            return [(rest[0], one)]
        g, p = rest
        if p == 0:
            return [(nc + g, one)]
        return [(_oracle_red(hat_s, g, p - 1), one)] if p - 1 in hat_s.powers else []

    def fchk_rule(col):
        kind, *rest = _oracle_col(chk_s, col)
        if kind == "irr":
            return [(rest[0], one)] if rest[0] < nc else []
        g, p = rest
        if p == -1:
            return [(t, val) for (t, s), val in x.delta2.entries.items() if s == g]
        return [(_oracle_red(chk, g, p + 1), one)] if p + 1 in chk.powers else []

    def fchk_inv_rule(col):
        kind, *rest = _oracle_col(chk, col)
        if kind == "irr":
            return [(rest[0], one)]
        g, p = rest
        return [(_oracle_red(chk_s, g, p - 1), one)] if p - 1 in chk_s.powers else []

    def at_minus_one(model, row, val):
        def rule(col):
            kind, *rest = _oracle_col(model, col)
            return [(row(rest[0]), val)] if kind == "red" and rest[1] == -1 else []
        return rule

    return (_oracle_map(hat_s, hat, -2, fhat_rule),
            _oracle_map(hat, hat_s, 2, fhat_inv_rule),
            _oracle_map(chk_s, chk, -2, fchk_rule),
            _oracle_map(chk, chk_s, 2, fchk_inv_rule),
            _oracle_map(chk_s, chk_s, 1, at_minus_one(chk_s, lambda g: nc + g, one)),
            _oracle_map(chk, chk_s, 1, at_minus_one(chk, lambda g: nc + g, dom.neg(one))),
            _oracle_map(chk_s, hat, -2,
                        at_minus_one(chk_s, lambda g: _oracle_red(hat, g, 0), dom.neg(one))))


def _same_map(got, want):
    return (got.source == want.source and got.target == want.target
            and got.degree == want.degree and got.entries == want.entries)


def _band_oracle_complexes():
    ev = eval_t_at_one()
    xs = [atomic(n, ring, 4) for n in range(-3, 4) for ring in (Q, Z)]
    xs += [torus_link_complex(k).base_change(ev) for k in range(1, 6)]
    xs += [torus_knot_summand(k).base_change(ev) for k in range(2, 6)]
    xs.append(_non_nilpotent_s_complex(Q))
    for ring in (Zp(2), Zp(3), Q, Z):
        rng = random.Random(31)
        xs += [rand_scomplex(ring, rng, max_rank=6, r_perfect=True, allow_cone=False)
               for _ in range(10)]
    return xs


def _check_model(model):
    assert _same_map(model.diff, _oracle_diff(model))
    x_action, lossy = _oracle_x(model)
    assert _same_map(model.x_action, x_action)
    assert model.x_lossy == lossy


def test_models_and_maps_equal_the_column_rule_oracle():
    open_maps = nonzero = 0
    for x in _band_oracle_complexes():
        e = _nilpotency(x.v)
        for n in range(1, 6):
            for flavor in ("hat", "check", "bar"):
                _check_model(build_small(x, flavor, n))
            if e is not None:
                models, maps = ijp_maps(x, n)
                for got, want in zip(maps, _oracle_ijp(x, *models, e)):
                    assert _same_map(got, want)
                    nonzero += bool(got.entries)
        # the windows of the suspension witness: hat and bar of X one power
        # wider than the models of Sigma X and the check model of X
        sx = suspend_once(x)
        for n in range(1, 5):
            hat, chk, bar = (build_small(x, "hat", n + 1), build_small(x, "check", n),
                             build_small(x, "bar", n + 1))
            hat_s, chk_s = build_small(sx, "hat", n), build_small(sx, "check", n)
            for model in (hat, chk, bar, hat_s, chk_s):
                _check_model(model)
            maps = _suspension_maps(x, hat, hat_s, chk, chk_s)
            want = _oracle_suspension_maps(x, hat, hat_s, chk, chk_s)
            assert len(maps) == len(want) == 7
            assert all(_same_map(g, w) for g, w in zip(maps, want))
            if e is not None:
                e_s = _nilpotency(sx.v)
                for y, ms, ee in ((x, (hat, chk, bar), e), (sx, (hat_s, chk_s, bar), e_s)):
                    for got, w in zip(_ijp_matrices(y, *ms, ee), _oracle_ijp(y, *ms, ee)):
                        assert _same_map(got, w)
                open_maps += 1
    assert open_maps > 200 and nonzero > 800


def test_a_hat_model_without_power_zero_loses_the_delta1_sources():
    x = atomic(3, Q, 4)
    assert not x.delta1.is_zero
    model = SmallEquivariantComplex(x, "hat", range(1, 3))
    _check_model(model)
    assert {s for _, s in x.delta1.entries} <= model.x_lossy
