import random
import time

import pytest

from scx.equivariant import (
    _j_module,
    _module_basis_and_rank,
    _nilpotency,
    _sweeps,
    build_small,
    froyshov_profile,
    froyshov_properties_check,
    ijp_exactness_report,
    j_module_oracle,
    j_nesting_ok,
    susequivar_witness,
)
from scx.errors import NotRPerfect, UnsupportedRing
from scx.functors import atomic, direct_sum, dual, suspend, tensor
from scx.gradedlin import (
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
from scx.randgen import rand_scomplex
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
    ob, rank = _module_basis_and_rank(j_module_oracle(t25, 2), 1, FRAC_LAURENT_Q)
    assert rank == 1
    ob, rank = _module_basis_and_rank(j_module_oracle(t25, 3), 1, FRAC_LAURENT_Q)
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
    b1, r1 = _module_basis_and_rank(_j_module(o1, 1), 1, Q)
    b2, r2 = _module_basis_and_rank(_j_module(o1, 2), 1, Q)
    assert r1 == 1 and r2 == 0


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
def test_first_zero_reads_the_sweep_once(x, monkeypatch):
    # first_zero(limit) is the least j <= limit with a zero term (limit + 1
    # if there is none), and makes exactly the products of reading terms
    # 0..limit: one per term up to the first zero term and none past limit
    calls = []
    matmul = GradedMatrix.__matmul__
    monkeypatch.setattr(GradedMatrix, "__matmul__",
                        lambda a, b: calls.append(1) or matmul(a, b))
    e = _nilpotency(x.v)
    zero_found = False
    for a, before in ((x.delta1, False), (-x.delta2, True)):
        oracle = Sweep(a, x.v, before)
        terms = [oracle[j] for j in range((e or 4) + 3)]
        for limit in range(-1, (e or 4) + 3):
            want = next((j for j in range(limit + 1) if terms[j].is_zero), limit + 1)
            products = max(min(want, limit), 0)  # terms 1..products are made
            sweep = Sweep(a, x.v, before)
            calls.clear()
            assert sweep.first_zero(limit) == want, (before, limit)
            zero_found |= want <= limit
            assert len(calls) == products and len(sweep._terms) == products + 1
            assert sweep.first_zero(limit) == want and len(calls) == products
            for j in range(products + 1):
                assert sweep[j] == terms[j]
    assert zero_found == (e is not None)


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
    # O(6) as a tensor power, rank C 364: solving all 2w+1 J_i systems
    # takes about 14 s, and all but a few of them have a known answer
    x = atomic(6, Z)
    t0 = time.perf_counter()
    prof = froyshov_profile(x)
    dt = time.perf_counter() - t0
    assert prof.h == 6
    assert dt < 2, f"froyshov_profile on O(6) over Z took {dt:.1f}s (limit 2s)"


def test_trefoil_fifth_power_profile_over_frac_is_fast():
    # rank C 121 over Q(T): solving all 2w+1 J_i systems takes about 1.5 s
    x = _trefoil_power(5)
    t0 = time.perf_counter()
    prof = froyshov_profile(x)
    dt = time.perf_counter() - t0
    assert prof.h == 5
    assert dt < 1, f"froyshov_profile on T(2,3)^5 over Q(T) took {dt:.1f}s (limit 1s)"


def full_profile(x):
    """Oracle for `froyshov_profile`: the d-function, J_i bases and h from
    the column basis of every J_i system of the window, each one solved,
    with no index answered without its elimination."""
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


def _known_answers(x):
    """The window indices whose last block is zero, from full powers of v:
    delta1 v^(i-1) for i >= 1, v^m delta2 for i = -m <= 0."""
    w = x.irr.rank + x.red.rank + 1
    return ({i for i in range(1, w + 1) if (x.delta1 @ x.v.power(i - 1)).is_zero}
            | {-m for m in range(w + 1) if (x.v.power(m) @ x.delta2).is_zero})


def test_profile_solves_only_the_open_systems(monkeypatch):
    at_one = eval_t_at_one()
    xs = _j_oracle_complexes()
    xs += [atomic(n, Z) for n in (3, -3, 4, -4)]
    xs += [_trefoil_power(3)]
    xs += [torus_link_complex(k).base_change(at_one) for k in (2, 5, 9)]
    solved = []
    monkeypatch.setattr("scx.equivariant._j_module",
                        lambda x, i, sweeps=None: solved.append(i) or _j_module(x, i, sweeps))
    non_nilpotent = [_non_nilpotent_s_complex(ring) for ring in (Z, Q)]
    assert all(x.verify().ok and _nilpotency(x.v) is None for x in non_nilpotent)
    skipped_total = 0
    for x in xs + non_nilpotent:
        solved.clear()
        prof = froyshov_profile(x)
        d, j_bases, h = full_profile(x)
        assert (prof.d, prof.h) == (d, h)
        assert {i: [[e.val for e in col] for col in cols] for i, cols in prof.j_bases.items()} \
            == {i: [[e.val for e in col] for col in cols] for i, cols in j_bases.items()}
        lo, hi = prof.window
        skipped = set(range(lo, hi + 1)) - set(solved)
        assert len(solved) == len(set(solved))
        assert skipped == _known_answers(x), x.ring
        if x in non_nilpotent:
            assert not skipped
        elif _nilpotency(x.v) is not None:  # both window ends lie past the first zero term
            assert {lo, hi} <= skipped
        skipped_total += len(skipped)
    assert skipped_total > 500


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
