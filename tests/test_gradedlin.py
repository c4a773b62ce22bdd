import random

import pytest

from scx.errors import NotAComplex, ShapeMismatch, UnsupportedRingForHomology
from scx.gradedlin import (
    GradedMatrix,
    GradedModule,
    _check_snf,
    _mat_mul_int,
    homology_of_pair,
    smith_normal_form,
    snf_diagonal,
)
from scx.linkfam import torus_link_complex
from scx.rings import LAURENT_Z, Q, Z, parse_element


def test_homogeneity_enforced():
    m = GradedModule(Z, 4, [("a", 0), ("b", 3)])
    GradedMatrix(m, m, -1, {(1, 0): Z.one()})
    with pytest.raises(ShapeMismatch):
        GradedMatrix(m, m, -1, {(0, 1): Z.one()})


def test_compose_identity_and_zero():
    m = GradedModule(Z, 2, [("a", 0), ("b", 1)])
    b = GradedMatrix(m, m, 1, {(1, 0): Z.from_int(3), (0, 1): Z.from_int(2)})
    assert GradedMatrix.identity(m) @ b == b
    assert (GradedMatrix.zero(m, m, 1) @ b).is_zero


def test_delta1_after_v_on_torus_k3():
    # by hand: delta1(v(xi^2)) = (T^2 - T^-2)^2 theta+
    x = torus_link_complex(3)
    comp = x.delta1 @ x.v
    want = parse_element(LAURENT_Z, "T^4 - 2 + T^-4")
    assert comp.named_triples() == [("theta+", "xi2", want)]


def test_snf_frozen_examples():
    # d1 = gcd of entries = 2, d1*d2 = |det| = 8
    d, u, v = smith_normal_form([[2, 4], [6, 8]])
    assert [d[0][0], d[1][1]] == [2, 4]
    assert snf_diagonal([[0, 0], [0, 0]]) == [0, 0]
    assert snf_diagonal([[1, 0], [0, 1]]) == [1, 1]


def test_snf_random_transform_and_divisibility():
    rng = random.Random(4)
    for _ in range(40):
        m = rng.randint(0, 4)
        n = rng.randint(0, 4)
        a = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)]
        d, u, v = smith_normal_form(a)  # internal check asserts UAV = D
        diag = [d[i][i] for i in range(min(m, n))]
        for x, y in zip(diag, diag[1:]):
            assert (x == 0 and y == 0) or (x != 0 and y % x == 0)
        assert all(x >= 0 for x in diag)


def _transform_rejected(a, d, u, v):
    """Whether _check_snf rejects U A V = D (the order and divisibility
    checks that follow it may still reject D on their own)."""
    try:
        _check_snf(a, d, u, v)
    except AssertionError as exc:
        return "transform check failed" in str(exc)
    return False


def _dense_equal(a, d, u, v):
    return _mat_mul_int(_mat_mul_int(u, a), v) == d


def _random_int_matrix(rng, m, n, density):
    return [[rng.randint(-9, 9) if rng.random() < density else 0 for _ in range(n)]
            for _ in range(m)]


def test_sparse_check_snf_agrees_with_dense_product():
    # the sparse check accepts U A V = D exactly when the dense product does,
    # on SNF transforms, on corrupted ones and on unrelated random U, V, D
    rng = random.Random(21)
    shapes = [(0, 0), (1, 0), (3, 0), (1, 1), (2, 3), (3, 2), (4, 4), (5, 3)]
    for m, n in shapes:
        for density in (0.0, 0.3, 1.0):
            a = _random_int_matrix(rng, m, n, density)
            if not a:
                d, u, v = [], [], []
            else:
                d, u, v = smith_normal_form(a)
            assert not _transform_rejected(a, d, u, v)
            assert _dense_equal(a, d, u, v)
            for which in range(3):
                mats = [[list(r) for r in x] for x in (u, v, d)]
                target = mats[which]
                if not target or not target[0]:
                    continue
                i, j = rng.randrange(len(target)), rng.randrange(len(target[0]))
                target[i][j] += rng.choice([-2, -1, 1, 3])
                cu, cv, cd = mats
                assert _transform_rejected(a, cd, cu, cv) == (not _dense_equal(a, cd, cu, cv))
            if m and n:
                u2 = _random_int_matrix(rng, m, m, 0.5)
                v2 = _random_int_matrix(rng, n, n, 0.5)
                prod = _mat_mul_int(_mat_mul_int(u2, a), v2)
                assert not _transform_rejected(a, prod, u2, v2)
                off = [list(r) for r in prod]
                off[rng.randrange(m)][rng.randrange(n)] += 1
                assert _transform_rejected(a, off, u2, v2)


def test_sparse_check_snf_rejects_corrupted_transforms():
    rng = random.Random(22)
    for _ in range(20):
        a = _random_int_matrix(rng, rng.randint(1, 5), rng.randint(1, 5), 0.5)
        if not any(any(row) for row in a):
            a[0][0] = 3
        d, u, v = smith_normal_form(a)
        m, n = len(a), len(a[0])
        # U: row k of A V is nonzero, so adding 1 at U[i][k] moves row i of U A V
        av = _mat_mul_int(a, v)
        k = next(k for k in range(m) if any(av[k]))
        bad_u = [list(r) for r in u]
        bad_u[rng.randrange(m)][k] += 1
        with pytest.raises(AssertionError):
            _check_snf(a, d, bad_u, v)
        # V: column k of U A is nonzero, so adding 1 at V[k][j] moves column j
        ua = _mat_mul_int(u, a)
        k = next(k for k in range(n) if any(row[k] for row in ua))
        bad_v = [list(r) for r in v]
        bad_v[k][rng.randrange(n)] += 1
        with pytest.raises(AssertionError):
            _check_snf(a, d, u, bad_v)
        bad_d = [list(r) for r in d]
        bad_d[rng.randrange(m)][rng.randrange(n)] -= 1
        with pytest.raises(AssertionError):
            _check_snf(a, bad_d, u, v)


def _ungraded_pair(rows, ring):
    m = len(rows)
    n = len(rows[0]) if m else 0
    src = GradedModule(ring, 2, [(f"s{i}", 1) for i in range(n)])
    tgt = GradedModule(ring, 2, [(f"t{i}", 0) for i in range(m)])
    ent = {(i, j): ring.from_int(rows[i][j]) for i in range(m) for j in range(n)
           if rows[i][j]}
    d_in = GradedMatrix(src, tgt, -1, ent)
    zero_out = GradedMatrix.zero(tgt, GradedModule(ring, 2, []), -1)
    return d_in, zero_out


def test_homology_times_two_gives_torsion():
    d_in, d_out = _ungraded_pair([[2]], Z)
    h = homology_of_pair(d_in, d_out)
    assert h.free_rank(0) == 0
    assert h.torsion(0) == (2,)


def test_homology_zero_differentials():
    m = GradedModule(Z, 2, [(f"g{i}", i % 2) for i in range(5)])
    z = GradedMatrix.zero(m, m, 1)
    h = homology_of_pair(z, z)
    assert h.total_rank == 5


def test_homology_requires_complex_and_ring():
    m = GradedModule(LAURENT_Z, 2, [("a", 0), ("b", 1)])
    z = GradedMatrix.zero(m, m, 1)
    with pytest.raises(UnsupportedRingForHomology):
        homology_of_pair(z, z)
    mq = GradedModule(Q, 2, [("a", 0), ("b", 1)])
    one = GradedMatrix(mq, mq, 1, {(0, 1): Q.one(), (1, 0): Q.one()})
    with pytest.raises(NotAComplex):
        homology_of_pair(one, one)


def test_free_rank_agrees_over_z_and_q():
    rng = random.Random(12)
    for _ in range(50):
        n = rng.randint(1, 6)
        gens = [(f"g{i}", rng.randint(0, 1)) for i in range(n)]
        mz = GradedModule(Z, 2, gens)
        # a random differential: strictly upper in a fixed split, so d^2 = 0
        half = n // 2
        ent = {}
        for s in range(half):
            for t in range(half, n):
                if (mz.degree(t) - mz.degree(s) - 1) % 2 == 0 and rng.random() < 0.5:
                    ent[(t, s)] = Z.from_int(rng.randint(-3, 3))
        dz = GradedMatrix(mz, mz, 1, {k: v for k, v in ent.items() if not v.is_zero})
        assert (dz @ dz).is_zero
        hz = homology_of_pair(dz, dz)
        mq = GradedModule(Q, 2, gens)
        dq = dz.map_entries(lambda x: Q.from_int(x.val), mq, mq)
        hq = homology_of_pair(dq, dq)
        assert hz.ranks_by_degree() == hq.ranks_by_degree()


def test_base_change_commutes_with_compose():
    from scx.rings import RingMap, eval_t_at_one

    rng = random.Random(3)
    f = eval_t_at_one()
    m = GradedModule(LAURENT_Z, 2, [(f"a{i}", i % 2) for i in range(4)])
    mz = GradedModule(Z, 2, list(m.gens))
    for _ in range(20):
        def rand_m(deg):
            ent = {}
            for s in range(4):
                for t in range(4):
                    if (m.degree(t) - m.degree(s) - deg) % 2 == 0 and rng.random() < 0.6:
                        ent[(t, s)] = LAURENT_Z.monomial(rng.randint(-2, 2), rng.randint(-2, 2))
            return GradedMatrix(m, m, deg, {k: v for k, v in ent.items() if not v.is_zero})

        a, b = rand_m(1), rand_m(1)
        lhs = (a @ b).map_entries(f, mz, mz)
        rhs = a.map_entries(f, mz, mz) @ b.map_entries(f, mz, mz)
        assert lhs == rhs
