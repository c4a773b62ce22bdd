import random
import time
from fractions import Fraction
from itertools import permutations

import pytest

from scx.errors import NotAComplex, RingMismatch, ShapeMismatch, UnsupportedRingForHomology
from scx.gradedlin import (
    ELIMINATIONS,
    GradedHomology,
    GradedMatrix,
    GradedModule,
    HomologyMaps,
    _FieldEchelon,
    _check_snf,
    _homology_elimination,
    _side_by_side,
    _snf_solve,
    boxed,
    column_basis,
    exactness_at,
    field_kernel_basis,
    field_rref,
    homology_of_pair,
    int_kernel_basis,
    is_invertible,
    raw_cols,
    raw_rows,
    raw_vectors,
    smith_form,
    smith_normal_form,
    span_contains,
    spans_equal,
    sparse_kernel_basis,
)
from scx.linkfam import torus_link_complex
from scx.randgen import rand_scomplex
from scx.rings import FRAC_LAURENT_Q, LAURENT_Z, Q, Z, RingElement, Zp, parse_element, ratfun_normalize


def _elements(m):
    """m's entries as {(t, s): ring element}."""
    return {k: m.entry(*k) for k in m.entries}


def test_homogeneity_enforced():
    m = GradedModule(Z, 4, [("a", 0), ("b", 3)])
    GradedMatrix(m, m, -1, {(1, 0): 1})
    with pytest.raises(ShapeMismatch):
        GradedMatrix(m, m, -1, {(0, 1): 1})
    with pytest.raises(ShapeMismatch):
        GradedMatrix(m, m, -1, {(2, 0): 1})


def test_from_blocks_overlapping_blocks_add():
    small = GradedModule(Q, 2, [("a", 0), ("b", 1)])
    big = GradedModule(Q, 2, [("x", 1), ("a", 0), ("b", 1)])
    m = GradedMatrix(small, small, 1, {(1, 0): Q.domain.from_int(3), (0, 1): Q.domain.from_int(2)})
    n = GradedMatrix(small, small, 1, {(1, 0): Q.domain.from_int(4)})
    got = GradedMatrix.from_blocks(big, big, 1, (m, 1, 1), (n, 1, 1))
    assert _elements(got) == {(2, 1): Q.from_int(7), (1, 2): Q.from_int(2)}


def test_from_blocks_cancelling_blocks_leave_no_entry():
    m = GradedModule(Z, 2, [("a", 0), ("b", 1)])
    b = GradedMatrix(m, m, 1, {(1, 0): 3, (0, 1): 2})
    assert GradedMatrix.from_blocks(m, m, 1, (b, 0, 0), (-b, 0, 0)).entries == {}
    half = GradedMatrix(m, m, 1, {(1, 0): -3})
    assert _elements(GradedMatrix.from_blocks(m, m, 1, (b, 0, 0), (half, 0, 0))) == {
        (0, 1): Z.from_int(2)}


def test_from_blocks_keeps_the_constructor_checks():
    m = GradedModule(Z, 2, [("a", 0), ("b", 1)])
    b = GradedMatrix(m, m, 1, {(1, 0): 1})
    big = GradedModule(Z, 2, [("a", 0), ("b", 1), ("c", 1)])
    with pytest.raises(ShapeMismatch):  # lands on (c, b): degree 1 - 1 != 1
        GradedMatrix.from_blocks(big, big, 1, (b, 1, 1))
    with pytest.raises(ShapeMismatch):  # row 3 of a rank-3 target
        GradedMatrix.from_blocks(big, big, 1, (b, 2, 0))
    mq = GradedModule(Q, 2, [("a", 0), ("b", 1)])
    with pytest.raises(RingMismatch):
        GradedMatrix.from_blocks(mq, mq, 1, (b, 0, 0))


def test_compose_identity_and_zero():
    m = GradedModule(Z, 2, [("a", 0), ("b", 1)])
    b = GradedMatrix(m, m, 1, {(1, 0): 3, (0, 1): 2})
    assert GradedMatrix.identity(m) @ b == b
    assert (GradedMatrix.zero(m, m, 1) @ b).is_zero


def test_a_product_with_an_empty_factor_keeps_its_endpoints_and_degree():
    # an empty factor returns the zero product at once: from the right
    # factor's source to the left factor's target, of the summed degree
    a = GradedModule(Z, 4, [("a", 0), ("b", 1)])
    b = GradedModule(Z, 4, [("c", 2), ("d", 3), ("e", 0)])
    m = GradedMatrix(a, b, 2, {(0, 0): 3, (1, 1): -1})
    n = GradedMatrix(b, a, 2, {(0, 0): 5})
    for left, right in ((GradedMatrix.zero(b, a, 1), m), (m, GradedMatrix.zero(a, a, 3)),
                        (GradedMatrix.zero(a, b, 3), GradedMatrix.zero(b, a, 2)), (m, n)):
        p = left @ right
        assert (p.source, p.target, p.degree) == (right.source, left.target,
                                                  (left.degree + right.degree) % 4)
        assert p.is_zero == (not left.entries or not right.entries)
    with pytest.raises(ShapeMismatch):  # the shape is checked before the entries
        GradedMatrix.zero(a, a, 0) @ GradedMatrix.zero(a, b, 0)


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
    assert smith_normal_form([[0, 0], [0, 0]]).diag == [0, 0]
    assert smith_normal_form([[1, 0], [0, 1]]).diag == [1, 1]


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


def dense_smith_normal_form(rows):
    """Oracle for the sparse Smith normal form: the earlier dense elimination,
    which updates whole rows and columns of A, U and V.  Same pivot rule
    (minimal absolute value, ties by (row, col)), so the same (D, U, V)."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    u = [[1 if i == j else 0 for j in range(m)] for i in range(m)]
    v = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def row_op(i, j, q):  # row i -= q * row j
        a[i] = [x - q * y for x, y in zip(a[i], a[j])]
        u[i] = [x - q * y for x, y in zip(u[i], u[j])]

    def col_op(i, j, q):  # col i -= q * col j
        for r in a:
            r[i] -= q * r[j]
        for r in v:
            r[i] -= q * r[j]

    t = 0
    while t < min(m, n):
        pivot = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = a[i][j]
                if x != 0 and (best is None or abs(x) < best):
                    best, pivot = abs(x), (i, j)
        if pivot is None:
            break
        a[t], a[pivot[0]] = a[pivot[0]], a[t]
        u[t], u[pivot[0]] = u[pivot[0]], u[t]
        for r in a + v:
            r[t], r[pivot[1]] = r[pivot[1]], r[t]
        dirty = False
        for i in range(t + 1, m):
            if a[i][t] % a[t][t] != 0:
                dirty = True
            if a[i][t]:
                row_op(i, t, a[i][t] // a[t][t])
        for j in range(t + 1, n):
            if a[t][j] % a[t][t] != 0:
                dirty = True
            if a[t][j]:
                col_op(j, t, a[t][j] // a[t][t])
        if dirty and (any(a[i][t] for i in range(t + 1, m)) or any(a[t][j] for j in range(t + 1, n))):
            continue
        # divisibility: fold any non-multiple below-right into the pivot row
        bad = next((i for i in range(t + 1, m)
                    if any(a[i][j] % a[t][t] != 0 for j in range(t + 1, n))), None)
        if bad is not None:
            row_op(t, bad, -1)
            continue
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
            u[t] = [-x for x in u[t]]
        t += 1
    d = [[a[i][j] if i == j else 0 for j in range(n)] for i in range(m)]
    return d, u, v


def mat_mul_int(a, b):
    if not a or not b:
        return [[0] * (len(b[0]) if b else 0) for _ in a]
    n = len(b)
    p = len(b[0])
    return [[sum(r[k] * b[k][j] for k in range(n)) for j in range(p)] for r in a]


def _diagonal(d):
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


def dense_int_kernel_basis(rows, ncols):
    m = len(rows)
    n = len(rows[0]) if m else ncols
    if n == 0:
        return []
    if m == 0:
        return [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    d, _, v = dense_smith_normal_form(rows)
    diag = _diagonal(d)
    return [[v[i][j] for i in range(n)] for j in range(n) if j >= len(diag) or diag[j] == 0]


def dense_int_solve(rows, rhs):
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0:
        return [0] * n
    d, u, v = dense_smith_normal_form(rows)
    c = [sum(u[i][k] * rhs[k] for k in range(m)) for i in range(m)]
    y = [0] * n
    for i in range(m):
        di = d[i][i] if i < min(m, n) else 0
        if (c[i] % di != 0) if di else c[i] != 0:
            return None
        if di:
            y[i] = c[i] // di
    return [sum(v[i][k] * y[k] for k in range(n)) for i in range(n)]


def dense_int_column_lattice_basis(rows):
    m = len(rows)
    n = len(rows[0]) if m else 0
    if m == 0 or n == 0:
        return []
    d, _, v = dense_smith_normal_form(rows)
    av = mat_mul_int(rows, v)
    return [[av[i][j] for i in range(m)] for j in range(min(m, n)) if d[j][j] != 0]


def _sparse_rows(dense):
    return [{j: x for j, x in enumerate(row) if x} for row in dense]


def _sparse(vec):
    return {i: x for i, x in enumerate(vec) if x}


def _dense_ints(vec, n):
    return [vec.get(i, 0) for i in range(n)]


def _sparse_cols(dense):
    ncols = len(dense[0]) if dense else 0
    return [{i: row[j] for i, row in enumerate(dense) if row[j]} for j in range(ncols)]


def _snf_test_matrices(rng):
    """Seeded int matrices: empty, all-zero, tall, wide, square and
    rank-deficient, with small entries so that pivot ties are common."""
    cases = [[], [[]], [[], []], [[0] * 4 for _ in range(3)], [[0]], [[5]], [[-2, 4], [6, -8]]]
    shapes = [(1, 1), (2, 5), (5, 2), (3, 3), (4, 4), (6, 3), (3, 6), (7, 7), (9, 5)]
    for m, n in shapes:
        for density in (0.3, 0.6, 1.0):
            for mag in (1, 3, 9):
                cases.append(_random_int_matrix(rng, m, n, density, mag))
        for rank in range(1, min(m, n)):  # a product of m x rank and rank x n factors
            left = _random_int_matrix(rng, m, rank, 0.7, 3)
            right = _random_int_matrix(rng, rank, n, 0.7, 3)
            cases.append(mat_mul_int(left, right))
    return cases


def test_sparse_snf_equals_dense_oracle():
    rng = random.Random(606)
    cases = _snf_test_matrices(rng)
    deficient = 0
    for a in cases:
        d, u, v = dense_smith_normal_form(a)
        snf = smith_normal_form(a)
        m, n = len(a), len(a[0]) if a else 0
        assert tuple(snf) == (d, u, v)
        assert snf.diag == _diagonal(d)
        assert [snf.u_row(i) for i in range(m)] == _sparse_rows(u)
        assert [snf.v_col(j) for j in range(n)] == _sparse_cols(v)
        # the stored rows and columns lie in range, and an all-zero A stores none
        assert set(snf.u) <= set(range(m)) and set(snf.v) <= set(range(n))
        if not any(map(any, a)):
            assert snf.u == {} and snf.v == {}
        if any(map(any, a)) and 0 in _diagonal(d):
            deficient += 1
    assert deficient > 10


def test_snf_callers_equal_the_dense_route():
    rng = random.Random(607)
    for a in _snf_test_matrices(rng):
        m, n = len(a), len(a[0]) if a else 0
        assert int_kernel_basis(a, ncols=n) == dense_int_kernel_basis(a, n)
        assert ([_dense_ints(v, n) for v in sparse_kernel_basis(_sparse_rows(a), n, Z)]
                == dense_int_kernel_basis(a, n))
        assert ([_dense_ints(v, m) for v in column_basis(_sparse_cols(a), m, Z)]
                == dense_int_column_lattice_basis(a))
        x = [rng.randint(-3, 3) for _ in range(n)]
        solvable = [sum(c * y for c, y in zip(row, x)) for row in a]
        got = ELIMINATIONS[Z].solve(_sparse_rows(a), _sparse(solvable), n)
        assert got is not None and _dense_ints(got, n) == dense_int_solve(a, solvable)
        rhs = [rng.randint(-4, 4) for _ in range(m)]
        got = ELIMINATIONS[Z].solve(_sparse_rows(a), _sparse(rhs), n)
        assert (None if got is None else _dense_ints(got, n)) == dense_int_solve(a, rhs)


@pytest.mark.parametrize("ring", [Z, Q, Zp(3), FRAC_LAURENT_Q], ids=str)
def test_bases_without_elimination_equal_the_eliminations(ring, monkeypatch):
    """A kernel of a matrix without entries, and a column basis of at most
    one nonzero column, are read off without a Smith form or row reduction,
    and equal what the elimination returns."""
    import scx.gradedlin as gl

    dom = ring.domain
    empty = [([], 0), ([], 3), ([{}], 1), ([{}, {}], 2), ([{}] * 3, 4), ([{}] * 4, 2)]
    one_col = []
    for n in (1, 2, 3):
        for k in (1, 2, 3):
            one_col.append(([{}] * k, n))
            for pos in range(k):
                for vec in ({0: 1}, {n - 1: -2}, {0: 3, n - 1: -1}):
                    cols = [{}] * k
                    cols[pos] = {i: dom.from_int(x) for i, x in vec.items()}
                    one_col.append((cols, n))

    def eliminated_kernel(a, n):
        got = gl.ELIMINATIONS[ring].kernel([dict(r) for r in a], n)
        return [_dense_ints(v, n) for v in got] if ring == Z else got

    def eliminated_columns(cols, n):
        rows = [{j: col[i] for j, col in enumerate(cols) if i in col} for i in range(n)]
        if ring == Z:
            return dense_int_column_lattice_basis(
                [[row.get(j, 0) for j in range(len(cols))] for row in rows])
        return gl.ELIMINATIONS[ring].basis(cols, n)

    want_kernels = [eliminated_kernel(a, n) for a, n in empty]
    want_columns = [eliminated_columns(cols, n) for cols, n in one_col]

    def refused(*args):
        raise AssertionError("eliminated")

    monkeypatch.setattr(gl, "smith_form", refused)
    monkeypatch.setattr(gl, "_FieldEchelon", refused)
    for (a, n), want in zip(empty, want_kernels):
        got = sparse_kernel_basis(a, n, ring)
        assert (got if ring != Z else [_dense_ints(v, n) for v in got]) == want
    for (cols, n), want in zip(one_col, want_columns):
        got = column_basis(cols, n, ring)
        assert (got if ring != Z else [_dense_ints(v, n) for v in got]) == want


def _stored(vectors):
    """Dense rows (or columns) of a transform in `SmithForm`'s form: only
    those that differ from the identity's are stored."""
    return {i: vec for i, vec in enumerate(vectors) if vec != {i: 1}}


def _check_dense(a, d, u, v):
    """_check_snf on dense A, D, U and V, put in `SmithForm`'s sparse form."""
    _check_snf(_sparse_rows(a), len(a[0]) if a else 0,
               {i: row for i, row in enumerate(_sparse_rows(d)) if row},
               _stored(_sparse_rows(u)), _stored(_sparse_cols(v)))


def _transform_rejected(a, d, u, v):
    """Whether _check_snf rejects U A V = D (the order and divisibility
    checks that follow it may still reject D on their own)."""
    try:
        _check_dense(a, d, u, v)
    except AssertionError as exc:
        return "transform check failed" in str(exc)
    return False


def _dense_equal(a, d, u, v):
    return mat_mul_int(mat_mul_int(u, a), v) == d


def _random_int_matrix(rng, m, n, density, mag=9):
    return [[rng.randint(-mag, mag) if rng.random() < density else 0 for _ in range(n)]
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
                prod = mat_mul_int(mat_mul_int(u2, a), v2)
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
        av = mat_mul_int(a, v)
        k = next(k for k in range(m) if any(av[k]))
        bad_u = [list(r) for r in u]
        bad_u[rng.randrange(m)][k] += 1
        with pytest.raises(AssertionError):
            _check_dense(a, d, bad_u, v)
        # V: column k of U A is nonzero, so adding 1 at V[k][j] moves column j
        ua = mat_mul_int(u, a)
        k = next(k for k in range(n) if any(row[k] for row in ua))
        bad_v = [list(r) for r in v]
        bad_v[k][rng.randrange(n)] += 1
        with pytest.raises(AssertionError):
            _check_dense(a, d, u, bad_v)
        bad_d = [list(r) for r in d]
        bad_d[rng.randrange(m)][rng.randrange(n)] -= 1
        with pytest.raises(AssertionError):
            _check_dense(a, bad_d, u, v)


def _rejected_by_transform_check(a, n, d, u, v):
    with pytest.raises(AssertionError, match="transform check failed"):
        _check_snf(a, n, d, u, v)
    return True


def test_check_snf_rejects_a_corrupted_untouched_transform_vector():
    # a row of U (column of V) that no operation changed is not stored; one
    # stored in its place with an extra entry moves U A V, and is caught
    rng = random.Random(23)
    u_caught = v_caught = 0
    for _ in range(60):
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        a = _sparse_rows(_random_int_matrix(rng, m, n, 0.3, 3))
        snf = smith_form(a, n)
        d = {i: {i: x} for i, x in enumerate(snf.diag) if x}
        _check_snf(a, n, d, snf.u, snf.v)
        held_rows = [k for k in range(m) if a[k]]
        held_cols = sorted(set().union(*a))
        for i in range(m):
            # row k of A, and so of A V, is nonzero: row i of U A V moves by it
            k = next((k for k in held_rows if k != i), None)
            if i not in snf.u and k is not None:
                u_caught += _rejected_by_transform_check(a, n, d, {**snf.u, i: {i: 1, k: 1}}, snf.v)
        for j in range(n):
            # column k of A, and so of U A, is nonzero: column j of U A V moves by it
            k = next((k for k in held_cols if k != j), None)
            if j not in snf.v and k is not None:
                v_caught += _rejected_by_transform_check(a, n, d, snf.u, {**snf.v, j: {j: 1, k: 1}})
    assert u_caught > 10 and v_caught > 10


def test_check_snf_rejects_d_on_an_implicit_row_of_an_empty_a_row():
    a = [{0: 3}, {}]
    snf = smith_form(a, 2)
    assert 1 not in snf.u and snf.diag == [3, 0]
    _check_snf(a, 2, {0: {0: 3}}, snf.u, snf.v)
    for bad_row in ({1: 1}, {0: -2}):
        _rejected_by_transform_check(a, 2, {0: {0: 3}, 1: bad_row}, snf.u, snf.v)
    empty = [{}, {}, {}]
    snf = smith_form(empty, 3)
    assert (snf.u, snf.v, snf.diag) == ({}, {}, [0, 0, 0])
    _rejected_by_transform_check(empty, 3, {2: {1: 5}}, snf.u, snf.v)


def test_check_snf_raises_on_an_out_of_range_index():
    a = [{0: 2}, {}, {0: 6}]  # row 1 and column 1 of A are empty
    snf = smith_form(a, 2)
    d = {i: {i: x} for i, x in enumerate(snf.diag) if x}
    _check_snf(a, 2, d, snf.u, snf.v)
    for u_extra, v_extra, d_extra in [
        ({3: {1: 1}}, {}, {}),  # a U row past m, whose product row is zero
        ({-1: {1: 1}}, {}, {}),
        ({0: {0: 1, 5: 1}}, {}, {}),  # a U entry past m
        ({}, {2: {1: 1}}, {}),  # a V column past n, whose product column is zero
        ({}, {0: {0: 1, -1: 1}}, {}),  # a V entry before 0
        ({}, {}, {3: {0: 1}}),  # a D row past m
        ({}, {}, {1: {4: 1}}),  # a D entry past n
    ]:
        with pytest.raises(AssertionError, match="transform check failed"):
            _check_snf(a, 2, {**d, **d_extra}, {**snf.u, **u_extra}, {**snf.v, **v_extra})


def _ungraded_pair(rows, ring):
    m = len(rows)
    n = len(rows[0]) if m else 0
    src = GradedModule(ring, 2, [(f"s{i}", 1) for i in range(n)])
    tgt = GradedModule(ring, 2, [(f"t{i}", 0) for i in range(m)])
    ent = {(i, j): ring.domain.from_int(rows[i][j]) for i in range(m) for j in range(n)
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
    for refused in (lambda: homology_of_pair(z, z), lambda: exactness_at(z, z, z, z, z),
                    lambda: HomologyMaps(z)):
        with pytest.raises(UnsupportedRingForHomology) as err:
            refused()
        assert str(err.value) == "homology over LaurentZ is refused; base-change to Z or a field first"
    mq = GradedModule(Q, 2, [("a", 0), ("b", 1)])
    one = GradedMatrix(mq, mq, 1, {(0, 1): Q.domain.one, (1, 0): Q.domain.one})
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
                    ent[(t, s)] = rng.randint(-3, 3)
        dz = GradedMatrix(mz, mz, 1, {k: v for k, v in ent.items() if v})
        assert (dz @ dz).is_zero
        hz = homology_of_pair(dz, dz)
        mq = GradedModule(Q, 2, gens)
        dq = dz.map_entries(Q.domain.from_int, mq, mq)
        hq = homology_of_pair(dq, dq)
        assert hz.ranks_by_degree() == hq.ranks_by_degree()


def dense_z_subquotient(kernel_basis, image_cols):
    """The dense Z^k-basis `kernel_basis` modulo the lattice spanned by the
    dense `image_cols`, solving for each image column on its own."""
    r = len(kernel_basis)
    if r == 0:
        return 0, ()
    n = len(kernel_basis[0])
    k_rows = [[kernel_basis[j][i] for j in range(r)] for i in range(n)]
    coords = []
    for col in image_cols:
        x = ELIMINATIONS[Z].solve(_sparse_rows(k_rows), _sparse(col), r)
        assert x is not None, "image does not lie in the kernel over Z"
        coords.append(_dense_ints(x, r))
    if not coords:
        return r, ()
    m_rows = [[coords[j][i] for j in range(len(coords))] for i in range(r)]
    nonzero = [d for d in smith_normal_form(m_rows).diag if d != 0]
    return r - len(nonzero), tuple(d for d in nonzero if d > 1)


def homology_of_pair_oracle(d_in, d_out):
    """Oracle for `homology_of_pair`: the earlier dense version, which builds
    each matrix with one `entry` call per position, ranks every image
    column, zero ones included, and solves for each image column over Z on
    its own."""
    ring = d_in.ring
    _homology_elimination(ring)
    assert (d_out @ d_in).is_zero
    mid = d_in.target
    table = {}
    for k in mid.degrees_present():
        cols = mid.indices_of_degree(k)
        out_rows = range(d_out.target.rank)
        if ring == Z:
            a_out = [[d_out.entry(t, s).val for s in cols] for t in out_rows]
            kern = int_kernel_basis(a_out, ncols=len(cols))
            img_cols = []
            for s in range(d_in.source.rank):
                col = [d_in.entry(t, s).val for t in cols]
                if any(col):
                    img_cols.append(col)
            free, tor = dense_z_subquotient(kern, img_cols)
        else:
            a_out = [[d_out.entry(t, s) for s in cols] for t in out_rows]
            kern_rank = len(cols) - len(field_rref(a_out, ring)[1])
            img_cols = [[d_in.entry(t, s) for t in cols] for s in range(d_in.source.rank)]
            img_rows = [[img_cols[j][i] for j in range(len(img_cols))] for i in range(len(cols))]
            img_rank = len(field_rref(img_rows, ring)[1]) if img_cols else 0
            free, tor = kern_rank - img_rank, ()
        if free or tor:
            table[k] = (free, tor)
    return GradedHomology(mid.modulus, table)


def _rand_z_differential(rng, n):
    """A random d with d.d = 0 over Z (strictly lower in a fixed split),
    with coefficients that leave torsion."""
    gens = [(f"g{i}", rng.randint(0, 1)) for i in range(n)]
    m = GradedModule(Z, 2, gens)
    half = n // 2
    ent = {(t, s): rng.randint(-4, 4)
           for s in range(half) for t in range(half, n)
           if (m.degree(t) - m.degree(s) - 1) % 2 == 0 and rng.random() < 0.6}
    return GradedMatrix(m, m, 1, ent)


def test_homology_of_pair_matches_the_dense_oracle():
    rng = random.Random(77)
    pairs = []
    for ring in (Z, Zp(2), Q, FRAC_LAURENT_Q):
        for _ in range(6):
            x = rand_scomplex(ring, rng, max_rank=5)
            dt = x.total_differential()
            pairs += [(dt, dt), (x.d, x.d), (x.r, x.r)]
    for _ in range(40):
        d = _rand_z_differential(rng, rng.randint(1, 7))
        pairs.append((d, d))
        # a zero-rank target for d_out: H = coker(d)
        pairs.append((d, GradedMatrix.zero(d.target, GradedModule(Z, 2, []), 1)))
    for _ in range(20):
        d = _rand_z_differential(rng, rng.randint(1, 7))
        # d_out equal to d but another object, and d_out = 2d: each side is
        # eliminated on its own
        pairs += [(d, GradedMatrix._new(d.source, d.target, d.degree, dict(d.entries))),
                  (d, d.scale(Z.from_int(2)))]
        # a zero-rank source for d_in: H = ker(d)
        pairs.append((GradedMatrix.zero(GradedModule(Z, 2, []), d.source, 1), d))
    torsion = 0
    for d_in, d_out in pairs:
        got = homology_of_pair(d_in, d_out)
        assert got == homology_of_pair_oracle(d_in, d_out)
        torsion += any(got.torsion(k) for k in (0, 1))
    assert torsion > 5


def _tensor_shapes():
    """T(2,4) (x) dual T(2,6) and its suspensions by -2 and 2 over
    Z[T^{+-1}]: the shapes the homology verb is run on."""
    from scx.functors import dual, suspend, tensor

    p = tensor(torus_link_complex(2), dual(torus_link_complex(3)))
    return [p, suspend(p, -2), suspend(p, 2)]


def _read_over(x, ring):
    """x, over Z[T^{+-1}], over `ring` as the homology verb reads it: Q(T)
    by inclusion, Z through T = 1, Q and Z/p from there."""
    from scx.rings import RingMap, eval_t_at_one

    if ring == FRAC_LAURENT_Q:
        return x.base_change(RingMap(RingMap.LAURENT_TO_FRAC, LAURENT_Z, FRAC_LAURENT_Q))
    xz = x.base_change(eval_t_at_one())
    if ring == Z:
        return xz
    return xz.base_change(RingMap(RingMap.Z_TO_Q, Z, Q) if ring == Q
                          else RingMap(RingMap.MOD_P, Z, ring))


_HOMOLOGY_RINGS = [Z, FRAC_LAURENT_Q, Q, Zp(2)]


def test_homology_of_pair_matches_the_dense_oracle_on_tensor_shapes():
    for x in _tensor_shapes():
        for ring in _HOMOLOGY_RINGS:
            y = _read_over(x, ring)
            for d in (y.total_differential(), y.d, y.r):
                assert homology_of_pair(d, d) == homology_of_pair_oracle(d, d)


@pytest.mark.parametrize("ring", _HOMOLOGY_RINGS)
def test_homology_of_pair_eliminates_each_degree_block_once(monkeypatch, ring):
    import scx.gradedlin as gl

    x = _read_over(_tensor_shapes()[1], ring)
    calls = {"smith_form": 0, "_FieldEchelon": 0}

    def counted(name):
        real = getattr(gl, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)
        return wrapper

    def refused(*args):
        raise AssertionError("homology_of_pair solved a system")

    for name in calls:
        monkeypatch.setattr(gl, name, counted(name))
    monkeypatch.setattr(gl, "sparse_kernel_basis", refused)
    monkeypatch.setattr(gl, "_snf_solve", refused)
    # r = 0 here: no block holds an entry, and nothing is eliminated
    for d in (x.total_differential(), x.d, x.r):
        calls.update(smith_form=0, _FieldEchelon=0)
        homology_of_pair(d, d)
        want = len({d.source.degree(s) for _, s in d.entries})
        assert calls == ({"smith_form": want, "_FieldEchelon": 0} if ring == Z
                         else {"smith_form": 0, "_FieldEchelon": want})
    assert x.total_differential().entries


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
            return GradedMatrix(m, m, deg, {k: v.val for k, v in ent.items() if not v.is_zero})

        a, b = rand_m(1), rand_m(1)
        lhs = (a @ b).map_entries(f.raw, mz, mz)
        rhs = a.map_entries(f.raw, mz, mz) @ b.map_entries(f.raw, mz, mz)
        assert lhs == rhs


@pytest.mark.parametrize("rows, invertible", [
    ([["1", "0"], ["0", "1"]], True),
    ([["T", "0"], ["0", "-T^-1"]], True),
    ([["2", "0"], ["0", "2"]], False),
    ([["1 + T", "0"], ["0", "1 + T"]], False),
    ([["1 + T", "T"], ["1", "1"]], True),  # det 1
    ([["T", "T^2"], ["1", "T"]], False),  # singular
])
def test_is_invertible_over_laurent(rows, invertible):
    # invertible over Z[T^{+-1}] iff invertible over Q(T) with a Laurent inverse
    m = GradedModule(LAURENT_Z, 2, [("a", 0), ("b", 0)])
    ent = {(t, s): parse_element(LAURENT_Z, x).val
           for t, row in enumerate(rows) for s, x in enumerate(row)}
    a = GradedMatrix(m, m, 0, ent)
    assert is_invertible(a) is invertible


def dense_field_rref(rows, ring):
    """Independent oracle for field_rref: the dense elimination that updates
    every entry of every row it clears and scales the whole pivot row."""
    a = [list(r) for r in rows]
    m = len(a)
    n = len(a[0]) if m else 0
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if not a[i][c].is_zero), None)
        if pr is None:
            continue
        a[r], a[pr] = a[pr], a[r]
        inv = a[r][c].inverse()
        a[r] = [x * inv for x in a[r]]
        for i in range(m):
            if i != r and not a[i][c].is_zero:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    return a, pivots


def _rand_field_element(ring, rng):
    if rng.random() < 0.55:
        return ring.zero()
    if ring == FRAC_LAURENT_Q:
        num = tuple(sorted({rng.randint(-2, 2): rng.choice([-3, -1, 1, 2]) for _ in range(2)}.items()))
        den = tuple(sorted({rng.randint(0, 2): rng.choice([-2, 1, 3]) for _ in range(2)}.items()))
        return RingElement(ring, ratfun_normalize(num, den))
    a, b = rng.randint(-4, 4), rng.choice([1, 1, 2, 3])
    return parse_element(ring, f"{a}/{b}" if ring == Q else str(a))


def _rand_field_matrix(ring, rng, m, n, rank=None):
    rand = [[_rand_field_element(ring, rng) for _ in range(n)] for _ in range(m)]
    if rank is None:
        return rand
    # a product of m x rank and rank x n factors has rank at most `rank`
    left = [[_rand_field_element(ring, rng) for _ in range(rank)] for _ in range(m)]
    right = [[_rand_field_element(ring, rng) for _ in range(n)] for _ in range(rank)]
    out = []
    for i in range(m):
        row = []
        for j in range(n):
            x = ring.zero()
            for k in range(rank):
                x = x + left[i][k] * right[k][j]
            row.append(x)
        out.append(row)
    return out


@pytest.mark.parametrize("ring", [Q, Zp(3), FRAC_LAURENT_Q], ids=str)
def test_sparse_field_rref_equals_dense_oracle(ring):
    rng = random.Random(404)
    shapes = [(0, 0), (0, 3), (3, 0), (1, 1), (4, 4), (7, 3), (3, 7), (6, 6), (9, 4)]
    cases = [[[ring.zero()] * 5 for _ in range(4)]]  # all zero
    for m, n in shapes:
        for _ in range(4 if ring != FRAC_LAURENT_Q else 2):
            cases.append(_rand_field_matrix(ring, rng, m, n))
        if m and n:
            cases.append(_rand_field_matrix(ring, rng, m, n, rank=min(m, n) // 2))
    full_rank = set()
    for rows in cases:
        m, n = len(rows), len(rows[0]) if rows else 0
        rr, piv = field_rref(rows, ring)
        assert (rr, piv) == dense_field_rref(rows, ring)
        full_rank.add(len(piv) == min(m, n))
        for v in field_kernel_basis(rows, ring, ncols=n):
            assert all(sum((a * x for a, x in zip(row, v)), ring.zero()).is_zero for row in rows)
    assert full_rank == {True, False}  # both full-rank and rank-deficient shapes ran


def spans_equal_oracle(cols_a, cols_b, n, ring):
    """Independent oracle for spans_equal: each basis vector of one side is
    solved for in the other side's basis, one elimination per vector."""
    ba, bb = column_basis(cols_a, n, ring), column_basis(cols_b, n, ring)
    return (all(span_contains(bb, v, n, ring) for v in ba)
            and all(span_contains(ba, v, n, ring) for v in bb))


def _ring_cols(ring, cols):
    """Integer columns as {index: raw value} vectors over `ring`."""
    return raw_vectors([[ring.from_int(x) for x in c] for c in cols], ring)


@pytest.mark.parametrize("ring", [Z, Q, Zp(3), FRAC_LAURENT_Q], ids=str)
def test_spans_equal_matches_the_per_vector_oracle(ring):
    a = [[1, 0, 2, 0], [0, 1, -1, 3]]
    other_basis = [[1, 3, -1, 9], [0, 1, -1, 3], [1, 4, -2, 12]]  # a1 + 3 a2, a2, and their sum
    index_two = [[2, 0, 4, 0], [0, 1, -1, 3]]
    zeros = [[0, 0, 0, 0], [0, 0, 0, 0]]
    cases = [
        (a, other_basis, True),
        (a, index_two, ring != Z),  # index 2: equal only where 2 is a unit
        (a, a[:1], False),
        ([], [], True),
        ([], zeros, True),
        (zeros, a, False),
        ([[]], [], True),
        ([[], []], [[]], True),
    ]
    rng = random.Random(59)
    for _ in range(25):
        m, n, k = rng.randint(1, 5), rng.randint(0, 4), rng.randint(0, 4)
        left = [[rng.randint(-3, 3) for _ in range(m)] for _ in range(n)]
        mix = [[rng.choice((-1, 0, 0, 1, 2)) for _ in range(n)] for _ in range(k)]
        right = [[sum(c[j] * left[j][i] for j in range(n)) for i in range(m)] for c in mix]
        cases.append((left, right, None))
    seen = set()
    for cols_a, cols_b, want in cases:
        n = len((cols_a + cols_b + [[]])[0])
        ca, cb = _ring_cols(ring, cols_a), _ring_cols(ring, cols_b)
        got = spans_equal(ca, cb, n, ring)
        assert got == spans_equal_oracle(ca, cb, n, ring) == spans_equal(cb, ca, n, ring)
        if want is not None:
            assert got is want
        seen.add(got)
    assert seen == {True, False}


def _recombined(vecs, rng, dom, units):
    """The vectors `vecs` after random invertible row operations over the
    ring of `dom`: adding a multiple of one to another, swapping two, and
    scaling one by an element of `units`; zero vectors are inserted."""
    out = [dict(v) for v in vecs]

    def add_to(i, c, j):  # out[i] += c * out[j]
        row = out[i]
        for k, y in out[j].items():
            x = dom.add(row.get(k, dom.zero), dom.mul(c, y))
            if x == dom.zero:
                row.pop(k, None)
            else:
                row[k] = x

    for _ in range(3 * len(out)):
        op = rng.random()
        if len(out) > 1 and op < 0.6:
            i, j = rng.sample(range(len(out)), 2)
            add_to(i, dom.from_int(rng.choice((-2, -1, 1, 3))), j)
        elif len(out) > 1 and op < 0.8:
            i, j = rng.sample(range(len(out)), 2)
            out[i], out[j] = out[j], out[i]
        elif out:
            i, u = rng.randrange(len(out)), rng.choice(units)
            out[i] = {k: dom.mul(u, x) for k, x in out[i].items()}
    for _ in range(rng.randint(0, 2)):
        out.insert(rng.randint(0, len(out)), {})
    return out


def _rand_int_vectors(rng, k, n, rank=None):
    """k random int vectors of length n, of rank at most `rank` when given."""
    def dense():
        return [rng.choice((0, 0, 0, -3, -2, -1, 1, 2, 3)) for _ in range(n)]

    if rank is None:
        return [_sparse(dense()) for _ in range(k)]
    basis = [dense() for _ in range(rank)]
    out = []
    for _ in range(k):
        coeffs = [rng.randint(-2, 2) for _ in basis]
        out.append(_sparse([sum(c * b[j] for c, b in zip(coeffs, basis)) for j in range(n)]))
    return out


def _sympy_hnf(vecs, n):
    """sympy's Hermite normal form of the matrix whose columns are the int
    vectors `vecs` and one zero column (which spans nothing and keeps the
    matrix from being empty)."""
    from sympy import Matrix
    from sympy.matrices.normalforms import hermite_normal_form

    cols = list(vecs) + [{}]
    return hermite_normal_form(Matrix(n, len(cols), lambda i, j: cols[j].get(i, 0)))


def test_spans_equal_over_z_matches_sympys_hermite_form():
    pytest.importorskip("sympy")
    rng = random.Random(2504)
    dom = Z.domain
    cases = []
    for _ in range(60):
        n, k = rng.randint(1, 6), rng.randint(0, 6)
        a = _rand_int_vectors(rng, k, n, rank=rng.choice((None, 1, 2, 3)))
        if rng.random() < 0.3:
            a.append({})
        cases.append((a, _recombined(a, rng, dom, (1, -1)), n))  # unimodular: always equal
        doubled = _recombined(a, rng, dom, (1, -1))
        if doubled:
            i = rng.randrange(len(doubled))
            doubled[i] = {j: 2 * x for j, x in doubled[i].items()}  # index 1 or 2
        cases.append((a, doubled, n))
        cases.append((a, a[1:], n))
        cases.append((a, _rand_int_vectors(rng, k, n), n))
    outcomes = {}
    for a, b, n in cases:
        got = spans_equal(a, b, n, Z)
        assert got == (_sympy_hnf(a, n) == _sympy_hnf(b, n)), (a, b)
        outcomes[got] = outcomes.get(got, 0) + 1
    assert min(outcomes.get(True, 0), outcomes.get(False, 0)) >= 40, outcomes


@pytest.mark.parametrize("ring", [Z, Q, Zp(3), FRAC_LAURENT_Q], ids=str)
def test_canonical_is_invariant_under_shuffling_and_recombining(ring):
    rng = random.Random(f"canonical {ring}")
    dom = ring.domain
    elim = ELIMINATIONS[ring]
    units = [dom.one, dom.neg(dom.one)]
    if ring != Z:
        units += [dom.from_int(2), dom.neg(dom.from_int(2))]
    for _ in range(40):
        n, k = rng.randint(1, 6), rng.randint(0, 6)
        ints = _rand_int_vectors(rng, k, n, rank=rng.choice((None, 1, 2)))
        vecs = [{j: y for j, x in v.items() if (y := dom.from_int(x)) != dom.zero} for v in ints]
        before = [dict(v) for v in vecs]
        want = elim.canonical(vecs, n)
        assert vecs == before
        shuffled = list(vecs)
        rng.shuffle(shuffled)
        assert elim.canonical(shuffled, n) == want
        assert elim.canonical(_recombined(vecs, rng, dom, units), n) == want
        # the form spans what the vectors span, and is its own form
        assert spans_equal_oracle(want, vecs, n, ring) and elim.canonical(want, n) == want


def test_hermite_form_of_a_rank_deficient_40_by_45_set():
    rng = random.Random(4045)
    vecs = _rand_int_vectors(rng, 40, 45, rank=30)
    start = time.perf_counter()
    rows = ELIMINATIONS[Z].canonical(vecs, 45)
    assert time.perf_counter() - start < 1.0
    pivots = [min(row) for row in rows]
    assert pivots == sorted(set(pivots)) and len(rows) == 30
    for i, row in enumerate(rows):
        p = row[pivots[i]]
        assert p > 0
        assert all(0 <= above.get(pivots[i], 0) < p for above in rows[:i])
    # the same lattice: each side lies in the other's span, solved for in
    # one Smith form of that span
    for basis, vs in ((rows, vecs), (vecs, rows)):
        snf = smith_form(_side_by_side(basis, 45), len(basis))
        assert all(_snf_solve(snf, v) is not None for v in vs)


def _int_det(rows):
    """The determinant of a square int matrix, by elimination over Q."""
    a = [[Fraction(x) for x in row] for row in rows]
    det = Fraction(1)
    for c in range(len(a)):
        r = next((i for i in range(c, len(a)) if a[i][c]), None)
        if r is None:
            return 0
        if r != c:
            a[c], a[r] = a[r], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, len(a)):
            f = a[i][c] / a[c][c]
            a[i] = [x - f * y for x, y in zip(a[i], a[c])]
    return det


def test_spans_equal_and_is_invertible_over_z_reach_no_smith_form(monkeypatch):
    import scx.gradedlin as gl

    rng = random.Random(2505)
    pairs = []
    for _ in range(30):
        n, k = rng.randint(1, 5), rng.randint(0, 5)
        a = _rand_int_vectors(rng, k, n, rank=rng.choice((None, 1, 2)))
        pairs.append((a, _recombined(a, rng, Z.domain, (1, -1)), n))
        pairs.append((a, _rand_int_vectors(rng, k, n), n))
    mats = []
    for _ in range(30):
        n = rng.randint(0, 5)
        mod = GradedModule(Z, 2, [(f"g{i}", 0) for i in range(n)])
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        for _ in range(3 * n if n > 1 else 0):  # unimodular row operations
            i, j = rng.sample(range(n), 2)
            rows[i] = [x + rng.choice((-2, -1, 1, 2)) * y for x, y in zip(rows[i], rows[j])]
        draw = rng.random()
        if n and draw < 0.3:  # determinant +-2
            i = rng.randrange(n)
            rows[i] = [2 * x for x in rows[i]]
        elif draw < 0.5:
            rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        mats.append((GradedMatrix(mod, mod, 0, {(i, j): x for i, row in enumerate(rows)
                                                 for j, x in enumerate(row) if x}), rows))
    want_spans = [spans_equal_oracle(a, b, n, Z) for a, b, n in pairs]

    def refused(*args):
        raise AssertionError("a Smith form was made")

    monkeypatch.setattr(gl, "smith_form", refused)
    assert [spans_equal(a, b, n, Z) for a, b, n in pairs] == want_spans
    assert set(want_spans) == {True, False}
    got = [is_invertible(m) for m, _ in mats]
    assert got == [abs(_int_det(rows)) == 1 for _, rows in mats]
    assert set(got) == {True, False}


class GreedyHomologyMaps(HomologyMaps):
    """Independent oracle for HomologyMaps' representatives: the greedy loop
    that keeps a kernel vector when one span_contains elimination finds it
    outside the span of the boundaries and the representatives kept so far.
    Every other method is HomologyMaps'."""

    def __init__(self, d_mid):
        ring = d_mid.ring
        self.ring = ring
        self.module = d_mid.source
        n = self.module.rank
        if ring == Z:
            self.field = Q
            self._lift = lambda vec: {k: Q.domain.from_int(x) for k, x in vec.items()}
        else:
            self.field, self._lift = ring, lambda vec: vec
        kern = sparse_kernel_basis(raw_rows(d_mid), n, ring)
        img = [c for c in raw_cols(d_mid) if c] if d_mid.target == self.module else []
        self.boundaries = column_basis([self._lift(c) for c in img], n, self.field)
        self.reps = []
        self._field_reps = []
        for v in kern:
            fv = self._lift(v)
            if not span_contains(self.boundaries + self._field_reps, fv, n, self.field):
                self.reps.append(v)
                self._field_reps.append(fv)


@pytest.mark.parametrize("ring", [Z, Q, Zp(2), FRAC_LAURENT_Q], ids=str)
def test_homology_reps_match_the_greedy_oracle(ring, monkeypatch):
    import scx.scomplex

    rng = random.Random(61)
    with_boundaries = induced = 0
    for trial in range(24):
        x = rand_scomplex(ring, rng, max_rank=6, r_perfect=trial % 2 == 0)
        hm, oracle = HomologyMaps(x.d), GreedyHomologyMaps(x.d)
        assert hm.boundaries == oracle.boundaries
        assert hm.reps == oracle.reps and hm._field_reps == oracle._field_reps
        with_boundaries += bool(hm.boundaries)
        kern = sparse_kernel_basis(raw_rows(x.d), x.irr.rank, ring)
        dom = ring.domain
        sums = [{k: dom.add(u.get(k, dom.zero), v.get(k, dom.zero)) for k in u.keys() | v.keys()}
                for u, v in zip(kern, kern[1:])]
        cycles = kern + [{k: y for k, y in vec.items() if y != dom.zero} for vec in sums]
        for vec in cycles:
            assert hm.class_coords(vec) == oracle.class_coords(vec)
        if x.r.is_zero:
            got = x.induced_delta_maps()
            with monkeypatch.context() as mp:
                mp.setattr(scx.scomplex, "HomologyMaps", GreedyHomologyMaps)
                want = x.induced_delta_maps()
            assert type(want[0]) is GreedyHomologyMaps
            assert got[0].reps == want[0].reps and got[1:] == want[1:]
            induced += 1
    assert with_boundaries and induced


@pytest.mark.parametrize("ring", [Q, Zp(2), Zp(3), FRAC_LAURENT_Q], ids=str)
def test_raw_rref_equals_dense_oracle(ring):
    # a matrix has exactly one reduced row echelon form: _FieldEchelon's, on
    # {column: raw value} rows taken in any order, is the dense elimination's
    # on ring elements; `basis` keeps the oracle's pivot columns, in order;
    # and the kernel solves A x = 0
    rng = random.Random(406)
    dom = ring.domain
    ran = set()
    for m, n in [(0, 0), (1, 1), (2, 5), (5, 2), (3, 3), (3, 7), (7, 3), (6, 6)]:
        for rank in (None, 0, 1, min(m, n) // 2):
            rows = _rand_field_matrix(ring, rng, m, n, rank=rank)
            if rows:
                rows += [[ring.zero()] * n, list(rows[0])]  # a zero row and a repeated row
            raw = raw_vectors(rows, ring)
            want, piv = dense_field_rref(rows, ring)
            want = raw_vectors(want[:len(piv)], ring)
            orders = (list(permutations(raw)) if len(raw) <= 5
                      else [rng.sample(raw, len(raw)) for _ in range(12)])
            for order in orders:
                ech = _FieldEchelon(dom)
                for vec in order:
                    ech.add(vec)
                assert ech.reduced() == (want, piv)
                assert ech.rank == len(piv)
            assert raw == raw_vectors(rows, ring)  # the rows taken in are unchanged
            cols = [{i: row[j] for i, row in enumerate(raw) if j in row} for j in range(n)]
            kept = ELIMINATIONS[ring].basis(cols, len(raw))
            assert len(kept) == len(piv) and all(a is cols[j] for a, j in zip(kept, piv))
            for vec in ELIMINATIONS[ring].kernel(raw, n):
                for row in rows:
                    acc = dom.zero
                    for c, x in vec.items():
                        acc = dom.add(acc, dom.mul(row[c].val, x))
                    assert acc == dom.zero
            ran.add("deficient" if len(piv) < min(len(raw), n) else "full")
            ran.add("wide" if n > m else "tall" if n < m else "square")
    assert ran == {"deficient", "full", "wide", "tall", "square"}


@pytest.mark.parametrize("ring", [Q, Zp(5), FRAC_LAURENT_Q], ids=str)
def test_field_solve_solves_or_refuses(ring):
    rng = random.Random(407)
    solved = refused = 0
    for _ in range(30):
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        rows = _rand_field_matrix(ring, rng, m, n, rank=rng.randint(0, min(m, n)))
        rhs = [_rand_field_element(ring, rng) for _ in range(m)]
        sol = ELIMINATIONS[ring].solve(raw_vectors(rows, ring), raw_vectors([rhs], ring)[0], n)
        x = None if sol is None else boxed([sol], n, ring)[0]
        consistent = len(field_rref([r + [b] for r, b in zip(rows, rhs)], ring)[1]) == len(
            field_rref(rows, ring)[1])
        assert (x is not None) == consistent
        if x is None:
            refused += 1
            continue
        solved += 1
        assert all(x_i.ring == ring for x_i in x) and len(x) == n
        for row, b in zip(rows, rhs):
            assert sum((a * xi for a, xi in zip(row, x)), ring.zero()) == b
    assert solved and refused


def test_matrix_entries_from_the_wrong_ring_are_refused():
    mz = GradedModule(Z, 2, [("a", 0), ("b", 1)])
    mq = GradedModule(Q, 2, [("a", 0), ("b", 1)])
    # ring elements enter a matrix through the loader's path and `scale`,
    # which refuse an element of another ring
    with pytest.raises(RingMismatch):
        GradedMatrix.from_named(mz, mz, 1, [("b", "a", Q.one())])
    with pytest.raises(RingMismatch):
        GradedMatrix(mz, mz, 1, {(1, 0): 1}).scale(Q.one())
    with pytest.raises(RingMismatch):
        GradedMatrix(mz, mq, 1, {})
    a = GradedMatrix(mz, mz, 1, {(1, 0): 1})
    b = GradedMatrix(mz, mz, 1, {(1, 0): 2})
    # a sum or difference with a matrix over another ring is refused, not
    # computed on raw values
    bad = GradedMatrix(mq, mq, 1, {(1, 0): Q.domain.one})
    for op in (lambda p, q: p + q, lambda p, q: p - q):
        assert op(a, b).entry(1, 0) == op(Z.one(), Z.from_int(2))
        with pytest.raises(RingMismatch):
            op(a, bad)


def test_matrix_difference_is_one_pass(monkeypatch):
    rng = random.Random(408)
    for ring in (Z, Q, FRAC_LAURENT_Q):
        m = GradedModule(ring, 2, [("a", 0), ("b", 1), ("c", 0), ("d", 1)])
        for _ in range(10):
            def rand():
                return GradedMatrix(m, m, 1, {(t, s): rng.randint(-2, 2) if ring == Z
                                              else _rand_field_element(ring, rng).val
                                              for t in range(4) for s in range(4)
                                              if (t - s) % 2})
            a, b = rand(), rand()
            made, checked = [], []
            real_new, real_init = GradedMatrix._new, GradedMatrix.__init__

            def counted(*args):
                made.append(1)
                return real_new(*args)

            def counted_init(self, *args):
                checked.append(1)
                real_init(self, *args)

            monkeypatch.setattr(GradedMatrix, "_new", counted)
            monkeypatch.setattr(GradedMatrix, "__init__", counted_init)
            diff = a - b
            monkeypatch.undo()
            # one matrix is built, by the unchecked constructor
            assert len(made) == 1 and not checked
            assert diff == a + (-b)
            assert (diff + b) == a and (a - a).is_zero


# ---------------------------------------------------------------------------
# An entrywise oracle for the matrix algebra: every operation done position
# by position with RingElement arithmetic, against the methods on raw values.

_ORACLE_RINGS = [Z, Zp(3), Q, LAURENT_Z, FRAC_LAURENT_Q]


def _oracle_element(ring, rng):
    """A random element, zero a quarter of the time, with small values so
    that sums cancel often; Laurent entries include T - T^-1 and 2 - T - T^-1,
    which T -> 1 sends to zero."""
    if rng.random() < 0.25:
        return ring.zero()
    c = ring.from_int(rng.choice([-2, -1, 1, 1, 2]))
    if ring == LAURENT_Z:
        return rng.choice([c, c * ring.monomial(rng.randint(-2, 2)),
                           ring.monomial(1) - ring.monomial(-1),
                           ring.from_int(2) - ring.monomial(1) - ring.monomial(-1)])
    if ring == FRAC_LAURENT_Q:
        den = ring.one() + ring.monomial(rng.randint(0, 1))
        return c * ring.monomial(rng.randint(-1, 1)) / den
    if ring == Q:
        return c / Q.from_int(rng.choice([1, 2, 3]))
    return c


def _oracle_pair(ring, rng, src, tgt, deg):
    """A random homogeneous src -> tgt map as {(t, s): nonzero element} and
    the same map as a matrix, made through the loader's path."""
    ent = {}
    for t in range(tgt.rank):
        for s in range(src.rank):
            if (tgt.degree(t) - src.degree(s) - deg) % src.modulus == 0:
                x = _oracle_element(ring, rng)
                if not x.is_zero:
                    ent[(t, s)] = x
    triples = [(tgt.name(t), src.name(s), x) for (t, s), x in ent.items()]
    return ent, GradedMatrix.from_named(src, tgt, deg, triples)


def _oracle_sum(terms, ring):
    """{position: sum of its elements} of (position, element) terms, zeros dropped."""
    out = {}
    for k, x in terms:
        out[k] = out.get(k, ring.zero()) + x
    return {k: x for k, x in out.items() if not x.is_zero}


def _assert_matches(m, want):
    zero = m.ring.domain.zero
    assert all(x != zero for x in m.entries.values())  # no stored zeros
    assert _elements(m) == want


@pytest.mark.parametrize("ring", _ORACLE_RINGS, ids=str)
def test_matrix_algebra_equals_the_entrywise_element_oracle(ring):
    rng = random.Random(409)
    gens = [[(f"g{i}", rng.randint(0, 1)) for i in range(rng.randint(3, 5))] for _ in range(3)]
    a_mod, b_mod, c_mod = (GradedModule(ring, 2, g) for g in gens)
    cancelled = 0
    for _ in range(25):
        a, ma = _oracle_pair(ring, rng, a_mod, b_mod, 1)
        b, mb = _oracle_pair(ring, rng, a_mod, b_mod, 1)
        c, mc = _oracle_pair(ring, rng, b_mod, c_mod, 1)
        # @: (c a)[t, s] = sum_m c[t, m] a[m, s]
        _assert_matches(mc @ ma, _oracle_sum(
            (((t, s), y * x) for (t, m), y in c.items() for (m2, s), x in a.items() if m == m2),
            ring))
        _assert_matches(ma + mb, _oracle_sum(list(a.items()) + list(b.items()), ring))
        _assert_matches(ma - mb, _oracle_sum(list(a.items()) + [(k, -x) for k, x in b.items()],
                                             ring))
        _assert_matches(-ma, {k: -x for k, x in a.items()})
        k = _oracle_element(ring, rng)
        _assert_matches(ma.scale(k), {p: k * x for p, x in a.items() if not (k * x).is_zero})
        # blocks: a and b overlap at (0, 0), where they add, and b again
        # below them, in a second copy of b_mod's generators
        nb = b_mod.rank
        big_t = GradedModule(ring, 2, list(b_mod.gens) + [(n + "'", d) for n, d in b_mod.gens])
        _assert_matches(
            GradedMatrix.from_blocks(a_mod, big_t, 1, (ma, 0, 0), (mb, 0, 0), (mb, nb, 0)),
            _oracle_sum(list(a.items()) + list(b.items())
                        + [((t + nb, s), x) for (t, s), x in b.items()], ring))
        cancelled += sum(1 for p in a.keys() & b.keys() if (a[p] + b[p]).is_zero)
    assert cancelled  # some sums cancel to zero, and no zero is stored


def _eval_oracle(unit, x):
    """x at T = unit by element arithmetic: sum c unit^e."""
    total = unit.ring.zero()
    for e, c in x.val:
        power = unit.ring.one()
        for _ in range(abs(e)):
            power = power * (unit if e >= 0 else unit.inverse())
        total = total + unit.ring.from_int(c) * power
    return total


def test_map_entries_equals_the_entrywise_oracle_under_every_rule():
    from scx.rings import RingMap, eval_t_at_one

    rng = random.Random(410)
    as_text = lambda target: (lambda x: parse_element(target, str(x)))  # noqa: E731
    maps = [
        (RingMap(RingMap.IDENTITY, Q, Q), lambda x: x),
        (RingMap(RingMap.MOD_P, Z, Zp(3)), as_text(Zp(3))),
        (RingMap(RingMap.Z_TO_Q, Z, Q), as_text(Q)),
        (RingMap(RingMap.LAURENT_TO_FRAC, LAURENT_Z, FRAC_LAURENT_Q), as_text(FRAC_LAURENT_Q)),
        (eval_t_at_one(), lambda x: _eval_oracle(Z.one(), x)),
        (RingMap(RingMap.EVAL_T, LAURENT_Z, Z, unit=Z.from_int(-1)),
         lambda x: _eval_oracle(Z.from_int(-1), x)),
        (RingMap(RingMap.EVAL_T, LAURENT_Z, Q, unit=Q.parse("2/3")),
         lambda x: _eval_oracle(Q.parse("2/3"), x)),
    ]
    vanished = 0
    for ring_map, oracle in maps:
        src_gens = [(f"g{i}", i % 2) for i in range(4)]
        tgt_gens = [(f"h{i}", i % 2) for i in range(3)]
        src, tgt = (GradedModule(ring_map.source, 2, g) for g in (src_gens, tgt_gens))
        new_src, new_tgt = (GradedModule(ring_map.target, 2, g) for g in (src_gens, tgt_gens))
        for _ in range(15):
            a, ma = _oracle_pair(ring_map.source, rng, src, tgt, 1)
            want = {k: oracle(x) for k, x in a.items()}
            vanished += sum(1 for x in want.values() if x.is_zero)
            got = ma.map_entries(ring_map.raw, new_src, new_tgt)
            _assert_matches(got, {k: x for k, x in want.items() if not x.is_zero})
            assert all(ring_map(x) == want[k] for k, x in a.items())
    assert vanished  # T -> 1 sends nonzero Laurent entries to zero
