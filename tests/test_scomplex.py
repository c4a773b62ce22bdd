import json
import random

import pytest

from scx.errors import MissingSMap, NotRPerfect, SchemaError, ShapeMismatch
from scx.functors import atomic, direct_sum
from scx.gradedlin import GradedMatrix, GradedModule
from scx.linkfam import (
    hopf_complex,
    torus_knot_summand,
    torus_link_complex,
    unknot_complex,
)
from scx.randgen import (
    RINGS,
    boundary_morphism,
    rand_homotopy_pair,
    rand_homotopy_shape,
    rand_morphism,
    rand_scomplex,
    rand_value,
)
from scx.rings import (
    FRAC_LAURENT_Q,
    LAURENT_Z,
    Q,
    RingElement,
    RingMap,
    Z,
    Zp,
    eval_t_at_one,
    parse_element,
)
from scx.heights import HeightMorphism, heights_equal
from scx.scomplex import (
    _SHAPE,
    RelationReport,
    SComplex,
    SHomotopy,
    SMorphism,
    _assemble,
    _block_shapes,
    _blocks,
    blocks_to_json,
    homotopy_from_json,
    s_map_discrepancy,
    scomplex_from_json,
    scomplex_to_json,
)
from scx.triangles import cone_triangle
from scx.solve import solve_homotopy


def test_torus_k4_passes():
    assert torus_link_complex(4).verify().ok


def test_broken_relation_four_detected():
    # d = v = 0 with delta2.delta1 != 0 breaks exactly relation four
    irr = GradedModule(Z, 2, [("a", 1), ("b", 0)])
    red = GradedModule(Z, 2, [("t", 0)])
    d1 = GradedMatrix.from_named(irr, red, -1, [("t", "a", Z.one())])
    d2 = GradedMatrix.from_named(red, irr, -2, [("b", "t", Z.one())])
    y = SComplex(irr, red, GradedMatrix.zero(irr, irr, -1),
                 GradedMatrix.zero(irr, irr, -2), d1, d2,
                 GradedMatrix.zero(red, red, -1))
    rep = y.verify()
    assert not rep.ok
    assert rep.failed() == ["d.v - v.d - delta2.delta1 = 0"]


def test_empty_irreducible_part_passes():
    u = unknot_complex()
    assert u.verify().ok and u.is_r_perfect


def test_identity_morphism_verifies():
    x = torus_link_complex(2)
    assert SMorphism.identity(x).verify().ok


def test_non_chain_map_fails_relation_one():
    x = atomic(1)
    lam = GradedMatrix(x.irr, x.irr, 0, {(0, 0): 1})
    f = SMorphism(x, x, 0, lam, GradedMatrix.zero(x.irr, x.irr, -1),
                  GradedMatrix.zero(x.irr, x.red, 0),
                  GradedMatrix.zero(x.red, x.irr, -1),
                  GradedMatrix.zero(x.red, x.red, 0))
    rep = f.verify()
    # lambda = partial identity with rho = 0 breaks the delta1 relation
    assert not rep.ok


def test_total_homology_examples():
    h = hopf_complex().base_change(eval_t_at_one())
    ranks = h.total_homology().ranks_by_degree()
    assert ranks == {0: 1, 2: 1}
    assert atomic(1).total_homology().total_rank == 1
    tre = torus_knot_summand(2).base_change(eval_t_at_one())
    assert tre.total_homology().total_rank == 3  # = det(trefoil)


def test_irreducible_and_reducible_homology():
    inc = RingMap(RingMap.LAURENT_TO_FRAC, LAURENT_Z, FRAC_LAURENT_Q)
    t8 = torus_link_complex(4).base_change(inc)
    h = t8.irreducible_homology()
    assert h.total_rank == 3
    assert all(d % 2 == 1 for d in h.ranks_by_degree())
    hopf = hopf_complex().base_change(eval_t_at_one())
    assert hopf.irreducible_homology().total_rank == 0
    assert hopf.reducible_homology().total_rank == 2  # r = 0: H(R) = R


def test_euler_characteristic_matches_generators():
    rng = random.Random(6)
    for _ in range(15):
        x = rand_scomplex(Q, rng, max_rank=5)
        h = x.irreducible_homology()
        assert h.euler() == x.irreducible_euler()


def test_induced_delta_maps_trefoil():
    inc = RingMap(RingMap.LAURENT_TO_FRAC, LAURENT_Z, FRAC_LAURENT_Q)
    tre = torus_knot_summand(2).base_change(inc)
    hm, d2_cols, d1_cols = tre.induced_delta_maps()
    assert hm.rank == 1
    # (delta1)_* sends the class of xi^1 to (T^2 - T^-2) theta
    coeff = parse_element(FRAC_LAURENT_Q, "T^2 - T^-2")
    assert d1_cols == [[coeff]]
    assert all(x.is_zero for col in d2_cols for x in col)
    trez = torus_knot_summand(2).base_change(eval_t_at_one())
    assert trez.delta_maps_zero()
    assert unknot_complex().base_change(eval_t_at_one()).delta_maps_zero()


def test_induced_deltas_compose_to_zero():
    rng = random.Random(8)
    for _ in range(10):
        x = rand_scomplex(Q, rng, max_rank=5, r_perfect=True, allow_cone=False)
        hm, d2_cols, d1_cols = x.induced_delta_maps()
        # (delta1)_* . (delta2)_* = 0 when delta1 delta2 = 0 (r-perfect)
        for j, col in enumerate(d2_cols):
            out = [Q.zero()] * x.red.rank
            for r, c in enumerate(col):
                for t in range(x.red.rank):
                    out[t] = out[t] + c * d1_cols[r][t]
            assert all(v.is_zero for v in out)


def test_induced_delta_maps_over_z_read_the_free_part_over_q():
    for ring in (Z, Q):
        x = direct_sum(atomic(1, ring, 4), atomic(1, ring, 4))
        hm, d2_cols, d1_cols = x.induced_delta_maps()
        assert hm.rank == 2
        assert not x.delta_maps_zero()


def test_induced_delta_maps_hold_elements_of_the_rings():
    # class coordinates lie in the homology field (Q for Z), values of
    # delta1 in the ring itself
    rng = random.Random(9)
    for ring in (Z, Q, Zp(2)):
        field = Q if ring == Z else ring
        coords = values = 0
        xs = [direct_sum(atomic(1, ring, 4), atomic(-1, ring, 4))]
        xs += [rand_scomplex(ring, rng, max_rank=5, r_perfect=True, allow_cone=False)
               for _ in range(8)]
        for x in xs:
            hm, d2_cols, d1_cols = x.induced_delta_maps()
            assert hm.field == field
            assert len(d2_cols) == x.red.rank and len(d1_cols) == hm.rank
            for col in d2_cols:
                assert len(col) == hm.rank
                assert all(type(e) is RingElement and e.ring == field for e in col)
                coords += sum(not e.is_zero for e in col)
            for col in d1_cols:
                assert len(col) == x.red.rank
                assert all(type(e) is RingElement and e.ring == ring for e in col)
                values += sum(not e.is_zero for e in col)
        assert coords and values, ring


def test_induced_deltas_need_r_zero():
    rng = random.Random(5)
    x = rand_scomplex(Q, rng, max_rank=4)
    from scx.functors import cone

    y = cone(rand_morphism(x, x, rng, 0))
    if not y.r.is_zero:
        with pytest.raises(NotRPerfect):
            y.induced_delta_maps()


def test_s_map_discrepancy():
    h = hopf_complex()
    ident = SMorphism.identity(h)
    combo, matches = s_map_discrepancy(ident)
    assert combo.is_zero and matches
    with pytest.raises(MissingSMap):
        s_map_discrepancy(SMorphism.identity(torus_link_complex(2)))


def test_metadata_is_read_only_and_a_copy():
    x = torus_link_complex(2)
    meta = {"name": "mine"}
    y = SComplex(x.irr, x.red, x.d, x.v, x.delta1, x.delta2, x.r, x.s, meta)
    with pytest.raises(TypeError):
        y.metadata["name"] = "other"
    with pytest.raises(TypeError):
        del x.metadata["name"]
    meta["name"] = "changed"
    assert y.metadata == {"name": "mine"}


def test_s_maps_are_immutable():
    # the assembled totals are cached, so no block may change under them
    rng = random.Random("immutable s-maps")
    x = rand_scomplex(Q, rng, max_rank=4)
    f = rand_morphism(x, x, rng, 0)
    g, h = rand_homotopy_pair(f, rng)
    totals = [x.total_differential(), f.assemble(), h.assemble()]
    for obj, name in ((x, "d"), (x, "metadata"), (x, "_total"), (f, "lam"), (f, "degree"),
                      (f, "_total"), (h, "K"), (h, "to"), (h, "_total")):
        with pytest.raises(AttributeError, match="immutable"):
            setattr(obj, name, getattr(obj, name))
    assert [x.total_differential(), f.assemble(), h.assemble()] == totals
    assert x.total_differential() is totals[0] and h.assemble() is totals[2]


def test_json_roundtrip_and_strictness():
    x = torus_link_complex(4)
    doc = scomplex_to_json(x)
    y = scomplex_from_json(json.loads(json.dumps(doc)))
    assert y.verify().ok and y.same_shape_as(x)
    assert y.metadata.get("gr_i", {}).get("xi1") == "1/8"
    doc2 = dict(doc)
    doc2["surprise"] = 1
    with pytest.raises(SchemaError):
        scomplex_from_json(doc2)
    doc3 = json.loads(json.dumps(doc))
    doc3["irreducible"][0]["mystery"] = True
    with pytest.raises(SchemaError):
        scomplex_from_json(doc3)


def test_degrees_reduced_mod_modulus_on_load():
    doc = {
        "ring": {"kind": "Z"},
        "modulus": 4,
        "irreducible": [{"name": "a", "degree": 7}],
        "reducible": [{"name": "t", "degree": -4}],
        "d": [], "v": [], "delta1": [], "delta2": [], "r": [],
    }
    x = scomplex_from_json(doc)
    assert x.irr.gens == (("a", 3),)
    assert x.red.gens == (("t", 0),)


def test_mod4_reduces_to_mod2():
    x = torus_link_complex(3)
    y = x.reduce_mod2()
    assert y.modulus == 2 and y.verify().ok
    assert y.base_change(eval_t_at_one()).irreducible_homology().modulus == 2


# ---------------------------------------------------------------------------
# Test oracle: the relations, composite, identity, zeros and random
# boundaries of S-maps written out block by block.  scomplex and randgen read
# every one of them from products of assembled total maps instead; these
# per-block formulas are the independent second route they are checked
# against.


def _rel(name, m):
    return (name, m.is_zero, m.first_nonzero())


def _oracle_complex_report(x):
    return RelationReport([
        _rel("d.d = 0", x.d @ x.d),
        _rel("delta1.d + r.delta1 = 0", x.delta1 @ x.d + x.r @ x.delta1),
        _rel("d.delta2 - delta2.r = 0", x.d @ x.delta2 - x.delta2 @ x.r),
        _rel("d.v - v.d - delta2.delta1 = 0", x.d @ x.v - x.v @ x.d - x.delta2 @ x.delta1),
        _rel("r.r = 0", x.r @ x.r),
    ])


def _oracle_morphism_report(f):
    X, Y = f.source, f.target
    return RelationReport([
        _rel("d'.lambda - lambda.d = 0", Y.d @ f.lam - f.lam @ X.d),
        _rel("Delta1.d + rho.delta1 - delta1'.lambda - r'.Delta1 = 0",
             f.delta1 @ X.d + f.rho @ X.delta1 - Y.delta1 @ f.lam - Y.r @ f.delta1),
        _rel("d'.Delta2 - delta2'.rho + lambda.delta2 + Delta2.r = 0",
             Y.d @ f.delta2 - Y.delta2 @ f.rho + f.lam @ X.delta2 + f.delta2 @ X.r),
        _rel("mu.d + d'.mu + lambda.v - v'.lambda + Delta2.delta1 - delta2'.Delta1 = 0",
             f.mu @ X.d + Y.d @ f.mu + f.lam @ X.v - Y.v @ f.lam
             + f.delta2 @ X.delta1 - Y.delta2 @ f.delta1),
        _rel("rho.r - r'.rho = 0", f.rho @ X.r - Y.r @ f.rho),
    ])


def _boundary_blocks(x, y, K, L, M1, M2, J):
    """The blocks (lambda, mu, Delta1, Delta2, rho) of d'H + Hd."""
    return (y.d @ K + K @ x.d,
            y.v @ K - y.d @ L + y.delta2 @ M1 + L @ x.d - K @ x.v + M2 @ x.delta1,
            y.delta1 @ K + y.r @ M1 + M1 @ x.d + J @ x.delta1,
            -(y.d @ M2) + y.delta2 @ J - K @ x.delta2 + M2 @ x.r,
            y.r @ J + J @ x.r)


def _oracle_homotopy_report(h):
    X, Y, a, b = h.frm.source, h.frm.target, h.frm, h.to
    lam, mu, d1, d2, rho = _boundary_blocks(X, Y, h.K, h.L, h.M1, h.M2, h.J)
    return RelationReport([
        _rel("d'.K + K.d - lambda + lambda' = 0", lam - a.lam + b.lam),
        _rel("delta1'.K + r'.M1 + M1.d + J.delta1 - Delta1 + Delta1' = 0",
             d1 - a.delta1 + b.delta1),
        _rel("-d'.M2 + delta2'.J - K.delta2 + M2.r - Delta2 + Delta2' = 0",
             d2 - a.delta2 + b.delta2),
        _rel("v'.K - d'.L + delta2'.M1 + L.d - K.v + M2.delta1 - mu + mu' = 0",
             mu - a.mu + b.mu),
        _rel("r'.J + J.r - rho + rho' = 0", rho - a.rho + b.rho),
    ])


def _oracle_compose(g, f):
    return SMorphism(f.source, g.target, g.degree + f.degree,
                     g.lam @ f.lam,
                     g.lam @ f.mu + g.mu @ f.lam + g.delta2 @ f.delta1,
                     g.delta1 @ f.lam + g.rho @ f.delta1,
                     g.lam @ f.delta2 + g.delta2 @ f.rho,
                     g.rho @ f.rho)


def _oracle_identity(x):
    return SMorphism(x, x, 0,
                     GradedMatrix.identity(x.irr), GradedMatrix.zero(x.irr, x.irr, -1),
                     GradedMatrix.zero(x.irr, x.red, 0), GradedMatrix.zero(x.red, x.irr, -1),
                     GradedMatrix.identity(x.red))


def _oracle_zero(x, y, degree):
    return SMorphism(x, y, degree,
                     GradedMatrix.zero(x.irr, y.irr, degree),
                     GradedMatrix.zero(x.irr, y.irr, degree - 1),
                     GradedMatrix.zero(x.irr, y.red, degree),
                     GradedMatrix.zero(x.red, y.irr, degree - 1),
                     GradedMatrix.zero(x.red, y.red, degree))


def _oracle_homotopy_zero(frm, to):
    X, Y, k = frm.source, frm.target, frm.degree
    return SHomotopy(frm, to,
                     GradedMatrix.zero(X.irr, Y.irr, k + 1), GradedMatrix.zero(X.irr, Y.irr, k),
                     GradedMatrix.zero(X.irr, Y.red, k + 1), GradedMatrix.zero(X.red, Y.irr, k),
                     GradedMatrix.zero(X.red, Y.red, k + 1))


def _oracle_boundary_morphism(x, y, rng, degree=0):
    blocks = rand_homotopy_shape(x, y, rng, degree)
    return (SMorphism(x, y, degree, *_boundary_blocks(x, y, *blocks)),
            _assemble_oracle(x, y, degree + 1, -1, *blocks))


def _oracle_rand_morphism(x, y, rng, degree=0):
    f, _ = _oracle_boundary_morphism(x, y, rng, degree)
    if x is y and degree % x.modulus == 0 and rng.random() < 0.7:
        c = x.ring.from_int(rng.choice([1, -1, 2]))
        ident = _oracle_identity(x)
        f = f + SMorphism(x, x, 0, ident.lam.scale(c), ident.mu, ident.delta1,
                          ident.delta2, ident.rho.scale(c))
    return f


def _oracle_homotopy_pair(f, rng):
    x, y = f.source, f.target
    blocks = rand_homotopy_shape(x, y, rng, f.degree)
    lam, mu, d1, d2, rho = _boundary_blocks(x, y, *blocks)
    g = SMorphism(x, y, f.degree, f.lam - lam, f.mu - mu, f.delta1 - d1,
                  f.delta2 - d2, f.rho - rho)
    return g, SHomotopy(f, g, *blocks)


# ---------------------------------------------------------------------------


def _parts(obj):
    """The five blocks of a complex, morphism or homotopy, with the degree."""
    if isinstance(obj, SComplex):
        return [obj.d, obj.v, obj.delta1, obj.delta2, obj.r]
    if isinstance(obj, SMorphism):
        return [obj.degree, obj.lam, obj.mu, obj.delta1, obj.delta2, obj.rho]
    return [obj.K, obj.L, obj.M1, obj.M2, obj.J]


def _same(a, b):
    """Equal entry for entry, at equal degrees and endpoints: two matrices,
    degrees, S-maps or tuples of them."""
    if isinstance(a, GradedMatrix):
        assert (a.source, a.target, a.degree, a.entries) == (
            b.source, b.target, b.degree, b.entries)
    elif isinstance(a, int):
        assert a == b
    elif isinstance(a, tuple):
        for m, n in zip(a, b, strict=True):
            _same(m, n)
    else:
        _same(tuple(_parts(a)), tuple(_parts(b)))


def _residual(obj):
    """The assembled relation: D.D, D'.F - F.D or D'.H + H.D - (F - G)."""
    if isinstance(obj, SComplex):
        dt = obj.total_differential()
        return dt @ dt
    if isinstance(obj, SMorphism):
        f = obj.assemble()
        return obj.target.total_differential() @ f - f @ obj.source.total_differential()
    h = obj.assemble()
    x, y = obj.frm.source, obj.frm.target
    return (y.total_differential() @ h + h @ x.total_differential()
            - (obj.frm - obj.to).assemble())


def _twin(rng):
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


def _perturbed(obj, rng):
    """obj with one random block (or all five) plus a random block of the
    same shape, so that relations break."""
    if isinstance(obj, SComplex):
        extra = rand_homotopy_shape(obj, obj, rng, -2)
    elif isinstance(obj, SMorphism):
        extra = rand_homotopy_shape(obj.source, obj.target, rng, obj.degree - 1)
    else:
        extra = rand_homotopy_shape(obj.frm.source, obj.frm.target, rng, obj.frm.degree)
    blocks = _parts(obj)[-5:]
    which = range(5) if rng.random() < 0.2 else [rng.randrange(5)]
    for i in which:
        blocks[i] = blocks[i] + extra[i]
    if isinstance(obj, SComplex):
        return SComplex(obj.irr, obj.red, *blocks)
    if isinstance(obj, SMorphism):
        return SMorphism(obj.source, obj.target, obj.degree, *blocks)
    return SHomotopy(obj.frm, obj.to, *blocks)


_ORACLE_REPORT = {SComplex: _oracle_complex_report, SMorphism: _oracle_morphism_report,
                  SHomotopy: _oracle_homotopy_report}


_ROUNDS = 60


@pytest.mark.parametrize("tag", ["Z", "Z2", "Q", "QT"])
def test_assembled_block_algebra_matches_the_per_block_oracle(tag):
    ring = RINGS[tag]
    rng = random.Random(f"block algebra {tag}")
    reports = failing = built = 0

    def check(obj):
        nonlocal reports, failing
        got, want = obj.verify(), _ORACLE_REPORT[type(obj)](obj)
        assert repr(got) == repr(want)
        assert got.ok == _residual(obj).is_zero
        reports += 1
        failing += not got.ok

    def build(make, oracle):
        """make(rng) against oracle(a copy of rng): equal results and draws."""
        nonlocal built
        twin = _twin(rng)
        got, want = make(rng), oracle(twin)
        assert rng.getstate() == twin.getstate()
        _same(got, want)
        built += 1
        return got

    for _ in range(_ROUNDS):
        x = rand_scomplex(ring, rng, max_rank=5)
        y = x if rng.random() < 0.4 else rand_scomplex(ring, rng, modulus=x.modulus, max_rank=5)
        degree = rng.choice((0, 1, -1, 2))
        for obj in (x, y, _perturbed(x, rng), _perturbed(y, rng)):
            check(obj)
        build(lambda r: boundary_morphism(x, y, r), lambda r: _oracle_boundary_morphism(x, y, r))
        build(lambda r: rand_morphism(x, x, r), lambda r: _oracle_rand_morphism(x, x, r))
        f, _ = build(lambda r: boundary_morphism(x, y, r, degree),
                     lambda r: _oracle_boundary_morphism(x, y, r, degree))
        g, h = build(lambda r: rand_homotopy_pair(f, r), lambda r: _oracle_homotopy_pair(f, r))
        for obj in (f, g, h, _perturbed(f, rng), _perturbed(h, rng),
                    SHomotopy(f, rand_morphism(x, y, rng, degree),
                              *rand_homotopy_shape(x, y, rng, degree))):
            check(obj)
        # composites of morphism-shaped data that need not be chain maps
        z = rand_scomplex(ring, rng, modulus=x.modulus, max_rank=5)
        first = _perturbed(f, rng)
        second = _perturbed(SMorphism.zero(y, z, rng.choice((0, 1, -1))), rng)
        _same(second.compose_after(first), _oracle_compose(second, first))
        _same(SMorphism.identity(x), _oracle_identity(x))
        _same(SMorphism.zero(x, y, degree), _oracle_zero(x, y, degree))
        _same(SHomotopy.zero(f, g), _oracle_homotopy_zero(f, g))
        built += 4
    assert reports == _ROUNDS * 10 and 0 < failing < reports
    assert built == _ROUNDS * 8


def _bare(ring, modulus, irr_gens, red_gens):
    """The complex with these generators and every map zero."""
    irr = GradedModule(ring, modulus, irr_gens)
    red = GradedModule(ring, modulus, red_gens)
    return SComplex(irr, red, GradedMatrix.zero(irr, irr, -1), GradedMatrix.zero(irr, irr, -2),
                    GradedMatrix.zero(irr, red, -1), GradedMatrix.zero(red, irr, -2),
                    GradedMatrix.zero(red, red, -1))


def test_blocks_undo_assemble():
    rng = random.Random("blocks undo assemble")
    gens = [("a", 0), ("b", 1), ("c", 2), ("e", 3)]
    for tag in ("Z", "QT"):
        ring = RINGS[tag]
        xs = [_bare(ring, 4, gens[:2], []), _bare(ring, 4, [], gens[1:]),
              _bare(ring, 4, gens, gens[:3]), _bare(ring, 4, [], [])]
        xs += [rand_scomplex(ring, rng, modulus=4, max_rank=6) for _ in range(4)]
        for x in xs:
            for y in xs:
                for s in (1, -1):
                    k = rng.choice((0, 1, 2, 3))
                    parts = rand_homotopy_shape(x, y, rng, k - 1, density=0.8)
                    m = _assemble(x, y, k, s, parts)
                    for got, want in zip(_blocks(m, x, y), parts, strict=True):
                        assert (got.source, got.target, got.entries) == (
                            want.source, want.target, want.entries)
                        assert got.degree == want.degree


@pytest.mark.parametrize("tag", ["Z", "Z2", "Q", "QT"])
def test_s_maps_made_from_totals_are_split_only_when_a_block_is_read(tag, monkeypatch):
    # zero maps, identities, composites, sums, negations, from_assembled and
    # solved homotopies each store one total and place no block; the first
    # block read splits it once, and the blocks equal the per-block oracles'
    import scx.scomplex

    ring = RINGS[tag]
    rng = random.Random(f"views {tag}")
    inputs = []
    for _ in range(8):
        x = rand_scomplex(ring, rng, max_rank=6)
        y = x if rng.random() < 0.5 else rand_scomplex(ring, rng, modulus=x.modulus, max_rank=6)
        k = rng.choice((0, 1, -1, 2))
        f, f2 = rand_morphism(x, y, rng, k), rand_morphism(x, y, rng, k)
        g = rand_morphism(y, y, rng)
        to, _ = rand_homotopy_pair(f, rng)
        parts = rand_homotopy_shape(x, y, rng, k - 1, density=0.8)
        hparts = rand_homotopy_shape(x, y, rng, k, density=0.8)
        x.total_differential(), y.total_differential()
        inputs.append((x, y, k, f, f2, g, to, parts, _assemble_oracle(x, y, k, 1, *parts),
                       hparts, _assemble_oracle(x, y, k + 1, -1, *hparts)))

    def refused(*args):
        raise AssertionError("an S-map made from totals was split or placed")

    monkeypatch.setattr(scx.scomplex, "_blocks", refused)
    monkeypatch.setattr(scx.scomplex, "_assemble", refused)
    made = []  # (S-map, its total's degree, a thunk for its oracle)
    for x, y, k, f, f2, g, to, parts, m, hparts, hm in inputs:
        made += [
            (SMorphism.zero(x, y, k), k, lambda x=x, y=y, k=k: _oracle_zero(x, y, k)),
            (SMorphism.identity(x), 0, lambda x=x: _oracle_identity(x)),
            (g.compose_after(f), k, lambda f=f, g=g: _oracle_compose(g, f)),
            (f + f2, k, lambda f=f, f2=f2: SMorphism(
                f.source, f.target, f.degree,
                *(a + b for a, b in zip(_parts(f)[1:], _parts(f2)[1:])))),
            (-f, k, lambda f=f: SMorphism(f.source, f.target, f.degree,
                                          *(-a for a in _parts(f)[1:]))),
            (SMorphism.from_assembled(m, x, y), k,
             lambda x=x, y=y, k=k, p=parts: SMorphism(x, y, k, *p)),
            (SHomotopy.zero(f, f), k + 1, lambda f=f: _oracle_homotopy_zero(f, f)),
            (SHomotopy.from_assembled(hm, f, f), k + 1, lambda f=f, p=hparts: SHomotopy(f, f, *p)),
            (solve_homotopy(f, to), k + 1, None),
        ]
    for obj, degree, _ in made:
        total = obj.assemble()
        x, y = obj.source, obj.target
        assert (total.source, total.target, total.degree) == (
            x.total_module(), y.total_module(), degree % x.modulus)
        assert obj.is_zero == (not total.entries)
        assert not set(obj._NAMES) & set(vars(obj))
    monkeypatch.undo()
    # every kind but the two zero maps has a nonzero instance
    nonzero = [any(not obj.is_zero for obj, _, _ in made[i::9]) for i in range(9)]
    assert nonzero == [False, True, True, True, True, True, False, True, True]
    for obj, degree, oracle in made:
        first = [getattr(obj, name) for name in obj._NAMES]
        assert [getattr(obj, name) for name in obj._NAMES] == first  # split once, kept
        assert all(a is b for a, b in zip(first, (vars(obj)[name] for name in obj._NAMES)))
        if oracle is None:  # the solved homotopy: its blocks verify and place back its total
            assert _oracle_homotopy_report(obj).ok
            x, y = obj.source, obj.target
            _same(_assemble_oracle(x, y, degree, -1, *first), obj.assemble())
        else:
            _same(obj, oracle())
            _same(obj.assemble(), oracle().assemble())


@pytest.mark.parametrize("tag", ["Z", "QT"])
def test_a_sum_of_morphisms_of_different_degrees_is_refused(tag):
    # a zero summand's total has no entry to carry its degree, so the sum
    # checks the degrees itself
    ring = RINGS[tag]
    rng = random.Random(f"sum degrees {tag}")
    for modulus in (2, 4):
        x = rand_scomplex(ring, rng, modulus=modulus, max_rank=5)
        y = rand_scomplex(ring, rng, modulus=modulus, max_rank=5)
        f = rand_morphism(x, y, rng, 1)
        zero0, zero1 = SMorphism.zero(x, y, 0), SMorphism.zero(x, y, 1)
        for a, b in ((zero0, f), (f, zero0), (zero0, zero1), (rand_morphism(x, y, rng, 0), f)):
            for op in (lambda a, b: a + b, lambda a, b: a - b):
                with pytest.raises(ShapeMismatch, match="different degrees"):
                    op(a, b)
        for a, b in ((zero1, f), (f, zero1), (f, f)):
            assert (a + b).degree == (a - b).degree == 1
            _same((a + b).assemble(), a.assemble() + b.assemble())


def _assemble_oracle(x, y, degree, s, a, b, e, c, g):
    """Test oracle for `_assemble`: the blocks of [[a,0,0],[b,s.a,c],[e,0,g]]
    at offsets written out here, placed by the checked
    `GradedMatrix.from_blocks`, which re-checks every entry's range and
    degree."""
    nc, mc = x.irr.rank, y.irr.rank
    return GradedMatrix.from_blocks(
        x.total_module(), y.total_module(), degree,
        (a, 0, 0), (b, mc, 0), (a if s == 1 else -a, mc, nc), (c, mc, 2 * nc),
        (e, 2 * mc, 0), (g, 2 * mc, 2 * nc))


@pytest.mark.parametrize("tag", ["Z", "Z2", "Q", "QT"])
def test_assemble_equals_the_checked_from_blocks_route(tag):
    ring = RINGS[tag]
    rng = random.Random(f"assemble oracle {tag}")
    nonzero = [False] * 7  # differentials, morphisms, homotopy, both signs
    for _ in range(12):
        x = rand_scomplex(ring, rng, max_rank=5)
        y = rand_scomplex(ring, rng, modulus=x.modulus, max_rank=5)
        k = rng.choice((0, 1, -1, 2))
        f = rand_morphism(x, y, rng, k)
        g, h = rand_homotopy_pair(f, rng)
        pairs = [(x.total_differential(), _assemble_oracle(x, x, -1, -1, *_parts(x))),
                 (y.total_differential(), _assemble_oracle(y, y, -1, -1, *_parts(y)))]
        pairs += [(m.assemble(), _assemble_oracle(x, y, k, 1, *_parts(m)[1:])) for m in (f, g)]
        pairs.append((h.assemble(), _assemble_oracle(x, y, k + 1, -1, *_parts(h))))
        for s in (1, -1):
            parts = rand_homotopy_shape(x, y, rng, k - 1, density=0.8)
            pairs.append((_assemble(x, y, k, s, parts), _assemble_oracle(x, y, k, s, *parts)))
        for i, (got, want) in enumerate(pairs):
            _same(got, want)
            nonzero[i] = nonzero[i] or not got.is_zero
    assert all(nonzero)


@pytest.mark.parametrize("tag", ["Z", "Z2", "Q", "QT"])
def test_from_assembled_keeps_its_map_as_the_total(tag):
    # every caller hands over a full-shape map (sA = A), so the map it is
    # given is the morphism's assembled total, equal to the blocks placed anew
    ring = RINGS[tag]
    rng = random.Random(f"from assembled {tag}")
    for _ in range(8):
        x = rand_scomplex(ring, rng, max_rank=5)
        y = rand_scomplex(ring, rng, modulus=x.modulus, max_rank=5)
        k = rng.choice((0, 1, -1, 2))
        f, g = rand_morphism(x, y, rng, k), rand_morphism(y, y, rng, 0)
        maps = [(GradedMatrix.identity(x.total_module()), x, x),
                (GradedMatrix.zero(x.total_module(), y.total_module(), k), x, y),
                (f.assemble(), x, y), (g.assemble() @ f.assemble(), x, y)]
        for m, src, tgt in maps:
            h = SMorphism.from_assembled(m, src, tgt)
            assert h.assemble() is m
            _same(m, _assemble(src, tgt, h.degree, 1, _parts(h)[1:]))
        for h in (SMorphism.identity(x), SMorphism.zero(x, y, k), g.compose_after(f), f):
            _same(h.assemble(), _assemble(h.source, h.target, h.degree, 1, _parts(h)[1:]))


# ---------------------------------------------------------------------------
# The block table `_SHAPE`: the endpoints, degrees, placement, split, checks
# and document keys of the differential, the morphisms and the homotopies
# are all read from it.

# the paper's shape, written out here: [[d,0,0],[v,-d,delta2],[delta1,0,r]]
# places d, v, delta1, delta2 and r from C to C, C to C[-1], C to R, R to
# C[-1] and R to R, at the total degree -1 plus (0, -1, 0, -1, 0)
_PAPER_SHAPE = {"A": ("C", "C", 0), "B": ("C", "C[-1]", -1), "E": ("C", "R", 0),
                "C": ("R", "C[-1]", -1), "G": ("R", "R", 0)}


def test_the_table_is_the_papers_block_shape_in_constructor_order():
    bands = ("C", "C[-1]", "R")
    assert {b: (bands[src], bands[tgt], off) for b, (src, tgt, off) in _SHAPE.items()} == (
        _PAPER_SHAPE)
    assert list(_SHAPE) == list(_PAPER_SHAPE)


@pytest.mark.parametrize("tag", ["Z", "Z2", "Q", "QT"])
def test_split_blocks_have_the_table_endpoints_and_degrees(tag):
    ring = RINGS[tag]
    rng = random.Random(f"block table {tag}")
    nonzero = [False] * 3
    for _ in range(10):
        x = rand_scomplex(ring, rng, max_rank=5)
        y = rand_scomplex(ring, rng, modulus=x.modulus, max_rank=5)
        f = rand_morphism(x, y, rng, rng.choice((0, 1, 2, 3)))
        _, h = rand_homotopy_pair(f, rng)
        maps = [(x, x, -1, -1, _parts(x)), (x, y, f.degree, 1, _parts(f)[1:]),
                (x, y, f.degree + 1, -1, _parts(h))]
        for i, (src, tgt, k, sign, parts) in enumerate(maps):
            total = _assemble(src, tgt, k, sign, parts)
            _same(total, _assemble_oracle(src, tgt, k, sign, *parts))
            nonzero[i] = nonzero[i] or not total.is_zero
            for (s_band, t_band, off), block, given in zip(
                    _SHAPE.values(), _blocks(total, src, tgt), parts, strict=True):
                assert block.source == (src.red if s_band == 2 else src.irr)
                assert block.target == (tgt.red if t_band == 2 else tgt.irr)
                assert block.degree == (k + off) % x.modulus
                assert block.entries == given.entries
    assert all(nonzero)


@pytest.mark.parametrize("tag", ["Z", "Z2", "Q", "QT"])
def test_homotopy_documents_round_trip_and_a_left_out_key_is_zero(tag):
    ring = RINGS[tag]
    rng = random.Random(f"homotopy documents {tag}")
    nonzero = set()
    for _ in range(12):
        x = rand_scomplex(ring, rng, max_rank=5)
        y = rand_scomplex(ring, rng, modulus=x.modulus, max_rank=5)
        f = rand_morphism(x, y, rng, rng.choice((0, 1, 2, 3)))
        g, h = rand_homotopy_pair(f, rng)
        doc = json.loads(json.dumps(blocks_to_json(h, by_name=False)))
        assert list(doc) == ["K", "L", "M1", "M2", "J"]
        back = homotopy_from_json(doc, f, g)
        _same(back, h)
        _same(back.assemble(), h.assemble())
        assert back.verify().ok
        for key in doc:
            part = homotopy_from_json({k: v for k, v in doc.items() if k != key}, f, g)
            for name, got, want in zip(SHomotopy._NAMES, _parts(part), _parts(h), strict=True):
                assert got.entries == ({} if name == key else want.entries)
            if doc[key]:
                nonzero.add(key)
    assert nonzero == set(SHomotopy._NAMES)


# the refusals of homotopy 0 of the cone triangle of the identity of
# T(2,4) (C = xi1 in degree 1, R = theta+-; the cone has A.xi1 in degree 2,
# B.xi1 in 1, A.theta+- in 1 and B.theta+- in 0): (document, error, text)
_BAD_HOMOTOPIES = [
    ({"K": [["B.xi1", "xi1", "1"]]}, ShapeMismatch,
     "inhomogeneous entry at (B.xi1,xi1): 1 - 1 != 1 mod 4"),
    ({"L": [["A.xi1", "xi1", "1"]]}, ShapeMismatch,
     "inhomogeneous entry at (A.xi1,xi1): 2 - 1 != 0 mod 4"),
    ({"M1": [["A.theta+", "xi1", "1"]]}, ShapeMismatch,
     "inhomogeneous entry at (A.theta+,xi1): 1 - 1 != 1 mod 4"),
    ({"M2": [["A.xi1", "theta+", "1"]]}, ShapeMismatch,
     "inhomogeneous entry at (A.xi1,theta+): 2 - 0 != 0 mod 4"),
    ({"J": [["B.theta+", "theta+", "1"]]}, ShapeMismatch,
     "inhomogeneous entry at (B.theta+,theta+): 0 - 0 != 1 mod 4"),
    ({"M1": [["B.xi1", "xi1", "1"]]}, SchemaError, "unknown target generator 'B.xi1'"),
    ({"K": "x"}, SchemaError, "matrix entries must be a list"),
    ({"Q": []}, SchemaError, "unknown homotopy keys ['Q']"),
    ([1], SchemaError, "a homotopy must be an object"),
]


@pytest.mark.parametrize("bad, error, text", _BAD_HOMOTOPIES)
def test_homotopy_documents_refuse_a_block_of_the_wrong_shape(bad, error, text):
    h = cone_triangle(SMorphism.identity(torus_link_complex(2))).homotopies[0]
    doc = dict(blocks_to_json(h, by_name=False), **bad) if isinstance(bad, dict) else bad
    with pytest.raises(error) as info:
        homotopy_from_json(doc, h.frm, h.to)
    assert str(info.value) == text
    assert homotopy_from_json(dict(blocks_to_json(h), K=[["A.xi1", "xi1", "1"]]),
                              h.frm, h.to).K.entries == {(0, 0): LAURENT_Z.domain.one}


def test_constructors_name_the_block_of_the_wrong_shape():
    x = torus_link_complex(2)
    one = x.ring.domain.one
    ci, cr, ident = GradedMatrix.identity(x.irr), GradedMatrix.identity(x.red), SMorphism.identity(x)
    mu0, d10 = GradedMatrix.zero(x.irr, x.irr, -1), GradedMatrix.zero(x.irr, x.red, 0)
    cases = [
        (lambda: SComplex(x.irr, x.red, v=ci), "component v must have degree -2 mod 4"),
        (lambda: SComplex(x.irr, x.red, delta1=GradedMatrix.zero(x.red, x.irr, -1)),
         "component delta1 has wrong endpoints"),
        (lambda: SComplex(x.irr, x.red, s=cr), "component s must have degree -2 mod 4"),
        (lambda: SMorphism(x, x, 0, mu=ci), "component mu must have degree -1 mod 4"),
        (lambda: SMorphism(x, x, 2, delta1=ci), "component Delta1 has wrong endpoints"),
        (lambda: SHomotopy(ident, ident, K=ci), "component K must have degree 1 mod 4"),
        (lambda: SHomotopy(ident, ident, J=ci), "component J has wrong endpoints"),
        (lambda: HeightMorphism(x, x, 0, ci, mu0, d10, GradedMatrix(x.red, x.irr, 1, {(0, 0): one}),
                                {}, 0), "component Delta2 must have degree -1 mod 4"),
        (lambda: HeightMorphism(x, x, 0, cr, mu0, d10, GradedMatrix.zero(x.red, x.irr, -1), {}, 0),
         "component lambda has wrong endpoints"),
    ]
    for build, text in cases:
        with pytest.raises(ShapeMismatch) as info:
            build()
        assert str(info.value) == text


# ---------------------------------------------------------------------------
# The piece form: a block handed to a constructor as a list of (matrix, row,
# column) pieces is placed at the block's table shape, as
# `GradedMatrix.from_blocks` places it at that source, target and degree.


def _pieces(m, rng):
    """m cut at a random row and column into four (matrix, row, column)
    pieces, each a matrix between the generators it covers."""
    rows, cols = rng.randint(0, m.target.rank), rng.randint(0, m.source.rank)
    pieces = []
    for r0, r1 in ((0, rows), (rows, m.target.rank)):
        for c0, c1 in ((0, cols), (cols, m.source.rank)):
            src = GradedModule(m.ring, m.source.modulus, m.source.gens[c0:c1])
            tgt = GradedModule(m.ring, m.target.modulus, m.target.gens[r0:r1])
            pieces.append((GradedMatrix(src, tgt, m.degree, {
                (t - r0, s - c0): val for (t, s), val in m.entries.items()
                if r0 <= t < r1 and c0 <= s < c1}), r0, c0))
    return pieces


def _rand_s(x, rng):
    """A random map R -> R of degree -2, an s-map for x."""
    red = x.red
    return GradedMatrix(red, red, -2, {
        (t, s): rand_value(x.ring, rng) for t in range(red.rank) for s in range(red.rank)
        if (red.degree(t) - red.degree(s) + 2) % x.modulus == 0 and rng.random() < 0.7})


def _placed_like(got, want, pieces):
    """got is the block want, and what `from_blocks` makes of the pieces at
    want's source, target and degree."""
    _same(got, want)
    _same(got, GradedMatrix.from_blocks(want.source, want.target, want.degree, *pieces))


@pytest.mark.parametrize("tag", ["Z", "Z2", "Q", "QT"])
def test_a_piece_list_gives_the_block_that_from_blocks_gives(tag):
    ring = RINGS[tag]
    rng = random.Random(f"pieces {tag}")
    nonzero = set()
    for _ in range(10):
        x = rand_scomplex(ring, rng, max_rank=5, r_perfect=True, allow_cone=False)
        y = rand_scomplex(ring, rng, modulus=x.modulus, max_rank=5, r_perfect=True,
                          allow_cone=False)
        k = rng.choice((0, 2))  # even, for the height datum
        f = rand_morphism(x, y, rng, k)
        _, h = rand_homotopy_pair(f, rng)
        blocks = [*_parts(x), _rand_s(x, rng)]
        cut = [_pieces(m, rng) for m in blocks]
        c = SComplex(x.irr, x.red, *cut, x.metadata)
        for got, want, pieces in zip([*_parts(c), c.s], blocks, cut, strict=True):
            _placed_like(got, want, pieces)
        blocks = _parts(f)[1:]
        cut = [_pieces(m, rng) for m in blocks]
        g = SMorphism(x, y, k, *cut)
        for got, want, pieces in zip(_parts(g)[1:], blocks, cut, strict=True):
            _placed_like(got, want, pieces)
        _same(g.assemble(), f.assemble())
        cut = [_pieces(m, rng) for m in _parts(h)]
        hp = SHomotopy(h.frm, h.to, *cut)
        for got, want, pieces in zip(_parts(hp), _parts(h), cut, strict=True):
            _placed_like(got, want, pieces)
        _same(hp.assemble(), h.assemble())
        blocks = _parts(f)[1:5]
        cut = [_pieces(m, rng) for m in blocks]
        tau = {0: f.rho} if f.rho.entries else {}
        got = HeightMorphism.from_components(x, y, k, *cut, tau)
        want = HeightMorphism.from_components(x, y, k, *blocks, tau)
        assert heights_equal(got, want) and got.height == want.height
        for m, b, pieces in zip((got.lam, got.mu, got.delta1, got.delta2), blocks, cut):
            _placed_like(m, b, pieces)
        nonzero |= {name for name, ms in (
            ("complex", _parts(c)), ("s", [c.s]), ("morphism", _parts(g)[1:]),
            ("homotopy", _parts(hp)), ("height", [got.lam, got.mu, got.delta1, got.delta2]))
            if any(m.entries for m in ms)}
    assert nonzero == {"complex", "s", "morphism", "homotopy", "height"}


@pytest.mark.parametrize("tag", ["Z", "Z2", "Q", "QT"])
def test_a_piece_out_of_range_or_of_the_wrong_degree_is_refused(tag):
    # C = a (degree 1), b (0); R = t (0), u (2); every block zero
    ring = RINGS[tag]
    irr = GradedModule(ring, 4, [("a", 1), ("b", 0)])
    red = GradedModule(ring, 4, [("t", 0), ("u", 2)])
    x = SComplex(irr, red)
    ident = SMorphism.identity(x)
    ci, cr = GradedMatrix.identity(irr), GradedMatrix.identity(red)
    cases = [  # (build, the pieces, their shape, the refusal)
        (lambda p: SComplex(irr, red, d=p), [(ci, 0, 0)], (irr, irr, -1),
         "inhomogeneous entry at (a,a): 1 - 1 != 3 mod 4"),
        (lambda p: SComplex(irr, red, d=p), [(ci, 2, 0)], (irr, irr, -1),
         "entry (2,0) out of range"),
        (lambda p: SComplex(irr, red, s=p), [(cr, 0, 0)], (red, red, -2),
         "inhomogeneous entry at (t,t): 0 - 0 != 2 mod 4"),
        (lambda p: SComplex(irr, red, s=p), [(cr, 0, 1)], (red, red, -2),
         "entry (1,2) out of range"),
        (lambda p: SMorphism(x, x, 0, mu=p), [(ci, 0, 0)], (irr, irr, -1),
         "inhomogeneous entry at (a,a): 1 - 1 != 3 mod 4"),
        (lambda p: SMorphism(x, x, 0, rho=p), [(cr, 2, 0)], (red, red, 0),
         "entry (2,0) out of range"),
        (lambda p: SHomotopy(ident, ident, K=p), [(ci, 0, 0)], (irr, irr, 1),
         "inhomogeneous entry at (a,a): 1 - 1 != 1 mod 4"),
        (lambda p: SHomotopy(ident, ident, J=p), [(cr, 0, 2)], (red, red, 1),
         "entry (0,2) out of range"),
        (lambda p: HeightMorphism.from_components(x, x, 0, delta2=p), [(cr, 0, 0)],
         (red, irr, -1), "inhomogeneous entry at (a,t): 1 - 0 != 3 mod 4"),
        (lambda p: HeightMorphism.from_components(x, x, 0, p), [(ci, 0, 2)], (irr, irr, 0),
         "entry (0,2) out of range"),
    ]
    for build, pieces, shape, text in cases:
        with pytest.raises(ShapeMismatch) as info:
            GradedMatrix.from_blocks(*shape, *pieces)
        assert str(info.value) == text
        with pytest.raises(ShapeMismatch) as info:
            build(pieces)
        assert str(info.value) == text


@pytest.mark.parametrize("tag", ["Z", "Z2", "Q", "QT"])
def test_a_block_left_out_of_from_components_is_zero(tag):
    ring = RINGS[tag]
    rng = random.Random(f"left out {tag}")
    for _ in range(6):
        x = rand_scomplex(ring, rng, max_rank=5, r_perfect=True, allow_cone=False)
        y = rand_scomplex(ring, rng, modulus=x.modulus, max_rank=5, r_perfect=True,
                          allow_cone=False)
        k = rng.choice((0, 2))
        f = rand_morphism(x, y, rng, k)
        blocks = _parts(f)[1:5]
        tau = {0: f.rho} if f.rho.entries else {}
        for i in range(4):
            zeros = [GradedMatrix.zero(b.source, b.target, b.degree) if j == i else b
                     for j, b in enumerate(blocks)]
            got = HeightMorphism.from_components(
                x, y, k, *[None if j == i else b for j, b in enumerate(blocks)], tau)
            want = HeightMorphism.from_components(x, y, k, *zeros, tau)
            assert heights_equal(got, want) and got.height == want.height
            _same((got.lam, got.mu, got.delta1, got.delta2), tuple(zeros))
        bare = HeightMorphism.from_components(x, y, k)
        _same((bare.lam, bare.mu, bare.delta1, bare.delta2),
              tuple(GradedMatrix.zero(b.source, b.target, b.degree) for b in blocks))
        assert not bare.tau and bare.height == HeightMorphism.from_morphism(
            SMorphism.zero(x, y, k)).height


# ---------------------------------------------------------------------------
# One placement path: the S-map constructors place every block, matrix or
# pieces, in one pass straight into the stored total, each piece entry
# checked where it lands, against its block's bands.


def _two_band_complex(ring):
    """C = a (degree 1), b (0); R = t (0), u (2); every block zero.  Its
    total module is a, b | a, b shifted | t, u: rows 4 and 5 are R's."""
    irr = GradedModule(ring, 4, [("a", 1), ("b", 0)])
    red = GradedModule(ring, 4, [("t", 0), ("u", 2)])
    return SComplex(irr, red)


@pytest.mark.parametrize("tag", ["Z", "Z2", "Q", "QT"])
def test_a_piece_spilling_into_the_next_band_is_refused(tag):
    # mu (B: C -> C[-1], degree -1) with a piece placed one row down: its
    # entry lands on block row 2, past C's two rows.  In the total that is
    # row 2 + 2 = 4, R's t, and the position (t, b) has total degree 0 - 0 =
    # 0, so a check against the total alone would let it through
    ring = RINGS[tag]
    x = _two_band_complex(ring)
    one = ring.domain.one
    pm = GradedModule(ring, 4, [("p", 0), ("q", 0)])
    piece = GradedMatrix(pm, pm, 0, {(1, 1): one})
    GradedMatrix(x.total_module(), x.total_module(), 0, {(4, 1): one})  # fine in the total
    ident = SMorphism.identity(x)
    for build in (lambda p: SMorphism(x, x, 0, mu=p), lambda p: SHomotopy(ident, ident, L=p)):
        with pytest.raises(ShapeMismatch) as info:
            build([(piece, 1, 0)])
        assert str(info.value) == "entry (2,1) out of range"
    # placed in range, the same piece is refused by its degree instead
    with pytest.raises(ShapeMismatch) as info:
        SMorphism(x, x, 0, mu=[(piece, 0, 0)])
    assert str(info.value) == "inhomogeneous entry at (b,b): 0 - 0 != 3 mod 4"


@pytest.mark.parametrize("tag", ["Z", "Z2", "Q", "QT"])
def test_refusals_follow_the_block_order_not_the_row_bands(tag):
    # Delta1 (E, row band 2) comes before Delta2 (C, row band 1) in the
    # constructor's order, and so does its refusal; one bad block alone is
    # refused with its own text
    ring = RINGS[tag]
    x = _two_band_complex(ring)
    ci, cr = GradedMatrix.identity(x.irr), GradedMatrix.identity(x.red)
    p = GradedModule(ring, 4, [("p", 0)])
    one = GradedMatrix.identity(p)
    bad_e = [(one, 1, 1)]  # Delta1: C -> R of degree 0, at (u, b): 2 - 0
    bad_c = [(one, 2, 0)]  # Delta2: R -> C[-1], row 2 of a rank-2 block
    cases = [({"delta1": bad_e, "delta2": bad_c}, "inhomogeneous entry at (u,b): 2 - 0 != 0 mod 4"),
             ({"delta2": bad_c}, "entry (2,0) out of range"),
             ({"delta2": bad_c, "mu": ci}, "component mu must have degree -1 mod 4"),
             ({"rho": cr, "delta2": [(cr, 0, 0)]}, "inhomogeneous entry at (a,t): 1 - 0 != 3 mod 4")]
    for blocks, text in cases:
        with pytest.raises(ShapeMismatch) as info:
            SMorphism(x, x, 0, **blocks)
        assert str(info.value) == text


@pytest.mark.parametrize("tag", ["Z", "Z2", "Q", "QT"])
def test_overlapping_pieces_add_and_cancelling_pieces_leave_no_entry(tag):
    ring = RINGS[tag]
    rng = random.Random(f"overlap {tag}")
    nonzero = [0, 0]
    for _ in range(8):
        x = rand_scomplex(ring, rng, max_rank=5)
        y = x if rng.random() < 0.5 else rand_scomplex(ring, rng, modulus=x.modulus, max_rank=5)
        k = rng.choice((0, 1, 2, 3))
        f, g = rand_morphism(x, y, rng, k), rand_morphism(x, y, rng, k)
        # each block handed as two pieces, f's and g's, adds to f + g
        both = SMorphism(x, y, k, *([(a, 0, 0), (b, 0, 0)] for a, b in
                                    zip(_parts(f)[1:], _parts(g)[1:])))
        _same(both.assemble(), (f + g).assemble())
        _same(both, f + g)
        # f's blocks and their negations cancel: no entry is left, sA included
        gone = SMorphism(x, y, k, *([(a, 0, 0), (-a, 0, 0)] for a in _parts(f)[1:]))
        assert gone.assemble().entries == {} and gone.is_zero
        assert all(m.entries == {} for m in _parts(gone)[1:])
        _, h = rand_homotopy_pair(f, rng)
        halves = SHomotopy(h.frm, h.to, *([(a, 0, 0), (a, 0, 0), (-a, 0, 0)] for a in _parts(h)))
        _same(halves.assemble(), h.assemble())
        nonzero[0] += not f.is_zero
        nonzero[1] += not h.is_zero
    assert all(nonzero)


@pytest.mark.parametrize("tag", ["Z", "Z2", "Q", "QT"])
def test_matrix_blocks_are_kept_and_piece_blocks_are_split_once(tag, monkeypatch):
    from scx import scomplex

    ring = RINGS[tag]
    rng = random.Random(f"kept {tag}")
    split = []
    monkeypatch.setattr(scomplex, "_blocks", lambda m, *ends: split.append(m) or _blocks(m, *ends))
    for _ in range(6):
        x = rand_scomplex(ring, rng, max_rank=5)
        f = rand_morphism(x, x, rng, rng.choice((0, 1)))
        blocks = _parts(f)[1:]
        split.clear()
        kept = SMorphism(x, x, f.degree, *blocks)
        assert all(getattr(kept, n) is b for n, b in zip(kept._NAMES, blocks)) and not split
        cut = SMorphism(x, x, f.degree, *(_pieces(m, rng) for m in blocks))
        assert not split
        _same(cut, f)
        _same(cut, f)
        assert split == [cut.assemble()]


@pytest.mark.parametrize("tag", ["Z", "Z2", "Q", "QT"])
def test_reduce_mod2_equals_the_checked_route(tag):
    # the blocks move to modulus 2 unchecked; the checked constructor,
    # block by block, gives the same complex
    ring = RINGS[tag]
    rng = random.Random(f"mod 2 {tag}")
    moved = 0
    for _ in range(12):
        x = rand_scomplex(ring, rng, modulus=4, max_rank=6)
        if rng.random() < 0.5:
            x = SComplex(x.irr, x.red, *_parts(x), _rand_s(x, rng), x.metadata)
        got = x.reduce_mod2()
        irr, red = x.irr.reduce_mod2(), x.red.reduce_mod2()
        shapes = _block_shapes((irr, red), (irr, red), -1)
        want = SComplex(irr, red, *(GradedMatrix(*shape, dict(b.entries))
                                    for shape, b in zip(shapes, _parts(x))),
                        None if x.s is None else GradedMatrix(red, red, -2, dict(x.s.entries)),
                        x.metadata)
        assert got.modulus == 2 and got.metadata == x.metadata
        _same(tuple(_parts(got)), tuple(_parts(want)))
        assert (got.s is None) == (x.s is None)
        if x.s is not None:
            _same(got.s, want.s)
        assert got.verify().ok == want.verify().ok
        moved += any(b.entries for b in _parts(x))
    assert moved
