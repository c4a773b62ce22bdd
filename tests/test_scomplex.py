import json
import random

import pytest

from scx.errors import MissingSMap, NotRPerfect, SchemaError
from scx.functors import atomic, direct_sum
from scx.gradedlin import GradedMatrix, GradedModule
from scx.linkfam import (
    hopf_complex,
    torus_knot_summand,
    torus_link_complex,
    unknot_complex,
)
from scx.randgen import rand_morphism, rand_scomplex
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
from scx.scomplex import (
    SComplex,
    SMorphism,
    s_map_discrepancy,
    scomplex_from_json,
    scomplex_to_json,
)


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
