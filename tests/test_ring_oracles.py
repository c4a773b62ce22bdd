"""Oracles between rings: theorems fix how homology over one ring relates
to homology over another, so the Smith form over Z and the echelon over a
field check each other on the same complex.

- Universal coefficients (Z against Z/p; Hatcher, Algebraic Topology,
  Thm 3A.3): for d of degree -1, dim H_k(C tensor Z/p) = free_k + t_p(k) +
  t_p(k - 1), where t_p(j) counts the torsion entries in degree j that p
  divides.
- Flat base change (Z against Q; Eisenbud, Commutative Algebra, ch. 6):
  Q is flat over Z, so free ranks agree, and an exact homology sequence
  over Z stays exact over Q; the converse fails when torsion is present.
- Specialization (Q(T) against Q at T = t0): a matrix's rank at a point is
  at most its rank over Q(T), and equal to it at all but finitely many
  points, so dim H_k(C_t0; Q) >= dim H_k(C; Q(T)).

The complexes over Z are drawn by `_rand_z_differential`, seeded here, so
`randgen`'s draws (which feed `scx selftest` and the bench digests) stay
as they are.
"""

import random

from scx.functors import dual, tensor
from scx.gradedlin import GradedMatrix, GradedModule, HomologyMaps, homology_of_pair
from scx.linkfam import torus_knot_summand, torus_link_complex
from scx.randgen import rand_morphism, rand_scomplex
from scx.rings import FRAC_LAURENT_Q, LAURENT_Z, Q, RingMap, Z, Zp
from scx.scomplex import SMorphism, base_change
from scx.triangles import ExactTriangleData, cone_triangle

Z_TO_Q = RingMap(RingMap.Z_TO_Q, Z, Q)


def _rand_z_differential(rng, modulus):
    """(d, t) for a seeded d of degree -1 over Z with d.d = 0, on 2 to 10
    generators with degrees mod `modulus`, and t the list of (degree,
    a) of its torsion pieces.

    d is a direct sum of free generators and pieces x -> a y, a in
    [-6, 6] and not 0, written in a basis changed by elementary moves
    e_j -> e_j + c e_i within one degree (d becomes E d E^-1, so d.d stays
    0 and the homology stays that of the sum: Z/|a| in the degree of y)."""
    n = rng.randint(2, 10)
    degs, pieces, torsion = [], [], []
    while len(degs) < n:
        k = rng.randrange(modulus)
        if len(degs) + 1 < n and rng.random() < 0.6:
            a = rng.choice([a for a in range(-6, 7) if a])
            pieces.append((len(degs), len(degs) + 1, a))
            torsion.append(((k - 1) % modulus, a))
            degs += [k, (k - 1) % modulus]
        else:
            degs.append(k)
    d = [[0] * n for _ in range(n)]
    for s, t, a in pieces:
        d[t][s] = a
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        if degs[i] == degs[j]:
            c = rng.choice((-2, -1, 1, 2))
            for col in range(n):  # E d: row i += c row j
                d[i][col] += c * d[j][col]
            for row in d:  # (E d) E^-1: column j -= c column i
                row[j] -= c * row[i]
    order = rng.sample(range(n), n)  # generator order k holds generator order[k]
    m = GradedModule(Z, modulus, [(f"g{k}", degs[order[k]]) for k in range(n)])
    ent = {(t, s): d[order[t]][order[s]] for t in range(n) for s in range(n)
           if d[order[t]][order[s]]}
    return GradedMatrix(m, m, -1, ent), torsion


def _z_differentials(seed, count):
    rng = random.Random(seed)
    return [_rand_z_differential(rng, (2, 4)[i % 2]) for i in range(count)]


def test_the_generator_gives_complexes_with_the_torsion_it_built():
    for d, torsion in _z_differentials(5, 100):
        assert (d @ d).is_zero
        h = homology_of_pair(d, d)
        for p in (2, 3, 5):
            for k in range(d.source.modulus):
                # one invariant factor divisible by p per p-primary summand
                assert sum(x % p == 0 for x in h.torsion(k)) \
                    == sum(j == k and a % p == 0 for j, a in torsion)


def test_universal_coefficients_between_z_and_z_mod_p():
    # the Smith diagonal over Z against the echelon's rank over Z/p
    compared = with_torsion = 0
    for d, _ in _z_differentials(2026, 400):
        hz = homology_of_pair(d, d)
        modulus = d.source.modulus
        for p in (2, 3, 5):
            dp = base_change(d, RingMap(RingMap.MOD_P, Z, Zp(p)))
            hp = homology_of_pair(dp, dp)
            for k in range(modulus):
                t_k = sum(x % p == 0 for x in hz.torsion(k))
                t_below = sum(x % p == 0 for x in hz.torsion(k - 1))
                assert hp.free_rank(k) == hz.free_rank(k) + t_k + t_below, (d, p, k)
                compared += 1
                with_torsion += bool(t_k + t_below)
    assert compared == 400 * 3 * 3 and with_torsion > 500


def _seeded_z_differentials():
    rng = random.Random(11)
    ds = [d for d, _ in _z_differentials(12, 100)]
    for _ in range(40):
        x = rand_scomplex(Z, rng)
        ds += [x.total_differential(), x.d, x.r]
    return ds


def test_flat_base_change_keeps_free_ranks_and_homology_maps_ranks():
    for d in _seeded_z_differentials():
        dq = base_change(d, Z_TO_Q)
        hz, hq = homology_of_pair(d, d), homology_of_pair(dq, dq)
        assert hz.ranks_by_degree() == hq.ranks_by_degree()
        assert HomologyMaps(d).rank == HomologyMaps(dq).rank == hz.total_rank


def _les_nodes(complexes, morphisms):
    """{check name: passed} of `les_check`, which reads only the complexes
    and the morphisms of a triangle."""
    return {name: ok for name, ok, _ in
            ExactTriangleData(complexes, morphisms, [None] * 3).les_check().checks}


def test_exactness_over_z_implies_exactness_over_q():
    # cone triangles are exact over every ring; with lam0 doubled the
    # sequence over Z can fail at a node where 2 kills no class over Q
    rng = random.Random(29)
    z_exact = z_only_over_q = 0
    two = Z.from_int(2)
    for _ in range(40):
        x = rand_scomplex(Z, rng, max_rank=5)
        t = cone_triangle(rand_morphism(x, x, rng))
        lam0 = SMorphism.from_assembled(t.morphisms[0].assemble().scale(two), x, x)
        for twisted, morphisms in enumerate((t.morphisms, [lam0, *t.morphisms[1:]])):
            over_z = _les_nodes(t.complexes, morphisms)
            assert twisted or all(over_z.values())
            cq = [c.base_change(Z_TO_Q) for c in t.complexes]
            mq = [SMorphism.from_assembled(base_change(f.assemble(), Z_TO_Q), cq[i], cq[i - 1])
                  for i, f in enumerate(morphisms)]
            over_q = _les_nodes(cq, mq)
            for node, ok in over_z.items():
                assert over_q[node] or not ok, node
                z_exact += ok
                z_only_over_q += over_q[node] and not ok
    assert z_exact > 500 and z_only_over_q > 0


def _laurent_complexes():
    """Documents over Z[T^{+-1}]: T(2,2a) (x) dual T(2,2b), T(2,3)^{(x)n}
    for n <= 3, and seeded complexes."""
    xs = [tensor(torus_link_complex(a), dual(torus_link_complex(b)))
          for a, b in ((1, 1), (1, 3), (2, 2), (3, 2), (2, 3))]
    trefoil = torus_knot_summand(2)
    x = trefoil
    for _ in range(3):
        xs.append(x)
        x = tensor(x, trefoil)
    rng = random.Random(53)
    xs += [rand_scomplex(LAURENT_Z, rng, max_rank=6) for _ in range(40)]
    return xs


def _free_ranks(x):
    return [homology_of_pair(d, d).ranks_by_degree()
            for d in (x.total_differential(), x.d, x.r)]


def test_specialization_never_lowers_homology_over_q_of_t():
    # T = 1 is left out: d vanishes there on T(2,3)^{(x)n}
    inc = RingMap(RingMap.LAURENT_TO_FRAC, LAURENT_Z, FRAC_LAURENT_Q)
    jumps = 0
    for x in _laurent_complexes():
        generic = _free_ranks(x.base_change(inc))
        equal_at = []
        for t0 in (2, -1, 3):
            at = _free_ranks(x.base_change(RingMap(RingMap.EVAL_T, LAURENT_Z, Q,
                                                   unit=Q.from_int(t0))))
            for gen, spec in zip(generic, at):
                assert all(spec.get(k, 0) >= f for k, f in gen.items()), (x, t0)
            equal_at.append(at == generic)
        assert any(equal_at), x
        jumps += not all(equal_at)
    assert jumps > 0
