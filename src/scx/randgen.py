"""Seeded random instances for the property suites.

Complexes are built from honest atoms (split differentials with disjointly
supported delta maps, so all five relations hold by construction) combined
through the verified functors; morphisms come from the boundary trick
c*1 + d'K + Kd, which produces a chain map of the required block shape for
any homotopy-shaped data K.
"""

from __future__ import annotations

from .functors import atomic, cone, direct_sum, dual, suspend_once, tensor
from .gradedlin import GradedMatrix, GradedModule
from .rings import FRAC_LAURENT_Q, LAU_ONE, Q, Ring, Z, Zp
from .scomplex import SComplex, SHomotopy, SMorphism, _assemble, _block_shapes

RINGS = {
    "Z": Z,
    "Z2": Zp(2),
    "Q": Q,
    "QT": FRAC_LAURENT_Q,
}


def rand_value(ring, rng):
    """A small nonzero random raw value of `ring`: +-1 or +-2, times T^e for
    e in [-2, 2] half the time over Z[T^{+-1}] and Q(T)."""
    c = rng.choice((-2, -1, 1, 2))
    if ring.kind in (Ring.LAURENT, Ring.FRAC) and rng.random() < 0.5:
        mono = ((rng.randint(-2, 2), c),)
        return mono if ring.kind == Ring.LAURENT else (mono, LAU_ONE)
    return ring.domain.from_int(c)


def _rand_split_atom(ring, rng, modulus, r_perfect):
    """C = P + Q with d: P -> Q, v: P -> Q, delta1 on P, delta2 into Q,
    delta1 and delta2 touching disjoint reducible generators."""
    np_ = rng.randint(0, 2)
    nq = rng.randint(0, 2)
    nr = rng.randint(1, 2)
    deg_step = modulus
    p_gens = [(f"p{i}", rng.randrange(0, deg_step)) for i in range(np_)]
    q_gens = [(f"q{i}", 0) for i in range(nq)]
    r_degs = [0, 2] if modulus == 4 else [0]
    r_gens = [(f"t{i}", rng.choice(r_degs) if r_perfect else rng.randrange(0, modulus))
              for i in range(nr)]
    irr = GradedModule(ring, modulus, p_gens + q_gens)
    red = GradedModule(ring, modulus, r_gens)
    mod = modulus

    def fill(src_idx, tgt_idx, degree, density=0.7):
        ent = {}
        for s in src_idx:
            for t in tgt_idx:
                if (irr.degree(t) - irr.degree(s) - degree) % mod == 0 and rng.random() < density:
                    x = rand_value(ring, rng)
                    ent[(t, s)] = x
        return ent

    p_idx = list(range(np_))
    q_idx = list(range(np_, np_ + nq))
    d = GradedMatrix(irr, irr, -1, fill(p_idx, q_idx, -1))
    v = GradedMatrix(irr, irr, -2, fill(p_idx, q_idx, -2))
    split = rng.randint(0, nr)
    d1_ent = {}
    for s in p_idx:
        for t in range(split):
            if (red.degree(t) - irr.degree(s) + 1) % mod == 0 and rng.random() < 0.7:
                d1_ent[(t, s)] = rand_value(ring, rng)
    d1 = GradedMatrix(irr, red, -1, d1_ent)
    d2_ent = {}
    for s in range(split, nr):
        for t in q_idx:
            if (irr.degree(t) - red.degree(s) + 2) % mod == 0 and rng.random() < 0.7:
                d2_ent[(t, s)] = rand_value(ring, rng)
    d2 = GradedMatrix(red, irr, -2, d2_ent)
    return SComplex(irr, red, d, v, d1, d2)


def rand_scomplex(ring, rng, modulus=None, max_rank=6, r_perfect=False, allow_cone=True):
    """A random verified S-complex of bounded total rank."""
    if modulus is None:
        modulus = rng.choice((2, 4))
    x = _rand_split_atom(ring, rng, modulus, r_perfect)
    for _ in range(rng.randint(0, 2)):
        total = x.irr.rank * 2 + x.red.rank
        if total > max_rank:
            break
        op = rng.random()
        if op < 0.25:
            x = suspend_once(x) if (r_perfect or rng.random() < 0.5) else dual(x)
            if r_perfect and not x.is_r_perfect:
                x = dual(x)
        elif op < 0.45:
            x = tensor(x, atomic(rng.choice((-1, 0, 1)), ring, modulus))
        elif op < 0.7:
            x = direct_sum(x, atomic(rng.choice((0, 1)), ring, modulus))
        elif allow_cone and not r_perfect and op < 0.85:
            x = cone(rand_morphism(x, x, rng))
        if r_perfect and not x.is_r_perfect:
            break
    if r_perfect and not x.is_r_perfect:
        return _rand_split_atom(ring, rng, modulus, True)
    return x


def rand_homotopy_shape(x, y, rng, degree, density=0.4):
    """Random homotopy-shaped data (K, L, M1, M2, J) of the given degree,
    drawn block by block in that order."""
    mod = x.modulus

    def fill(src, tgt, deg):
        ent = {}
        for s in range(src.rank):
            for t in range(tgt.rank):
                if (tgt.degree(t) - src.degree(s) - deg) % mod == 0 and rng.random() < density:
                    ent[(t, s)] = rand_value(x.ring, rng)
        return GradedMatrix(src, tgt, deg, ent)

    return [fill(*shape) for shape in _block_shapes((x.irr, x.red), (y.irr, y.red), degree + 1)]


def boundary_morphism(x, y, rng, degree=0):
    """(the chain map d'H + Hd, H) for H the total [[K,0,0],[L,-K,M2],[M1,0,J]]
    of random homotopy-shaped blocks K, L, M1, M2, J of the given degree."""
    h = _assemble(x, y, degree + 1, -1, rand_homotopy_shape(x, y, rng, degree))
    dh = y.total_differential() @ h + h @ x.total_differential()
    return SMorphism.from_assembled(dh, x, y), h


def rand_morphism(x, y, rng, degree=0):
    """A random morphism x -> y: a boundary, plus c*identity when x is y."""
    f, _ = boundary_morphism(x, y, rng, degree)
    if x is y and degree % x.modulus == 0 and rng.random() < 0.7:
        c = x.ring.from_int(rng.choice([1, -1, 2]))
        f = f + SMorphism.from_assembled(GradedMatrix.identity(x.total_module()).scale(c), x, x)
    return f


def rand_homotopy_pair(f, rng):
    """(g, h) with h a verified homotopy from f to g."""
    b, h = boundary_morphism(f.source, f.target, rng, f.degree)
    g = f - b
    return g, SHomotopy.from_assembled(h, f, g)


def rand_height_morphism(ring, rng, height, modulus=None):
    """A random height-n morphism for n in {-1, 0, 1}, built from the
    iota/kappa models composed with random height-0 morphisms."""
    from .heights import HeightMorphism, compose_heights, iota, kappa

    x = rand_scomplex(ring, rng, modulus=modulus, max_rank=5, r_perfect=True,
                      allow_cone=False)
    base = rand_morphism(x, x, rng, 0)
    h0 = HeightMorphism.from_morphism(base)
    if height == 0:
        return h0
    if height == 1:
        return compose_heights(iota(x, 1), h0)
    if height == -1:
        sx = suspend_once(x)
        up = rand_morphism(sx, sx, rng, 0)
        return compose_heights(kappa(x, 1), HeightMorphism.from_morphism(up))
    raise ValueError("height must be -1, 0, or 1")
