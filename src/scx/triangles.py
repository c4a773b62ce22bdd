"""Exact-triangle data for S-complexes: axiom verification, induced long
exact sequences, the one-sided suspension homologies I+/I-, and the skein
case classifier."""

from __future__ import annotations

from .errors import (
    ImpossibleCase,
    NotRPerfect,
    ShapeMismatch,
    UnsupportedRing,
)
from .gradedlin import (
    GradedMatrix,
    GradedModule,
    exactness_at,
    field_is_invertible,
    homology_of_pair,
    place_block,
    snf_diagonal,
)
from .rings import Z
from .scomplex import RelationReport, SHomotopy, SMorphism


class ExactTriangleData:
    """Three complexes C0, C1, C2; morphisms lam[i]: C_i -> C_{i-1} with
    lam[1] of degree -1 and the others of degree 0; homotopies hom[i] from 0
    to lam[i-1].lam[i]; and chi-commuting maps n_maps[i] witnessing that

        d N - N d + lam_{i-2} K_i - K_{i-1} lam_i

    is an isomorphism.  n_maps entries are morphism-shaped block maps of
    degree 1 (SMorphism instances whose chain relations are NOT required).
    """

    def __init__(self, complexes, morphisms, homotopies, n_maps=None):
        if len(complexes) != 3 or len(morphisms) != 3 or len(homotopies) != 3:
            raise ShapeMismatch("a triangle needs three of each")
        self.complexes = list(complexes)
        self.morphisms = list(morphisms)
        self.homotopies = list(homotopies)
        if n_maps is None:
            n_maps = [None, None, None]
        self.n_maps = list(n_maps)

    def iso_expression(self, i):
        """The assembled map d N - N d + lam_{i-2} K_i - K_{i-1} lam_i."""
        ci = self.complexes[i]
        d = ci.total_differential()
        lam_im2 = self.morphisms[(i - 2) % 3].assemble()
        lam_i = self.morphisms[i].assemble()
        k_i = self.homotopies[i].assemble()
        k_im1 = self.homotopies[(i - 1) % 3].assemble()
        expr = lam_im2 @ k_i - k_im1 @ lam_i
        n = self.n_maps[i]
        if n is not None:
            nm = n.assemble()
            expr = expr + d @ nm - nm @ d
        return expr

    def verify(self):
        checks = []
        for i in range(3):
            for name, ok, off in self.complexes[i].verify().checks:
                checks.append((f"C{i}: {name}", ok, off))
        degs = [0, -1, 0]
        for i in range(3):
            f = self.morphisms[i]
            mod = f.source.modulus
            ok = f.degree == degs[i] % mod
            checks.append((f"lambda{i} degree {degs[i]}", ok, None))
            for name, rok, off in f.verify().checks:
                checks.append((f"lambda{i}: {name}", rok, off))
        for i in range(3):
            h = self.homotopies[i]
            comp = self.morphisms[(i - 1) % 3].compose_after(self.morphisms[i])
            # h must run from the zero morphism to lam_{i-1} lam_i
            frm_zero = all(m.is_zero for m in (h.frm.lam, h.frm.mu, h.frm.delta1,
                                               h.frm.delta2, h.frm.rho))
            to_match = (h.to.lam == comp.lam and h.to.mu == comp.mu
                        and h.to.delta1 == comp.delta1 and h.to.delta2 == comp.delta2
                        and h.to.rho == comp.rho)
            checks.append((f"K{i} endpoints (0 -> lambda.lambda)", frm_zero and to_match, None))
            for name, rok, off in h.verify().checks:
                checks.append((f"K{i}: {name}", rok, off))
        for i in range(3):
            expr = self.iso_expression(i)
            checks.append((f"N{i} expression invertible", _is_iso(expr), None))
        return RelationReport(checks)

    def les_check(self):
        """Exactness of the induced total, irreducible, and reducible
        triangles at every node (over Z or a field)."""
        checks = []
        tot_d = [c.total_differential() for c in self.complexes]
        tot_l = [f.assemble() for f in self.morphisms]
        irr_d = [c.d for c in self.complexes]
        irr_l = [f.lam for f in self.morphisms]
        red_d = [c.r for c in self.complexes]
        red_l = [f.rho for f in self.morphisms]
        for label, ds, ls in (("total", tot_d, tot_l),
                              ("irreducible", irr_d, irr_l),
                              ("reducible", red_d, red_l)):
            for i in range(3):
                # node C_{i-1}: incoming lam_i, outgoing lam_{i-1}
                f = ls[i]
                g = ls[(i - 1) % 3]
                ok = exactness_at(ds[i], f, g, ds[(i - 2) % 3], ds[(i - 1) % 3])
                checks.append((f"{label} exactness at C{(i - 1) % 3}", ok, None))
        return RelationReport(checks)


def _is_iso(m):
    if m.source.rank != m.target.rank:
        return False
    ring = m.ring
    if ring == Z:
        if m.source.rank == 0:
            return True
        diag = snf_diagonal(m.to_int_rows())
        return len(diag) == m.source.rank and all(x == 1 for x in diag)
    if ring.is_field:
        return field_is_invertible(m.to_dense(), ring)
    raise UnsupportedRing("isomorphism check needs Z or field coefficients")


def triangle_to_json(t):
    """Bundle: three inline complexes, three morphism blocks, three homotopy
    blocks, and optional N-map blocks."""
    from .scomplex import morphism_to_json, scomplex_to_json

    def hom_doc(h):
        def m(mm):
            return [[mm.target.name(a), mm.source.name(b), str(v)]
                    for (a, b), v in sorted(mm.entries.items())]

        return {"K": m(h.K), "L": m(h.L), "M1": m(h.M1), "M2": m(h.M2), "J": m(h.J)}

    return {
        "complexes": [scomplex_to_json(c) for c in t.complexes],
        "morphisms": [morphism_to_json(f, include_complexes=False)
                      for f in t.morphisms],
        "homotopies": [hom_doc(h) for h in t.homotopies],
        "n_maps": [None if n is None else morphism_to_json(n, include_complexes=False)
                   for n in t.n_maps],
    }


def verify_triangle(t):
    return t.verify()


def les_check(t):
    return t.les_check()


# ---------------------------------------------------------------------------
# The standard cone triangle of a degree-0 morphism, with closed-form
# witnesses (checked against the brute-force linear-solve oracle in tests).


def cone_triangle(f):
    """(C0, C1, C2) = (X, Cone(f), X') with lam0 = f, lam2 = inclusion,
    lam1 = sign-twisted projection; all witnesses explicit, N maps zero."""
    from .functors import cone as make_cone

    if f.degree % f.source.modulus != 0:
        raise ShapeMismatch("cone triangles take a degree-0 morphism")
    x, y = f.source, f.target
    cn = make_cone(f)
    ring = x.ring
    one = ring.one()
    nc, nr = x.irr.rank, x.red.rank
    mc, mr = y.irr.rank, y.red.rank

    def sgn(deg):
        return one if deg % 2 == 0 else -one

    # lam2: X' -> Cone, inclusion of the B-blocks.
    lam2 = SMorphism(
        y, cn, 0,
        GradedMatrix(y.irr, cn.irr, 0, {(nc + i, i): one for i in range(mc)}),
        GradedMatrix.zero(y.irr, cn.irr, -1),
        GradedMatrix.zero(y.irr, cn.red, 0),
        GradedMatrix.zero(y.red, cn.irr, -1),
        GradedMatrix(y.red, cn.red, 0, {(nr + j, j): one for j in range(mr)}),
    )
    # lam1: Cone -> X, projection to the A-blocks with the parity sign.
    lam1 = SMorphism(
        cn, x, -1,
        GradedMatrix(cn.irr, x.irr, -1,
                     {(i, i): sgn(x.irr.degree(i)) for i in range(nc)}),
        GradedMatrix.zero(cn.irr, x.irr, -2),
        GradedMatrix.zero(cn.irr, x.red, -1),
        GradedMatrix.zero(cn.red, x.irr, -2),
        GradedMatrix(cn.red, x.red, -1,
                     {(j, j): sgn(x.red.degree(j)) for j in range(nr)}),
    )
    lam0 = f

    def zero_like(a, b, deg):
        return SMorphism.zero(a, b, deg)

    # K0: X -> Cone, x |-> (-x, 0).
    k0 = SHomotopy(
        zero_like(x, cn, 0), lam2.compose_after(lam0),
        GradedMatrix(x.irr, cn.irr, 1, {(i, i): -one for i in range(nc)}),
        GradedMatrix.zero(x.irr, cn.irr, 0),
        GradedMatrix.zero(x.irr, cn.red, 1),
        GradedMatrix.zero(x.red, cn.irr, 0),
        GradedMatrix(x.red, cn.red, 1, {(j, j): -one for j in range(nr)}),
    )
    # K1: Cone -> X', (x, y) |-> -eps(y).
    k1 = SHomotopy(
        zero_like(cn, y, -1), lam0.compose_after(lam1),
        GradedMatrix(cn.irr, y.irr, 0,
                     {(i, nc + i): -sgn(y.irr.degree(i)) for i in range(mc)}),
        GradedMatrix.zero(cn.irr, y.irr, -1),
        GradedMatrix.zero(cn.irr, y.red, 0),
        GradedMatrix.zero(cn.red, y.irr, -1),
        GradedMatrix(cn.red, y.red, 0,
                     {(j, nr + j): -sgn(y.red.degree(j)) for j in range(mr)}),
    )
    # K2 = 0 (lam1 . lam2 = 0 on the nose).
    k2 = SHomotopy.zero(zero_like(y, x, -1), lam1.compose_after(lam2))
    return ExactTriangleData([x, cn, y], [lam0, lam1, lam2], [k0, k1, k2],
                             [None, None, None])


def sum_triangle(x, y):
    """The degenerate direct-sum triangle: the cone triangle of 0: X -> Y."""
    return cone_triangle(SMorphism.zero(x, y, 0))


# ---------------------------------------------------------------------------
# The one-sided homologies I+ and I-.


def _mod2_module(ring, gens):
    return GradedModule(ring, 2, gens)


def i_plus(x):
    """H of (C + R(1), [[d, delta2],[0, 0]]) with Z/2 gradings; isomorphic to
    the irreducible homology of the suspension."""
    if not x.r.is_zero:
        raise NotRPerfect("I+ needs r = 0")
    ring = x.ring
    gens = [(f"c.{n}", d % 2) for n, d in x.irr.gens]
    gens += [(f"q.{n}", (d + 1) % 2) for n, d in x.red.gens]
    mod = _mod2_module(ring, gens)
    nc = x.irr.rank
    ent = {}
    place_block(ent, x.d, 0, 0)
    place_block(ent, x.delta2, 0, nc)
    dm = GradedMatrix(mod, mod, 1, {k: v for k, v in ent.items() if not v.is_zero})
    return homology_of_pair(dm, dm)


def i_minus(x):
    """H of (C + R(0), [[d, 0],[delta1, 0]]) with Z/2 gradings; isomorphic to
    the irreducible homology of the negative suspension."""
    if not x.r.is_zero:
        raise NotRPerfect("I- needs r = 0")
    ring = x.ring
    gens = [(f"c.{n}", d % 2) for n, d in x.irr.gens]
    gens += [(f"q.{n}", d % 2) for n, d in x.red.gens]
    mod = _mod2_module(ring, gens)
    nc = x.irr.rank
    ent = {}
    place_block(ent, x.d, 0, 0)
    place_block(ent, x.delta1, nc, 0)
    dm = GradedMatrix(mod, mod, 1, {k: v for k, v in ent.items() if not v.is_zero})
    return homology_of_pair(dm, dm)


# ---------------------------------------------------------------------------
# Skein case bookkeeping.


class SkeinCase:
    """The case and delta attached to the signs (eps(L,L'), eps(L'',L))."""

    TABLE = {(1, 1): ("I", 0), (-1, 1): ("II", -1), (1, -1): ("III", 1)}

    def __init__(self, eps1, eps2):
        if eps1 not in (1, -1) or eps2 not in (1, -1):
            raise ImpossibleCase("eps values must be +1 or -1")
        if (eps1, eps2) == (-1, -1):
            raise ImpossibleCase("the sign pattern (-1, -1) cannot occur")
        self.eps1 = eps1
        self.eps2 = eps2
        self.case, self.delta = self.TABLE[(eps1, eps2)]

    @property
    def suspension_placement(self):
        """Which vertex is suspended: Case II suspends C' by +1, Case III
        suspends C'' by -1, Case I suspends nothing."""
        if self.case == "II":
            return ("Lp", 1)
        if self.case == "III":
            return ("Lpp", -1)
        return (None, 0)

    def __repr__(self):
        return f"SkeinCase({self.case}, delta={self.delta})"


def classify_skein(eps1, eps2):
    return SkeinCase(eps1, eps2)


def rank_bound_from_triangle(rank_a, rank_b, reducible_offset=0):
    """Interval for the third vertex rank in an exact triangle whose other
    two vertices have the given ranks; `reducible_offset` accounts for the
    2^{|L|-1} reducible generators added by a suspension (Cases II/III)."""
    if rank_a < 0 or rank_b < 0 or reducible_offset < 0:
        raise ShapeMismatch("ranks must be nonnegative")
    high = rank_a + rank_b + reducible_offset
    low = max(0, abs(rank_a - rank_b) - reducible_offset)
    return (low, high)
