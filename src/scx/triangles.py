"""Exact-triangle data for S-complexes: axiom verification, induced long
exact sequences, the one-sided suspension homologies I+/I-, and the skein
case classifier."""

from __future__ import annotations

from .errors import (
    ImpossibleCase,
    NotRPerfect,
    ShapeMismatch,
)
from .functors import _signs, cone, desuspend_once, suspend_once
from .gradedlin import GradedMatrix, exactness_at, is_invertible
from .scomplex import (
    RelationReport,
    SHomotopy,
    SMorphism,
    blocks_to_json,
    morphism_to_json,
    scomplex_to_json,
)


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
        tot = [f.assemble() for f in self.morphisms]
        for i in range(3):
            h = self.homotopies[i]
            # h must run from the zero morphism to lam_{i-1} lam_i
            ends = h.frm.is_zero and h.to.assemble() == tot[(i - 1) % 3] @ tot[i]
            checks.append((f"K{i} endpoints (0 -> lambda.lambda)", ends, None))
            for name, rok, off in h.verify().checks:
                checks.append((f"K{i}: {name}", rok, off))
        for i in range(3):
            expr = self.iso_expression(i)
            checks.append((f"N{i} expression invertible", is_invertible(expr), None))
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


def triangle_to_json(t):
    """Bundle: three inline complexes, three morphism blocks, three homotopy
    blocks, and optional N-map blocks."""
    return {
        "complexes": [scomplex_to_json(c) for c in t.complexes],
        "morphisms": [morphism_to_json(f, include_complexes=False)
                      for f in t.morphisms],
        "homotopies": [blocks_to_json(h, by_name=False) for h in t.homotopies],
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
    if f.degree % f.source.modulus != 0:
        raise ShapeMismatch("cone triangles take a degree-0 morphism")
    x, y = f.source, f.target
    cn = cone(f)
    nc, nr = x.irr.rank, x.red.rank

    # lam2: X' -> Cone, inclusion of the B-blocks.
    lam2 = SMorphism(y, cn, 0, [(GradedMatrix.identity(y.irr), nc, 0)],
                     rho=[(GradedMatrix.identity(y.red), nr, 0)])
    # lam1: Cone -> X, projection to the A-blocks with the parity sign.
    lam1 = SMorphism(cn, x, -1, [(_signs(x.irr), 0, 0)], rho=[(_signs(x.red), 0, 0)])
    lam0 = f

    # K0: X -> Cone, x |-> (-x, 0).
    k0 = SHomotopy(SMorphism.zero(x, cn, 0), lam2.compose_after(lam0),
                   [(-GradedMatrix.identity(x.irr), 0, 0)],
                   J=[(-GradedMatrix.identity(x.red), 0, 0)])
    # K1: Cone -> X', (x, y) |-> -eps(y).
    k1 = SHomotopy(SMorphism.zero(cn, y, -1), lam0.compose_after(lam1),
                   [(-_signs(y.irr), 0, nc)], J=[(-_signs(y.red), 0, nr)])
    # K2 = 0 (lam1 . lam2 = 0 on the nose).
    k2 = SHomotopy.zero(SMorphism.zero(y, x, -1), lam1.compose_after(lam2))
    return ExactTriangleData([x, cn, y], [lam0, lam1, lam2], [k0, k1, k2],
                             [None, None, None])


def sum_triangle(x, y):
    """The degenerate direct-sum triangle: the cone triangle of 0: X -> Y."""
    return cone_triangle(SMorphism.zero(x, y, 0))


# ---------------------------------------------------------------------------
# The one-sided homologies I+ and I-.


def i_plus(x):
    """The irreducible homology of the suspension with Z/2 gradings, H of
    (C + R(1), [[d, -delta2], [0, 0]]); needs r = 0."""
    if not x.r.is_zero:
        raise NotRPerfect("I+ needs r = 0")
    return suspend_once(x).reduce_mod2().irreducible_homology()


def i_minus(x):
    """The irreducible homology of the negative suspension with Z/2
    gradings, H of (C + R(0), [[d, 0], [delta1, 0]]); needs r = 0."""
    if not x.r.is_zero:
        raise NotRPerfect("I- needs r = 0")
    return desuspend_once(x).reduce_mod2().irreducible_homology()


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
