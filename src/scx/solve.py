"""Brute-force linear solving of homotopy equations.

Morphism and homotopy relations are linear in the unknown block maps, so a
homotopy between two given morphisms (or a triangle witness) can be found by
solving one exact linear system.  Every unknown is one assembled map
[[A,0,0],[B,sA,C],[E,0,G]] between total modules (`_Unknown`), and every
relation is read on the assembled matrices: a homotopy from f to g solves
d'.H + H.d = f - g, whose blocks are the five relations of
`SHomotopy.verify` (and relation 1 again at the -K block).  Supported
coefficients: Z and fields.
"""

from __future__ import annotations

from .errors import UnsupportedRing
from .gradedlin import ELIMINATIONS, GradedMatrix
from .scomplex import SHomotopy, SMorphism, _block_layout

# A linear combination of unknowns is a {variable: nonzero raw value} dict,
# and a system a list of (combination, raw value) equations, combination =
# value; the system's rows are its combinations, as an elimination's `solve`
# takes them.


def _add_term(lin, var, coeff, dom):
    """lin += coeff * var, over the domain `dom`; a cancelled term is dropped."""
    cur = lin.get(var)
    if cur is None:
        lin[var] = coeff
        return
    x = dom.add(cur, coeff)
    if x == dom.zero:
        del lin[var]
    else:
        lin[var] = x


class _Unknown:
    """An unknown map [[A,0,0],[B,sA,C],[E,0,G]] of total degree k from the
    total module of x to that of y, with s = 1 or -1 (`scomplex._block_layout`
    places the blocks).

    Every position of A, B, C, E and G that has total degree k holds one
    variable, numbered from `offset` block by block in that order and column
    by column within a block; the sA block reuses A's variables, times s.  So
    A, E and G have component degree k and B and C degree k-1: a homotopy
    between degree-d morphisms is the unknown with s = -1 and k = d + 1, a
    chi-commuting N map the one with s = 1 and k = 1.
    """

    def __init__(self, x, y, k, s, offset):
        self.src, self.tgt = x.total_module(), y.total_module()
        self.k = k
        self.layout = _block_layout(x, y)
        self.blocks = {}  # block name -> {block position: variable}
        self.slots = {}  # assembled position -> (variable, sign)
        var = offset
        for name in ("A", "B", "C", "E", "G"):
            src, tgt, row, col = self.layout[name]
            block = self.blocks[name] = {}
            for c in range(src.rank):
                for t in range(tgt.rank):
                    if (self.tgt.degree(row + t) - self.src.degree(col + c) - k) % x.modulus == 0:
                        block[(t, c)] = var
                        self.slots[(row + t, col + c)] = (var, 1)
                        var += 1
        _, _, row, col = self.layout["sA"]
        for (t, c), a in self.blocks["A"].items():
            self.slots[(row + t, col + c)] = (a, s)
        self.nvars = var - offset

    def realize(self, values):
        """The solved map, from the solution {variable: nonzero raw value}:
        the total [[A,0,0],[B,sA,C],[E,0,G]], built by the checked
        `GradedMatrix` constructor and handed to `from_assembled` unsplit."""
        neg = self.src.ring.domain.neg
        ent = {p: values[v] if sign > 0 else neg(values[v])
               for p, (v, sign) in self.slots.items() if v in values}
        return GradedMatrix(self.src, self.tgt, self.k, ent)


def _known_after(total, a, u, sign=1):
    """total += sign a.U, on {position: combination}: (a U)[t, s] =
    sum_m a[t, m] U[m, s]."""
    dom = a.ring.domain
    by_row = {}
    for (m, s), slot in u.slots.items():
        by_row.setdefault(m, []).append((s, slot))
    for (t, m), coeff in a.entries.items():
        for s, (var, vsign) in by_row.get(m, ()):
            _add_term(total.setdefault((t, s), {}), var,
                      coeff if vsign * sign > 0 else dom.neg(coeff), dom)


def _after_known(total, u, b, sign=1):
    """total += sign U.b, on {position: combination}."""
    dom = b.ring.domain
    by_col = {}
    for (t, m), slot in u.slots.items():
        by_col.setdefault(m, []).append((t, slot))
    for (m, s), coeff in b.entries.items():
        for t, (var, vsign) in by_col.get(m, ()):
            _add_term(total.setdefault((t, s), {}), var,
                      coeff if vsign * sign > 0 else dom.neg(coeff), dom)


def _equations(total, const, src, tgt):
    """The equations total[t, s] = const[t, s] at every position of a
    src -> tgt map, but for those that read 0 = 0."""
    zero = const.ring.domain.zero
    eqs = []
    for s in range(src.rank):
        for t in range(tgt.rank):
            lin = total.get((t, s), {})
            c = const.entries.get((t, s), zero)
            if lin or c != zero:
                eqs.append((lin, c))
    return eqs


def _homotopy_equations(u, frm, to):
    """The equations d'.H + H.d = frm - to on the assembled unknown H = u."""
    total = {}
    _known_after(total, frm.target.total_differential(), u)
    _after_known(total, u, frm.source.total_differential())
    return _equations(total, frm.assemble() - to.assemble(), u.src, u.tgt)


def _solve_system(equations, nvars, ring):
    """One solution {variable: nonzero raw value} of the equations, or None."""
    elim = ELIMINATIONS[ring]
    if elim is None:
        raise UnsupportedRing("linear solving needs Z or field coefficients")
    zero = ring.domain.zero
    rhs = {i: c for i, (_, c) in enumerate(equations) if c != zero}
    return elim.solve([lin for lin, _ in equations], rhs, nvars)


def solve_homotopy(frm, to):
    """A homotopy h with d'.h + h.d = frm - to, or None if none exists."""
    u = _Unknown(frm.source, frm.target, frm.degree + 1, -1, 0)
    values = _solve_system(_homotopy_equations(u, frm, to), u.nvars, frm.source.ring)
    if values is None:
        return None
    return SHomotopy.from_assembled(u.realize(values), frm, to)


def solve_triangle_homotopy(lam_second, lam_first):
    """The K with d K + K d + lam_second lam_first = 0, solved linearly."""
    comp = lam_second.compose_after(lam_first)
    zero = SMorphism.zero(comp.source, comp.target, comp.degree)
    return solve_homotopy(zero, comp)


def solve_triangle_witnesses(complexes, morphisms, targets):
    """Jointly solve for the three homotopies and three chi-commuting N maps
    of an exact triangle, with the iso expressions pinned to the given
    target matrices.  Returns (homotopies, n_maps) or None."""
    ring = complexes[0].ring
    offset = 0
    kus = []
    equations = []
    for i in range(3):
        comp = morphisms[(i - 1) % 3].compose_after(morphisms[i])
        zero = SMorphism.zero(comp.source, comp.target, comp.degree)
        ku = _Unknown(complexes[i], complexes[(i - 2) % 3], comp.degree + 1, -1, offset)
        offset += ku.nvars
        kus.append((ku, zero, comp))
        equations += _homotopy_equations(ku, zero, comp)
    nus = []
    for i in range(3):
        nus.append(_Unknown(complexes[i], complexes[i], 1, 1, offset))
        offset += nus[i].nvars
    for i in range(3):
        # d N - N d + lam_{i-2} K_i - K_{i-1} lam_i = target_i
        d = complexes[i].total_differential()
        total = {}
        _known_after(total, d, nus[i])
        _after_known(total, nus[i], d, -1)
        _known_after(total, morphisms[(i - 2) % 3].assemble(), kus[i][0])
        _after_known(total, kus[(i - 1) % 3][0], morphisms[i].assemble(), -1)
        equations += _equations(total, targets[i], nus[i].src, nus[i].tgt)

    values = _solve_system(equations, offset, ring)
    if values is None:
        return None
    homotopies = [SHomotopy.from_assembled(ku.realize(values), zero, comp)
                  for ku, zero, comp in kus]
    n_maps = [SMorphism.from_assembled(nu.realize(values), x, x) for x, nu in zip(complexes, nus)]
    return homotopies, n_maps
