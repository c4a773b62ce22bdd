"""Brute-force linear solving of homotopy equations.

Morphism and homotopy relations are linear in the unknown block maps, so a
homotopy between two given morphisms (or a triangle witness) can be found by
solving one exact linear system.  Supported coefficients: Z and fields.
"""

from __future__ import annotations

from .errors import UnsupportedRing
from .gradedlin import GradedMatrix, solve
from .rings import Z
from .scomplex import SHomotopy, SMorphism

# A linear combination of unknowns is a {variable: nonzero raw value} dict,
# and a system a list of (combination, raw value) equations, combination =
# value; the system's rows are its combinations, as `gradedlin.solve` takes
# them.


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


def _positions(src, tgt, degree):
    mod = src.modulus
    out = []
    for s in range(src.rank):
        for t in range(tgt.rank):
            if (tgt.degree(t) - src.degree(s) - degree) % mod == 0:
                out.append((t, s))
    return out


class _UnknownMatrix:
    """An unknown matrix with one variable per homogeneous position."""

    def __init__(self, src, tgt, degree, offset):
        self.src = src
        self.tgt = tgt
        self.degree = degree
        self.var = {p: offset + i for i, p in enumerate(_positions(src, tgt, degree))}
        self.slots = {p: [(v, 1)] for p, v in self.var.items()}

    @property
    def nvars(self):
        return len(self.var)

    def realize(self, values):
        return _realize(self.var, values, self.src, self.tgt, self.degree)


def _realize(block, values, src, tgt, deg):
    """The solved matrix of a block {position: variable}, from the solution
    {variable: nonzero raw value}."""
    return GradedMatrix(src, tgt, deg, {p: values[v] for p, v in block.items() if v in values})


def _known_after_slots(total, a, u, sign=1):
    """total += sign a . U, on {position: combination}: (a U)[t, s] =
    sum_m a[t, m] U[m, s].  An unknown's `slots` map each position to its
    [(variable, sign)] terms."""
    dom = a.ring.domain
    by_row = {}
    for (mm, s), pairs in u.slots.items():
        by_row.setdefault(mm, []).append((s, pairs))
    for (t, m), coeff in a.entries.items():
        for s, pairs in by_row.get(m, ()):
            lin = total.setdefault((t, s), {})
            for var, vsign in pairs:
                _add_term(lin, var, coeff if vsign * sign > 0 else dom.neg(coeff), dom)


def _slots_after_known(total, u, b, sign=1):
    """total += sign U . b, on {position: combination}."""
    dom = b.ring.domain
    by_col = {}
    for (t, mm), pairs in u.slots.items():
        by_col.setdefault(mm, []).append((t, pairs))
    for (m, s), coeff in b.entries.items():
        for t, pairs in by_col.get(m, ()):
            lin = total.setdefault((t, s), {})
            for var, vsign in pairs:
                _add_term(lin, var, coeff if vsign * sign > 0 else dom.neg(coeff), dom)


def _equations(total, const, src, tgt):
    """The equations total[t, s] = const[t, s] at every position of a
    src -> tgt block, but for those that read 0 = 0."""
    zero = const.ring.domain.zero
    eqs = []
    for s in range(src.rank):
        for t in range(tgt.rank):
            lin = total.get((t, s), {})
            c = const.entries.get((t, s), zero)
            if lin or c != zero:
                eqs.append((lin, c))
    return eqs


def _solve_system(equations, nvars, ring):
    """One solution {variable: nonzero raw value} of the equations, or None."""
    if ring != Z and not ring.is_field:
        raise UnsupportedRing("linear solving needs Z or field coefficients")
    zero = ring.domain.zero
    rhs = {i: c for i, (_, c) in enumerate(equations) if c != zero}
    return solve([lin for lin, _ in equations], rhs, nvars, ring)


def solve_homotopy(frm, to):
    """A homotopy h with d'.h + h.d = frm - to, or None if none exists."""
    x, y = frm.source, frm.target
    ring = x.ring
    k = frm.degree
    uK = _UnknownMatrix(x.irr, y.irr, (k + 1) % x.modulus, 0)
    uL = _UnknownMatrix(x.irr, y.irr, k % x.modulus, uK.nvars)
    uM1 = _UnknownMatrix(x.irr, y.red, (k + 1) % x.modulus, uK.nvars + uL.nvars)
    uM2 = _UnknownMatrix(x.red, y.irr, k % x.modulus,
                         uK.nvars + uL.nvars + uM1.nvars)
    uJ = _UnknownMatrix(x.red, y.red, (k + 1) % x.modulus,
                        uK.nvars + uL.nvars + uM1.nvars + uM2.nvars)
    nvars = uK.nvars + uL.nvars + uM1.nvars + uM2.nvars + uJ.nvars

    def rel(parts, const_matrix, src, tgt):
        total = {}
        for kind, a, u, sign in parts:
            if kind == "ku":
                _known_after_slots(total, a, u, sign)
            else:
                _slots_after_known(total, u, a, sign)
        return _equations(total, const_matrix, src, tgt)

    equations = []
    # 1: d'K + K d = lam - lam'
    equations += rel([("ku", y.d, uK, 1), ("uk", x.d, uK, 1)],
                     frm.lam - to.lam, x.irr, y.irr)
    # 2: delta1' K + r' M1 + M1 d + J delta1 = Delta1 - Delta1'
    equations += rel([("ku", y.delta1, uK, 1), ("ku", y.r, uM1, 1),
                      ("uk", x.d, uM1, 1), ("uk", x.delta1, uJ, 1)],
                     frm.delta1 - to.delta1, x.irr, y.red)
    # 3: -d' M2 + delta2' J - K delta2 + M2 r = Delta2 - Delta2'
    equations += rel([("ku", y.d, uM2, -1), ("ku", y.delta2, uJ, 1),
                      ("uk", x.delta2, uK, -1), ("uk", x.r, uM2, 1)],
                     frm.delta2 - to.delta2, x.red, y.irr)
    # 4: v'K - d'L + delta2' M1 + L d - K v + M2 delta1 = mu - mu'
    equations += rel([("ku", y.v, uK, 1), ("ku", y.d, uL, -1),
                      ("ku", y.delta2, uM1, 1), ("uk", x.d, uL, 1),
                      ("uk", x.v, uK, -1), ("uk", x.delta1, uM2, 1)],
                     frm.mu - to.mu, x.irr, y.irr)
    # 5: r'J + J r = rho - rho'
    equations += rel([("ku", y.r, uJ, 1), ("uk", x.r, uJ, 1)],
                     frm.rho - to.rho, x.red, y.red)

    values = _solve_system(equations, nvars, ring)
    if values is None:
        return None
    return SHomotopy(frm, to, uK.realize(values), uL.realize(values),
                     uM1.realize(values), uM2.realize(values), uJ.realize(values))


def solve_triangle_homotopy(lam_second, lam_first):
    """The K with d K + K d + lam_second lam_first = 0, solved linearly."""
    comp = lam_second.compose_after(lam_first)
    zero = SMorphism.zero(comp.source, comp.target, comp.degree)
    return solve_homotopy(zero, comp)


class _AssembledHomotopyUnknown:
    """Assembled homotopy-shaped unknown [[K,0,0],[L,-K,M2],[M1,0,J]] of
    overall degree k+1 between the total modules of two complexes.  The K
    variables appear twice, the second time negated."""

    def __init__(self, xsrc, xtgt, k, offset):
        mod = xsrc.modulus
        nc, mc = xsrc.irr.rank, xtgt.irr.rank
        nr, mr = xsrc.red.rank, xtgt.red.rank
        self.src_tot = xsrc.total_module()
        self.tgt_tot = xtgt.total_module()
        self.slots = {}
        idx = offset

        def alloc(rows, cols, rowoff, coloff, deg, mirror=None, sign=1):
            nonlocal idx
            block = {}
            for s in range(cols):
                for t in range(rows):
                    if (self.tgt_tot.degree(t + rowoff)
                            - self.src_tot.degree(s + coloff) - deg) % mod:
                        continue
                    pos = (t + rowoff, s + coloff)
                    if mirror is not None:
                        if (t, s) in mirror:
                            self.slots.setdefault(pos, []).append((mirror[(t, s)], sign))
                        continue
                    self.slots.setdefault(pos, []).append((idx, sign))
                    block[(t, s)] = idx
                    idx += 1
            return block

        kb = alloc(mc, nc, 0, 0, k + 1)
        alloc(mc, nc, mc, nc, k + 1, mirror=kb, sign=-1)  # -K
        lb = alloc(mc, nc, mc, 0, k)
        m2 = alloc(mc, nr, mc, 2 * nc, k)
        m1 = alloc(mr, nc, 2 * mc, 0, k + 1)
        jb = alloc(mr, nr, 2 * mc, 2 * nc, k + 1)
        self.blocks = {"K": kb, "L": lb, "M1": m1, "M2": m2, "J": jb}
        self.k = k
        self.xsrc = xsrc
        self.xtgt = xtgt
        self.nvars = idx - offset

    def realize(self, values, frm, to):
        x, y = self.xsrc, self.xtgt
        k = self.k

        def mk(block, src, tgt, deg):
            return _realize(self.blocks[block], values, src, tgt, deg)

        return SHomotopy(frm, to,
                         mk("K", x.irr, y.irr, k + 1), mk("L", x.irr, y.irr, k),
                         mk("M1", x.irr, y.red, k + 1), mk("M2", x.red, y.irr, k),
                         mk("J", x.red, y.red, k + 1))


def solve_triangle_witnesses(complexes, morphisms, targets):
    """Jointly solve for the three homotopies and three chi-commuting N maps
    of an exact triangle, with the iso expressions pinned to the given
    target matrices.  Returns (homotopies, n_maps) or None."""
    ring = complexes[0].ring
    offset = 0
    kus = []
    for i in range(3):
        comp = morphisms[(i - 1) % 3].compose_after(morphisms[i])
        ku = _AssembledHomotopyUnknown(complexes[i], complexes[(i - 2) % 3],
                                       comp.degree, offset)
        offset += ku.nvars
        kus.append((ku, comp))
    nus = []
    for i in range(3):
        nu = _SharedUnknown(complexes[i], offset)
        offset += nu.nvars
        nus.append(nu)

    equations = []
    for i in range(3):
        ku, comp = kus[i]
        d_src = complexes[i].total_differential()
        d_tgt = complexes[(i - 2) % 3].total_differential()
        total = {}
        _known_after_slots(total, d_tgt, ku)
        _slots_after_known(total, ku, d_src)
        equations += _equations(total, -comp.assemble(), ku.src_tot, ku.tgt_tot)
    for i in range(3):
        # d N - N d + lam_{i-2} K_i - K_{i-1} lam_i = target_i
        d = complexes[i].total_differential()
        lam_im2 = morphisms[(i - 2) % 3].assemble()
        lam_i = morphisms[i].assemble()
        ku_i = kus[i][0]
        ku_im1 = kus[(i - 1) % 3][0]
        nu = nus[i]
        total = {}
        _known_after_slots(total, d, nu)
        _slots_after_known(total, nu, d, -1)
        _known_after_slots(total, lam_im2, ku_i)
        _slots_after_known(total, ku_im1, lam_i, -1)
        tot = complexes[i].total_module()
        equations += _equations(total, targets[i], tot, tot)

    values = _solve_system(equations, offset, ring)
    if values is None:
        return None
    homotopies = []
    for i in range(3):
        ku, comp = kus[i]
        zero = SMorphism.zero(comp.source, comp.target, comp.degree)
        homotopies.append(ku.realize(values, zero, comp))
    n_maps = [nus[i].realize(values) for i in range(3)]
    return homotopies, n_maps


class _SharedUnknown:
    """An assembled chi-commuting unknown [[A,0,0],[C,A,D],[E,0,G]] with the
    two A slots sharing variables."""

    def __init__(self, x, offset):
        nc, nr = x.irr.rank, x.red.rank
        mod = x.modulus
        tot = x.total_module()
        self.slots = {}
        idx = offset

        def alloc(rows, cols, rowoff, coloff, deg, mirror=None):
            nonlocal idx
            fresh = {}
            for s in range(cols):
                for t in range(rows):
                    if (tot.degree(t + rowoff) - tot.degree(s + coloff) - deg) % mod:
                        continue
                    key = (t + rowoff, s + coloff)
                    if mirror is not None and (t, s) in mirror:
                        self.slots[key] = [(mirror[(t, s)], 1)]
                    else:
                        self.slots[key] = [(idx, 1)]
                        fresh[(t, s)] = idx
                        idx += 1
            return fresh

        a_vars = alloc(nc, nc, 0, 0, 1)          # A on C
        alloc(nc, nc, nc, nc, 1, mirror=a_vars)  # the same A on C[-1]
        self.blocks = {
            "A": a_vars,
            "C": alloc(nc, nc, nc, 0, 0),
            "D": alloc(nc, nr, nc, 2 * nc, 0),
            "E": alloc(nr, nc, 2 * nc, 0, 1),
            "G": alloc(nr, nr, 2 * nc, 2 * nc, 1),
        }
        self.nvars = idx - offset
        self.x = x

    def realize(self, values):
        """The solved N as a degree-1 morphism-shaped map: A is lambda, C is
        mu, D is Delta2, E is Delta1 and G is rho."""
        x = self.x

        def mk(block, src, tgt, deg):
            return _realize(self.blocks[block], values, src, tgt, deg)

        return SMorphism(x, x, 1,
                         mk("A", x.irr, x.irr, 1), mk("C", x.irr, x.irr, 0),
                         mk("E", x.irr, x.red, 1), mk("D", x.red, x.irr, 0),
                         mk("G", x.red, x.red, 1))
