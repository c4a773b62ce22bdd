"""Brute-force linear solving of homotopy equations.

Morphism and homotopy relations are linear in the unknown block maps, so a
homotopy between two given morphisms (or a triangle witness) can be found by
solving one exact linear system.  Supported coefficients: Z and fields.
"""

from __future__ import annotations

from .errors import UnsupportedRing
from .gradedlin import GradedMatrix, field_solve, int_solve
from .rings import Z
from .scomplex import SHomotopy, SMorphism


class _Lin:
    """A linear combination of unknowns plus a constant, entrywise."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = dict(terms or {})

    def add_term(self, var, coeff):
        cur = self.terms.get(var)
        self.terms[var] = coeff if cur is None else cur + coeff
        if self.terms[var].is_zero:
            del self.terms[var]


def _positions(src, tgt, degree):
    mod = src.modulus
    out = []
    for s in range(src.rank):
        for t in range(tgt.rank):
            if (tgt.degree(t) - src.degree(s) - degree) % mod == 0:
                out.append((t, s))
    return out


class _UnknownMatrix:
    def __init__(self, src, tgt, degree, offset):
        self.src = src
        self.tgt = tgt
        self.degree = degree
        self.pos = _positions(src, tgt, degree)
        self.var = {p: offset + i for i, p in enumerate(self.pos)}

    @property
    def nvars(self):
        return len(self.pos)

    def realize(self, values, ring):
        ent = {}
        for p, v in self.var.items():
            val = values[v]
            if not val.is_zero:
                ent[p] = val
        return GradedMatrix(self.src, self.tgt, self.degree, ent)


def _known_after_unknown(a, u):
    """a . U as {position: _Lin}: (a U)[t, s] = sum_m a[t, m] U[m, s]."""
    out = {}
    for (t, m), coeff in a.entries.items():
        for (mm, s), var in u.var.items():
            if mm != m:
                continue
            lin = out.setdefault((t, s), _Lin())
            lin.add_term(var, coeff)
    return out


def _unknown_after_known(u, b):
    """U . b as {position: _Lin}."""
    out = {}
    for (m, s), coeff in b.entries.items():
        for (t, mm), var in u.var.items():
            if mm != m:
                continue
            lin = out.setdefault((t, s), _Lin())
            lin.add_term(var, coeff)
    return out


def _accumulate(total, part, sign=1):
    for pos, lin in part.items():
        dst = total.setdefault(pos, _Lin())
        for var, coeff in lin.terms.items():
            dst.add_term(var, coeff if sign > 0 else -coeff)
    return total


def _solve_system(equations, nvars, ring):
    """equations: list of (_Lin, rhs element) meaning sum = rhs."""
    if ring == Z:
        rows = []
        rhs = []
        for lin, const in equations:
            row = [0] * nvars
            for var, coeff in lin.terms.items():
                row[var] = coeff.val
            rows.append(row)
            rhs.append(const.val)
        sol = int_solve(rows, rhs) if rows else [0] * nvars
        if sol is None:
            return None
        return [Z.from_int(v) for v in sol]
    if not ring.is_field:
        raise UnsupportedRing("linear solving needs Z or field coefficients")
    zero = ring.zero()
    rows = []
    rhs = []
    for lin, const in equations:
        row = [zero] * nvars
        for var, coeff in lin.terms.items():
            row[var] = coeff
        rows.append(row)
        rhs.append(const)
    if not rows:
        return [zero] * nvars
    return field_solve(rows, rhs, ring)


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
            comp = _known_after_unknown(a, u) if kind == "ku" else _unknown_after_known(u, a)
            _accumulate(total, comp, sign)
        eqs = []
        for s in range(src.rank):
            for t in range(tgt.rank):
                pos = (t, s)
                lin = total.get(pos, _Lin())
                const = const_matrix.entry(t, s)
                if lin.terms or not const.is_zero:
                    eqs.append((lin, const))
        return eqs

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
    return SHomotopy(frm, to,
                     uK.realize(values, ring), uL.realize(values, ring),
                     uM1.realize(values, ring), uM2.realize(values, ring),
                     uJ.realize(values, ring))


def solve_triangle_homotopy(lam_second, lam_first):
    """The K with d K + K d + lam_second lam_first = 0, solved linearly."""
    from .scomplex import SMorphism

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
        self.blocks = {}

        def alloc(name, rows, cols, rowoff, coloff, deg, mirror=None, sign=1):
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

        kb = alloc("K", mc, nc, 0, 0, k + 1)
        alloc("K2", mc, nc, mc, nc, k + 1, mirror=kb, sign=-1)
        lb = alloc("L", mc, nc, mc, 0, k)
        m2 = alloc("M2", mc, nr, mc, 2 * nc, k)
        m1 = alloc("M1", mr, nc, 2 * mc, 0, k + 1)
        jb = alloc("J", mr, nr, 2 * mc, 2 * nc, k + 1)
        self.blocks = {"K": kb, "L": lb, "M1": m1, "M2": m2, "J": jb}
        self.degree = k + 1
        self.k = k
        self.xsrc = xsrc
        self.xtgt = xtgt
        self.nvars = idx - offset

    def realize(self, values, frm, to):
        from .scomplex import SHomotopy

        ring = self.xsrc.ring
        x, y = self.xsrc, self.xtgt
        k = self.k

        def mk(block, src, tgt, deg):
            ent = {}
            for (t, s), var in self.blocks[block].items():
                val = values[var]
                if not val.is_zero:
                    ent[(t, s)] = val
            return GradedMatrix(src, tgt, deg, ent)

        return SHomotopy(frm, to,
                         mk("K", x.irr, y.irr, k + 1), mk("L", x.irr, y.irr, k),
                         mk("M1", x.irr, y.red, k + 1), mk("M2", x.red, y.irr, k),
                         mk("J", x.red, y.red, k + 1))


def _known_after_slots(a, u):
    out = {}
    by_row = {}
    for (mm, s), pairs in u.slots.items():
        by_row.setdefault(mm, []).append((s, pairs))
    for (t, m), coeff in a.entries.items():
        for s, pairs in by_row.get(m, ()):
            lin = out.setdefault((t, s), _Lin())
            for var, sign in pairs:
                lin.add_term(var, coeff if sign > 0 else -coeff)
    return out


def _slots_after_known(u, b):
    out = {}
    by_col = {}
    for (t, mm), pairs in u.slots.items():
        by_col.setdefault(mm, []).append((t, pairs))
    for (m, s), coeff in b.entries.items():
        for t, pairs in by_col.get(m, ()):
            lin = out.setdefault((t, s), _Lin())
            for var, sign in pairs:
                lin.add_term(var, coeff if sign > 0 else -coeff)
    return out


def solve_triangle_witnesses(complexes, morphisms, targets):
    """Jointly solve for the three homotopies and three chi-commuting N maps
    of an exact triangle, with the iso expressions pinned to the given
    target matrices.  Returns (homotopies, n_maps) or None."""
    from .scomplex import SMorphism

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
        _accumulate(total, _known_after_slots(d_tgt, ku), 1)
        _accumulate(total, _slots_after_known(ku, d_src), 1)
        rhs = -comp.assemble()
        for s in range(ku.src_tot.rank):
            for t in range(ku.tgt_tot.rank):
                lin = total.get((t, s), _Lin())
                const = rhs.entry(t, s)
                if lin.terms or not const.is_zero:
                    equations.append((lin, const))
    for i in range(3):
        # d N - N d + lam_{i-2} K_i - K_{i-1} lam_i = target_i
        d = complexes[i].total_differential()
        lam_im2 = morphisms[(i - 2) % 3].assemble()
        lam_i = morphisms[i].assemble()
        ku_i = kus[i][0]
        ku_im1 = kus[(i - 1) % 3][0]
        nu = nus[i]
        total = {}
        _accumulate(total, _known_after_unknown(d, nu), 1)
        _accumulate(total, _unknown_after_known(nu, d), -1)
        _accumulate(total, _known_after_slots(lam_im2, ku_i), 1)
        _accumulate(total, _slots_after_known(ku_im1, lam_i), -1)
        n = complexes[i].total_module().rank
        for s in range(n):
            for t in range(n):
                lin = total.get((t, s), _Lin())
                const = targets[i].entry(t, s)
                if lin.terms or not const.is_zero:
                    equations.append((lin, const))

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
        self.var = {}
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
                        self.var[key] = mirror[(t, s)]
                    else:
                        self.var[key] = idx
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
            ent = {}
            for pos, var in self.blocks[block].items():
                val = values[var]
                if not val.is_zero:
                    ent[pos] = val
            return GradedMatrix(src, tgt, deg, ent)

        return SMorphism(x, x, 1,
                         mk("A", x.irr, x.irr, 1), mk("C", x.irr, x.irr, 0),
                         mk("E", x.irr, x.red, 1), mk("D", x.red, x.irr, 0),
                         mk("G", x.red, x.red, 1))
