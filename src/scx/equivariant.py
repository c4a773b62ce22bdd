"""Small equivariant complexes over R[x], the i/j/p maps, the suspension
invariance witnesses, and Froyshov-type invariants.

The three small models attached to an r-perfect S-complex are

    hat:   C[-1] + R[x]        d(a, t x^i) = (d a - v^i delta2 t, 0)
    check: C + R[x^-1] x^-1    d(a, t x^i) = (d a, sum delta1 v^{-i-1}(a) x^i)
    bar:   R[[x^-1, x]         d = 0

with x of degree -2.  Truncated windows of x-powers are materialized for
display and witness checking; every invariant computation (the J_i modules
and the d-function) uses finite linear systems and never truncates.
"""

from __future__ import annotations

from .errors import PlateauNotReached, UnsupportedRing
from .gradedlin import (
    GradedMatrix,
    GradedModule,
    field_column_space_basis,
    field_kernel_basis,
    field_span_contains,
    int_column_lattice_basis,
    int_kernel_basis,
    int_lattice_contains,
    exactness_at,
)
from .rings import Z
from .scomplex import RelationReport


class _Ladder:
    """The blocks delta1 v^j (C -> R) and v^j delta2 (R -> C) of one complex,
    for j = 0, 1, 2, ...

    Each power of v is one product with the power before it, and each block
    is built once, the first time it is asked for.  Once a power of v is zero
    every later block is the zero block and no further product is made.  A
    ladder is built for one call and dropped with it.
    """

    def __init__(self, x):
        self._x = x
        self._power = None  # the last power of v used, v^(len(self._left) - 1)
        self._left = []
        self._right = []

    def _grow(self, j):
        x = self._x
        while len(self._left) <= j:
            if self._left and self._power.is_zero:
                self._left.append(self._left[-1])
                self._right.append(self._right[-1])
                continue
            p = x.v @ self._power if self._left else GradedMatrix.identity(x.irr)
            self._power = p
            if p.is_zero:
                self._left.append(GradedMatrix.zero(x.irr, x.red, x.delta1.degree))
                self._right.append(GradedMatrix.zero(x.red, x.irr, x.delta2.degree))
            else:
                self._left.append(x.delta1 @ p)
                self._right.append(p @ x.delta2)

    def left(self, j):
        """delta1 v^j."""
        self._grow(j)
        return self._left[j]

    def right(self, j):
        """v^j delta2."""
        self._grow(j)
        return self._right[j]


def _nilpotency(v):
    """Least e with v^e = 0, or None if v is not nilpotent within rank+1."""
    if v.is_zero:
        return 1 if v.source.rank else 0
    p = v
    for e in range(2, v.source.rank + 2):
        p = p @ v
        if p.is_zero:
            return e
    return None


class SmallEquivariantComplex:
    """A truncated materialization of one flavor of small equivariant complex.

    Basis: the irreducible generators (shifted by one for the hat flavor)
    followed by (reducible generator, power) pairs over `powers`.
    """

    def __init__(self, base, flavor, powers):
        base.require_r_perfect("small equivariant complex")
        if flavor not in ("hat", "check", "bar"):
            raise UnsupportedRing(f"unknown flavor {flavor!r}")
        self.base = base
        self.flavor = flavor
        self.powers = list(powers)
        ring, mod = base.ring, base.modulus
        gens = []
        # the hat model is C[-1] + R[x]; the check model carries the shift
        # that makes its differential, the x-action, and the p-map
        # homogeneous of degrees -1, -2 and 0
        if flavor == "hat":
            gens += [(f"c.{n}", d + 1) for n, d in base.irr.gens]
        elif flavor == "check":
            gens += [(f"c.{n}", d + 2) for n, d in base.irr.gens]
        for i in self.powers:
            gens += [(f"x{i}.{n}", d - 2 * i) for n, d in base.red.gens]
        self.module = GradedModule(ring, mod, gens)
        self._nirr = base.irr.rank if flavor != "bar" else 0
        self._pindex = {p: k for k, p in enumerate(self.powers)}
        self.diff = self._build_diff()
        self.x_action, self.x_lossy = self._build_x()

    def irr_index(self, i):
        return i

    def red_index(self, gen, power):
        return self._nirr + self._pindex[power] * self.base.red.rank + gen

    def has_power(self, p):
        return p in self._pindex

    def _build_diff(self):
        x = self.base
        ladder = _Ladder(x)
        ent = {}
        if self.flavor == "hat":
            for (t, s), val in x.d.entries.items():
                ent[(t, s)] = val
            for p in self.powers:
                if p < 0:
                    continue
                m = ladder.right(p)
                for (t, s), val in m.entries.items():
                    key = (self.irr_index(t), self.red_index(s, p))
                    ent[key] = ent.get(key, val.ring.zero()) - val if key in ent else -val
        elif self.flavor == "check":
            for (t, s), val in x.d.entries.items():
                ent[(t, s)] = val
            for p in self.powers:
                j = -p - 1
                if j < 0:
                    continue
                m = ladder.left(j)
                for (t, s), val in m.entries.items():
                    key = (self.red_index(t, p), self.irr_index(s))
                    cur = ent.get(key)
                    ent[key] = val if cur is None else cur + val
        return GradedMatrix(self.module, self.module, -1,
                            {k: v for k, v in ent.items() if not v.is_zero})

    def _build_x(self):
        x = self.base
        ent = {}
        lossy = set()
        if self.flavor == "hat":
            for (t, s), val in x.v.entries.items():
                ent[(t, s)] = val
            for (t, s), val in x.delta1.entries.items():
                if self.has_power(0):
                    ent[(self.red_index(t, 0), self.irr_index(s))] = val
                else:
                    lossy.add(self.irr_index(s))
            for p in self.powers:
                for g in range(x.red.rank):
                    col = self.red_index(g, p)
                    if self.has_power(p + 1):
                        ent[(self.red_index(g, p + 1), col)] = x.ring.one()
                    else:
                        lossy.add(col)
        elif self.flavor == "check":
            for (t, s), val in x.v.entries.items():
                ent[(t, s)] = val
            for p in self.powers:
                for g in range(x.red.rank):
                    col = self.red_index(g, p)
                    if p == -1:
                        for (t, s), val in x.delta2.entries.items():
                            if s == g:
                                key = (self.irr_index(t), col)
                                cur = ent.get(key)
                                ent[key] = val if cur is None else cur + val
                    elif self.has_power(p + 1):
                        ent[(self.red_index(g, p + 1), col)] = x.ring.one()
                    else:
                        lossy.add(col)
        else:
            for p in self.powers:
                for g in range(x.red.rank):
                    col = self.red_index(g, p)
                    if self.has_power(p + 1):
                        ent[(self.red_index(g, p + 1), col)] = x.ring.one()
                    else:
                        lossy.add(col)
        return (GradedMatrix(self.module, self.module, -2,
                             {k: v for k, v in ent.items() if not v.is_zero}),
                lossy)

    def verify(self):
        return RelationReport([
            ("differential squares to zero", (self.diff @ self.diff).is_zero,
             (self.diff @ self.diff).first_nonzero()),
        ])


def build_small(x, flavor, n):
    """Materialize a small equivariant complex with tail order n >= 1."""
    if n < 1:
        raise UnsupportedRing("tail order must be >= 1")
    if flavor == "hat":
        return SmallEquivariantComplex(x, "hat", range(0, n))
    if flavor == "check":
        return SmallEquivariantComplex(x, "check", range(-n, 0))
    return SmallEquivariantComplex(x, "bar", range(-n, n))


# ---------------------------------------------------------------------------
# The i/j/p maps between the windowed models.


def _map_matrix(src, tgt, fn):
    """Build a matrix from a column rule fn(col) -> list of (row, elt);
    out-of-window outputs must already be dropped by fn."""
    ent = {}
    for col in range(src.module.rank):
        for row, val in fn(col):
            if val.is_zero:
                continue
            key = (row, col)
            cur = ent.get(key)
            ent[key] = val if cur is None else cur + val
    return ent


def _col_info(model, col):
    """('irr', gen) or ('red', gen, power) for a model column."""
    if col < model._nirr:
        return ("irr", col)
    off = col - model._nirr
    k, g = divmod(off, model.base.red.rank)
    return ("red", g, model.powers[k])


def ijp_maps(x, n):
    """(i: hat -> bar, j: check -> hat, p: bar -> check) as windowed matrices.

    Requires a nilpotent v-map so the windows represent the maps exactly;
    the tail order n must be at least the nilpotency index.
    """
    e = _nilpotency(x.v)
    if e is None:
        raise UnsupportedRing("ijp maps need a nilpotent v within the window")
    n = max(n, e, 1)
    hat = build_small(x, "hat", n)
    chk = build_small(x, "check", n)
    bar = build_small(x, "bar", n)
    return (hat, chk, bar), _ijp_matrices(x, hat, chk, bar, e)


def _ijp_matrices(x, hat, chk, bar, e):
    ring = x.ring
    one = ring.one()
    ladder = _Ladder(x)

    def i_rule(col):
        kind, *rest = _col_info(hat, col)
        out = []
        if kind == "irr":
            c = rest[0]
            for j in range(e):
                m = ladder.left(j)
                for (t, s), val in m.entries.items():
                    if s == c and bar.has_power(-j - 1):
                        out.append((bar.red_index(t, -j - 1), val))
        else:
            g, p = rest
            if bar.has_power(p):
                out.append((bar.red_index(g, p), one))
        return out

    def j_rule(col):
        kind, *rest = _col_info(chk, col)
        if kind == "irr":
            return [(hat.irr_index(rest[0]), -one)]
        return []

    def p_rule(col):
        kind, g, p = _col_info(bar, col)
        out = []
        if p >= 0:
            m = ladder.right(p)
            for (t, s), val in m.entries.items():
                if s == g:
                    out.append((chk.irr_index(t), val))
        elif chk.has_power(p):
            out.append((chk.red_index(g, p), one))
        return out

    mi = GradedMatrix(hat.module, bar.module, 0, _map_matrix(hat, bar, i_rule))
    mj = GradedMatrix(chk.module, hat.module, -1, _map_matrix(chk, hat, j_rule))
    mp = GradedMatrix(bar.module, chk.module, 0, _map_matrix(bar, chk, p_rule))
    return (mi, mj, mp)


def ijp_exactness_report(x, n):
    """Chain-map checks and im = ker at the three nodes of the (j, i, p)
    sequence, on windowed models (exact for nilpotent v)."""
    (hat, chk, bar), (mi, mj, mp) = ijp_maps(x, n)
    checks = []
    checks.append(("hat differential squares", (hat.diff @ hat.diff).is_zero, None))
    checks.append(("check differential squares", (chk.diff @ chk.diff).is_zero, None))
    cm_i = mi @ hat.diff - bar.diff @ mi
    cm_j = mj @ chk.diff - hat.diff @ mj
    cm_p = mp @ bar.diff - chk.diff @ mp
    checks.append(("i is a chain map", cm_i.is_zero, cm_i.first_nonzero()))
    checks.append(("j is a chain map", cm_j.is_zero, cm_j.first_nonzero()))
    checks.append(("p is a chain map", cm_p.is_zero, cm_p.first_nonzero()))
    checks.append(("exact at hat", exactness_at(chk.diff, mj, mi, bar.diff, hat.diff), None))
    checks.append(("exact at bar", exactness_at(hat.diff, mi, mp, chk.diff, bar.diff), None))
    checks.append(("exact at check", exactness_at(bar.diff, mp, mj, hat.diff, chk.diff), None))
    return RelationReport(checks)


# ---------------------------------------------------------------------------
# Suspension invariance witnesses.


def susequivar_witness(x, n=None):
    """The maps relating the small models of X and Sigma X, with all stated
    identities checked exactly up to the represented windows."""
    from .functors import suspend_once

    x.require_r_perfect("suspension invariance witness")
    e = _nilpotency(x.v)
    if n is None:
        n = (e if e is not None else x.irr.rank + 1) + 2
    sx = suspend_once(x)
    ring = x.ring
    one = ring.one()
    nc, nr = x.irr.rank, x.red.rank

    hat = build_small(x, "hat", n + 1)
    hat_s = build_small(sx, "hat", n)
    chk = build_small(x, "check", n)
    chk_s = build_small(sx, "check", n)
    bar = build_small(x, "bar", n + 1)

    # In Sigma X the irreducible part is C[-2] + R[-1]; in the hat model of
    # Sigma X the columns are those generators (shifted once more) and then
    # the reducible powers.

    def fhat_rule(col):
        kind, *rest = _col_info(hat_s, col)
        if kind == "irr":
            c = rest[0]
            if c < nc:
                return [(hat.irr_index(c), one)]
            return [(hat.red_index(c - nc, 0), one)]
        g, p = rest
        return [(hat.red_index(g, p + 1), one)] if hat.has_power(p + 1) else []

    def fhat_inv_rule(col):
        kind, *rest = _col_info(hat, col)
        if kind == "irr":
            return [(hat_s.irr_index(rest[0]), one)]
        g, p = rest
        if p == 0:
            return [(hat_s.irr_index(nc + g), one)]
        return [(hat_s.red_index(g, p - 1), one)] if hat_s.has_power(p - 1) else []

    def fchk_rule(col):
        # fchk(alpha, theta, sum theta_i x^i) = (alpha + delta2(theta_{-1}),
        #                                        sum_{i <= -2} theta_i x^{i+1})
        kind, *rest = _col_info(chk_s, col)
        if kind == "irr":
            c = rest[0]
            if c < nc:
                return [(chk.irr_index(c), one)]
            return []  # the middle reducible copy dies
        g, p = rest
        if p == -1:
            return [(chk.irr_index(t), val)
                    for (t, s), val in x.delta2.entries.items() if s == g]
        return [(chk.red_index(g, p + 1), one)] if chk.has_power(p + 1) else []

    def fchk_inv_rule(col):
        kind, *rest = _col_info(chk, col)
        if kind == "irr":
            return [(chk_s.irr_index(rest[0]), one)]
        g, p = rest
        return [(chk_s.red_index(g, p - 1), one)] if chk_s.has_power(p - 1) else []

    def kchk_rule(col):
        kind, *rest = _col_info(chk_s, col)
        if kind == "red" and rest[1] == -1:
            return [(chk_s.irr_index(nc + rest[0]), one)]
        return []

    def kchk_prime_rule(col):
        kind, *rest = _col_info(chk, col)
        if kind == "red" and rest[1] == -1:
            return [(chk_s.irr_index(nc + rest[0]), -one)]
        return []

    def kmix_rule(col):
        kind, *rest = _col_info(chk_s, col)
        if kind == "red" and rest[1] == -1:
            return [(hat.red_index(rest[0], 0), -one)] if hat.has_power(0) else []
        return []

    fhat = GradedMatrix(hat_s.module, hat.module, -2, _map_matrix(hat_s, hat, fhat_rule))
    fhat_inv = GradedMatrix(hat.module, hat_s.module, 2, _map_matrix(hat, hat_s, fhat_inv_rule))
    fchk = GradedMatrix(chk_s.module, chk.module, -2, _map_matrix(chk_s, chk, fchk_rule))
    fchk_inv = GradedMatrix(chk.module, chk_s.module, 2, _map_matrix(chk, chk_s, fchk_inv_rule))
    kchk = GradedMatrix(chk_s.module, chk_s.module, 1, _map_matrix(chk_s, chk_s, kchk_rule))
    kchk_p = GradedMatrix(chk.module, chk_s.module, 1, _map_matrix(chk, chk_s, kchk_prime_rule))
    kmix = GradedMatrix(chk_s.module, hat.module, -2, _map_matrix(chk_s, hat, kmix_rule))

    def restrict_cols(m, cols):
        return GradedMatrix(m.source, m.target, m.degree,
                            {(t, s): v for (t, s), v in m.entries.items() if s in cols})

    checks = []

    def add(name, diff_matrix, cols=None):
        m = diff_matrix if cols is None else restrict_cols(diff_matrix, cols)
        checks.append((name, m.is_zero, m.first_nonzero()))

    add("fhat chain map", fhat @ hat_s.diff - hat.diff @ fhat)
    add("fhat' chain map", fhat_inv @ hat.diff - hat_s.diff @ fhat_inv)
    add("fchk chain map", fchk @ chk_s.diff - chk.diff @ fchk)
    add("fchk' chain map", fchk_inv @ chk.diff - chk_s.diff @ fchk_inv)
    add("fhat . fhat' = 1", fhat @ fhat_inv - GradedMatrix.identity(hat.module))
    add("fhat' . fhat = 1", fhat_inv @ fhat - GradedMatrix.identity(hat_s.module))
    add("fchk . fchk' = 1", fchk @ fchk_inv - GradedMatrix.identity(chk.module),
        cols={c for c in range(chk.module.rank)
              if _col_info(chk, c)[0] == "irr" or _col_info(chk, c)[2] > -n})
    add("1 - fchk'.fchk = K d + d K (check side)",
        GradedMatrix.identity(chk_s.module) - fchk_inv @ fchk
        - kchk @ chk_s.diff - chk_s.diff @ kchk,
        cols={c for c in range(chk_s.module.rank)
              if _col_info(chk_s, c)[0] == "irr" or _col_info(chk_s, c)[2] > -n})
    add("fchk x = x fchk",
        fchk @ chk_s.x_action - chk.x_action @ fchk,
        cols=set(range(chk_s.module.rank)) - chk_s.x_lossy)
    add("fchk' x - x fchk' = d K' + K' d",
        fchk_inv @ chk.x_action - chk_s.x_action @ fchk_inv
        - chk_s.diff @ kchk_p - kchk_p @ chk.diff,
        cols={c for c in range(chk.module.rank)
              if _col_info(chk, c)[0] == "irr" or _col_info(chk, c)[2] > -n}
        - chk.x_lossy)
    if e is not None:
        e_s = _nilpotency(sx.v)
        mi, mj, mp = _ijp_matrices(x, hat, chk, bar, e)
        mi_s, mj_s, mp_s = _ijp_matrices(sx, hat_s, chk_s, bar, e_s)
        add("i fhat = x i_Sigma",
            mi @ fhat - bar.x_action @ mi_s)
        add("p x = fchk p_Sigma",
            mp @ bar.x_action - fchk @ mp_s,
            cols={c for c in range(bar.module.rank)
                  if -n <= _col_info(bar, c)[2] <= n - 1})
        add("fhat j_Sigma - j fchk = K d + d K",
            fhat @ mj_s - mj @ fchk - kmix @ chk_s.diff - hat.diff @ kmix)
    return RelationReport(checks)


# ---------------------------------------------------------------------------
# Froyshov-type invariants via finite linear systems.


class FroyshovProfile:
    """The d-function, the J_i bases, and (when R has rank one) h."""

    def __init__(self, ring, window, d, j_bases, h):
        self.ring = ring
        self.window = window
        self.d = dict(d)
        self.j_bases = dict(j_bases)
        self.h = h

    def to_json(self):
        lo, hi = self.window
        return {
            "d": {str(i): self.d[i] for i in range(lo, hi + 1)},
            "h": self.h,
            "window": [lo, hi],
        }

    def __repr__(self):
        lo, hi = self.window
        vals = ", ".join(f"d({i})={self.d[i]}" for i in range(lo, hi + 1))
        return f"FroyshovProfile({vals}; h={self.h})"


def _j_module(x, i, ladder=None):
    """Generating columns for J_i as a submodule of R, via the finite system.

    `ladder` holds the complex's delta1 v^j and v^j delta2 blocks; a caller
    that solves several systems of one complex passes one ladder to all.
    """
    ring = x.ring
    nc, nr = x.irr.rank, x.red.rank
    if ladder is None:
        ladder = _Ladder(x)
    is_z = ring == Z
    zero = 0 if is_z else ring.zero()

    def fill(rows, m, row_off, col_off, neg=False):
        # the rows share one zero element; only m's nonzero entries are written
        for (t, s), val in m.entries.items():
            val = val.val if is_z else val
            rows[row_off + t][col_off + s] = -val if neg else val

    if i >= 1:
        rows = [[zero] * nc for _ in range(nc + (i - 1) * nr)]
        fill(rows, x.d, 0, 0)
        for j in range(i - 1):
            fill(rows, ladder.left(j), nc + j * nr, 0)
        lead = ladder.left(i - 1)
        if is_z:
            kern = int_kernel_basis(rows, ncols=nc) if nc else []
        else:
            kern = field_kernel_basis(rows, ring, ncols=nc) if nc else []
        cols = []
        for vec in kern:
            col = [zero] * nr
            for (t, s), val in lead.entries.items():
                if is_z:
                    col[t] += val.val * vec[s]
                else:
                    col[t] = col[t] + val * vec[s]
            cols.append(col)
        return cols
    m = -i
    # variables (alpha, theta_0..theta_m); equation d a - sum v^j delta2 t_j = 0
    nvar = nc + (m + 1) * nr
    rows = [[zero] * nvar for _ in range(nc)]
    fill(rows, x.d, 0, 0)
    for j in range(m + 1):
        fill(rows, ladder.right(j), 0, nc + j * nr, neg=True)
    if is_z:
        kern = int_kernel_basis(rows, ncols=nvar) if rows else \
            [[1 if a == b else 0 for a in range(nvar)] for b in range(nvar)]
    else:
        kern = field_kernel_basis(rows, ring, ncols=nvar) if rows else \
            [[ring.one() if a == b else zero for a in range(nvar)] for b in range(nvar)]
    return [vec[nc + m * nr: nc + (m + 1) * nr] for vec in kern]


def _module_basis_and_rank(cols, ring, nr):
    if not cols:
        return [], 0
    if ring == Z:
        rows = [[c[t] for c in cols] for t in range(nr)]
        basis = int_column_lattice_basis(rows)
        return basis, len(basis)
    basis = field_column_space_basis(cols, ring)
    return basis, len(basis)


def froyshov_profile(x):
    """The d-function of the complex, its J_i bases, and h when rank R = 1.

    Computed on the window |i| <= rank C + rank R + 1; if the plateaus
    d = rank R (below) and d = 0 (above) are not visible at the window ends a
    PlateauNotReached error is raised rather than guessing.
    """
    x.require_r_perfect("Froyshov profile")
    ring = x.ring
    if ring != Z and not ring.is_field:
        raise UnsupportedRing("Froyshov profile needs Z or field coefficients")
    nr = x.red.rank
    w = x.irr.rank + nr + 1
    ladder = _Ladder(x)
    d = {}
    j_bases = {}
    for i in range(-w, w + 1):
        cols = _j_module(x, i, ladder)
        basis, rank = _module_basis_and_rank(cols, ring, nr)
        d[i] = rank
        j_bases[i] = basis
    if d[-w] != nr or d[w] != 0:
        raise PlateauNotReached(f"window [{-w}, {w}] too small: "
                                f"d({-w})={d[-w]}, d({w})={d[w]}")
    for i in range(-w, w):
        if d[i] < d[i + 1]:
            raise PlateauNotReached("d-function failed to be non-increasing")
    h = None
    if nr == 1:
        h = max(i for i in range(-w, w + 1) if d[i] == 1)
    return FroyshovProfile(ring, (-w, w), d, j_bases, h)


def j_nesting_ok(profile, ring, nr):
    """J_{i+1} contained in J_i for every window index."""
    lo, hi = profile.window
    for i in range(lo, hi):
        big = profile.j_bases[i]
        small = profile.j_bases[i + 1]
        for vec in small:
            if ring == Z:
                if not int_lattice_contains(big, vec):
                    return False
            else:
                if not field_span_contains(big, vec, ring):
                    return False
    return True


def froyshov_properties_check(x, y):
    """Properties (i)-(viii) of the d-function on the pair (x, y)."""
    from .functors import direct_sum, dual, suspend, tensor

    ring = x.ring
    px = froyshov_profile(x)
    py = froyshov_profile(y)
    checks = []
    lo, hi = px.window
    checks.append(("(i) d vanishes above", px.d[hi] == 0, None))
    checks.append(("(ii) d non-increasing",
                   all(px.d[i] >= px.d[i + 1] for i in range(lo, hi)), None))
    checks.append(("(iii) d = rank R below", px.d[lo] == x.red.rank, None))
    p_up = froyshov_profile(suspend(x, 1))
    p_dn = froyshov_profile(suspend(x, -1))
    ok_up = all(p_up.d.get(i, None) == px.d[i - 1]
                for i in range(lo + 1, hi + 1))
    ok_dn = all(p_dn.d.get(i, None) == px.d[i + 1]
                for i in range(lo, hi))
    checks.append(("(iv) suspension shift", ok_up and ok_dn, None))
    # (v) strong height n morphism: iota_1 : X -> Sigma X is strong height 1
    ok_v = all(px.d[i] <= p_up.d.get(i - 1, x.red.rank) for i in range(lo + 1, hi + 1))
    checks.append(("(v) strong morphism inequality via iota", ok_v, None))
    pt = froyshov_profile(tensor(x, y))
    ok_t = True
    for i in range(max(lo, -3), min(hi, 3) + 1):
        for j in range(max(py.window[0], -3), min(py.window[1], 3) + 1):
            tij = pt.d.get(i + j)
            if tij is None:
                lo_t, hi_t = pt.window
                tij = x.red.rank * y.red.rank if i + j < lo_t else 0
            if px.d[i] * py.d[j] > tij:
                ok_t = False
    checks.append(("(vi) tensor superadditivity", ok_t, None))
    ps = froyshov_profile(direct_sum(x, y))
    ok_s = True
    for i in range(max(lo, py.window[0]), min(hi, py.window[1]) + 1):
        if ps.d.get(i) != px.d[i] + py.d[i]:
            ok_s = False
    checks.append(("(vii) direct sum additivity", ok_s, None))
    # duality: with the canonical dual grading (a generator of degree a
    # dualizes into degree -a-1) the complementary index is 1-i; the atoms
    # O(+-1) pin this down, since d must be compatible with h(dual) = -h.
    pd = froyshov_profile(dual(x))
    ok_d = True
    for i in range(lo + 1, hi):
        if not lo + 1 <= 1 - i <= hi:
            continue
        want = x.red.rank - px.d[1 - i]
        got = pd.d.get(i)
        if got is None:
            continue
        if ring == Z:
            if got > want:
                ok_d = False
        else:
            if got != want:
                ok_d = False
    checks.append(("(viii) duality", ok_d, None))
    return RelationReport(checks)


# ---------------------------------------------------------------------------
# The truncated-power-series oracle for J_i (used to validate the finite
# systems; see the tests).


def j_module_oracle(x, i, n=None):
    """J_i computed from cycles of the truncated hat model and the leading
    coefficient of their image under the i-map."""
    x.require_r_perfect("J oracle")
    ring = x.ring
    nc, nr = x.irr.rank, x.red.rank
    if n is None:
        n = nc + nr + 2
    hat = build_small(x, "hat", n)
    rows = hat.diff.to_dense() if ring != Z else None
    if ring == Z:
        int_rows = [[hat.diff.entry(t, s).val for s in range(hat.module.rank)]
                    for t in range(hat.module.rank)]
        cycles = int_kernel_basis(int_rows, ncols=hat.module.rank)
    else:
        cycles = field_kernel_basis(rows, ring)
    # conditions: all i-image coefficients at powers > -i vanish
    conds = []
    for p in range(-i + 1, n):
        for g in range(nr):
            conds.append(("theta", g, p) if p >= 0 else ("dtail", g, p))
    cond_rows = []
    for tag, g, p in conds:
        row = []
        for z in cycles:
            row.append(_i_coeff(x, hat, z, g, p, ring))
        cond_rows.append(row)
    if ring == Z:
        sub = int_kernel_basis(cond_rows, ncols=len(cycles)) if cond_rows else \
            [[1 if a == b else 0 for a in range(len(cycles))] for b in range(len(cycles))]
    else:
        sub = field_kernel_basis(cond_rows, ring, ncols=len(cycles)) if cond_rows else \
            [[ring.one() if a == b else ring.zero() for a in range(len(cycles))]
             for b in range(len(cycles))]
    cols = []
    for coeffs in sub:
        col = [ring.zero()] * nr if ring != Z else [0] * nr
        for g in range(nr):
            acc = ring.zero() if ring != Z else 0
            for z, c in zip(cycles, coeffs):
                term = _i_coeff(x, hat, z, g, -i, ring)
                if ring == Z:
                    acc += c * term
                else:
                    acc = acc + c * term
            col[g] = acc
        cols.append(col)
    return cols


def _i_coeff(x, hat, cycle, gen, power, ring):
    """Coefficient of (gen, x^power) in the i-image of a hat chain vector."""
    if power >= 0:
        return cycle[hat.red_index(gen, power)]
    j = -power - 1
    m = x.delta1 @ x.v.power(j)
    acc = 0 if ring == Z else ring.zero()
    for (t, s), v in m.entries.items():
        if t == gen:
            if ring == Z:
                acc += v.val * cycle[s]
            else:
                acc = acc + v * cycle[s]
    return acc
