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

from functools import cached_property

from .errors import PlateauNotReached, UnsupportedRing
from .gradedlin import (
    ELIMINATIONS,
    GradedMatrix,
    GradedModule,
    apply,
    boxed,
    column_basis,
    exactness_at,
    field_kernel_basis,
    int_kernel_basis,
    Sweep,
    raw_vectors,
    span_contains,
    sparse_kernel_basis,
)
from .rings import RingElement, Z
from .scomplex import RelationReport


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
        left = Sweep(x.delta1, x.v)
        right_neg = Sweep(-x.delta2, x.v, before=True)
        # every block lands on positions of its own, so no two entries add
        ent = {} if self.flavor == "bar" else dict(x.d.entries)
        for p in self.powers:
            if self.flavor == "hat" and p >= 0:
                for (t, s), val in right_neg[p].entries.items():
                    ent[(self.irr_index(t), self.red_index(s, p))] = val
            elif self.flavor == "check" and p < 0:
                for (t, s), val in left[-p - 1].entries.items():
                    ent[(self.red_index(t, p), self.irr_index(s))] = val
        return GradedMatrix(self.module, self.module, -1, ent)

    def _build_x(self):
        x = self.base
        ent = {} if self.flavor == "bar" else dict(x.v.entries)
        lossy = set()
        if self.flavor == "hat":
            for (t, s), val in x.delta1.entries.items():
                if self.has_power(0):
                    ent[(self.red_index(t, 0), self.irr_index(s))] = val
                else:
                    lossy.add(self.irr_index(s))
        for p in self.powers:
            for g in range(x.red.rank):
                col = self.red_index(g, p)
                if self.flavor == "check" and p == -1:
                    for (t, s), val in x.delta2.entries.items():
                        if s == g:
                            ent[(self.irr_index(t), col)] = val
                elif self.has_power(p + 1):
                    ent[(self.red_index(g, p + 1), col)] = x.ring.domain.one
                else:
                    lossy.add(col)
        return GradedMatrix(self.module, self.module, -2, ent), lossy

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
    """Build a matrix from a column rule fn(col) -> list of (row, raw value);
    out-of-window outputs must already be dropped by fn."""
    add = src.module.ring.domain.add
    ent = {}
    for col in range(src.module.rank):
        for row, val in fn(col):
            key = (row, col)
            cur = ent.get(key)
            ent[key] = val if cur is None else add(cur, val)
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
    dom = x.ring.domain
    one = dom.one
    left = Sweep(x.delta1, x.v)
    right = Sweep(x.delta2, x.v, before=True)

    def i_rule(col):
        kind, *rest = _col_info(hat, col)
        out = []
        if kind == "irr":
            c = rest[0]
            for j in range(e):
                for (t, s), val in left[j].entries.items():
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
            return [(hat.irr_index(rest[0]), dom.neg(one))]
        return []

    def p_rule(col):
        kind, g, p = _col_info(bar, col)
        out = []
        if p >= 0:
            for (t, s), val in right[p].entries.items():
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
    dom = x.ring.domain
    one = dom.one
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
            return [(chk_s.irr_index(nc + rest[0]), dom.neg(one))]
        return []

    def kmix_rule(col):
        kind, *rest = _col_info(chk_s, col)
        if kind == "red" and rest[1] == -1:
            return [(hat.red_index(rest[0], 0), dom.neg(one))] if hat.has_power(0) else []
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
    """The d-function, the J_i bases, and (when R has rank one) h.

    `raw_bases[i]` is the basis of J_i as {index: raw value} vectors, read
    only (one list may stand for several indices).  `j_bases` boxes them on
    its first read: each basis column of J_i is a list of rank R elements of
    the ring.
    """

    def __init__(self, ring, window, d, raw_bases, nr, h):
        self.ring = ring
        self.window = window
        self.d = dict(d)
        self.raw_bases = dict(raw_bases)
        self.nr = nr
        self.h = h

    @cached_property
    def j_bases(self):
        return {i: boxed(basis, self.nr, self.ring) for i, basis in self.raw_bases.items()}

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


def _sweeps(x):
    """The sweeps a J_i system reads: delta1 v^j, and v^j (-delta2), which is
    -v^j delta2 entry for entry with delta2 negated once."""
    return Sweep(x.delta1, x.v), Sweep(-x.delta2, x.v, before=True)


def _j_module(x, i, sweeps=None):
    """Generating columns for J_i as a submodule of R, via the finite system.

    The i >= 1 system stacks d over the blocks delta1 v^j and the i <= 0
    system sets d beside the blocks -v^j delta2, read from the pair
    `sweeps` of `_sweeps(x)`; a caller that solves several systems of one
    complex passes one pair to all.  Each system is built as
    {column: raw value} rows and its kernel comes back as {index: raw value}
    vectors, and so do the columns, so the work follows the nonzero entries.
    """
    ring = x.ring
    nc, nr = x.irr.rank, x.red.rank
    left, right_neg = sweeps or _sweeps(x)

    def fill(rows, block, row_off, col_off):
        for (t, s), val in block.items():
            rows[row_off + t][col_off + s] = val

    if i >= 1:
        rows = [{} for _ in range(nc + (i - 1) * nr)]
        fill(rows, x.d.entries, 0, 0)
        for j in range(i - 1):
            fill(rows, left[j].entries, nc + j * nr, 0)
        return apply(left[i - 1], sparse_kernel_basis(rows, nc, ring))
    m = -i
    # variables (alpha, theta_0..theta_m); equation d a - sum v^j delta2 t_j = 0
    rows = [{} for _ in range(nc)]
    fill(rows, x.d.entries, 0, 0)
    for j in range(m + 1):
        fill(rows, right_neg[j].entries, 0, nc + j * nr)
    off = nc + m * nr  # theta_m, the entries J_i is read from
    out = []
    for vec in sparse_kernel_basis(rows, off + nr, ring):
        col = {}
        for k, y in vec.items():
            if k >= off:
                col[k - off] = y
        out.append(col)
    return out


def _module_basis_and_rank(cols, n, ring):
    basis = column_basis(cols, n, ring)
    return basis, len(basis)


def froyshov_profile(x):
    """The d-function of the complex, its J_i bases, and h when rank R = 1.

    Computed on the window |i| <= rank C + rank R + 1; if the plateaus
    d = rank R (below) and d = 0 (above) are not visible at the window ends a
    PlateauNotReached error is raised rather than guessing.

    A system whose last block is zero is not solved.  That block is a term
    of the sweeps the systems read, and each sweep's first zero term is
    found once, so the test adds no product:

    - i >= 1 with delta1 v^(i-1) = 0: J_i is that map applied to a kernel,
      so J_i = 0, its basis is empty and d(i) = 0.
    - i = -m <= 0 with v^m delta2 = 0: the theta_m variables stand in no
      equation, so J_i = R, its basis is the unit vectors in order and
      d(i) = rank R.

    The second basis is the one the system would give.  The theta_m columns
    are empty and come last, so the elimination (Smith form over Z, row
    reduction over a field) never pivots on, swaps or operates on them:
    its last rank R kernel vectors are their unit vectors and every other
    kernel vector is zero on theta_m.  The J_i columns are then empty
    columns followed by the unit vectors, and `column_basis` of those is the
    unit vectors in order over Z and over a field.
    """
    x.require_r_perfect("Froyshov profile")
    ring = x.ring
    if ELIMINATIONS[ring] is None:
        raise UnsupportedRing("Froyshov profile needs Z or field coefficients")
    nr = x.red.rank
    w = x.irr.rank + nr + 1
    sweeps = left, right_neg = _sweeps(x)
    # J_i = 0 for i > zero_left, J_i = R for i <= -zero_right
    zero_left = left.first_zero(w - 1)
    zero_right = right_neg.first_zero(w)
    units = [{g: ring.domain.one} for g in range(nr)]
    d = {}
    bases = {}
    for i in range(-w, w + 1):
        if i > zero_left:
            basis, d[i] = [], 0
        elif -i >= zero_right:
            basis, d[i] = units, nr
        else:
            basis, d[i] = _module_basis_and_rank(_j_module(x, i, sweeps), nr, ring)
        bases[i] = basis
    if d[-w] != nr or d[w] != 0:
        raise PlateauNotReached(f"window [{-w}, {w}] too small: "
                                f"d({-w})={d[-w]}, d({w})={d[w]}")
    for i in range(-w, w):
        if d[i] < d[i + 1]:
            raise PlateauNotReached("d-function failed to be non-increasing")
    h = None
    if nr == 1:
        h = max(i for i in range(-w, w + 1) if d[i] == 1)
    return FroyshovProfile(ring, (-w, w), d, bases, nr, h)


def j_nesting_ok(profile, ring, nr):
    """J_{i+1} contained in J_i for every window index."""
    lo, hi = profile.window
    bases = profile.raw_bases
    return all(span_contains(bases[i], vec, nr, ring)
               for i in range(lo, hi) for vec in bases[i + 1])


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
        if got > want or (ring.is_field and got != want):
            ok_d = False
    checks.append(("(viii) duality", ok_d, None))
    return RelationReport(checks)


# ---------------------------------------------------------------------------
# The truncated-power-series oracle for J_i (used to validate the finite
# systems; see the tests).


def j_module_oracle(x, i, n=None):
    """J_i computed from cycles of the truncated hat model and the leading
    coefficient of their image under the i-map, as {index: raw value}
    columns.  Its eliminations run on dense rows, through the dense entry
    points."""
    x.require_r_perfect("J oracle")
    ring = x.ring
    dom = ring.domain
    nc, nr = x.irr.rank, x.red.rank
    if n is None:
        n = nc + nr + 2
    hat = build_small(x, "hat", n)
    size = hat.module.rank
    rows = [[dom.zero] * size for _ in range(size)]
    for (t, s), e in hat.diff.entries.items():
        rows[t][s] = e
    cycles = _dense_kernel(rows, size, ring)
    # conditions: all i-image coefficients at powers > -i vanish
    cond_rows = [[_i_coeff(x, hat, z, g, p, dom) for z in cycles]
                 for p in range(-i + 1, n) for g in range(nr)]
    cols = []
    for coeffs in _dense_kernel(cond_rows, len(cycles), ring):
        col = {}
        for g in range(nr):
            acc = dom.zero
            for z, c in zip(cycles, coeffs):
                acc = dom.add(acc, dom.mul(c, _i_coeff(x, hat, z, g, -i, dom)))
            if acc != dom.zero:
                col[g] = acc
        cols.append(col)
    return cols


def _dense_kernel(rows, n, ring):
    """A kernel basis of the dense raw rows `rows` with n columns, as dense
    raw vectors: the dense route of the J oracle (`j_module_oracle`, and so
    selftest criterion 5 and the tests).  It picks its branch by comparing
    the ring with Z, not by `ELIMINATIONS`, as its branches are the dense
    entry points `int_kernel_basis` and `field_kernel_basis` bound in this
    module, which `bench/tracer.py` wraps and counts by these names."""
    if ring == Z:
        return int_kernel_basis(rows, ncols=n)
    zero = ring.domain.zero
    elements = [[RingElement(ring, x) for x in row] for row in rows]
    return [[vec.get(k, zero) for k in range(n)]
            for vec in raw_vectors(field_kernel_basis(elements, ring, ncols=n), ring)]


def _i_coeff(x, hat, cycle, gen, power, dom):
    """Coefficient of (gen, x^power) in the i-image of a hat chain vector of
    raw values, over the ring whose domain is `dom`."""
    if power >= 0:
        return cycle[hat.red_index(gen, power)]
    m = x.delta1 @ x.v.power(-power - 1)
    acc = dom.zero
    for (t, s), v in m.entries.items():
        if t == gen:
            acc = dom.add(acc, dom.mul(v, cycle[s]))
    return acc
