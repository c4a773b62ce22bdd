"""Small equivariant complexes over R[x], the i/j/p maps, the suspension
invariance witnesses, and Froyshov-type invariants.

The three small models attached to an r-perfect S-complex are

    hat:   C[-1] + R[x]        d(a, t x^i) = (d a - v^i delta2 t, 0)
    check: C + R[x^-1] x^-1    d(a, t x^i) = (d a, sum delta1 v^{-i-1}(a) x^i)
    bar:   R[[x^-1, x]         d = 0

with x of degree -2.  Truncated windows of x-powers are materialized for
display and witness checking; no invariant computation truncates: the
d-function comes from ranks of finite matrices and the J_i modules from
finite linear systems.
"""

from __future__ import annotations

from functools import cached_property

from .errors import PlateauNotReached, ScxError, UnsupportedRing
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
    raw_cols,
    raw_rows,
    raw_vectors,
    span_contains,
    sparse_kernel_basis,
)
from .rings import RingElement, Z
from .scomplex import RelationReport, _rel


def _nilpotency(v):
    """Least e with v^e = 0, or None if v is not nilpotent within rank+1:
    term j of the sweep of v by v is v^(j+1)."""
    n = v.source.rank
    if not n:
        return 0
    j = Sweep(v, v).first_zero(n)
    return j + 1 if j <= n else None


class SmallEquivariantComplex:
    """A truncated materialization of one flavor of small equivariant complex.

    The columns come in bands: the irreducible band (C, shifted by one for
    the hat flavor and by two for the check flavor; empty for bar) from
    column 0, then one R band per power of `powers`, in order, from column
    `band(p)`.  The differential, the x-action and the maps between models
    are placed band by band with `GradedMatrix.from_blocks`.
    """

    def __init__(self, base, flavor, powers):
        base.require_r_perfect("small equivariant complex")
        if flavor not in ("hat", "check", "bar"):
            raise ScxError(f"unknown flavor {flavor!r}")
        self.base = base
        self.flavor = flavor
        self.powers = list(powers)
        # the hat model is C[-1] + R[x]; the check model carries the shift
        # that makes its differential, the x-action, and the p-map
        # homogeneous of degrees -1, -2 and 0
        shift = {"hat": 1, "check": 2}.get(flavor)
        gens = [] if shift is None else [(f"c.{n}", d + shift) for n, d in base.irr.gens]
        nirr, nr = len(gens), base.red.rank
        self._band = {p: nirr + k * nr for k, p in enumerate(self.powers)}
        gens += [(f"x{i}.{n}", d - 2 * i) for i in self.powers for n, d in base.red.gens]
        self.module = GradedModule(base.ring, base.modulus, gens)
        self.diff = self._build_diff()
        self.x_action, self.x_lossy = self._build_x()

    def band(self, p):
        """The first column of the power-p band."""
        return self._band[p]

    def red_index(self, gen, power):
        return self._band[power] + gen

    def has_power(self, p):
        return p in self._band

    def columns_without(self, *powers):
        """The columns outside the bands of `powers`."""
        nr = self.base.red.rank
        return set(range(self.module.rank)).difference(
            *(range(self.band(p), self.band(p) + nr) for p in powers))

    def _build_diff(self):
        x = self.base
        left, right_neg = _sweeps(x)
        blocks = [] if self.flavor == "bar" else [(x.d, 0, 0)]
        for p in self.powers:
            if self.flavor == "hat" and p >= 0:
                blocks.append((right_neg[p], 0, self.band(p)))
            elif self.flavor == "check" and p < 0:
                blocks.append((left[-p - 1], self.band(p), 0))
        return GradedMatrix.from_blocks(self.module, self.module, -1, *blocks)

    def _build_x(self):
        """x as a band shift: x^p -> x^(p+1), with delta1 out of the
        irreducible band of the hat model and delta2 into that of the check
        model.  The columns whose image leaves the window are lossy."""
        x = self.base
        one = GradedMatrix.identity(x.red)
        blocks = [] if self.flavor == "bar" else [(x.v, 0, 0)]
        lossy = set()
        if self.flavor == "hat":
            if self.has_power(0):
                blocks.append((x.delta1, self.band(0), 0))
            else:
                lossy.update(s for _, s in x.delta1.entries)
        for p in self.powers:
            if self.flavor == "check" and p == -1:
                blocks.append((x.delta2, 0, self.band(p)))
            elif self.has_power(p + 1):
                blocks.append((one, self.band(p + 1), self.band(p)))
            else:
                lossy.update(range(self.band(p), self.band(p) + x.red.rank))
        return GradedMatrix.from_blocks(self.module, self.module, -2, *blocks), lossy

    def verify(self):
        return RelationReport([_rel("differential squares to zero", self.diff @ self.diff)])


def build_small(x, flavor, n):
    """Materialize a small equivariant complex with tail order n >= 1."""
    if n < 1:
        raise ScxError("tail order must be >= 1")
    if flavor == "hat":
        return SmallEquivariantComplex(x, "hat", range(0, n))
    if flavor == "check":
        return SmallEquivariantComplex(x, "check", range(-n, 0))
    return SmallEquivariantComplex(x, "bar", range(-n, n))


# ---------------------------------------------------------------------------
# The i/j/p maps between the windowed models.


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
    """i sends the irreducible band to the bands x^(-j-1) of bar by
    delta1 v^j and each R band to its own; j is minus the identity of the
    irreducible bands; p sends the band x^p, p >= 0, of bar to the
    irreducible band by v^p delta2 and each negative band to its own."""
    one = GradedMatrix.identity(x.red)
    left = Sweep(x.delta1, x.v)
    right = Sweep(x.delta2, x.v, before=True)
    mi = GradedMatrix.from_blocks(
        hat.module, bar.module, 0,
        *[(left[j], bar.band(-j - 1), 0) for j in range(e) if bar.has_power(-j - 1)],
        *[(one, bar.band(p), hat.band(p)) for p in hat.powers if bar.has_power(p)])
    mj = GradedMatrix.from_blocks(chk.module, hat.module, -1,
                                  (-GradedMatrix.identity(x.irr), 0, 0))
    mp = GradedMatrix.from_blocks(
        bar.module, chk.module, 0,
        *[(right[p], 0, bar.band(p)) for p in bar.powers if p >= 0],
        *[(one, chk.band(p), bar.band(p)) for p in bar.powers if chk.has_power(p)])
    return (mi, mj, mp)


def ijp_exactness_report(x, n):
    """Chain-map checks and im = ker at the three nodes of the (j, i, p)
    sequence, on windowed models (exact for nilpotent v)."""
    (hat, chk, bar), (mi, mj, mp) = ijp_maps(x, n)
    return RelationReport([
        _rel("hat differential squares", hat.diff @ hat.diff),
        _rel("check differential squares", chk.diff @ chk.diff),
        _rel("i is a chain map", mi @ hat.diff - bar.diff @ mi),
        _rel("j is a chain map", mj @ chk.diff - hat.diff @ mj),
        _rel("p is a chain map", mp @ bar.diff - chk.diff @ mp),
        ("exact at hat", exactness_at(chk.diff, mj, mi, bar.diff, hat.diff), None),
        ("exact at bar", exactness_at(hat.diff, mi, mp, chk.diff, bar.diff), None),
        ("exact at check", exactness_at(bar.diff, mp, mj, hat.diff, chk.diff), None),
    ])


# ---------------------------------------------------------------------------
# Suspension invariance witnesses.


def _suspension_maps(x, hat, hat_s, chk, chk_s):
    """fhat, fhat', fchk, fchk', K, K' and the mixed homotopy relating the
    models of X and of Sigma X, placed band by band.

    The irreducible band of a model of Sigma X is C (the first nc columns)
    followed by R: fhat and fhat' trade that R for the band x^0 of hat X
    and shift the others by one power, fchk sends the band x^-1 of check
    Sigma X to C by delta2 and drops the R of its irreducible band, and the
    homotopies carry the band x^-1 into that R (into x^0 of hat X for the
    mixed one)."""
    nc = x.irr.rank
    one_c, one_r = GradedMatrix.identity(x.irr), GradedMatrix.identity(x.red)

    def shift(src, tgt, by):
        return [(one_r, tgt.band(p + by), src.band(p))
                for p in src.powers if tgt.has_power(p + by)]

    fhat = GradedMatrix.from_blocks(hat_s.module, hat.module, -2, (one_c, 0, 0),
                                    (one_r, hat.band(0), nc), *shift(hat_s, hat, 1))
    fhat_inv = GradedMatrix.from_blocks(hat.module, hat_s.module, 2, (one_c, 0, 0),
                                        (one_r, nc, hat.band(0)), *shift(hat, hat_s, -1))
    fchk = GradedMatrix.from_blocks(chk_s.module, chk.module, -2, (one_c, 0, 0),
                                    (x.delta2, 0, chk_s.band(-1)), *shift(chk_s, chk, 1))
    fchk_inv = GradedMatrix.from_blocks(chk.module, chk_s.module, 2, (one_c, 0, 0),
                                        *shift(chk, chk_s, -1))
    kchk = GradedMatrix.from_blocks(chk_s.module, chk_s.module, 1,
                                    (one_r, nc, chk_s.band(-1)))
    kchk_p = GradedMatrix.from_blocks(chk.module, chk_s.module, 1,
                                      (-one_r, nc, chk.band(-1)))
    kmix = GradedMatrix.from_blocks(chk_s.module, hat.module, -2,
                                    (-one_r, hat.band(0), chk_s.band(-1)))
    return fhat, fhat_inv, fchk, fchk_inv, kchk, kchk_p, kmix


def susequivar_witness(x, n=None):
    """The maps relating the small models of X and Sigma X, with all stated
    identities checked exactly up to the represented windows."""
    from .functors import suspend_once

    x.require_r_perfect("suspension invariance witness")
    e = _nilpotency(x.v)
    if n is None:
        n = (e if e is not None else x.irr.rank + 1) + 2
    sx = suspend_once(x)

    hat = build_small(x, "hat", n + 1)
    hat_s = build_small(sx, "hat", n)
    chk = build_small(x, "check", n)
    chk_s = build_small(sx, "check", n)
    bar = build_small(x, "bar", n + 1)
    fhat, fhat_inv, fchk, fchk_inv, kchk, kchk_p, kmix = _suspension_maps(
        x, hat, hat_s, chk, chk_s)

    checks = []

    def add(name, m, cols=None):
        if cols is not None:
            m = GradedMatrix._new(m.source, m.target, m.degree,
                                  {k: y for k, y in m.entries.items() if k[1] in cols})
        checks.append(_rel(name, m))

    add("fhat chain map", fhat @ hat_s.diff - hat.diff @ fhat)
    add("fhat' chain map", fhat_inv @ hat.diff - hat_s.diff @ fhat_inv)
    add("fchk chain map", fchk @ chk_s.diff - chk.diff @ fchk)
    add("fchk' chain map", fchk_inv @ chk.diff - chk_s.diff @ fchk_inv)
    add("fhat . fhat' = 1", fhat @ fhat_inv - GradedMatrix.identity(hat.module))
    add("fhat' . fhat = 1", fhat_inv @ fhat - GradedMatrix.identity(hat_s.module))
    add("fchk . fchk' = 1", fchk @ fchk_inv - GradedMatrix.identity(chk.module),
        cols=chk.columns_without(-n))
    add("1 - fchk'.fchk = K d + d K (check side)",
        GradedMatrix.identity(chk_s.module) - fchk_inv @ fchk
        - kchk @ chk_s.diff - chk_s.diff @ kchk,
        cols=chk_s.columns_without(-n))
    add("fchk x = x fchk",
        fchk @ chk_s.x_action - chk.x_action @ fchk,
        cols=set(range(chk_s.module.rank)) - chk_s.x_lossy)
    add("fchk' x - x fchk' = d K' + K' d",
        fchk_inv @ chk.x_action - chk_s.x_action @ fchk_inv
        - chk_s.diff @ kchk_p - kchk_p @ chk.diff,
        cols=chk.columns_without(-n) - chk.x_lossy)
    if e is not None:
        e_s = _nilpotency(sx.v)
        mi, mj, mp = _ijp_matrices(x, hat, chk, bar, e)
        mi_s, mj_s, mp_s = _ijp_matrices(sx, hat_s, chk_s, bar, e_s)
        add("i fhat = x i_Sigma",
            mi @ fhat - bar.x_action @ mi_s)
        add("p x = fchk p_Sigma",
            mp @ bar.x_action - fchk @ mp_s,
            cols=bar.columns_without(-n - 1, n))
        add("fhat j_Sigma - j fchk = K d + d K",
            fhat @ mj_s - mj @ fchk - kmix @ chk_s.diff - hat.diff @ kmix)
    return RelationReport(checks)


# ---------------------------------------------------------------------------
# Froyshov-type invariants: the d-function from ranks, the J_i modules from
# finite linear systems.


class FroyshovProfile:
    """The d-function, h (when R has rank one), and the J_i bases.

    d and h come from rank increments (`froyshov_profile`).  `raw_bases[i]`
    is the basis of J_i as {index: raw value} vectors, read only (one list
    may stand for several indices), solved on its first read.  `j_bases`
    boxes them on its first read: each basis column of J_i is a list of
    rank R elements of the ring.
    """

    def __init__(self, x, d, h):
        nr = x.red.rank
        w = x.irr.rank + nr + 1
        self.ring = x.ring
        self.window = (-w, w)
        self.d = dict(d)
        self.nr = nr
        self.h = h
        self._x = x

    @cached_property
    def raw_bases(self):
        """The basis of every J_i of the window, from its finite system
        (`_j_module`) and `column_basis`.  The sweeps are made again here:
        a profile kept for d alone does not hold them (11.6 MB on
        `torus_link_complex(400)` over Q(T)).

        A system whose last block is zero is not solved.  That block is a
        term of the sweeps the systems read, and each sweep's first zero
        term is found once, so the test adds no product:

        - i >= 1 with delta1 v^(i-1) = 0: J_i is that map applied to a
          kernel, so J_i = 0 and its basis is empty.
        - i = -m <= 0 with v^m delta2 = 0: the theta_m variables stand in
          no equation, so J_i = R and its basis is the unit vectors in
          order.

        The second basis is the one the system would give.  The theta_m
        columns are empty and come last, so the elimination (Smith form
        over Z, row reduction over a field) never pivots on, swaps or
        operates on them: its last rank R kernel vectors are their unit
        vectors and every other kernel vector is zero on theta_m.  The J_i
        columns are then empty columns followed by the unit vectors, and
        `column_basis` of those is the unit vectors in order over Z and
        over a field.
        """
        x, ring, nr = self._x, self.ring, self.nr
        lo, hi = self.window
        sweeps = left, right_neg = _sweeps(x)
        # J_i = 0 for i > zero_left, J_i = R for i <= -zero_right
        zero_left = left.first_zero(hi - 1)
        zero_right = right_neg.first_zero(hi)
        units = [{g: ring.domain.one} for g in range(nr)]
        bases = {}
        for i in range(lo, hi + 1):
            if i > zero_left:
                bases[i] = []
            elif -i >= zero_right:
                bases[i] = units
            else:
                bases[i] = _module_basis_and_rank(_j_module(x, i, sweeps), nr, ring)
        return bases

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
    """A basis of the module the columns `cols` span (`column_basis`); its
    length is the rank."""
    return column_basis(cols, n, ring)


def _rank_steps(elim, d, sweep, vectors, limit, full):
    """The rank each term sweep[0], ..., sweep[limit] adds, in turn, to one
    incremental echelon (`elim.echelon()`) that starts with the vectors of
    d; `vectors(m)` are the vectors a matrix m adds.

    No term is read once the rank is `full`, the length of the vectors, or
    from the first zero term on: no later term can add to the rank then,
    and every term after a zero one is zero, so no product is made for it.
    The echelon is started at the first nonzero term.
    """
    ech = None
    steps = []
    for j in range(limit + 1):
        term = sweep[j]
        if not term.entries:
            break
        if ech is None:
            ech = elim.echelon()
            for vec in vectors(d):
                ech.add(vec)
        if ech.rank == full:
            break
        before = ech.rank
        for vec in vectors(term):
            ech.add(vec)
        steps.append(ech.rank - before)
    return steps + [0] * (limit + 1 - len(steps))


def froyshov_profile(x):
    """The d-function of the complex and h when rank R = 1; the J_i bases
    are solved when first read (`FroyshovProfile.raw_bases`).

    Computed on the window |i| <= rank C + rank R + 1; if the plateaus
    d = rank R (below) and d = 0 (above) are not visible at the window ends a
    PlateauNotReached error is raised rather than guessing.

    d needs ranks only (Daemi-Scaduto, arXiv:1912.08982):

    - i >= 1: J_i = B_i(ker S_i), with S_1 = d, B_i = delta1 v^(i-1) and
      S_(i+1) = [S_i; B_i] (rows stacked).  As dim B(ker S) =
      rank [S; B] - rank S, d(i) = rank S_(i+1) - rank S_i.
    - i = -m <= 0: J_i is the projection onto theta_m of ker A_m, with
      A_m = [d | -delta2 | -v delta2 | ... | -v^m delta2], and the kernel
      of that projection is ker A_(m-1), with A_(-1) = d.  So
      d(-m) = rank R - (rank A_m - rank A_(m-1)).

    Over Z, d(i) = rank_Z J_i = dim_Q (J_i tensor Q) by flat base change:
    Q is flat over Z, so the kernels and images that define J_i commute
    with tensoring by Q, and every rank above is a rank over Q.

    So each side is one incremental echelon over the ring's field
    (`_rank_steps`): the rows of d, then the rows of each delta1 v^j; the
    columns of d, then the columns of each -v^m delta2.  No kernel, Smith
    form or column basis is computed.
    """
    x.require_r_perfect("Froyshov profile")
    ring = x.ring
    elim = ELIMINATIONS[ring]
    if elim is None:
        raise UnsupportedRing("Froyshov profile needs Z or field coefficients")
    nc, nr = x.irr.rank, x.red.rank
    w = nc + nr + 1
    left, right_neg = _sweeps(x)
    up = _rank_steps(elim, x.d, left, raw_rows, w - 1, nc)
    down = _rank_steps(elim, x.d, right_neg, raw_cols, w, nc)
    d = {i: up[i - 1] if i >= 1 else nr - down[-i] for i in range(-w, w + 1)}
    if d[-w] != nr or d[w] != 0:
        raise PlateauNotReached(f"window [{-w}, {w}] too small: "
                                f"d({-w})={d[-w]}, d({w})={d[w]}")
    for i in range(-w, w):
        if d[i] < d[i + 1]:
            raise PlateauNotReached("d-function failed to be non-increasing")
    h = None
    if nr == 1:
        h = max(i for i in range(-w, w + 1) if d[i] == 1)
    return FroyshovProfile(x, d, h)


def j_nesting_ok(profile, ring, nr):
    """J_{i+1} contained in J_i for every window index."""
    lo, hi = profile.window
    bases = profile.raw_bases
    return all(span_contains(bases[i], vec, nr, ring)
               for i in range(lo, hi) for vec in bases[i + 1])


def froyshov_properties_check(x, y):
    """Properties (i)-(viii) of the d-function on the pair (x, y).

    (viii) is an equality over every ring: d(dual x)(i) = rank R - d(x)(1 - i).
    Over a field it is the duality of the d-function.  Over Z it follows by
    flat base change: Q is flat over Z, so the kernels and images that define
    J_i commute with tensoring by Q, J_i over Q is J_i over Z tensored with Q,
    and d(i) = rank_Z J_i = dim_Q (J_i tensor Q) is the same over Z as over Q,
    for x and for its dual alike.
    """
    from .functors import direct_sum, dual, suspend, tensor

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
        if got != want:
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
