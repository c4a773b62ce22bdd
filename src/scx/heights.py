"""Height-n morphism calculus on r-perfect S-complexes.

A height-n morphism carries components (lambda, mu, Delta1, Delta2) together
with reducible-interaction maps tau_i : R -> R' of degree k - 2i, vanishing
for i < n.  For i >= 1 the tau_i are determined by the closed formula

    tau_i = delta1'.v'^{i-1}.Delta2 + Delta1.v^{i-1}.delta2
            + sum_{j=0}^{i-2} delta1'.v'^j.mu.v^{i-2-j}.delta2

and the nonpositive tau_i enter the four generalized chain relations.

The positive tau_i are computed together, by one sweep with no powers: with
P_1 = Delta2 : R -> C' and Q_1 = delta2 : R -> C,

    tau_i = delta1'.P_i + Delta1.Q_i,
    P_{i+1} = v'.P_i + mu.Q_i,    Q_{i+1} = v.Q_i,

so P_i = v'^{i-1}.Delta2 + sum_{j=0}^{i-2} v'^j.mu.v^{i-2-j}.delta2 and
Q_i = v^{i-1}.delta2.  A zero pair (P_i, Q_i) = (0, 0) stays zero, so from
the first one on every tau_j is zero and the sweep stops there: tau_1..tau_n
take at most 5 products per index up to that pair, and none past it.
"""

from __future__ import annotations

from .errors import ShapeMismatch
from .gradedlin import GradedMatrix, Sweep, is_invertible
from .scomplex import RelationReport, SMorphism, _check_components, _rel
from .functors import suspend, suspend_once


def _tau_bound(x, y):
    return x.irr.rank + y.irr.rank + 2


def tau_closed_formula(x, y, lam, mu, delta1, delta2, n):
    """The determined [tau_1, ..., tau_n], by the sweep in the module
    docstring.  At the first i with P_i = Q_i = 0 the sweep stops: tau_i and
    every later tau are zero matrices, of degree k - 2i."""
    taus = []
    p, q = delta2, x.delta2
    for i in range(n):
        if i:
            p, q = y.v @ p + mu @ q, x.v @ q
        if p.is_zero and q.is_zero:
            deg = y.delta1.degree + p.degree  # k - 2(i + 1), that of delta1'.P_{i+1}
            taus += [GradedMatrix.zero(x.red, y.red, deg - 2 * j) for j in range(n - i)]
            break
        taus.append(y.delta1 @ p + delta1 @ q)
    return taus


class HeightMorphism:
    """Components plus the tau family; height = least index with tau nonzero
    cleared below it.  Degree must be even."""

    def __init__(self, source, target, degree, lam, mu, delta1, delta2, tau, height):
        source.require_r_perfect("height morphism")
        target.require_r_perfect("height morphism")
        mod = source.modulus
        k = degree % mod
        if degree % 2 != 0:
            raise ShapeMismatch("height morphisms have even degree")
        bound = _tau_bound(source, target)
        for i in tau:
            if abs(i) > bound:
                raise ShapeMismatch(
                    f"declared tau support |{i}| exceeds the bound {bound}")
        _check_components(
            mod,
            (lam, source.irr, target.irr, k, "lambda"),
            (mu, source.irr, target.irr, k - 1, "mu"),
            (delta1, source.irr, target.red, k, "Delta1"),
            (delta2, source.red, target.irr, k - 1, "Delta2"))
        for i, t in tau.items():
            if t.source != source.red or t.target != target.red:
                raise ShapeMismatch("tau maps R to R'")
            if t.entries and t.degree != (k - 2 * i) % mod:
                raise ShapeMismatch(f"tau_{i} needs degree {k - 2 * i} mod {mod}")
        self.source = source
        self.target = target
        self.degree = k
        self.lam = lam
        self.mu = mu
        self.delta1 = delta1
        self.delta2 = delta2
        self.tau = {i: t for i, t in sorted(tau.items()) if not t.is_zero}
        self.height = height

    @classmethod
    def from_components(cls, source, target, degree, lam, mu, delta1, delta2,
                        declared_tau=None):
        """Fill positive taus from the closed formula; declared_tau supplies
        the data for i <= 0."""
        tau = dict(declared_tau or {})
        bound = _tau_bound(source, target)
        for i, t in enumerate(tau_closed_formula(source, target, lam, mu, delta1, delta2, bound), 1):
            if not t.is_zero:
                tau[i] = t
        height = None
        for i in sorted(tau):
            if not tau[i].is_zero:
                height = i
                break
        if height is None:
            height = bound  # the zero morphism has every height; report the bound
        return cls(source, target, degree, lam, mu, delta1, delta2, tau, height)

    @classmethod
    def from_morphism(cls, f):
        """An ordinary even morphism as a height >= 0 datum (tau_0 = rho)."""
        return cls.from_components(f.source, f.target, f.degree,
                                   f.lam, f.mu, f.delta1, f.delta2,
                                   {0: f.rho} if not f.rho.is_zero else {})

    def to_morphism(self):
        """Forget positive taus; valid when height >= 0."""
        if self.height < 0:
            raise ShapeMismatch("negative-height data is not an S-morphism")
        rho = self.tau.get(0, GradedMatrix.zero(self.source.red, self.target.red, self.degree))
        return SMorphism(self.source, self.target, self.degree,
                         self.lam, self.mu, self.delta1, self.delta2, rho)

    def tau_at(self, i):
        if i in self.tau:
            return self.tau[i]
        return GradedMatrix.zero(self.source.red, self.target.red,
                                 self.degree - 2 * i)

    @property
    def is_strong(self):
        return is_invertible(self.tau_at(self.height))

    def verify(self, claimed_height=None):
        """All four relations, the tau closed formula, and the height claim.

        A height-n morphism is accepted as height m for every m <= n.
        """
        x, y = self.source, self.target
        bound = _tau_bound(x, y)
        left_x = Sweep(x.delta1, x.v)  # delta1 v^j
        right_y = Sweep(y.delta2, y.v, before=True)  # v'^j delta2'
        neg = [i for i in self.tau if i <= 0]

        rel1 = y.d @ self.lam - self.lam @ x.d
        for i in [-i for i in neg if i < 0]:
            for j in range(i):
                rel1 = rel1 - right_y[j] @ self.tau_at(-i) @ left_x[i - 1 - j]
        rel2 = -(y.delta1 @ self.lam) + self.delta1 @ x.d
        for i in range(0, bound + 1):
            t = self.tau_at(-i)
            if not t.is_zero:
                rel2 = rel2 + t @ left_x[i]
        rel3 = self.lam @ x.delta2 + y.d @ self.delta2
        for i in range(0, bound + 1):
            t = self.tau_at(-i)
            if not t.is_zero:
                rel3 = rel3 - right_y[i] @ t
        rel4 = (self.mu @ x.d + y.d @ self.mu + self.lam @ x.v - y.v @ self.lam
                + self.delta2 @ x.delta1 - y.delta2 @ self.delta1)

        checks = [
            _rel("relation 1 (d'lambda - lambda d - tau corrections)", rel1),
            _rel("relation 2 (-delta1' lambda + Delta1 d + tau corrections)", rel2),
            _rel("relation 3 (lambda delta2 + d' Delta2 - tau corrections)", rel3),
            _rel("relation 4 (mu anticommutator)", rel4),
        ]
        taus = tau_closed_formula(x, y, self.lam, self.mu, self.delta1, self.delta2, bound)
        for i, want in enumerate(taus, 1):
            checks.append(_rel(f"tau_{i} closed formula", self.tau_at(i) - want))
        if claimed_height is not None:
            ok = all(self.tau_at(i).is_zero for i in range(-bound, min(claimed_height, bound + 1)))
            checks.append((f"height >= {claimed_height}", ok, None))
        return RelationReport(checks)


def iota(x, n):
    """The strong height-n morphism X -> Sigma^n X (n >= 1)."""
    if n < 1:
        raise ShapeMismatch("iota is defined for n >= 1")
    x.require_r_perfect("iota")
    sx = suspend(x, n)
    nc, nr = x.irr.rank, x.red.rank
    one = x.ring.domain.one
    # C sits as the deepest block of C_{Sigma^n}; block 2 is R[-2n+1].
    lam = GradedMatrix(x.irr, sx.irr, 2 * n,
                       {(i, i): one for i in range(nc)})
    d2 = GradedMatrix(x.red, sx.irr, 2 * n - 1,
                      {(nc + j, j): one for j in range(nr)})
    return HeightMorphism.from_components(
        x, sx, 2 * n, lam,
        GradedMatrix.zero(x.irr, sx.irr, 2 * n - 1),
        GradedMatrix.zero(x.irr, sx.red, 2 * n),
        d2, {})


def kappa(x, n):
    """The strong height-(-n) morphism Sigma^n X -> X (n >= 1)."""
    if n < 1:
        raise ShapeMismatch("kappa is defined for n >= 1")
    x.require_r_perfect("kappa")
    sx = suspend(x, n)
    nc = x.irr.rank
    one = x.ring.domain.one
    lam = GradedMatrix(sx.irr, x.irr, -2 * n,
                       {(i, i): one for i in range(nc)})
    tau = {-n: GradedMatrix.identity(x.red)}
    return HeightMorphism.from_components(
        sx, x, -2 * n, lam,
        GradedMatrix.zero(sx.irr, x.irr, -2 * n - 1),
        GradedMatrix.zero(sx.irr, x.red, -2 * n),
        GradedMatrix.zero(sx.red, x.irr, -2 * n - 1),
        tau)


def compose_heights(g, f):
    """Composite of height morphisms (g after f), heights add."""
    if f.target.irr.gens != g.source.irr.gens or f.target.red.gens != g.source.red.gens:
        raise ShapeMismatch("heights composition endpoints disagree")
    x, ymid, z = f.source, f.target, g.target
    sup_f = max(0, -min([i for i in f.tau] or [0]))
    sup_g = max(0, -min([i for i in g.tau] or [0]))
    # every block times a power of v, from a sweep of that block
    f_d1 = Sweep(f.delta1, x.v)  # Delta1_f v^j
    f_mu = Sweep(f.mu, x.v)  # mu_f v^j
    x_d1 = Sweep(x.delta1, x.v)  # delta1 v^j
    y_d1 = Sweep(ymid.delta1, ymid.v)  # delta1' v'^j
    y_d2 = Sweep(ymid.delta2, ymid.v, before=True)  # v'^j delta2'
    z_d2 = Sweep(z.delta2, z.v, before=True)  # v''^j delta2''
    g_d2 = Sweep(g.delta2, z.v, before=True)  # v''^j Delta2_g
    g_mu = Sweep(g.mu, z.v, before=True)  # v''^j mu_g

    def tg(i):
        return g.tau_at(i)

    def tf(i):
        return f.tau_at(i)

    k = (g.degree + f.degree) % x.modulus
    lam = g.lam @ f.lam
    for i in range(0, sup_g):
        for j in range(i + 1):
            lam = lam + z_d2[j] @ tg(-(i + 1)) @ f_d1[i - j]
    for i in range(0, sup_f):
        for j in range(i + 1):
            lam = lam + g_d2[j] @ tf(-(i + 1)) @ x_d1[i - j]
    for i in range(0, sup_g - 1):
        for j in range(i + 1):
            for kk in range(i - j + 1):
                lam = lam + z_d2[j] @ tg(-(i + 2)) @ y_d1[kk] @ f_mu[i - j - kk]
    for i in range(0, sup_f - 1):
        for j in range(i + 1):
            for kk in range(i - j + 1):
                lam = lam + g_mu[j] @ y_d2[kk] @ tf(-(i + 2)) @ x_d1[i - j - kk]

    mu = g.lam @ f.mu + g.mu @ f.lam + g.delta2 @ f.delta1

    d1 = g.delta1 @ f.lam
    for i in range(0, sup_g + 1):
        t = tg(-i)
        if not t.is_zero:
            d1 = d1 + t @ f_d1[i]
    for i in range(0, sup_g):
        for j in range(i + 1):
            t = tg(-(i + 1))
            if not t.is_zero:
                d1 = d1 + t @ y_d1[j] @ f_mu[i - j]

    d2 = g.lam @ f.delta2
    for i in range(0, sup_f + 1):
        t = tf(-i)
        if not t.is_zero:
            d2 = d2 + g_d2[i] @ t
    for i in range(0, sup_f):
        for j in range(i + 1):
            t = tf(-(i + 1))
            if not t.is_zero:
                d2 = d2 + g_mu[j] @ y_d2[i - j] @ t

    bound = _tau_bound(x, z)
    tau = {}
    for i in range(-bound, 0 + 1):
        acc = GradedMatrix.zero(x.red, z.red, k - 2 * i)
        for kk in f.tau:
            tgi = g.tau.get(i - kk)
            if tgi is not None:
                acc = acc + tgi @ f.tau[kk]
        if not acc.is_zero:
            tau[i] = acc
    return HeightMorphism.from_components(x, z, k, lam, mu, d1, d2,
                                          {i: t for i, t in tau.items() if i <= 0})


def factor_through_suspension(f):
    """Factor a height-n morphism through the suspension tower.

    n >= 1: returns a height-0 morphism Sigma^n X -> X' with rho' = tau_n,
    satisfying (returned) . iota_n = f.
    n <= -1: returns a height-0 morphism X -> Sigma^{|n|} X' with
    tau' = tau_n, satisfying kappa_{|n|} . (returned) = f.
    n = 0: returns f itself.
    """
    n = f.height
    x, y = f.source, f.target
    if n == 0:
        return f
    if n > 0:
        sx = suspend(x, n)
        nc, nr = x.irr.rank, x.red.rank
        k = (f.degree - 2 * n) % x.modulus
        # P_i = v'^i Delta2 + sum_{j<i} v'^j mu v^{i-1-j} delta2, by
        # P_0 = Delta2 and P_{i+1} = v'.P_i + mu.(v^i delta2)
        right_x = Sweep(x.delta2, x.v, before=True)
        p = [f.delta2]
        for i in range(n):
            p.append(y.v @ p[i] + f.mu @ right_x[i])
        # lambda' is P_i on the i-th reducible block, R[-2(n-i)+1]
        lam = GradedMatrix.from_blocks(
            sx.irr, y.irr, k, (f.lam, 0, 0), *((p[i], 0, nc + i * nr) for i in range(n)))
        mu = GradedMatrix.from_blocks(sx.irr, y.irr, k - 1, (f.mu, 0, 0))
        d1 = GradedMatrix.from_blocks(sx.irr, y.red, k, (f.delta1, 0, 0))
        d2 = GradedMatrix(sx.red, y.irr, k - 1, dict(p[n].entries))
        rho = f.tau_at(n)
        rho = GradedMatrix(sx.red, y.red, k, dict(rho.entries))
        return HeightMorphism.from_components(sx, y, k, lam, mu, d1, d2,
                                              {0: rho} if not rho.is_zero else {})
    m = -n
    sy = suspend(y, m)
    mc, mr = y.irr.rank, y.red.rank
    k = (f.degree + 2 * m) % x.modulus
    left_x = Sweep(x.delta1, x.v)  # delta1 v^j
    lam_blocks = [(f.lam, 0, 0)]
    for t in range(m):  # row block R'[-2(m-t)+...]: sum_{i=t+1}^m tau_{-i} delta1 v^{i-1-t}
        acc = None
        for i in range(t + 1, m + 1):
            term = f.tau_at(-i) @ left_x[i - 1 - t]
            acc = term if acc is None else acc + term
        lam_blocks.append((acc, mc + t * mr, 0))
    lam = GradedMatrix.from_blocks(x.irr, sy.irr, k, *lam_blocks)
    mu = GradedMatrix.from_blocks(x.irr, sy.irr, k - 1, (f.mu, 0, 0), (f.delta1, mc, 0))
    d1 = GradedMatrix.zero(x.irr, sy.red, k)
    # the R'[-2(m-t)-1] block gets tau_{-t}
    d2 = GradedMatrix.from_blocks(x.red, sy.irr, k - 1, (f.delta2, 0, 0),
                                  *((f.tau_at(-t), mc + t * mr, 0) for t in range(m)))
    rho = GradedMatrix(x.red, sy.red, k, dict(f.tau_at(-m).entries))
    return HeightMorphism.from_components(x, sy, k, lam, mu, d1, d2,
                                          {0: rho} if not rho.is_zero else {})


def height_to_json(h):
    """The morphism document extended with height and tau keys (nonpositive
    taus only; positive ones are determined by the closed formula)."""
    from .scomplex import matrix_to_json, morphism_to_json

    rho = h.tau_at(0)
    base = SMorphism(h.source, h.target, h.degree, h.lam, h.mu, h.delta1,
                     h.delta2, rho)
    doc = morphism_to_json(base, include_complexes=True)
    doc.pop("rho", None)
    doc["height"] = h.height
    doc["tau"] = {str(i): matrix_to_json(t, by_name=False)
                  for i, t in h.tau.items() if i <= 0}
    return doc


def heights_equal(a, b):
    """Componentwise equality including the tau families."""
    keys = set(a.tau) | set(b.tau)
    return (a.lam == b.lam and a.mu == b.mu and a.delta1 == b.delta1
            and a.delta2 == b.delta2
            and all(a.tau_at(i) == b.tau_at(i) for i in keys))


# ---------------------------------------------------------------------------
# Odd-degree morphisms with their nu-map.


class OddMorphism:
    """An odd-degree morphism between r-perfect complexes plus nu_0."""

    def __init__(self, morphism, nu):
        morphism.source.require_r_perfect("odd morphism")
        morphism.target.require_r_perfect("odd morphism")
        if morphism.degree % 2 != 1:
            raise ShapeMismatch("odd morphism must have odd degree")
        mod = morphism.source.modulus
        if nu.source != morphism.source.red or nu.target != morphism.target.red:
            raise ShapeMismatch("nu maps R to R'")
        if nu.entries and nu.degree != (morphism.degree - 1) % mod:
            raise ShapeMismatch("nu has degree k - 1")
        self.morphism = morphism
        self.nu = nu

    def verify(self):
        return self.morphism.verify()


def compose_odd_after_height_minus1(g, f):
    """Odd g after a height-(-1) even f, with the nu-corrected components."""
    if any(i < -1 for i in f.tau):
        raise ShapeMismatch("f must have height >= -1")
    gm = g.morphism
    x, ymid, z = f.source, gm.source, gm.target
    if f.target.irr.gens != ymid.irr.gens or f.target.red.gens != ymid.red.gens:
        raise ShapeMismatch("composition endpoints disagree")
    t0, tm1 = f.tau_at(0), f.tau_at(-1)
    lam = gm.lam @ f.lam + gm.delta2 @ tm1 @ x.delta1
    mu = gm.lam @ f.mu + gm.mu @ f.lam + gm.delta2 @ f.delta1
    d1 = gm.delta1 @ f.lam + g.nu @ tm1 @ x.delta1
    d2 = (gm.lam @ f.delta2 + gm.delta2 @ t0 + z.delta2 @ g.nu @ tm1
          + z.v @ gm.delta2 @ tm1 + gm.mu @ ymid.delta2 @ tm1)
    k = (gm.degree + f.degree) % x.modulus
    rho = GradedMatrix.zero(x.red, z.red, k)
    return SMorphism(x, z, k, lam, mu, d1, d2, rho)


def odd_to_suspension_morphism(g):
    """The morphism Sigma X' -> X'' with lambda''.iota_1 = underlying g."""
    gm = g.morphism
    yp, z = gm.source, gm.target
    yp.require_r_perfect("odd-to-suspension")
    z.require_r_perfect("odd-to-suspension")
    syp = suspend_once(yp)
    nc = yp.irr.rank
    k = (gm.degree - 2) % yp.modulus

    lam = GradedMatrix.from_blocks(syp.irr, z.irr, k, (gm.lam, 0, 0), (gm.delta2, 0, nc))
    mu = GradedMatrix.from_blocks(syp.irr, z.irr, k - 1, (gm.mu, 0, 0))
    d1 = GradedMatrix.from_blocks(syp.irr, z.red, k, (gm.delta1, 0, 0), (g.nu, 0, nc))

    d2 = gm.mu @ yp.delta2 + z.v @ gm.delta2 + z.delta2 @ g.nu
    d2 = GradedMatrix(syp.red, z.irr, k - 1, dict(d2.entries))
    rho = GradedMatrix.zero(syp.red, z.red, k)
    return SMorphism(syp, z, k, lam, mu, d1, d2, rho)
