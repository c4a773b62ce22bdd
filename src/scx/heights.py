"""Height-n morphism calculus on r-perfect S-complexes (Daemi-Scaduto,
arXiv:1912.08982).

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
the first one on every tau_j is zero and the sweep stops there: it returns
tau_1..tau_{i-1}, at most 5 products per index, and its readers take a tau
past the list, like one missing from a datum's `tau`, as zero.

One lift carries the rest.  When the nonpositive tau reach down to tau_{-m}
(the depth m is 0 when none is nonzero), the datum X -> Y is one S-morphism
F = `HeightMorphism._lift(m)`: X -> Sigma^m Y of degree k + 2m.  With
C_{Sigma^m Y} = C' + R'_0 + ... + R'_{m-1},

    lambda_F = [lambda; L_0; ...; L_{m-1}],  L_t = sum_{i>t} tau_{-i}.delta1.v^{i-1-t},
    mu_F = [mu; Delta1],  Delta1_F = 0,  Delta2_F = [Delta2; tau_0; ...; tau_{1-m}],
    rho_F = tau_{-m},

and F = (lambda, mu, Delta1, Delta2, tau_0) when m = 0.  F is placed
straight into its total from the checked components and kept on the datum;
Sigma^m Y is built once, by the suspensions kept on Y.  `_unlift(h, z, m)`
goes back: it is kappa_m . h, the height morphism X -> Z of an S-morphism
h: X -> Sigma^m Z.  Three identities follow.

* Relations 1, 3 and 4 are the A, -C and -B blocks of the residual
  D'.F - F.D on the C' rows; relation 2 is its -E block when m = 0 and its
  -B block on the R'_0 rows when m >= 1.
* g . f = _unlift(Sigma^{m_f}(G) . F, Z, m_f + m_g) for the lifts F of f and
  G of g.  Factoring a height-n morphism is f . kappa_n for n > 0, which is
  _unlift(Sigma^n F, Y, n) since the lift of kappa_n is the identity of
  Sigma^n X, and the lift itself, of depth -n, for n < 0.
* An odd g after a height-(-1) f is odd_to_suspension_morphism(g) . F.

The composite reads its positive tau from the closed formula and its
nonpositive tau from those of the lifted composite h (tau_i = tau_{i+m}(h),
with tau_0(h) = rho_h), never from the tau stored on the factors.
`from_components`, which every library and CLI path builds with, stores
exactly the closed formula; a datum built with the raw constructor whose
stored positive tau disagree with it composes differently.
"""

from __future__ import annotations

from .errors import ShapeMismatch
from .gradedlin import GradedMatrix, Sweep, is_invertible
from .scomplex import RelationReport, SMorphism, _block_shapes, _blocks, _check_blocks, _rel
from .functors import suspend, suspend_morphism, suspend_once


# the names of relations 1-4 of `HeightMorphism.verify`, in its order
_RELATIONS = ("relation 1 (d'lambda - lambda d - tau corrections)",
              "relation 2 (-delta1' lambda + Delta1 d + tau corrections)",
              "relation 3 (lambda delta2 + d' Delta2 - tau corrections)",
              "relation 4 (mu anticommutator)")


def _tau_bound(x, y):
    return x.irr.rank + y.irr.rank + 2


def _depth(tau):
    """m with tau_{-m} the deepest nonpositive tau, 0 when there is none."""
    return max(0, -min(tau, default=0))


def _rows(m, target, degree, offset=0):
    """Rows offset, ..., offset + rank - 1 of m as a map into `target`, of
    the given degree: the part of m on one band of a suspension's C."""
    end = offset + target.rank
    return GradedMatrix._new(m.source, target, degree, {
        (t - offset, s): val for (t, s), val in m.entries.items() if offset <= t < end})


def tau_closed_formula(x, y, lam, mu, delta1, delta2, n):
    """The determined [tau_1, ..., tau_n], by the sweep in the module
    docstring.  At the first i with P_i = Q_i = 0 the sweep stops and the
    list ends before tau_i: that tau and every later one are zero."""
    taus = []
    p, q = delta2, x.delta2
    for i in range(n):
        if i:
            p, q = y.v @ p + mu @ q, x.v @ q
        if p.is_zero and q.is_zero:
            break
        taus.append(y.delta1 @ p + delta1 @ q)
    return taus


class HeightMorphism:
    """Components plus the tau family; height = least index with tau nonzero
    cleared below it.  Degree must be even.  Immutable (`__setattr__`
    raises), so the lifts, built on first use and kept, cannot go stale."""

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
        _check_blocks(mod, _block_shapes((source.irr, source.red), (target.irr, target.red), k),
                      (lam, mu, delta1, delta2), SMorphism._LABELS)
        for i, t in tau.items():
            if t.source != source.red or t.target != target.red:
                raise ShapeMismatch("tau maps R to R'")
            if t.entries and t.degree != (k - 2 * i) % mod:
                raise ShapeMismatch(f"tau_{i} needs degree {k - 2 * i} mod {mod}")
        vars(self).update(source=source, target=target, degree=k, lam=lam, mu=mu,
                          delta1=delta1, delta2=delta2, height=height, _lifts={},
                          tau={i: t for i, t in sorted(tau.items()) if not t.is_zero})

    def __setattr__(self, *a):
        raise AttributeError("HeightMorphism is immutable")

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
        # the zero morphism has every height; report the bound
        height = min((i for i, t in tau.items() if not t.is_zero), default=bound)
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
        return self._lift(0)

    def tau_at(self, i):
        if i in self.tau:
            return self.tau[i]
        return GradedMatrix.zero(self.source.red, self.target.red,
                                 self.degree - 2 * i)

    @property
    def is_strong(self):
        return is_invertible(self.tau_at(self.height))

    def _lift(self, m):
        """The S-morphism X -> Sigma^m Y of the module docstring, for m at
        least the depth of the nonpositive tau (deeper ones are not read),
        built on first use and kept.  The L_t are made by
        L_{m-1} = tau_{-m}.delta1 and L_t = L_{t+1}.v + tau_{-(t+1)}.delta1,
        with no power of v."""
        if m not in self._lifts:
            x, y, tau = self.source, self.target, self.tau
            sy = suspend(y, m)
            nc, mc, mr = x.irr.rank, y.irr.rank, y.red.rank
            big = sy.irr.rank  # where the C[-1] band starts
            k = self.degree + 2 * m
            lam = [(self.lam, 0, 0)]
            acc = GradedMatrix.zero(x.irr, y.red, k)
            for t in reversed(range(m)):
                acc = acc @ x.v if -(t + 1) not in tau else acc @ x.v + tau[-(t + 1)] @ x.delta1
                lam.append((acc, mc + t * mr, 0))
            # Delta1 at row big + mc is mu_F's lower block (E when m = 0); in
            # the R column, Delta2_F's tau_{-t} sit at rows big + mc + t.mr,
            # and rho_F = tau_{-m} at 2 big, where R's row band starts
            blocks = [*lam, *((b, big + row, nc + col) for b, row, col in lam),
                      (self.mu, big, 0), (self.delta1, big + mc, 0), (self.delta2, big, 2 * nc),
                      *((tau[-t], big + mc + t * mr, 2 * nc) for t in range(m + 1) if -t in tau)]
            self._lifts[m] = SMorphism.from_assembled(GradedMatrix._new(
                x.total_module(), sy.total_module(), k, GradedMatrix._place(x.ring, blocks)), x, sy)
        return self._lifts[m]

    def verify(self, claimed_height=None):
        """All four relations, the tau closed formula, and the height claim.

        The relations are read from the residual D'.F - F.D of the lift F
        (module docstring); a residual with no entry passes all four and is
        not split.  A closed-formula row compares the stored tau with the
        sweep's and subtracts only when they differ.  A height-n morphism
        is accepted as height m for every m <= n.
        """
        x, y = self.source, self.target
        k, m = self.degree, _depth(self.tau)
        f = self._lift(m)
        total = f.assemble()
        residual = f.target.total_differential() @ total - total @ x.total_differential()
        if not residual.entries:
            checks = [(name, True, None) for name in _RELATIONS]
        else:
            a, b, e, c, _ = _blocks(residual, x, f.target)
            rel2 = -e if m == 0 else -_rows(b, y.red, k - 1, y.irr.rank)
            checks = [_rel(name, rel) for name, rel in zip(_RELATIONS, (
                _rows(a, y.irr, k - 1), rel2, -_rows(c, y.irr, k - 2),
                -_rows(b, y.irr, k - 2)))]
        bound = _tau_bound(x, y)
        taus = tau_closed_formula(x, y, self.lam, self.mu, self.delta1, self.delta2, bound)
        for i in range(1, bound + 1):
            got = self.tau.get(i)  # a zero or missing tau is None
            want = taus[i - 1] if i <= len(taus) and taus[i - 1].entries else None
            name = f"tau_{i} closed formula"
            checks.append((name, True, None) if got == want else _rel(
                name, -want if got is None else got if want is None else got - want))
        if claimed_height is not None:
            ok = not any(-bound <= i < min(claimed_height, bound + 1) for i in self.tau)
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


def _unlift(h, z, m):
    """kappa_m . h: the height morphism X -> Z of degree k of an S-morphism
    h: X -> S = Sigma^m Z of degree k + 2m.  With lambda_h, mu_h and
    Delta2_h read on the rows of C_Z in C_S,

        lambda = lambda_h + sum_{j<m} v_Z^j.delta2_Z.W_{m-1-j},
        mu = mu_h,   Delta1 = W_m,   Delta2 = Delta2_h,
        W_i = Delta1_h.v_X^i + sum_{j<i} delta1_S.v_S^j.mu_h.v_X^{i-1-j},

    made by W_0 = Delta1_h, W_{i+1} = W_i.v_X + delta1_S.v_S^i.mu_h and the
    matching Horner steps for lambda.  tau_i = tau_{i+m}(h) for -m <= i <= 0
    (tau_0(h) = rho_h, the rest by the closed formula), within the bound."""
    x, s = h.source, h.target
    k = h.degree - 2 * m
    left_s = Sweep(s.delta1, s.v)  # delta1_S v_S^j
    w, extra = h.delta1, GradedMatrix.zero(x.irr, z.irr, k)
    for i in range(m):
        extra = z.v @ extra + z.delta2 @ w
        w = w @ x.v + left_s[i] @ h.mu
    taus = [h.rho] + tau_closed_formula(x, s, h.lam, h.mu, h.delta1, h.delta2, m)
    bound = _tau_bound(x, z)
    return HeightMorphism.from_components(
        x, z, k, _rows(h.lam, z.irr, k) + extra, _rows(h.mu, z.irr, k - 1), w,
        _rows(h.delta2, z.irr, k - 1),
        {i - m: t for i, t in enumerate(taus) if i - m >= -bound})


def _tower(h, m, n):
    """Sigma^n of the lift of h of depth m, one `suspend_morphism` at a time."""
    lifted = h._lift(m)
    for _ in range(n):
        lifted = suspend_morphism(lifted)
    return lifted


def compose_heights(g, f):
    """Composite of height morphisms (g after f), heights add: the lifts
    composed in the suspension tower and brought back by `_unlift`."""
    if f.target.irr.gens != g.source.irr.gens or f.target.red.gens != g.source.red.gens:
        raise ShapeMismatch("heights composition endpoints disagree")
    mf, mg = _depth(f.tau), _depth(g.tau)
    return _unlift(_tower(g, mg, mf).compose_after(f._lift(mf)), g.target, mf + mg)


def factor_through_suspension(f):
    """Factor a height-n morphism through the suspension tower.

    n >= 1: returns a height-0 morphism Sigma^n X -> X' with rho' = tau_n,
    satisfying (returned) . iota_n = f; it is f . kappa_n, the unlift of
    Sigma^n of the plain morphism (the lift of kappa_n is the identity of
    Sigma^n X).
    n <= -1: returns a height-0 morphism X -> Sigma^{|n|} X' with
    tau' = tau_n, satisfying kappa_{|n|} . (returned) = f; it is the lift.
    n = 0: returns f itself.
    """
    n = f.height
    if n == 0:
        return f
    if n > 0:
        return _unlift(_tower(f, 0, n), f.target, n)
    return HeightMorphism.from_morphism(f._lift(-n))


def height_to_json(h):
    """The morphism document extended with height and tau keys (nonpositive
    taus only; positive ones are determined by the closed formula)."""
    from .scomplex import matrix_to_json, morphism_to_json

    doc = morphism_to_json(h._lift(0), include_complexes=True)
    doc.pop("rho", None)
    doc["height"] = h.height
    doc["tau"] = {str(i): matrix_to_json(t, by_name=False)
                  for i, t in h.tau.items() if i <= 0}
    return doc


def heights_equal(a, b):
    """Componentwise equality including the tau families."""
    return (a.lam == b.lam and a.mu == b.mu and a.delta1 == b.delta1
            and a.delta2 == b.delta2 and a.tau == b.tau)  # tau holds no zero


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
    """Odd g after a height-(-1) even f, with the nu-corrected components:
    `odd_to_suspension_morphism(g)` after the lift X -> Sigma X' of f."""
    if any(i < -1 for i in f.tau):
        raise ShapeMismatch("f must have height >= -1")
    return odd_to_suspension_morphism(g).compose_after(f._lift(1))


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
    return SMorphism(syp, z, k, lam, mu, d1, d2)
