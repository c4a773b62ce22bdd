"""Operations on S-complexes: duals, tensor products, mapping cones, direct
sums, suspensions, the atomic complexes O(n), and explicit equivalence
witnesses for the suspension/tensor comparison."""

from __future__ import annotations

from .errors import RingMismatch, ShapeMismatch
from .gradedlin import GradedMatrix, GradedModule
from .rings import Z
from .scomplex import RelationReport, SComplex, SHomotopy, SMorphism


def _sgn(dom, deg, x):
    """(-1)^deg x for a raw value x of the domain `dom`; parity is always
    taken mod 2."""
    return x if deg % 2 == 0 else dom.neg(x)


def _signs(module):
    """The diagonal eps = (-1)^deg of `module`, of degree 0."""
    dom = module.ring.domain
    signs = (dom.one, dom.minus_one)
    return GradedMatrix._new(module, module, 0, {(i, i): signs[d % 2]
                                                 for i, (_, d) in enumerate(module.gens)})


# ---------------------------------------------------------------------------
# Dual.


def dual(x):
    """The dual S-complex: delta1 and delta2 swap roles, degrees reflect.

    With the convention m'(f) = -eps(f) f(m), the canonical splitting puts the
    dual of a C-generator of degree a in degree -a-1 and the dual of an
    R-generator of degree b in degree -b.  Componentwise, for entries m[t,s]
    of X's maps, with deg(s) the degree in X of the source generator s:

        d*  [s,t] = -(-1)^deg(s) d[t,s]      v*  [s,t] = v[t,s]
        delta1* [s,t] = delta2[t,s]          delta2* [s,t] = (-1)^deg(s) delta1[t,s]
        r*  [s,t] = (-1)^deg(s) r[t,s]
    """
    ring, mod = x.ring, x.modulus
    irr = GradedModule(ring, mod, [(f"{n}*", -d - 1) for n, d in x.irr.gens])
    red = GradedModule(ring, mod, [(f"{n}*", -d) for n, d in x.red.gens])

    dom = ring.domain

    def flip(m, newsrc, newtgt, degree, sign_by=None):
        ent = {}
        for (t, s), val in m.entries.items():
            v = val
            if sign_by == "src_c":
                v = _sgn(dom, x.irr.degree(s) + 1, v)
            elif sign_by == "tgt_r":
                v = _sgn(dom, x.red.degree(t) + 1, v)
            ent[(s, t)] = v
        return GradedMatrix(newsrc, newtgt, degree, ent)

    d_new = flip(x.d, irr, irr, -1, sign_by="src_c")
    v_new = flip(x.v, irr, irr, -2)
    delta1_new = flip(x.delta2, irr, red, -1)
    delta2_new = flip(x.delta1, red, irr, -2, sign_by="tgt_r")
    r_new = flip(x.r, red, red, -1, sign_by="tgt_r")
    meta = dict(x.metadata)
    meta["dual_of"] = meta.pop("name", None) or "?"
    return SComplex(irr, red, d_new, v_new, delta1_new, delta2_new, r_new, None, meta)


# ---------------------------------------------------------------------------
# Tensor product.


def _tensor_module(m, n):
    """m ⊗ n: generator a⊗b of degree deg a + deg b, in the order a·|n| + b.
    A compound factor name is parenthesized, so nested tensors cannot produce
    colliding names."""
    def factor(a):
        return f"({a})" if "⊗" in a else a

    return GradedModule(m.ring, m.modulus, [(f"{factor(a)}⊗{factor(b)}", da + db)
                                            for a, da in m.gens for b, db in n.gens])


def _kron(a, b, products):
    """The Kronecker product a ⊗ b, from products[a.source, b.source] to
    products[a.target, b.target] (`products` maps module pairs to their
    `_tensor_module`): entry (ta·|b| + tb, sa·|b| + sb) is a[ta,sa]·b[tb,sb].
    A factor entry of 1 or -1, as in an identity or a sign diagonal, takes the
    other's value or its negation; no ring product is formed for it."""
    dom = a.ring.domain
    one, minus_one, neg, mul = dom.one, dom.minus_one, dom.neg, dom.mul
    nt, ns = b.target.rank, b.source.rank
    ent = {}
    for (ta, sa), p in a.entries.items():
        rt, rs = ta * nt, sa * ns
        for (tb, sb), q in b.entries.items():
            ent[rt + tb, rs + sb] = (q if p == one else neg(q) if p == minus_one
                                     else p if q == one else neg(p) if q == minus_one
                                     else mul(p, q))
    return GradedMatrix._new(products[a.source, b.source], products[a.target, b.target],
                             a.degree + b.degree, ent)


def _tensor_bands(x, y):
    """The offsets of the bands C·C', (C·C')[-1], C·R', R·C' that make up the
    irreducible module of x ⊗ y, for C, R the modules of x and C', R' those of
    y; its reducible module is R·R'."""
    ncc = x.irr.rank * y.irr.rank
    return 0, ncc, 2 * ncc, 2 * ncc + x.irr.rank * y.red.rank


def tensor(x, y):
    """The tensor S-complex of x (modules C, R) and y (C', R') on the bands of
    `_tensor_bands`.  Every block is a sum of Koszul-signed Kronecker terms
    A ⊗ 1 and eps ⊗ B, where eps = (-1)^deg is a sign diagonal of x."""
    if x.ring != y.ring:
        raise RingMismatch("tensor over different rings")
    if x.modulus != y.modulus:
        raise ShapeMismatch("tensor over different moduli")
    ps = {(m, n): _tensor_module(m, n) for m in (x.irr, x.red) for n in (y.irr, y.red)}
    c_c = ps[x.irr, y.irr]
    irr = GradedModule(x.ring, x.modulus,
                       c_c.gens + tuple((f"{n}·s", d + 1) for n, d in c_c.gens)
                       + ps[x.irr, y.red].gens + ps[x.red, y.irr].gens)
    red = ps[x.red, y.red]
    _, ccs, cr, rc = _tensor_bands(x, y)
    one_r = GradedMatrix.identity(x.red)
    one_c2, one_r2 = GradedMatrix.identity(y.irr), GradedMatrix.identity(y.red)
    eps_c, eps_r = _signs(x.irr), _signs(x.red)
    d_1, eps_d, v_1 = _kron(x.d, one_c2, ps), _kron(eps_c, y.d, ps), _kron(x.v, one_c2, ps)

    d = [(d_1, 0, 0), (eps_d, 0, 0),
         (_kron(-(eps_c @ x.v), one_c2, ps), ccs, 0), (_kron(eps_c, y.v, ps), ccs, 0),
         (d_1, ccs, ccs), (-eps_d, ccs, ccs), (_kron(eps_c, y.delta2, ps), ccs, cr),
         (_kron(-(eps_c @ x.delta2), one_c2, ps), ccs, rc),
         (_kron(eps_c, y.delta1, ps), cr, 0), (_kron(x.d, one_r2, ps), cr, cr),
         (_kron(eps_c, y.r, ps), cr, cr),
         (_kron(x.delta1, one_c2, ps), rc, 0), (_kron(eps_r, y.d, ps), rc, rc),
         (_kron(x.r, one_c2, ps), rc, rc)]
    v = [(v_1, 0, 0), (_kron(x.delta2, one_c2, ps), 0, rc), (v_1, ccs, ccs),
         (_kron(x.v, one_r2, ps), cr, cr), (_kron(eps_r @ x.delta1, one_c2, ps), rc, ccs),
         (_kron(one_r, y.v, ps), rc, rc)]
    delta1 = [(_kron(x.delta1, one_r2, ps), 0, cr), (_kron(eps_r, y.delta1, ps), 0, rc)]
    delta2 = [(_kron(x.delta2, one_r2, ps), cr, 0), (_kron(one_r, y.delta2, ps), rc, 0)]
    r = [(_kron(x.r, one_r2, ps), 0, 0), (_kron(eps_r, y.r, ps), 0, 0)]
    return SComplex(irr, red, d, v, delta1, delta2, r, None,
                    {"tensor_of": [x.metadata.get("name"), y.metadata.get("name")]})


def connected_sum_model(x, y):
    """Alias of tensor with concatenated naming metadata."""
    return _with_metadata(tensor(x, y),
                          connected_sum=[x.metadata.get("name"), y.metadata.get("name")])


def _with_metadata(x, **extra):
    """x with `extra` added to its metadata, as a new complex."""
    return SComplex(x.irr, x.red, *[getattr(x, name) for name in SComplex._NAMES], x.s,
                    {**x.metadata, **extra})


# ---------------------------------------------------------------------------
# Mapping cone and direct sum.


def cone(f):
    """Mapping cone of a degree-k morphism, in the standard 6x6 block basis.

    Components: d = [[-d,0],[lam,d']], v = [[v,0],[mu,v']],
    delta1 = [[-delta1,0],[Delta1,delta1']], delta2 = [[delta2,0],[Delta2,delta2']],
    r = [[-r,0],[rho,r']].  Source generators shift by 1 + k.
    """
    x, y = f.source, f.target
    k = f.degree
    ring, mod = x.ring, x.modulus
    shift = 1 + k
    irr = GradedModule(ring, mod, [(f"A.{n}", d + shift) for n, d in x.irr.gens]
                       + [(f"B.{n}", d) for n, d in y.irr.gens])
    red = GradedModule(ring, mod, [(f"A.{n}", d + shift) for n, d in x.red.gens]
                       + [(f"B.{n}", d) for n, d in y.red.gens])
    na, nr = x.irr.rank, x.red.rank
    return SComplex(irr, red,
                    [(-x.d, 0, 0), (f.lam, na, 0), (y.d, na, na)],
                    [(x.v, 0, 0), (f.mu, na, 0), (y.v, na, na)],
                    [(-x.delta1, 0, 0), (f.delta1, nr, 0), (y.delta1, nr, na)],
                    [(x.delta2, 0, 0), (f.delta2, na, 0), (y.delta2, na, nr)],
                    [(-x.r, 0, 0), (f.rho, nr, 0), (y.r, nr, nr)],
                    None, {"cone_degree": k})


def direct_sum(x, y):
    """Block-diagonal direct sum (equal to the cone of the zero morphism up
    to a sign change on the first summand)."""
    if x.ring != y.ring:
        raise RingMismatch("direct sum over different rings")
    if x.modulus != y.modulus:
        raise ShapeMismatch("direct sum over different moduli")
    ring, mod = x.ring, x.modulus
    irr = GradedModule(ring, mod, [(f"A.{n}", d) for n, d in x.irr.gens]
                       + [(f"B.{n}", d) for n, d in y.irr.gens])
    red = GradedModule(ring, mod, [(f"A.{n}", d) for n, d in x.red.gens]
                       + [(f"B.{n}", d) for n, d in y.red.gens])
    na, nr = x.irr.rank, x.red.rank
    s = None
    if x.s is not None and y.s is not None:
        s = [(x.s, 0, 0), (y.s, nr, nr)]
    return SComplex(irr, red,
                    [(x.d, 0, 0), (y.d, na, na)], [(x.v, 0, 0), (y.v, na, na)],
                    [(x.delta1, 0, 0), (y.delta1, nr, na)], [(x.delta2, 0, 0), (y.delta2, na, nr)],
                    [(x.r, 0, 0), (y.r, nr, nr)], s,
                    {"sum_of": [x.metadata.get("name"), y.metadata.get("name")]})


# ---------------------------------------------------------------------------
# Suspension.


def suspend_once(x):
    """One suspension step, built on first use and kept on x (`_suspension`)."""
    if x._suspension is None:
        object.__setattr__(x, "_suspension", _suspension(x))
    return x._suspension


def _suspension(x):
    """One suspension step: C_S = C[-2] + R[-1], R_S = R, with

        d_S = [[d,-delta2],[0,-r]]   v_S = [[v,0],[delta1,0]]
        delta2_S = [v delta2; delta1 delta2]   delta1_S = [0, 1]   r_S = r
    """
    ring, mod = x.ring, x.modulus
    irr = GradedModule(ring, mod, [(f"s.{n}", d + 2) for n, d in x.irr.gens]
                       + [(f"q.{n}", d + 1) for n, d in x.red.gens])
    nc = x.irr.rank
    return SComplex(irr, x.red, [(x.d, 0, 0), (-x.delta2, 0, nc), (-x.r, nc, nc)],
                    [(x.v, 0, 0), (x.delta1, nc, 0)], [(GradedMatrix.identity(x.red), 0, nc)],
                    [(x.v @ x.delta2, 0, 0), (x.delta1 @ x.delta2, nc, 0)], x.r, None,
                    {"suspended": 1})


def desuspend_once(x):
    """Negative suspension: C_S = C[2] + R[2], R_S = R, with

        d_S = [[d,0],[delta1,r]]   v_S = [[v,delta2],[0,0]]
        delta2_S = [0; 1]   delta1_S = [delta1 v, delta1 delta2]   r_S = r
    """
    ring, mod = x.ring, x.modulus
    irr = GradedModule(ring, mod, [(f"s.{n}", d - 2) for n, d in x.irr.gens]
                       + [(f"q.{n}", d - 2) for n, d in x.red.gens])
    nc = x.irr.rank
    return SComplex(irr, x.red, [(x.d, 0, 0), (x.delta1, nc, 0), (x.r, nc, nc)],
                    [(x.v, 0, 0), (x.delta2, 0, nc)],
                    [(x.delta1 @ x.v, 0, 0), (x.delta1 @ x.delta2, 0, nc)],
                    [(GradedMatrix.identity(x.red), nc, 0)], x.r, None, {"suspended": -1})


def suspend(x, n):
    """Sigma^n by iterating the single-step definition (n may be negative)."""
    out = x
    for _ in range(abs(n)):
        out = suspend_once(out) if n > 0 else desuspend_once(out)
    return out


# ---------------------------------------------------------------------------
# Atomic complexes.


def atomic(n, ring=Z, modulus=4):
    """O(n): O(0) has C = 0, R = R_(0); O(1) and O(-1) are the one-step
    suspensions; |n| > 1 is a tensor power."""
    red = GradedModule(ring, modulus, [("w", 0)])
    if n == 0:
        return SComplex(GradedModule(ring, modulus, []), red, metadata={"name": "O(0)"})
    if n == 1:
        irr = GradedModule(ring, modulus, [("u", 1)])
        d1 = GradedMatrix.from_named(irr, red, -1, [("w", "u", ring.one())])
        return SComplex(irr, red, delta1=d1, metadata={"name": "O(1)"})
    if n == -1:
        irr = GradedModule(ring, modulus, [("u", -2)])
        d2 = GradedMatrix.from_named(red, irr, -2, [("u", "w", ring.one())])
        return SComplex(irr, red, delta2=d2, metadata={"name": "O(-1)"})
    step = atomic(1 if n > 0 else -1, ring, modulus)
    out = step
    for _ in range(abs(n) - 1):
        out = tensor(out, step)
    return _with_metadata(out, name=f"O({n})")


# ---------------------------------------------------------------------------
# Equivalence witnesses.


class EquivalenceWitness:
    """A homotopy equivalence: forward/backward morphisms plus homotopies.

    Either homotopy slot may be None, recording that the corresponding
    composite equals the identity on the nose.
    """

    def __init__(self, forward, backward, homotopy_fwd_back=None, homotopy_back_fwd=None):
        self.forward = forward
        self.backward = backward
        self.homotopy_fwd_back = homotopy_fwd_back  # between backward.forward-side composite and 1
        self.homotopy_back_fwd = homotopy_back_fwd

    def verify(self):
        checks = []
        checks.extend(("forward " + n, ok, off) for n, ok, off in self.forward.verify().checks)
        checks.extend(("backward " + n, ok, off) for n, ok, off in self.backward.verify().checks)
        ba = self.backward.compose_after(self.forward)
        ab = self.forward.compose_after(self.backward)
        id_src = SMorphism.identity(self.forward.source)
        id_tgt = SMorphism.identity(self.forward.target)
        if self.homotopy_back_fwd is None:
            checks.append(("backward.forward = 1", (ba - id_src).is_zero, None))
        else:
            checks.extend(("hbf " + n, ok, off)
                          for n, ok, off in self.homotopy_back_fwd.verify().checks)
        if self.homotopy_fwd_back is None:
            checks.append(("forward.backward = 1", (ab - id_tgt).is_zero, None))
        else:
            checks.extend(("hfb " + n, ok, off)
                          for n, ok, off in self.homotopy_fwd_back.verify().checks)
        return RelationReport(checks)


def suspension_witness(x):
    """The explicit equivalence Sigma X ~ X . O(1), with lambda'.lambda = 1
    and a homotopy from lambda.lambda' to the identity on the tensor side.

    The tensor's irreducible module is the four bands C.u, (C.u)[-1], C.w,
    R.u of rank nc, nc, nc, nr, at the offsets `_tensor_bands` gives (its
    reducible module is R.w), and that of
    Sigma X is C then R; every map places blocks of X, identities and the
    sign diagonals eps = (-1)^deg of C and R."""
    o1 = atomic(1, x.ring, x.modulus)
    t = tensor(x, o1)
    sx = suspend_once(x)
    nc = x.irr.rank
    _, ccs, cr, rc = _tensor_bands(x, o1)
    one_c, one_r = GradedMatrix.identity(x.irr), GradedMatrix.identity(x.red)
    eps_c, eps_r = _signs(x.irr), _signs(x.red)

    # forward: Sigma X -> X.O(1)
    fwd = SMorphism(sx, t, 0, [(one_c, ccs, 0), (eps_r, rc, nc)], [(x.r, rc, nc)],
                    delta2=[(eps_c @ x.delta2, 0, 0), (eps_c @ x.delta2 @ x.r, ccs, 0)],
                    rho=[(one_r, 0, 0)])

    # backward: X.O(1) -> Sigma X, with lambda' = [[d, 1, v, 0], [0, 0, delta1, eps]]
    bwd = SMorphism(t, sx, 0, [(x.d, 0, 0), (one_c, 0, ccs), (x.v, 0, cr), (x.delta1, nc, cr),
                               (eps_r, nc, rc)],
                    [(x.delta1, nc, 0), (x.r, nc, rc)], rho=[(one_r, 0, 0)])

    # homotopy on the tensor side from fwd.bwd to the identity
    hfb = SHomotopy(fwd.compose_after(bwd), SMorphism.identity(t),
                    [(-eps_c, 0, cr), (-eps_c @ x.d, ccs, cr)], [(eps_r, rc, rc)],
                    M2=[(-eps_c @ x.delta2, ccs, 0), (x.r + x.r, rc, 0)])
    return EquivalenceWitness(fwd, bwd, homotopy_fwd_back=hfb, homotopy_back_fwd=None)


def o1_o_minus1_witness(ring=Z, modulus=4):
    """The equivalence O(1).O(-1) ~ O(0), with lambda.lambda' = 1 and an
    explicit homotopy from lambda'.lambda to the identity on the tensor."""
    t = tensor(atomic(1, ring, modulus), atomic(-1, ring, modulus))
    o0 = atomic(0, ring, modulus)
    one = GradedMatrix.identity(o0.red)  # the 1 x 1 identity, placed as each 1 below
    # forward: tensor -> O(0): rho = 1, Delta1 = [0,1,0,0]
    fwd = SMorphism(t, o0, 0, delta1=[(one, 0, 1)], rho=[(one, 0, 0)])
    # backward: O(0) -> tensor: rho = 1, Delta2 = [1,0,0,0]^T
    bwd = SMorphism(o0, t, 0, delta2=[(one, 0, 0)], rho=[(one, 0, 0)])
    # homotopy from bwd.fwd to 1 on the tensor, solved from the five graded
    # homotopy equations (deterministic particular solution)
    from .solve import solve_homotopy

    comp = bwd.compose_after(fwd)
    hbf = solve_homotopy(comp, SMorphism.identity(t))
    if hbf is None:
        raise RuntimeError("no homotopy from backward.forward to the identity")
    return EquivalenceWitness(fwd, bwd, homotopy_fwd_back=None, homotopy_back_fwd=hbf)


# ---------------------------------------------------------------------------
# Suspension of morphisms and homotopies (closed block formulas, r-perfect).


def suspend_morphism(f):
    """Sigma f between suspensions: lambda_S = [[lambda, Delta2], [0, rho]],
    mu_S = [[mu, 0], [Delta1, 0]], Delta2_S = [mu delta2 + v' Delta2;
    Delta1 delta2 + delta1' Delta2] and rho_S = rho, blockwise."""
    x, y = f.source, f.target
    x.require_r_perfect("suspension of a morphism")
    y.require_r_perfect("suspension of a morphism")
    nc, mc = x.irr.rank, y.irr.rank
    return SMorphism(suspend_once(x), suspend_once(y), f.degree,
                     [(f.lam, 0, 0), (f.delta2, 0, nc), (f.rho, mc, nc)],
                     [(f.mu, 0, 0), (f.delta1, mc, 0)],
                     delta2=[(f.mu @ x.delta2 + y.v @ f.delta2, 0, 0),
                             (f.delta1 @ x.delta2 + y.delta1 @ f.delta2, mc, 0)], rho=f.rho)


def suspend_homotopy(h):
    """Sigma K between the suspended morphisms, blockwise."""
    f, g = h.frm, h.to
    x, y = f.source, f.target
    x.require_r_perfect("suspension of a homotopy")
    y.require_r_perfect("suspension of a homotopy")
    sf, sg = suspend_morphism(f), suspend_morphism(g)
    nc, mc = x.irr.rank, y.irr.rank
    return SHomotopy(sf, sg, [(h.K, 0, 0), (-h.M2, 0, nc), (-h.J, mc, nc)],
                     [(h.L, 0, 0), (h.M1, mc, 0)],
                     M2=[(y.v @ h.M2 + h.L @ x.delta2, 0, 0),
                         (y.delta1 @ h.M2 + h.M1 @ x.delta2, mc, 0)], J=h.J)
