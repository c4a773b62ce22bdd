"""Link families: stored complexes for the 2-strand torus family, signature
and determinant tables, Alexander polynomials, quasi-alternating ranks, the
skein Euler-characteristic recursion, and the I-basic bookkeeping.

Alexander polynomials are stored with doubled exponents (the variable u is a
square root of t), so links with half-integer exponents stay exact.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .errors import (
    DetZero,
    InconsistentLeafData,
    NonIntegralRank,
    SchemaError,
    ScxError,
    UnsupportedFamily,
    clip,
)
from .gradedlin import GradedMatrix, GradedModule
from .rings import (
    FRAC_LAURENT_Q,
    LAU_ONE,
    LAU_ZERO,
    LAURENT_Z,
    RingElement,
    lau_add,
    lau_mul,
    lau_neg,
    lau_shift,
    ratfun_normalize,
)
from .scomplex import SComplex
from .triangles import classify_skein


# ---------------------------------------------------------------------------
# Alexander polynomials in u = t^(1/2).


class AlexPoly:
    """An integer Laurent polynomial in u = t^(1/2) (doubled exponents)."""

    def __init__(self, lau):
        self.lau = tuple(sorted(lau))

    @classmethod
    def zero(cls):
        return cls(LAU_ZERO)

    @classmethod
    def one(cls):
        return cls(LAU_ONE)

    @classmethod
    def monomial(cls, e, c=1):
        return cls(((e, c),) if c else LAU_ZERO)

    def __add__(self, other):
        return AlexPoly(lau_add(self.lau, other.lau))

    def __sub__(self, other):
        return AlexPoly(lau_add(self.lau, lau_neg(other.lau)))

    def __mul__(self, other):
        return AlexPoly(lau_mul(self.lau, other.lau))

    def __neg__(self):
        return AlexPoly(lau_neg(self.lau))

    def __eq__(self, other):
        return isinstance(other, AlexPoly) and self.lau == other.lau

    @property
    def is_zero(self):
        return not self.lau

    def eval_minus_one(self):
        """Delta(-1) via u = sqrt(-1), as a Gaussian integer (re, im)."""
        re = im = 0
        for e, c in self.lau:
            k = e % 4
            if k == 0:
                re += c
            elif k == 1:
                im += c
            elif k == 2:
                re -= c
            else:
                im -= c
        return re, im

    def det(self):
        """|Delta(-1)|; exactly one of the Gaussian parts vanishes for links."""
        re, im = self.eval_minus_one()
        if re and im:
            raise UnsupportedFamily("determinant evaluation is not Gaussian-pure")
        return abs(re) + abs(im)

    def coeff_abs_sum(self):
        return sum(abs(c) for _, c in self.lau)

    def normalized(self):
        """Scale by a unit so the polynomial has positive leading coefficient
        and symmetric exponent range when possible."""
        if not self.lau:
            return self
        lo, hi = self.lau[0][0], self.lau[-1][0]
        shift = -(lo + hi) // 2 if (lo + hi) % 2 == 0 else 0
        out = lau_shift(self.lau, shift)
        if out[-1][1] < 0:
            out = lau_neg(out)
        return AlexPoly(out)

    def __str__(self):
        if not self.lau:
            return "0"
        parts = []
        for e, c in sorted(self.lau, reverse=True):
            if e == 0:
                mono = ""
            elif e % 2 == 0:
                mono = f"t^{e // 2}" if e != 2 else "t"
            else:
                mono = f"t^({e}/2)"
            if not mono:
                term = str(abs(c))
            elif abs(c) == 1:
                term = mono
            else:
                term = f"{abs(c)}*{mono}"
            parts.append(("- " if c < 0 else "+ ") + term)
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]


def _u(e, c=1):
    return AlexPoly.monomial(e, c)


_Z_CONWAY = _u(1) - _u(-1)  # t^(1/2) - t^(-1/2)


def _alex_divexact(num, den):
    """Exact division of AlexPoly by AlexPoly via the fraction field."""
    el = RingElement(FRAC_LAURENT_Q, ratfun_normalize(num.lau, den.lau))
    n, d = el.val
    if d != LAU_ONE:
        raise UnsupportedFamily("polynomial division was not exact")
    return AlexPoly(n)


def alexander_torus2(k):
    """Delta of T(2, k), k >= 1 (and mirrors for k <= -1)."""
    if k == 0:
        raise UnsupportedFamily("T(2, 0) is not a link of this family")
    a = abs(k)
    if a == 1:
        return AlexPoly.one()
    num = _u(2 * a) + (_u(0) if a % 2 else -_u(0))
    # (u^{2a} +- 1) / (u^2 + 1): odd a gives +, even a gives -
    den = _u(2) + _u(0)
    out = _alex_divexact(num, den)
    return out.normalized()


def alexander_torus(p, q):
    """Delta of the (p, q) torus knot, p, q coprime positive."""
    if gcd(p, q) != 1:
        raise UnsupportedFamily("torus knot needs coprime parameters")
    num = (_u(p * q) - _u(-p * q)) * (_u(1) - _u(-1))
    den = (_u(p) - _u(-p)) * (_u(q) - _u(-q))
    return _alex_divexact(num, den).normalized()


_PRETZEL_CACHE = {}


def alexander_pretzel(n):
    """Delta of P(-2, 3, n) for n >= 0, by the oriented skein recursion
    Delta_{P_{m+2}} = Delta_{P_m} + (t^(1/2) - t^(-1/2)) Delta_{P_{m+1}},
    anchored at P_0 = trefoil # Hopf and P_1 = T(2, 5)."""
    if n < 0:
        raise UnsupportedFamily("pretzel table covers n >= 0")
    if n in _PRETZEL_CACHE:
        return _PRETZEL_CACHE[n]
    p0 = (_u(2) - _u(0) + _u(-2)) * _Z_CONWAY
    p1 = alexander_torus2(5)
    _PRETZEL_CACHE[0], _PRETZEL_CACHE[1] = p0, p1
    m = max(k for k in _PRETZEL_CACHE if k <= n)
    while m < n:
        nxt = _PRETZEL_CACHE[m - 1] + _Z_CONWAY * _PRETZEL_CACHE[m]
        _PRETZEL_CACHE[m + 1] = nxt
        m += 1
    return _PRETZEL_CACHE[n]


def alexander_twisted_torus(p, q, k2):
    """Delta of T(p, q; 2, k) with k = k2/2, via the closed braid formula.

    Everything is computed exactly in the fraction field in u and the result
    is required to be a genuine Laurent polynomial (the t = -1 evaluation
    then needs no limits).  The closed form covers integer k (knots); the
    half-integer links interpolate through the oriented skein relation
    Delta(k+1) - Delta(k) = (t^(1/2) - t^(-1/2)) Delta(k+1/2).
    """
    if p < 2 or q < 2 or gcd(p, q) != 1:
        raise UnsupportedFamily("twisted torus needs coprime p, q >= 2")
    if k2 < 0:
        raise UnsupportedFamily("twisted torus table covers k >= 0")
    if k2 % 2 == 1:
        above = alexander_twisted_torus(p, q, k2 + 1)
        below = alexander_twisted_torus(p, q, k2 - 1)
        return _alex_divexact(above - below, _Z_CONWAY)
    r = next(rr for rr in range(1, p) if (rr * q) % p == (-1) % p)
    # numerator: u^{-(p-1)(q-1)-k2} (u^2-1)
    #            [ u^{2pq+2k2} - 1 - (u^{2k2}-1)/(u^2+1) (u^{2(rq+1)} + u^{2(p-r)q}) ]
    pref = _u(-((p - 1) * (q - 1) + k2)) * (_u(2) - _u(0))
    bracket_main = _u(2 * p * q + 2 * k2) - _u(0)
    tw = _u(2 * k2) - _u(0)
    cross = _u(2 * (r * q + 1)) + _u(2 * (p - r) * q)
    num_a = pref * bracket_main
    num_b = pref * tw * cross
    den_main = (_u(2 * p) - _u(0)) * (_u(2 * q) - _u(0))
    den_b = den_main * (_u(2) + _u(0))
    fa = RingElement(FRAC_LAURENT_Q, ratfun_normalize(num_a.lau, den_main.lau))
    fb = RingElement(FRAC_LAURENT_Q, ratfun_normalize(num_b.lau, den_b.lau))
    total = fa - fb
    n, d = total.val
    if d != LAU_ONE:
        raise UnsupportedFamily("twisted torus Alexander did not reduce to a polynomial")
    return AlexPoly(n).normalized()


# ---------------------------------------------------------------------------
# Link descriptors and their invariant tables.


class LinkDescriptor:
    """One of the supported families with validated parameters."""

    FAMILIES = ("unknot", "hopf", "torus2", "pretzel", "twisted")

    def __init__(self, family, **params):
        if family not in self.FAMILIES:
            raise UnsupportedFamily(f"unknown family {family!r}")
        self.family = family
        self.params = dict(params)
        if family == "torus2":
            k = params.get("k")
            if not isinstance(k, int) or k == 0:
                raise UnsupportedFamily("torus2 needs a nonzero integer k")
        elif family == "pretzel":
            n = params.get("n")
            if not isinstance(n, int) or n <= 0:
                raise UnsupportedFamily("pretzel table covers n > 0")
        elif family == "twisted":
            p, q, k2 = params.get("p"), params.get("q"), params.get("k2")
            if not all(isinstance(v, int) for v in (p, q, k2)):
                raise UnsupportedFamily("twisted torus needs integers p, q and k2 = 2k")
            # the closed braid formula degenerates at q = 1
            if p < 2 or q < 2 or gcd(p, q) != 1 or k2 < 0:
                raise UnsupportedFamily("twisted torus needs coprime p, q >= 2 and k >= 0")

    @property
    def components(self):
        if self.family in ("unknot",):
            return 1
        if self.family == "hopf":
            return 2
        if self.family == "torus2":
            return 2 if self.params["k"] % 2 == 0 else 1
        if self.family == "pretzel":
            return 2 if self.params["n"] % 2 == 0 else 1
        return 1 if self.params["k2"] % 2 == 0 else 2

    def __repr__(self):
        if self.family == "torus2":
            return f"T(2,{self.params['k']})"
        if self.family == "pretzel":
            return f"P(-2,3,{self.params['n']})"
        if self.family == "twisted":
            k2 = self.params["k2"]
            kstr = str(k2 // 2) if k2 % 2 == 0 else f"{k2}/2"
            return f"T({self.params['p']},{self.params['q']};2,{kstr})"
        return self.family


def unknot():
    return LinkDescriptor("unknot")


def hopf():
    return LinkDescriptor("hopf")


def torus2(k):
    return LinkDescriptor("torus2", k=k)


def pretzel(n):
    return LinkDescriptor("pretzel", n=n)


def twisted_torus(p, q, k2):
    return LinkDescriptor("twisted", p=p, q=q, k2=k2)


def signatures(desc):
    """Signatures per quasi-orientation, from the stored case tables."""
    f = desc.family
    if f == "unknot":
        return {"o": 0}
    if f == "hopf":
        return {"o+": -1, "o-": 1}
    if f == "torus2":
        k = desc.params["k"]
        if k >= 1:
            if k % 2 == 1:
                return {"o": 1 - k}
            return {"o+": 1 - k, "o-": 1}
        pos = signatures(torus2(-k))
        if "o" in pos:
            return {"o": -pos["o"]}
        return {"o+": -pos["o-"], "o-": -pos["o+"]}
    if f == "pretzel":
        n = desc.params["n"]
        if n % 2 == 1:
            return {"o": -n - 1 if n >= 7 else -n - 3}
        if n >= 8:
            return {"o+": -n - 1, "o-": 1}
        if n == 6:
            return {"o+": -8, "o-": 0}
        return {"o+": -n - 3, "o-": -1}
    # twisted torus: signatures are tabulated for the T(3, 3n+2; 2, k) knots
    p, q, k2 = desc.params["p"], desc.params["q"], desc.params["k2"]
    if p != 3 or (q - 2) % 3 != 0 or q < 5 or k2 % 2 != 0:
        raise UnsupportedFamily("twisted signatures known for T(3,3n+2;2,k), k integral")
    n = (q - 2) // 3
    k = k2 // 2
    if k == 0:
        sig = -4 * n - 4 if n % 2 == 1 else -4 * n - 2
    else:
        sig = -4 * n - 2 - 2 * k
    return {"o": sig}


def murasugi_xi(desc):
    """The average of the signatures over all quasi-orientations."""
    sigs = signatures(desc)
    return Fraction(sum(sigs.values()), len(sigs))


def alexander(desc):
    f = desc.family
    if f == "unknot":
        return AlexPoly.one()
    if f == "hopf":
        return alexander_torus2(2)
    if f == "torus2":
        return alexander_torus2(abs(desc.params["k"]))
    if f == "pretzel":
        return alexander_pretzel(desc.params["n"])
    return alexander_twisted_torus(desc.params["p"], desc.params["q"], desc.params["k2"])


def determinant(desc):
    """The determinant, by the family case table, cross-checked against
    |Delta(-1)| whenever the Alexander polynomial is available."""
    f = desc.family
    if f == "unknot":
        table = 1
    elif f == "hopf":
        table = 2
    elif f == "torus2":
        table = abs(desc.params["k"])
    elif f == "pretzel":
        table = abs(desc.params["n"] - 6)
    else:
        p, q, k2 = desc.params["p"], desc.params["q"], desc.params["k2"]
        r = next(rr for rr in range(1, p) if (rr * q) % p == (-1) % p)
        if p % 2 == 1 and q % 2 == 1:
            table = abs(k2 + (-1) ** r)
        elif p % 2 == 0:
            table = abs(q * (1 - k2) + (2 * k2 * (1 + r * q)) // p)
        else:
            table = abs((k2 + 1) * p - 2 * k2 * r)
    det_poly = alexander(desc).det()
    if det_poly != table:
        raise UnsupportedFamily(
            f"determinant table {table} disagrees with |Delta(-1)| = {det_poly} for {desc!r}")
    return table


def murasugi_congruence_ok(desc):
    """|sigma| + 1 = det (mod 4) for the family knots."""
    if desc.components != 1:
        return True
    sig = signatures(desc)["o"]
    return (abs(sig) + 1 - determinant(desc)) % 4 == 0


# ---------------------------------------------------------------------------
# Stored complexes for the 2-strand torus family (local coefficients).


def _t_unit():
    """T^2 - T^-2, as a raw value of Z[T^{+-1}]."""
    return LAURENT_Z.domain.sub(((2, 1),), ((-2, 1),))


def torus_link_complex(k):
    """The S-complex of T(2, 2k) over Z[T^{+-1}]: generators xi^1..xi^{k-1},
    two reducibles theta+ (degree 0) and theta- (degree 2k mod 4), with
    delta1(xi^1) = (T^2 - T^-2) theta+ and v(xi^i) = (T^2 - T^-2) xi^{i-1}.

    For k = 1 this is the Hopf complex, which also carries its s-map
    s(theta-) = (T^2 - T^-2) theta+ (unit choice 1)."""
    if k < 1:
        raise UnsupportedFamily("torus link complex needs k >= 1")
    red = GradedModule(LAURENT_Z, 4, [("theta+", 0), ("theta-", 2 * k)])
    s = None
    if k == 1:
        s = GradedMatrix(red, red, -2, {(0, 1): _t_unit()})
    grz = {f"xi{i}": 2 * i - 1 for i in range(1, k)}
    grz["theta+"] = 0
    grz["theta-"] = 2 * k
    gri = {f"xi{i}": str(Fraction(i * i, 2 * k)) for i in range(1, k)}
    gri["theta+"] = "0"
    gri["theta-"] = str(Fraction(k, 2))
    meta = {"name": f"T(2,{2 * k})", "gr_z": grz, "gr_i": gri,
            "quasi_orientations": ["o+", "o-"]}
    if k == 1:
        meta["s_map_unit"] = "1 (fixed only up to a unit)"
    return _xi_chain(k, red, s, meta)


def torus_knot_summand(k):
    """The T(2, 2k-1) model for k >= 2: the 2k-strand complex with the
    unknot-summand reducible removed."""
    if k < 2:
        raise UnsupportedFamily("torus knot summand needs k >= 2")
    return _xi_chain(k, GradedModule(LAURENT_Z, 4, [("theta", 0)]), None,
                     {"name": f"T(2,{2 * k - 1})"})


def _xi_chain(k, red, s, metadata):
    """The complex of the torus models over Z[T^{+-1}] mod 4 on the
    generators xi^1..xi^{k-1} (xi^i of degree 2i - 1) and the reducible
    module `red`, with v(xi^i) = (T^2 - T^-2) xi^{i-1} and, when k >= 2,
    delta1(xi^1) = (T^2 - T^-2) times the first generator of `red`."""
    coeff = _t_unit()
    irr = GradedModule(LAURENT_Z, 4, [(f"xi{i}", 2 * i - 1) for i in range(1, k)])
    v = GradedMatrix(irr, irr, -2, {(i - 2, i - 1): coeff for i in range(2, k)})
    d1 = GradedMatrix(irr, red, -1, {(0, 0): coeff} if k >= 2 else {})
    return SComplex(irr, red, v=v, delta1=d1, s=s, metadata=metadata)


def hopf_complex():
    return torus_link_complex(1)


def unknot_complex():
    """The unknot model: no irreducibles, one reducible in degree 0."""
    ring = LAURENT_Z
    irr = GradedModule(ring, 4, [])
    red = GradedModule(ring, 4, [("theta", 0)])
    return SComplex(irr, red, metadata={"name": "U1"})


# ---------------------------------------------------------------------------
# Quasi-alternating ranks.


def _check_components(components):
    if components < 1:
        raise ScxError(f"a link has at least one component, got {components}")


def _ranks_can_be_nonnegative(det, components):
    """Whether det >= 2^{|L|-1}, which every rank below needs (the graded
    ranks sum to the rank), read from det's bit length without the power."""
    _check_components(components)
    return det >= 1 and components <= det.bit_length()


def _rank_error(det, components, what):
    # names the datum, never a rank, which has as many digits as 2^{|L|-1}
    return NonIntegralRank(f"{what} not a nonnegative integer for det {det} and |L| = {components}")


def qa_rank(det, components):
    """rank I = (det - 2^{|L|-1}) / 2 for quasi-alternating links."""
    if not _ranks_can_be_nonnegative(det, components) or (det - 2 ** (components - 1)) % 2:
        raise _rank_error(det, components, "(det - 2^(c-1))/2 is")
    return (det - 2 ** (components - 1)) // 2


def qa_graded(det, components, xi):
    """(rank in even degree, rank in odd degree) for quasi-alternating data."""
    if _ranks_can_be_nonnegative(det, components):
        xi = Fraction(xi)
        quarter = Fraction(det, 4)
        w = Fraction(2) ** (components - 3)
        r0 = quarter - w * (1 - xi)
        r1 = quarter - w * (1 + xi)
        if r0.denominator == 1 and r1.denominator == 1 and r0 >= 0 and r1 >= 0:
            return int(r0), int(r1)
    raise _rank_error(det, components, "a graded rank is")


# ---------------------------------------------------------------------------
# Skein trees for the Euler characteristic recursion.

# Bounds on a skein tree read from JSON, so that every chi prints (Python
# prints no int of more than 4300 digits): a leaf's components, the digits of
# its chi or xi above and below the fraction bar, and those of each chi the
# recursion computes, which sums leaves and can outgrow all of them.
_MAX_COMPONENTS = 1000
_MAX_DIGITS = 1000
_MAX_CHI_DIGITS = 4000
_RATIONAL = re.compile(r"[+-]?([0-9]+)(?:/([0-9]+))?")


class SkeinLeaf:
    def __init__(self, components, chi=None, xi=None, name=None):
        self.components = components
        self.chi = None if chi is None else Fraction(chi)
        self.xi = None if xi is None else Fraction(xi)
        self.name = name or "leaf"

    def value(self):
        if self.chi is not None:
            return self.chi
        if self.xi is not None:
            return Fraction(2) ** (self.components - 2) * self.xi
        raise InconsistentLeafData(f"leaf {self.name!r} carries no chi or xi")


class SkeinTriple:
    def __init__(self, eps1, eps2, L, Lp, Lpp, solve="L"):
        self.case = classify_skein(eps1, eps2)
        if solve not in ("L", "Lp", "Lpp"):
            raise SchemaError("solve must be one of L, Lp, Lpp")
        self.L = L
        self.Lp = Lp
        self.Lpp = Lpp
        self.solve = solve

    def members(self):
        return {"L": self.L, "Lp": self.Lp, "Lpp": self.Lpp}


def _node_components(node):
    if isinstance(node, SkeinLeaf):
        return node.components
    return _node_components(node.members()[node.solve])


def _node_name(node):
    if isinstance(node, SkeinLeaf):
        return node.name
    return _node_name(node.members()[node.solve])


def _node_xi(node):
    if isinstance(node, SkeinLeaf):
        return node.xi
    return _node_xi(node.members()[node.solve])


def skein_chi(node, audit=None):
    """Evaluate the Euler characteristic through the skein recursion
    chi(L) = chi(L') + chi(L'') + delta 2^{|L|-2}, solving for whichever
    member the node designates.  Returns (chi, audit list)."""
    if audit is None:
        audit = []
    if isinstance(node, SkeinLeaf):
        val = node.value()
        if node.chi is not None and node.xi is not None:
            want = Fraction(2) ** (node.components - 2) * node.xi
            if want != node.chi:
                raise InconsistentLeafData(
                    f"leaf {node.name!r}: chi={node.chi} but 2^(c-2) xi={want}")
        audit.append({"link": node.name, "components": node.components,
                      "chi": val, "kind": "leaf"})
        return val, audit
    members = node.members()
    comp_l = _node_components(node.L)
    comp_p = _node_components(node.Lp)
    comp_pp = _node_components(node.Lpp)
    if comp_l != comp_p + 1 or comp_l != comp_pp + 1:
        raise InconsistentLeafData(
            f"component counts ({comp_l}, {comp_p}, {comp_pp}) violate |L| = |L'|+1 = |L''|+1")
    offset = node.case.delta * Fraction(2) ** (comp_l - 2)
    known = {}
    for key, member in members.items():
        if key != node.solve:
            known[key], _ = skein_chi(member, audit)
    if node.solve == "L":
        val = known["Lp"] + known["Lpp"] + offset
    elif node.solve == "Lp":
        val = known["L"] - known["Lpp"] - offset
    else:
        val = known["L"] - known["Lp"] - offset
    target = members[node.solve]
    _printable(val, _node_name(target))
    xi = _node_xi(target)
    comp = _node_components(target)
    if xi is not None:
        want = Fraction(2) ** (comp - 2) * xi
        if want != val:
            raise InconsistentLeafData(
                f"node {_node_name(target)!r}: recursion chi={val} but 2^(c-2) xi={want}")
    audit.append({"link": _node_name(target), "components": comp, "chi": val,
                  "kind": f"triple case {node.case.case} solve {node.solve}",
                  "delta": node.case.delta})
    return val, audit


def _printable(chi, name):
    """Refuse a chi of more than _MAX_CHI_DIGITS digits above or below the bar."""
    if max(abs(chi.numerator), chi.denominator) >= 10 ** _MAX_CHI_DIGITS:
        raise SchemaError(f"chi of {clip(name)} has more than {_MAX_CHI_DIGITS} digits")


def _leaf_fraction(leaf, key):
    """The rational leaf[key] (an int, not a bool, or a string like '-3' or
    '1/2'), or None."""
    val = leaf.get(key)
    if val is None:
        return None
    text = str(val) if type(val) is int else val  # a JSON int has at most 4300 digits
    match = _RATIONAL.fullmatch(text) if isinstance(text, str) else None
    if match is None or match[2] is not None and not match[2].strip("0"):
        raise SchemaError(f"leaf {key} must be a rational number, got {clip(val)}")
    if max(len(g or "") for g in match.groups()) > _MAX_DIGITS:
        raise SchemaError(f"leaf {key} may have at most {_MAX_DIGITS} digits "
                          "above and below the fraction bar")
    return Fraction(text)


def skein_node_from_json(doc):
    if not isinstance(doc, dict) or len(doc) != 1:
        raise SchemaError("skein node must be a one-key object")
    if "leaf" in doc:
        leaf = doc["leaf"]
        if not isinstance(leaf, dict):
            raise SchemaError(f"leaf must be an object, got {clip(leaf)}")
        extra = set(leaf) - {"components", "chi", "xi", "name", "family"}
        if extra:
            raise SchemaError(f"unknown leaf keys {clip(sorted(extra))}")
        if "family" in leaf:
            desc = _descriptor_from_json(leaf["family"])
            return SkeinLeaf(desc.components, xi=murasugi_xi(desc), name=repr(desc))
        if "components" not in leaf:
            raise SchemaError("leaf needs components")
        if type(leaf["components"]) is not int:
            raise SchemaError(f"leaf components must be an integer, got {clip(leaf['components'])}")
        if not 1 <= leaf["components"] <= _MAX_COMPONENTS:
            raise SchemaError(f"leaf components must be between 1 and {_MAX_COMPONENTS}, "
                              f"got {leaf['components']}")
        return SkeinLeaf(leaf["components"], chi=_leaf_fraction(leaf, "chi"),
                         xi=_leaf_fraction(leaf, "xi"), name=leaf.get("name"))
    if "triple" in doc:
        t = doc["triple"]
        if not isinstance(t, dict):
            raise SchemaError(f"triple must be an object, got {clip(t)}")
        extra = set(t) - {"eps1", "eps2", "L", "Lp", "Lpp", "solve"}
        if extra:
            raise SchemaError(f"unknown triple keys {clip(sorted(extra))}")
        for key in ("eps1", "eps2", "L", "Lp", "Lpp"):
            if key not in t:
                raise SchemaError(f"triple needs {key}")
        return SkeinTriple(t["eps1"], t["eps2"],
                           skein_node_from_json(t["L"]),
                           skein_node_from_json(t["Lp"]),
                           skein_node_from_json(t["Lpp"]),
                           t.get("solve", "L"))
    raise SchemaError("skein node must be 'leaf' or 'triple'")


# family kind -> (constructor, the parameter keys it takes in order)
_FAMILY_KEYS = {"unknot": (unknot, ()), "hopf": (hopf, ()), "torus2": (torus2, ("k",)),
                "pretzel": (pretzel, ("n",)), "twisted": (twisted_torus, ("p", "q", "k2"))}


def _descriptor_from_json(obj):
    if not isinstance(obj, dict):
        raise SchemaError(f"leaf family must be an object, got {clip(obj)}")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _FAMILY_KEYS:
        raise SchemaError(f"unknown family kind {clip(kind)}")
    make, keys = _FAMILY_KEYS[kind]
    for key in keys:
        if key not in obj:
            raise SchemaError(f"{kind} family needs key {key!r}")
    return make(*(obj[key] for key in keys))


def torus_resolution_tree(k):
    """The full resolution tree of T(2, 2k) down to unknot leaves, with the
    case pattern I at links and III at knots."""
    if k < 1:
        raise UnsupportedFamily("tree needs k >= 1")

    def u1():
        return SkeinLeaf(1, chi=0, name="U1")

    def link_node(m):
        # (T(2,2m), U1, T(2,2m-1)) is Case I
        return SkeinTriple(1, 1,
                           SkeinLeaf(2, xi=murasugi_xi(torus2(2 * m)), name=f"T(2,{2 * m})"),
                           u1(), knot_node(m), solve="L")

    def knot_node(m):
        # T(2, 2m-1); for m = 1 the unknot, else solved out of the
        # (T(2,2m-2), U1, T(2,2m-1)) Case III triple
        if m == 1:
            return u1()
        return SkeinTriple(1, -1, link_node(m - 1), u1(),
                           SkeinLeaf(1, xi=murasugi_xi(torus2(2 * m - 1)),
                                     name=f"T(2,{2 * m - 1})"),
                           solve="Lpp")

    return link_node(k)


# ---------------------------------------------------------------------------
# I-basic families.


def z4_distribution(sigma):
    """Z/4-graded ranks of an I-basic knot from its signature."""
    if sigma <= 0:
        m = -sigma
        return {1: (m + 3) // 4, 3: m // 4}
    return {0: sigma // 4, 2: (sigma + 3) // 4}


class IBasicReport:
    def __init__(self, name, det, sigma, xi, ranks, closed_form, replay, consistent, note=""):
        self.name = name
        self.det = det
        self.sigma = sigma
        self.xi = xi
        self.ranks = ranks
        self.closed_form = closed_form
        self.replay = replay
        self.consistent = consistent
        self.note = note

    @property
    def total_rank(self):
        return sum(self.ranks.values())

    def __repr__(self):
        rk = " + ".join(f"Z_({d})^{r}" for d, r in sorted(self.ranks.items()) if r)
        return (f"I({self.name}) = {rk or '0'}; det {self.det}, "
                f"{'consistent' if self.consistent else 'SEE NOTE'}")


def _pretzel_closed_form(n):
    m = n + 3 if n <= 5 else n + 1
    return {1: (m + 3) // 4, 3: m // 4}


def ibasic_pretzel(n):
    """Rank report for P(-2, 3, n), n > 0, n != 6, by replaying the
    half-twist induction on (det, sigma, components) data."""
    if n == 6:
        raise DetZero("P(-2,3,6) has determinant zero")
    desc = pretzel(n)
    det = determinant(desc)
    sigs = signatures(desc)
    xi = murasugi_xi(desc)
    replay = []
    chi = Fraction(-2)  # chi(I(P_1)) = sigma(T(2,5))/2 = -2
    replay.append({"link": "P1 = T(2,5)", "chi": chi, "case": "base"})
    for m in range(1, n):
        nxt = m + 1
        if nxt % 2 == 0:
            if nxt == 6:
                replay.append({"link": "P6", "chi": None, "case": "det 0 (skipped)"})
                chi_next = None
            else:
                s = signatures(pretzel(nxt))
                eps1 = s["o-"]
                eps2 = signatures(pretzel(m))["o"] - s["o+"]
                case = classify_skein(eps1, eps2)
                chi_next = chi + case.delta
                want = murasugi_xi(pretzel(nxt))
                if chi_next != want:
                    raise InconsistentLeafData(
                        f"P{nxt}: replay chi {chi_next} != 2^(c-2) xi = {want}")
                replay.append({"link": f"P{nxt}", "chi": chi_next,
                               "case": case.case, "delta": case.delta})
        else:
            sig_next = signatures(pretzel(nxt))["o"]
            chi_next = Fraction(sig_next, 2)
            step = chi_next - (chi if chi is not None else chi_next)
            replay.append({"link": f"P{nxt}", "chi": chi_next,
                           "case": "knot step", "growth": -step})
        if chi_next is not None:
            chi = chi_next
    # the accumulated chi is already 2^{|L|-2} xi, so rank = |chi|
    if abs(chi) != int(abs(chi)):
        raise InconsistentLeafData("replay produced a fractional rank")
    total = int(abs(chi))
    if desc.components == 1:
        ranks_replay = z4_distribution(sigs["o"])
    else:
        ranks_replay = {1: (total + 1) // 2, 3: total // 2}
    closed = _pretzel_closed_form(n)
    consistent = sum(closed.values()) == total
    note = ""
    if not consistent:
        note = ("closed-form display disagrees with the sigma table and the "
                "triangle replay for even n >= 4; replay ranks reported")
    return IBasicReport(repr(desc), det, sigs, xi,
                        ranks_replay if not consistent else closed,
                        closed, replay, consistent, note)


def ibasic_twisted3(n, k):
    """Rank report for T(3, 3n+2; 2, k), n, k > 0 integers."""
    if n < 1 or k < 1:
        raise UnsupportedFamily("the twisted table covers n, k >= 1")
    desc = twisted_torus(3, 3 * n + 2, 2 * k)
    det = determinant(desc)
    if det == 0:
        raise DetZero(f"{desc!r} has determinant zero")
    sig = signatures(desc)["o"]
    ranks = {1: n + (k + 2) // 2, 3: n + (k + 1) // 2}
    want = z4_distribution(sig)
    consistent = ranks == want
    replay = []
    chi = Fraction(signatures(twisted_torus(3, 3 * n + 2, 0))["o"], 2)
    replay.append({"link": f"T(3,{3 * n + 2})", "chi": chi, "case": "base"})
    for kk in range(1, k + 1):
        nxt = Fraction(signatures(twisted_torus(3, 3 * n + 2, 2 * kk))["o"], 2)
        replay.append({"link": f"T(3,{3 * n + 2};2,{kk})", "chi": nxt,
                       "case": "knot step", "growth": chi - nxt})
        chi = nxt
    return IBasicReport(repr(desc), det, {"o": sig}, Fraction(sig), ranks,
                        want, replay, consistent)


def ibasic_torus(p, q):
    """Rank report for the stored torus knots: the 2-strand family and the
    3-strand family T(3, 3n+2)."""
    if p > q:
        p, q = q, p
    if p == 2 and q % 2 == 1 and q >= 3:
        sig = 1 - q
    elif (p, q) == (3, 4):
        sig = signatures(pretzel(3))["o"]  # T(3,4) = P(-2,3,3)
    elif p == 3 and q >= 5 and (q - 2) % 3 == 0:
        sig = signatures(twisted_torus(3, q, 0))["o"]
    else:
        raise UnsupportedFamily(f"no stored signature for T({p},{q})")
    ranks = z4_distribution(sig)
    det = alexander_torus(p, q).det()
    return IBasicReport(f"T({p},{q})", det, {"o": sig}, Fraction(sig), ranks,
                        ranks, [{"link": f"T({p},{q})", "chi": Fraction(sig, 2),
                                 "case": "character variety count"}], True)


def ibasic_family(kind, **params):
    if kind == "pretzel":
        return ibasic_pretzel(params["n"])
    if kind == "twisted3":
        return ibasic_twisted3(params["n"], params["k"])
    if kind == "torus":
        return ibasic_torus(params["p"], params["q"])
    raise UnsupportedFamily(f"unknown I-basic family {kind!r}")


def ibasic_alexander_bound(desc):
    """The necessary condition 2^{|L|-1} |xi| >= |Delta| - 2^{|L|-1}."""
    return ibasic_alexander_bound_data(
        alexander(desc).coeff_abs_sum(), murasugi_xi(desc), desc.components)


def ibasic_alexander_bound_data(delta_abs, xi, components):
    lhs = Fraction(2) ** (components - 1) * abs(Fraction(xi))
    rhs = delta_abs - Fraction(2) ** (components - 1)
    return lhs >= rhs


def nontrivial_bundle_chi(lk, components, odd_boundary_components=2):
    """chi of the nontrivial-bundle homology: -2^{|L|-2} lk for a single arc
    joining two components, and 0 when more than two components meet the
    bundle data an odd number of times."""
    if components < 2:
        raise UnsupportedFamily("needs at least two components")
    if odd_boundary_components > 2:
        return 0
    return -(2 ** (components - 2)) * lk
