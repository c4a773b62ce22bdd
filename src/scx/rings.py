"""Exact coefficient rings: Z, Z/p, Q, Z[T^{+-1}] and the fraction field Q(T).

Every element is stored in a unique canonical form, its raw value `val`, so
equality is structural:

* integers as Python ints,
* residues as ints reduced into [0, p),
* rationals as reduced ``Fraction``-style (num, den) int pairs with positive
  denominator,
* Laurent polynomials as sorted (exponent, coefficient) tuples without zeros,
* rational functions as a reduced pair num/den with den an ordinary integer
  polynomial, positive leading coefficient, nonzero constant term, and the
  pair having coprime content; the monomial unit is folded into num.  Pairs
  are reduced over Z, with a primitive polynomial gcd, never over Q.

Each ring holds one `Domain`: its arithmetic on raw values (`zero`, `one`,
`from_int`, `add`, `sub`, `mul`, `neg`, `inv` of a unit, `is_zero`,
`is_unit`), which returns canonical raw values again.  `RingElement`'s
operators box the domain's results, so each operation has one
implementation; a `RingMap` likewise has one rule on raw values.  The
matrices and eliminations in `gradedlin` call the domain on raw values
directly and box only what they return.
"""

from __future__ import annotations

from functools import partial
from math import gcd
from operator import add, eq, mul, neg, sub

from .errors import DivideByZero, DivisionUnsupported, RingMismatch, ScxError, SchemaError, clip

# ---------------------------------------------------------------------------
# Laurent polynomial helpers.  A "lau" is a tuple of (exp, coeff) pairs,
# sorted by exponent, with no zero coefficients.  Coefficients are ints
# except where noted.

LAU_ZERO = ()
LAU_ONE = ((0, 1),)


def lau_from_dict(d):
    return tuple(sorted((e, c) for e, c in d.items() if c != 0))


def lau_add(a, b):
    d = dict(a)
    for e, c in b:
        d[e] = d.get(e, 0) + c
    return lau_from_dict(d)


def lau_sub(a, b):
    d = dict(a)
    for e, c in b:
        d[e] = d.get(e, 0) - c
    return lau_from_dict(d)


def lau_neg(a):
    return tuple((e, -c) for e, c in a)


def lau_mul(a, b):
    d = {}
    for ea, ca in a:
        for eb, cb in b:
            e = ea + eb
            d[e] = d.get(e, 0) + ca * cb
    return lau_from_dict(d)


def lau_shift(a, k):
    return tuple((e + k, c) for e, c in a)


def lau_min_exp(a):
    return a[0][0]


def lau_is_monomial(a):
    return len(a) == 1


def _dense(a, shift):
    """Integer lau divided by T^shift -> dense ascending int coefficient list."""
    out = [0] * (a[-1][0] - shift + 1)
    for e, c in a:
        out[e - shift] = c
    return out


def _primitive(p):
    g = gcd(*p)
    return p if g == 1 else [c // g for c in p]


def _pgcd(p, q):
    """Primitive gcd over Z of two nonzero dense int polynomials, by a
    primitive pseudo-remainder sequence; [1] when they are coprime."""
    if len(p) < len(q):
        p, q = q, p
    p, q = _primitive(p), _primitive(q)
    while len(q) > 1:
        lq, n = q[-1], len(q)
        while len(p) >= n:
            f, k = p[-1], len(p) - n
            p = [lq * c for c in p]
            for i, c in enumerate(q):
                p[i + k] -= f * c
            while p and p[-1] == 0:
                p.pop()
        if not p:
            return q
        p, q = q, _primitive(p)
    return [1]


def _exact_div(p, g):
    """p / g over Z for dense int polynomials, g dividing p exactly."""
    p = list(p)
    n, lg = len(g), g[-1]
    out = [0] * (len(p) - n + 1)
    for k in range(len(out) - 1, -1, -1):
        f = p[k + n - 1] // lg
        out[k] = f
        if f:
            for i, c in enumerate(g):
                p[i + k] -= f * c
    return out


def ratfun_normalize(num, den):
    """Canonical form of num/den for integer laus; den must be nonzero.

    The pair is reduced jointly over Z: the primitive polynomial gcd (which
    divides both sides over Z, by Gauss's lemma) is cancelled exactly, the
    common integer content removed from the pair (never from one side alone),
    and the denominator gets a positive leading coefficient; the monomial unit
    is folded into the numerator.
    """
    if not den:
        raise DivideByZero("zero denominator in Q(T)")
    if den == LAU_ONE or not num:
        return (num, LAU_ONE)
    a, b = lau_min_exp(num), lau_min_exp(den)
    p, q = _dense(num, a), _dense(den, b)
    if len(p) > 1 and len(q) > 1:
        g = _pgcd(p, q)
        if len(g) > 1:
            p, q = _exact_div(p, g), _exact_div(q, g)
    content = gcd(*p, *q)
    if q[-1] < 0:
        content = -content
    if content != 1:
        p = [c // content for c in p]
        q = [c // content for c in q]
    return (tuple((e + a - b, c) for e, c in enumerate(p) if c),
            tuple((e, c) for e, c in enumerate(q) if c))


# ---------------------------------------------------------------------------
# Arithmetic on raw values, one domain per ring kind.


class Domain:
    """The arithmetic of one ring on raw values.  `inv` is defined on units
    only; every result is canonical, so `is_zero(x)` is `x == zero`."""

    __slots__ = ("zero", "one", "minus_one", "from_int", "add", "sub", "mul", "neg", "inv",
                 "is_unit", "is_zero")

    def __init__(self, zero, one, from_int, add, sub, mul, neg, inv, is_unit):
        self.zero, self.one, self.minus_one, self.from_int = zero, one, neg(one), from_int
        self.add, self.sub, self.mul, self.neg = add, sub, mul, neg
        self.inv, self.is_unit = inv, is_unit
        self.is_zero = partial(eq, zero)


def _rat_norm(a, b):
    if b == 0:
        raise DivideByZero("zero denominator")
    g = gcd(abs(a), abs(b))
    if g:
        a, b = a // g, b // g
    if b < 0:
        a, b = -a, -b
    return (a, b)


# Where both denominators are 1 the result is canonical already.

def _rat_add(x, y):
    (a, b), (c, d) = x, y
    if b == d == 1:
        return (a + c, 1)
    return _rat_norm(a * d + c * b, b * d)


def _rat_sub(x, y):
    (a, b), (c, d) = x, y
    if b == d == 1:
        return (a - c, 1)
    return _rat_norm(a * d - c * b, b * d)


def _rat_mul(x, y):
    (a, b), (c, d) = x, y
    if b == d == 1:
        return (a * c, 1)
    return _rat_norm(a * c, b * d)


def _rat_inv(x):
    a, b = x  # coprime already, so only the sign moves
    return (b, a) if a > 0 else (-b, -a)


# The Q(T) operations call ratfun_normalize through this module's global, so
# a wrapper installed there sees every reduction.  Where both denominators are
# 1 there is nothing to reduce: ratfun_normalize(num, 1) is (num, 1).

def _frac_add(x, y):
    (n1, d1), (n2, d2) = x, y
    if d1 == d2 == LAU_ONE:
        return (lau_add(n1, n2), LAU_ONE)
    return ratfun_normalize(lau_add(lau_mul(n1, d2), lau_mul(n2, d1)), lau_mul(d1, d2))


def _frac_sub(x, y):
    (n1, d1), (n2, d2) = x, y
    if d1 == d2 == LAU_ONE:
        return (lau_sub(n1, n2), LAU_ONE)
    return ratfun_normalize(lau_sub(lau_mul(n1, d2), lau_mul(n2, d1)), lau_mul(d1, d2))


def _frac_mul(x, y):
    (n1, d1), (n2, d2) = x, y
    if d1 == d2 == LAU_ONE:
        return (lau_mul(n1, n2), LAU_ONE)
    return ratfun_normalize(lau_mul(n1, n2), lau_mul(d1, d2))


def _frac_neg(x):
    return (lau_neg(x[0]), x[1])


def _frac_inv(x):
    """ratfun_normalize(den, num) of a canonical nonzero (num, den): the pair
    is coprime already, so swapping it, moving num's monomial shift over and
    fixing the sign of the new leading coefficient is the whole reduction."""
    num, den = x
    shift = -num[0][0]
    num, den = lau_shift(den, shift), lau_shift(num, shift)
    return (lau_neg(num), lau_neg(den)) if den[-1][1] < 0 else (num, den)


def _self(x):
    return x


def _int_domain():
    return Domain(0, 1, _self, add, sub, mul, neg, inv=_self,  # the units are +-1
                  is_unit=lambda x: x in (1, -1))


def _modp_domain(p):
    return Domain(0, 1, lambda n: n % p,
                  lambda x, y: (x + y) % p, lambda x, y: (x - y) % p,
                  lambda x, y: x * y % p, lambda x: -x % p,
                  inv=lambda x: pow(x, p - 2, p), is_unit=bool)


def _rat_domain():
    return Domain((0, 1), (1, 1), lambda n: (n, 1), _rat_add, _rat_sub, _rat_mul,
                  lambda x: (-x[0], x[1]), inv=_rat_inv, is_unit=lambda x: x[0] != 0)


def _laurent_domain():
    return Domain(LAU_ZERO, LAU_ONE, lambda n: ((0, n),) if n else LAU_ZERO,
                  lau_add, lau_sub, lau_mul, lau_neg,
                  inv=lambda x: ((-x[0][0], x[0][1]),),
                  is_unit=lambda x: len(x) == 1 and x[0][1] in (1, -1))


def _frac_domain():
    return Domain((LAU_ZERO, LAU_ONE), (LAU_ONE, LAU_ONE),
                  lambda n: (((0, n),) if n else LAU_ZERO, LAU_ONE),
                  _frac_add, _frac_sub, _frac_mul, _frac_neg,
                  inv=_frac_inv, is_unit=lambda x: x[0] != LAU_ZERO)


# ---------------------------------------------------------------------------
# Rings.


class Ring:
    """A coefficient ring, identified by kind (and p for prime fields)."""

    INT = "Z"
    MODP = "Zp"
    RAT = "Q"
    LAURENT = "LaurentZ"
    FRAC = "FracLaurentQ"

    _KINDS = (INT, MODP, RAT, LAURENT, FRAC)

    def __init__(self, kind, p=None):
        if kind not in self._KINDS:
            raise SchemaError(f"unknown ring kind {clip(kind)}")
        if kind == self.MODP:
            if p is None or p < 2 or not _is_prime(p):
                raise ScxError(f"Z/p requires a prime p, got {p}")
            self.domain = _modp_domain(p)
        elif p is not None:
            raise ScxError("p only makes sense for prime fields")
        else:
            self.domain = _DOMAINS[kind]()
        self.kind = kind
        self.p = p
        self._hash = hash((kind, p))

    def __eq__(self, other):
        if self is other:
            return True
        return isinstance(other, Ring) and self.kind == other.kind and self.p == other.p

    def __hash__(self):  # `gradedlin.ELIMINATIONS` is looked up by ring on every elimination
        return self._hash

    def __repr__(self):
        return f"Z/{self.p}" if self.kind == self.MODP else self.kind

    @property
    def is_field(self):
        return self.kind in (self.MODP, self.RAT, self.FRAC)

    def zero(self):
        return RingElement(self, self.domain.zero)

    def one(self):
        return RingElement(self, self.domain.one)

    def from_int(self, n):
        return RingElement(self, self.domain.from_int(n))

    def monomial(self, exp, coeff=1):
        """coeff * T^exp in Z[T^{+-1}] or Q(T)."""
        if self.kind == self.LAURENT:
            return RingElement(self, ((exp, coeff),) if coeff else LAU_ZERO)
        if self.kind == self.FRAC:
            return RingElement(self, ratfun_normalize(((exp, coeff),) if coeff else LAU_ZERO, LAU_ONE))
        raise UnsupportedRingOp(f"no T in {self!r}")

    def parse(self, text):
        return parse_element(self, text)


class UnsupportedRingOp(ScxError):
    pass


_DOMAINS = {Ring.INT: _int_domain, Ring.RAT: _rat_domain, Ring.LAURENT: _laurent_domain,
            Ring.FRAC: _frac_domain}


def _is_prime(n):
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


Z = Ring(Ring.INT)
Q = Ring(Ring.RAT)
LAURENT_Z = Ring(Ring.LAURENT)
FRAC_LAURENT_Q = Ring(Ring.FRAC)

_ZP_CACHE = {}


def Zp(p):
    if p not in _ZP_CACHE:
        _ZP_CACHE[p] = Ring(Ring.MODP, p)
    return _ZP_CACHE[p]


class RingElement:
    """An exact element of one of the supported rings.  Immutable."""

    __slots__ = ("ring", "val")

    def __init__(self, ring, val):
        _set_element_ring(self, ring)
        _set_element_val(self, val)

    def __setattr__(self, *a):
        raise AttributeError("RingElement is immutable")

    # -- predicates

    @property
    def is_zero(self):
        return self.ring.domain.is_zero(self.val)

    @property
    def is_unit(self):
        return self.ring.domain.is_unit(self.val)

    def _chk(self, other):
        if not isinstance(other, RingElement) or other.ring != self.ring:
            raise RingMismatch(f"cannot combine {self!r} with {other!r}")

    # -- arithmetic: the ring's domain on the raw values

    def __add__(self, other):
        self._chk(other)
        r = self.ring
        return RingElement(r, r.domain.add(self.val, other.val))

    def __neg__(self):
        r = self.ring
        return RingElement(r, r.domain.neg(self.val))

    def __sub__(self, other):
        self._chk(other)
        r = self.ring
        return RingElement(r, r.domain.sub(self.val, other.val))

    def __mul__(self, other):
        self._chk(other)
        r = self.ring
        return RingElement(r, r.domain.mul(self.val, other.val))

    def inverse(self):
        r = self.ring
        if not r.domain.is_unit(self.val):
            raise DivideByZero(f"{self} is not invertible in {r!r}")
        return RingElement(r, r.domain.inv(self.val))

    def __truediv__(self, other):
        self._chk(other)
        if not self.ring.is_field:
            raise DivisionUnsupported(f"{self.ring!r} is not a field")
        if other.is_zero:
            raise DivideByZero("division by zero")
        return self * other.inverse()

    def __eq__(self, other):
        return isinstance(other, RingElement) and self.ring == other.ring and self.val == other.val

    def __hash__(self):
        return hash((self.ring, self.val))

    def __repr__(self):
        return f"<{self} over {self.ring!r}>"

    def __str__(self):
        return format_raw(self.ring, self.val)


# the slot setters, bound once (`__setattr__` raises)
_set_element_ring = RingElement.ring.__set__
_set_element_val = RingElement.val.__set__


def ring_arith(a, b, op):
    """Spec-level entry point: op in {'add','sub','mul','div'}."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ScxError(f"unknown op {op!r}")


# ---------------------------------------------------------------------------
# The bit-exact text grammar: signed sums of terms, each an optional integer
# (or a/b fraction) coefficient, optional '*', optional T^e.


def _tokenize_terms(text):
    """Split into (sign, coeff_str|None, exp|None) triples."""
    s = text.replace(" ", "").replace("\t", "")
    if not s:
        raise SchemaError("empty ring element string")
    terms, i, n = [], 0, len(s)
    while i < n:
        sign = 1
        while i < n and s[i] in "+-":
            if s[i] == "-":
                sign = -sign
            i += 1
        j = i
        while j < n and (s[j].isdigit() or s[j] == "/"):
            j += 1
        coeff = s[i:j] if j > i else None
        i = j
        if i < n and s[i] == "*":
            i += 1
            if i >= n or s[i] != "T":
                raise SchemaError(f"expected T after '*' in {clip(text)}")
        exp = None
        if i < n and s[i] == "T":
            i += 1
            if i < n and s[i] == "^":
                i += 1
                j = i
                if j < n and s[j] in "+-":
                    j += 1
                while j < n and s[j].isdigit():
                    j += 1
                if j == i or not s[i:j].lstrip("+-"):
                    raise SchemaError(f"bad exponent in {clip(text)}")
                exp = _int(s[i:j], text)
                i = j
            else:
                exp = 1
        if coeff is None and exp is None:
            raise SchemaError(f"cannot parse term in {clip(text)}")
        terms.append((sign, coeff, exp))
    return terms


def _int(digits, text):
    """int(digits), a run of digits from `text`; what int() refuses (a digit
    it does not read, more digits than the interpreter's limit) is a
    SchemaError naming the term."""
    try:
        return int(digits)
    except ValueError:
        raise SchemaError(f"cannot read the integer {clip(digits)} ({len(digits)} "
                          f"characters) in {clip(text)}") from None


# The widest exponent span (highest minus lowest power of T) that `parse_raw`
# takes in a Q(T) coefficient's terms, numerator or denominator: reducing a
# fraction makes a dense list of its span, and `_pgcd` is quadratic in it.
_MAX_SPAN = 4096


def _check_span(text, *exponents):
    span = max((max(exps) - min(exps) for exps in exponents if exps), default=0)
    if span > _MAX_SPAN:
        raise SchemaError(f"exponent span {span} of {clip(text)} exceeds {_MAX_SPAN}")


def parse_raw(ring, text):
    """Parse the shared term grammar into a raw value of `ring`: the terms are
    summed by the ring's domain, and no element is made."""
    text = text.strip()
    if ring.kind == Ring.FRAC and text.startswith("("):
        # extension for true rational functions: "(num)/(den)"
        depth, split = 0, None
        for i, ch in enumerate(text):
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "/" and depth == 0:
                split = i
                break
        if split is not None:
            parts = [parse_raw(LAURENT_Z, part) for part in (text[1:split - 1], text[split + 2:-1])]
            _check_span(text, *([e for e, _ in part] for part in parts))
            return ratfun_normalize(*parts)
    terms = _tokenize_terms(text)
    kind, dom = ring.kind, ring.domain
    if kind == Ring.FRAC:
        _check_span(text, [exp or 0 for _, _, exp in terms])
    allow_frac = kind in (Ring.RAT, Ring.FRAC)
    allow_t = kind in (Ring.LAURENT, Ring.FRAC)
    total = dom.zero
    for sign, coeff, exp in terms:
        if exp is not None and not allow_t:
            raise SchemaError(f"variable T not allowed in {ring!r}")
        num, den = 1, 1
        if coeff is not None:
            if "/" in coeff:
                if not allow_frac:
                    raise SchemaError(f"fractions not allowed in {ring!r}")
                a, _, b = coeff.partition("/")
                if not a or not b:
                    raise SchemaError(f"bad fraction {clip(coeff)}")
                num, den = _int(a, text), _int(b, text)
            else:
                num = _int(coeff, text)
        num *= sign
        if kind == Ring.FRAC:
            t = ratfun_normalize(((exp or 0, num),) if num else LAU_ZERO,
                                 ((0, den),) if den else LAU_ZERO)
        elif kind == Ring.LAURENT:
            t = ((exp or 0, num),) if num else LAU_ZERO
        elif kind == Ring.RAT:
            t = _rat_norm(num, den)
        else:
            t = dom.from_int(num)
        total = dom.add(total, t)
    return total


def parse_element(ring, text):
    """Parse the shared term grammar into an element of `ring`."""
    return RingElement(ring, parse_raw(ring, text))


def _format_lau(lau, den=1):
    if not lau:
        return "0"
    parts = []
    for e, c in sorted(lau, reverse=True):
        if e == 0:
            mono = None
        elif e == 1:
            mono = "T"
        else:
            mono = f"T^{e}"
        cd = den
        if cd != 1:
            g = gcd(abs(c), cd)
            cnum, cd = abs(c) // g, cd // g
            coeff = f"{cnum}/{cd}" if cd != 1 else str(cnum)
        else:
            coeff = str(abs(c))
        if mono is None:
            term = coeff
        elif abs(c) == 1 and den == 1:
            term = mono
        else:
            term = f"{coeff}*{mono}"
        parts.append(("- " if c < 0 else "+ ") + term)
    out = " ".join(parts)
    return out[2:] if out.startswith("+ ") else "-" + out[2:]


def format_raw(ring, val):
    """The text of the raw value `val` of `ring`, which `parse_raw` reads back."""
    k = ring.kind
    if k in (Ring.INT, Ring.MODP):
        return str(val)
    if k == Ring.RAT:
        a, b = val
        return str(a) if b == 1 else f"{a}/{b}"
    if k == Ring.LAURENT:
        return _format_lau(val)
    num, den = val
    if den == LAU_ONE:
        return _format_lau(num)
    if lau_is_monomial(den):
        e, c = den[0]
        shifted = lau_shift(num, -e) if c > 0 else lau_neg(lau_shift(num, -e))
        return _format_lau(shifted, den=abs(c)) if abs(c) != 1 else _format_lau(shifted)
    return f"({_format_lau(num)})/({_format_lau(den)})"


# ---------------------------------------------------------------------------
# Ring maps.


class RingMap:
    """A homomorphism between supported rings, one of five kinds.  `raw` is
    the map on raw values; calling the map on an element boxes its result."""

    IDENTITY = "identity"
    MOD_P = "reduce-mod-p"
    Z_TO_Q = "include-Z-in-Q"
    EVAL_T = "evaluate-T-at"
    LAURENT_TO_FRAC = "include-Laurent-in-fraction-field"

    def __init__(self, rule, source, target, unit=None):
        self.rule = rule
        self.source = source
        self.target = target
        self.unit = unit
        if rule == self.IDENTITY:
            if source != target:
                raise RingMismatch("identity map requires equal rings")
            self.raw = _self
        elif rule == self.MOD_P:
            if source != Z or target.kind != Ring.MODP:
                raise RingMismatch("reduce-mod-p maps Z to Z/p")
            self.raw = target.domain.from_int
        elif rule == self.Z_TO_Q:
            if source != Z or target != Q:
                raise RingMismatch("include-Z-in-Q maps Z to Q")
            self.raw = target.domain.from_int
        elif rule == self.EVAL_T:
            if source != LAURENT_Z:
                raise RingMismatch("evaluate-T-at is defined on Z[T^{+-1}]")
            if unit is None or unit.ring != target or not unit.is_unit:
                raise ScxError("evaluate-T-at requires a unit of the target ring")
            self.raw = partial(_eval_t, target.domain, unit.val)
        elif rule == self.LAURENT_TO_FRAC:
            if source != LAURENT_Z or target != FRAC_LAURENT_Q:
                raise RingMismatch("inclusion maps Z[T^{+-1}] into Q(T)")
            self.raw = lambda num: (num, LAU_ONE)  # canonical as it is
        else:
            raise ScxError(f"unknown ring map rule {rule!r}")

    def __call__(self, x):
        if x.ring != self.source:
            raise RingMismatch("element not in the source ring")
        return RingElement(self.target, self.raw(x.val))


def _eval_t(dom, unit, lau):
    """The Laurent polynomial lau at T = unit, over the domain `dom`."""
    total, uinv = dom.zero, dom.inv(unit)
    for e, c in lau:
        power, base = dom.one, unit if e >= 0 else uinv
        for _ in range(abs(e)):
            power = dom.mul(power, base)
        total = dom.add(total, dom.mul(power, dom.from_int(c)))
    return total


def eval_t_at_one():
    """The specialization T -> 1 from Z[T^{+-1}] to Z."""
    return RingMap(RingMap.EVAL_T, LAURENT_Z, Z, unit=Z.one())
