import random
from fractions import Fraction
from math import gcd

import pytest

from scx.errors import DivideByZero, DivisionUnsupported, RingMismatch, SchemaError
from scx.rings import (
    FRAC_LAURENT_Q,
    LAU_ONE,
    LAU_ZERO,
    LAURENT_Z,
    Q,
    Ring,
    RingElement,
    RingMap,
    Z,
    Zp,
    eval_t_at_one,
    lau_mul,
    parse_element,
    ratfun_normalize,
    ring_arith,
)


def L(s):
    return parse_element(LAURENT_Z, s)


def test_laurent_product_difference_of_squares():
    assert L("T - T^-1") * L("T + T^-1") == L("T^2 - T^-2")


def test_eval_at_one_kills_t2_minus_tm2():
    f = eval_t_at_one()
    assert f(L("T^2 - T^-2")) == Z.zero()


def test_integer_addition():
    assert ring_arith(Z.from_int(2), Z.from_int(3), "add") == Z.from_int(5)


def test_division_rules():
    with pytest.raises(DivisionUnsupported):
        ring_arith(Z.from_int(4), Z.from_int(2), "div")
    with pytest.raises(DivideByZero):
        ring_arith(Q.from_int(1), Q.from_int(0), "div")
    assert ring_arith(Q.from_int(3), Q.from_int(4), "div") == parse_element(Q, "3/4")


def test_ring_mismatch():
    with pytest.raises(RingMismatch):
        Z.from_int(1) + Q.from_int(1)


def test_prime_field_validation():
    Zp(7)
    with pytest.raises(Exception):
        Ring(Ring.MODP, 6)


def test_mod_p_arithmetic():
    five = Zp(5)
    assert five.from_int(3) * five.from_int(4) == five.from_int(2)
    assert five.from_int(2).inverse() == five.from_int(3)


def test_canonical_fraction_field():
    f = parse_element(FRAC_LAURENT_Q, "T^2 - T^-2")
    g = parse_element(FRAC_LAURENT_Q, "T - 1")
    h = f / g
    assert h * g == f
    assert str(h) == "T + 1 + T^-1 + T^-2"


def test_parse_examples_from_grammar():
    assert str(L("T^2 - T^-2")) == "T^2 - T^-2"
    assert L("-3*T^0 + 1") == L("-2")
    assert parse_element(Q, "3/4") + parse_element(Q, "1/4") == Q.one()
    with pytest.raises(SchemaError):
        parse_element(Z, "3/4")
    with pytest.raises(SchemaError):
        parse_element(Q, "T^2")


def test_roundtrip_format_parse():
    for s in ("T^2 - T^-2", "-3 + 1", "5", "2*T^3 + T - 4"):
        x = L(s)
        assert parse_element(LAURENT_Z, str(x)) == x
    y = parse_element(FRAC_LAURENT_Q, "1/2*T^2 - 3/4")
    assert parse_element(FRAC_LAURENT_Q, str(y)) == y
    z = parse_element(FRAC_LAURENT_Q, "(T^2 - T^-2)/(T^4 + 1)")
    assert parse_element(FRAC_LAURENT_Q, str(z)) == z


def test_laurent_units():
    assert LAURENT_Z.monomial(-3, -1).is_unit
    assert not L("T + 1").is_unit
    assert LAURENT_Z.monomial(2).inverse() == LAURENT_Z.monomial(-2)


def test_ring_map_validation():
    with pytest.raises(RingMismatch):
        RingMap(RingMap.MOD_P, Q, Zp(3))
    with pytest.raises(Exception):
        RingMap(RingMap.EVAL_T, LAURENT_Z, Z, unit=Z.from_int(2))
    m = RingMap(RingMap.EVAL_T, LAURENT_Z, Zp(5), unit=Zp(5).from_int(2))
    assert m(L("T^2 + T^-2")) == Zp(5).from_int(4 + 4)  # 4 + inverse(4)=4


def test_include_laurent_in_fraction_field():
    m = RingMap(RingMap.LAURENT_TO_FRAC, LAURENT_Z, FRAC_LAURENT_Q)
    x = m(L("T^2 - T^-2"))
    assert x == parse_element(FRAC_LAURENT_Q, "T^2 - T^-2")


# ---------------------------------------------------------------------------
# Independent oracle for ratfun_normalize: the Euclidean gcd over Q with
# Fraction coefficients that the library used before it reduced over Z.


def _fr_coeffs(a):
    out = [Fraction(0)] * (a[-1][0] + 1)
    for e, c in a:
        out[e] = Fraction(c)
    return out


def _fr_trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _fr_divmod(a, b):
    a = list(a)
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    while len(a) >= len(b) and _fr_trim(a):
        k = len(a) - len(b)
        f = a[-1] / b[-1]
        q[k] = f
        for i, c in enumerate(b):
            a[i + k] -= f * c
        _fr_trim(a)
    return _fr_trim(q), a


def _fr_gcd(a, b):
    a, b = list(a), list(b)
    while _fr_trim(b):
        a, b = b, _fr_divmod(a, b)[1]
    return a


def ratfun_normalize_oracle(num, den):
    if not den:
        raise DivideByZero("zero denominator in Q(T)")
    if not num:
        return (LAU_ZERO, LAU_ONE)
    a, b = num[0][0], den[0][0]
    p = _fr_coeffs(tuple((e - a, c) for e, c in num))
    q = _fr_coeffs(tuple((e - b, c) for e, c in den))
    g = _fr_gcd(p, q)
    if len(g) > 1:
        p, q = _fr_divmod(p, g)[0], _fr_divmod(q, g)[0]
    scale = 1
    for c in p + q:
        scale = scale * c.denominator // gcd(scale, c.denominator)
    ip = [int(c * scale) for c in p]
    iq = [int(c * scale) for c in q]
    content = 0
    for c in ip + iq:
        content = gcd(content, abs(c))
    ip = [c // content for c in ip]
    iq = [c // content for c in iq]
    if iq[-1] < 0:
        ip, iq = [-c for c in ip], [-c for c in iq]
    return (tuple((e + a - b, c) for e, c in enumerate(ip) if c),
            tuple((e, c) for e, c in enumerate(iq) if c))


def _rand_lau(rng, terms, zero_ok=True):
    lo = rng.randint(-3, 3)
    d = {lo + rng.randint(0, 5): rng.choice([-6, -3, -2, -1, 1, 1, 2, 4, 9])
         for _ in range(rng.randint(0 if zero_ok else 1, terms))}
    return tuple(sorted(d.items()))


def _lau(text):
    return parse_element(LAURENT_Z, text).val


@pytest.mark.parametrize("num,den", [
    ("1", "2"), ("-3", "6"), ("T^3", "-4"),                      # constant denominators
    ("1", "T^2"), ("1 + T", "-2*T^-3"), ("T^-1", "T^5"),         # monomial denominators
    ("T", "-T - 1"), ("-1 - T^2", "-3*T^2 + 6"),                 # negative leading coefficients
    ("2*T + 2", "4*T - 4"), ("T^2 - 1", "T - 1"), ("6*T^2 - 6", "4*T^2 + 8*T + 4"),
    ("T^-2 + T^-1", "T^3 - T^5"), ("3*T^4", "6*T^-2 + 12*T^-1"),  # min exponents != 0
    ("T^2 - T^-2", "1"), ("-5*T^-7 + 2", "1"), ("0", "1"), ("0", "T - 7"),
])
def test_ratfun_normalize_matches_fraction_oracle_on_named_cases(num, den):
    n, d = _lau(num), _lau(den)
    assert ratfun_normalize(n, d) == ratfun_normalize_oracle(n, d)


def test_ratfun_normalize_matches_fraction_oracle_on_seeded_pairs():
    rng = random.Random(20261018)
    for _ in range(5000):
        num, den = _rand_lau(rng, 5), _rand_lau(rng, 4, zero_ok=False)
        if rng.random() < 0.4:  # a shared factor with content
            common = _rand_lau(rng, 3, zero_ok=False)
            num, den = lau_mul(num, common), lau_mul(den, common)
        elif rng.random() < 0.2:
            den = LAU_ONE
        assert ratfun_normalize(num, den) == ratfun_normalize_oracle(num, den), (num, den)


def test_ratfun_inverse_of_monomial_and_zero_denominator():
    t2 = FRAC_LAURENT_Q.monomial(2)
    assert t2.inverse().val == ratfun_normalize_oracle(LAU_ONE, ((2, 1),)) == (((-2, 1),), LAU_ONE)
    assert str(parse_element(FRAC_LAURENT_Q, "1/2")) == "1/2"
    with pytest.raises(DivideByZero):
        ratfun_normalize(LAU_ONE, LAU_ZERO)
    with pytest.raises(DivideByZero):
        parse_element(FRAC_LAURENT_Q, "1/0")
    with pytest.raises(DivideByZero):
        FRAC_LAURENT_Q.zero().inverse()


# ---------------------------------------------------------------------------
# The raw-value domains, each op against an independent route: plain ints
# for Z and Z/p, Fraction for Q, values at sample points for Z[T^{+-1}], and
# the Fraction-Euclid ratfun_normalize_oracle with test-local polynomial
# arithmetic for Q(T).


def _pmul(a, b):
    """Product of two laus, on a dict: the test's own polynomial product."""
    out = {}
    for ea, ca in a:
        for eb, cb in b:
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return tuple(sorted((e, c) for e, c in out.items() if c))


def _padd(a, b, sign=1):
    out = dict(a)
    for e, c in b:
        out[e] = out.get(e, 0) + sign * c
    return tuple(sorted((e, c) for e, c in out.items() if c))


# more points than the terms a difference of two sums or products of _rand_lau
# values can span, so agreeing at all of them is equality
_POINTS = [Fraction(k, 3) for k in (-9, -7, -5, -4, -2, -1, 1, 2, 4, 5, 7, 8, 10)]


def _at(lau, t):
    return sum(c * t ** e for e, c in lau)


def _rat_oracle(op, x, y):
    fx, fy = Fraction(*x), Fraction(*y)
    r = {"add": fx + fy, "sub": fx - fy, "mul": fx * fy}[op]
    return (r.numerator, r.denominator)


def _frac_oracle(op, x, y):
    (n1, d1), (n2, d2) = x, y
    if op == "mul":
        return ratfun_normalize_oracle(_pmul(n1, n2), _pmul(d1, d2))
    return ratfun_normalize_oracle(
        _padd(_pmul(n1, d2), _pmul(n2, d1), 1 if op == "add" else -1), _pmul(d1, d2))


def _rand_raw(ring, rng):
    if ring.kind in (Ring.INT, Ring.MODP):
        return ring.domain.from_int(rng.randint(-40, 40))
    # a third of the Q and Q(T) values have denominator 1, where the
    # operations take a shortcut
    if ring == Q:
        den = 1 if rng.random() < 0.3 else rng.randint(1, 12)
        return Fraction(rng.randint(-30, 30), den).as_integer_ratio()
    if ring == LAURENT_Z:
        return _rand_lau(rng, 4)
    den = LAU_ONE if rng.random() < 0.3 else _rand_lau(rng, 3, zero_ok=False)
    return ratfun_normalize(_rand_lau(rng, 4), den)


@pytest.mark.parametrize("ring", [Z, Zp(2), Zp(7), Q, LAURENT_Z, FRAC_LAURENT_Q], ids=str)
def test_domain_ops_match_independent_routes(ring):
    dom = ring.domain
    rng = random.Random(7100 + (ring.p or 0))
    ops = {"add": dom.add, "sub": dom.sub, "mul": dom.mul}
    seen_zero = False
    for _ in range(400):
        x, y = _rand_raw(ring, rng), _rand_raw(ring, rng)
        for name, fn in ops.items():
            got = fn(x, y)
            if ring == Z:
                assert got == {"add": x + y, "sub": x - y, "mul": x * y}[name]
            elif ring.kind == Ring.MODP:
                assert got == {"add": x + y, "sub": x - y, "mul": x * y}[name] % ring.p
            elif ring == Q:
                assert got == _rat_oracle(name, x, y)
            elif ring == LAURENT_Z:
                want = {"add": lambda a, b: a + b, "sub": lambda a, b: a - b,
                        "mul": lambda a, b: a * b}[name]
                assert got == tuple(sorted(got)) and all(c for _, c in got)
                assert all(_at(got, t) == want(_at(x, t), _at(y, t)) for t in _POINTS)
            else:
                assert got == _frac_oracle(name, x, y), (name, x, y)
            # the boxed operators are the same functions
            bx, by = RingElement(ring, x), RingElement(ring, y)
            assert ring_arith(bx, by, name).val == got
        assert dom.add(x, dom.neg(x)) == dom.zero and dom.neg(dom.neg(x)) == x
        assert dom.is_zero(dom.sub(x, x)) and dom.mul(x, dom.one) == x
        seen_zero |= dom.is_zero(x)
        if dom.is_unit(x):
            assert dom.mul(x, dom.inv(x)) == dom.one
            assert RingElement(ring, x).inverse().val == dom.inv(x)
        else:
            with pytest.raises(DivideByZero):
                RingElement(ring, x).inverse()
    assert seen_zero
    for n in (-5, 0, 1, 12):
        assert ring.from_int(n).val == dom.from_int(n)
        assert dom.is_zero(dom.from_int(n)) is (n == 0 if ring.p is None else n % ring.p == 0)


def test_domain_units():
    assert [Z.domain.is_unit(x) for x in (-1, 0, 1, 2)] == [True, False, True, False]
    assert Z.domain.inv(-1) == -1
    assert LAURENT_Z.domain.is_unit(((3, -1),)) and not LAURENT_Z.domain.is_unit(((3, 2),))
    assert not LAURENT_Z.domain.is_unit(_lau("T + 1"))
    assert LAURENT_Z.domain.inv(((3, -1),)) == ((-3, -1),)
    assert Q.domain.inv((-3, 4)) == (-4, 3) and Q.domain.inv((5, 1)) == (1, 5)
    assert Zp(7).domain.inv(3) == 5
    assert not Q.domain.is_unit(Q.domain.zero) and not FRAC_LAURENT_Q.domain.is_unit(
        FRAC_LAURENT_Q.domain.zero)


@pytest.mark.parametrize("num,den", [
    ("T^3", "1"), ("-2*T^-4", "1"), ("-3", "1"),              # monomial numerators
    ("5*T^2", "T^2 + T + 7"), ("-T^-1", "2*T - 3"),
    ("T - 1", "2"), ("1 - T^3", "3 + T"), ("-2*T^-2 - 4*T", "T^4 + 5"),
    ("T^2 + 2*T + 1", "T^2 - 1"), ("6*T - 4", "9*T^3 - 3"),
])
def test_frac_inverse_by_swapping_equals_normalizing_on_named_cases(num, den):
    x = ratfun_normalize(_lau(num), _lau(den))
    n, d = x
    assert FRAC_LAURENT_Q.domain.inv(x) == ratfun_normalize(d, n) == ratfun_normalize_oracle(d, n)


def test_frac_inverse_by_swapping_equals_normalizing_on_seeded_pairs():
    rng = random.Random(20261019)
    negative = monomial = 0
    for _ in range(3000):
        x = ratfun_normalize(_rand_lau(rng, 5, zero_ok=False), _rand_lau(rng, 4, zero_ok=False))
        n, d = x
        got = FRAC_LAURENT_Q.domain.inv(x)
        assert got == ratfun_normalize(d, n), x
        negative += n[-1][1] < 0
        monomial += len(n) == 1
    assert negative > 100 and monomial > 100


@pytest.mark.parametrize("op", ["add", "sub", "mul", "div"])
def test_mixing_rings_raises_for_every_operator(op):
    pairs = [(Z.one(), Q.one()), (Q.one(), Zp(5).one()), (Zp(3).one(), Zp(5).one()),
             (LAURENT_Z.one(), FRAC_LAURENT_Q.one()), (FRAC_LAURENT_Q.one(), Q.one())]
    for a, b in pairs:
        for x, y in ((a, b), (b, a)):
            with pytest.raises(RingMismatch):
                ring_arith(x, y, op)
    with pytest.raises(RingMismatch):
        Q.one() + 1


def test_frac_domain_reduces_through_the_module_global(monkeypatch):
    # a wrapper installed on rings.ratfun_normalize sees the domain's
    # reductions, on boxed and raw values alike
    import scx.rings

    seen = []
    real = scx.rings.ratfun_normalize
    monkeypatch.setattr(scx.rings, "ratfun_normalize",
                        lambda num, den: seen.append(1) or real(num, den))
    x = parse_element(FRAC_LAURENT_Q, "(T + 1)/(T - 2)")
    y = parse_element(FRAC_LAURENT_Q, "(T - 2)/(3*T)")
    seen.clear()
    assert str(x * y) == "1/3 + 1/3*T^-1" and len(seen) == 1
    dom = FRAC_LAURENT_Q.domain
    for op in (dom.add, dom.sub, dom.mul):
        seen.clear()
        op(x.val, y.val)
        assert len(seen) == 1


# -- the text grammar: parse_raw against the per-term sum it replaced


def parse_element_oracle(ring, text):
    """The parser before `parse_raw`, kept as the oracle: every term becomes
    a RingElement and the terms are summed by `RingElement.__add__`.  It
    shares only the tokenizer with the parser it checks."""
    from scx.rings import _rat_norm, _tokenize_terms

    text = text.strip()
    if ring.kind == Ring.FRAC and text.startswith("("):
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
            num = parse_element_oracle(LAURENT_Z, text[1:split - 1])
            den = parse_element_oracle(LAURENT_Z, text[split + 2:-1])
            return RingElement(ring, ratfun_normalize(num.val, den.val))
    terms = _tokenize_terms(text)
    allow_frac = ring.kind in (Ring.RAT, Ring.FRAC)
    allow_t = ring.kind in (Ring.LAURENT, Ring.FRAC)
    total = ring.zero()
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
                    raise SchemaError(f"bad fraction {coeff!r}")
                num, den = int(a), int(b)
            else:
                num = int(coeff)
        num *= sign
        if ring.kind == Ring.FRAC:
            t = RingElement(ring, ratfun_normalize(((exp or 0, num),) if num else LAU_ZERO,
                                                   ((0, den),) if den else LAU_ZERO))
        elif ring.kind == Ring.LAURENT:
            t = RingElement(ring, ((exp or 0, num),) if num else LAU_ZERO)
        elif ring.kind == Ring.RAT:
            t = RingElement(ring, _rat_norm(num, den))
        else:
            t = ring.from_int(num)
        total = total + t
    return total


_PARSE_RINGS = [Z, Zp(5), Q, LAURENT_Z, FRAC_LAURENT_Q]

# stacked signs, 3*T, T^-3, a/b, (num)/(den), entries that sum to zero, and
# strings every ring or some rings refuse
_GRAMMAR_CASES = [
    "--3", "+-+-2", "- -T^2", "-+T", "3*T", "3T", "T", "-T^-3", "T^+2", "2 * T ^ -1",
    "3/4", "-6/8", "6/8*T^2 - 1/2", "1/3 + 1/3*T^-1", "(T^2 - 1)/(T - 1)", "(2*T)/(4*T^3)",
    "(T + 1)/(T - 2)", "(-T)/(-T^-1)", "T - T", "2 - 2", "1/2 - 1/2", "T^2 - T^-2 - T^2 + T^-2",
    "0", "-0", "007", "\t 5 ",
    "", "  ", "x", "3*", "T^", "T^+", "T^-", "1/", "/2", "1/0", "T/0", "(T)/(0)", "(T",
    "()/(T)", "(T)/()", "3**T", "T^2^3",
]


def _parse_outcome(fn, ring, text):
    try:
        return fn(ring, text)
    except Exception as exc:  # noqa: BLE001 - the class is the outcome
        return type(exc)


@pytest.mark.parametrize("ring", _PARSE_RINGS, ids=str)
def test_parse_raw_matches_the_per_term_oracle(ring):
    from scx.randgen import rand_value
    from scx.rings import parse_raw

    dom = ring.domain
    rng = random.Random(2026 + (ring.p or 0))
    texts = list(_GRAMMAR_CASES)
    for _ in range(150):
        # sums of products of seeded values, so the strings hold several terms
        x = dom.zero
        for _ in range(rng.randint(1, 3)):
            x = dom.add(x, dom.mul(rand_value(ring, rng), rand_value(ring, rng)))
        texts.append(str(RingElement(ring, x)))
    for _ in range(50):
        texts.append(str(RingElement(ring, _rand_raw(ring, rng))))
    refused = 0
    for text in texts:
        want = _parse_outcome(parse_element_oracle, ring, text)
        got = _parse_outcome(parse_raw, ring, text)
        if isinstance(want, type):
            assert got is want, (text, got, want)
            refused += 1
        else:
            assert got == want.val, (text, got, want)
            assert parse_element(ring, text) == want and ring.parse(text) == want
    assert 10 <= refused < len(_GRAMMAR_CASES)


@pytest.mark.parametrize("ring", _PARSE_RINGS, ids=str)
def test_parse_raw_refuses_what_int_cannot_read_with_a_schema_error(ring):
    # the oracle lets int()'s ValueError out here, which the CLI reported as
    # a traceback: more digits than the interpreter converts, a second
    # fraction bar, a character that isdigit() accepts and int() does not
    from scx.rings import parse_raw

    digits = "1" * 5000
    texts = [digits, f"T^{digits}", f"T^-{digits} + 1"]
    if ring.kind in (Ring.RAT, Ring.FRAC):
        texts.append(f"2 - 1/{digits}")
    for text in texts:
        with pytest.raises(SchemaError) as exc:
            parse_raw(ring, text)
        message = str(exc.value)
        assert message.startswith("cannot read the integer ") and len(message) < 120, message
    for text in ("1/2/3", "\u00b2", "T^\u00b2"):
        with pytest.raises(SchemaError):
            parse_raw(ring, text)


def test_a_q_t_coefficient_wider_than_the_span_bound_is_refused_up_front(monkeypatch):
    # a numerator, a denominator or the terms of a Q(T) coefficient may
    # span at most _MAX_SPAN exponents: at the bound it is read and reduced
    # as before, one past it is refused before any reduction
    import time

    from scx import rings
    from scx.rings import _MAX_SPAN, parse_raw

    n = _MAX_SPAN
    at_bound = [(f"(T^{n} + 1)/(T + 1)", f"T^{n} + 1", "T + 1"),
                (f"(2*T + 1)/(T^{n - 1} - T^-1)", "2*T + 1", f"T^{n - 1} - T^-1")]
    for text, num, den in at_bound:
        assert parse_raw(FRAC_LAURENT_Q, text) == ratfun_normalize(
            parse_raw(LAURENT_Z, num), parse_raw(LAURENT_Z, den))
    assert parse_raw(FRAC_LAURENT_Q, f"1/2*T^{n} + 1/3") == FRAC_LAURENT_Q.domain.add(
        parse_raw(FRAC_LAURENT_Q, f"1/2*T^{n}"), parse_raw(FRAC_LAURENT_Q, "1/3"))
    # past the bound nothing is reduced
    def refused(*args):
        raise AssertionError("a refused coefficient was reduced")

    monkeypatch.setattr(rings, "ratfun_normalize", refused)
    monkeypatch.setattr(rings, "_pgcd", refused)
    over = [f"(T^{n + 1} + 1)/(T + 1)", f"(T + 1)/(T^{n + 1} - 1)", f"(T^-1 + T^{n})/(2)",
            f"1/2*T^{n + 1} + 1/3", f"T^-{n} - T", "(T^1000000000 + 1)/(T + 1)"]
    for text in over:
        start = time.perf_counter()
        with pytest.raises(SchemaError) as exc:
            parse_raw(FRAC_LAURENT_Q, text)
        assert time.perf_counter() - start < 1
        assert str(exc.value).startswith("exponent span ") and f"exceeds {n}" in str(exc.value)
    # Z[T^+-1] values are sparse and stay unbounded; an unreadable exponent
    # keeps its own refusal
    assert parse_raw(LAURENT_Z, f"T^{n + 1} + 1") == ((0, 1), (n + 1, 1))
    with pytest.raises(SchemaError) as exc:
        parse_raw(FRAC_LAURENT_Q, f"(T^{'1' * 5000} + 1)/(T + 1)")
    assert str(exc.value).startswith("cannot read the integer ")
