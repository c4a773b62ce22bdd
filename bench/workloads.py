"""The four benchmark workloads: their inputs, their cases and their checks.

A workload is built from a seed into a fixed list of cases.  The seed reaches
only the `randgen` instances, the per-case choices (the suspension amount of
`cli-homology`) and, in `run.py`, the case order; the structured family
ladders are the same for every seed, so the cost of a pass does not swing
with it.

Each case is checked against an independent reference (a closed-form value,
a cross-ring identity, an exact relation report), never against a second run
of the same code.  See NOTES.md for why each workload exists.

Cases call scx through module attributes (`equivariant.froyshov_profile`,
not a name imported from it), so the tracing wrappers see every call.  A case
names its inputs apart from the call (`fn(*args)`), so that `run.py` can hand
each pass fresh copies of them.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random

from scx import cli, equivariant, functors, heights, linkfam, randgen, rings, scomplex, solve, triangles

DEFAULT_SEED = 2026


class Case:
    """One timed call.  `fn(*args)` returns the output; `check(output)`
    returns None when the output is right, else the reason it is wrong;
    `canon(output)` is the JSON-able canonical output whose digest is
    recorded."""

    __slots__ = ("id", "fn", "args", "check", "canon")

    def __init__(self, cid, fn, args, check, canon):
        self.id = cid
        self.fn = fn
        self.args = args
        self.check = check
        self.canon = canon

    def run(self):
        return self.fn(*self.args)


class Built:
    """A workload's cases plus an optional check across one pass's outputs,
    `cross(outputs by case id) -> {case id: reason}`."""

    def __init__(self, cases, cross=None):
        self.cases = cases
        self.cross = cross


def seeded(seed, purpose):
    """An independent generator per use of the seed (string seeds hash the
    same way in every process)."""
    return random.Random(f"{purpose}:{seed}")


# ---------------------------------------------------------------------------
# d-function workloads


def _profile_canon(p):
    lo, hi = p.window
    return {**p.to_json(),
            "J": {str(i): [[str(e) for e in col] for col in p.j_bases[i]]
                  for i in range(lo, hi + 1)}}


def profile_case(cid, x, expect_d=None, expect_h=None):
    """froyshov_profile(x), checked against the expected d-function and h
    (when given) and for J_{i+1} contained in J_i at every window index."""
    nr = x.red.rank

    def check(p):
        lo, hi = p.window
        if expect_d is not None:
            for i in range(lo, hi + 1):
                if p.d[i] != expect_d(i):
                    return f"d({i}) = {p.d[i]}, expected {expect_d(i)}"
        if expect_h is not None and p.h != expect_h:
            return f"h = {p.h}, expected {expect_h}"
        if not equivariant.j_nesting_ok(p, x.ring, nr):
            return "J_{i+1} is not contained in J_i"
        return None

    return Case(cid, lambda x: equivariant.froyshov_profile(x), (x,), check, _profile_canon)


def _step(n):
    # O(n) and the knot models over a field: d = 1 up to h = n, then 0
    return lambda i: 1 if i <= n else 0


# 40 cases in all, so that the tail (ten cases beyond it) is at p75
K_LADDER_Z = tuple(range(4, 16))
N_RANDOM_Z = 9
# rank C of the random Z cases: at most 2 keeps them below the median (up to
# rank 6 one took from 0.2 to 60 ms, and moved the median with the seed)
RANDOM_Z_MAX_C = 2


def build_dfunc_z(seed, workdir):
    at_one = rings.eval_t_at_one()
    cases = []
    for k in K_LADDER_Z:
        # T -> 1 kills T^2 - T^-2, so every map vanishes: d = rank R up to 0
        x = linkfam.torus_link_complex(k).base_change(at_one)
        cases.append(profile_case(f"link k={k}", x, expect_d=lambda i: 2 if i <= 0 else 0))
        y = linkfam.torus_knot_summand(k).base_change(at_one)
        cases.append(profile_case(f"knot k={k}", y, expect_d=_step(0), expect_h=0))
    for n in range(-3, 4):
        cases.append(profile_case(f"O({n})", functors.atomic(n, rings.Z), _step(n), n))
    rng = seeded(seed, "dfunc-z")
    for j in range(N_RANDOM_Z):
        x = randgen.rand_scomplex(rings.Z, rng, max_rank=6, r_perfect=True, allow_cone=False)
        while x.irr.rank > RANDOM_Z_MAX_C:
            x = randgen.rand_scomplex(rings.Z, rng, max_rank=6, r_perfect=True, allow_cone=False)
        cases.append(profile_case(f"random {j}", x))
    return Built(cases)


K_LADDER_FIELD = (4, 5, 6, 7)
K_MIRRORS_FIELD = (4, 5)
N_RANDOM_FIELD = 1  # per ring
# rank C of the random field cases: they stay below the ladder, so the median
# case is a fixed one and does not move with the seed
RANDOM_FIELD_MAX_C = 2


def build_dfunc_field(seed, workdir):
    inc = rings.RingMap(rings.RingMap.LAURENT_TO_FRAC, rings.LAURENT_Z, rings.FRAC_LAURENT_Q)
    cases = []
    for k in K_LADDER_FIELD:
        # over Q(T) the coefficient T^2 - T^-2 is a unit: theta- splits off
        # (d = 1 up to 0) and theta+ with xi^1..xi^{k-1} is T(2,2k-1) (h = k-1)
        x = linkfam.torus_link_complex(k).base_change(inc)
        cases.append(profile_case(f"link k={k}", x,
                                  expect_d=lambda i, k=k: 2 if i <= 0 else (1 if i <= k - 1 else 0)))
        y = linkfam.torus_knot_summand(k).base_change(inc)
        cases.append(profile_case(f"knot k={k}", y, _step(k - 1), k - 1))
        if k in K_MIRRORS_FIELD:
            # the dual is the mirror: h = -(k-1), d = 1 up to 1-k
            cases.append(profile_case(f"dual knot k={k}", functors.dual(y), _step(1 - k), 1 - k))
    tre = linkfam.torus_knot_summand(2).base_change(inc)
    square = functors.tensor(tre, tre)
    cases.append(profile_case("T(2,3)^2", square, _step(2), 2))
    cases.append(profile_case("T(2,3)^3", functors.tensor(square, tre), _step(3), 3))
    for label, ring in (("Q", rings.Q), ("Z/3", rings.Zp(3))):
        for n in range(-3, 4):
            cases.append(profile_case(f"O({n}) {label}", functors.atomic(n, ring), _step(n), n))
    rng = seeded(seed, "dfunc-field")
    for label, ring in (("Q", rings.Q), ("Z/3", rings.Zp(3)), ("Q(T)", rings.FRAC_LAURENT_Q)):
        for j in range(N_RANDOM_FIELD):
            x = randgen.rand_scomplex(ring, rng, max_rank=4, r_perfect=True, allow_cone=False)
            while x.irr.rank > RANDOM_FIELD_MAX_C:
                x = randgen.rand_scomplex(ring, rng, max_rank=4, r_perfect=True, allow_cone=False)
            cases.append(profile_case(f"random {j} {label}", x))
    return Built(cases)


# ---------------------------------------------------------------------------
# CLI homology


# T(2,2a) (x) dual T(2,2b): rank C from 28 (3,5) to 46 (4,6)
CLI_PAIRS = ((3, 5), (4, 4), (5, 3), (4, 6), (6, 4))
# the seed picks the sign; one size keeps the suspended documents' cost fixed
CLI_SHIFTS = (-2, 2)


def run_cli(argv):
    """scx.cli.main in this process, with its output captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def build_cli_homology(seed, workdir):
    at_one = rings.eval_t_at_one()
    rng = seeded(seed, "cli-homology")

    def doc(name):
        return os.path.join(workdir, name)

    def writes(cid, verb_args, out_name, expect_doc, extra=None):
        """A case of a verb that writes --out; checked byte for byte against
        the document set-up wrote for it, plus `extra` on the parsed
        document."""
        out_path = doc(out_name)

        def check(res, out_path=out_path, expect_doc=expect_doc):
            rc, _, err = res
            if rc != 0:
                return f"exit {rc}: {err.strip()}"
            got = _read(out_path)
            if got != _read(doc(expect_doc)):
                return f"{out_name} differs from {expect_doc}"
            return extra(json.loads(got)) if extra else None

        def canon(res, out_path=out_path):
            rc, out, _ = res
            return [rc, out.replace(workdir, "<work>"), _read(out_path).decode()]

        return Case(cid, run_cli, (verb_args + ["--out", out_path, "--json"],), check, canon)

    for k in sorted({k for pair in CLI_PAIRS for k in pair}):
        x = linkfam.torus_link_complex(k)
        scomplex.save_scomplex(x, doc(f"A{k}.json"))
        scomplex.save_scomplex(functors.dual(x), doc(f"D{k}.json"))

    cases = []
    groups = []
    for a, b in CLI_PAIRS:
        g = f"{a},{b}"
        m = rng.choice(CLI_SHIFTS)
        xa, xb = linkfam.torus_link_complex(a), linkfam.torus_link_complex(b)
        p = functors.tensor(xa, functors.dual(xb))
        s = functors.suspend(p, m)
        for name, obj in ((f"P{g}.json", p), (f"P1{g}.json", p.base_change(at_one)),
                          (f"S{g}.json", s), (f"S1{g}.json", s.base_change(at_one))):
            scomplex.save_scomplex(obj, doc(name))
        groups.append((g, m, p.modulus))
        # rank formulas of the tensor product: C(x (x) y) = C C' + C C'[-1] + C R' + R C'
        ca, ra, cb, rb = xa.irr.rank, xa.red.rank, xb.irr.rank, xb.red.rank
        want_ranks = (ca * (2 * cb + rb) + ra * cb, ra * rb)

        def tensor_ranks(d, want=want_ranks):
            got = (len(d["irreducible"]), len(d["reducible"]))
            return None if got == want else f"tensor ranks (C, R) = {got}, expected {want}"

        cases += [
            writes(f"{g} dual", ["dual", "--in", doc(f"A{b}.json")], f"out-dual{g}.json",
                   f"D{b}.json"),
            writes(f"{g} tensor", ["tensor", "--a", doc(f"A{a}.json"), "--b", doc(f"D{b}.json")],
                   f"out-tensor{g}.json", f"P{g}.json", tensor_ranks),
            writes(f"{g} suspend", ["suspend", "--in", doc(f"P{g}.json"), "--n", str(m)],
                   f"out-suspend{g}.json", f"S{g}.json"),
            Case(f"{g} verify", run_cli, (["verify", "--in", doc(f"P{g}.json"), "--json"],),
                 _verify_check, _cli_canon)]
        for label, name, ring in (("z", "P", "z"), ("frac-laurent", "P", "frac-laurent"),
                                  ("q", "P1", "q"), ("z2", "P1", "z2"), ("suspended q", "S1", "q")):
            argv = ["homology", "--in", doc(f"{name}{g}.json"), "--ring", ring, "--json"]
            cases.append(Case(f"{g} homology {label}", run_cli, (argv,),
                              _homology_check, _cli_canon))

    # family once per distinct k: with the four cheap verbs per pair they are
    # fewer than half the cases, so the median is a homology case
    for a in sorted({a for a, _ in CLI_PAIRS}):
        cases.append(writes(f"family k={a}", ["family", "--name", "torus-link", "--k", str(a)],
                            f"out-family{a}.json", f"A{a}.json", _family_ranks(a)))

    def cross(outs):
        bad = {}
        for g, m, modulus in groups:
            ids = {k: f"{g} homology {k}" for k in ("z", "frac-laurent", "q", "z2", "suspended q")}
            h = {}
            for k, cid in ids.items():
                res = outs.get(cid)
                if res is None or res[0] != 0:
                    break
                h[k] = json.loads(res[1])
            else:
                why = _homology_relations(h, m, modulus)
                if why:
                    bad.update({cid: why for cid in ids.values()})
        return bad

    return Built(cases, cross)


def _family_ranks(k):
    def check(d):
        got = (len(d["irreducible"]), len(d["reducible"]))
        return None if got == (k - 1, 2) else f"family ranks (C, R) = {got}, expected {(k - 1, 2)}"

    return check


def _verify_check(res):
    rc, out, err = res
    if rc != 0:
        return f"verify exit {rc}: {err.strip()}"
    return None if json.loads(out)["ok"] else "verify reported a failed relation"


def _homology_check(res):
    rc, out, err = res
    if rc != 0:
        return f"homology exit {rc}: {err.strip()}"
    h = json.loads(out)
    if sum(h["ranks"].values()) != h["total_rank"]:
        return "total_rank is not the sum of the ranks"
    return None


def _cli_canon(res):
    return [res[0], res[1]]


def _homology_relations(h, m, modulus):
    """Universal-coefficient and Euler identities between the four rings,
    and the 2m degree shift of the m-fold suspension."""
    hz, hq = h["z"], h["q"]
    if hz["ranks"] != hq["ranks"]:
        return f"free ranks over Z {hz['ranks']} differ from ranks over Q {hq['ranks']}"
    even_torsion = sum(1 for orders in hz["torsion"].values() for t in orders if t % 2 == 0)
    if h["z2"]["total_rank"] != hz["total_rank"] + 2 * even_torsion:
        return "rank over Z/2 is not free rank over Z plus twice the even torsion"
    eulers = {k: v["euler"] for k, v in h.items() if k != "suspended q"}
    if len(set(eulers.values())) != 1:
        return f"Euler characteristics differ: {eulers}"
    shifted = {str((int(d) + 2 * m) % modulus): r for d, r in hq["ranks"].items()}
    if h["suspended q"]["ranks"] != shifted:
        return f"suspend --n {m} did not shift the ranks by {2 * m}"
    return None


# ---------------------------------------------------------------------------
# Small relations


RELATION_RINGS = ("Z", "Z2", "Q", "QT")
# instances of each kind per ring
PER_RING = {"complex": 40, "morphism": 40, "homotopy": 40, "compose": 16,
            "factor": 8, "cone": 6, "solved": 4}
# (rank C, rank R) of the triangle complexes, modulus 4.  The cost of a
# triangle, and of the joint witness solve above all, grows steeply with the
# shape (from 5 ms to 4 s at random shapes up to rank 4); a fixed small shape
# keeps each seed's pass close to the others.
CONE_SHAPE = (2, 1)
SOLVED_SHAPE = (1, 1)
HEIGHT_SHAPE = (2, 1)


def _shaped_complex(ring, rng, shape, r_perfect=False):
    """A randgen complex (modulus 4) of the given (rank C, rank R)."""
    while True:
        x = randgen.rand_scomplex(ring, rng, modulus=4, max_rank=3, r_perfect=r_perfect,
                                  allow_cone=not r_perfect)
        if (x.irr.rank, x.red.rank) == shape:
            return x


def _height_morphism(ring, rng, height):
    """randgen.rand_height_morphism on a complex of HEIGHT_SHAPE: the same
    iota/kappa construction, with the shape fixed so that the cost of the
    instances does not swing with the seed."""
    x = _shaped_complex(ring, rng, HEIGHT_SHAPE, r_perfect=True)
    h0 = heights.HeightMorphism.from_morphism(randgen.rand_morphism(x, x, rng, 0))
    if height == 0:
        return h0
    if height == 1:
        return heights.compose_heights(heights.iota(x, 1), h0)
    sx = functors.suspend_once(x)
    up = heights.HeightMorphism.from_morphism(randgen.rand_morphism(sx, sx, rng, 0))
    return heights.compose_heights(heights.kappa(x, 1), up)


def _report_check(*reports):
    for rep in reports:
        if not rep.ok:
            return f"relations failed: {rep.failed()}"
    return None


def _tau_convolution(comp, g, f):
    """tau(g.f)_i == sum_k tau(g)_{i-k} tau(f)_k, recomputed from the factors."""
    for i in set(comp.tau) | {0, 1, -1}:
        acc = None
        for k in f.tau:
            t2 = g.tau.get(i - k)
            if t2 is not None:
                term = t2 @ f.tau[k]
                acc = term if acc is None else acc + term
        want = comp.tau_at(i)
        if acc is None:
            if not want.is_zero:
                return f"tau convolution fails at {i}"
        elif not (acc - want).is_zero:
            return f"tau convolution fails at {i}"
    return None


def _verify(x):
    return x.verify()


def _complex_cases(tag, ring, rng, n):
    out = []
    for j in range(n):
        x = randgen.rand_scomplex(ring, rng)
        out.append(Case(f"{tag} complex {j}", _verify, (x,), _report_check, repr))
    return out


def _morphism_cases(tag, ring, rng, n, homotopy=False):
    out = []
    for j in range(n):
        x = randgen.rand_scomplex(ring, rng)
        f = randgen.rand_morphism(x, x, rng, degree=rng.choice([0, 1, 2]))
        if not homotopy:
            out.append(Case(f"{tag} morphism {j}", _verify, (f,), _report_check, repr))
            continue
        g, h = randgen.rand_homotopy_pair(f, rng)
        out.append(Case(f"{tag} homotopy {j}", lambda g, h: (g.verify(), h.verify()), (g, h),
                        lambda r: _report_check(*r), lambda r: [repr(x) for x in r]))
    return out


def _compose_cases(tag, ring, rng, n):
    out = []
    for j in range(n):
        f = _height_morphism(ring, rng, rng.choice([-1, 0, 1]))
        g = heights.HeightMorphism.from_morphism(randgen.rand_morphism(f.target, f.target, rng, 0))

        def check(res, f=f, g=g):
            comp, rep = res
            return _report_check(rep) or _tau_convolution(comp, g, f)

        out.append(Case(f"{tag} compose {j}", _compose, (g, f), check,
                        lambda res: [heights.height_to_json(res[0]), repr(res[1])]))
    return out


def _compose(g, f):
    comp = heights.compose_heights(g, f)
    return comp, comp.verify()


def _factor_cases(tag, ring, rng, n):
    out = []
    while len(out) < n:
        h = rng.choice([-1, 1])
        f = _height_morphism(ring, rng, h)
        if f.height != h:
            continue

        out.append(Case(f"{tag} factor {len(out)}", _factor, (f, h), _factor_check,
                        lambda res: [heights.height_to_json(res[0]), repr(res[1]), res[2]]))
    return out


def _factor(f, h):
    fac = heights.factor_through_suspension(f)
    if h > 0:
        back = heights.compose_heights(fac, heights.iota(f.source, h))
    else:
        back = heights.compose_heights(heights.kappa(f.target, -h), fac)
    return fac, fac.verify(0), heights.heights_equal(back, f)


def _factor_check(res):
    _, rep, same = res
    return _report_check(rep) or (None if same else "factorization does not recompose")


def _triangle_cases(tag, ring, rng, n, solved=False):
    out = []
    for j in range(n):
        x = _shaped_complex(ring, rng, SOLVED_SHAPE if solved else CONE_SHAPE)
        f = randgen.rand_morphism(x, x, rng, 0)
        if solved:
            out.append(Case(f"{tag} solved {j}", _solved_triangle, (f,), _solved_check,
                            _solved_canon))
        else:
            out.append(Case(f"{tag} cone {j}", _cone_triangle, (f,), lambda r: _report_check(*r),
                            lambda r: [repr(x) for x in r]))
    return out


def _cone_triangle(f):
    t = triangles.cone_triangle(f)
    return triangles.verify_triangle(t), triangles.les_check(t)


def _solved_triangle(f):
    t = triangles.cone_triangle(f)
    # re-derive every witness by the joint linear solve, pinned to the
    # closed-form iso expressions
    targets = [t.iso_expression(i) for i in range(3)]
    found = solve.solve_triangle_witnesses(t.complexes, t.morphisms, targets)
    if found is None:
        return None
    t2 = triangles.ExactTriangleData(t.complexes, t.morphisms, *found)
    return t2, triangles.verify_triangle(t2), triangles.les_check(t2)


def _solved_check(res):
    if res is None:
        return "no witnesses solved"
    return _report_check(res[1], res[2])


def _solved_canon(res):
    # triangles.triangle_to_json cannot serialize these: the solved N maps
    # are plain GradedMatrix blocks, not SMorphisms
    if res is None:
        return None
    t = res[0]

    def m(mat):
        return [[a, b, str(v)] for a, b, v in mat.named_triples()]

    return {"K": [[m(x) for x in (h.K, h.L, h.M1, h.M2, h.J)] for h in t.homotopies],
            "N": [None if n is None else m(n) for n in t.n_maps]}


def build_relations_small(seed, workdir):
    cases = []
    for tag in RELATION_RINGS:
        ring = randgen.RINGS[tag]
        rng = seeded(seed, f"relations-small {tag}")
        cases += _complex_cases(tag, ring, rng, PER_RING["complex"])
        cases += _morphism_cases(tag, ring, rng, PER_RING["morphism"])
        cases += _morphism_cases(tag, ring, rng, PER_RING["homotopy"], homotopy=True)
        cases += _compose_cases(tag, ring, rng, PER_RING["compose"])
        cases += _factor_cases(tag, ring, rng, PER_RING["factor"])
        cases += _triangle_cases(tag, ring, rng, PER_RING["cone"])
        cases += _triangle_cases(tag, ring, rng, PER_RING["solved"], solved=True)
    return Built(cases)


WORKLOADS = {
    "dfunc-z": build_dfunc_z,
    "dfunc-field": build_dfunc_field,
    "cli-homology": build_cli_homology,
    "relations-small": build_relations_small,
}
