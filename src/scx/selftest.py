"""The acceptance suite: one callable per criterion, shared by the CLI
selftest verb and the pytest acceptance module.  Each criterion returns
(passed, detail) and is exact -- there are no tolerances anywhere."""

from __future__ import annotations

import os
import random
import time
from .equivariant import (
    _j_module,
    froyshov_profile,
    froyshov_properties_check,
    ijp_exactness_report,
    j_module_oracle,
    susequivar_witness,
)
from .functors import atomic, o1_o_minus1_witness, suspend, suspension_witness
from .gradedlin import spans_equal
from .heights import (
    HeightMorphism,
    compose_heights,
    factor_through_suspension,
    heights_equal,
    iota,
    kappa,
    OddMorphism,
    odd_to_suspension_morphism,
)
from .linkfam import (
    determinant,
    ibasic_family,
    murasugi_congruence_ok,
    nontrivial_bundle_chi,
    pretzel,
    qa_rank,
    signatures,
    skein_chi,
    torus2,
    torus_link_complex,
    torus_resolution_tree,
    twisted_torus,
)
from .randgen import RINGS, rand_homotopy_pair, rand_morphism, rand_scomplex
from .rings import FRAC_LAURENT_Q, LAURENT_Z, Q, RingMap, Z, Zp, eval_t_at_one
from .triangles import classify_skein, cone_triangle, les_check, verify_triangle
from .gradedlin import GradedMatrix

DEFAULT_SEED = 2026


def _seed():
    env = os.environ.get("SCX_SEED")
    return int(env) if env else DEFAULT_SEED


def criterion_1(seed):
    """Relation suites on constructed objects and seeded random instances."""
    rng = random.Random(seed)
    count = 0
    for ring in RINGS.values():
        for _ in range(70):
            x = rand_scomplex(ring, rng)
            if not x.verify().ok:
                return False, f"complex relations failed over {ring!r}"
            f = rand_morphism(x, x, rng, degree=rng.choice([0, 1, 2]))
            if not f.verify().ok:
                return False, f"morphism relations failed over {ring!r}"
            g, h = rand_homotopy_pair(f, rng)
            if not (g.verify().ok and h.verify().ok):
                return False, f"homotopy relations failed over {ring!r}"
            count += 3
    for k in range(1, 6):
        if not torus_link_complex(k).verify().ok:
            return False, f"torus complex k={k} failed"
        count += 1
    return True, f"{count} instances verified across Z, Z/2, Q, Q(T)"


def criterion_2(seed):
    """Suspension/tensor witnesses, H(Sigma^n) invariance, Euler identity."""
    rng = random.Random(seed + 1)
    w = o1_o_minus1_witness()
    if not w.verify().ok:
        return False, "O(1)xO(-1) witness failed"
    checked = 0
    for _ in range(50):
        ring = rng.choice([Q, Zp(2), Z])
        x = rand_scomplex(ring, rng, max_rank=5)
        if not suspension_witness(x).verify().ok:
            return False, "suspension witness failed on a random complex"
        checked += 1
    for _ in range(12):
        x = rand_scomplex(rng.choice([Q, Zp(2)]), rng, max_rank=4)
        h0 = x.total_homology()
        for n in (-3, -2, -1, 1, 2, 3):
            hn = suspend(x, n).total_homology()
            if not hn.same_ranks(h0.shifted(2 * n)):
                return False, f"H(Sigma^{n}) ranks moved"
        # Euler characteristic identity chi(Sigma^n C) = chi(C) - n chi(R)
        chi_c = x.irreducible_euler()
        chi_r = sum(1 if d % 2 == 0 else -1 for _, d in x.red.gens)
        for n in (1, 2, -1):
            got = suspend(x, n).irreducible_euler()
            if got != chi_c - n * chi_r:
                return False, "suspension Euler identity failed"
    return True, f"witnesses on {checked} random complexes; H-invariance and Euler identity"


def criterion_3(seed):
    """Heights: tau composition, factorization recomposition, odd route."""
    from .randgen import rand_height_morphism

    rng = random.Random(seed + 2)
    pairs = 0
    while pairs < 100:
        ring = rng.choice([Q, Zp(2)])
        n = rng.choice([-1, 0, 1])
        m = rng.choice([0, 1])
        f = rand_height_morphism(ring, rng, n)
        g0 = rand_morphism(f.target, f.target, rng, 0)
        g = HeightMorphism.from_morphism(g0)
        if m == 1:
            g = compose_heights(iota(f.target, 1), g)
        comp = compose_heights(g, f)
        if not comp.verify().ok:
            return False, "composite failed verification"
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
                    return False, f"tau convolution failed at {i}"
            elif not (acc - want).is_zero:
                return False, f"tau convolution failed at {i}"
        pairs += 1
    refactored = 0
    while refactored < 30:
        ring = rng.choice([Q, Zp(2)])
        n = rng.choice([-1, 1])
        f = rand_height_morphism(ring, rng, n)
        if f.height != n:
            continue
        fac = factor_through_suspension(f)
        if not fac.verify(0).ok:
            return False, "factorization failed verification"
        if n > 0:
            re = compose_heights(fac, iota(f.source, n))
        else:
            re = compose_heights(kappa(f.target, -n), fac)
        if not heights_equal(re, f):
            return False, "factorization did not recompose"
        refactored += 1
    odd = 0
    while odd < 50:
        ring = rng.choice([Q, Zp(2)])
        x = rand_scomplex(ring, rng, max_rank=4, r_perfect=True, allow_cone=False)
        gm = rand_morphism(x, x, rng, 1)
        ent = {}
        for s in range(x.red.rank):
            for t in range(x.red.rank):
                if (x.red.degree(t) - x.red.degree(s)) % x.modulus == 0 and rng.random() < 0.6:
                    ent[(t, s)] = ring.domain.from_int(rng.choice([1, -1]))
        nu = GradedMatrix(x.red, x.red, 0, ent)
        g = OddMorphism(gm, nu)
        lam2 = odd_to_suspension_morphism(g)
        if not lam2.verify().ok:
            return False, "odd suspension morphism failed"
        back = lam2.compose_after(iota(x, 1).to_morphism()) - g.morphism
        if not back.is_zero:
            return False, "lambda''.iota_1 != lambda'"
        odd += 1
    return True, f"{pairs} tau pairs, {refactored} factorizations, {odd} odd morphisms"


def criterion_4(seed):
    """Triangles: cone witnesses (closed-form and solved), les, classifier."""
    from .solve import solve_triangle_homotopy
    from .triangles import ExactTriangleData

    rng = random.Random(seed + 3)
    for ring in (Q, Zp(2)):
        for trial in range(8):
            x = rand_scomplex(ring, rng, max_rank=4)
            f = rand_morphism(x, x, rng, 0)
            t = cone_triangle(f)
            if not verify_triangle(t).ok:
                return False, f"cone triangle axioms failed over {ring!r}"
            if not les_check(t).ok:
                return False, f"cone triangle les failed over {ring!r}"
            # re-derive all witnesses by the joint brute-force linear solve,
            # pinning the iso expressions to the closed-form targets
            from .solve import solve_triangle_witnesses

            targets = [t.iso_expression(j) for j in range(3)]
            solved = solve_triangle_witnesses(t.complexes, t.morphisms, targets)
            if solved is None:
                return False, "triangle witness solve failed"
            homs, nmaps = solved
            t2 = ExactTriangleData(t.complexes, t.morphisms, homs, nmaps)
            if not verify_triangle(t2).ok:
                return False, "solved-witness triangle failed"
            if not les_check(t2).ok:
                return False, "solved-witness les failed"
    table = {(1, 1): ("I", 0), (-1, 1): ("II", -1), (1, -1): ("III", 1)}
    for (e1, e2), (case, delta) in table.items():
        c = classify_skein(e1, e2)
        if (c.case, c.delta) != (case, delta):
            return False, "skein case table mismatch"
    try:
        classify_skein(-1, -1)
        return False, "(-1,-1) was not rejected"
    except Exception:
        pass
    return True, "cone triangles (closed-form and solved witnesses) + les over Q and Z/2"


def criterion_5(seed):
    """Equivariant package and Froyshov invariants."""
    rng = random.Random(seed + 4)
    for _ in range(6):
        x = rand_scomplex(Zp(2), rng, max_rank=5, r_perfect=True, allow_cone=False)
        if not ijp_exactness_report(x, 3).ok:
            return False, "ijp exactness failed"
        if not susequivar_witness(x).ok:
            return False, "susequivar identities failed"
    for n in range(-3, 4):
        if froyshov_profile(atomic(n, Q, 4)).h != n:
            return False, f"h(O({n})) wrong"
    inc = RingMap(RingMap.LAURENT_TO_FRAC, LAURENT_Z, FRAC_LAURENT_Q)
    from .linkfam import torus_knot_summand

    tre = torus_knot_summand(2)
    if froyshov_profile(tre.base_change(inc)).h != 1:
        return False, "h(trefoil over Q(T)) != 1"
    pz = froyshov_profile(tre.base_change(eval_t_at_one()))
    lo, hi = pz.window
    trivial = all(pz.d[i] == (1 if i <= 0 else 0) for i in range(lo, hi + 1))
    if not trivial:
        return False, "trefoil d over Z is not trivial"
    pairs = 0
    while pairs < 50:
        ring = rng.choice([Q, Zp(3)])
        x = rand_scomplex(ring, rng, max_rank=3, r_perfect=True, allow_cone=False)
        y = rand_scomplex(ring, rng, modulus=x.modulus, max_rank=2,
                          r_perfect=True, allow_cone=False)
        if not froyshov_properties_check(x, y).ok:
            return False, "a d-function property failed"
        pairs += 1
    ring = Zp(2)
    checked = 0
    for _ in range(20):
        x = rand_scomplex(ring, rng, max_rank=3, r_perfect=True, allow_cone=False)
        w = x.irr.rank + x.red.rank + 1
        for i in range(-w, w + 1):
            if not spans_equal(_j_module(x, i), j_module_oracle(x, i), x.red.rank, ring):
                return False, f"finite-system J differs from the series oracle at i={i}"
            checked += 1
    return True, f"ijp/susequivar, h-values, {pairs} property pairs, {checked} J comparisons"


def criterion_6(seed):
    """Closed-form link tables as exact integer matches."""
    for n in range(1, 16):
        if determinant(pretzel(n)) != abs(n - 6):
            return False, f"det(P_{n}) wrong"
        sigs = signatures(pretzel(n))
        if n % 2 == 1:
            want = -n - 1 if n >= 7 else -n - 3
            if sigs["o"] != want:
                return False, f"sigma(P_{n}) wrong"
        else:
            wplus = -n - 1 if n >= 8 else (-8 if n == 6 else -n - 3)
            wminus = 1 if n >= 8 else (0 if n == 6 else -1)
            if sigs["o+"] != wplus or sigs["o-"] != wminus:
                return False, f"sigma(P_{n}, o) wrong"
    for n in (1, 2, 3, 5, 7, 9, 11, 13, 15):
        rep = ibasic_family("pretzel", n=n)
        m = n + 3 if n <= 5 else n + 1
        want = {1: (m + 3) // 4, 3: m // 4}
        if rep.ranks != want:
            return False, f"I(P_{n}) ranks wrong"
    if ibasic_family("pretzel", n=7).ranks != {1: 2, 3: 2}:
        return False, "P_7 ranks wrong"
    from math import gcd

    for p in range(2, 8):
        for q in range(2, 8):
            if gcd(p, q) != 1:
                continue
            for k2 in range(0, 9):
                determinant(twisted_torus(p, q, k2))  # raises on any mismatch
    for n in range(1, 4):
        for k in range(1, 5):
            rep = ibasic_family("twisted3", n=n, k=k)
            want = {1: n + (k + 2) // 2, 3: n + (k + 1) // 2}
            if rep.ranks != want or not rep.consistent:
                return False, f"I(T(3,{3*n+2};2,{k})) ranks wrong"
    if qa_rank(3, 1) != 1 or qa_rank(2, 2) != 0:
        return False, "qa base ranks wrong"
    for k in range(1, 7):
        if qa_rank(determinant(torus2(2 * k + 1)), 1) != k:
            return False, "qa rank of T(2,2k+1) wrong"
    for k in range(1, 9):
        chi, _ = skein_chi(torus_resolution_tree(k))
        if chi != 1 - k:
            return False, f"skein chi for T(2,{2*k}) wrong"
    if nontrivial_bundle_chi(1, 2) != -1:
        return False, "nontrivial bundle chi wrong"
    return True, "pretzel, twisted, qa, skein, and bundle tables all match"


def criterion_7(seed):
    """Cross-consistency of torus homology, qa formula, and skein chi."""
    inc = RingMap(RingMap.LAURENT_TO_FRAC, LAURENT_Z, FRAC_LAURENT_Q)
    for k in range(1, 7):
        x = torus_link_complex(k).base_change(inc)
        h = x.irreducible_homology()
        if h.total_rank != k - 1:
            return False, f"torus k={k} irreducible rank wrong"
        if any(d % 2 == 0 for d in h.ranks_by_degree()):
            return False, f"torus k={k} has even-degree classes"
        if h.euler() != 1 - k:
            return False, f"torus k={k} Euler wrong"
        if qa_rank(determinant(torus2(2 * k)), 2) != k - 1:
            return False, f"qa formula disagrees at k={k}"
        chi, _ = skein_chi(torus_resolution_tree(k))
        if chi != 1 - k:
            return False, f"skein chi disagrees at k={k}"
    for n in [1, 3, 5, 7, 9, 11, 13, 15]:
        if not murasugi_congruence_ok(pretzel(n)):
            return False, f"Murasugi congruence fails for P_{n}"
    for k in range(1, 8):
        if not murasugi_congruence_ok(torus2(2 * k + 1)):
            return False, "Murasugi congruence fails for T(2,odd)"
    for n in range(1, 4):
        for k in range(0, 5):
            if not murasugi_congruence_ok(twisted_torus(3, 3 * n + 2, 2 * k)):
                return False, "Murasugi congruence fails for twisted torus"
    return True, "torus homology = qa formula = skein chi; Murasugi congruence holds"


CRITERIA = [
    ("1 relation suites", criterion_1),
    ("2 suspension/tensor lemmas", criterion_2),
    ("3 heights", criterion_3),
    ("4 triangles", criterion_4),
    ("5 equivariant/Froyshov", criterion_5),
    ("6 link tables", criterion_6),
    ("7 cross-consistency", criterion_7),
]


def run_all(seed=None, out=print):
    seed = _seed() if seed is None else seed
    out(f"scx selftest (seed {seed})")
    failures = 0
    for name, fn in CRITERIA:
        t0 = time.time()
        try:
            ok, detail = fn(seed)
        except Exception as exc:  # a crash is a failure with its reason
            ok, detail = False, f"{type(exc).__name__}: {exc}"
        dt = time.time() - t0
        out(f"[{'pass' if ok else 'FAIL'}] criterion {name} ({dt:.1f}s): {detail}")
        if not ok:
            failures += 1
    return failures
