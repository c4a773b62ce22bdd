"""Checks of the benchmark itself (not of scx).

    python3 bench/selfcheck.py

Exits 0 when every check holds.  It shows that:

* a case fed a deliberately wrong expected value, and a case that raises,
  are each counted as failed, and the pass goes on to the other cases;
* a wrong recorded digest fails the case;
* every pass hands a case new copies of its inputs, equal to the originals;
* the traced run's wrappers reach the names callers rebound with
  `from ... import`, and are all gone after removal;
* the seed changes only the randgen instances, the per-case choices and the
  order: the structured cases are the same under every seed;
* the tail metric sits at the highest percentile with ten cases beyond it;
* the reference unit does the same work every time, leaves the collector as
  it found it, and scales every case of a group by one factor.

Kept out of pytest's default collection on purpose: the benchmark drops and
re-imports the scx modules, which would disturb other tests in one session.
"""

from __future__ import annotations

import gc
import os
import shutil
import sys

import calibrate
import run


def check(cond, what):
    if not cond:
        raise SystemExit(f"selfcheck FAILED: {what}")
    print(f"ok  {what}")


def wrong_expected_value_counts_as_failed(wl):
    from scx import functors, rings

    x = functors.atomic(1, rings.Q)
    right = wl.profile_case("O(1) right", x, expect_h=1)
    wrong = wl.profile_case("O(1) wrong", x, expect_h=2)  # h(O(1)) is 1

    def boom():
        raise ValueError("deliberate")

    raises = wl.Case("raises", boom, (), lambda out: None, lambda out: None)
    built = wl.Built([right, wrong, raises])
    done = run.run_pass(built.cases, wl.seeded(0, "order"))
    failures = run.check_pass(built, done, None)
    check(set(failures) == {"O(1) wrong", "raises"},
          "wrong expected value and a raising case count as failed, the right one passes")
    check("expected 2" in failures["O(1) wrong"], "the failure names the expected value")
    check(len(done) == 3, "a failing case does not abort the pass")
    bad = run.check_pass(wl.Built([right]), [d for d in done if d[0] is right],
                         {"O(1) right": "0000000000000000"})
    check("digest" in bad.get("O(1) right", ""), "a wrong recorded digest fails the case")


def passes_get_fresh_inputs(wl):
    from scx import linkfam, scomplex

    x = linkfam.torus_knot_summand(3)
    seen = []
    case = wl.Case("probe", lambda y: seen.append(y) or y.verify(), (x,),
                   lambda rep: None if rep.ok else "not ok", repr)
    order = wl.seeded(0, "order")
    run.run_pass([case], order)
    run.run_pass([case], order)
    a, b = seen
    check(a is not x and b is not x and a is not b, "each pass gets a new input object")
    key = next(iter(x.v.entries))
    check(a.v is not x.v and a.v.entries is not x.v.entries
          and a.v.entries[key] is not x.v.entries[key] and a.v.entries[key] == x.v.entries[key],
          "the copy is deep: matrices, entry tables and ring elements are new")
    check(a.ring is x.ring, "rings are shared, as constants")
    check(run.digest(scomplex.scomplex_to_json(a)) == run.digest(scomplex.scomplex_to_json(x)),
          "the copy equals the original")


def wrappers_installed_and_removed():
    from scx import equivariant, gradedlin
    from tracer import Tracer, installed_wrappers

    check(installed_wrappers() == [], "no wrappers before tracing")
    original = equivariant.int_kernel_basis
    tracer = Tracer()
    tracer.install()
    try:
        check(equivariant.int_kernel_basis is not original,
              "the name rebound in equivariant is wrapped")
        check(equivariant.field_kernel_basis is gradedlin.field_kernel_basis,
              "every binding of a function gets the same wrapper")
        with tracer.root("case", "probe"):
            gradedlin.int_kernel_basis([[1, 1]])
            equivariant.int_kernel_basis([[1, 1]])
        check(tracer.metrics()["gradedlin.snf_calls"] == 2, "calls through both names are counted")
    finally:
        tracer.remove()
    check(installed_wrappers() == [], "every wrapper is removed afterwards")
    check(equivariant.int_kernel_basis is original, "the original function is restored")


def seed_reaches_only_random_parts(wl, workdir):
    a = wl.build_dfunc_z(1, workdir).cases
    b = wl.build_dfunc_z(2, workdir).cases
    same = [(x.id, y.id) for x, y in zip(a, b) if not x.id.startswith("random")]
    check(all(i == j for i, j in same) and len(a) == len(b), "the case list does not depend on the seed")
    randoms = [f"random {j}" for j in range(wl.N_RANDOM_Z)]
    outs = {}
    for seed, cases in ((1, a), (2, b)):
        for case in cases:
            if case.id in ["link k=10", "O(2)", *randoms]:
                outs[seed, case.id] = run.digest(case.canon(case.run()))
    check(outs[1, "link k=10"] == outs[2, "link k=10"] and outs[1, "O(2)"] == outs[2, "O(2)"],
          "structured cases give the same output under two seeds")
    check([outs[1, r] for r in randoms] != [outs[2, r] for r in randoms],
          "the seed changes the randgen instances")
    again = wl.build_dfunc_z(1, workdir).cases
    check([run.digest(c.canon(c.run())) for c in again if c.id.startswith("random")]
          == [outs[1, r] for r in randoms], "the same seed gives the same instances")


def tail_has_ten_cases_beyond():
    values, extra = run.timing_metrics([i / 1000 for i in range(1, 41)])
    check(values["case_ms_tail"] == 30 and extra["tail_percentile"] == 75,
          "the tail is the highest percentile with ten cases beyond it")
    check(values["case_ms_p50"] == 20.5, "the median is the middle of the cases")


def reference_times_are_scaled(wl):
    check(calibrate.unit() == (77948684, 5, 35), "the reference unit computes its fixed result")
    run.reference_unit_s()
    check(gc.isenabled(), "the collector is on again after the reference unit")
    quick = [wl.Case(f"quick {j}", lambda: sum(range(1000)), (), lambda out: None, repr)
             for j in range(3)]
    done = run.run_pass(quick, wl.seeded(0, "order"))
    scales = [ref / dt for *_, dt, ref in done]
    check(min(scales) > 0 and max(scales) / min(scales) - 1 < 1e-9,
          "the cases of one group are scaled to the reference speed by one factor")


def main():
    wl = run.import_scx()
    workdir = os.path.join(run.OUT, f"work-selfcheck-{os.getpid()}")
    os.makedirs(workdir)
    try:
        wrong_expected_value_counts_as_failed(wl)
        passes_get_fresh_inputs(wl)
        wrappers_installed_and_removed()
        seed_reaches_only_random_parts(wl, workdir)
        tail_has_ten_cases_beyond()
        reference_times_are_scaled(wl)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
