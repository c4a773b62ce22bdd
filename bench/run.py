"""Benchmark of scx: one workload per process, one client in a closed loop.

    python3 bench/run.py --workload dfunc-z --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; scx is imported from its `src/`
directory, never from an installed copy.

The run measures passes over the workload's fixed case list, each pass in a
seeded order, one case starting when the previous one returns, until
--seconds of wall time have passed.  Every case gets a fresh copy of its
inputs, made before its clock starts, so nothing a call leaves behind on its
inputs is found by the next pass.  After each pass every output is checked; a
case that raises or fails its check counts as failed, and the workload goes
on.

Times are reported at a fixed reference speed.  The shared host this runs on
changes speed by up to 1.8x from one tenth of a second to the next, and stays
slow or fast for whole runs.  So the run also times a fixed reference
computation (calibrate.py, pure Python, no scx) between groups of cases, and
scales each case's time by REF_UNIT_S over the reference unit's time around
it: a case's reference time is what it would take where the unit takes
REF_UNIT_S.  The collector is off while the unit runs, so the program's heap
cannot slow it.  A case's figure is the median of its reference times over
the passes (NOTES.md has the measurements).

Set-up is import plus building the workload's inputs from the seed.  It is
done SETUP_REPEATS times, spread evenly over the run (one before the first
pass, the others between passes, each dropping the modules first so that it
pays the whole import); the passes after a set-up use its inputs.  Each is
scaled to the reference speed by the unit timed just before and just after.

    setup_s        the median set-up, in reference seconds
    cases_per_s    cases in the list / sum of their figures
    case_ms_p50    median over the cases
    case_ms_tail   the highest percentile with at least ten cases beyond it
    peak_rss_mb    peak resident memory of the process

--trace 0 prints those.  --trace 1 measures untraced passes the
same way, then installs the wrappers of tracer.py, builds the inputs and runs
one pass traced, removes the wrappers, and prints the per-layer metrics with
the tracing overhead (the traced pass minus the median untraced pass); the
spans go to bench/out/.

The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
A fuller record (seed, each pass's total in seconds and in reference seconds,
each case's times, each set-up's time, the tail percentile, failures) is
written to bench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from time import perf_counter

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
DIGESTS = os.path.join(HERE, "digests.json")

SETUP_REPEATS = 8
CAL_UNITS = 3  # reference units per timing of the machine's speed
CAL_GAP_S = 0.005  # seconds of cases between two timings, at least
REF_UNIT_S = 0.0005  # the reference unit's time at the reference speed
WORKLOAD_NAMES = ("dfunc-z", "dfunc-field", "cli-homology", "relations-small")
UNITS = {"setup_s": "s", "cases_per_s": "1/s", "case_ms_p50": "ms",
         "case_ms_tail": "ms", "peak_rss_mb": "MB"}


class BenchError(Exception):
    """The benchmark cannot run here (as opposed to a case failing)."""


def import_scx():
    """Import every scx layer, and the workloads, from this checkout's src/.

    Any earlier import is dropped first, so each call pays the whole import.
    Returns the workloads module."""
    if not os.path.isfile(os.path.join(SRC, "scx", "__init__.py")):
        raise BenchError(f"no scx sources under {SRC}: run from a source checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    from tracer import LAYERS

    for name in list(sys.modules):
        if name in ("scx", "workloads") or name.startswith("scx."):
            del sys.modules[name]
    for layer in LAYERS:
        importlib.import_module(f"scx.{layer}")
    workloads = importlib.import_module("workloads")
    where = os.path.dirname(os.path.abspath(sys.modules["scx"].__file__))
    if where != os.path.join(SRC, "scx"):
        raise BenchError(f"scx imported from {where}, not from {SRC}")
    return workloads


def digest(obj):
    text = json.dumps(obj, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def fresh(obj, constants, memo):
    """A deep copy of a case's inputs in which every scx object is new.

    scx objects are immutable (their __setattr__ raises), so copy.deepcopy
    cannot rebuild them; this sets their slots and attributes directly.
    Objects of the `constants` classes (the rings) are shared, as are ints,
    strings, fractions and functions."""
    got = memo.get(id(obj))
    if got is not None:
        return got
    kind = type(obj)
    if kind is list:
        new = memo[id(obj)] = []
        new.extend(fresh(x, constants, memo) for x in obj)
    elif kind is dict:
        new = memo[id(obj)] = {}
        for key, value in obj.items():
            new[fresh(key, constants, memo)] = fresh(value, constants, memo)
    elif kind in (tuple, set, frozenset):
        new = memo[id(obj)] = kind(fresh(x, constants, memo) for x in obj)
    elif kind.__module__.startswith("scx.") and not isinstance(obj, constants):
        new = memo[id(obj)] = object.__new__(kind)
        for klass in kind.__mro__:
            for slot in klass.__dict__.get("__slots__", ()):
                if hasattr(obj, slot):
                    object.__setattr__(new, slot, fresh(getattr(obj, slot), constants, memo))
        for key, value in getattr(obj, "__dict__", {}).items():
            object.__setattr__(new, key, fresh(value, constants, memo))
    else:
        return obj
    return new


def reference_unit_s():
    """Seconds the reference unit takes now: the median of CAL_UNITS runs.

    The collector is off meanwhile (the unit makes no cycles), so the heap the
    program has built cannot slow the unit down and hide the program's cost."""
    times = []
    gc.disable()
    try:
        for _ in range(CAL_UNITS):
            t0 = perf_counter()
            calibrate.unit()
            times.append(perf_counter() - t0)
    finally:
        gc.enable()
    return statistics.median(times)


def run_pass(cases, order_rng, tracer=None):
    """One closed-loop pass in seeded order, each case on a fresh copy of its
    inputs: [(case, output, error, seconds, reference seconds)].

    The reference unit is timed before the first case and again whenever
    CAL_GAP_S of cases have run since; a case's reference seconds are its
    seconds scaled by REF_UNIT_S over the mean of the two timings around its
    group, i.e. its time at the speed at which the unit takes REF_UNIT_S."""
    rings = sys.modules["scx.rings"]
    constants = (rings.Ring, rings.RingMap)
    order = list(cases)
    order_rng.shuffle(order)
    done = []
    group, group_s = [], 0.0
    before = reference_unit_s()
    for i, case in enumerate(order):
        args = fresh(case.args, constants, {})
        scope = tracer.root("case", case.id) if tracer else contextlib.nullcontext()
        with scope:
            t0 = perf_counter()
            try:
                out, err = case.fn(*args), None
            except Exception as exc:  # a case that raises is a failed case
                out, err = None, f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
        group.append((case, out, err, dt))
        group_s += dt
        if group_s >= CAL_GAP_S or i == len(order) - 1:
            after = reference_unit_s()
            scale = 2 * REF_UNIT_S / (before + after)
            done.extend((c, o, e, d, d * scale) for c, o, e, d in group)
            group, group_s, before = [], 0.0, after
    return done


def check_pass(built, done, digests):
    """{case id: reason} for every case of the pass that failed."""
    failures = {}
    outs = {}
    for case, out, err, *_ in done:
        why = err
        if why is None:
            try:
                why = case.check(out)
                if why is None and digests is not None:
                    want, got = digests.get(case.id), digest(case.canon(out))
                    if got != want:
                        why = f"output digest {got} != recorded {want}"
            except Exception as exc:  # a check that raises fails the case
                why = f"check raised {type(exc).__name__}: {exc}"
        if why is None:
            outs[case.id] = out
        else:
            failures[case.id] = why
    if built.cross is not None:
        for cid, why in built.cross(outs).items():
            failures.setdefault(cid, why)
    return failures


def timing_metrics(figures):
    """The end-to-end timing metrics from each case's figure (seconds)."""
    s = sorted(figures)
    n = len(s)
    tail_i = max(n - 11, 0)  # ten cases beyond it, when there are that many
    return {
        "cases_per_s": n / sum(s),
        "case_ms_p50": statistics.median(s) * 1000,
        "case_ms_tail": s[tail_i] * 1000,
    }, {"tail_percentile": 100 * (tail_i + 1) / n, "cases": n}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Run:
    """One benchmark process: its workload, seed and failure tallies."""

    def __init__(self, workload, seed, seconds, workdir):
        self.workload, self.seed, self.seconds = workload, seed, seconds
        self.workdir = workdir
        self.wl = None  # the workloads module of the last import
        self.digests = None
        self.setup_times = []  # (seconds, reference seconds) of each set-up
        self.attempted = 0
        self.failures = []

    def setup(self):
        """Import and build the inputs once; the time goes to setup_times."""
        gc.collect()  # the garbage of earlier set-ups and passes, outside the clock
        before = reference_unit_s()
        t0 = perf_counter()
        self.wl = import_scx()
        built = self.wl.WORKLOADS[self.workload](self.seed, self.workdir)
        took = perf_counter() - t0
        after = reference_unit_s()
        self.setup_times.append((took, took * 2 * REF_UNIT_S / (before + after)))
        if self.digests is None and self.seed == self.wl.DEFAULT_SEED:
            with open(DIGESTS) as fh:
                self.digests = json.load(fh).get(self.workload, {})
        return built

    def tally(self, built, done):
        bad = check_pass(built, done, self.digests)
        self.attempted += len(done)
        self.failures += sorted(bad.items())

    def measure(self, built):
        """Passes until --seconds is up, after the set-up that built `built`,
        with the other set-ups between them: the timing metrics from each
        case's median reference time, and each pass's totals for the record."""
        order_rng = self.wl.seeded(self.seed, "order")
        spacing = self.seconds / SETUP_REPEATS
        runs = {}  # case id -> [(seconds, reference seconds) of each pass]
        pass_s, pass_ref_s = [], []
        done = None
        t0 = perf_counter()
        while True:
            n = len(self.setup_times)
            if n < SETUP_REPEATS and perf_counter() - t0 >= n * spacing:
                built = done = None  # let the previous inputs go before building again
                built = self.setup()
            done = run_pass(built.cases, order_rng)
            for case, _, _, dt, ref in done:
                runs.setdefault(case.id, []).append((dt, ref))
            pass_s.append(sum(d[3] for d in done))
            pass_ref_s.append(sum(d[4] for d in done))
            self.tally(built, done)
            if perf_counter() - t0 >= self.seconds:
                break
        while len(self.setup_times) < SETUP_REPEATS:  # passes longer than the spacing
            built = done = None
            built = self.setup()
        values, extra = timing_metrics([statistics.median(r for _, r in v) for v in runs.values()])
        extra.update({"passes": len(pass_s), "pass_s": pass_s, "pass_ref_s": pass_ref_s,
                      "case_runs": runs})
        return values, extra

    def traced(self, built):
        """Untraced passes for --seconds, then the inputs built again and one
        pass traced; the overhead is that pass against the median untraced
        pass, both in reference seconds."""
        from tracer import Tracer

        _, measured = self.measure(built)
        untraced = statistics.median(measured["pass_ref_s"])
        tracer = Tracer()
        tracer.install()
        try:
            with tracer.root("setup"):
                built = self.wl.WORKLOADS[self.workload](self.seed, self.workdir)
            done = run_pass(built.cases, self.wl.seeded(self.seed, "order"), tracer)
        finally:
            tracer.remove()
        self.tally(built, done)
        traced = sum(d[4] for d in done)
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = traced - untraced
        metrics["trace.overhead_frac"] = (traced - untraced) / untraced
        spans = os.path.join(OUT, f"spans-{self.workload}-seed{self.seed}.jsonl")
        tracer.write_spans(spans)
        return metrics, {"spans_file": os.path.relpath(spans, ROOT),
                         "untraced_passes": measured["passes"],
                         "untraced_pass_ref_s": untraced, "traced_pass_ref_s": traced}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be at least 1")
    return args


def main(argv=None):
    args = parse_args(argv)
    from tracer import METRICS, installed_wrappers

    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    run = Run(args.workload, args.seed, args.seconds, workdir)
    try:
        try:
            built = run.setup()
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        except Exception:
            traceback.print_exc()
            print("error: set-up failed", file=sys.stderr)
            return 1
        record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "cases_per_pass": len(built.cases)}
        if args.trace:
            values, extra = run.traced(built)
            units = {name: unit for name, unit, _ in METRICS}
        else:
            values, extra = run.measure(built)
            left = installed_wrappers()
            if left:
                raise BenchError(f"untraced run found tracing wrappers: {left[:3]}")
            values["setup_s"] = statistics.median(r for _, r in run.setup_times)
            values["peak_rss_mb"] = peak_rss_mb()
            units = UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(run.failures)
    record.update(extra)
    record["setup_times_s"] = run.setup_times
    record.update({"attempted": run.attempted, "failed": failed,
                   "failed_frac": failed / run.attempted,
                   "failures": [{"case": c, "reason": r} for c, r in run.failures[:50]],
                   "metrics": values})
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    for cid, why in run.failures[:10]:
        print(f"FAILED {cid}: {why}")
    tail = (f" passes={extra['passes']} tail=p{extra['tail_percentile']:.1f} of "
            f"{extra['cases']} cases" if "passes" in extra else "")
    print(f"workload={args.workload} seed={args.seed} attempted={run.attempted} "
          f"failed={failed} failed_frac={failed / run.attempted:.4f}{tail}")
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
