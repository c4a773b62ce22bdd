"""Per-layer tracing for the traced benchmark run.

The wrappers are installed from the benchmark, around scx's public functions
and a few hot methods, and removed again afterwards; nothing under `src/`
knows about them.  Every binding of a wrapped function is replaced, including
the names that callers rebound with `from ... import` (for example
`equivariant.int_kernel_basis`), so a call is traced whichever name it goes
through.

Three kinds of wrapper:

* frame: timed.  Each call pushes a frame; on exit the layer is charged the
  call's duration minus the time of the frames nested in it (self time), and
  the call's inclusive time is added to its metric once per outermost call.
  Frames of functions that run at most a few thousand times per pass also
  record a span (name, start, end, parent, case) that is kept in memory and
  written out at the end.
* count: a call counter, with no clock read, for calls made millions of
  times (ring arithmetic, matrix and element construction).
* Ring arithmetic counters are also split by ring kind.

Times of calls that are only counted land in the self time of the nearest
enclosing frame.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("rings", "gradedlin", "scomplex", "functors", "heights", "triangles",
          "equivariant", "solve", "linkfam", "randgen", "cli")
RING_KINDS = ("Z", "Zp", "Q", "LaurentZ", "FracLaurentQ")

_MARK = "__bench_wrapped__"


# (module, name) -> (count key, time key, keep a span).  Names with a dot are
# methods of a class defined in the module.
FRAMES = {
    ("rings", "ratfun_normalize"): ("rings.ratfun_normalize_calls", "rings.ratfun_normalize_s", False),
    ("gradedlin", "GradedMatrix.__matmul__"): ("gradedlin.matmul_calls", "gradedlin.matmul_s", False),
    ("gradedlin", "GradedMatrix.power"): ("gradedlin.power_calls", "gradedlin.power_s", False),
    ("gradedlin", "smith_normal_form"): ("gradedlin.snf_calls", "gradedlin.snf_s", True),
    ("gradedlin", "_check_snf"): (None, "gradedlin.check_snf_s", True),
    ("gradedlin", "field_rref"): ("gradedlin.rref_calls", "gradedlin.rref_s", True),
    ("gradedlin", "int_kernel_basis"): (None, "gradedlin.kernel_s", True),
    ("gradedlin", "field_kernel_basis"): (None, "gradedlin.kernel_s", True),
    ("gradedlin", "homology_of_pair"): (None, "gradedlin.homology_s", True),
    ("equivariant", "froyshov_profile"): ("equivariant.profile_calls", "equivariant.profile_s", True),
    ("equivariant", "_j_module"): ("equivariant.jmodule_calls", "equivariant.jmodule_s", True),
    ("equivariant", "_module_basis_and_rank"): (None, "equivariant.basis_s", True),
    ("scomplex", "SComplex.verify"): ("scomplex.verify_calls", "scomplex.verify_s", True),
    ("scomplex", "SMorphism.verify"): ("scomplex.verify_calls", "scomplex.verify_s", True),
    ("scomplex", "SHomotopy.verify"): ("scomplex.verify_calls", "scomplex.verify_s", True),
    ("scomplex", "SComplex.base_change"): (None, "scomplex.base_change_s", True),
    ("scomplex", "base_change"): (None, "scomplex.base_change_s", True),
    ("scomplex", "SComplex.total_homology"): (None, "scomplex.homology_s", True),
    ("scomplex", "SComplex.irreducible_homology"): (None, "scomplex.homology_s", True),
    ("scomplex", "SComplex.reducible_homology"): (None, "scomplex.homology_s", True),
    ("scomplex", "scomplex_from_json"): (None, "scomplex.json_load_s", True),
    ("scomplex", "load_scomplex"): (None, "scomplex.json_load_s", True),
    ("scomplex", "morphism_from_json"): (None, "scomplex.json_load_s", True),
    ("scomplex", "scomplex_to_json"): (None, "scomplex.json_dump_s", True),
    ("scomplex", "save_scomplex"): (None, "scomplex.json_dump_s", True),
    ("scomplex", "morphism_to_json"): (None, "scomplex.json_dump_s", True),
    ("functors", "tensor"): (None, "functors.build_s", True),
    ("functors", "dual"): (None, "functors.build_s", True),
    ("functors", "suspend"): (None, "functors.build_s", True),
    ("functors", "suspend_once"): (None, "functors.build_s", True),
    ("functors", "desuspend_once"): (None, "functors.build_s", True),
    ("functors", "cone"): (None, "functors.build_s", True),
    ("functors", "direct_sum"): (None, "functors.build_s", True),
    ("functors", "atomic"): (None, "functors.build_s", True),
    ("heights", "compose_heights"): (None, "heights.compose_s", True),
    ("heights", "tau_closed_formula"): (None, "heights.tau_s", False),
    ("heights", "HeightMorphism.verify"): (None, None, True),
    ("heights", "factor_through_suspension"): (None, None, True),
    ("heights", "iota"): (None, None, True),
    ("heights", "kappa"): (None, None, True),
    ("triangles", "verify_triangle"): (None, "triangles.verify_s", True),
    ("triangles", "ExactTriangleData.verify"): (None, "triangles.verify_s", True),
    ("triangles", "les_check"): (None, "triangles.les_s", True),
    ("triangles", "ExactTriangleData.les_check"): (None, "triangles.les_s", True),
    ("triangles", "cone_triangle"): (None, None, True),
    ("solve", "solve_homotopy"): ("solve.calls", "solve.s", True),
    ("solve", "solve_triangle_homotopy"): ("solve.calls", "solve.s", True),
    ("solve", "solve_triangle_witnesses"): ("solve.calls", "solve.s", True),
    ("solve", "_solve_system"): (None, None, True),
    ("linkfam", "torus_link_complex"): (None, "linkfam.build_s", True),
    ("linkfam", "torus_knot_summand"): (None, "linkfam.build_s", True),
    ("randgen", "rand_scomplex"): (None, "randgen.gen_s", True),
    ("randgen", "rand_morphism"): (None, "randgen.gen_s", True),
    ("randgen", "rand_homotopy_pair"): (None, "randgen.gen_s", True),
    ("randgen", "rand_height_morphism"): (None, "randgen.gen_s", True),
    ("cli", "main"): ("cli.calls", None, True),
}

# (module, name) -> count key.
COUNTS = {
    ("gradedlin", "GradedMatrix.__init__"): "gradedlin.matrix_new",
    ("gradedlin", "GradedModule.__eq__"): "gradedlin.module_eq_calls",
    ("rings", "RingElement.__init__"): "rings.elements_new",
}

RING_OPS = ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__", "inverse")

# Every per-layer metric with its unit and direction, in report order.
METRICS = [
    ("rings.ops", "count", "lower"),
    *[(f"rings.ops.{k}", "count", "lower") for k in RING_KINDS],
    ("rings.elements_new", "count", "lower"),
    ("rings.ratfun_normalize_calls", "count", "lower"),
    ("rings.ratfun_normalize_s", "s", "lower"),
    ("gradedlin.matmul_calls", "count", "lower"),
    ("gradedlin.matmul_s", "s", "lower"),
    ("gradedlin.matrix_new", "count", "lower"),
    ("gradedlin.module_eq_calls", "count", "lower"),
    ("gradedlin.power_calls", "count", "lower"),
    ("gradedlin.power_s", "s", "lower"),
    ("gradedlin.power_distinct_ratio", "ratio", "higher"),
    ("gradedlin.snf_calls", "count", "lower"),
    ("gradedlin.snf_s", "s", "lower"),
    ("gradedlin.snf_max_dim", "count", "lower"),
    ("gradedlin.snf_max_bits", "bits", "lower"),
    ("gradedlin.check_snf_s", "s", "lower"),
    ("gradedlin.rref_calls", "count", "lower"),
    ("gradedlin.rref_s", "s", "lower"),
    ("gradedlin.rref_max_dim", "count", "lower"),
    ("gradedlin.kernel_s", "s", "lower"),
    ("gradedlin.homology_s", "s", "lower"),
    ("equivariant.profile_calls", "count", "lower"),
    ("equivariant.profile_s", "s", "lower"),
    ("equivariant.jmodule_calls", "count", "lower"),
    ("equivariant.jmodule_s", "s", "lower"),
    ("equivariant.jsystem_max_cols", "count", "lower"),
    ("equivariant.basis_s", "s", "lower"),
    ("scomplex.verify_calls", "count", "lower"),
    ("scomplex.verify_s", "s", "lower"),
    ("scomplex.base_change_s", "s", "lower"),
    ("scomplex.homology_s", "s", "lower"),
    ("scomplex.json_load_s", "s", "lower"),
    ("scomplex.json_dump_s", "s", "lower"),
    ("functors.build_s", "s", "lower"),
    ("functors.max_out_rank", "count", "lower"),
    ("heights.compose_s", "s", "lower"),
    ("heights.tau_s", "s", "lower"),
    ("triangles.verify_s", "s", "lower"),
    ("triangles.les_s", "s", "lower"),
    ("solve.calls", "count", "lower"),
    ("solve.s", "s", "lower"),
    ("solve.max_unknowns", "count", "lower"),
    ("linkfam.build_s", "s", "lower"),
    ("randgen.gen_s", "s", "lower"),
    ("cli.calls", "count", "lower"),
    *[(f"{layer}.self_s", "s", "lower") for layer in LAYERS],
    *[(f"{layer}.errors", "count", "lower") for layer in LAYERS],
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _bits(rows):
    return max((abs(x).bit_length() for row in rows for x in row), default=0)


class Tracer:
    """Counters, frames and spans of one traced run.

    Nothing is recorded while `on` is false, so the benchmark can run its
    output checks between traced cases without charging them to a layer.
    """

    def __init__(self):
        self.on = False
        self.case = None
        self.epoch = perf_counter()
        self.stack = []  # [name, layer, child seconds, span index or None]
        self.counts = Counter()
        self.ring_ops = Counter()
        self.incl = Counter()  # inclusive seconds, outermost call per key
        self.active = Counter()  # open frames per time key
        self.self_s = Counter()
        self.errors = Counter()
        self.maxima = Counter()
        self.spans = []  # [name, start, end, parent, case]
        self._powers = set()
        self._pinned = {}
        self._patches = []  # (owner, attribute, original)

    # -- frames and spans

    def enter(self, name, layer, span):
        parent = None
        for fr in reversed(self.stack):
            if fr[3] is not None:
                parent = fr[3]
                break
        idx = None
        if span:
            idx = len(self.spans)
            self.spans.append([name, perf_counter() - self.epoch, None, parent, self.case])
        fr = [name, layer, 0.0, idx]
        self.stack.append(fr)
        return fr

    def leave(self, fr, dur):
        self.stack.pop()
        self.self_s[fr[1]] += dur - fr[2]
        if self.stack:
            self.stack[-1][2] += dur
        if fr[3] is not None:
            self.spans[fr[3]][2] = perf_counter() - self.epoch

    def root(self, name, case=None):
        """Context for one case (or the set-up): the request a span tree hangs
        from.  Tracing is on inside it and off outside."""
        return _Root(self, name, case)

    # -- wrappers

    def _frame(self, fn, name, layer, count_key, time_key, span, hook):
        tr = self

        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            if count_key:
                tr.counts[count_key] += 1
            if time_key:
                tr.active[time_key] += 1
            fr = tr.enter(name, layer, span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tr.errors[layer] += 1
                raise
            finally:
                dur = perf_counter() - t0
                tr.leave(fr, dur)
                if time_key:
                    tr.active[time_key] -= 1
                    if not tr.active[time_key]:
                        tr.incl[time_key] += dur
            if hook is not None:
                hook(tr, args, kwargs, result)
            return result

        return wrapper

    def _count(self, fn, key, layer):
        counts = self.counts
        tr = self

        def wrapper(*args, **kwargs):
            if tr.on:
                counts[key] += 1
            try:
                return fn(*args, **kwargs)
            except BaseException:
                if tr.on:
                    tr.errors[layer] += 1
                raise

        return wrapper

    def _ring_op(self, fn):
        ops = self.ring_ops
        tr = self

        def wrapper(self_, *args):
            if tr.on:
                ops[self_.ring.kind] += 1
            try:
                return fn(self_, *args)
            except BaseException:
                if tr.on:
                    tr.errors["rings"] += 1
                raise

        return wrapper

    # -- install / remove

    def install(self):
        """Wrap every target; returns the number of bindings replaced."""
        mods = {layer: importlib.import_module(f"scx.{layer}") for layer in LAYERS}
        for (layer, name), (count_key, time_key, span) in FRAMES.items():
            self._wrap(mods, layer, name,
                       lambda fn, n=f"{layer}.{name}", l=layer, c=count_key, t=time_key, s=span:
                       self._frame(fn, n, l, c, t, s, HOOKS.get(n)))
        for (layer, name), key in COUNTS.items():
            self._wrap(mods, layer, name, lambda fn, k=key, l=layer: self._count(fn, k, l))
        for op in RING_OPS:
            self._wrap(mods, "rings", f"RingElement.{op}", self._ring_op)
        return len(self._patches)

    def _wrap(self, mods, layer, name, make):
        owner = mods[layer]
        if "." in name:
            cls_name, attr = name.split(".")
            cls = getattr(owner, cls_name)
            original = cls.__dict__[attr]
            wrapper = make(original)
            setattr(wrapper, _MARK, True)
            setattr(cls, attr, wrapper)
            self._patches.append((cls, attr, original))
            return
        original = getattr(owner, name)
        wrapper = make(original)
        setattr(wrapper, _MARK, True)
        # rebind every name that refers to the function, not only the
        # defining module's: callers hold their own `from ... import` copies
        for mod in _scx_modules():
            for attr, val in list(vars(mod).items()):
                if val is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def remove(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        left = installed_wrappers()
        if left:
            raise RuntimeError(f"tracing wrappers left installed: {left[:3]}")

    # -- results

    def metrics(self):
        """Every per-layer metric (zero where the run never reached it)."""
        out = {name: 0 for name, _, _ in METRICS}
        out.update(self.counts)
        for key, secs in self.incl.items():
            out[key] = secs
        for kind in RING_KINDS:
            out[f"rings.ops.{kind}"] = self.ring_ops[kind]
        out["rings.ops"] = sum(self.ring_ops.values())
        calls = self.counts["gradedlin.power_calls"]
        out["gradedlin.power_distinct_ratio"] = len(self._powers) / calls if calls else 0
        out.update(self.maxima)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.self_s[layer]
            out[f"{layer}.errors"] = self.errors[layer]
        out["trace.spans"] = len(self.spans)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, case in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "case": case}) + "\n")


class _Root:
    def __init__(self, tracer, name, case):
        self.tracer, self.name, self.case = tracer, name, case

    def __enter__(self):
        tr = self.tracer
        tr.on = True
        tr.case = self.case
        self.fr = tr.enter(self.name, "bench", True)
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        self.tracer.leave(self.fr, perf_counter() - self.t0)
        self.tracer.case = None
        self.tracer.on = False
        return False


def _scx_modules():
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == "scx" or n.startswith("scx."))]


def installed_wrappers():
    """Names in scx modules and classes that still hold a tracing wrapper."""
    found = []
    for mod in _scx_modules():
        for attr, val in vars(mod).items():
            if getattr(val, _MARK, False):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(val, type) and val.__module__ == mod.__name__:
                for cattr, cval in vars(val).items():
                    if getattr(cval, _MARK, False):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return found


# -- hooks: sizes read from a call's arguments and result


def _max(tr, key, value):
    if value > tr.maxima[key]:
        tr.maxima[key] = value


def _snf_hook(tr, args, kwargs, result):
    rows = args[0]
    d, u, v = result
    _max(tr, "gradedlin.snf_max_dim", max(len(rows), len(rows[0]) if rows else 0))
    _max(tr, "gradedlin.snf_max_bits", max(_bits(rows), _bits(d), _bits(u), _bits(v)))


def _rref_hook(tr, args, kwargs, result):
    rows = args[0]
    _max(tr, "gradedlin.rref_max_dim", max(len(rows), len(rows[0]) if rows else 0))


def _kernel_hook(tr, args, kwargs, result):
    # only the kernels solved for a J_i system count towards its size
    if tr.stack and tr.stack[-1][0] == "equivariant._j_module":
        rows = args[0]
        ncols = len(rows[0]) if rows else (kwargs.get("ncols") or 0)
        _max(tr, "equivariant.jsystem_max_cols", ncols)


def _power_hook(tr, args, kwargs, result):
    m, n = args[0], args[1]
    # pin the matrix so its id cannot be reused by another one
    tr._pinned.setdefault(id(m), m)
    tr._powers.add((id(m), n))


def _functor_hook(tr, args, kwargs, result):
    _max(tr, "functors.max_out_rank", result.irr.rank)


def _solve_system_hook(tr, args, kwargs, result):
    _max(tr, "solve.max_unknowns", args[1])


HOOKS = {
    "gradedlin.smith_normal_form": _snf_hook,
    "gradedlin.field_rref": _rref_hook,
    "gradedlin.int_kernel_basis": _kernel_hook,
    "gradedlin.field_kernel_basis": _kernel_hook,
    "gradedlin.GradedMatrix.power": _power_hook,
    **{f"functors.{f}": _functor_hook
       for f in ("tensor", "dual", "suspend", "suspend_once", "desuspend_once",
                 "cone", "direct_sum", "atomic")},
    "solve._solve_system": _solve_system_hook,
}
