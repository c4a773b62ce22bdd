"""Command-line front end.

Every verb reads and writes the JSON formats of the library; `--json` emits
machine-readable output, otherwise aligned text is printed.  Exit codes:
0 success, 1 verification failure, 2 usage error, 3 unsupported ring/family.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import errors
from .equivariant import build_small, froyshov_profile, ijp_exactness_report
from .functors import atomic, cone, dual, suspend, tensor
from .heights import HeightMorphism, compose_heights
from .linkfam import (
    determinant,
    hopf_complex,
    ibasic_family,
    murasugi_xi,
    alexander,
    pretzel,
    qa_graded,
    qa_rank,
    signatures,
    skein_chi,
    skein_node_from_json,
    torus2,
    torus_knot_summand,
    torus_link_complex,
    twisted_torus,
    unknot_complex,
)
from .rings import FRAC_LAURENT_Q, LAURENT_Z, Q, RingMap, Z, Zp, eval_t_at_one
from .scomplex import (
    SHomotopy,
    SMorphism,
    load_scomplex,
    matrix_from_json,
    morphism_from_json,
    read_json,
    save_scomplex,
    scomplex_from_json,
    scomplex_to_json,
)
from .triangles import ExactTriangleData

USAGE_ERROR = 2
VERIFY_ERROR = 1
UNSUPPORTED = 3

_RING_FLAGS = {
    "z": lambda: Z,
    "q": lambda: Q,
    "z2": lambda: Zp(2),
    "laurent-z": lambda: LAURENT_Z,
    "frac-laurent": lambda: FRAC_LAURENT_Q,
}


def _emit(args, payload, text_lines):
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=1, sort_keys=True, default=str) + "\n")
    else:
        for line in text_lines:
            print(line)


def _report_payload(report):
    return {
        "ok": report.ok,
        "checks": [{"name": n, "ok": ok,
                    "offender": None if off is None else [off[0], off[1], str(off[2])]}
                   for n, ok, off in report.checks],
    }


def _report_lines(report):
    return str(report).split("\n")


def cmd_verify(args):
    x = load_scomplex(args.infile)
    rep = x.verify()
    _emit(args, _report_payload(rep), _report_lines(rep))
    return 0 if rep.ok else VERIFY_ERROR


def _homology_payload(h):
    return {"ranks": {str(d): f for d, f in h.ranks_by_degree().items()},
            "torsion": {str(d): list(tor) for d, (_, tor) in sorted(h.table.items()) if tor},
            "total_rank": h.total_rank,
            "euler": h.euler()}


def cmd_homology(args):
    x = load_scomplex(args.infile)
    x = _apply_ring(x, args.ring)
    which = args.which
    h = {"total": x.total_homology, "irreducible": x.irreducible_homology,
         "reducible": x.reducible_homology}[which]()
    _emit(args, _homology_payload(h), [f"{which} homology: {h!r}"])
    return 0


def _apply_ring(x, flag):
    if flag is None:
        return x
    target = _RING_FLAGS[flag]()
    if x.ring == target:
        return x
    if x.ring == LAURENT_Z and target == FRAC_LAURENT_Q:
        return x.base_change(RingMap(RingMap.LAURENT_TO_FRAC, LAURENT_Z, FRAC_LAURENT_Q))
    if x.ring == LAURENT_Z and target == Z:
        return x.base_change(eval_t_at_one())
    if x.ring == Z and target == Q:
        return x.base_change(RingMap(RingMap.Z_TO_Q, Z, Q))
    if x.ring == Z and target.kind == "Zp":
        return x.base_change(RingMap(RingMap.MOD_P, Z, target))
    raise errors.UnsupportedRing(f"no stored base change {x.ring!r} -> {target!r}")


def cmd_dual(args):
    x = load_scomplex(args.infile)
    save_scomplex(dual(x), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_tensor(args):
    x = load_scomplex(args.a)
    y = load_scomplex(args.b)
    save_scomplex(tensor(x, y), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_cone(args):
    doc = read_json(args.map)
    src = load_scomplex(args.source) if args.source else None
    tgt = load_scomplex(args.target) if args.target else None
    f = morphism_from_json(doc, src, tgt)
    rep = f.verify()
    if not rep.ok:
        print("morphism does not verify; refusing to build the cone")
        return VERIFY_ERROR
    save_scomplex(cone(f), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_suspend(args):
    x = load_scomplex(args.infile)
    save_scomplex(suspend(x, args.n), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_atomic(args):
    ring = _RING_FLAGS[args.ring]() if args.ring else Z
    save_scomplex(atomic(args.n, ring, args.modulus), args.out)
    print(f"wrote {args.out}")
    return 0


def _field(doc, key, what, kind, default=None):
    """doc[key], which must be of type `kind`; a missing key is an error
    unless a default is given.  Malformed documents raise SchemaError."""
    if not isinstance(doc, dict):
        raise errors.SchemaError(f"{what} must be an object")
    if key not in doc:
        if default is None:
            raise errors.SchemaError(f"{what} is missing key {key!r}")
        return default
    if not isinstance(doc[key], kind):
        raise errors.SchemaError(f"{what} key {key!r} must be a {kind.__name__}")
    return doc[key]


def _triple(doc, key, what):
    """doc[key], which must be a list of three entries."""
    items = _field(doc, key, what, list)
    if len(items) != 3:
        raise errors.SchemaError(f"{what} key {key!r} must list three entries")
    return items


def _height_from_file(path):
    doc = read_json(path)
    what = "height morphism document"
    src = scomplex_from_json(_field(doc, "source", what, dict))
    tgt = scomplex_from_json(_field(doc, "target", what, dict))
    base = morphism_from_json({k: v for k, v in doc.items()
                               if k not in ("height", "tau", "nu")}, src, tgt)
    tau = {}
    for key, entries in _field(doc, "tau", what, dict, {}).items():
        try:
            i = int(key)
        except ValueError:
            raise errors.SchemaError(f"tau key {errors.clip(key)} is not an integer") from None
        tau[i] = matrix_from_json(entries, src.red, tgt.red, base.degree - 2 * i)
    return HeightMorphism.from_components(src, tgt, base.degree, base.lam,
                                          base.mu, base.delta1, base.delta2,
                                          {i: t for i, t in tau.items() if i <= 0})


def cmd_heights_compose(args):
    f = _height_from_file(args.f)
    g = _height_from_file(args.g)
    comp = compose_heights(g, f)
    rep = comp.verify()
    payload = {"height": comp.height, "strong": comp.is_strong,
               "degree": comp.degree, "ok": rep.ok}
    _emit(args, payload, [f"composite height {comp.height}"
                          f" ({'strong' if comp.is_strong else 'not strong'}),"
                          f" degree {comp.degree}, verified: {rep.ok}"])
    return 0 if rep.ok else VERIFY_ERROR


_HOMOTOPY_KEYS = ("K", "L", "M1", "M2", "J")


def _triangle_from_file(path):
    doc = read_json(path)
    what = "triangle document"
    complexes = [scomplex_from_json(c) for c in _triple(doc, "complexes", what)]
    morphisms = []
    for i, m in enumerate(_triple(doc, "morphisms", what)):
        morphisms.append(morphism_from_json(m, complexes[i], complexes[(i - 1) % 3]))
    homotopies = []
    for i, h in enumerate(_triple(doc, "homotopies", what)):
        if not isinstance(h, dict):
            raise errors.SchemaError("a homotopy must be an object")
        extra = set(h).difference(_HOMOTOPY_KEYS)
        if extra:
            raise errors.SchemaError(f"unknown homotopy keys {errors.clip(sorted(extra))}")
        src, tgt = complexes[i], complexes[(i - 2) % 3]
        comp = morphisms[(i - 1) % 3].compose_after(morphisms[i])
        zero = SMorphism.zero(src, tgt, comp.degree)
        k = comp.degree
        homotopies.append(SHomotopy(
            zero, comp,
            matrix_from_json(h.get("K", []), src.irr, tgt.irr, k + 1),
            matrix_from_json(h.get("L", []), src.irr, tgt.irr, k),
            matrix_from_json(h.get("M1", []), src.irr, tgt.red, k + 1),
            matrix_from_json(h.get("M2", []), src.red, tgt.irr, k),
            matrix_from_json(h.get("J", []), src.red, tgt.red, k + 1)))
    n_maps = [None, None, None]
    n_docs = _field(doc, "n_maps", what, list, [])
    if len(n_docs) > 3:
        raise errors.SchemaError("a triangle has at most three N maps")
    for i, n in enumerate(n_docs):
        if n is not None and not isinstance(n, dict):
            raise errors.SchemaError("an N map must be an object or null")
        if n:
            degree = n.get("degree", 1)
            if type(degree) is not int or degree != 1:
                raise errors.SchemaError(f"an N map must have degree 1, got {errors.clip(degree)}")
            n_maps[i] = morphism_from_json(dict(n, degree=1), complexes[i], complexes[i])
    return ExactTriangleData(complexes, morphisms, homotopies, n_maps)


def cmd_triangle_verify(args):
    t = _triangle_from_file(args.infile)
    rep = t.verify()
    lr = t.les_check()
    _emit(args, {"axioms": _report_payload(rep), "les": _report_payload(lr)},
          _report_lines(rep) + _report_lines(lr))
    return 0 if rep.ok and lr.ok else VERIFY_ERROR


def cmd_equivariant(args):
    x = load_scomplex(args.infile)
    x = _apply_ring(x, args.ring)
    model = build_small(x, args.flavor, args.n)
    rep = model.verify()
    payload = {"flavor": args.flavor, "rank": model.module.rank, "ok": rep.ok,
               "differential": [[tn, sn, str(v)] for tn, sn, v in model.diff.indexed_triples()]}
    lines = [f"{args.flavor} model: rank {model.module.rank}, d^2 = 0: {rep.ok}"]
    if args.exactness:
        er = ijp_exactness_report(x, args.n)
        payload["exactness"] = _report_payload(er)
        lines += _report_lines(er)
        rep_ok = rep.ok and er.ok
    else:
        rep_ok = rep.ok
    _emit(args, payload, lines)
    return 0 if rep_ok else VERIFY_ERROR


def cmd_froyshov(args):
    x = load_scomplex(args.infile)
    rep = x.verify()
    if not rep.ok:
        _emit(args, _report_payload(rep), _report_lines(rep))
        return VERIFY_ERROR
    x = _apply_ring(x, args.ring)
    p = froyshov_profile(x)
    _emit(args, p.to_json(), [repr(p)])
    return 0


_FAMILY_COMPLEXES = {"unknot", "hopf", "torus-link", "torus-knot"}


def cmd_family(args):
    name = args.name
    if name in _FAMILY_COMPLEXES:
        if name == "unknot":
            x = unknot_complex()
        elif name == "hopf":
            x = hopf_complex()
        elif name == "torus-link":
            x = torus_link_complex(_need(args, "k"))
        else:
            x = torus_knot_summand(_need(args, "k"))
        if args.out:
            save_scomplex(x, args.out)
            print(f"wrote {args.out}")
            return 0
        _emit(args, scomplex_to_json(x), [repr(x), str(x.verify())])
        return 0
    if name == "pretzel":
        desc = pretzel(_need(args, "n"))
    elif name == "torus2":
        desc = torus2(_need(args, "k"))
    elif name == "twisted":
        k2 = args.k2 if args.k2 is not None else 2 * _need(args, "k")
        desc = twisted_torus(_need(args, "p"), _need(args, "q"), k2)
    else:
        raise errors.UnsupportedFamily(f"unknown family {name!r}")
    payload = {
        "link": repr(desc),
        "components": desc.components,
        "determinant": determinant(desc),
        "signatures": signatures(desc),
        "xi": str(murasugi_xi(desc)),
        "alexander": str(alexander(desc)),
    }
    if name == "pretzel" and args.n != 6:
        rep = ibasic_family("pretzel", n=args.n)
        payload["irreducible_ranks"] = {str(d): r for d, r in rep.ranks.items()}
        payload["closed_form_consistent"] = rep.consistent
    lines = [f"{k}: {v}" for k, v in payload.items()]
    _emit(args, payload, lines)
    return 0


def _need(args, key):
    val = getattr(args, key, None)
    if val is None:
        raise errors.ScxError(f"--{key} is required for this family")
    return val


def cmd_skein_chi(args):
    node = skein_node_from_json(read_json(args.infile))
    chi, audit = skein_chi(node)
    payload = {"chi": str(chi),
               "audit": [{k: str(v) for k, v in a.items()} for a in audit]}
    lines = [f"chi = {chi}"] + [
        f"  {a['link']}: chi {a['chi']} ({a['kind']})" for a in audit]
    _emit(args, payload, lines)
    return 0


def cmd_qa(args):
    rank = qa_rank(args.det, args.components)
    payload = {"rank": rank}
    lines = [f"quasi-alternating rank: {rank}"]
    if args.xi is not None:
        r0, r1 = qa_graded(args.det, args.components, args.xi)
        payload["graded"] = {"0": r0, "1": r1}
        lines.append(f"graded ranks: degree 0 -> {r0}, degree 1 -> {r1}")
    _emit(args, payload, lines)
    return 0


def cmd_selftest(args):
    from .selftest import run_all

    failures = run_all(seed=args.seed)
    return 0 if failures == 0 else VERIFY_ERROR


@functools.cache
def build_parser():
    """The argument parser; built on the first call, then reused (parsing
    does not change it)."""
    p = argparse.ArgumentParser(prog="scx",
                                description="exact S-complex algebra calculator")
    sub = p.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        sp.set_defaults(fn=fn)
        return sp

    sp = add("verify", cmd_verify, help="check the five complex relations")
    sp.add_argument("--in", dest="infile", required=True)

    sp = add("homology", cmd_homology, help="total/irreducible/reducible homology")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--which", choices=("total", "irreducible", "reducible"),
                    default="total")
    sp.add_argument("--ring", choices=sorted(_RING_FLAGS))

    sp = add("dual", cmd_dual, help="dual S-complex")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--out", required=True)

    sp = add("tensor", cmd_tensor, help="tensor product of two complexes")
    sp.add_argument("--a", required=True)
    sp.add_argument("--b", required=True)
    sp.add_argument("--out", required=True)

    sp = add("cone", cmd_cone, help="mapping cone of a morphism")
    sp.add_argument("--map", required=True)
    sp.add_argument("--source")
    sp.add_argument("--target")
    sp.add_argument("--out", required=True)

    sp = add("suspend", cmd_suspend, help="n-fold suspension")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--out", required=True)

    sp = add("atomic", cmd_atomic, help="the atomic complex O(n)")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--ring", choices=sorted(_RING_FLAGS))
    sp.add_argument("--modulus", type=int, default=4, choices=(2, 4))
    sp.add_argument("--out", required=True)

    sp = add("heights-compose", cmd_heights_compose,
             help="compose two height morphisms")
    sp.add_argument("--f", required=True, help="first morphism (applied first)")
    sp.add_argument("--g", required=True, help="second morphism")

    sp = add("triangle-verify", cmd_triangle_verify,
             help="verify an exact-triangle bundle")
    sp.add_argument("--in", dest="infile", required=True)

    sp = add("equivariant", cmd_equivariant, help="small equivariant model")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--flavor", choices=("hat", "check", "bar"), default="hat")
    sp.add_argument("--n", type=int, default=4, help="tail order")
    sp.add_argument("--ring", choices=sorted(_RING_FLAGS))
    sp.add_argument("--exactness", action="store_true",
                    help="also check i/j/p exactness")

    sp = add("froyshov", cmd_froyshov, help="d-function profile and h")
    sp.add_argument("--in", dest="infile", required=True)
    sp.add_argument("--ring", choices=sorted(_RING_FLAGS))

    sp = add("family", cmd_family, help="family complexes and invariants")
    sp.add_argument("--name", required=True,
                    choices=("unknot", "hopf", "torus-link", "torus-knot",
                             "pretzel", "torus2", "twisted"))
    sp.add_argument("--k", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--p", type=int)
    sp.add_argument("--q", type=int)
    sp.add_argument("--k2", type=int, help="2k, for half-integer twisting")
    sp.add_argument("--out")

    sp = add("skein-chi", cmd_skein_chi, help="evaluate a skein tree")
    sp.add_argument("--in", dest="infile", required=True)

    sp = add("qa", cmd_qa, help="quasi-alternating ranks")
    sp.add_argument("--det", type=int, required=True)
    sp.add_argument("--components", type=int, required=True)
    sp.add_argument("--xi", type=int)

    sp = add("selftest", cmd_selftest, help="run the acceptance suite")
    sp.add_argument("--seed", type=int, default=None)
    return p


# The error classes a verb may raise, in the order they are tried, with the
# prefix of the one line printed to stderr and the exit code.
_EXITS = (
    ((errors.UnsupportedRing, errors.UnsupportedRingForHomology, errors.UnsupportedFamily,
      errors.DetZero, errors.PlateauNotReached), "unsupported: ", UNSUPPORTED),
    (errors.ScxError, "error: ", USAGE_ERROR),
    ((OSError, UnicodeDecodeError), "error: ", USAGE_ERROR),
    (json.JSONDecodeError, "error: bad JSON: ", USAGE_ERROR),
    # json.load on a deeply nested document
    (RecursionError, "error: input nested too deeply: ", USAGE_ERROR),
)


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        return args.fn(args)
    except Exception as exc:
        for classes, prefix, code in _EXITS:
            if isinstance(exc, classes):
                print(f"{prefix}{exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
