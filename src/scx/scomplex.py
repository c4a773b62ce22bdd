"""S-complexes, their morphisms and homotopies, and relation verification.

An S-complex is a free graded module C + C[-1] + R whose differential has
block components (d, v, delta1, delta2, r) of degrees (-1, -2, -1, -2, -1).
Morphisms and homotopies are stored componentwise in the same block shapes.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .errors import (
    MissingSMap,
    NotRPerfect,
    RingMismatch,
    SchemaError,
    ShapeMismatch,
)
from .gradedlin import (
    GradedMatrix,
    GradedModule,
    HomologyMaps,
    homology_of_pair,
    place_block,
)
from .rings import FRAC_LAURENT_Q, LAURENT_Z, Q, Ring, RingMap, Z, Zp, parse_element


class RelationReport:
    """Outcome of checking a list of named relations, with first offenders."""

    def __init__(self, checks):
        self.checks = list(checks)  # (name, ok, offender-or-None)

    @property
    def ok(self):
        return all(ok for _, ok, _ in self.checks)

    def failed(self):
        return [name for name, ok, _ in self.checks if not ok]

    def __repr__(self):
        lines = []
        for name, ok, off in self.checks:
            line = f"{'pass' if ok else 'FAIL'}  {name}"
            if off is not None:
                line += f"  (first offender {off[0]} <- {off[1]}: {off[2]})"
            lines.append(line)
        return "\n".join(lines)


def _rel(name, matrix):
    return (name, matrix.is_zero, matrix.first_nonzero())


class SComplex:
    """The tuple (C, R, d, v, delta1, delta2, r) with optional s-map."""

    def __init__(self, irr, red, d, v, delta1, delta2, r, s=None, metadata=None):
        if irr.ring != red.ring or irr.modulus != red.modulus:
            raise ShapeMismatch("C and R must share ring and modulus")
        mod = irr.modulus
        expect = [
            (d, irr, irr, -1, "d"),
            (v, irr, irr, -2, "v"),
            (delta1, irr, red, -1, "delta1"),
            (delta2, red, irr, -2, "delta2"),
            (r, red, red, -1, "r"),
        ]
        if s is not None:
            expect.append((s, red, red, -2, "s"))
        for m, src, tgt, deg, name in expect:
            if m.source != src or m.target != tgt:
                raise ShapeMismatch(f"component {name} has wrong source/target")
            if m.entries and m.degree != deg % mod:
                raise ShapeMismatch(f"component {name} must have degree {deg} mod {mod}")
        self.irr = irr
        self.red = red
        self.d = d
        self.v = v
        self.delta1 = delta1
        self.delta2 = delta2
        self.r = r
        self.s = s
        self.metadata = dict(metadata or {})
        self._total = None

    @property
    def ring(self):
        return self.irr.ring

    @property
    def modulus(self):
        return self.irr.modulus

    @property
    def is_r_perfect(self):
        if not self.r.is_zero:
            return False
        return all(deg % 2 == 0 for _, deg in self.red.gens)

    def require_r_perfect(self, what="operation"):
        if not self.is_r_perfect:
            raise NotRPerfect(f"{what} requires an r-perfect complex "
                              "(even reducible degrees, r = 0)")

    def verify(self):
        """Check the five relations equivalent to (total differential)^2 = 0."""
        return RelationReport([
            _rel("d.d = 0", self.d @ self.d),
            _rel("delta1.d + r.delta1 = 0", self.delta1 @ self.d + self.r @ self.delta1),
            _rel("d.delta2 - delta2.r = 0", self.d @ self.delta2 - self.delta2 @ self.r),
            _rel("d.v - v.d - delta2.delta1 = 0",
                 self.d @ self.v - self.v @ self.d - self.delta2 @ self.delta1),
            _rel("r.r = 0", self.r @ self.r),
        ])

    # -- assembled total complex

    def total_module(self):
        gens = [(f"i:{n}", deg) for n, deg in self.irr.gens]
        gens += [(f"j:{n}", deg + 1) for n, deg in self.irr.gens]
        gens += [(f"r:{n}", deg) for n, deg in self.red.gens]
        return GradedModule(self.ring, self.modulus, gens)

    def total_differential(self):
        """The block matrix [[d,0,0],[v,-d,delta2],[delta1,0,r]]."""
        if self._total is not None:
            return self._total
        tot = self.total_module()
        nc = self.irr.rank
        ent = {}
        place_block(ent, self.d, 0, 0)
        place_block(ent, self.v, nc, 0)
        place_block(ent, -self.d, nc, nc)
        place_block(ent, self.delta2, nc, 2 * nc)
        place_block(ent, self.delta1, 2 * nc, 0)
        place_block(ent, self.r, 2 * nc, 2 * nc)
        self._total = GradedMatrix(tot, tot, -1, ent)
        return self._total

    # -- homology projections

    def total_homology(self):
        dt = self.total_differential()
        return homology_of_pair(dt, dt)

    def irreducible_homology(self):
        return homology_of_pair(self.d, self.d)

    def reducible_homology(self):
        return homology_of_pair(self.r, self.r)

    def irreducible_euler(self):
        """Alternating sum of generator ranks of C by mod-2 degree."""
        return sum(1 if deg % 2 == 0 else -1 for _, deg in self.irr.gens)

    def induced_delta_maps(self):
        """((delta2)_*, (delta1)_*) on H(C, d); requires r = 0.

        Returns (hm, delta2_cols, delta1_cols): hm is the homology
        presentation of (C, d); delta2_cols[j] gives the class coordinates of
        delta2 applied to the j-th reducible generator; delta1_cols[j] gives
        the value of delta1 on the j-th homology representative as an element
        of R (a coordinate list).
        """
        if not self.r.is_zero:
            raise NotRPerfect("induced delta maps need r = 0")
        hm = HomologyMaps(self.d)
        ring = self.ring
        d2_cols = []
        for j in range(self.red.rank):
            if ring == Z:
                vec = [self.delta2.entry(t, j).val for t in range(self.irr.rank)]
            else:
                vec = [self.delta2.entry(t, j) for t in range(self.irr.rank)]
            d2_cols.append(hm.class_coords(vec))
        d1_cols = []
        for rep in hm.reps:
            if ring == Z:
                out = [0] * self.red.rank
                for (t, s), x in self.delta1.entries.items():
                    out[t] += x.val * rep[s]
            else:
                out = [ring.zero()] * self.red.rank
                for (t, s), x in self.delta1.entries.items():
                    out[t] = out[t] + x * rep[s]
            d1_cols.append(out)
        return hm, d2_cols, d1_cols

    def delta_maps_zero(self):
        """Convenience: are both induced delta maps zero?"""
        _, d2, d1 = self.induced_delta_maps()
        flat = [x for col in d2 for x in col] + [x for col in d1 for x in col]
        if self.ring == Z:
            return all((x == 0 if isinstance(x, int) else x.is_zero) for x in flat)
        return all(x.is_zero for x in flat)

    # -- restructuring

    def reduce_mod2(self):
        if self.modulus == 2:
            return self
        irr = self.irr.reduce_mod2()
        red = self.red.reduce_mod2()
        fix = lambda m, s, t: GradedMatrix(s, t, m.degree % 2, dict(m.entries))
        return SComplex(irr, red,
                        fix(self.d, irr, irr), fix(self.v, irr, irr),
                        fix(self.delta1, irr, red), fix(self.delta2, red, irr),
                        fix(self.r, red, red),
                        None if self.s is None else fix(self.s, red, red),
                        self.metadata)

    def base_change(self, ring_map: RingMap):
        if ring_map.source != self.ring:
            raise RingMismatch("base change source ring mismatch")
        tgt = ring_map.target
        irr = GradedModule(tgt, self.modulus, self.irr.gens)
        red = GradedModule(tgt, self.modulus, self.red.gens)
        conv = lambda m, s, t: m.map_entries(ring_map, s, t)
        return SComplex(irr, red,
                        conv(self.d, irr, irr), conv(self.v, irr, irr),
                        conv(self.delta1, irr, red), conv(self.delta2, red, irr),
                        conv(self.r, red, red),
                        None if self.s is None else conv(self.s, red, red),
                        self.metadata)

    def same_shape_as(self, other):
        """Positional equality of all structure (names ignored)."""
        return (
            [d for _, d in self.irr.gens] == [d for _, d in other.irr.gens]
            and [d for _, d in self.red.gens] == [d for _, d in other.red.gens]
            and self.d.same_entries_as(other.d)
            and self.v.same_entries_as(other.v)
            and self.delta1.same_entries_as(other.delta1)
            and self.delta2.same_entries_as(other.delta2)
            and self.r.same_entries_as(other.r)
        )

    def __repr__(self):
        return (f"SComplex(C rank {self.irr.rank}, R rank {self.red.rank}, "
                f"mod {self.modulus} over {self.ring!r})")


def verify_complex(x):
    return x.verify()


def base_change(obj, ring_map):
    """Entrywise application of a ring map to a matrix or a whole complex."""
    if isinstance(obj, SComplex):
        return obj.base_change(ring_map)
    if ring_map.source != obj.ring:
        raise RingMismatch("base change source ring mismatch")
    src = GradedModule(ring_map.target, obj.source.modulus, obj.source.gens)
    tgt = GradedModule(ring_map.target, obj.target.modulus, obj.target.gens)
    return obj.map_entries(ring_map, src, tgt)


class SMorphism:
    """A degree-k morphism with components (lambda, mu, Delta1, Delta2, rho)."""

    def __init__(self, source, target, degree, lam, mu, delta1, delta2, rho):
        if source.ring != target.ring or source.modulus != target.modulus:
            raise ShapeMismatch("morphism endpoints incompatible")
        mod = source.modulus
        k = degree % mod
        expect = [
            (lam, source.irr, target.irr, k, "lambda"),
            (mu, source.irr, target.irr, k - 1, "mu"),
            (delta1, source.irr, target.red, k, "Delta1"),
            (delta2, source.red, target.irr, k - 1, "Delta2"),
            (rho, source.red, target.red, k, "rho"),
        ]
        for m, src, tgt, deg, name in expect:
            if m.source != src or m.target != tgt:
                raise ShapeMismatch(f"component {name} has wrong endpoints")
            if m.entries and m.degree != deg % mod:
                raise ShapeMismatch(f"component {name} must have degree {deg} mod {mod}")
        self.source = source
        self.target = target
        self.degree = k
        self.lam = lam
        self.mu = mu
        self.delta1 = delta1
        self.delta2 = delta2
        self.rho = rho

    def verify(self):
        X, Y, f = self.source, self.target, self
        return RelationReport([
            _rel("d'.lambda - lambda.d = 0", Y.d @ f.lam - f.lam @ X.d),
            _rel("Delta1.d + rho.delta1 - delta1'.lambda - r'.Delta1 = 0",
                 f.delta1 @ X.d + f.rho @ X.delta1 - Y.delta1 @ f.lam - Y.r @ f.delta1),
            _rel("d'.Delta2 - delta2'.rho + lambda.delta2 + Delta2.r = 0",
                 Y.d @ f.delta2 - Y.delta2 @ f.rho + f.lam @ X.delta2 + f.delta2 @ X.r),
            _rel("mu.d + d'.mu + lambda.v - v'.lambda + Delta2.delta1 - delta2'.Delta1 = 0",
                 f.mu @ X.d + Y.d @ f.mu + f.lam @ X.v - Y.v @ f.lam
                 + f.delta2 @ X.delta1 - Y.delta2 @ f.delta1),
            _rel("rho.r - r'.rho = 0", f.rho @ X.r - Y.r @ f.rho),
        ])

    def assemble(self):
        """Full matrix [[lam,0,0],[mu,lam,Delta2],[Delta1,0,rho]]."""
        ts, tt = self.source.total_module(), self.target.total_module()
        nc, mc = self.source.irr.rank, self.target.irr.rank
        ent = {}
        place_block(ent, self.lam, 0, 0)
        place_block(ent, self.mu, mc, 0)
        place_block(ent, self.lam, mc, nc)
        place_block(ent, self.delta2, mc, 2 * nc)
        place_block(ent, self.delta1, 2 * mc, 0)
        place_block(ent, self.rho, 2 * mc, 2 * nc)
        return GradedMatrix(ts, tt, self.degree, ent)

    def named_triples(self):
        """(target name, source name, value) triples of the assembled matrix."""
        return self.assemble().named_triples()

    @classmethod
    def identity(cls, x):
        return cls(x, x, 0,
                   GradedMatrix.identity(x.irr), GradedMatrix.zero(x.irr, x.irr, -1),
                   GradedMatrix.zero(x.irr, x.red, 0), GradedMatrix.zero(x.red, x.irr, -1),
                   GradedMatrix.identity(x.red))

    @classmethod
    def zero(cls, x, y, degree=0):
        return cls(x, y, degree,
                   GradedMatrix.zero(x.irr, y.irr, degree),
                   GradedMatrix.zero(x.irr, y.irr, degree - 1),
                   GradedMatrix.zero(x.irr, y.red, degree),
                   GradedMatrix.zero(x.red, y.irr, degree - 1),
                   GradedMatrix.zero(x.red, y.red, degree))

    def compose_after(self, other):
        """self . other (other first)."""
        if other.target is not self.source and other.target != self.source:
            # structural equality is enough; matrices check shapes anyway
            pass
        g, f = self, other
        return SMorphism(
            f.source, g.target, g.degree + f.degree,
            g.lam @ f.lam,
            g.lam @ f.mu + g.mu @ f.lam + g.delta2 @ f.delta1,
            g.delta1 @ f.lam + g.rho @ f.delta1,
            g.lam @ f.delta2 + g.delta2 @ f.rho,
            g.rho @ f.rho,
        )

    def __add__(self, other):
        return SMorphism(self.source, self.target, self.degree,
                         self.lam + other.lam, self.mu + other.mu,
                         self.delta1 + other.delta1, self.delta2 + other.delta2,
                         self.rho + other.rho)

    def __neg__(self):
        return SMorphism(self.source, self.target, self.degree,
                         -self.lam, -self.mu, -self.delta1, -self.delta2, -self.rho)

    def __sub__(self, other):
        return self + (-other)

    def __repr__(self):
        return f"SMorphism(deg {self.degree}: {self.source!r} -> {self.target!r})"


def compose_morphisms(g, f):
    return g.compose_after(f)


def verify_morphism(f):
    return f.verify()


class SHomotopy:
    """Homotopy data (K, L, M1, M2, J) between morphisms of equal degree k.

    Satisfies componentwise the relations of d'.Ktilde + Ktilde.d =
    (from) - (to).  The component degrees are (k+1, k, k+1, k, k+1), matching
    the block shape [[K,0,0],[L,-K,M2],[M1,0,J]].
    """

    def __init__(self, frm, to, K, L, M1, M2, J):
        if (frm.source.irr != to.source.irr or frm.source.red != to.source.red
                or frm.target.irr != to.target.irr or frm.target.red != to.target.red):
            raise ShapeMismatch("homotopy endpoints disagree")
        if frm.degree != to.degree:
            raise ShapeMismatch("homotopy requires equal-degree morphisms")
        X, Y = frm.source, frm.target
        mod = X.modulus
        k = frm.degree
        expect = [
            (K, X.irr, Y.irr, k + 1, "K"),
            (L, X.irr, Y.irr, k, "L"),
            (M1, X.irr, Y.red, k + 1, "M1"),
            (M2, X.red, Y.irr, k, "M2"),
            (J, X.red, Y.red, k + 1, "J"),
        ]
        for m, src, tgt, deg, name in expect:
            if m.source != src or m.target != tgt:
                raise ShapeMismatch(f"component {name} has wrong endpoints")
            if m.entries and m.degree != deg % mod:
                raise ShapeMismatch(f"component {name} must have degree {deg} mod {mod}")
        self.frm = frm
        self.to = to
        self.K = K
        self.L = L
        self.M1 = M1
        self.M2 = M2
        self.J = J

    def verify(self):
        X, Y = self.frm.source, self.frm.target
        a, b, h = self.frm, self.to, self
        return RelationReport([
            _rel("d'.K + K.d - lambda + lambda' = 0",
                 Y.d @ h.K + h.K @ X.d - a.lam + b.lam),
            _rel("delta1'.K + r'.M1 + M1.d + J.delta1 - Delta1 + Delta1' = 0",
                 Y.delta1 @ h.K + Y.r @ h.M1 + h.M1 @ X.d + h.J @ X.delta1
                 - a.delta1 + b.delta1),
            _rel("-d'.M2 + delta2'.J - K.delta2 + M2.r - Delta2 + Delta2' = 0",
                 -(Y.d @ h.M2) + Y.delta2 @ h.J - h.K @ X.delta2 + h.M2 @ X.r
                 - a.delta2 + b.delta2),
            _rel("v'.K - d'.L + delta2'.M1 + L.d - K.v + M2.delta1 - mu + mu' = 0",
                 Y.v @ h.K - Y.d @ h.L + Y.delta2 @ h.M1 + h.L @ X.d - h.K @ X.v
                 + h.M2 @ X.delta1 - a.mu + b.mu),
            _rel("r'.J + J.r - rho + rho' = 0",
                 Y.r @ h.J + h.J @ X.r - a.rho + b.rho),
        ])

    def assemble(self):
        ts, tt = self.frm.source.total_module(), self.frm.target.total_module()
        nc, mc = self.frm.source.irr.rank, self.frm.target.irr.rank
        ent = {}
        place_block(ent, self.K, 0, 0)
        place_block(ent, self.L, mc, 0)
        place_block(ent, -self.K, mc, nc)
        place_block(ent, self.M2, mc, 2 * nc)
        place_block(ent, self.M1, 2 * mc, 0)
        place_block(ent, self.J, 2 * mc, 2 * nc)
        return GradedMatrix(ts, tt, self.frm.degree + 1, ent)

    @classmethod
    def zero(cls, frm, to):
        X, Y = frm.source, frm.target
        k = frm.degree
        return cls(frm, to,
                   GradedMatrix.zero(X.irr, Y.irr, k + 1),
                   GradedMatrix.zero(X.irr, Y.irr, k),
                   GradedMatrix.zero(X.irr, Y.red, k + 1),
                   GradedMatrix.zero(X.red, Y.irr, k),
                   GradedMatrix.zero(X.red, Y.red, k + 1))

    def __repr__(self):
        return f"SHomotopy(deg {self.frm.degree}: {self.frm.source!r} -> {self.frm.target!r})"


def verify_homotopy(h):
    return h.verify()


def s_map_discrepancy(f):
    """The combination delta1'.Delta2 + Delta1.delta2 for a morphism between
    complexes carrying s-maps, and whether it equals rho.s - s'.rho.

    The boolean comparison is meaningful for continuation-type morphisms
    between presentations of the same link; for general morphisms only the
    combination itself is returned as data.
    """
    X, Y = f.source, f.target
    if X.s is None or Y.s is None:
        raise MissingSMap("both complexes must carry s-maps")
    combo = Y.delta1 @ f.delta2 + f.delta1 @ X.delta2
    transported = f.rho @ X.s - Y.s @ f.rho
    return combo, combo == transported


# ---------------------------------------------------------------------------
# JSON serialization (the bit-exact document format).


_RING_TAGS = {"Z": Z, "Q": Q, "LaurentZ": LAURENT_Z, "FracLaurentQ": FRAC_LAURENT_Q}


def ring_to_json(ring):
    if ring.kind == Ring.MODP:
        return {"kind": "Zp", "p": ring.p}
    return {"kind": ring.kind}


def ring_from_json(obj):
    if not isinstance(obj, dict) or "kind" not in obj:
        raise SchemaError("ring must be an object with a 'kind'")
    extra = set(obj) - {"kind", "p"}
    if extra:
        raise SchemaError(f"unknown ring keys {sorted(extra)}")
    kind = obj["kind"]
    if kind == "Zp":
        if "p" not in obj:
            raise SchemaError("Zp ring needs p")
        return Zp(obj["p"])
    if "p" in obj:
        raise SchemaError("p only valid for Zp")
    if kind not in _RING_TAGS:
        raise SchemaError(f"unknown ring kind {kind!r}")
    return _RING_TAGS[kind]


def _gens_to_json(module, bigr):
    out = []
    for n, d in module.gens:
        g = {"name": n, "degree": d}
        if n in bigr.get("gr_z", {}):
            g["gr_z"] = bigr["gr_z"][n]
        if n in bigr.get("gr_i", {}):
            g["gr_i"] = bigr["gr_i"][n]
        out.append(g)
    return out


def _matrix_to_json(m):
    return [[tn, sn, str(x)] for tn, sn, x in m.named_triples()]


def scomplex_to_json(x):
    bigr = {"gr_z": x.metadata.get("gr_z", {}), "gr_i": x.metadata.get("gr_i", {})}
    doc = {
        "ring": ring_to_json(x.ring),
        "modulus": x.modulus,
        "irreducible": _gens_to_json(x.irr, bigr),
        "reducible": _gens_to_json(x.red, bigr),
        "d": _matrix_to_json(x.d),
        "v": _matrix_to_json(x.v),
        "delta1": _matrix_to_json(x.delta1),
        "delta2": _matrix_to_json(x.delta2),
        "r": _matrix_to_json(x.r),
    }
    if x.s is not None:
        doc["s"] = _matrix_to_json(x.s)
    meta = {k: v for k, v in x.metadata.items() if k not in ("gr_z", "gr_i")}
    if meta:
        doc["metadata"] = meta
    return doc


_COMPLEX_KEYS = {"ring", "modulus", "irreducible", "reducible",
                 "d", "v", "delta1", "delta2", "r", "s", "metadata"}


def _gens_from_json(items, modulus, grz, gri):
    gens = []
    for g in items:
        extra = set(g) - {"name", "degree", "gr_z", "gr_i"}
        if extra:
            raise SchemaError(f"unknown generator keys {sorted(extra)}")
        if "name" not in g or "degree" not in g:
            raise SchemaError("generator needs name and degree")
        gens.append((g["name"], g["degree"] % modulus))
        if "gr_z" in g:
            grz[g["name"]] = g["gr_z"]
        if "gr_i" in g:
            Fraction(g["gr_i"])  # validate
            gri[g["name"]] = g["gr_i"]
    return gens


def _matrix_from_json(items, source, target, degree, ring):
    triples = []
    for row in items:
        if not isinstance(row, list) or len(row) != 3:
            raise SchemaError("matrix entries are [target, source, coeff] triples")
        tn, sn, cs = row
        if tn not in [n for n, _ in target.gens]:
            raise SchemaError(f"unknown target generator {tn!r}")
        if sn not in [n for n, _ in source.gens]:
            raise SchemaError(f"unknown source generator {sn!r}")
        triples.append((tn, sn, parse_element(ring, cs)))
    return GradedMatrix.from_named(source, target, degree, triples)


def scomplex_from_json(doc):
    if not isinstance(doc, dict):
        raise SchemaError("complex document must be an object")
    extra = set(doc) - _COMPLEX_KEYS
    if extra:
        raise SchemaError(f"unknown keys {sorted(extra)}")
    for k in ("ring", "modulus", "irreducible", "reducible", "d", "v", "delta1", "delta2", "r"):
        if k not in doc:
            raise SchemaError(f"missing key {k!r}")
    ring = ring_from_json(doc["ring"])
    modulus = doc["modulus"]
    if modulus not in (2, 4):
        raise SchemaError("modulus must be 2 or 4")
    grz, gri = {}, {}
    irr = GradedModule(ring, modulus, _gens_from_json(doc["irreducible"], modulus, grz, gri))
    red = GradedModule(ring, modulus, _gens_from_json(doc["reducible"], modulus, grz, gri))
    d = _matrix_from_json(doc["d"], irr, irr, -1, ring)
    v = _matrix_from_json(doc["v"], irr, irr, -2, ring)
    d1 = _matrix_from_json(doc["delta1"], irr, red, -1, ring)
    d2 = _matrix_from_json(doc["delta2"], red, irr, -2, ring)
    r = _matrix_from_json(doc["r"], red, red, -1, ring)
    s = None
    if "s" in doc:
        s = _matrix_from_json(doc["s"], red, red, -2, ring)
    meta = dict(doc.get("metadata", {}))
    if grz:
        meta["gr_z"] = grz
    if gri:
        meta["gr_i"] = gri
    return SComplex(irr, red, d, v, d1, d2, r, s, meta)


def save_scomplex(x, path):
    with open(path, "w") as fh:
        json.dump(scomplex_to_json(x), fh, indent=1, sort_keys=True)
        fh.write("\n")


def load_scomplex(path):
    with open(path) as fh:
        return scomplex_from_json(json.load(fh))


# -- morphism documents (used by the CLI and the heights/triangles bundles)


def morphism_to_json(f, include_complexes=True):
    doc = {
        "degree": f.degree,
        "lambda": _matrix_to_json(f.lam),
        "mu": _matrix_to_json(f.mu),
        "Delta1": _matrix_to_json(f.delta1),
        "Delta2": _matrix_to_json(f.delta2),
        "rho": _matrix_to_json(f.rho),
    }
    if include_complexes:
        doc["source"] = scomplex_to_json(f.source)
        doc["target"] = scomplex_to_json(f.target)
    return doc


_MORPHISM_KEYS = {"degree", "lambda", "mu", "Delta1", "Delta2", "rho",
                  "source", "target", "height", "tau", "nu"}


def morphism_from_json(doc, source=None, target=None):
    extra = set(doc) - _MORPHISM_KEYS
    if extra:
        raise SchemaError(f"unknown morphism keys {sorted(extra)}")
    if source is None:
        if "source" not in doc:
            raise SchemaError("morphism document needs an inline source complex")
        source = scomplex_from_json(doc["source"])
    if target is None:
        if "target" not in doc:
            raise SchemaError("morphism document needs an inline target complex")
        target = scomplex_from_json(doc["target"])
    k = doc["degree"]
    ring = source.ring
    return SMorphism(
        source, target, k,
        _matrix_from_json(doc.get("lambda", []), source.irr, target.irr, k, ring),
        _matrix_from_json(doc.get("mu", []), source.irr, target.irr, k - 1, ring),
        _matrix_from_json(doc.get("Delta1", []), source.irr, target.red, k, ring),
        _matrix_from_json(doc.get("Delta2", []), source.red, target.irr, k - 1, ring),
        _matrix_from_json(doc.get("rho", []), source.red, target.red, k, ring),
    )
