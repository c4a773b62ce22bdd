"""S-complexes, their morphisms and homotopies, and relation verification.

An S-complex is a free graded module C + C[-1] + R whose differential has
block components (d, v, delta1, delta2, r) of degrees (-1, -2, -1, -2, -1),
stored componentwise.  A morphism or homotopy stores one map, its assembled
total [[A,0,0],[B,sA,C],[E,0,G]] on C + C[-1] + R; its blocks are views:
those handed to a componentwise constructor are kept as given, and the
rest are split from the total on first read.  A block left out of a
constructor is zero.
"""

from __future__ import annotations

import json
from fractions import Fraction
from types import MappingProxyType

from .errors import (
    MissingSMap,
    NotRPerfect,
    RingMismatch,
    SchemaError,
    ShapeMismatch,
    clip,
)
from .gradedlin import (
    GradedMatrix,
    GradedModule,
    HomologyMaps,
    apply,
    boxed,
    homology_of_pair,
    raw_cols,
)
from .rings import FRAC_LAURENT_Q, LAURENT_Z, Q, Ring, RingMap, Z, Zp, format_raw, parse_raw


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


# The one block shape of the differential, the morphisms and the homotopies:
# a map [[A,0,0],[B,sA,C],[E,0,G]] on C + C[-1] + R, whose bands 0, 1, 2 are
# C, C[-1] and R.  Each block, in constructor order -> (source band, target
# band, degree offset): the block of a map of total degree k has degree
# k + offset.  sA repeats A from band 1 to band 1.
_SHAPE = {"A": (0, 0, 0), "B": (0, 1, -1), "E": (0, 2, 0), "C": (2, 1, -1), "G": (2, 2, 0)}

# _SHAPE read three ways: each block's (source in R, target in R, degree
# offset), to pick its endpoints from (C, R) pairs; the placed blocks, sA as
# index 5, as (index in _SHAPE order, source band, target band), row band by
# row band; and (target band, source band) -> index in _SHAPE order
_ENDS = tuple((src == 2, tgt == 2, off) for src, tgt, off in _SHAPE.values())
_PLACES = tuple(sorted([(i, src, tgt) for i, (src, tgt, _) in enumerate(_SHAPE.values())]
                       + [(5, 1, 1)], key=lambda p: (p[2], p[1])))
_BANDS = {(tgt, src): i for i, (src, tgt, _) in enumerate(_SHAPE.values())}


def _block_shapes(x, y, k):
    """Each block's (source, target, degree) for a map of total degree k, in
    `_SHAPE` order; x and y are the (C, R) pairs of its source and target,
    modules or anything else kept per band."""
    return [(x[src], y[tgt], k + off) for src, tgt, off in _ENDS]


def _check_blocks(mod, shapes, blocks, labels):
    """Each block must have the endpoints of its (source, target, degree) in
    `shapes` and, when nonzero, that degree mod `mod`; a block left out
    (None) is zero and passes.  `labels` name the blocks in messages."""
    for m, (src, tgt, deg), label in zip(blocks, shapes, labels):
        if m is None:
            continue
        if (m.source, m.target) != (src, tgt):  # the tuples compare by identity first
            raise ShapeMismatch(f"component {label} has wrong endpoints")
        if m.entries and m.degree != deg % mod:
            raise ShapeMismatch(f"component {label} must have degree {deg} mod {mod}")


def _block_layout(x, y):
    """Where the blocks of a map from the total module of x to that of y sit,
    row band by row band: name -> (block source, block target, row offset,
    column offset).  Band b starts at b times the rank of C."""
    nc, mc = x.irr.rank, y.irr.rank
    xs, ys, names = (x.irr, x.irr, x.red), (y.irr, y.irr, y.red), (*_SHAPE, "sA")
    return {names[i]: (xs[src], ys[tgt], tgt * mc, src * nc) for i, src, tgt in _PLACES}


def _assemble(x, y, degree, s, *blocks):
    """The map [[A,0,0],[B,sA,C],[E,0,G]] of total degree `degree` from the
    total module of x to that of y, of the blocks A, B, E, C, G; s is 1 or
    -1, and a block left out (None) is zero.

    Built by `GradedMatrix._new`, unchecked.  The caller vouches for the
    blocks: each has its `_block_shapes` endpoints and degree.  Two kinds of
    caller place blocks: the `SComplex`, `SMorphism` and `SHomotopy`
    constructors, which check them first with `_check_blocks`, and
    `randgen.boundary_morphism`, whose blocks `randgen.rand_homotopy_shape`
    draws with those shapes.  Every other S-map is made from totals and
    placed by no one.  Then every placed entry is in range, inside its
    block's bands, and homogeneous of total degree k: the C[-1] band's
    generators sit one degree above C's, so B and C, of degree k - 1, land
    in that row band at degree k, and sA, from the C[-1] column band to that
    row band, keeps A's degree k.  The blocks sit at disjoint offsets, so no
    two entries add and none cancels."""
    a = blocks[0]
    blocks = (*blocks, a if s == 1 or a is None else -a)
    nc, mc = x.irr.rank, y.irr.rank
    ent = {}
    for i, src, tgt in _PLACES:
        m = blocks[i]
        if m is not None:
            row, col = tgt * mc, src * nc
            ent.update({(t + row, u + col): val for (t, u), val in m.entries.items()})
    return GradedMatrix._new(x.total_module(), y.total_module(), degree, ent)


def _blocks(m, x, y):
    """The blocks A, B, E, C, G of a total map m from x to y of shape
    [[A,0,0],[B,sA,C],[E,0,G]], with their `_block_shapes`: the inverse of
    `_assemble`.  Neither sA nor the blocks that are zero in this shape are
    read."""
    nc, mc = x.irr.rank, y.irr.rank
    parts = [{} for _ in _SHAPE]
    for (t, s), val in m.entries.items():
        tb, sb = (t >= mc) + (t >= 2 * mc), (s >= nc) + (s >= 2 * nc)
        i = _BANDS.get((tb, sb))
        if i is not None:
            parts[i][(t - tb * mc, s - sb * nc)] = val
    new = GradedMatrix._new
    return [new(src, tgt, deg, part) for (src, tgt, deg), part
            in zip(_block_shapes((x.irr, x.red), (y.irr, y.red), m.degree), parts)]


def _relations(residual, x, y, rows):
    """The report of the relations `rows`, each (name, block, negated): the
    block of the assembled residual, negated when `negated`, must be zero.

    A residual with no entry passes every row and is not split; the blocks
    are read only to name a failed relation's first offender."""
    if not residual.entries:
        return RelationReport((name, True, None) for name, _, _ in rows)
    blocks = dict(zip(_SHAPE, _blocks(residual, x, y)))
    return RelationReport(_rel(name, -blocks[b] if neg else blocks[b]) for name, b, neg in rows)


class SComplex:
    """The tuple (C, R, d, v, delta1, delta2, r) with optional s-map; a block
    left out of the constructor is zero.

    Immutable (`__setattr__` raises), so the total module and differential
    and the suspension (`functors.suspend_once`), kept once built, stay valid."""

    # the blocks' attribute names, also their document keys, in `_SHAPE` order
    _NAMES = _LABELS = ("d", "v", "delta1", "delta2", "r")

    def __init__(self, irr, red, d=None, v=None, delta1=None, delta2=None, r=None, s=None,
                 metadata=None):
        if irr.ring != red.ring or irr.modulus != red.modulus:
            raise ShapeMismatch("C and R must share ring and modulus")
        ends, blocks = (irr, red), (d, v, delta1, delta2, r)
        shapes = _block_shapes(ends, ends, -1)
        _check_blocks(irr.modulus, shapes, blocks, self._NAMES)
        if s is not None:  # the s-map, of degree -2 on R
            _check_blocks(irr.modulus, [(red, red, -2)], [s], ["s"])
        # a block left out is zero; a missing s stays None (no s-map)
        new = GradedMatrix._new
        d, v, delta1, delta2, r = [new(src, tgt, deg, {}) if m is None else m
                                   for m, (src, tgt, deg) in zip(blocks, shapes)]
        vars(self).update(irr=irr, red=red, d=d, v=v, delta1=delta1, delta2=delta2, r=r, s=s,
                          metadata=MappingProxyType(dict(metadata or {})),
                          _total=None, _total_module=None, _suspension=None)

    def __setattr__(self, *a):
        raise AttributeError("SComplex is immutable")

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
        """Check the five relations equivalent to (total differential)^2 = 0,
        read from the blocks of D.D."""
        dt = self.total_differential()
        return _relations(dt @ dt, self, self, [
            ("d.d = 0", "A", False),
            ("delta1.d + r.delta1 = 0", "E", False),
            ("d.delta2 - delta2.r = 0", "C", True),
            ("d.v - v.d - delta2.delta1 = 0", "B", True),
            ("r.r = 0", "G", False),
        ])

    # -- assembled total complex

    def total_module(self):
        if self._total_module is None:
            gens = [(f"i:{n}", deg) for n, deg in self.irr.gens]
            gens += [(f"j:{n}", deg + 1) for n, deg in self.irr.gens]
            gens += [(f"r:{n}", deg) for n, deg in self.red.gens]
            object.__setattr__(self, "_total_module", GradedModule(self.ring, self.modulus, gens))
        return self._total_module

    def total_differential(self):
        """The block matrix [[d,0,0],[v,-d,delta2],[delta1,0,r]], assembled
        once."""
        if self._total is None:
            object.__setattr__(self, "_total", _assemble(
                self, self, -1, -1, self.d, self.v, self.delta1, self.delta2, self.r))
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
        delta2 applied to the j-th reducible generator, elements of hm's
        field; delta1_cols[j] gives the value of delta1 on the j-th homology
        representative as an element of R, a list of elements of the ring.
        """
        hm, d2_cols, d1_cols = self._induced_delta_coords()
        return hm, boxed(d2_cols, hm.rank, hm.field), boxed(d1_cols, self.red.rank, self.ring)

    def _induced_delta_coords(self):
        """`induced_delta_maps` with its columns as {index: raw value}
        vectors."""
        if not self.r.is_zero:
            raise NotRPerfect("induced delta maps need r = 0")
        hm = HomologyMaps(self.d)
        return hm, [hm.class_coords(col) for col in raw_cols(self.delta2)], apply(self.delta1, hm.reps)

    def delta_maps_zero(self):
        """Convenience: are both induced delta maps zero?"""
        _, d2_cols, d1_cols = self._induced_delta_coords()
        return not any(d2_cols) and not any(d1_cols)

    # -- restructuring

    def reduce_mod2(self):
        if self.modulus == 2:
            return self
        return self._on_modules(self.irr.reduce_mod2(), self.red.reduce_mod2(),
                                lambda m, s, t: GradedMatrix(s, t, m.degree % 2, dict(m.entries)))

    def base_change(self, ring_map: RingMap):
        if ring_map.source != self.ring:
            raise RingMismatch("base change source ring mismatch")
        tgt = ring_map.target
        return self._on_modules(GradedModule(tgt, self.modulus, self.irr.gens),
                                GradedModule(tgt, self.modulus, self.red.gens),
                                lambda m, s, t: m.map_entries(ring_map.raw, s, t))

    def _on_modules(self, irr, red, move):
        """The complex on C = irr and R = red whose blocks and s-map are
        move(block, new source, new target) of this one's."""
        ends = (irr, red)
        blocks = [move(getattr(self, name), src, tgt)
                  for name, (src, tgt, _) in zip(self._NAMES, _block_shapes(ends, ends, -1))]
        s = None if self.s is None else move(self.s, red, red)
        return SComplex(irr, red, *blocks, s, self.metadata)

    def same_shape_as(self, other):
        """Positional equality of all structure (names ignored)."""
        return (
            [d for _, d in self.irr.gens] == [d for _, d in other.irr.gens]
            and [d for _, d in self.red.gens] == [d for _, d in other.red.gens]
            and all(getattr(self, name).same_entries_as(getattr(other, name))
                    for name in self._NAMES)
        )

    def __repr__(self):
        return (f"SComplex(C rank {self.irr.rank}, R rank {self.red.rank}, "
                f"mod {self.modulus} over {self.ring!r})")


def base_change(obj, ring_map):
    """Entrywise application of a ring map to a matrix or a whole complex."""
    if isinstance(obj, SComplex):
        return obj.base_change(ring_map)
    if ring_map.source != obj.ring:
        raise RingMismatch("base change source ring mismatch")
    src = GradedModule(ring_map.target, obj.source.modulus, obj.source.gens)
    tgt = GradedModule(ring_map.target, obj.target.modulus, obj.target.gens)
    return obj.map_entries(ring_map.raw, src, tgt)


class _SMap:
    """What `SMorphism` and `SHomotopy` share: besides its `source` and
    `target` complexes, the one stored map is the assembled total
    [[A,0,0],[B,sA,C],[E,0,G]].  The blocks, named by `_NAMES` in `_blocks`'
    order, are views: a componentwise constructor keeps the blocks it was
    handed, and the first read of any other block splits the total once and
    keeps the blocks not yet held.  Immutable (`__setattr__` raises), so the
    kept blocks cannot go stale."""

    _NAMES = _LABELS = ()  # the blocks' attribute names and their names in messages

    def _place(self, x, y, k, s, blocks, **fields):
        """Check the blocks (in `_SHAPE` order; None is zero) for their
        `_block_shapes` at total degree k, store their total and keep them as
        views."""
        _check_blocks(x.modulus, _block_shapes((x.irr, x.red), (y.irr, y.red), k), blocks,
                      self._LABELS)
        vars(self).update({name: m for name, m in zip(self._NAMES, blocks) if m is not None})
        vars(self).update(fields, source=x, target=y, _total=_assemble(x, y, k, s, *blocks))

    def __setattr__(self, *a):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __getattr__(self, name):
        # reached only for an attribute the instance lacks: a block not yet read
        if name not in self._NAMES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        for view, block in zip(self._NAMES, _blocks(self._total, self.source, self.target)):
            vars(self).setdefault(view, block)
        return vars(self)[name]

    def assemble(self):
        """The total map, as stored."""
        return self._total

    @property
    def is_zero(self):
        return not self._total.entries


class SMorphism(_SMap):
    """A degree-k morphism with components (lambda, mu, Delta1, Delta2, rho),
    stored as its total [[lam,0,0],[mu,lam,Delta2],[Delta1,0,rho]]."""

    _NAMES = ("lam", "mu", "delta1", "delta2", "rho")
    _LABELS = ("lambda", "mu", "Delta1", "Delta2", "rho")

    def __init__(self, source, target, degree, lam=None, mu=None, delta1=None, delta2=None,
                 rho=None):
        """The morphism with these components, checked and assembled once; a
        component left out (None) is zero."""
        if source.ring != target.ring or source.modulus != target.modulus:
            raise ShapeMismatch("morphism endpoints incompatible")
        k = degree % source.modulus
        self._place(source, target, k, 1, (lam, mu, delta1, delta2, rho), degree=k)

    def verify(self):
        """The five chain-map relations, read from the blocks of D'.F - F.D."""
        X, Y, f = self.source, self.target, self._total
        return _relations(Y.total_differential() @ f - f @ X.total_differential(), X, Y, [
            ("d'.lambda - lambda.d = 0", "A", False),
            ("Delta1.d + rho.delta1 - delta1'.lambda - r'.Delta1 = 0", "E", True),
            ("d'.Delta2 - delta2'.rho + lambda.delta2 + Delta2.r = 0", "C", True),
            ("mu.d + d'.mu + lambda.v - v'.lambda + Delta2.delta1 - delta2'.Delta1 = 0", "B", True),
            ("rho.r - r'.rho = 0", "G", True),
        ])

    @classmethod
    def from_assembled(cls, m, x, y):
        """The morphism x -> y whose total is m, stored as it is: m is
        neither split nor checked.

        m must have the full shape [[lam,0,0],[mu,lam,Delta2],[Delta1,0,rho]]:
        the second lam equal to the first, and no entry off the blocks.
        Every caller's map has it: the zero map and the identity, a product
        (`compose_after`), sum or negation of totals that have it, a
        scalar multiple of the identity (`randgen.rand_morphism`), a
        boundary D'.H + H.D (`randgen.boundary_morphism`), a solved N map
        (`solve._Unknown.realize`), and a lift (`heights`) or Sigma f
        (`functors.suspend_morphism`), whose lam is placed twice."""
        f = object.__new__(cls)
        vars(f).update(source=x, target=y, degree=m.degree, _total=m)
        return f

    def named_triples(self):
        """(target name, source name, value) triples of the assembled matrix."""
        return self._total.named_triples()

    @classmethod
    def identity(cls, x):
        return cls.from_assembled(GradedMatrix.identity(x.total_module()), x, x)

    @classmethod
    def zero(cls, x, y, degree=0):
        return cls.from_assembled(GradedMatrix.zero(x.total_module(), y.total_module(), degree),
                                  x, y)

    def compose_after(self, other):
        """self . other (other first): the morphism of G.F."""
        return SMorphism.from_assembled(self._total @ other._total, other.source, self.target)

    def __add__(self, other):
        # the totals' sum checks their shapes, but not the degree of an empty one
        if self.degree != other.degree:
            raise ShapeMismatch("sum of morphisms of different degrees")
        return SMorphism.from_assembled(self._total + other._total, self.source, self.target)

    def __neg__(self):
        return SMorphism.from_assembled(-self._total, self.source, self.target)

    def __sub__(self, other):
        return self + (-other)

    def __repr__(self):
        return f"SMorphism(deg {self.degree}: {self.source!r} -> {self.target!r})"


def _homotopy_ends(frm, to):
    """The source and target complexes of a homotopy from frm to to, which
    must share them and their degree."""
    if (frm.source.irr != to.source.irr or frm.source.red != to.source.red
            or frm.target.irr != to.target.irr or frm.target.red != to.target.red):
        raise ShapeMismatch("homotopy endpoints disagree")
    if frm.degree != to.degree:
        raise ShapeMismatch("homotopy requires equal-degree morphisms")
    return frm.source, frm.target


class SHomotopy(_SMap):
    """Homotopy data (K, L, M1, M2, J) from `frm` to `to`, morphisms of equal
    degree k, stored as its total [[K,0,0],[L,-K,M2],[M1,0,J]] of degree
    k+1.  Satisfies componentwise the relations of d'.Ktilde + Ktilde.d =
    (from) - (to).  The component degrees are (k+1, k, k+1, k, k+1)."""

    _NAMES = _LABELS = ("K", "L", "M1", "M2", "J")

    def __init__(self, frm, to, K=None, L=None, M1=None, M2=None, J=None):
        """The homotopy with these components, checked and assembled once; a
        component left out (None) is zero."""
        X, Y = _homotopy_ends(frm, to)
        self._place(X, Y, frm.degree + 1, -1, (K, L, M1, M2, J), frm=frm, to=to)

    @classmethod
    def from_assembled(cls, m, frm, to):
        """The homotopy from frm to to whose total is m, stored as it is: m
        is neither split nor checked.  m must have the full shape
        [[K,0,0],[L,-K,M2],[M1,0,J]], as the zero map, a random homotopy's
        assembled blocks (`randgen.rand_homotopy_pair`) and a solved one
        (`solve._Unknown.realize`) have."""
        x, y = _homotopy_ends(frm, to)
        h = object.__new__(cls)
        vars(h).update(frm=frm, to=to, source=x, target=y, _total=m)
        return h

    def verify(self):
        """The five homotopy relations, read from the blocks of
        D'.H + H.D - (F - G)."""
        X, Y, h = self.source, self.target, self._total
        residual = (Y.total_differential() @ h + h @ X.total_differential()
                    - (self.frm.assemble() - self.to.assemble()))
        return _relations(residual, X, Y, [
            ("d'.K + K.d - lambda + lambda' = 0", "A", False),
            ("delta1'.K + r'.M1 + M1.d + J.delta1 - Delta1 + Delta1' = 0", "E", False),
            ("-d'.M2 + delta2'.J - K.delta2 + M2.r - Delta2 + Delta2' = 0", "C", False),
            ("v'.K - d'.L + delta2'.M1 + L.d - K.v + M2.delta1 - mu + mu' = 0", "B", False),
            ("r'.J + J.r - rho + rho' = 0", "G", False),
        ])

    @classmethod
    def zero(cls, frm, to):
        return cls.from_assembled(GradedMatrix.zero(
            frm.source.total_module(), frm.target.total_module(), frm.degree + 1), frm, to)

    def __repr__(self):
        return f"SHomotopy(deg {self.frm.degree}: {self.frm.source!r} -> {self.frm.target!r})"


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
        raise SchemaError(f"unknown ring keys {clip(sorted(extra))}")
    kind = obj["kind"]
    if not isinstance(kind, str):
        raise SchemaError(f"ring kind must be a string, got {clip(kind)}")
    if kind == "Zp":
        if "p" not in obj:
            raise SchemaError("Zp ring needs p")
        p = obj["p"]
        # bounded before the primality test, which trial-divides
        if type(p) is not int or not 2 <= p < 2 ** 31:
            raise SchemaError(f"Zp ring needs an integer p with 2 <= p < 2^31, got {clip(p)}")
        return Zp(p)
    if "p" in obj:
        raise SchemaError("p only valid for Zp")
    if kind not in _RING_TAGS:
        raise SchemaError(f"unknown ring kind {clip(kind)}")
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


def matrix_to_json(m, by_name=True):
    """The [target, source, coefficient] rows of m, in name order (the order
    of `named_triples`; no two rows share both names, so no text is
    compared) or with by_name=False in index order.  Coefficients repeat, so
    each distinct value is formatted once."""
    ring, tn, sn = m.ring, m.target.name, m.source.name
    texts = {}
    rows = []
    for key in (m.entries if by_name else sorted(m.entries)):
        x = m.entries[key]
        text = texts.get(x)
        if text is None:
            text = texts[x] = format_raw(ring, x)
        rows.append([tn(key[0]), sn(key[1]), text])
    if by_name:
        rows.sort()
    return rows


def blocks_to_json(f, by_name=True):
    """The blocks of f, an `SComplex`, `SMorphism` or `SHomotopy`, as
    {document key: `matrix_to_json` rows} in `_SHAPE` order."""
    return {key: matrix_to_json(getattr(f, name), by_name)
            for name, key in zip(f._NAMES, f._LABELS)}


def scomplex_to_json(x):
    bigr = {"gr_z": x.metadata.get("gr_z", {}), "gr_i": x.metadata.get("gr_i", {})}
    doc = {
        "ring": ring_to_json(x.ring),
        "modulus": x.modulus,
        "irreducible": _gens_to_json(x.irr, bigr),
        "reducible": _gens_to_json(x.red, bigr),
        **blocks_to_json(x),
    }
    if x.s is not None:
        doc["s"] = matrix_to_json(x.s)
    meta = {k: v for k, v in x.metadata.items() if k not in ("gr_z", "gr_i")}
    if meta:
        doc["metadata"] = meta
    return doc


# The direct writer.  `json.dumps` with an indent runs the standard library's
# pure-Python encoder, so the complex document is written here instead: its
# text is that of `json.dumps(scomplex_to_json(x), indent=1, sort_keys=True)`
# and a newline, byte for byte, which the tests keep as the oracle.  Names
# and coefficients go through the C string encoder, each once.

_encode_str = json.encoder.encode_basestring_ascii
_HAND_DEPTH = 16  # deeper values (and any cycle) go to json.dumps


def _json_value(value, depth):
    """`value` as `json.dumps(..., indent=1, sort_keys=True)` writes it nested
    `depth` levels deep.  Strings, ints, None, bools, and lists, tuples and
    str-keyed dicts of them are written here; anything else is handed to
    `json.dumps` and re-indented, which is safe because JSON text holds no
    raw newline inside a string."""
    t = type(value)
    if t is str:
        return _encode_str(value)
    if t is int:
        return int.__repr__(value)
    if value is None or t is bool:
        return _JSON_CONSTANTS[value]
    if depth < _HAND_DEPTH:
        inner = "\n" + " " * (depth + 1)
        if t is list or t is tuple:
            if not value:
                return "[]"
            items = [_json_value(v, depth + 1) for v in value]
            return "[" + inner + ("," + inner).join(items) + inner[:-1] + "]"
        if t is dict and all(type(k) is str for k in value):
            if not value:
                return "{}"
            items = [_encode_str(k) + ": " + _json_value(v, depth + 1)
                     for k, v in sorted(value.items())]
            return "{" + inner + ("," + inner).join(items) + inner[:-1] + "}"
    return json.dumps(value, indent=1, sort_keys=True).replace("\n", "\n" + " " * depth)


_JSON_CONSTANTS = {None: "null", True: "true", False: "false"}


def _gens_text(module, grz, gri):
    """The generator list of `_gens_to_json`, written one level deep, and the
    pair (JSON text of each name, each generator's place in name order)."""
    names, objs = [], []
    for n, d in module.gens:
        name = _encode_str(n) if type(n) is str else _json_value(n, 3)
        degree = int.__repr__(d) if type(d) is int else _json_value(d, 3)
        names.append(name)
        gr = ""
        if n in gri:
            gr = ",\n   \"gr_i\": " + _json_value(gri[n], 3)
        if n in grz:
            gr += ",\n   \"gr_z\": " + _json_value(grz[n], 3)
        objs.append(f"  {{\n   \"degree\": {degree}{gr},\n   \"name\": {name}\n  }}")
    place = [0] * len(names)
    raw = [n for n, _ in module.gens]
    for k, i in enumerate(sorted(range(len(raw)), key=raw.__getitem__)):
        place[i] = k
    return ("[\n" + ",\n".join(objs) + "\n ]" if objs else "[]"), (names, place)


def _matrix_text(m, target, source):
    """The rows of `matrix_to_json(m)`, written one level deep; `target` and
    `source` are the (names, places) pairs of `_gens_text` for m's modules."""
    if not m.entries:
        return "[]"
    (tnames, tplace), (snames, splace) = target, source
    ns = len(splace)
    ring, texts, rows = m.ring, {}, []
    for _, t, s, x in sorted((tplace[t] * ns + splace[s], t, s, x)
                             for (t, s), x in m.entries.items()):
        text = texts.get(x)
        if text is None:
            text = texts[x] = _encode_str(format_raw(ring, x))
        rows.append(f"  [\n   {tnames[t]},\n   {snames[s]},\n   {text}\n  ]")
    return "[\n" + ",\n".join(rows) + "\n ]"


def scomplex_json_text(x):
    """The text `save_scomplex` writes: `json.dumps(scomplex_to_json(x),
    indent=1, sort_keys=True)` and a newline, written without the encoder."""
    grz, gri = x.metadata.get("gr_z", {}), x.metadata.get("gr_i", {})
    irr_text, irr = _gens_text(x.irr, grz, gri)
    red_text, red = _gens_text(x.red, grz, gri)
    ends = (irr, red)
    fields = {key: _matrix_text(getattr(x, key), ends[tgt], ends[src])
              for key, (src, tgt, _) in zip(x._LABELS, _ENDS)}
    fields.update(irreducible=irr_text, modulus=_json_value(x.modulus, 1), reducible=red_text,
                  ring=_json_value(ring_to_json(x.ring), 1))
    if x.s is not None:
        fields["s"] = _matrix_text(x.s, red, red)
    meta = {k: v for k, v in x.metadata.items() if k not in ("gr_z", "gr_i")}
    if meta:
        fields["metadata"] = _json_value(meta, 1)
    return "{\n" + ",\n".join(f" \"{k}\": {fields[k]}" for k in sorted(fields)) + "\n}\n"


_COMPLEX_NEEDS = ("ring", "modulus", "irreducible", "reducible", *SComplex._LABELS)
_COMPLEX_KEYS = {*_COMPLEX_NEEDS, "s", "metadata"}


def _check_gr_i(name, value):
    """A gr_i grading is a str or an int (not a bool) that Fraction reads."""
    if type(value) in (str, int):
        try:
            Fraction(value)
            return value
        except (ValueError, ZeroDivisionError):
            pass
    raise SchemaError(f"gr_i of {clip(name)} must be an integer or a rational string like '1/2', "
                      f"got {clip(value)}")


_GEN_KEYS = frozenset({"name", "degree", "gr_z", "gr_i"})


def _gens_from_json(items, modulus, grz, gri):
    if not isinstance(items, list):
        raise SchemaError("generators must be a list")
    gens = []
    for g in items:
        if not isinstance(g, dict):
            raise SchemaError("a generator must be an object")
        if not _GEN_KEYS.issuperset(g):
            raise SchemaError(f"unknown generator keys {clip(sorted(set(g) - _GEN_KEYS))}")
        if "name" not in g or "degree" not in g:
            raise SchemaError("generator needs name and degree")
        name, degree = g["name"], g["degree"]
        if not isinstance(name, str):
            raise SchemaError(f"generator name must be a string, got {clip(name)}")
        if type(degree) is not int:
            raise SchemaError(f"degree of {clip(name)} must be an integer, got {clip(degree)}")
        gens.append((name, degree % modulus))
        if "gr_z" in g:
            grz[name] = g["gr_z"]
        if "gr_i" in g:
            gri[name] = _check_gr_i(name, g["gr_i"])
    return gens


def matrix_from_json(items, source, target, degree, values=None):
    """The matrix of the [target, source, coefficient] rows `items`, over
    source's ring; the values at one position add.  Coefficients repeat, so
    each distinct string is parsed once: `values` maps the strings parsed so
    far to their raw values, and the loaders share one per document.  The
    checked constructor refuses entries of the wrong degree."""
    if not isinstance(items, list):
        raise SchemaError("matrix entries must be a list")
    ring = source.ring
    if values is None:
        values = {}
    add = ring.domain.add
    tindex, sindex = target._index, source._index
    ent = {}
    for row in items:
        if not isinstance(row, list) or len(row) != 3:
            raise SchemaError("matrix entries are [target, source, coeff] triples")
        tn, sn, cs = row
        if not isinstance(cs, str):
            raise SchemaError(f"coefficient must be a string, got {clip(cs)}")
        # a name that is not a str is unknown too (and would not hash)
        t = tindex.get(tn) if type(tn) is str else None
        if t is None:
            raise SchemaError(f"unknown target generator {clip(tn)}")
        s = sindex.get(sn) if type(sn) is str else None
        if s is None:
            raise SchemaError(f"unknown source generator {clip(sn)}")
        x = values.get(cs)
        if x is None:
            x = values[cs] = parse_raw(ring, cs)
        key = (t, s)
        cur = ent.get(key)
        ent[key] = x if cur is None else add(cur, x)
    return GradedMatrix(source, target, degree, ent)


def _blocks_from_json(doc, keys, x, y, k, values):
    """The blocks of a map of total degree k between the (C, R) pairs x and
    y, read in `_SHAPE` order from the document keys `keys`, each at its
    `_block_shapes` endpoints and degree; a left-out key is zero."""
    return [matrix_from_json(doc.get(key, []), x[src], y[tgt], k + off, values)
            for key, (src, tgt, off) in zip(keys, _ENDS)]


def scomplex_from_json(doc):
    if not isinstance(doc, dict):
        raise SchemaError("complex document must be an object")
    extra = set(doc) - _COMPLEX_KEYS
    if extra:
        raise SchemaError(f"unknown keys {clip(sorted(extra))}")
    for k in _COMPLEX_NEEDS:
        if k not in doc:
            raise SchemaError(f"missing key {k!r}")
    ring = ring_from_json(doc["ring"])
    modulus = doc["modulus"]
    if type(modulus) is not int or modulus not in (2, 4):
        raise SchemaError(f"modulus must be 2 or 4, got {clip(modulus)}")
    if not isinstance(doc.get("metadata", {}), dict):
        raise SchemaError(f"metadata must be an object, got {clip(doc['metadata'])}")
    for k in ("gr_z", "gr_i"):
        if k in doc.get("metadata", {}):
            raise SchemaError(f"metadata may not hold {k!r}; it is a generator key")
    grz, gri = {}, {}
    irr = GradedModule(ring, modulus, _gens_from_json(doc["irreducible"], modulus, grz, gri))
    red = GradedModule(ring, modulus, _gens_from_json(doc["reducible"], modulus, grz, gri))
    values = {}  # each distinct coefficient of the document is parsed once
    blocks = _blocks_from_json(doc, SComplex._LABELS, (irr, red), (irr, red), -1, values)
    s = None
    if "s" in doc:
        s = matrix_from_json(doc["s"], red, red, -2, values)
    meta = dict(doc.get("metadata", {}))
    if grz:
        meta["gr_z"] = grz
    if gri:
        meta["gr_i"] = gri
    return SComplex(irr, red, *blocks, s, meta)


def save_scomplex(x, path):
    text = scomplex_json_text(x)  # made before the file is opened, so a failure truncates nothing
    with open(path, "w") as fh:
        fh.write(text)


def _parse_int(digits):
    try:
        return int(digits)
    except ValueError:  # more digits than the interpreter converts
        raise SchemaError(f"JSON integer of {len(digits)} digits is too long") from None


def read_json(path):
    """The JSON document in the file at `path`.  An integer with more digits
    than the interpreter converts is a SchemaError."""
    with open(path) as fh:
        return json.load(fh, parse_int=_parse_int)


def load_scomplex(path):
    return scomplex_from_json(read_json(path))


# -- morphism documents (used by the CLI and the heights/triangles bundles)


def morphism_to_json(f, include_complexes=True):
    doc = {"degree": f.degree, **blocks_to_json(f)}
    if include_complexes:
        doc["source"] = scomplex_to_json(f.source)
        doc["target"] = scomplex_to_json(f.target)
    return doc


_MORPHISM_KEYS = {"degree", *SMorphism._LABELS, "source", "target", "height", "tau", "nu"}


def morphism_from_json(doc, source=None, target=None):
    if not isinstance(doc, dict):
        raise SchemaError("morphism document must be an object")
    extra = set(doc) - _MORPHISM_KEYS
    if extra:
        raise SchemaError(f"unknown morphism keys {clip(sorted(extra))}")
    if source is None:
        if "source" not in doc:
            raise SchemaError("morphism document needs an inline source complex")
        source = scomplex_from_json(doc["source"])
    if target is None:
        if "target" not in doc:
            raise SchemaError("morphism document needs an inline target complex")
        target = scomplex_from_json(doc["target"])
    k = doc.get("degree")
    if type(k) is not int:
        raise SchemaError(f"morphism degree must be an integer, got {clip(k)}")
    return SMorphism(source, target, k, *_blocks_from_json(
        doc, SMorphism._LABELS, (source.irr, source.red), (target.irr, target.red), k, {}))


def homotopy_from_json(doc, frm, to):
    """The homotopy from the morphism frm to the morphism to whose blocks the
    document keys K, L, M1, M2 and J hold; a left-out key is zero."""
    if not isinstance(doc, dict):
        raise SchemaError("a homotopy must be an object")
    extra = set(doc).difference(SHomotopy._LABELS)
    if extra:
        raise SchemaError(f"unknown homotopy keys {clip(sorted(extra))}")
    x, y = frm.source, frm.target
    return SHomotopy(frm, to, *_blocks_from_json(
        doc, SHomotopy._LABELS, (x.irr, x.red), (y.irr, y.red), frm.degree + 1, {}))
