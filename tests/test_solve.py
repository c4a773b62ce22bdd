"""The assembled homotopy relation against the reported one.

`solve_homotopy` solves d'.H + H.d = (frm - to) on the assembled matrices;
`SHomotopy.verify` reports five named relations, read from blocks of that
residual (their per-block formulas are the oracle of test_scomplex.py).
Every block of the residual, the -K block included, is zero exactly when
the relation read there holds (relation 1 twice, at the K and -K blocks).
"""

import random

import pytest

from scx.randgen import RINGS, rand_homotopy_pair, rand_homotopy_shape, rand_morphism, rand_scomplex
from scx.scomplex import SHomotopy, _block_layout
from scx.solve import solve_homotopy

# the relation of SHomotopy.verify that each block of the residual holds
_RELATION = {"A": 0, "sA": 0, "E": 1, "C": 2, "B": 3, "G": 4}


def _residual(h):
    x, y = h.frm.source, h.frm.target
    hh = h.assemble()
    return y.total_differential() @ hh + hh @ x.total_differential() - (h.frm - h.to).assemble()


def _zero_blocks(residual, x, y):
    """Whether each block of the residual is zero, by block name."""
    out = {}
    for name, (src, tgt, row, col) in _block_layout(x, y).items():
        out[name] = not any(row <= t < row + tgt.rank and col <= s < col + src.rank
                            for t, s in residual.entries)
    return out


def _cases(tag, rng):
    """(frm, to, H0) over the ring: a homotopy, the same with one block
    perturbed, and random data."""
    ring = RINGS[tag]
    for _ in range(8):
        x = rand_scomplex(ring, rng, max_rank=4)
        y = x if rng.random() < 0.5 else rand_scomplex(ring, rng, modulus=x.modulus, max_rank=4)
        degree = rng.choice((0, 1, -1))
        f = rand_morphism(x, y, rng, degree)
        g, h = rand_homotopy_pair(f, rng)
        blocks = [h.K, h.L, h.M1, h.M2, h.J]
        yield f, g, blocks
        other = rand_homotopy_shape(x, y, rng, f.degree)
        i = rng.randrange(5)
        yield f, g, blocks[:i] + [blocks[i] + other[i]] + blocks[i + 1:]
        yield f, g, list(other)


@pytest.mark.parametrize("tag", ["Z", "Z2", "Q", "QT"])
def test_assembled_residual_is_zero_exactly_when_the_homotopy_verifies(tag):
    rng = random.Random(f"assembled relation {tag}")
    outcomes = set()
    for frm, to, blocks in _cases(tag, rng):
        h = SHomotopy(frm, to, *blocks)
        report = h.verify()
        residual = _residual(h)
        assert residual.is_zero == report.ok
        zero = _zero_blocks(residual, frm.source, frm.target)
        assert zero["A"] == zero["sA"]
        for name, rel in _RELATION.items():
            assert zero[name] == report.checks[rel][1], name
        outcomes.add(report.ok)
    assert outcomes == {True, False}


@pytest.mark.parametrize("tag", ["Z", "Z2", "Q", "QT"])
def test_every_solved_homotopy_verifies(tag):
    rng = random.Random(f"solved homotopies {tag}")
    for frm, to, _ in _cases(tag, rng):
        # rand_homotopy_pair's f and g are homotopic, so a homotopy exists
        h = solve_homotopy(frm, to)
        assert h is not None and h.verify().ok and _residual(h).is_zero
