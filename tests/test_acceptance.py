"""The acceptance gate: every criterion runs at its stated (exact) tolerance
and prints one pass/fail line."""

import time

import pytest

from scx.selftest import CRITERIA, DEFAULT_SEED


@pytest.mark.parametrize("name,fn", CRITERIA, ids=[n for n, _ in CRITERIA])
def test_criterion(name, fn):
    t0 = time.time()
    ok, detail = fn(DEFAULT_SEED)
    dt = time.time() - t0
    print(f"[{'pass' if ok else 'FAIL'}] criterion {name} ({dt:.1f}s): {detail}")
    assert ok, detail
    # stated runtime bounds
    if name.startswith("1"):
        assert dt < 30, f"criterion 1 took {dt:.1f}s (limit 30s)"
    if name.startswith("5"):
        assert dt < 10, f"criterion 5 took {dt:.1f}s (limit 10s)"
    if name.startswith("6"):
        assert dt < 10, f"criterion 6 took {dt:.1f}s (limit 10s)"
