"""Acceptance gate: every exit criterion at its stated tolerance, one
pass/fail line each (visible with `pytest -s` or in the failure report)."""

import time

import pytest

from qnk import selftest

LIMITS_SECONDS = {
    1: 1, 2: 30, 3: 30, 4: 120, 5: 120, 6: 120, 7: 180, 8: 30, 9: 60,
    10: 120, 11: 60,
}


@pytest.mark.parametrize("idx", range(1, 12))
def test_criterion(idx):
    fn = selftest.CRITERIA[idx - 1]
    t0 = time.time()
    name, ok, detail = fn()
    elapsed = time.time() - t0
    line = f"{'PASS' if ok else 'FAIL'} criterion {idx} [{name}] ({elapsed:.1f}s): {detail}"
    print(line)
    assert ok, line
    assert elapsed < LIMITS_SECONDS[idx], f"criterion {idx} took {elapsed:.1f}s"
