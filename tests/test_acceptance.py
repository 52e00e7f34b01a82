"""Acceptance gate: every exit criterion at its stated tolerance, one
pass/fail line each (visible with `pytest -s` or in the failure report).
Each criterion is also run with one planted fault, to show that it can fail,
and three criteria with a fault that only a later check of theirs catches."""

import subprocess
import time

import pytest

from qnk import selftest
from qnk.attacks import AttackTranscript

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


def test_cli_determinism_needs_no_pythonpath(monkeypatch):
    """Criterion 11's `python -m qnk.cli` children find the package under
    test when the caller sets no PYTHONPATH, as under a plain `pytest`."""
    monkeypatch.delenv("PYTHONPATH", raising=False)
    name, ok, detail = selftest.criterion_11_cli_determinism()
    assert ok, detail


def doubled_amplitudes(state, name, targets):
    state.amps = state.amps * 2


def failed_run(argv, **kwargs):
    return subprocess.CompletedProcess(argv, 1, b"", b"stand-in failure")


# criterion -> (object, name the criterion reads there, stand-in, expected result)
FAULTS = {
    1: (selftest, "ggm_eval", lambda k, x: bytes(16),
        ("ggm-puncturable-prf", False, "mismatch at key 0, x=0")),
    2: (selftest, "td_verify", lambda *args: 0,
        ("dual-mode-verification-equivalence", False,
         "disagree on ((0, 0), (0, 0), (0, 0), (0, 0))")),
    3: (selftest, "td_verify", lambda *args: 1,
        ("sim-mode-lockout", False, "accepting input ((0, 0), (0, 0), (0, 0), (0, 0))")),
    4: (selftest.nullio, "nio_eval", lambda *args: 0,
        ("null-io-correctness", False, "parity instance 00000001")),
    5: (selftest.nullio, "we_dec", lambda *args: None,
        ("witness-encryption", False, "yes 07 lost message")),
    6: (selftest.proofs, "nizk_verify", lambda *args: 0,
        ("nizk", False, "completeness failed at 07")),
    7: (selftest.ed, "abe_dec", lambda *args: None,
        ("delegation", False, "abe attribute 0001")),
    8: (selftest, "unwrap", lambda out: b"released",
        ("lockable-obfuscation", False, "lock semantics at 00")),
    9: (selftest.qsim, "apply_gate", doubled_amplitudes,
        ("simulator-numerics", False, "norm drift in trial 0")),
    10: (selftest.attacks, "attack_basis_flip", lambda verifier, pi: AttackTranscript(),
         ("cryptanalysis", False, "basis recovery failed on instance 0")),
    11: (selftest.subprocess, "run", failed_run,
         ("cli-determinism", False, "we failed: stand-in failure")),
}


@pytest.mark.parametrize("idx", range(1, 12))
def test_criterion_can_fail(monkeypatch, idx):
    owner, name, stand_in, want = FAULTS[idx]
    monkeypatch.setattr(owner, name, stand_in)
    assert selftest.CRITERIA[idx - 1]() == want


NULL_CLAIM_DIGEST = selftest.claim_for(selftest.fixture("null3"), b"\x01").digest()
real_nio_eval = selftest.nullio.nio_eval


def accepts_the_null_claim(obf, witness, drbg):
    return 1 if obf.q_digest == NULL_CLAIM_DIGEST else real_nio_eval(obf, witness, drbg)


# a fault that passes a criterion's earlier checks and fails a later return:
# name -> (criterion, object, name the criterion reads there, stand-in, expected result)
LATER_FAULTS = {
    "4-null-accepted": (4, selftest.nullio, "nio_eval", accepts_the_null_claim,
                        ("null-io-correctness", False, "null fixture accepted 100 times")),
    "7-pe-qualifying": (7, selftest.ed, "pe_dec", lambda sk, ct: None,
                        ("delegation", False, "pe qualifying key failed")),
    "10-linear-recovery": (10, selftest.attacks, "attack_linear",
                           lambda verifier, pi, width: AttackTranscript(),
                           ("cryptanalysis", False, "linear secret recovery failed")),
}


@pytest.mark.parametrize("fault", LATER_FAULTS)
def test_later_return_can_fail(monkeypatch, fault):
    idx, owner, name, stand_in, want = LATER_FAULTS[fault]
    monkeypatch.setattr(owner, name, stand_in)
    assert selftest.CRITERIA[idx - 1]() == want
