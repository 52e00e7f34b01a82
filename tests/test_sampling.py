"""Repeated draws from one simulated (circuit, input) pair.

The judge, the amplified QMA verifier, pseudo-deterministic circuits and the
TOY prover's output checks each draw several independent bits from the same
circuit on the same input. These tests write the per-draw simulation out as
a reference and require the same bits, seed by seed, with witnesses whose
acceptance probability lies strictly between 0 and 1, and count the
simulations: one per call.
"""
import itertools

import numpy as np
import pytest

from qnk import cvqc, qma
from qnk.cvqc import (
    TOY_LINEAR,
    ToyParams,
    _toy_prove1,
    claim_for,
    judge_accepts,
    toy_keygen,
    toy_prove,
)
from qnk.qma import PseudoDetCircuit, Witness, amplify, fixture, make_policy_language, qma_verify
from qnk.qsim import (
    QuantumCircuit, StateVector, accept_probability, history_state, parse_circuit, run_circuit,
)
from qnk.rand import Drbg

SEEDS = range(200)
GHZ = fixture("ghz")
# accepted by the GHZ check with probability 0.6
MIXED = StateVector(3, np.sqrt(0.6) * np.array([2 ** -0.5, 0, 0, 0, 0, 0, 0, 2 ** -0.5])
                    + np.sqrt(0.4) * np.array([2 ** -0.5, 0, 0, 0, 0, 0, 0, -2 ** -0.5]))
# output probability (1 - cos(pi/4)) / 2
HTH = parse_circuit("qubits 2\ninput 0\nH 0\nT 0\nH 0\n")
# output probability 1/2
H = parse_circuit("qubits 1\ninput 0\nH 0\n")
MAP = (b"\x00" * 16, b"\xff" * 16)


def reference_hits(circ, inp, reps: int, drbg: Drbg, prefix: str) -> int:
    """One full simulation per repetition, repetition i on child `prefix{i}`."""
    return sum(run_circuit(circ, inp, drbg.child(f"{prefix}{i}"))[0] for i in range(reps))


def reference_violation(circ: QuantumCircuit, drbg: Drbg) -> int:
    """One fresh history state per checked position: postselect the clock onto
    the final step, read the output qubit, return 1 - bit."""
    hist = history_state(circ, [])
    T = len(circ.gates)
    hist, p = hist.project({q: 1 for q in range(T)})
    if p < 1e-12:
        return 1
    u = int.from_bytes(drbg.bytes(8), "big") / 2 ** 64
    return 1 - (1 if u < hist.prob_of(T, 1) else 0)


def test_judge_accepts_matches_per_rep_runs():
    claim = claim_for(GHZ, b"\x01")
    lang = claim.language()
    circ = lang.verifier(claim.x)
    verdicts = []
    for seed in SEEDS:
        drbg = Drbg(seed)
        want = reference_hits(circ, MIXED, lang.reps, drbg, "judge") > lang.reps // 2
        assert judge_accepts(claim, Witness(MIXED), drbg) == want, seed
        verdicts.append(want)
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("reps", [1, 5])
def test_qma_verify_matches_per_rep_runs(reps):
    L = amplify(GHZ, reps) if reps > 1 else GHZ
    circ = L.verifier(b"\x01")
    verdicts = []
    for seed in SEEDS:
        drbg = Drbg(seed)
        want = 1 if reference_hits(circ, MIXED, L.reps, drbg, "judge") > L.reps // 2 else 0
        assert qma_verify(L, b"\x01", Witness(MIXED), drbg) == want, seed
        verdicts.append(want)
    assert 0 < sum(verdicts) < len(verdicts)


def test_pseudo_det_run_matches_per_rep_runs():
    pd = PseudoDetCircuit(HTH, 3, MAP)
    outs = []
    for seed in SEEDS:
        drbg = Drbg(seed)
        hits = reference_hits(HTH, [], pd.reps, drbg, "rep")
        want = pd.output_map[1 if hits > pd.reps // 2 else 0]
        assert pd.run([], drbg) == want, seed
        outs.append(want)
    assert len(set(outs)) == 2


def strict_majority_tail(p: float, reps: int) -> float:
    """Probability that more than reps // 2 of reps draws read 1, summed over
    every outcome pattern: the rule `PseudoDetCircuit.run` applies."""
    return sum(p ** sum(bits) * (1 - p) ** (reps - sum(bits))
               for bits in itertools.product((0, 1), repeat=reps) if sum(bits) > reps // 2)


@pytest.mark.parametrize("circ", [H, HTH], ids=["H", "HTH"])
@pytest.mark.parametrize("reps", range(6))
def test_pseudo_det_certificate_is_the_tail_of_run(circ, reps):
    pd = PseudoDetCircuit(circ, reps, MAP)
    want = strict_majority_tail(accept_probability(circ, []), reps)
    assert pd.decision_probability([]) == pytest.approx(want, abs=1e-12)


def test_pseudo_det_even_reps_certificate_matches_the_draws():
    """Two draws of a fair bit: `run` outputs decision 1 only when both read 1."""
    pd = PseudoDetCircuit(H, 2, MAP)
    assert pd.decision_probability([]) == pytest.approx(0.25)
    ones = sum(pd.run([], Drbg(seed)) == MAP[1] for seed in range(2000))
    assert abs(ones / 2000 - 0.25) < 0.04


def test_toy_output_checks_match_per_position_history_states():
    lang = make_policy_language(HTH)
    claim = claim_for(lang, b"")
    pp, _ = toy_keygen(claim, Drbg(0), ToyParams(variant=TOY_LINEAR))
    circ = lang.verifier(claim.x)
    ones = 0
    for seed in SEEDS:
        drbg = Drbg(seed)
        y, _ = _toy_prove1(pp, Witness.empty(), drbg)
        want = bytes(reference_violation(circ, drbg.child(f"pos{i}").child("measure"))
                     for i in range(len(y)))
        assert y == want, seed
        ones += sum(want)
    assert 0 < ones < len(SEEDS) * len(y)


def count_calls(monkeypatch, module, name: str) -> list:
    """Replace `module.name` with a wrapper that records each call."""
    calls, original = [], getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def key_with_checks(claim, checked: int):
    seed = 0
    while True:
        pp, r = toy_keygen(claim, Drbg(seed))
        if sum(r.body.bases) == checked:
            return pp
        seed += 1


@pytest.mark.parametrize("checked, sims", [(4, 1), (0, 0)])
def test_toy_prove_simulates_once_per_call(monkeypatch, checked, sims):
    pp = key_with_checks(claim_for(fixture("par8"), b"\x07"), checked)
    calls = count_calls(monkeypatch, cvqc, "history_state")
    toy_prove(pp, Witness.empty(), Drbg(1))
    assert len(calls) == sims


def test_judge_accepts_simulates_once(monkeypatch):
    calls = count_calls(monkeypatch, qma, "accept_probability")
    judge_accepts(claim_for(GHZ, b"\x01"), Witness(MIXED), Drbg(1))
    assert len(calls) == 1


def test_qma_verify_and_pseudo_det_run_simulate_once(monkeypatch):
    calls = count_calls(monkeypatch, qma, "accept_probability")
    qma_verify(amplify(GHZ, 5), b"\x01", Witness(MIXED), Drbg(1))
    PseudoDetCircuit(HTH, 5, MAP).run([], Drbg(1))
    assert len(calls) == 2
