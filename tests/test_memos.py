"""Process memos, declared with `qnk.memo.memo`, which states the memo rule:
each is in `REGISTRY` with an int bound, each fixed verifier constant is
decoded once per distinct blob, each NIZK statement is encrypted once per
CRS, no memo holds a `RandomOracle` or an error, and no output changes."""
import dataclasses
import functools
import importlib

import pytest

import qnk.memo
from qnk import cvqc, nullio, qfhe, qma, qsim
from qnk.circuit_ir import DEFAULT_REGISTRY
from qnk.cvqc import (
    PROTO_ORACLE,
    CvqcProof,
    claim_for,
    encode_base_proof,
    keygen_star,
    sim_gen,
    star_gate,
    star_prove,
    td_gen,
)
from qnk.errors import DomainMismatch, KeyMismatch, MalformedCiphertext, WidthMismatch
from qnk.memo import REGISTRY, memo
from qnk.nullio import nio_eval, nio_obf
from qnk.proofs import nizk_prove, nizk_setup
from qnk.qfhe import qfhe_dec, qfhe_enc, qfhe_eval, qfhe_gen
from qnk.qma import Witness, fixture, ghz_witness
from qnk.qsim import QuantumCircuit, StateVector, accept_probability, apply_gate
from qnk.rand import Drbg
from qnk.wire import pack_fields, unpack_fields

WE_GATE = DEFAULT_REGISTRY["WE_ENC"]

YES = claim_for(fixture("par8"), b"\x07")
GHZ = fixture("ghz")

# the memos that `nio_eval` and `nizk_prove` read
MEMOS = ("cvqc._decode_star_constant", "cvqc._decode_oracle_spec", "qfhe._sk_keys",
         "qfhe._wrap_key_from_pk", "qma._binom_tail", "nullio._gate_we_enc",
         "nullio._decode_we")
WE_MEMOS = ("nullio._gate_we_enc", "nullio._decode_we")


def ghz_witness_copies() -> Witness:
    return Witness(ghz_witness(), qma.DEFAULT_WITNESS_COPIES)


def misses() -> dict[str, int]:
    return {name: REGISTRY[name].cache_info().misses for name in MEMOS}


def clear_memos():
    for wrapper in REGISTRY.values():
        wrapper.cache_clear()


# ---------------------------------------------------------------------------
# one registry of bounded memos

ALL_MEMOS = {
    "rand._keyed", "primitives._prg", "cvqc._decode_oracle_spec", "cvqc._decode_star_constant",
    "cvqc._decode_toy_key", "circuit_ir._decode_sealed", "encdelegate._keycheck_budget",
    "encdelegate._encryptor_budget", "encdelegate._cprf_budget", "nullio._decode_we",
    "nullio._gate_we_enc", "proofs._nizk_budgets", "qfhe._sk_keys", "qfhe._wrap_key_from_pk",
    "qma._binom_tail", "qsim._accept_probability", "cli._parser"}


def test_registry_holds_every_memo_bounded():
    for name in ALL_MEMOS:
        module, attr = name.split(".")
        wrapper = getattr(importlib.import_module("qnk." + module), attr)
        assert REGISTRY[name] is wrapper and type(wrapper) is functools._lru_cache_wrapper
        assert type(wrapper.cache_parameters()["maxsize"]) is int, name
    assert set(REGISTRY) == ALL_MEMOS


@pytest.mark.parametrize("maxsize", (None, 0, -1, 1.5, True))
def test_memo_needs_a_positive_int_bound(maxsize):
    with pytest.raises(ValueError):
        memo(maxsize)


def test_memo_registers_a_name_once(monkeypatch):
    monkeypatch.setattr(qnk.memo, "REGISTRY", {})
    wrapper = memo(1)(lambda x: x)
    with pytest.raises(ValueError):
        memo(2)(lambda x: x)
    name = f"{__name__}.test_memo_registers_a_name_once.<locals>.<lambda>"
    assert qnk.memo.REGISTRY == {name: wrapper} and wrapper(3) == 3


# ---------------------------------------------------------------------------
# no oracle outlives a call


@pytest.mark.parametrize("gen", (keygen_star, td_gen, sim_gen))
def test_oracles_from_one_spec_share_no_table(gen):
    spec = cvqc.oracle_spec(gen(YES, PROTO_ORACLE, Drbg(1)))
    first, second = cvqc.oracle_from_spec(spec), cvqc.oracle_from_spec(spec)
    answer = first.query(b"x")
    assert first is not second
    assert list(first.table) == [b"x"] and second.table == {}
    assert second.query(b"x") == answer


def test_runs_of_one_sealed_verifier_share_no_oracle(monkeypatch):
    setup = td_gen(YES, PROTO_ORACLE, Drbg(2))
    sealed = cvqc.sealed_star_td_verifier(setup)
    honest = star_prove(setup.pp, Witness.empty(), setup.oracle, Drbg(3))
    forged = CvqcProof(bytes(16), bytes(17))
    made = []
    real = cvqc.oracle_from_spec
    monkeypatch.setattr(cvqc, "oracle_from_spec",
                        lambda spec: made.append(real(spec)) or made[-1])
    assert sealed.run(honest.encode(PROTO_ORACLE)) == b"\x01"
    assert sealed.run(forged.encode(PROTO_ORACLE)) == b"\x00"
    assert len(made) == 2 and made[0] is not made[1]
    assert list(made[0].table) == [encode_base_proof(PROTO_ORACLE, honest.pi)]
    assert list(made[1].table) == [encode_base_proof(PROTO_ORACLE, forged.pi)]


# ---------------------------------------------------------------------------
# no error is memoized


def star_constant_variants():
    """Malformed CVQC_(TD)VERIFY constants: (blob, use_td, error)."""
    setup = td_gen(YES, PROTO_ORACLE, Drbg(4))
    _, blob = star_gate(setup, True)
    claim, proto, key, spec = unpack_fields(blob, 4)
    return [
        pytest.param(blob[:-1], True, MalformedCiphertext, id="cut short"),
        pytest.param(pack_fields(claim, b"\xff", key, spec), True, MalformedCiphertext,
                     id="proto not UTF-8"),
        pytest.param(pack_fields(claim, b"toy-ish", key, spec), True, MalformedCiphertext,
                     id="proto unknown"),
        pytest.param(pack_fields(claim[:-1], proto, key, spec), True, MalformedCiphertext,
                     id="claim cut short"),
        pytest.param(pack_fields(claim, proto, key[:-1], spec), True, DomainMismatch,
                     id="trapdoor 15 bytes"),
        pytest.param(pack_fields(claim, proto, b"garbage", spec), False, MalformedCiphertext,
                     id="verify key garbage"),
    ]


@pytest.mark.parametrize("blob, use_td, error", star_constant_variants())
def test_malformed_star_constant_raises_on_every_call(blob, use_td, error):
    gate = DEFAULT_REGISTRY[cvqc._STAR_GATES[use_td]]
    before = cvqc._decode_star_constant.cache_info().currsize
    for _ in range(2):
        with pytest.raises(error):
            gate(b"\x01" + bytes(34), blob)
    assert cvqc._decode_star_constant.cache_info().currsize == before


def oracle_spec_variants():
    """Malformed oracle specs: (spec, error). The first three fail in the
    memoized decode, the last two in the RandomOracle built from it."""
    spec = cvqc.oracle_spec(td_gen(YES, PROTO_ORACLE, Drbg(5)))
    mode, seed, td, claim, r = unpack_fields(spec, 5)
    return [
        pytest.param(spec[:-1], MalformedCiphertext, id="cut short"),
        pytest.param(pack_fields(b"\xff", seed, td, claim, r), MalformedCiphertext,
                     id="mode not UTF-8"),
        pytest.param(pack_fields(mode, seed, td[:-1], claim, r), DomainMismatch,
                     id="trapdoor 15 bytes"),
        pytest.param(pack_fields(b"OTHER", seed, td, claim, r), DomainMismatch,
                     id="unknown mode"),
        pytest.param(pack_fields(mode, seed[:-1], td, claim, r), DomainMismatch,
                     id="seed 15 bytes"),
    ]


@pytest.mark.parametrize("spec, error", oracle_spec_variants())
def test_malformed_oracle_spec_raises_on_every_call(spec, error):
    for _ in range(2):
        with pytest.raises(error):
            cvqc.oracle_from_spec(spec)
        with pytest.raises(error):
            DEFAULT_REGISTRY["RO_SURROGATE"](b"x", spec)


@pytest.mark.parametrize("cut", (slice(None, 8), slice(None, -1)),
                         ids=("key id only", "seal cut short"))
def test_malformed_pk_raises_on_every_call(cut):
    keys = qfhe_gen(Drbg(6))
    ct = qfhe_enc(keys.pk, b"m", Drbg(7))
    bad = keys.pk[cut]
    before = qfhe._wrap_key_from_pk.cache_info().currsize
    for _ in range(2):
        with pytest.raises(MalformedCiphertext):
            qfhe_enc(bad, b"m", Drbg(8))
        with pytest.raises(MalformedCiphertext):
            qfhe_eval(bad, lambda m: m, ct, Drbg(9))
    assert qfhe._wrap_key_from_pk.cache_info().currsize == before


def test_other_key_still_mismatches_after_a_memo_hit():
    mine, other = qfhe_gen(Drbg(10)), qfhe_gen(Drbg(11))
    assert qfhe_dec(mine.sk, qfhe_enc(mine.pk, b"m", Drbg(12))) == b"m"
    theirs = qfhe_enc(other.pk, b"m", Drbg(13))
    hits = qfhe._sk_keys.cache_info().hits
    for _ in range(2):
        with pytest.raises(KeyMismatch):
            qfhe_dec(mine.sk, theirs)
        with pytest.raises(KeyMismatch):
            qfhe_eval(mine.pk, lambda m: m, theirs)
    assert qfhe._sk_keys.cache_info().hits == hits + 2


@pytest.mark.parametrize("name", sorted(qma.FIXTURES))
def test_memoized_binomial_tail_is_exact(name):
    lang = fixture(name)
    for reps in range(1, 16, 2):
        for p in (lang.alpha, lang.beta):
            want = qma._binom_tail.__wrapped__(reps, p)
            assert qma._binom_tail(reps, p) == want
            assert qma._binom_tail(reps, p) == want
        amplified = qma.amplify(lang, reps)
        assert amplified.alpha == qma._binom_tail.__wrapped__(reps, lang.alpha)
        assert amplified.beta == qma._binom_tail.__wrapped__(reps, lang.beta)


# ---------------------------------------------------------------------------
# each fixed constant is decoded once

# misses of the first call: one per memo, but two binomial tails (the
# amplified alpha and beta), and none of the WE memos for `nio_eval`, which
# encrypts nothing; the second call misses nothing
NIZK_FIRST_CALL_MISSES = {name: 2 if name == "qma._binom_tail" else 1 for name in MEMOS}
NIO_FIRST_CALL_MISSES = {**NIZK_FIRST_CALL_MISSES, **dict.fromkeys(WE_MEMOS, 0)}


def test_nio_eval_decodes_each_constant_once():
    obf = nio_obf(claim_for(GHZ, b"\x01"), 7)
    clear_memos()
    assert nio_eval(obf, ghz_witness_copies(), Drbg(15)) == 1
    assert misses() == NIO_FIRST_CALL_MISSES
    assert nio_eval(obf, ghz_witness_copies(), Drbg(16)) == 1
    assert misses() == NIO_FIRST_CALL_MISSES


def test_nizk_prove_decodes_each_constant_once():
    crs = nizk_setup(GHZ, 8)
    clear_memos()
    first = nizk_prove(crs, ghz_witness_copies(), b"\x01", Drbg(17))
    assert misses() == NIZK_FIRST_CALL_MISSES
    assert nizk_prove(crs, ghz_witness_copies(), b"\x01", Drbg(18)) == first
    assert misses() == NIZK_FIRST_CALL_MISSES


# ---------------------------------------------------------------------------
# each NIZK statement is encrypted once


def test_nizk_prove_encrypts_and_decodes_each_statement_once(monkeypatch):
    crs = nizk_setup(GHZ, 9)
    clear_memos()
    encrypted, decoded = [], []
    enc, dec = nullio.we_enc_bytes, nullio.WeCiphertext.from_bytes
    monkeypatch.setattr(nullio, "we_enc_bytes",
                        lambda *a, **kw: encrypted.append(a) or enc(*a, **kw))
    monkeypatch.setattr(nullio.WeCiphertext, "from_bytes",
                        lambda blob: decoded.append(blob) or dec(blob))
    proofs = [nizk_prove(crs, ghz_witness_copies(), b"\x01", Drbg(seed))
              for seed in (19, 20)]
    assert proofs[0] == proofs[1]
    assert len(encrypted) == len(decoded) == 1


def test_malformed_we_cfg_raises_on_every_call():
    """An unknown language, and a protocol outside `cvqc.PROTOCOLS`."""
    reps = bytes([cvqc.JUDGE_REPS])
    cfgs = (pack_fields(pack_fields(b"nope"), PROTO_ORACLE.encode(), reps),
            pack_fields(GHZ.ref, b"toy-ish", reps))
    before = nullio._gate_we_enc.cache_info().currsize
    for cfg in cfgs * 2:
        with pytest.raises(MalformedCiphertext):
            WE_GATE(b"\x01", bytes(16), bytes(16), cfg)
    assert nullio._gate_we_enc.cache_info().currsize == before


def test_truncated_we_ciphertext_raises_on_every_call():
    blob = WE_GATE(b"\x01", bytes(16), bytes(16), nullio.we_cfg(GHZ))
    nullio._decode_we.cache_clear()
    for _ in range(2):
        with pytest.raises(MalformedCiphertext):
            nullio._decode_we(blob[:-1])
    assert nullio._decode_we.cache_info().currsize == 0


def test_we_memos_stay_bounded():
    cfg = nullio.we_cfg(GHZ)
    for x in range(20):
        nullio._decode_we(WE_GATE(bytes([x]), bytes(16), bytes(16), cfg))
    for memo in (nullio._gate_we_enc, nullio._decode_we):
        info = memo.cache_info()
        assert isinstance(info.maxsize, int) and info.currsize <= info.maxsize


def test_decoded_we_ciphertext_is_frozen():
    ct = nullio._decode_we(WE_GATE(b"\x01", bytes(16), bytes(16), nullio.we_cfg(GHZ)))
    with pytest.raises(dataclasses.FrozenInstanceError):
        ct.statement_digest = bytes(32)
    with pytest.raises(dataclasses.FrozenInstanceError):
        ct.inner.min_copies = 0


def test_toy_key_memo_keeps_a_pool_of_48_keys():
    """48 distinct sealed TOY verifier keys, decoded round-robin twice, are
    each decoded once: the memo keeps the whole pool."""
    blobs = [pack_fields(YES.to_bytes(), cvqc.toy_keygen(YES, Drbg(i))[1].to_bytes())
             for i in range(48)]
    assert len(set(blobs)) == 48
    cvqc._decode_toy_key.cache_clear()
    for _ in range(2):
        for blob in blobs:
            cvqc._decode_toy_key(blob)
    info = cvqc._decode_toy_key.cache_info()
    assert (info.misses, info.hits) == (48, 48)


# ---------------------------------------------------------------------------
# a judged circuit kept in the memo is not simulated again on the same input

BELL = QuantumCircuit(2, (("H", (1,)), ("CNOT", (1, 0))), n_input=1)


def count_simulations(monkeypatch) -> list:
    runs = []
    real = qsim.run_unitary
    monkeypatch.setattr(qsim, "run_unitary",
                        lambda Q, inp: runs.append(Q) or real(Q, inp))
    return runs


def test_accept_probability_simulates_each_input_once(monkeypatch):
    other = QuantumCircuit(2, (("X", (1,)), ("CNOT", (1, 0))), n_input=1)
    plus = StateVector(1, [2 ** -0.5, 2 ** -0.5])
    # three spellings of one bit input, then a second input, a second
    # circuit and a state input
    cases = [(BELL, [0]), (BELL, "0"), (BELL, (0,)), (BELL, [1]), (other, [0]), (BELL, plus)]
    want = [qsim.run_unitary(Q, inp).prob_of(0, 1) for Q, inp in cases]
    clear_memos()
    runs = count_simulations(monkeypatch)
    for _ in range(2):
        assert [accept_probability(Q, inp) for Q, inp in cases] == want
    assert runs == [BELL, BELL, other, BELL]


def test_state_changed_in_place_is_simulated_again(monkeypatch):
    state = StateVector(1)
    changed = StateVector(1)
    apply_gate(changed, "H", (0,))
    want = [qsim.run_unitary(BELL, s).prob_of(0, 1) for s in (state, changed)]
    clear_memos()
    runs = count_simulations(monkeypatch)
    assert accept_probability(BELL, state) == want[0]
    apply_gate(state, "H", (0,))
    assert accept_probability(BELL, state) == want[1]
    assert len(runs) == 2


def test_width_mismatch_raises_on_every_call():
    clear_memos()
    for inp in ([0, 1], "01", StateVector(3)) * 2:
        with pytest.raises(WidthMismatch):
            accept_probability(BELL, inp)
    assert qsim._accept_probability.cache_info().currsize == 0


def test_we_dec_judges_a_k_bit_message_once(monkeypatch):
    """`we dec` judges one claim on one witness for every bit: the one repeat
    a single CLI command makes, and so the one a memo hit saves there."""
    par8, x, bits = fixture("par8"), b"\x07", (1, 0, 1, 1)
    cts = [nullio.we_enc(par8, x, m, Drbg(i).bytes(16)) for i, m in enumerate(bits)]
    clear_memos()
    runs = count_simulations(monkeypatch)
    out = [nullio.we_dec(par8, x, c, Witness.empty(5), Drbg(i)) for i, c in enumerate(cts)]
    assert out == [bytes([m]) for m in bits]
    assert len(runs) == 1
