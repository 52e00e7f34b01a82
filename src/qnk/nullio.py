"""Null obfuscation of quantum circuits and witness encryption on top of it.

An obfuscation is a pair (QFHE-encrypted prover parameters, sealed classical
verifier). Evaluation runs the prover homomorphically on the witness copies
and feeds the resulting ciphertext to the sealed verifier, which decrypts and
verifies inside its boundary:

    bit = Verify(claim, QFHE.Dec(sk, ct_proof), r)

The witness-encryption variant appends a release stage to the sealed program:
the payload comes out exactly when verification accepts, otherwise the bottom
sentinel.

A VBB-flavored variant packs prover-oracle surrogate (branch 0) and verifier
(branch 1) into a single two-input sealed program with a black-box simulator
handle, and skips the QFHE wrapping (its parameters are already blind).
"""
from __future__ import annotations

from dataclasses import dataclass, field

from . import qfhe
from .circuit_ir import (
    BOTTOM,
    ProgramBuilder,
    SealedProgram,
    obf_io,
    obf_vbb,
    register_gate,
    unwrap,
    wrap_some,
)
from .cvqc import (
    PROTO_ORACLE,
    PROTOCOLS,
    Claim,
    CvqcParams,
    JUDGE_REPS,
    StarSetup,
    ToyParams,
    base_keygen,
    claim_for,
    keygen_star,
    oracle_from_spec,
    oracle_spec,
    sim_gen,
    star_gate,
    star_prove,
    td_gen,
)
from .errors import InsufficientCopies, JudgeReject, KeyMismatch, MalformedCiphertext
from .memo import memo
from .primitives import MODE_SIMGEN, PrfKey, RandomOracle, prf_gen
from .qma import QmaLanguage, Witness, resolve_language
from .rand import Drbg
from .wire import choice, fixed, pack_fields, seal, unpack_fields, unseal

VARIANT_IO = "IO"


def _gate_qfhe_dec(sk: bytes, ct_bytes: bytes) -> bytes:
    try:
        ct = qfhe.QfheCiphertext.from_bytes(ct_bytes)
        return wrap_some(qfhe.qfhe_dec(sk, ct))
    except (KeyMismatch, MalformedCiphertext):
        return BOTTOM


def _gate_ro_surrogate(x: bytes, spec: bytes) -> bytes:
    return oracle_from_spec(spec).query(x)


register_gate("QFHE_DEC", _gate_qfhe_dec)
register_gate("RO_SURROGATE", _gate_ro_surrogate)


@dataclass(frozen=True)
class ObfuscatedNullCircuit:
    ct_pp: qfhe.QfheCiphertext
    sealed_C: SealedProgram
    variant: str
    q_digest: bytes
    pk: bytes
    oracle_spec_sealed: bytes
    proto: str
    min_copies: int

    def to_bytes(self) -> bytes:
        return pack_fields(
            self.ct_pp.to_bytes(), self.sealed_C.to_bytes(),
            self.variant.encode(), self.q_digest, self.pk,
            self.oracle_spec_sealed, self.proto.encode(),
            bytes([self.min_copies]))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ObfuscatedNullCircuit":
        f = unpack_fields(blob, 8)
        return cls(qfhe.QfheCiphertext.from_bytes(f[0]), SealedProgram.from_bytes(f[1]),
                   choice(f[2], {VARIANT_IO}), f[3], f[4], f[5], choice(f[6], PROTOCOLS),
                   fixed(f[7], 1)[0])


# ---------------------------------------------------------------------------
# sealed verifier program shapes


def _verify_program(sk: bytes, setup: StarSetup, release: bytes | None,
                    use_td: bool):
    b = ProgramBuilder(1)
    ct = b.input(0)
    sk_c = b.const(sk)
    pt = b.host("QFHE_DEC", sk_c, ct)
    gate, blob = star_gate(setup, use_td)
    bit = b.host(gate, pt, b.const(blob))
    if release is None:
        return b.build([bit])
    hit = b.eq(bit, b.const(b"\x01"))
    out = b.ite(hit, b.const(wrap_some(release)), b.const(BOTTOM))
    return b.build([out])


def _bottom_program():
    b = ProgramBuilder(1)
    b.input(0)
    return b.build([b.const(BOTTOM)])


# ---------------------------------------------------------------------------
# obfuscation


def _build(claim: Claim, drbg: Drbg, proto: str, toy_params: ToyParams,
           release: bytes | None, stage: str) -> ObfuscatedNullCircuit:
    keys = qfhe.qfhe_gen(drbg.child("qfhe"))
    if stage == "honest":
        setup = keygen_star(claim, proto, drbg.child("cvqc"), toy_params)
    elif stage == "td":
        setup = td_gen(claim, proto, drbg.child("cvqc"), toy_params)
    elif stage in ("sim", "bottom"):
        setup = sim_gen(claim, proto, drbg.child("cvqc"), toy_params)
    else:
        raise ValueError(f"unknown stage {stage!r}")
    # the honest, trapdoor and simulation verifiers share one shape, so every
    # stage pads to its size; the bottom program is smaller
    program = _verify_program(keys.sk, setup, release, stage != "honest")
    target = program.size
    if stage == "bottom":
        program = _bottom_program()
    ct_pp = qfhe.qfhe_enc(keys.pk, setup.pp.to_bytes(), drbg.child("encpp"))
    sealed = obf_io(program, target)
    return ObfuscatedNullCircuit(
        ct_pp=ct_pp, sealed_C=sealed, variant=VARIANT_IO,
        q_digest=claim.digest(), pk=keys.pk,
        oracle_spec_sealed=seal(oracle_spec(setup), b"nio-oracle"),
        proto=proto, min_copies=claim.reps)


def nio_obf(claim: Claim, seed, proto: str = PROTO_ORACLE,
            toy_params: ToyParams = ToyParams()) -> ObfuscatedNullCircuit:
    return _build(claim, Drbg(seed).child("nio"), proto, toy_params, None, "honest")


def nio_obf_stage(claim: Claim, seed, stage: str, proto: str = PROTO_ORACLE,
                  toy_params: ToyParams = ToyParams(),
                  release: bytes | None = None) -> ObfuscatedNullCircuit:
    """Hybrid-shadow builder: same seed shares QFHE keys and ct_pp across the
    honest / trapdoor / simulation / bottom verifier stages."""
    return _build(claim, Drbg(seed).child("nio"), proto, toy_params, release, stage)


def _prove_closure(obf: ObfuscatedNullCircuit, witness: Witness, drbg: Drbg):
    oracle = oracle_from_spec(unseal(obf.oracle_spec_sealed))

    def prove_fn(pp_bytes: bytes) -> bytes:
        pp = CvqcParams.from_bytes(pp_bytes)
        try:
            proof = star_prove(pp, witness, oracle, drbg.child("prove"))
        except JudgeReject:
            return b""
        return proof.encode(pp.proto)

    return prove_fn


def _eval_raw(obf: ObfuscatedNullCircuit, witness: Witness, drbg: Drbg) -> bytes:
    if witness.copies < obf.min_copies:
        raise InsufficientCopies(
            f"{witness.copies} witness copies, need {obf.min_copies}")
    ct_pi = qfhe.qfhe_eval(obf.pk, _prove_closure(obf, witness, drbg),
                           obf.ct_pp, drbg.child("eval"))
    return obf.sealed_C.run(ct_pi.to_bytes())


def nio_eval(obf: ObfuscatedNullCircuit, witness: Witness, drbg: Drbg) -> int:
    return 1 if _eval_raw(obf, witness, drbg) == b"\x01" else 0


def inject_proof(obf: ObfuscatedNullCircuit, proof_bytes: bytes, drbg: Drbg) -> bytes:
    """Adversarial entry point: wrap arbitrary proof bytes under the QFHE key
    and run the sealed verifier on them."""
    ct = qfhe.qfhe_enc(obf.pk, proof_bytes, drbg)
    return obf.sealed_C.run(ct.to_bytes())


# ---------------------------------------------------------------------------
# VBB-flavored variant: C(b, x) = branch-0 oracle surrogate / branch-1 verifier


@dataclass
class VbbNullCircuit:
    pp: CvqcParams
    sealed_C: SealedProgram
    sim: object
    q_digest: bytes
    min_copies: int
    escrow_key: PrfKey = field(repr=False, compare=False)


class _SealedBranchOracle:
    """Random-oracle view backed by branch 0 of the sealed program."""

    def __init__(self, sealed: SealedProgram):
        self._sealed = sealed

    def query(self, x: bytes) -> bytes:
        return self._sealed.run(b"\x00", x)


def vbb_surrogate_answer(k: PrfKey, x: bytes) -> bytes:
    """Escrow recomputation of the branch-0 answer from the hidden key."""
    seed = k.bytes
    return RandomOracle(seed, MODE_SIMGEN, k).query(x)


def nio_obf_vbb(claim: Claim, seed, proto: str = PROTO_ORACLE) -> VbbNullCircuit:
    drbg = Drbg(seed).child("nio-vbb")
    pp, r = base_keygen(claim, proto, drbg.child("cvqc").child("keygen"), ToyParams())
    k = prf_gen(drbg.child("prf"))
    oracle = RandomOracle(k.bytes, MODE_SIMGEN, k)
    setup = StarSetup(claim, pp, r, oracle, k)

    b = ProgramBuilder(2)
    branch = b.input(0)
    x = b.input(1)
    is0 = b.eq(branch, b.const(b"\x00"))
    spec = b.const(oracle_spec(StarSetup(claim, pp, None, oracle, k)))
    ans0 = b.host("RO_SURROGATE", x, spec)
    tagged = b.concat(b.const(b"\x01"), x)
    gate, vk = star_gate(setup, False)
    ans1 = b.host(gate, tagged, b.const(vk))
    out = b.ite(is0, ans0, ans1)
    program = b.build([out])

    sealed, sim = obf_vbb(program, program.size + 4)
    return VbbNullCircuit(pp, sealed, sim, claim.digest(), claim.reps, k)


def nio_eval_vbb(obf: VbbNullCircuit, witness: Witness, drbg: Drbg) -> int:
    if witness.copies < obf.min_copies:
        raise InsufficientCopies(
            f"{witness.copies} witness copies, need {obf.min_copies}")
    oracle = _SealedBranchOracle(obf.sealed_C)
    try:
        proof = star_prove(obf.pp, witness, oracle, drbg.child("prove"))
    except JudgeReject:
        return 0
    return 1 if obf.sealed_C.run(b"\x01", proof.encode(obf.pp.proto)) == b"\x01" else 0


# ---------------------------------------------------------------------------
# witness encryption


@dataclass(frozen=True)
class WeCiphertext:
    inner: ObfuscatedNullCircuit
    statement_digest: bytes

    def to_bytes(self) -> bytes:
        return pack_fields(self.inner.to_bytes(), self.statement_digest)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "WeCiphertext":
        inner, digest = unpack_fields(blob, 2)
        return cls(ObfuscatedNullCircuit.from_bytes(inner), digest)


@memo(16)
def _decode_we(blob: bytes) -> WeCiphertext:
    """A WE ciphertext decoded once per distinct blob (about 5 KB decoded for
    the ghz and par8 CRS)."""
    return WeCiphertext.from_bytes(blob)


def we_enc_bytes(L: QmaLanguage, x: bytes, m: bytes, coins,
                 proto: str = PROTO_ORACLE, reps: int = JUDGE_REPS) -> WeCiphertext:
    """Byte-payload witness encryption; all randomness expands from `coins`,
    so externally supplied coins make encryption a pure function."""
    claim = claim_for(L, x, reps)
    inner = _build(claim, Drbg(coins).child("we"), proto, ToyParams(), m, "honest")
    return WeCiphertext(inner, claim.digest())


def we_enc(L: QmaLanguage, x: bytes, m: int, coins) -> WeCiphertext:
    """Single-bit message space; multi-bit payloads via bitwise calls."""
    if m not in (0, 1):
        raise MalformedCiphertext("witness encryption takes a single bit")
    return we_enc_bytes(L, x, bytes([m]), coins)


def we_dec_bytes(c: WeCiphertext, witness: Witness, drbg: Drbg):
    return unwrap(_eval_raw(c.inner, witness, drbg))


def we_dec_bit(c: WeCiphertext, witness: Witness, drbg: Drbg):
    """The bit `we_enc` encrypted, as its one byte, or None when verification
    fails. Any other plaintext is a forged ciphertext."""
    m = we_dec_bytes(c, witness, drbg)
    if m not in (None, b"\x00", b"\x01"):
        raise MalformedCiphertext("a bit ciphertext must decrypt to one byte, 0 or 1")
    return m


def we_dec(L: QmaLanguage, x: bytes, c: WeCiphertext, witness: Witness,
           drbg: Drbg):
    """Returns the decrypted bit as one byte, or None when verification fails."""
    if c.statement_digest != claim_for(L, x, c.inner.min_copies).digest():
        return None
    return we_dec_bit(c, witness, drbg)


def we_dec_bqp(c: WeCiphertext, drbg: Drbg):
    """Decryption for publicly-checkable statements: the witness is empty."""
    return we_dec_bytes(c, Witness.empty(max(c.inner.min_copies, 1)), drbg)


def we_cfg(L: QmaLanguage) -> bytes:
    """Host-gate constant describing a witness-encryption target: the
    language, the oracle protocol and JUDGE_REPS."""
    return pack_fields(L.ref, PROTO_ORACLE.encode(), bytes([JUDGE_REPS]))


@memo(16)
def _gate_we_enc(x: bytes, m: bytes, coins: bytes, cfg: bytes) -> bytes:
    """An encryption, not a decode: under external coins it is a pure
    function of the four byte arguments, so the ciphertext bytes are memoized
    and a NIZK prover encrypts each statement of a CRS once. A hit hands back
    the same bytes object, whose hash `_decode_we` then reuses."""
    lang_ref, proto, reps = unpack_fields(cfg, 3)
    ct = we_enc_bytes(resolve_language(lang_ref), x, m, coins,
                      proto=choice(proto, PROTOCOLS), reps=fixed(reps, 1)[0])
    return ct.to_bytes()


register_gate("WE_ENC", _gate_we_enc)
