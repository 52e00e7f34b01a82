"""Classical verification of quantum computation at desk scale, plus the
trapdoor dual-mode compiler over a shared random oracle.

Two base protocols:

* ORACLE — a modeled designated-verifier argument. The prover boundary holds
  a "quantum judge" that runs the amplified claim on the witness through the
  simulator; on majority-accept it releases a PRF tag that the verifier
  recognizes. Soundness is tag-guessing (2^-128). This is the default base
  for everything downstream.

* TOY — a measurement protocol with verifier secrets, the cryptanalysis
  target. The verifier commits to a basis string x in {0,1}^K. At positions
  with x_i = 1 the prover measures a fresh history-state copy of the claim
  circuit (clock register postselected to the final step, output qubit read
  out; outcome bit 0 means "consistent with an accepting run") and encodes
  the outcome as b_i = e_i XOR <d_i, s_i> for a random d_i and the verifier
  secret s_i. Positions with x_i = 0 are completely ignored by the verifier.
  Verification recomputes e_i at the x_i = 1 positions and accepts when the
  number of mismatches against the calibrated accepting pattern t is at most
  tau (default 0).

The dual-mode layer hashes the base proof: the prover sends (pi, H(pi)); in
trapdoor mode the oracle's last output bit is F(td, pi) XOR Verify(pi), so a
td holder verifies by unmasking; in simulation mode the last bit is F(td, pi)
alone and trapdoor verification rejects everything.
"""
from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass
from itertools import chain

from . import qfhe
from .errors import (
    DomainMismatch,
    JudgeReject,
    MalformedCiphertext,
    MalformedProof,
)
from .circuit_ir import ProgramBuilder, SealedProgram, obf_io, register_gate, unwrap
from .memo import memo
from .primitives import (
    KEY_LEN,
    MODE_SIMGEN,
    MODE_TDGEN,
    MODE_UNIFORM,
    PrfKey,
    RandomOracle,
    prf_eval,
    prf_gen,
    ro_query,
)
from .qma import QmaLanguage, Witness, amplify, qma_verify, resolve_language
from .qsim import history_state, sample_bit
from .rand import Drbg
from .wire import (
    Reader, choice, fixed, pack_bytes, pack_fields, seal, unpack_fields, unseal, utf8,
)

PROTO_ORACLE = "ORACLE"
PROTO_TOY = "TOY"
PROTOCOLS = frozenset({PROTO_ORACLE, PROTO_TOY})

TOY_STANDARD = "standard"   # fixed check set
TOY_STATS = "stats"         # check subset re-derived from a PRF of the proof
TOY_LINEAR = "linear"       # no ignored positions (no basis commitment)
TOY_VARIANTS = frozenset({TOY_STANDARD, TOY_STATS, TOY_LINEAR})

DEFAULT_K = 8
DEFAULT_W = 4
MINI_K = 4
MINI_W = 2
JUDGE_REPS = 5


@dataclass(frozen=True)
class ToyParams:
    K: int = DEFAULT_K
    w: int = DEFAULT_W
    tau: int = 0
    variant: str = TOY_STANDARD


MINI_PARAMS = ToyParams(K=MINI_K, w=MINI_W)


# ---------------------------------------------------------------------------
# claims: the circuit/instance object the protocols verify


@dataclass(frozen=True)
class Claim:
    """A pseudo-deterministic acceptance claim: language instance plus the
    judge's amplification count."""

    lang_ref: bytes
    x: bytes
    reps: int = JUDGE_REPS

    def language(self) -> QmaLanguage:
        lang = resolve_language(self.lang_ref)
        return amplify(lang, self.reps) if self.reps > 1 else lang

    def to_bytes(self) -> bytes:
        return pack_fields(self.lang_ref, self.x, bytes([self.reps]))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Claim":
        ref, x, reps = unpack_fields(blob, 3)
        return cls(ref, x, fixed(reps, 1)[0])

    def digest(self) -> bytes:
        return hashlib.sha256(self.to_bytes()).digest()


def claim_for(lang: QmaLanguage, x: bytes, reps: int = JUDGE_REPS) -> Claim:
    return Claim(lang.ref, x, reps)


# ---------------------------------------------------------------------------
# key material


@dataclass(frozen=True)
class CvqcParams:
    proto: str
    pp: bytes  # sealed prover envelope

    def to_bytes(self) -> bytes:
        return pack_fields(self.proto.encode(), self.pp)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CvqcParams":
        proto, pp = unpack_fields(blob, 2)
        return cls(choice(proto, PROTOCOLS), pp)


@dataclass(frozen=True)
class OracleVerifyKey:
    km: PrfKey
    claim_digest: bytes


@dataclass(frozen=True)
class ToyVerifyKey:
    bases: tuple[int, ...]        # x in {0,1}^K; 0 computational, 1 hadamard
    secrets: tuple[int, ...]      # s_i, w-bit integers
    target: tuple[int, ...]       # accepting calibration pattern t
    tau: int
    w: int
    variant: str
    subset_key: bytes             # stats variant only

    @property
    def K(self) -> int:
        return len(self.bases)

    @functools.cached_property
    def subset_prf(self) -> PrfKey:
        """The stats variant's check-subset key, derived on first use: the
        other variants carry an empty `subset_key` and never read it."""
        return PrfKey(self.subset_key)

    @functools.cached_property
    def checks(self) -> tuple[tuple[int, int, int, int, tuple[int, ...]], ...]:
        """Check table, built on first use: for each position i the key reads
        (every position in the linear variant), `(i, 2 + 2i, mask byte, mask
        bit, expected)`, where 2 + 2i is the offset of b_i in the encoding and
        `expected[d]` is the b that matches the target at d. At most 255 x
        256 entries, since a decoded key has K <= 255 and w <= 8."""
        read_all = self.variant == TOY_LINEAR
        return tuple(
            (i, 2 + 2 * i, i // 8, 0x80 >> i % 8,
             tuple(t ^ _dot_bits(d, s) for d in range(1 << self.w)))
            for i, (x, s, t) in enumerate(zip(self.bases, self.secrets, self.target))
            if read_all or x == 1)

    @functools.cached_property
    def layout(self) -> tuple[int, int, int]:
        """`(length, mask, want)`, built on first use: an encoding `enc` is one
        this key can read, "T" | K | (b_i | d_i)* with the key's K, each b_i a
        bit and each d_i below 2^w, iff `len(enc) == length` and
        `int.from_bytes(enc, "big") & mask == want`."""
        entry = bytes((0xFE, 0xFF << self.w & 0xFF)) * self.K
        return (2 + 2 * self.K, int.from_bytes(b"\xff\xff" + entry, "big"),
                int.from_bytes(b"T" + bytes([self.K]) + bytes(2 * self.K), "big"))


def _check_toy_key(K: int, w: int, bases: bytes, secrets: bytes, *more: bytes) -> None:
    """The TOY key rules, shared by the verify-key and prover-params
    decoders: K entries in `bases`, `secrets` and each field of `more`,
    K <= 255, 1 <= w <= 8, each basis a bit and each secret below 2^w."""
    if not K == len(bases) == len(secrets) <= 255 or any(len(f) != K for f in more):
        raise MalformedCiphertext("key fields must give one entry per position, K <= 255")
    if not 1 <= w <= 8 or max(secrets, default=0) >> w or bases.strip(b"\x00\x01"):
        raise MalformedCiphertext("key entries out of range")


@dataclass(frozen=True)
class CvqcVerifyKey:
    proto: str
    body: object  # OracleVerifyKey | ToyVerifyKey

    def to_bytes(self) -> bytes:
        if self.proto == PROTO_ORACLE:
            return pack_fields(b"O", self.body.km.bytes, self.body.claim_digest)
        b = self.body
        return pack_fields(
            b"T", bytes(b.bases), bytes(b.secrets), bytes(b.target),
            bytes([b.tau, b.w]), b.variant.encode(), b.subset_key)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "CvqcVerifyKey":
        if Reader(blob).field() == b"O":
            _, km, claim_digest = unpack_fields(blob, 3)
            return cls(PROTO_ORACLE, OracleVerifyKey(PrfKey(km), claim_digest))
        _, bases, secrets, target, tau_w, variant, subset_key = unpack_fields(blob, 7)
        tau, w = fixed(tau_w, 2)
        _check_toy_key(len(bases), w, bases, secrets, target)
        return cls(PROTO_TOY, ToyVerifyKey(tuple(bases), tuple(secrets), tuple(target),
                                           tau, w, choice(variant, TOY_VARIANTS), subset_key))


# ---------------------------------------------------------------------------
# proof encodings (canonical layouts in FORMATS.md)

def encode_base_proof(proto: str, pi) -> bytes:
    """The layout of FORMATS.md: "O" | tag, or "T" | K | (b_i | d_i)*. A TOY
    entry that does not unpack into two values raises TypeError or ValueError,
    as unpacking does; then K >= 256 and a value outside 0..255 raise
    ValueError and a non-int TypeError, as `bytes()` does."""
    # TOY first: one compare on the path every sealed TOY query takes
    if proto != PROTO_TOY and proto != PROTO_ORACLE:
        raise DomainMismatch(f"unknown proof protocol {proto!r}")
    if proto == PROTO_ORACLE:
        return b"O" + pi
    for b, d in pi:  # reject a non-pair before any value is read
        pass
    body = bytes((len(pi), *chain.from_iterable(pi)))
    if len(body) != 2 * len(pi) + 1:
        raise ValueError("proof entries must be re-iterable (b, d) pairs")
    return b"T" + body


def _check_base_layout(proto: str, blob: bytes) -> None:
    """Raise MalformedProof unless `blob` has the layout of FORMATS.md: "O" |
    16-byte tag, or "T" | K | K pairs of bytes, whatever their values."""
    if proto != PROTO_TOY and proto != PROTO_ORACLE:
        raise DomainMismatch(f"unknown proof protocol {proto!r}")
    if proto == PROTO_ORACLE:
        if blob[:1] != b"O" or len(blob) != 17:
            raise MalformedProof("bad tag proof encoding")
    elif blob[:1] != b"T":
        raise MalformedProof("bad measurement proof encoding")
    elif len(blob) < 2 or len(blob) != 2 + 2 * blob[1]:
        raise MalformedProof("bad measurement proof length")


def decode_base_proof(proto: str, blob: bytes):
    _check_base_layout(proto, blob)
    return blob[1:] if proto == PROTO_ORACLE else tuple(zip(blob[2::2], blob[3::2]))


@dataclass(frozen=True)
class CvqcProof:
    pi: object          # bytes tag (ORACLE) or ((b, d), ...) (TOY)
    h: bytes = b""      # 17-byte oracle digest in the dual-mode layer; empty outside it

    def encode(self, proto: str) -> bytes:
        return pack_fields(encode_base_proof(proto, self.pi), self.h)

    @classmethod
    def decode(cls, proto: str, blob: bytes) -> "CvqcProof":
        pi_bytes, h = unpack_fields(blob, 2)
        return cls(decode_base_proof(proto, pi_bytes), h)


# ---------------------------------------------------------------------------
# the quantum judge (prover-boundary helper shared by both protocols)


def judge_accepts(claim: Claim, witness: Witness, drbg: Drbg) -> bool:
    """Majority verdict of the amplified claim circuit on the witness."""
    return qma_verify(claim.language(), claim.x, witness, drbg) == 1


# ---------------------------------------------------------------------------
# ORACLE protocol


def oracle_keygen(claim: Claim, drbg: Drbg) -> tuple[CvqcParams, CvqcVerifyKey]:
    km = prf_gen(drbg.child("km"))
    pp = seal(pack_fields(km.bytes, claim.to_bytes()), b"cvqc-oracle-pp")
    return (CvqcParams(PROTO_ORACLE, pp),
            CvqcVerifyKey(PROTO_ORACLE, OracleVerifyKey(km, claim.digest())))


def _accept_tag(km: PrfKey, claim_digest: bytes) -> bytes:
    return prf_eval(km, claim_digest + b"acc")


def oracle_prove(pp: CvqcParams, witness: Witness, drbg: Drbg) -> bytes:
    km_bytes, claim_bytes = unpack_fields(unseal(pp.pp), 2)
    claim = Claim.from_bytes(claim_bytes)
    if not judge_accepts(claim, witness, drbg.child("judge")):
        raise JudgeReject("witness failed the amplified check")
    return _accept_tag(PrfKey(km_bytes), claim.digest())


def oracle_verify(claim: Claim, pi: bytes, r: CvqcVerifyKey) -> int:
    body = r.body
    if body.claim_digest != claim.digest():
        return 0
    return 1 if pi == _accept_tag(body.km, body.claim_digest) else 0


# ---------------------------------------------------------------------------
# TOY protocol


def _dot_bits(d: int, s: int) -> int:
    return bin(d & s).count("1") & 1


def _output_check_probability(claim: Claim, witness: Witness) -> float:
    """Probability that a fresh history-state copy, with the unary clock
    postselected onto the final step, reads 1 on the output qubit; 0.0 when
    the postselection fails."""
    circ = resolve_language(claim.lang_ref).verifier(claim.x, witness.classical)
    inp = witness.state if circ.n_input else []
    hist = history_state(circ, inp)
    T = len(circ.gates)
    if T:
        hist, p = hist.project({q: 1 for q in range(T)})
        if p < 1e-12:
            return 0.0
    return hist.prob_of(T, 1)


def toy_keygen(claim: Claim, drbg: Drbg,
               params: ToyParams = ToyParams()) -> tuple[CvqcParams, CvqcVerifyKey]:
    K, w = params.K, params.w
    # the bounds `CvqcVerifyKey.from_bytes` enforces
    if not 1 <= w <= 8 or K > 255 or params.variant not in TOY_VARIANTS:
        raise DomainMismatch("TOY keys need 1 <= w <= 8, at most 255 positions and a known variant")
    bases = tuple(drbg.child("bases").bits(K))
    sd = drbg.child("secrets")
    secrets = tuple(int.from_bytes(sd.bytes(1), "big") % (1 << w) for _ in range(K))
    # accepting calibration: every check reports "no violation"
    target = tuple(0 for _ in range(K))
    subset_key = drbg.child("subset").bytes(KEY_LEN) if params.variant == TOY_STATS else b""
    vk = ToyVerifyKey(bases, secrets, target, params.tau, w, params.variant, subset_key)
    pp = seal(pack_fields(claim.to_bytes(), bytes(bases),
                          bytes(secrets), bytes([K, w, params.tau]),
                          params.variant.encode()), b"cvqc-toy-pp")
    return CvqcParams(PROTO_TOY, pp), CvqcVerifyKey(PROTO_TOY, vk)


def _toy_open_pp(pp: CvqcParams):
    claim_bytes, bases, secrets, kwt, variant = unpack_fields(unseal(pp.pp), 5)
    K, w, tau = fixed(kwt, 3)
    _check_toy_key(K, w, bases, secrets)
    return (Claim.from_bytes(claim_bytes), tuple(bases), tuple(secrets), K, w, tau,
            choice(variant, TOY_VARIANTS))


def _toy_pairs(pp: CvqcParams, witness: Witness, drbg: Drbg, draw_d: bool):
    """Per-position (b, d), shared by `toy_prove` and `_toy_prove1`. With
    `draw_d`, d is block 0 of the position's stream and masks a checked
    outcome by <d, s_i>; without it d = 0 and b is the raw outcome. An
    unchecked position's b is the stream's next block (block 1 or 0)."""
    claim, bases, secrets, K, w, tau, variant = _toy_open_pp(pp)
    p1 = None  # simulated at the first checked position, shared by the rest
    pairs = []
    for i in range(K):
        pd = drbg.child(f"pos{i}")
        d = int.from_bytes(pd.bytes(1), "big") % (1 << w) if draw_d else 0
        if bases[i] == 1 or variant == TOY_LINEAR:
            if p1 is None:
                p1 = _output_check_probability(claim, witness)
            e = 1 - sample_bit(p1, pd.child("measure"))  # violation bit
            b = e ^ _dot_bits(d, secrets[i])
        else:
            b = pd.bit()
        pairs.append((b, d))
    return tuple(pairs)


def toy_prove(pp: CvqcParams, witness: Witness, drbg: Drbg):
    return _toy_pairs(pp, witness, drbg, True)


_EVERY_POSITION = b"\xff" * 32  # check-subset mask selecting all K < 256 positions


def _check_toy_length(pi, vk: ToyVerifyKey) -> None:
    if not isinstance(pi, tuple) or len(pi) != vk.K:
        raise MalformedProof(f"proof must carry exactly {vk.K} pairs")


def _toy_verdict(pi, vk: ToyVerifyKey) -> int:
    """Range-check every pair, then accept iff at most tau of the positions
    the key reads (all of them in the linear variant) miss the target
    pattern (one `vk.checks` lookup per position)."""
    d_bound = 1 << vk.w
    for b, d in pi:
        if b not in (0, 1) or not 0 <= d < d_bound:
            raise MalformedProof("proof entry out of range")
    mismatches = 0
    for i, _, _, _, expected in vk.checks:
        b, d = pi[i]
        if b ^ expected[d]:
            mismatches += 1
    return 1 if mismatches <= vk.tau else 0


def _toy_verdict_bytes(enc: bytes, vk: ToyVerifyKey, mask: bytes) -> int:
    """`_toy_verdict` on the encoding of the pairs, counting only the
    positions bit i of `mask` selects: one compare against `vk.layout`
    checks every entry, then the same `vk.checks` walk reads b_i and d_i at
    offsets 2 + 2i and 3 + 2i. The tag compare also turns away a str or a
    list of ints, which `int.from_bytes` would read."""
    length, bits, want = vk.layout
    if len(enc) != length or enc[:1] != b"T" or int.from_bytes(enc, "big") & bits != want:
        raise MalformedProof("proof is not a measurement encoding this key reads")
    mismatches = 0
    for _, j, byte, bit, expected in vk.checks:
        if mask[byte] & bit and enc[j] ^ expected[enc[j + 1]]:
            mismatches += 1
    return 1 if mismatches <= vk.tau else 0


def toy_verify(claim: Claim, pi, r: CvqcVerifyKey) -> int:
    # reads the pairs as given: encoding them for `_toy_verdict_bytes` took
    # 4.2 us a call against 2.0 us (median of 48 timings, 16 par8 keys), and
    # this is the perfbench `prove` workload's consume step
    _check_toy_length(pi, r.body)
    return _toy_verdict(pi, r.body)


# ---------------------------------------------------------------------------
# unified base API


def base_keygen(claim: Claim, proto: str, drbg: Drbg,
                toy_params: ToyParams = ToyParams()):
    if proto == PROTO_ORACLE:
        return oracle_keygen(claim, drbg)
    return toy_keygen(claim, drbg, toy_params)


def base_prove(pp: CvqcParams, witness: Witness, drbg: Drbg):
    if pp.proto == PROTO_ORACLE:
        return oracle_prove(pp, witness, drbg)
    return toy_prove(pp, witness, drbg)


# ---------------------------------------------------------------------------
# trapdoor dual-mode layer


@dataclass
class StarSetup:
    claim: Claim
    pp: CvqcParams
    r: CvqcVerifyKey | None
    oracle: RandomOracle
    td: PrfKey | None = None


def _oracle_seed(drbg: Drbg) -> bytes:
    return drbg.child("oracle-seed").bytes(KEY_LEN)


def _base_verify_bytes(claim: Claim, r: CvqcVerifyKey, enc: bytes) -> int:
    """The base verifier on the encoding of a base proof, the trapdoor
    oracle's verify closure: a proof the key cannot read is a rejection."""
    try:
        if r.proto == PROTO_TOY:
            return _toy_verdict_bytes(enc, r.body, _EVERY_POSITION)
        return oracle_verify(claim, decode_base_proof(PROTO_ORACLE, enc), r)
    except MalformedProof:
        return 0


def keygen_star(claim: Claim, proto: str, drbg: Drbg,
                toy_params: ToyParams = ToyParams()) -> StarSetup:
    pp, r = base_keygen(claim, proto, drbg.child("keygen"), toy_params)
    oracle = RandomOracle(_oracle_seed(drbg), MODE_UNIFORM)
    return StarSetup(claim, pp, r, oracle)


def td_gen(claim: Claim, proto: str, drbg: Drbg,
           toy_params: ToyParams = ToyParams()) -> StarSetup:
    """Same (pp, r) sampler as keygen_star; the returned oracle hides the
    verification verdict in its last output bit under the trapdoor PRF."""
    pp, r = base_keygen(claim, proto, drbg.child("keygen"), toy_params)
    td = prf_gen(drbg.child("td"))
    oracle = RandomOracle(_oracle_seed(drbg), MODE_TDGEN, td,
                          functools.partial(_base_verify_bytes, claim, r))
    return StarSetup(claim, pp, r, oracle, td)


def sim_gen(claim: Claim, proto: str, drbg: Drbg,
            toy_params: ToyParams = ToyParams()) -> StarSetup:
    """Trapdoor generation with the verdict dropped from the oracle: the last
    bit is the trapdoor PRF alone, so trapdoor verification never accepts."""
    pp, _r = base_keygen(claim, proto, drbg.child("keygen"), toy_params)
    td = prf_gen(drbg.child("td"))
    oracle = RandomOracle(_oracle_seed(drbg), MODE_SIMGEN, td)
    return StarSetup(claim, pp, None, oracle, td)


def star_prove(pp: CvqcParams, witness: Witness, oracle, drbg: Drbg) -> CvqcProof:
    pi = base_prove(pp, witness, drbg)
    return CvqcProof(pi, ro_query(oracle, encode_base_proof(pp.proto, pi)))


def _star_verdict(claim: Claim, enc: bytes, h: bytes, r: CvqcVerifyKey, oracle) -> int:
    """`star_verify` on the base encoding `enc` of the proof and its digest."""
    if ro_query(oracle, enc) != h:
        return 0
    return _base_verify_bytes(claim, r, enc)


def star_verify(claim: Claim, proof: CvqcProof, r: CvqcVerifyKey, oracle) -> int:
    """Accept iff the digest matches and the base verifier accepts. A proof
    the key cannot read (TOY pairs not in a tuple, a pair count other than
    K, an entry out of range) is a rejection, as in the trapdoor oracle's
    verdict."""
    verdict = _star_verdict(claim, encode_base_proof(r.proto, proof.pi), proof.h, r, oracle)
    return verdict if r.proto == PROTO_ORACLE or isinstance(proof.pi, tuple) else 0


def _td_verdict(enc: bytes, h: bytes, td: PrfKey, oracle) -> int:
    """`td_verify` on the base encoding `enc` of the proof and its digest."""
    if ro_query(oracle, enc) != h:
        return 0
    if oracle.mode != MODE_UNIFORM and oracle.td.bytes == td.bytes:
        return oracle.verdicts[enc] if oracle.mode == MODE_TDGEN else 0
    return (h[16] & 1) ^ (prf_eval(td, enc)[0] & 1)


def td_verify(claim: Claim, proof: CvqcProof, td: PrfKey, oracle, proto: str) -> int:
    """Accept iff the digest matches and its last bit, unmasked by F(td, pi),
    is 1. The digest check has just made the oracle answer pi, so when td is
    the TDGEN or SIMGEN oracle's own trapdoor (the same key bytes, all that F
    reads) the verdict the oracle masked is read back, without the HMAC: the
    one a TDGEN oracle kept in `verdicts`, and none (0) under SIMGEN. Any
    other key, or a UNIFORM oracle, unmasks with F(td, pi). TOY pairs not in
    a tuple are a rejection, as in `star_verify`."""
    # the body of `_td_verdict`, inlined: calling it moved perfbench `verify`
    # consume_p50 from 2.747 to 2.898 us (+5.5%, 6 of 6 alternated pairs on 2
    # cores) and ops/s by -1.9%. The pair check comes last, so a SIMGEN
    # verdict under its own trapdoor skips it.
    enc = encode_base_proof(proto, proof.pi)
    if ro_query(oracle, enc) != proof.h:
        return 0
    if oracle.mode != MODE_UNIFORM and oracle.td.bytes == td.bytes:
        if oracle.mode != MODE_TDGEN:
            return 0
        verdict = oracle.verdicts[enc]
    else:
        verdict = (proof.h[16] & 1) ^ (prf_eval(td, enc)[0] & 1)
    return verdict if proto == PROTO_ORACLE or isinstance(proof.pi, tuple) else 0


# ---------------------------------------------------------------------------
# oracle reconstruction + host gates (sealed verifier circuits embed these)


def oracle_spec(setup: StarSetup) -> bytes:
    td_bytes = setup.td.bytes if setup.td is not None else b""
    r_bytes = setup.r.to_bytes() if setup.r is not None else b""
    return pack_fields(setup.oracle.mode.encode(), setup.oracle.seed, td_bytes,
                       setup.claim.to_bytes(), r_bytes)


@memo(32)
def _decode_oracle_spec(spec: bytes) -> tuple:
    """(seed, mode, td, verify closure) of an oracle spec; the closure holds
    only the decoded claim and key, so oracles may share it."""
    mode, seed, td_bytes, claim_bytes, r_bytes = unpack_fields(spec, 5)
    mode = utf8(mode)
    if mode == MODE_UNIFORM:
        return seed, mode, None, None
    td = PrfKey(td_bytes)
    if mode == MODE_SIMGEN:
        return seed, mode, td, None
    claim = Claim.from_bytes(claim_bytes)
    r = CvqcVerifyKey.from_bytes(r_bytes)
    return seed, mode, td, functools.partial(_base_verify_bytes, claim, r)


def oracle_from_spec(spec: bytes) -> RandomOracle:
    return RandomOracle(*_decode_oracle_spec(spec))


# the two dual-mode verifier gates, keyed by "verifies with the trapdoor"
_STAR_GATES = {False: "CVQC_VERIFY", True: "CVQC_TDVERIFY"}


def star_gate(setup: StarSetup, use_td: bool) -> tuple[str, bytes]:
    """Host gate and hidden constant of a sealed dual-mode verifier: honest
    verification under r, or (use_td) trapdoor verification under td. The
    constant is claim | proto | key | oracle spec; the gate reads a tagged
    proof (`circuit_ir.wrap_some`) and returns the verdict byte."""
    key = setup.td.bytes if use_td else setup.r.to_bytes()
    return _STAR_GATES[use_td], pack_fields(
        setup.claim.to_bytes(), setup.pp.proto.encode(), key, oracle_spec(setup))


@memo(32)
def _decode_star_constant(blob: bytes, use_td: bool) -> tuple:
    """(claim, proto, key, oracle spec) of a `star_gate` constant."""
    claim_bytes, proto, key_bytes, spec = unpack_fields(blob, 4)
    proto = choice(proto, PROTOCOLS)
    claim = Claim.from_bytes(claim_bytes)
    key = PrfKey(key_bytes) if use_td else CvqcVerifyKey.from_bytes(key_bytes)
    return claim, proto, key, spec


def _star_gate_fn(use_td: bool):
    def gate(tagged_proof: bytes, blob: bytes) -> bytes:
        plain = unwrap(tagged_proof)
        if plain is None:
            return b"\x00"
        claim, proto, key, spec = _decode_star_constant(blob, use_td)
        oracle = oracle_from_spec(spec)
        try:
            enc, h = unpack_fields(plain, 2)
            _check_base_layout(proto, enc)  # what `CvqcProof.decode` accepts
        except (MalformedProof, MalformedCiphertext):
            return b"\x00"
        if use_td:
            return bytes([_td_verdict(enc, h, key, oracle)])
        return bytes([_star_verdict(claim, enc, h, key, oracle)])
    return gate


@memo(64)
def _decode_toy_key(vk_blob: bytes) -> tuple[Claim, CvqcVerifyKey]:
    """Constant of the TOY_VERIFY and TOY_VERIFY_STATS gates, decoded once per
    distinct blob. It keeps 64 keys, so a pool of up to 64 sealed TOY verifiers
    decodes each key once."""
    claim_bytes, r_bytes = unpack_fields(vk_blob, 2)
    return Claim.from_bytes(claim_bytes), CvqcVerifyKey.from_bytes(r_bytes)


def _sealed_verdict(gate: str, blob: bytes) -> SealedProgram:
    """One-input sealed surface padded to 8 nodes: proof bytes in, the gate's
    verdict byte out, `blob` hidden inside. The dual-mode gates read a tagged
    proof, so the input is tagged for them."""
    b = ProgramBuilder(1)
    proof = b.input(0)
    if gate in _STAR_GATES.values():
        proof = b.concat(b.const(b"\x01"), proof)
    out = b.host(gate, proof, b.const(blob))
    return obf_io(b.build([out]), 8)


def _gate_toy_verify(proof_bytes: bytes, vk_blob: bytes) -> bytes:
    _, r = _decode_toy_key(vk_blob)
    # its own try: calling `_base_verify_bytes` moved perfbench `attack`
    # consume_p50 from 0.293 to 0.302 ms (+3.1%, 4 of 4 alternated pairs)
    try:
        return bytes([_toy_verdict_bytes(proof_bytes, r.body, _EVERY_POSITION)])
    except MalformedProof:
        return b"\x00"


for _use_td, _name in _STAR_GATES.items():
    register_gate(_name, _star_gate_fn(_use_td))
register_gate("TOY_VERIFY", _gate_toy_verify)


def sealed_toy_verifier(claim: Claim, r: CvqcVerifyKey) -> SealedProgram:
    """Public-evaluation-only verdict surface for the cryptanalysis module:
    proof bytes in, verdict byte out, key material hidden inside."""
    return _sealed_verdict("TOY_VERIFY", pack_fields(claim.to_bytes(), r.to_bytes()))


def sealed_star_td_verifier(setup: StarSetup) -> SealedProgram:
    """Trapdoor-verification surface over dual-mode proofs (pi, h); with a
    simulation-mode setup this rejects every input."""
    return _sealed_verdict(*star_gate(setup, True))


# ---------------------------------------------------------------------------
# check-subset resampling variant: the verifier re-derives which positions to
# check from a PRF of the whole proof, so the proof carries a free salt field


def stats_encode(salt: bytes, pi) -> bytes:
    return b"S" + salt + encode_base_proof(PROTO_TOY, pi)


def _stats_mask(encoded: bytes, vk: ToyVerifyKey) -> bytes:
    """The check mask of a salted encoding: the subset PRF of all of it."""
    if vk.variant != TOY_STATS:
        raise MalformedProof("verification key is not the resampling variant")
    return prf_eval(vk.subset_prf, encoded)


def stats_verify(claim: Claim, salt: bytes, pi, r: CvqcVerifyKey) -> int:
    _check_toy_length(pi, r.body)  # before stats_encode reads the pairs
    return _stats_verify(stats_encode(salt, pi), r)


def _stats_verify(encoded: bytes, r: CvqcVerifyKey) -> int:
    """The verdict on a salted encoding "S" | salt | "T" | K | (b_i | d_i)*.
    The layout (a 16-byte salt) and K are checked before the subset PRF and
    the entries' ranges after it, so a key whose subset key is broken fails
    only on a proof of the right layout."""
    vk = r.body
    if (encoded[:1] != b"S" or len(encoded) != 1 + KEY_LEN + vk.layout[0]
            or encoded[1 + KEY_LEN] != 0x54 or encoded[2 + KEY_LEN] != vk.K):  # "T" | K
        raise MalformedProof("bad salted proof encoding")
    return _toy_verdict_bytes(encoded[1 + KEY_LEN:], vk, _stats_mask(encoded, vk))


def toy_prove_stats(pp: CvqcParams, witness: Witness, drbg: Drbg):
    return drbg.child("salt").bytes(KEY_LEN), toy_prove(pp, witness, drbg)


def _gate_toy_verify_stats(proof_bytes: bytes, vk_blob: bytes) -> bytes:
    _, r = _decode_toy_key(vk_blob)
    try:
        return bytes([_stats_verify(proof_bytes, r)])
    except MalformedProof:
        return b"\x00"


register_gate("TOY_VERIFY_STATS", _gate_toy_verify_stats)


def sealed_stats_verifier(claim: Claim, r: CvqcVerifyKey) -> SealedProgram:
    return _sealed_verdict("TOY_VERIFY_STATS", pack_fields(claim.to_bytes(), r.to_bytes()))


# ---------------------------------------------------------------------------
# blind wrapper: run the prover under QFHE, derive the challenge from the
# oracle (Fiat-Shamir), verify by decrypting with the key folded into r

_PP_PAD_BUCKET = 1024


def _toy_prove1(pp: CvqcParams, witness: Witness, drbg: Drbg):
    """First prover message: raw check outcomes at the checked positions."""
    y = bytes(b for b, _ in _toy_pairs(pp, witness, drbg, False))
    return y, y  # (public message, prover state)


def _challenge_d(c: bytes, i: int, w: int) -> int:
    return prf_eval(PrfKey(c), b"d" + bytes([i]))[0] % (1 << w)


def _toy_prove2(pp: CvqcParams, c: bytes, state: bytes):
    claim, bases, secrets, K, w, tau, variant = _toy_open_pp(pp)
    pairs = []
    for i in range(K):
        d = _challenge_d(c, i, w)
        pairs.append((state[i] ^ _dot_bits(d, secrets[i]), d))
    return tuple(pairs)


def _toy_verify4(claim: Claim, c: bytes, enc: bytes, r: CvqcVerifyKey) -> int:
    """Accept iff the key reads and accepts the measurement encoding `enc`
    and each d_i in it is the challenge's; an unreadable proof is 0."""
    if not _base_verify_bytes(claim, r, enc):
        return 0
    return int(all(d == _challenge_d(c, i, r.body.w) for i, d in enumerate(enc[3::2])))


@dataclass(frozen=True)
class BlindParams:
    pk: bytes
    ct_pp: qfhe.QfheCiphertext


@dataclass(frozen=True)
class BlindVerifyKey:
    r: CvqcVerifyKey
    sk: bytes


@dataclass(frozen=True)
class BlindProof:
    ct_y: qfhe.QfheCiphertext
    c: bytes
    ct_pi: qfhe.QfheCiphertext


def blind_keygen(claim: Claim, drbg: Drbg) -> tuple[BlindParams, BlindVerifyKey, RandomOracle]:
    pp, r = toy_keygen(claim, drbg.child("keygen"), ToyParams())
    keys = qfhe.qfhe_gen(drbg.child("qfhe"))
    pp_bytes = pack_bytes(pp.to_bytes())
    if len(pp_bytes) > _PP_PAD_BUCKET:
        raise MalformedCiphertext("parameter envelope exceeds the padding bucket")
    padded = pp_bytes + b"\x00" * (_PP_PAD_BUCKET - len(pp_bytes))
    ct_pp = qfhe.qfhe_enc(keys.pk, padded, drbg.child("enc"))
    oracle = RandomOracle(_oracle_seed(drbg), MODE_UNIFORM)
    return BlindParams(keys.pk, ct_pp), BlindVerifyKey(r, keys.sk), oracle


def _unpad_pp(padded_pp: bytes) -> CvqcParams:
    return CvqcParams.from_bytes(Reader(padded_pp).field())


def blind_prove(bp: BlindParams, witness: Witness, oracle, drbg: Drbg) -> BlindProof:
    def prove1(padded_pp: bytes) -> bytes:
        y, st = _toy_prove1(_unpad_pp(padded_pp), witness, drbg.child("prove1"))
        return pack_fields(padded_pp, y, st)

    ct_y = qfhe.qfhe_eval(bp.pk, prove1, bp.ct_pp, drbg.child("eval1"))
    transcript = ct_y.payload
    c = ro_query(oracle, b"challenge" + transcript)[:KEY_LEN]

    def prove2(carried: bytes) -> bytes:
        padded_pp, y, st = unpack_fields(carried, 3)
        pi = _toy_prove2(_unpad_pp(padded_pp), c, st)
        return pack_fields(y, encode_base_proof(PROTO_TOY, pi))

    ct_pi = qfhe.qfhe_eval(bp.pk, prove2, ct_y, drbg.child("eval2"))
    return BlindProof(ct_y, c, ct_pi)


def blind_verify(claim: Claim, proof: BlindProof, bvk: BlindVerifyKey, oracle) -> int:
    if ro_query(oracle, b"challenge" + proof.ct_y.payload)[:KEY_LEN] != proof.c:
        return 0
    try:
        _, pi_bytes = unpack_fields(qfhe.qfhe_dec(bvk.sk, proof.ct_pi), 2)
    except MalformedCiphertext:
        return 0
    return _toy_verify4(claim, proof.c, pi_bytes, bvk.r)
