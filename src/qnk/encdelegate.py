"""Encrypted delegation suite over witness encryption: ciphertext-policy ABE
for quantum policies, a key-policy wrapper through a universal evaluator,
the per-index hybrid program families behind the ABE and constrained-PRF
security arguments, lockable obfuscation of pseudo-deterministic quantum
circuits, a one-sided attribute-hiding (predicate encryption) compiler, a
constrained PRF, and secret sharing for monotone access structures.

Attributes travel as 2-byte big-endian wires (low `attr_len` bits used) so
that the 16-bit puncturable-PRF domain covers them.
"""
from __future__ import annotations

import functools
import hashlib
from dataclasses import dataclass

from . import qfhe
from .circuit_ir import (
    BOTTOM,
    EQUAL,
    OFF_POINT,
    LockSpec,
    Program,
    ProgramBuilder,
    SealedProgram,
    chain_budget,
    ggm_node,
    lockobf,
    lockobf_sim,
    obf_io,
    prf_encryptor,
    register_gate,
    unwrap,
)
from .errors import MalformedCiphertext, MalformedCircuit, WidthMismatch
from .memo import memo
from .nullio import WeCiphertext, we_cfg as _we_cfg, we_dec_bit, we_dec_bqp, we_enc
from .primitives import KEY_LEN, PrfKey, commit, ggm_eval, ggm_punct, prf_gen, prg
from .qma import (
    ATTR_WIRE_BYTES,
    POLICY_FAMILY,  # re-exported: the CLI reads ed.POLICY_FAMILY
    PseudoDetCircuit,
    QmaLanguage,
    QuantumCircuit,
    Witness,
    make_policy_language,
    make_share_language,
    make_universal_language,
)
from .rand import Drbg
from .wire import Reader, fixed, pack_fields, unpack_fields

MAX_ATTR_BITS = 10


def check_attr_len(attr_len: int) -> int:
    """At least 2 bits: below that the keycheck's PRG image is no longer than
    its seed (and empty at 0), so a forged key is no longer negligible."""
    if not 2 <= attr_len <= MAX_ATTR_BITS:
        raise WidthMismatch(f"attribute length {attr_len} is outside 2..{MAX_ATTR_BITS}")
    return attr_len


def attr_wire(x, attr_len: int) -> bytes:
    """Attribute as a 2-byte wire (low attr_len bits significant)."""
    if isinstance(x, bytes):
        x = int.from_bytes(x, "big")
    if not 0 <= x < (1 << attr_len):
        raise WidthMismatch(f"attribute {x} out of range for {attr_len} bits")
    return x.to_bytes(ATTR_WIRE_BYTES, "big")


# ---------------------------------------------------------------------------
# ciphertext-policy ABE


@dataclass(frozen=True)
class AbeSecretKey:
    x: bytes      # 2-byte attribute wire
    key: bytes    # 16 bytes

    def to_bytes(self) -> bytes:
        return pack_fields(self.x, self.key)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "AbeSecretKey":
        x, key = unpack_fields(blob, 2)
        return cls(fixed(x, ATTR_WIRE_BYTES), fixed(key, KEY_LEN))


@dataclass
class AbeKeys:
    msk: PrfKey
    mpk: SealedProgram     # (attribute, candidate key) -> verdict byte
    attr_len: int


@dataclass
class AbeCiphertext:
    e_prog: SealedProgram  # (attribute, key) -> tagged WE ciphertext or bottom
    policy_digest: bytes
    attr_len: int

    def to_bytes(self) -> bytes:
        return pack_fields(self.e_prog.to_bytes(), self.policy_digest,
                           bytes([self.attr_len]))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "AbeCiphertext":
        prog, digest, al = unpack_fields(blob, 3)
        return cls(SealedProgram.from_bytes(prog), digest, fixed(al, 1)[0])


def _gate_sealed_eval(*args) -> bytes:
    return SealedProgram.from_bytes(args[-1]).run(*args[:-1])


register_gate("SEALED_EVAL", _gate_sealed_eval)


def _prg_image_len(attr_len: int) -> int:
    return attr_len * KEY_LEN


def _build_keycheck_program(k: PrfKey, attr_len: int) -> Program:
    """mpk circuit: accept (x, s) when the PRG images of s and of the
    attribute's PRF value coincide."""
    b = ProgramBuilder(2)
    x = b.input(0)
    s = b.input(1)
    ln = b.const(_prg_image_len(attr_len).to_bytes(2, "big"))
    left = b.host("PRG", s, ln)
    right = b.host("PRG", ggm_node(b, k, x), ln)
    return b.build([b.eq(left, right)])


def abe_gen(attr_len: int, seed) -> AbeKeys:
    check_attr_len(attr_len)
    k = prf_gen(Drbg(seed).child("abe-gen").child("k"), 16)
    budget = _keycheck_budget(attr_len)
    return AbeKeys(msk=k, mpk=obf_io(_build_keycheck_program(k, attr_len), budget),
                   attr_len=attr_len)


def abe_keygen(keys: AbeKeys, x) -> AbeSecretKey:
    wire = attr_wire(x, keys.attr_len)
    return AbeSecretKey(wire, ggm_eval(keys.msk, wire))


def _build_encryptor_program(mpk_blob: bytes, policy: QmaLanguage, m: bytes,
                             r: PrfKey) -> Program:
    b = ProgramBuilder(2)
    x = b.input(0)
    s = b.input(1)
    bit = b.host("SEALED_EVAL", x, s, consts=(mpk_blob,))
    coins = ggm_node(b, r, x)
    ct = b.host("WE_ENC", x, b.const(m), coins, consts=(_we_cfg(policy),))
    tagged = b.concat(b.const(b"\x01"), ct)
    out = b.ite(b.eq(bit, b.const(b"\x01")), tagged, b.const(BOTTOM))
    return b.build([out])


def abe_enc(mpk_blob: bytes, policy: QmaLanguage, m: bytes, seed,
            attr_len: int) -> AbeCiphertext:
    """Encrypt to a policy language over attributes under the serialized mpk;
    decryptable by keys whose attribute the policy accepts."""
    r = prf_gen(Drbg(seed).child("abe-enc").child("r"), 16)
    program = _build_encryptor_program(mpk_blob, policy, m, r)
    budget = _encryptor_budget(attr_len)
    digest = hashlib.sha256(policy.ref).digest()
    return AbeCiphertext(obf_io(program, budget), digest, attr_len)


def abe_enc_circuit(keys: AbeKeys, Q: QuantumCircuit, m: bytes, seed) -> AbeCiphertext:
    return abe_enc(keys.mpk.to_bytes(), make_policy_language(Q), m, seed, keys.attr_len)


def abe_dec(sk: AbeSecretKey, ct: AbeCiphertext, drbg: Drbg):
    """Returns the message bytes or None."""
    tagged = ct.e_prog.run(sk.x, sk.key)
    we_bytes = unwrap(tagged)
    if we_bytes is None:
        return None
    return we_dec_bqp(WeCiphertext.from_bytes(we_bytes), drbg)


# key-policy wrapper: keys carry policies (family ids), ciphertexts attributes

KP_ATTR_LEN = 8  # policy-id space


def kp_gen(seed) -> AbeKeys:
    return abe_gen(KP_ATTR_LEN, seed)


def kp_enc(keys_mpk: SealedProgram, x_attr: bytes, m: bytes, seed) -> AbeCiphertext:
    return abe_enc(keys_mpk.to_bytes(), make_universal_language(x_attr), m, seed,
                   KP_ATTR_LEN)


# ---------------------------------------------------------------------------
# per-index hybrid program families


def _index_chain(b: ProgramBuilder, x: int, attr_len: int, i: int,
                 lt: int, eq: int, gt: int) -> int:
    """Nested equality dispatch realizing the x < i / x = i / x > i split."""
    out = gt
    for j in range((1 << attr_len) - 1, -1, -1):
        tgt = eq if j == i else (lt if j < i else gt)
        out = b.ite(b.eq(x, b.const(attr_wire(j, attr_len))), tgt, out)
    return out


def abe_keycheck_hybrids(k: PrfKey, attr_len: int, i: int,
                         drbg: Drbg) -> dict[str, Program]:
    """mpk-circuit variants: puncture the key at attribute i, replace its
    PRF value, widen to a raw random image, then reject i outright. P3 and
    Pstar differ at i only on the PRG-range event, a seed whose expansion
    hits the random image: negligible once the image, attr_len * KEY_LEN
    bytes, is longer than the seed."""
    wire_i = attr_wire(i, attr_len)
    ki = ggm_punct(k, wire_i)
    k_at_i = ggm_eval(k, wire_i)
    k_tilde = drbg.child("ktilde").bytes(KEY_LEN)
    K_img = drbg.child("K").bytes(_prg_image_len(attr_len))
    ln_bytes = _prg_image_len(attr_len).to_bytes(2, "big")

    def variant(at_i: str) -> Program:
        b = ProgramBuilder(2)
        x = b.input(0)
        s = b.input(1)
        ln = b.const(ln_bytes)
        left = b.host("PRG", s, ln)
        rest = b.eq(left, b.host("PRG", ggm_node(b, ki, x), ln))
        if at_i == "honest":
            eq_node = b.eq(left, b.host("PRG", b.const(k_at_i), ln))
        elif at_i == "random-key":
            eq_node = b.eq(left, b.host("PRG", b.const(k_tilde), ln))
        elif at_i == "random-image":
            eq_node = b.eq(left, b.const(K_img))
        else:
            eq_node = b.const(b"\x00")
        out = _index_chain(b, x, attr_len, i, rest, eq_node, rest)
        return b.build([out])

    return {
        "P": _build_keycheck_program(k, attr_len),
        "P1": variant("honest"),
        "P2": variant("random-key"),
        "P3": variant("random-image"),
        "Pstar": variant("reject"),
    }


# abe_keycheck_hybrids' chain as (from, to, relation); i is the challenge
KEYCHECK_STEPS = (("P", "P1", EQUAL), ("P1", "P2", OFF_POINT), ("P2", "P3", OFF_POINT),
                  ("P3", "Pstar", OFF_POINT))


def abe_encryptor_hybrids(mpk_blob: bytes, policy: QmaLanguage, m0: bytes,
                          m1: bytes, r: PrfKey, attr_len: int, i: int,
                          drbg: Drbg) -> dict[str, Program]:
    """Encryptor variants for the message-switch argument at index i: E is the
    stage entering index i (m1 below i, m0 from i up, plain coin key); E1
    punctures the coin key and hardwires index i; E2/E3 rerandomize and switch
    the message there; Estar stops releasing at i."""
    wire_i = attr_wire(i, attr_len)
    ri = ggm_punct(r, wire_i)
    coins_i = ggm_eval(r, wire_i)
    u = drbg.child("u").bytes(KEY_LEN)
    cfg = _we_cfg(policy)

    def variant(hardwired) -> Program:
        """`hardwired`: None for E, else index i's (message, coins) or BOTTOM
        under the punctured coin key."""
        b = ProgramBuilder(2)
        x = b.input(0)
        s = b.input(1)
        bit = b.host("SEALED_EVAL", x, s, consts=(mpk_blob,))
        coins = ggm_node(b, r if hardwired is None else ri, x)
        low = b.concat(b.const(b"\x01"),
                       b.host("WE_ENC", x, b.const(m1), coins, consts=(cfg,)))
        high = b.concat(b.const(b"\x01"),
                        b.host("WE_ENC", x, b.const(m0), coins, consts=(cfg,)))
        if hardwired is None:
            at_i = high
        elif hardwired == BOTTOM:
            at_i = b.const(BOTTOM)
        else:
            ct = b.host("WE_ENC", *map(b.const, (wire_i, *hardwired)), consts=(cfg,))
            at_i = b.concat(b.const(b"\x01"), ct)
        selected = _index_chain(b, x, attr_len, i, low, at_i, high)
        out = b.ite(b.eq(bit, b.const(b"\x01")), selected, b.const(BOTTOM))
        return b.build([out])

    return {
        "E": variant(None),
        "E1": variant((m0, coins_i)),
        "E2": variant((m0, u)),
        "E3": variant((m1, u)),
        "Estar": variant(BOTTOM),
    }


# abe_encryptor_hybrids' chain as (from, to, relation); i is the challenge
ENCRYPTOR_STEPS = (("E", "E1", EQUAL), ("E1", "E2", OFF_POINT), ("E2", "E3", OFF_POINT),
                   ("E3", "Estar", OFF_POINT))


# Pad budgets. A sealed program is padded to the largest member of its hybrid
# family, and that size depends on the family's shape alone: ProgramBuilder
# never interns, so keys, messages and policies change only constant payloads.
# Each budget is therefore built once per shape from fixed stand-ins;
# tests/test_encdelegate.py checks it against families built from real keys.

_STAND_IN_KEY = PrfKey(bytes(KEY_LEN), 16)


@memo(16)
def _keycheck_budget(attr_len: int) -> int:
    return chain_budget(abe_keycheck_hybrids(_STAND_IN_KEY, attr_len, 0, Drbg(b"sizing")),
                        KEYCHECK_STEPS)


@memo(16)
def _encryptor_budget(attr_len: int) -> int:
    policy = make_universal_language(bytes(ATTR_WIRE_BYTES))
    return chain_budget(abe_encryptor_hybrids(b"", policy, b"", b"", _STAND_IN_KEY,
                                              attr_len, 0, Drbg(b"sizing")), ENCRYPTOR_STEPS)


# ---------------------------------------------------------------------------
# lockable obfuscation for pseudo-deterministic quantum circuits


def _dec_compare_program(sk: bytes) -> Program:
    b = ProgramBuilder(1)
    ct = b.input(0)
    pt = b.host("QFHE_DEC", b.const(sk), ct)
    return b.build([b.slice(pt, 1, 1 + KEY_LEN)])


@dataclass
class QLockObf:
    ct: qfhe.QfheCiphertext      # encrypted circuit description
    cc: SealedProgram            # ciphertext -> tagged payload or bottom
    pk: bytes
    desc_len: int
    payload_len: int

    def to_bytes(self) -> bytes:
        return pack_fields(self.ct.to_bytes(), self.cc.to_bytes(), self.pk,
                           self.desc_len.to_bytes(4, "big"),
                           self.payload_len.to_bytes(4, "big"))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "QLockObf":
        f = unpack_fields(blob, 5)
        return cls(qfhe.QfheCiphertext.from_bytes(f[0]),
                   SealedProgram.from_bytes(f[1]), f[2],
                   int.from_bytes(fixed(f[3], 4), "big"),
                   int.from_bytes(fixed(f[4], 4), "big"))


def qlock_obf(Q, u: bytes, z: bytes, seed) -> QLockObf:
    """Lock the payload z behind the event "the encrypted circuit's output
    register equals u"."""
    drbg = Drbg(seed).child("qlock")
    keys = qfhe.qfhe_gen(drbg.child("qfhe"))
    desc = Q.to_bytes()
    ct = qfhe.qfhe_enc(keys.pk, desc, drbg.child("enc"))
    cc = lockobf(LockSpec(u, z, _dec_compare_program(keys.sk)))
    return QLockObf(ct, cc, keys.pk, len(desc), len(z))


def qlock_eval(obj: QLockObf, x_bits, drbg: Drbg):
    """Homomorphically run the encrypted circuit on x, then apply the
    compare-and-release layer. Returns payload bytes or None."""

    def universal(desc: bytes) -> bytes:
        try:
            circ = PseudoDetCircuit.from_bytes(desc)
        except (MalformedCiphertext, MalformedCircuit):
            return b""  # unparseable description (e.g. the simulator's zero fill)
        return circ.run(x_bits, drbg.child("run"))

    ct_out = qfhe.qfhe_eval(obj.pk, universal, obj.ct, drbg.child("eval"))
    return unwrap(obj.cc.run(ct_out.to_bytes()))


def qlock_sim(desc_len: int, payload_len: int, seed) -> QLockObf:
    """Input-independent simulator object with matching declared sizes."""
    drbg = Drbg(seed).child("qlock-sim")
    keys = qfhe.qfhe_gen(drbg.child("qfhe"))
    ct = qfhe.qfhe_enc(keys.pk, bytes(desc_len), drbg.child("enc"))
    size_c = _dec_compare_program(keys.sk).size
    return QLockObf(ct, lockobf_sim(size_c, payload_len), keys.pk,
                    desc_len, payload_len)


# ---------------------------------------------------------------------------
# one-sided attribute hiding (predicate encryption)


def _gate_abe_dec(sk_bytes: bytes, ct_blob: bytes) -> bytes:
    sk = AbeSecretKey.from_bytes(sk_bytes)
    ct = AbeCiphertext.from_bytes(ct_blob)
    seed = hashlib.sha256(b"abe-dec" + sk_bytes + ct_blob).digest()[:16]
    m = abe_dec(sk, ct, Drbg(seed))
    return m if m is not None else b""


register_gate("ABE_DEC", _gate_abe_dec)


@dataclass
class PeCiphertext:
    cc: SealedProgram
    payload_len: int

    def to_bytes(self) -> bytes:
        return pack_fields(self.cc.to_bytes(), self.payload_len.to_bytes(4, "big"))

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PeCiphertext":
        f = unpack_fields(blob, 2)
        return cls(SealedProgram.from_bytes(f[0]), int.from_bytes(fixed(f[1], 4), "big"))


def pe_enc(keys: AbeKeys, Q: QuantumCircuit, m: bytes, seed) -> PeCiphertext:
    """Policy-hiding layer: ABE-encrypt a fresh lock value, then gate the real
    payload behind decrypting to that lock."""
    drbg = Drbg(seed).child("pe")
    u = drbg.child("u").bytes(KEY_LEN)
    abe_ct = abe_enc_circuit(keys, Q, u, drbg.child("abe").bytes(16))
    b = ProgramBuilder(1)
    sk_in = b.input(0)
    out = b.host("ABE_DEC", sk_in, b.const(abe_ct.to_bytes()))
    inner = b.build([out])
    cc = lockobf(LockSpec(u, m, inner))
    return PeCiphertext(cc, len(m))


def pe_dec(sk: AbeSecretKey, ct: PeCiphertext):
    return unwrap(ct.cc.run(sk.to_bytes()))


# ---------------------------------------------------------------------------
# constrained PRF


def _gate_abe_kp_enc(x: bytes, m: bytes, coins: bytes, cfg: bytes) -> bytes:
    mpk_blob, = unpack_fields(cfg, 1)
    SealedProgram.from_bytes(mpk_blob)  # a malformed mpk fails here, not at decryption
    return abe_enc(mpk_blob, make_universal_language(x), m, coins, KP_ATTR_LEN).to_bytes()


register_gate("ABE_ENC", _gate_abe_kp_enc)

CPRF_INPUT_BITS = 8


class CprfKeys:
    """The keys of one seed, each derived on first use, so that a caller pays
    only for what it reads: evaluation needs `k`, constraining `abe`, and
    constrained evaluation `pp`."""

    def __init__(self, seed):
        self._drbg = Drbg(seed).child("cprf")

    @functools.cached_property
    def k(self) -> PrfKey:
        return prf_gen(self._drbg.child("k"), 16)

    @functools.cached_property
    def k_tilde(self) -> PrfKey:
        return prf_gen(self._drbg.child("ktilde"), 16)

    @functools.cached_property
    def abe(self) -> AbeKeys:
        return kp_gen(self._drbg.child("abe").bytes(16))

    @functools.cached_property
    def pp(self) -> SealedProgram:
        """Input wire -> serialized key-policy ABE ciphertext."""
        program = prf_encryptor("ABE_ENC", pack_fields(self.abe.mpk.to_bytes()), self.k,
                                self.k_tilde, None)
        return obf_io(program, _cprf_budget())


def cprf_gen(seed) -> CprfKeys:
    return CprfKeys(seed)


def cprf_eval(keys: CprfKeys, x) -> bytes:
    return ggm_eval(keys.k, attr_wire(x, CPRF_INPUT_BITS))


def cprf_constrain(keys: CprfKeys, policy_id: int) -> AbeSecretKey:
    return abe_keygen(keys.abe, policy_id)


def cprf_ceval(pp: SealedProgram, k_q: AbeSecretKey, x, drbg: Drbg):
    """Constrained evaluation: returns the PRF value, or None when the key's
    policy rejects the input."""
    ct_bytes = pp.run(attr_wire(x, CPRF_INPUT_BITS))
    return abe_dec(k_q, AbeCiphertext.from_bytes(ct_bytes), drbg)


def cprf_hybrids(k: PrfKey, k_tilde: PrfKey, mpk_blob: bytes, x_star: bytes,
                 drbg: Drbg) -> dict[str, Program]:
    """pp-circuit variants: puncture the coin key, then the value key, then
    rerandomize and zero the value at the challenge point."""
    kp, ktp = ggm_punct(k, x_star), ggm_punct(k_tilde, x_star)
    m_star = ggm_eval(k, x_star)
    coins_star = ggm_eval(k_tilde, x_star)
    u = drbg.child("u").bytes(KEY_LEN)
    cfg = pack_fields(mpk_blob)
    return {
        "P": prf_encryptor("ABE_ENC", cfg, k, k_tilde, None),
        "P1": prf_encryptor("ABE_ENC", cfg, k, ktp, (x_star, m_star, coins_star)),
        "P2": prf_encryptor("ABE_ENC", cfg, kp, ktp, (x_star, m_star, coins_star)),
        "P3": prf_encryptor("ABE_ENC", cfg, kp, ktp, (x_star, m_star, u)),
        "Pstar": prf_encryptor("ABE_ENC", cfg, kp, ktp, (x_star, bytes(KEY_LEN), u)),
    }


# cprf_hybrids' chain as (from, to, relation); x_star is the challenge
CPRF_STEPS = (("P", "P1", EQUAL), ("P1", "P2", EQUAL), ("P2", "P3", OFF_POINT),
              ("P3", "Pstar", OFF_POINT))


@memo(1)
def _cprf_budget() -> int:
    return chain_budget(cprf_hybrids(_STAND_IN_KEY, _STAND_IN_KEY, b"",
                                     attr_wire(0, CPRF_INPUT_BITS), Drbg(b"sizing")), CPRF_STEPS)


# ---------------------------------------------------------------------------
# secret sharing for monotone access structures


@dataclass
class ShareSet:
    shares: list            # per party: (r_i, shared WE ciphertext)
    commitments: tuple[bytes, ...]
    lang_ref: bytes         # inner access-structure language

    def to_bytes(self) -> bytes:
        body = [self.lang_ref, bytes([len(self.shares)])]
        for r_i, ct in self.shares:
            body += [r_i, ct.to_bytes()]
        body += list(self.commitments)
        return pack_fields(*body)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ShareSet":
        r = Reader(blob)
        lang_ref = r.field()
        n = fixed(r.field(), 1)[0]
        shares = [(r.field(), WeCiphertext.from_bytes(r.field())) for _ in range(n)]
        commitments = tuple(r.field() for _ in range(n))
        r.end()
        return cls(shares, commitments, lang_ref)


def ss_share(L: QmaLanguage, N: int, s: int, seed) -> ShareSet:
    """Party i receives a commitment opening; the secret is witness-encrypted
    to the statement "enough openings verify to form a qualified subset"."""
    if N > 10:
        raise WidthMismatch("at most 10 parties")
    if L.statement_bits != N:
        raise WidthMismatch("access language width must equal the party count")
    drbg = Drbg(seed).child("share")
    openings = [drbg.child(f"r{i}").bytes(KEY_LEN) for i in range(N)]
    commitments = tuple(commit(bytes([i + 1]), openings[i]) for i in range(N))
    derived = make_share_language(L, commitments)
    statement = b"".join(commitments)
    ct = we_enc(derived, statement, s, drbg.child("we").bytes(16))
    return ShareSet([(openings[i], ct) for i in range(N)], commitments, L.ref)


def ss_rec(share_set: ShareSet, subset: set[int], witness: Witness, drbg: Drbg):
    """Reconstruct from the shares of `subset` (0-based party indices).
    Returns the secret bit or None."""
    N = len(share_set.shares)
    if any(i not in range(N) for i in subset):
        raise WidthMismatch(f"party index outside 0..{N - 1}")
    cw = b"".join(
        share_set.shares[i][0] if i in subset else bytes(KEY_LEN)
        for i in range(N))
    ct = share_set.shares[next(iter(subset))][1] if subset else share_set.shares[0][1]
    out = we_dec_bit(ct, Witness(witness.state, witness.copies, cw), drbg)
    return None if out is None else out[0]

