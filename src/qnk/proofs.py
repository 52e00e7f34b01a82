"""Proof systems: a NIZK whose CRS is a pair of sealed programs (statement ->
witness-encryption ciphertext, and (statement, candidate) -> verdict), the
soundness-hybrid program family for it, modeled NIWI/ZAP systems, and the
two-message publicly verifiable argument (ZAPR) built from all of the above
plus SBSH commitments.

The NIZK prover evaluates the sealed encryptor on its statement and decrypts
with witness copies; the resulting 16-byte PRF value is the proof. The
simulator reads the same value straight from the setup escrow, so simulated
and honest proofs are byte-equal whenever decryption succeeds.

NIWI/ZAP are modeled idealized primitives: a relation-scoped sealed prover
issues a tag depending only on the statement (witness indistinguishability
holds as byte equality), after checking the witness.
"""
from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from .circuit_ir import (
    EQUAL,
    OFF_POINT,
    Program,
    ProgramBuilder,
    SealedProgram,
    chain_budget,
    ggm_node,
    obf_io,
    prf_encryptor,
)
from .errors import (
    InvalidWitness,
    NoValidNizk,
    ProofFailed,
    SetupProofInvalid,
    WidthMismatch,
)
from .memo import memo
from .nullio import _decode_we, we_cfg as _we_cfg, we_dec_bytes
from .primitives import (
    KEY_LEN,
    PrfKey,
    SbshKeys,
    ggm_eval,
    ggm_punct,
    owf,
    prf_eval,
    prf_gen,
    sbsh_com,
    sbsh_gen,
    sbsh_key,
)
from .qma import QmaLanguage, Witness, make_parity_language, resolve_language
from .rand import Drbg
from .wire import pack_fields, unpack_fields

PROOF_LEN = KEY_LEN


# ---------------------------------------------------------------------------
# NIZK


@dataclass
class NizkCrs:
    p_prog: SealedProgram    # statement -> serialized WE ciphertext
    v_prog: SealedProgram    # (statement, candidate) -> verdict byte
    lang_ref: bytes
    escrow: dict = field(repr=False)  # setup randomness: `nizk_sim` and the hybrids read it

    def digest(self) -> bytes:
        return hashlib.sha256(self.p_prog.to_bytes() + self.v_prog.to_bytes()).digest()


@dataclass(frozen=True)
class NizkProof:
    pi: bytes

    def __post_init__(self):
        if len(self.pi) != PROOF_LEN:
            raise WidthMismatch("proof must be 16 bytes")


def _stmt_domain_bits(L: QmaLanguage) -> int:
    if L.statement_bits > 16:
        raise WidthMismatch("statement space wider than 16 bits")
    return 8 if L.statement_bits <= 8 else 16


def _encode_stmt(L: QmaLanguage, x: bytes) -> bytes:
    n = _stmt_domain_bits(L) // 8
    if len(x) != n:
        raise WidthMismatch(f"statement must be {n} bytes for this language")
    return x


def _build_v_program(k0: PrfKey) -> Program:
    b = ProgramBuilder(2)
    x = b.input(0)
    y = b.input(1)
    return b.build([b.eq(b.host("OWF", ggm_node(b, k0, x)), b.host("OWF", y))])


def nizk_setup(L: QmaLanguage, seed) -> NizkCrs:
    drbg = Drbg(seed).child("nizk-setup")
    domain = _stmt_domain_bits(L)
    k0 = prf_gen(drbg.child("k0"), domain)
    k1 = prf_gen(drbg.child("k1"), domain)
    p_budget, v_budget = _nizk_budgets(domain)
    return NizkCrs(
        p_prog=obf_io(prf_encryptor("WE_ENC", _we_cfg(L), k0, k1, None), p_budget),
        v_prog=obf_io(_build_v_program(k0), v_budget),
        lang_ref=L.ref,
        escrow={"k0": k0, "k1": k1, "lang": L, "seed": seed},
    )


def nizk_prove(crs: NizkCrs, witness: Witness, x: bytes, drbg: Drbg) -> NizkProof:
    L = resolve_language(crs.lang_ref)
    ct = _decode_we(crs.p_prog.run(_encode_stmt(L, x)))
    m = we_dec_bytes(ct, witness, drbg)
    if m is None:
        raise ProofFailed("witness decryption returned bottom")
    return NizkProof(m)


def nizk_verify(crs: NizkCrs, proof: NizkProof, x: bytes) -> int:
    L = resolve_language(crs.lang_ref)
    return 1 if crs.v_prog.run(_encode_stmt(L, x), proof.pi) == b"\x01" else 0


def nizk_sim(crs: NizkCrs, x: bytes) -> NizkProof:
    """Simulation from the setup randomness: the proof is the PRF value the
    honest prover would decrypt."""
    L = resolve_language(crs.lang_ref)
    return NizkProof(ggm_eval(crs.escrow["k0"], _encode_stmt(L, x)))


# ---------------------------------------------------------------------------
# soundness-hybrid program family


def nizk_hybrid_programs(L: QmaLanguage, k0: PrfKey, k1: PrfKey, x_star: bytes,
                         drbg: Drbg) -> dict[str, Program]:
    """The encryptor/verdict program variants from the soundness argument:
    puncture the keys at x_star and hardwire that point's values step by step
    until the verdict there tests against a hardwired image of a fresh
    preimage."""
    cfg = _we_cfg(L)
    k0p, k1p = ggm_punct(k0, x_star), ggm_punct(k1, x_star)
    m_star = ggm_eval(k0, x_star)
    coins_star = ggm_eval(k1, x_star)
    u = drbg.child("u").bytes(KEY_LEN)
    r_tilde = drbg.child("r").bytes(KEY_LEN)

    def v_variant(at_star_key_or_image: bytes, hardwired_image: bool) -> Program:
        b = ProgramBuilder(2)
        x = b.input(0)
        y = b.input(1)
        hy = b.host("OWF", y)
        if hardwired_image:
            star_hit = b.eq(b.const(at_star_key_or_image), hy)
        else:
            star_hit = b.eq(b.host("OWF", b.const(at_star_key_or_image)), hy)
        rest = b.eq(b.host("OWF", ggm_node(b, k0p, x)), hy)
        return b.build([b.ite(b.eq(x, b.const(x_star)), star_hit, rest)])

    return {
        "P": prf_encryptor("WE_ENC", cfg, k0, k1, None),
        "P1": prf_encryptor("WE_ENC", cfg, k0, k1p, (x_star, m_star, coins_star)),
        "P2": prf_encryptor("WE_ENC", cfg, k0, k1p, (x_star, m_star, u)),
        "P3": prf_encryptor("WE_ENC", cfg, k0p, k1p, (x_star, m_star, u)),
        "Pstar": prf_encryptor("WE_ENC", cfg, k0p, k1p, (x_star, bytes(KEY_LEN), u)),
        "V": _build_v_program(k0),
        "V1": v_variant(m_star, hardwired_image=False),
        "V2": v_variant(r_tilde, hardwired_image=False),
        "Vstar": v_variant(owf(r_tilde), hardwired_image=True),
    }


# nizk_hybrid_programs' two chains as (from, to, relation); x_star is the
# challenge. The encryptor's chain replaces the coins, key and message at
# x_star, the verdict's chain the preimage tested there.
NIZK_P_STEPS = (("P", "P1", EQUAL), ("P1", "P2", OFF_POINT), ("P2", "P3", EQUAL),
                ("P3", "Pstar", OFF_POINT))
NIZK_V_STEPS = (("V", "V1", EQUAL), ("V1", "V2", OFF_POINT), ("V2", "Vstar", EQUAL))


@memo(2)
def _nizk_budgets(domain: int) -> tuple[int, int]:
    """Pad budgets of the CRS programs, (P, V), for an 8- or 16-bit statement
    domain: the largest encryptor and verdict variants. Like the encdelegate
    budgets, the sizes depend on the domain alone, so fixed stand-in keys and
    language give them."""
    k = PrfKey(bytes(KEY_LEN), domain)
    fam = nizk_hybrid_programs(make_parity_language(8), k, k, bytes(domain // 8),
                               Drbg(b"sizing"))
    return chain_budget(fam, NIZK_P_STEPS), chain_budget(fam, NIZK_V_STEPS)


def nizk_hybrid_family(crs: NizkCrs, x_star: bytes) -> dict[str, Program]:
    return nizk_hybrid_programs(
        crs.escrow["lang"], crs.escrow["k0"], crs.escrow["k1"], x_star,
        Drbg(crs.escrow["seed"]).child("hybrids"))


# ---------------------------------------------------------------------------
# modeled NIWI / ZAP


@dataclass(frozen=True)
class Relation:
    name: str
    check: object  # (x: bytes, w: bytes) -> bool


class NiwiScheme:
    """Relation-scoped sealed prover: the proof is a PRF tag over the
    statement, issued only after a witness check, and therefore identical for
    every valid witness."""

    def __init__(self, drbg: Drbg):
        self.__master = drbg.bytes(KEY_LEN)

    def _tag(self, rel: Relation, x: bytes) -> bytes:
        return prf_eval(PrfKey(self.__master), rel.name.encode() + b"|" + x)

    def prove(self, rel: Relation, x: bytes, w: bytes) -> bytes:
        if not rel.check(x, w):
            raise InvalidWitness(f"witness rejected by relation {rel.name!r}")
        return self._tag(rel, x)

    def verify(self, rel: Relation, proof: bytes, x: bytes) -> int:
        return 1 if proof == self._tag(rel, x) else 0


class ZapScheme(NiwiScheme):
    """Two-message variant: the first message (crs) folds into the tag."""

    def __init__(self, drbg: Drbg):
        super().__init__(drbg.child("key"))
        self.crs = drbg.child("crs").bytes(KEY_LEN)

    def _tag(self, rel: Relation, x: bytes) -> bytes:
        return super()._tag(rel, self.crs + b"|" + x)


# ---------------------------------------------------------------------------
# ZAPR

_SBSH_MSG_LEN = 1 + PROOF_LEN  # branch byte plus one proof/preimage payload


@dataclass
class ZaprCrs:
    crs0: NizkCrs
    crs1: NizkCrs
    y0: bytes
    y1: bytes
    ck0: bytes
    zap: ZapScheme
    niwi: NiwiScheme
    setup_proof: bytes
    lang_ref: bytes
    escrow: dict = field(repr=False)


@dataclass(frozen=True)
class ZaprProof:
    ck1: bytes
    c_nizk: bytes
    c_owf: bytes
    zap_proof: bytes


def _setup_relation(L: QmaLanguage) -> Relation:
    def check(x: bytes, w: bytes) -> bool:
        digest0, y0, digest1, y1 = unpack_fields(x, 4)
        b, seed, pre = unpack_fields(w, 3)
        digest, y = (digest0, y0) if b == b"\x00" else (digest1, y1)
        return (nizk_setup(L, seed).digest() == digest) and (owf(pre) == y)

    return Relation("zapr-setup", check)


def _setup_stmt(crs: ZaprCrs) -> bytes:
    return pack_fields(crs.crs0.digest(), crs.y0, crs.crs1.digest(), crs.y1)


def _main_relation(crs: ZaprCrs) -> Relation:
    """Disjunction: the committed value opens to a verifying proof under one
    CRS, or to a preimage of one of the published images."""

    def check(stmt: bytes, w: bytes) -> bool:
        x, ck1, c_nizk, c_owf = unpack_fields(stmt, 4)
        keys = SbshKeys(crs.ck0, ck1)
        branch, payload, r = unpack_fields(w, 3)
        if branch == b"A":
            if sbsh_com(keys, payload, r) != c_nizk:
                return False
            b = payload[0]
            pi = NizkProof(payload[1:])
            target = crs.crs0 if b == 0 else crs.crs1
            return nizk_verify(target, pi, x) == 1
        if sbsh_com(keys, payload, r) != c_owf:
            return False
        b = payload[0]
        return owf(payload[1:]) == (crs.y0 if b == 0 else crs.y1)

    return Relation("zapr-main", check)


def _main_stmt(x: bytes, proof: ZaprProof) -> bytes:
    return pack_fields(x, proof.ck1, proof.c_nizk, proof.c_owf)


def zapr_setup(L: QmaLanguage, seed) -> ZaprCrs:
    drbg = Drbg(seed).child("zapr-setup")
    crs0 = nizk_setup(L, drbg.child("crs0").bytes(16))
    crs1 = nizk_setup(L, drbg.child("crs1").bytes(16))
    x0 = drbg.child("x0").bytes(KEY_LEN)
    x1 = drbg.child("x1").bytes(KEY_LEN)
    ck0, gen_rand = sbsh_gen(drbg.child("sbsh"))
    zap = ZapScheme(drbg.child("zap"))
    niwi = NiwiScheme(drbg.child("niwi"))
    crs = ZaprCrs(crs0, crs1, owf(x0), owf(x1), ck0, zap, niwi, b"", L.ref,
                  escrow={"gen_rand": gen_rand, "x0": x0, "x1": x1})
    witness = pack_fields(b"\x00", crs0.escrow["seed"], x0)
    crs.setup_proof = niwi.prove(_setup_relation(L), _setup_stmt(crs), witness)
    return crs


def zapr_prove(crs: ZaprCrs, witness: Witness, x: bytes, drbg: Drbg) -> ZaprProof:
    L = resolve_language(crs.lang_ref)
    if crs.niwi.verify(_setup_relation(L), crs.setup_proof, _setup_stmt(crs)) != 1:
        raise SetupProofInvalid("reference-string consistency proof rejected")
    half = Witness(witness.state, witness.copies // 2, witness.classical)
    # each reference string proves on its own child stream, so a proof's bytes
    # do not depend on whether the other string was tried
    for b, sub_crs in enumerate((crs.crs0, crs.crs1)):
        try:
            pi = nizk_prove(sub_crs, half, x, drbg.child(f"nizk{b}"))
        except ProofFailed:
            continue
        if nizk_verify(sub_crs, pi, x) == 1:
            break
    else:
        raise NoValidNizk("neither reference string yielded a verifying proof")
    ck1 = sbsh_key(drbg.child("ck1"))
    keys = SbshKeys(crs.ck0, ck1)
    r1 = drbg.child("r1").bytes(KEY_LEN)
    r2 = drbg.child("r2").bytes(KEY_LEN)
    c_nizk = sbsh_com(keys, bytes([b]) + pi.pi, r1)
    c_owf = sbsh_com(keys, bytes(_SBSH_MSG_LEN), r2)
    proof = ZaprProof(ck1, c_nizk, c_owf, b"")
    zap_witness = pack_fields(b"A", bytes([b]) + pi.pi, r1)
    zap_proof = crs.zap.prove(_main_relation(crs), _main_stmt(x, proof), zap_witness)
    return ZaprProof(ck1, c_nizk, c_owf, zap_proof)


def zapr_verify(crs: ZaprCrs, proof: ZaprProof, x: bytes) -> int:
    return crs.zap.verify(_main_relation(crs), proof.zap_proof, _main_stmt(x, proof))
