"""Cryptanalysis of obfuscated measurement-protocol verifiers that answer
queries on accepting instances.

All attacks drive a verifier through its public evaluation surface only: a
sealed surface (`SealedProgram`), or a callable with the same contract, query
bytes in and verdict byte out. Each attack encodes its accepting proof once
in the FORMATS.md layout "T" | K | (b_i | d_i)*; every later query is that
encoding with one byte XORed (after "S" | salt in the stats attack, whose
salted queries also repeat the unflipped encoding). Starting from one honest
accepting proof:

* basis-flip — flip each position's bit b_i (byte 2 + 2i) in turn; the
  verdict flips exactly at the positions the verifier reads, recovering the
  hidden basis string x.
* acceptance statistics — against the subset-resampling variant, estimate
  per-position acceptance rates over fresh salts, querying "S" | salt | the
  encoding with b_i flipped or not; read positions drop to about one half,
  ignored positions stay at one.
* linear equations — against the no-ignored-positions variant, XOR each
  unit vector 2^j (j < width) into d_i (byte 3 + 2i); the verdict flips
  exactly when bit j of the verifier secret s_i is set, so each verdict gives
  one bit of s_i.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .circuit_ir import SealedProgram
from .cvqc import PROTO_TOY, encode_base_proof
from .errors import NoAcceptingProof
from .primitives import KEY_LEN, ro_query
from .rand import Drbg
from .wire import pack_fields

DEFAULT_STATS_THRESHOLD = 0.25
MIN_STATS_SAMPLES = 4


@dataclass
class AttackTranscript:
    queries: list = field(default_factory=list)   # (query bytes, verdict)
    recovered: tuple = ()

    @property
    def query_count(self) -> int:
        return len(self.queries)

    def record(self, encoded: bytes, verdict: int) -> int:
        self.queries.append((encoded, verdict))
        return verdict

    def to_json(self) -> str:
        return json.dumps({
            "query_count": self.query_count,
            "recovered": ["?" if v is None else v for v in self.recovered],
            "queries": [{"proof": q.hex(), "verdict": v}
                        for q, v in self.queries[:64]],
        }, indent=2)


def _verdict(verifier, accepting: bytes):
    """The one verdict adapter. `verifier` is a sealed surface or a callable
    with its contract, query bytes in and verdict byte out. Returns the
    attack's transcript and a function that submits a query, maps the output
    byte to 0/1 and records the pair; raises unless `accepting` accepts."""
    run = verifier.run if isinstance(verifier, SealedProgram) else verifier
    t = AttackTranscript()

    def verdict(query: bytes) -> int:
        return t.record(query, 1 if run(query) == b"\x01" else 0)

    if verdict(accepting) != 1:
        raise NoAcceptingProof("supplied proof does not accept")
    return t, verdict


def _xor_byte(blob: bytes, offset: int, mask: int) -> bytes:
    """`blob` with byte `offset` XORed by `mask`; a result outside 0..255
    raises ValueError, as encoding that entry would."""
    out = bytearray(blob)
    out[offset] ^= mask
    return bytes(out)


def star_verdict(sealed: SealedProgram, oracle):
    """Dual-mode surface adapter: hash the encoded base proof through the
    public oracle and submit the consistent (pi, h) pair."""
    return lambda enc: sealed.run(pack_fields(enc, ro_query(oracle, enc)))


# ---------------------------------------------------------------------------
# basis-learning flip attack


def attack_basis_flip(verifier, accepting_pi) -> AttackTranscript:
    """Recover the basis string: position i is read (x_i = 1) exactly when
    flipping b_i turns the accepting proof into a rejecting one."""
    enc = encode_base_proof(PROTO_TOY, accepting_pi)
    t, verdict = _verdict(verifier, enc)
    t.recovered = tuple(1 - verdict(_xor_byte(enc, 2 + 2 * i, 1)) for i in range(enc[1]))
    return t


# ---------------------------------------------------------------------------
# acceptance-statistics attack against subset resampling


def attack_stats(verifier, accepting_salted, samples: int, *, seed=0) -> AttackTranscript:
    """Estimate, per position, the acceptance rate of the bit-flipped proof
    over fresh salts; a drop beyond the threshold marks a read position.
    With too few samples a position stays undetermined (None). Queries are
    `cvqc.stats_encode(salt, pi)`: "S" | salt | encoding."""
    salt0, pi = accepting_salted
    enc = encode_base_proof(PROTO_TOY, pi)
    t, verdict = _verdict(verifier, b"S" + salt0 + enc)
    drbg = Drbg(seed).child("stats-attack")
    recovered = []
    for i in range(enc[1]):
        flipped = _xor_byte(enc, 2 + 2 * i, 1)
        base_hits = 0
        flip_hits = 0
        for s in range(samples):
            salt = drbg.child(f"salt-{i}-{s}").bytes(KEY_LEN)
            base_hits += verdict(b"S" + salt + enc)
            flip_hits += verdict(b"S" + salt + flipped)
        if samples < MIN_STATS_SAMPLES:
            recovered.append(None)
            continue
        diff = abs(base_hits - flip_hits) / samples
        recovered.append(1 if diff > DEFAULT_STATS_THRESHOLD else 0)
    t.recovered = tuple(recovered)
    return t


# ---------------------------------------------------------------------------
# secret-recovery attack via linear equations


def attack_linear(verifier, accepting_pi, width: int) -> AttackTranscript:
    """Against the variant with no ignored positions: XORing 2^j into d_i
    flips the verdict exactly when bit j of s_i is 1, so a rejecting verdict
    reads that bit as 1."""
    enc = encode_base_proof(PROTO_TOY, accepting_pi)
    t, verdict = _verdict(verifier, enc)
    recovered = []
    for i in range(enc[1]):
        bits = [1 - verdict(_xor_byte(enc, 3 + 2 * i, 1 << j)) for j in range(width)]
        recovered.append(sum(bit << j for j, bit in enumerate(bits)))
    t.recovered = tuple(recovered)
    return t
