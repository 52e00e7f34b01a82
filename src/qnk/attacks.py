"""Cryptanalysis of obfuscated measurement-protocol verifiers that answer
queries on accepting instances.

All attacks drive a sealed verifier through its public evaluation surface
only. Starting from one honest accepting proof:

* basis-flip — flip each position's bit in turn; the verdict flips exactly at
  the positions the verifier reads, recovering the hidden basis string x.
* acceptance statistics — against the subset-resampling variant, estimate
  per-position acceptance rates over fresh salts; read positions drop to
  about one half, ignored positions stay at one.
* linear equations — against the no-ignored-positions variant, XOR probe
  vectors into d_i; each verdict is one linear equation over GF(2) in the
  verifier secret s_i, solved by elimination once the probes span.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field

from .circuit_ir import SealedProgram
from .cvqc import PROTO_TOY, CvqcProof, encode_base_proof
from .errors import NoAcceptingProof, RankDeficient
from .primitives import KEY_LEN, ro_query
from .rand import Drbg

DEFAULT_STATS_THRESHOLD = 0.25
MIN_STATS_SAMPLES = 4
_MAX_STATS_BODIES = 16  # encodings a stats adapter keeps; the attack needs 2


@dataclass
class AttackTranscript:
    queries: list = field(default_factory=list)   # (encoded proof, verdict)
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


def _verdict(sealed: SealedProgram, encode):
    """Verdict adapter: encode the query, run the sealed surface, map its
    output to 0/1 and record the pair in the transcript, if one is given."""

    def f(query, transcript: AttackTranscript | None = None) -> int:
        enc = encode(query)
        v = 1 if sealed.run(enc) == b"\x01" else 0
        if transcript is not None:
            transcript.record(enc, v)
        return v

    return f


def toy_verdict(sealed: SealedProgram):
    """Plain-pairs verdict adapter for the standard/linear verifier surface."""
    return _verdict(sealed, lambda pi: encode_base_proof(PROTO_TOY, pi))


def stats_verdict(sealed: SealedProgram):
    """Salted-proof verdict adapter: each query is `stats_encode(salt, pi)`.
    The stats attack asks about one pi under many salts, so the encoding of
    pi is kept for reuse while the same hashable (so immutable) pi object
    comes back; an equal but distinct pi is encoded afresh."""
    bodies = {}

    def encode(salt, pi):
        head = b"S" + salt
        try:
            seen, body = bodies.get(pi, (None, None))
        except TypeError:  # unhashable, e.g. a list of lists
            return head + encode_base_proof(PROTO_TOY, pi)
        if seen is not pi:
            body = encode_base_proof(PROTO_TOY, pi)
            if len(bodies) >= _MAX_STATS_BODIES:
                bodies.clear()
            bodies[pi] = (pi, body)
        return head + body

    return _verdict(sealed, lambda salted: encode(*salted))


def star_verdict(sealed: SealedProgram, oracle):
    """Dual-mode surface adapter: hash the base proof through the public
    oracle and submit the consistent (pi, h) pair."""
    return _verdict(sealed, lambda pi: CvqcProof(
        pi, ro_query(oracle, encode_base_proof(PROTO_TOY, pi))).encode(PROTO_TOY))


def _as_verdict(verifier, adapter):
    return adapter(verifier) if isinstance(verifier, SealedProgram) else verifier


# ---------------------------------------------------------------------------
# basis-learning flip attack


def attack_basis_flip(verifier, accepting_pi) -> AttackTranscript:
    """Recover the basis string: position i is read (x_i = 1) exactly when
    flipping b_i turns the accepting proof into a rejecting one."""
    verdict = _as_verdict(verifier, toy_verdict)
    t = AttackTranscript()
    if verdict(accepting_pi, t) != 1:
        raise NoAcceptingProof("supplied proof does not accept")
    recovered = []
    for i in range(len(accepting_pi)):
        flipped = list(accepting_pi)
        b, d = flipped[i]
        flipped[i] = (1 - b, d)
        recovered.append(1 if verdict(tuple(flipped), t) == 0 else 0)
    t.recovered = tuple(recovered)
    return t


# ---------------------------------------------------------------------------
# acceptance-statistics attack against subset resampling


def attack_stats(verifier, accepting_salted, samples: int, *, seed=0) -> AttackTranscript:
    """Estimate, per position, the acceptance rate of the bit-flipped proof
    over fresh salts; a drop beyond the threshold marks a read position.
    With too few samples a position stays undetermined (None)."""
    verdict = _as_verdict(verifier, stats_verdict)
    salt0, pi = accepting_salted
    t = AttackTranscript()
    if verdict((salt0, pi), t) != 1:
        raise NoAcceptingProof("supplied proof does not accept")
    drbg = Drbg(seed).child("stats-attack")
    recovered = []
    for i in range(len(pi)):
        flipped = list(pi)
        b, d = flipped[i]
        flipped[i] = (1 - b, d)
        flipped = tuple(flipped)
        base_hits = 0
        flip_hits = 0
        for s in range(samples):
            salt = drbg.child(f"salt-{i}-{s}").bytes(KEY_LEN)
            base_hits += verdict((salt, pi), t)
            flip_hits += verdict((salt, flipped), t)
        if samples < MIN_STATS_SAMPLES:
            recovered.append(None)
            continue
        diff = abs(base_hits - flip_hits) / samples
        recovered.append(1 if diff > DEFAULT_STATS_THRESHOLD else 0)
    t.recovered = tuple(recovered)
    return t


# ---------------------------------------------------------------------------
# secret-recovery attack via linear equations


def _gf2_solve(rows: list[int], rhs: list[int], width: int) -> int:
    """Solve M s = rhs over GF(2) (rows are bitmasks over `width` unknowns);
    raises when the rows do not span."""
    system = [(rows[i] << 1) | rhs[i] for i in range(len(rows))]
    pivots = {}
    for item in system:
        cur = item
        for col in range(width - 1, -1, -1):
            if not (cur >> (col + 1)) & 1:
                continue
            if col in pivots:
                cur ^= pivots[col]
            else:
                pivots[col] = cur
                break
    if len(pivots) < width:
        raise RankDeficient(
            f"probe set spans only {len(pivots)} of {width} dimensions")
    # echelon rows hold bits at or below their pivot column: solve upward
    s = 0
    for col in sorted(pivots):
        row = pivots[col]
        acc = row & 1
        mask = row >> 1
        for c2 in range(col):
            if (mask >> c2) & 1 and (s >> c2) & 1:
                acc ^= 1
        if acc:
            s |= 1 << col
    return s


def attack_linear(verifier, accepting_pi, width: int,
                  probes: list[int] | None = None) -> AttackTranscript:
    """Against the variant with no ignored positions: flipping d_i by a probe
    vector v flips the verdict exactly when <v, s_i> = 1. Gather equations
    until each s_i is pinned down, then eliminate."""
    verdict = _as_verdict(verifier, toy_verdict)
    t = AttackTranscript()
    if verdict(accepting_pi, t) != 1:
        raise NoAcceptingProof("supplied proof does not accept")
    if probes is None:
        probes = [1 << j for j in range(width)]
    recovered = []
    for i in range(len(accepting_pi)):
        rows, rhs = [], []
        for v in probes:
            mutated = list(accepting_pi)
            b, d = mutated[i]
            mutated[i] = (b, d ^ v)
            # verdict 0 means e_i moved, i.e. <v, s_i> = 1
            rhs.append(1 - verdict(tuple(mutated), t))
            rows.append(v)
        recovered.append(_gf2_solve(rows, rhs, width))
    t.recovered = tuple(recovered)
    return t
