import functools
import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qnk import cvqc
from qnk.circuit_ir import SealedProgram
from qnk.cvqc import (
    MINI_PARAMS,
    PROTO_ORACLE,
    PROTO_TOY,
    TOY_LINEAR,
    TOY_STANDARD,
    TOY_STATS,
    Claim,
    CvqcProof,
    CvqcVerifyKey,
    ToyParams,
    blind_keygen,
    blind_prove,
    blind_verify,
    claim_for,
    decode_base_proof,
    encode_base_proof,
    judge_accepts,
    keygen_star,
    oracle_from_spec,
    oracle_keygen,
    oracle_prove,
    oracle_spec,
    oracle_verify,
    sealed_star_td_verifier,
    sealed_stats_verifier,
    sealed_toy_verifier,
    sim_gen,
    star_prove,
    star_verify,
    stats_encode,
    stats_verify,
    td_gen,
    td_verify,
    toy_keygen,
    toy_prove,
    toy_prove_stats,
    toy_verify,
)
from qnk.errors import (
    DomainMismatch,
    JudgeReject,
    MalformedCiphertext,
    MalformedCircuit,
    MalformedProof,
)
from qnk.primitives import KEY_LEN, PrfKey, commit, prf_eval, prf_gen, ro_query
from qnk.qma import (
    Witness, exact_accept_probability, fixture, ghz_witness, make_share_language, qma_verify,
    resolve_language,
)
from qnk.rand import Drbg
from qnk.wire import pack_fields, seal, unpack_fields, unseal

PAR = fixture("par8")
YES = claim_for(PAR, b"\x07")
NO = claim_for(PAR, b"\x03")


def mini_proofs():
    singles = [(b, d) for b in range(2) for d in range(4)]
    return itertools.product(singles, repeat=4)


class TestOracleProtocol:
    def test_completeness(self):
        pp, r = oracle_keygen(YES, Drbg(1))
        pi = oracle_prove(pp, Witness.empty(), Drbg(2))
        assert oracle_verify(YES, pi, r) == 1

    def test_random_tags_rejected(self):
        pp, r = oracle_keygen(YES, Drbg(3))
        d = Drbg(4)
        assert sum(oracle_verify(YES, d.bytes(16), r) for _ in range(10 ** 5)) == 0

    def test_no_instance_judge_rejects(self):
        pp, _ = oracle_keygen(NO, Drbg(5))
        with pytest.raises(JudgeReject):
            oracle_prove(pp, Witness.empty(), Drbg(6))

    def test_quantum_witness(self):
        ghz = claim_for(fixture("ghz"), b"\x01")
        pp, r = oracle_keygen(ghz, Drbg(7))
        pi = oracle_prove(pp, Witness(ghz_witness(), 5), Drbg(8))
        assert oracle_verify(ghz, pi, r) == 1

    def test_wrong_claim_rejected(self):
        pp, r = oracle_keygen(YES, Drbg(9))
        pi = oracle_prove(pp, Witness.empty(), Drbg(10))
        assert oracle_verify(NO, pi, r) == 0


class TestShareClaimJudge:
    """The classical part of a witness (commitment openings) reaches the
    share language's verifier through `Witness.classical`, on the judge, the
    QMA verifier, its exact certificate and the TOY prover alike."""

    OPENINGS = [Drbg(b"share-judge").child(f"r{i}").bytes(KEY_LEN) for i in range(3)]
    COMMITMENTS = tuple(commit(bytes([i + 1]), r) for i, r in enumerate(OPENINGS))
    CLAIM = claim_for(make_share_language(fixture("th23"), COMMITMENTS), b"".join(COMMITMENTS))

    def judge(self, classical: bytes) -> bool:
        return judge_accepts(self.CLAIM, replace(Witness.empty(), classical=classical), Drbg(11))

    def test_qualified_openings_accept(self):
        a, b, _ = self.OPENINGS
        assert self.judge(a + b + bytes(KEY_LEN))
        assert self.judge(b"".join(self.OPENINGS))

    def test_zero_filled_openings_reject(self):
        a, _, _ = self.OPENINGS
        assert not self.judge(bytes(3 * KEY_LEN))
        assert not self.judge(a + bytes(2 * KEY_LEN))   # one party is not qualified

    def test_qma_verify_reads_the_classical_part(self):
        L = resolve_language(self.CLAIM.lang_ref)
        a, b, _ = self.OPENINGS
        for classical, want in ((a + b + bytes(KEY_LEN), 1), (bytes(3 * KEY_LEN), 0)):
            assert qma_verify(L, self.CLAIM.x, replace(Witness.empty(), classical=classical),
                              Drbg(12)) == want

    def test_exact_certificate_reads_the_classical_part(self):
        L = resolve_language(self.CLAIM.lang_ref)
        a, b, _ = self.OPENINGS
        for classical, want in ((a + b + bytes(KEY_LEN), 1.0), (a + bytes(2 * KEY_LEN), 0.0)):
            assert exact_accept_probability(
                L, self.CLAIM.x, replace(Witness.empty(), classical=classical)) == want

    def toy_run(self, classical: bytes) -> tuple[float, int]:
        """(output-check probability, TOY verdict) of an honest TOY proof."""
        witness = replace(Witness.empty(), classical=classical)
        pp, r = toy_keygen(self.CLAIM, Drbg(13))
        assert any(r.body.bases)   # the key checks at least one position
        return (cvqc._output_check_probability(self.CLAIM, witness),
                toy_verify(self.CLAIM, toy_prove(pp, witness, Drbg(14)), r))

    def test_toy_prover_reads_the_classical_part(self):
        a, b, _ = self.OPENINGS
        assert self.toy_run(a + b + bytes(KEY_LEN)) == (1.0, 1)
        assert self.toy_run(a + bytes(2 * KEY_LEN)) == (0.0, 0)


class TestToyProtocol:
    def test_honest_accept_rate(self):
        accepted = 0
        for s in range(100):
            pp, r = toy_keygen(YES, Drbg(100 + s))
            pi = toy_prove(pp, Witness.empty(), Drbg(200 + s))
            accepted += toy_verify(YES, pi, r)
        assert accepted >= 90

    def test_no_instance_reject_rate(self):
        accepted = 0
        for s in range(100):
            pp, r = toy_keygen(NO, Drbg(300 + s))
            pi = toy_prove(pp, Witness.empty(), Drbg(400 + s))
            accepted += toy_verify(NO, pi, r)
        assert accepted <= 10

    def test_flip_semantics(self):
        pp, r = toy_keygen(YES, Drbg(11))
        pi = toy_prove(pp, Witness.empty(), Drbg(12))
        assert toy_verify(YES, pi, r) == 1
        for i, basis in enumerate(r.body.bases):
            mutated = list(pi)
            b, d = mutated[i]
            mutated[i] = (1 - b, d)
            got = toy_verify(YES, tuple(mutated), r)
            assert got == (1 if basis == 0 else 0)

    def test_malformed_arity(self):
        pp, r = toy_keygen(YES, Drbg(13))
        pi = toy_prove(pp, Witness.empty(), Drbg(14))
        with pytest.raises(MalformedProof):
            toy_verify(YES, pi[:-1], r)

    @pytest.mark.parametrize("proto", sorted(cvqc.PROTOCOLS))
    def test_unknown_proof_tag_is_malformed(self, proto):
        for blob in (b"", b"R", b"R" + bytes(16), b"S" + bytes(18)):
            with pytest.raises(MalformedProof):
                decode_base_proof(proto, blob)

    def test_proof_encoding_roundtrip(self):
        pp, _ = toy_keygen(YES, Drbg(15))
        pi = toy_prove(pp, Witness.empty(), Drbg(16))
        assert decode_base_proof(PROTO_TOY, encode_base_proof(PROTO_TOY, pi)) == pi

    @pytest.mark.parametrize("pi, error", [
        (((0, 1), 2), TypeError),
        (((0, 1), (1, 2, 3)), ValueError),
        (((0, 1), (1,)), ValueError),
        (((0, 256),), ValueError),
        (((-1, 0),), ValueError),
        (((0.5, 0),), TypeError),
        (((0, 0),) * 256, ValueError),
        ((iter((0, 1)),), ValueError),
    ], ids=["non-pair", "triple", "single", "over-255", "negative", "float", "too-long",
            "one-shot"])
    def test_proof_encoding_rejects_bad_entries(self, pi, error):
        with pytest.raises(error):
            encode_base_proof(PROTO_TOY, pi)

    def test_proof_decoding_roundtrip_and_length_checks(self):
        d = Drbg(24)
        for K in range(256):
            pi = tuple((d.bit(), d.bytes(1)[0]) for _ in range(K))
            blob = encode_base_proof(PROTO_TOY, pi)
            assert decode_base_proof(PROTO_TOY, blob) == pi
            wrong = [blob[:n] for n in range(len(blob))] + [blob + b"\x00", blob + b"\x00\x00"]
            wrong += [b"T" + bytes([c]) + blob[2:] for c in ((K - 1) % 256, (K + 1) % 256)]
            for bad in wrong:
                with pytest.raises(MalformedProof):
                    decode_base_proof(PROTO_TOY, bad)


def reference_toy_encoding(pi) -> bytes:
    """The TOY base-proof encoder written as one comprehension, the layout of
    FORMATS.md: "T" | K | (b_i | d_i)*."""
    return b"T" + bytes([len(pi), *[v for b, d in pi for v in (b, d)]])


BYTE = st.integers(0, 255)
# entries the comprehension rejects: not a pair, a value outside 0..255, a non-int
BAD_ENTRIES = st.one_of(
    st.integers(-5, 300), st.none(), st.just(()), st.tuples(BYTE),
    st.tuples(BYTE, BYTE, BYTE), st.text(max_size=3),
    st.tuples(st.integers(256, 10**4) | st.integers(-10**4, -1), BYTE),
    st.tuples(BYTE, st.floats(0, 255) | st.text(max_size=1) | st.none()),
    st.tuples(BYTE, BYTE, st.floats(0, 255)),
)


@st.composite
def toy_proofs(draw, max_K=255):
    """K (b, d) pairs of bytes, each a tuple or, when its flag byte is odd, a list."""
    K = draw(st.integers(0, max_K))
    values = draw(st.binary(min_size=2 * K, max_size=2 * K))
    flags = draw(st.binary(min_size=K, max_size=K))
    return [[b, d] if f & 1 else (b, d) for b, d, f in zip(values[::2], values[1::2], flags)]


@st.composite
def malformed_proofs(draw):
    """A TOY proof with up to 3 rejected entries spliced in, or K >= 256."""
    pi = draw(toy_proofs(300))
    for _ in range(draw(st.integers(0 if len(pi) >= 256 else 1, 3))):
        pi.insert(draw(st.integers(0, len(pi))), draw(BAD_ENTRIES))
    return tuple(pi)


def raised(encode, pi):
    """The exception type `encode(pi)` raises, or None."""
    try:
        encode(pi)
    except Exception as e:
        return type(e)
    return None


class TestToyProofEncoder:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(toy_proofs())
    def test_encoding_matches_the_comprehension(self, pi):
        pi = tuple(pi)
        assert encode_base_proof(PROTO_TOY, pi) == reference_toy_encoding(pi)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(malformed_proofs())
    def test_rejections_match_the_comprehension(self, pi):
        want = raised(reference_toy_encoding, pi)
        assert want in (TypeError, ValueError)
        assert raised(lambda p: encode_base_proof(PROTO_TOY, p), pi) is want


def reference_verdict(pi, vk, mask: bytes) -> int:
    """The per-pair TOY rule that the key's check table replaces."""
    d_bound = 1 << vk.w
    read_all = vk.variant == TOY_LINEAR
    mismatches = 0
    for i, (b, d) in enumerate(pi):
        if b not in (0, 1) or not 0 <= d < d_bound:
            raise MalformedProof("proof entry out of range")
        if ((read_all or vk.bases[i] == 1) and mask[i // 8] >> (7 - i % 8) & 1
                and b ^ (bin(d & vk.secrets[i]).count("1") & 1) != vk.target[i]):
            mismatches += 1
    return 1 if mismatches <= vk.tau else 0


@st.composite
def toy_cases(draw):
    """(decoded key, check mask, proof, whether the proof has an
    out-of-range entry). Columns are drawn as bytes and reduced into range;
    targets are mostly 0/1, but a decoded key may carry any byte there."""
    w, tau = draw(st.integers(1, 8)), draw(st.integers(0, 2))
    variant = draw(st.sampled_from((TOY_STANDARD, TOY_STATS, TOY_LINEAR)))
    K = draw(st.one_of(st.integers(0, 24), st.integers(240, 255)))
    column = lambda: draw(st.binary(min_size=K, max_size=K))
    bases, secrets = bytes(x & 1 for x in column()), bytes(x >> (8 - w) for x in column())
    target = bytes(x & 1 if x < 224 else x for x in column())
    blob = pack_fields(b"T", bases, secrets, target, bytes([tau, w]), variant.encode(),
                       bytes(16) if variant == TOY_STATS else b"")
    mask = draw(st.one_of(st.just(cvqc._EVERY_POSITION), st.binary(min_size=32, max_size=32)))
    pi = [(b & 1, d >> (8 - w)) for b, d in zip(column(), column())]
    hostile = K > 0 and draw(st.booleans())
    if hostile:
        d_ok = st.integers(0, (1 << w) - 1)
        pi[draw(st.integers(0, K - 1))] = draw(st.one_of(
            st.tuples(st.integers(2, 300), d_ok),
            st.tuples(st.integers(0, 1), st.integers(1 << w, 300)),
            st.tuples(st.integers(-3, -1), d_ok),
            st.tuples(st.integers(0, 1), st.integers(-3, -1))))
    return CvqcVerifyKey.from_bytes(blob), mask, tuple(pi), hostile


def verdict_or_error(verify, *args):
    try:
        return verify(*args)
    except MalformedProof:
        return MalformedProof


class TestCheckTable:
    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(toy_cases())
    def test_table_verdict_matches_per_pair_rule(self, case):
        """The pair reader, which reads every position, and on every proof
        that has an encoding the byte reader, under any mask, give the
        per-pair rule's verdict or error."""
        r, mask, pi, hostile = case
        vk = r.body
        want = verdict_or_error(reference_verdict, pi, vk, mask)
        assert (want is MalformedProof) == hostile
        if mask == cvqc._EVERY_POSITION:
            assert verdict_or_error(cvqc._toy_verdict, pi, vk) == want
            assert verdict_or_error(toy_verify, YES, pi, r) == want
        if all(0 <= v <= 255 for pair in pi for v in pair):
            enc = encode_base_proof(PROTO_TOY, pi)
            assert verdict_or_error(cvqc._toy_verdict_bytes, enc, vk, mask) == want
        assert len(vk.checks) <= vk.K <= 255
        assert all(len(expected) == 1 << vk.w for *_, expected in vk.checks)

    @pytest.mark.parametrize("variant", (TOY_STANDARD, TOY_LINEAR))
    def test_byte_reader_rejects_unreadable_encodings(self, variant):
        pp, r = toy_keygen(YES, Drbg(27), ToyParams(variant=variant))
        vk = r.body
        enc = encode_base_proof(PROTO_TOY, toy_prove(pp, Witness.empty(), Drbg(28)))
        assert cvqc._toy_verdict_bytes(enc, vk, cvqc._EVERY_POSITION) == 1
        K = enc[1]
        bad = [b"S" + enc[1:], b"O" + enc[1:], enc[:1] + bytes([K - 1]) + enc[2:],
               enc[:1] + bytes([K + 1]) + enc[2:], enc[:1] + bytes([K + 1]) + enc[2:] + b"\x00\x00",
               enc[:-1], enc + b"\x00", b"", b"T"]
        for j in range(2, len(enc), 2):  # every position, read or ignored
            bad += [enc[:j] + bytes([b]) + enc[j + 1:] for b in (2, 3, 128, 255)]
            bad += [enc[:j + 1] + bytes([d]) + enc[j + 2:] for d in (1 << vk.w, 255)]
        for blob in bad:
            with pytest.raises(MalformedProof):
                cvqc._toy_verdict_bytes(blob, vk, cvqc._EVERY_POSITION)

    def test_table_is_built_once_per_key(self, monkeypatch):
        pp, r = toy_keygen(YES, Drbg(25))
        pi = toy_prove(pp, Witness.empty(), Drbg(26))
        sealed = sealed_toy_verifier(YES, r)
        assert sealed.run(encode_base_proof(PROTO_TOY, pi)) == b"\x01"
        built = []
        real = cvqc._dot_bits
        monkeypatch.setattr(cvqc, "_dot_bits", lambda *a: built.append(a) or real(*a))
        for _ in range(3):
            assert sealed.run(encode_base_proof(PROTO_TOY, pi)) == b"\x01"
        assert built == []


class TestStarLayer:
    def test_roundtrip(self):
        s = keygen_star(YES, PROTO_TOY, Drbg(17))
        proof = star_prove(s.pp, Witness.empty(), s.oracle, Drbg(18))
        assert star_verify(YES, proof, s.r, s.oracle) == 1

    def test_tampered_hash(self):
        s = keygen_star(YES, PROTO_TOY, Drbg(19))
        proof = star_prove(s.pp, Witness.empty(), s.oracle, Drbg(20))
        bad = CvqcProof(proof.pi, bytes(17))
        assert star_verify(YES, bad, s.r, s.oracle) == 0

    def test_tampered_proof_with_original_hash(self):
        s = keygen_star(YES, PROTO_TOY, Drbg(21))
        proof = star_prove(s.pp, Witness.empty(), s.oracle, Drbg(22))
        d = Drbg(23)
        tested = 0
        rejected = 0
        for _ in range(10 ** 4):
            pi = tuple((d.bit(), d.randint(0, 15)) for _ in range(8))
            if pi == proof.pi:
                continue
            tested += 1
            rejected += 1 - star_verify(YES, CvqcProof(pi, proof.h), s.r, s.oracle)
        assert rejected == tested

    @pytest.mark.parametrize("gen", (keygen_star, td_gen), ids=("keygen", "tdgen"))
    def test_unreadable_proof_with_a_matching_digest_rejects(self, gen):
        # a well-encoded proof of 4 pairs (setups of one seed share their
        # oracle seed whatever their params, so the mini proof of a keygen
        # setup carries a valid digest for the default-params one) or with an
        # entry out of range, under the digest the setup's oracle gives it
        s = gen(YES, PROTO_TOY, Drbg(35))
        mini = gen(YES, PROTO_TOY, Drbg(35), MINI_PARAMS)
        short = star_prove(mini.pp, Witness.empty(), mini.oracle, Drbg(36))
        honest = star_prove(s.pp, Witness.empty(), s.oracle, Drbg(37))
        i = s.r.body.bases.index(0)
        out_of_range = honest.pi[:i] + ((7, 200),) + honest.pi[i + 1:]
        sealed = cvqc._sealed_verdict(*cvqc.star_gate(s, False))
        for pi in (short.pi, out_of_range):
            proof = CvqcProof(pi, ro_query(s.oracle, encode_base_proof(PROTO_TOY, pi)))
            assert star_verify(YES, proof, s.r, s.oracle) == 0
            assert sealed.run(proof.encode(PROTO_TOY)) == b"\x00"
            if s.td is not None:
                assert td_verify(YES, proof, s.td, s.oracle, PROTO_TOY) == 0
        assert sealed.run(honest.encode(PROTO_TOY)) == b"\x01"


    def test_pairs_outside_a_tuple_reject(self):
        # the pair verifier reads a tuple of pairs; a list encodes the same
        # bytes, and the digest the oracle gives them does not make it read
        s = keygen_star(YES, PROTO_TOY, Drbg(38))
        honest = star_prove(s.pp, Witness.empty(), s.oracle, Drbg(39))
        assert star_verify(YES, CvqcProof(tuple(honest.pi), honest.h), s.r, s.oracle) == 1
        assert star_verify(YES, CvqcProof(list(honest.pi), honest.h), s.r, s.oracle) == 0


class TestTrapdoorLayer:
    def test_same_seed_same_keys(self):
        honest = keygen_star(YES, PROTO_TOY, Drbg(24))
        trapdoor = td_gen(YES, PROTO_TOY, Drbg(24))
        assert honest.pp.to_bytes() == trapdoor.pp.to_bytes()
        assert honest.r.to_bytes() == trapdoor.r.to_bytes()

    def test_oracle_bit_unmasks_verdict(self):
        s = td_gen(YES, PROTO_TOY, Drbg(25))
        d = Drbg(26)
        from qnk.primitives import prf_eval
        for _ in range(200):
            pi = tuple((d.bit(), d.randint(0, 15)) for _ in range(8))
            enc = encode_base_proof(PROTO_TOY, pi)
            bit = ro_query(s.oracle, enc)[16] ^ (prf_eval(s.td, enc)[0] & 1)
            assert bit == toy_verify(YES, pi, s.r)

    def test_verification_equivalence_mini(self):
        s = td_gen(YES, PROTO_TOY, Drbg(27), MINI_PARAMS)
        for pi in mini_proofs():
            h = ro_query(s.oracle, encode_base_proof(PROTO_TOY, pi))
            proof = CvqcProof(pi, h)
            assert star_verify(YES, proof, s.r, s.oracle) == \
                td_verify(YES, proof, s.td, s.oracle, PROTO_TOY)

    def test_td_verify_honest_proof(self):
        s = td_gen(YES, PROTO_TOY, Drbg(28))
        proof = star_prove(s.pp, Witness.empty(), s.oracle, Drbg(29))
        assert td_verify(YES, proof, s.td, s.oracle, PROTO_TOY) == 1

    def test_mismatched_hash_rejected(self):
        s = td_gen(YES, PROTO_TOY, Drbg(30))
        proof = star_prove(s.pp, Witness.empty(), s.oracle, Drbg(31))
        assert td_verify(YES, CvqcProof(proof.pi, bytes(17)), s.td, s.oracle,
                         PROTO_TOY) == 0


    @pytest.mark.parametrize("gen", (td_gen, sim_gen), ids=("tdgen", "simgen"))
    def test_verifiers_agree_on_pairs_outside_a_tuple(self, gen):
        # an honest proof's pairs in a list, under the digest the oracle gives
        # their bytes: the trapdoor verifier rejects them as `star_verify` does,
        # with the setup's own trapdoor and with a foreign one
        s = gen(YES, PROTO_TOY, Drbg(40))
        r = td_gen(YES, PROTO_TOY, Drbg(40)).r  # the key sim_gen drops
        honest = star_prove(s.pp, Witness.empty(), s.oracle, Drbg(41))
        listed = CvqcProof(list(honest.pi), honest.h)
        verdicts = [star_verify(YES, listed, r, s.oracle)] + [
            td_verify(YES, listed, td, s.oracle, PROTO_TOY) for td in (s.td, prf_gen(Drbg(42)))]
        assert verdicts == [0, 0, 0]
        if gen is td_gen:
            assert star_verify(YES, honest, r, s.oracle) == 1
            assert td_verify(YES, honest, s.td, s.oracle, PROTO_TOY) == 1


class TestSimMode:
    def test_consistent_pairs_never_accept(self):
        s = sim_gen(YES, PROTO_TOY, Drbg(32), MINI_PARAMS)
        for pi in mini_proofs():
            h = ro_query(s.oracle, encode_base_proof(PROTO_TOY, pi))
            assert td_verify(YES, CvqcProof(pi, h), s.td, s.oracle, PROTO_TOY) == 0

    def test_inconsistent_pairs_never_accept(self):
        s = sim_gen(YES, PROTO_TOY, Drbg(33))
        d = Drbg(34)
        for _ in range(1000):
            pi = tuple((d.bit(), d.randint(0, 15)) for _ in range(8))
            assert td_verify(YES, CvqcProof(pi, d.bytes(17)), s.td, s.oracle,
                             PROTO_TOY) == 0

    def test_oracles_agree_on_honest_traces_of_null_claims(self):
        # a null claim's honest prover queries are all rejecting inputs, so
        # the trapdoor and simulation oracles answer them identically
        claim = claim_for(fixture("null0"), b"\x01", reps=1)
        tdo = td_gen(claim, PROTO_TOY, Drbg(35))
        simo = sim_gen(claim, PROTO_TOY, Drbg(35))
        for s in range(50):
            pi = toy_prove(tdo.pp, Witness.empty(copies=1), Drbg(500 + s))
            enc = encode_base_proof(PROTO_TOY, pi)
            assert ro_query(tdo.oracle, enc) == ro_query(simo.oracle, enc)


# ---------------------------------------------------------------------------
# what a TDGEN oracle keeps: the verdict bits it masked, which td_verify
# reads back under the oracle's own trapdoor and which may change no verdict

DUAL_GENS = {"tdgen": td_gen, "simgen": sim_gen, "uniform": keygen_star}


@functools.lru_cache(maxsize=None)
def dual_setup(mode: str, proto: str):
    """A setup of the mode and protocol, with the base proof of an honest
    prover, its oracle spec and a trapdoor key that is not the oracle's."""
    s = DUAL_GENS[mode](YES, proto, Drbg(b"kept-" + mode.encode()))
    honest = star_prove(s.pp, Witness.empty(), s.oracle, Drbg(b"kept-prove")).pi
    return s, honest, oracle_spec(s), PrfKey(Drbg(b"kept-other").bytes(KEY_LEN))


def unmasked_verdict(proof, td, oracle, proto) -> int:
    """The PRF-recomputing formula: re-encode pi, check the digest, unmask
    the last bit with F(td, pi)."""
    enc = encode_base_proof(proto, proof.pi)
    if ro_query(oracle, enc) != proof.h:
        return 0
    return (proof.h[16] & 1) ^ (prf_eval(td, enc)[0] & 1)


@st.composite
def dual_cases(draw):
    """(setup, fresh oracle, proto, key, proof, digest matches): an honest or
    random base proof under a matching or forged digest, and the oracle's own
    key, an equal key rebuilt from its bytes, or another key (the only one a
    UNIFORM oracle, which has no trapdoor, is given)."""
    mode = draw(st.sampled_from(sorted(DUAL_GENS)))
    proto = draw(st.sampled_from(sorted(cvqc.PROTOCOLS)))
    s, honest, spec, other = dual_setup(mode, proto)
    oracle = oracle_from_spec(spec)
    kinds = ("own", "rebuilt", "other") if oracle.td is not None else ("other",)
    kind = draw(st.sampled_from(kinds))
    td = (oracle.td if kind == "own" else other if kind == "other"
          else PrfKey(oracle.td.bytes))
    if draw(st.booleans()):
        pi = honest
    elif proto == PROTO_TOY:
        pi = tuple(draw(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 15)),
                                 min_size=8, max_size=8)))
    else:
        pi = draw(st.binary(min_size=16, max_size=16))
    # the digest comes from a second oracle, so td_verify's own query is
    # the first one its oracle answers
    h = ro_query(oracle_from_spec(spec), encode_base_proof(proto, pi))
    matches = draw(st.booleans())
    if not matches:
        h = h[:16] + bytes([h[16] ^ draw(st.integers(1, 255))])
    return s, oracle, proto, td, CvqcProof(pi, h), matches


class TestKeptVerdict:
    @settings(derandomize=True, max_examples=200, deadline=None, database=None)
    @given(dual_cases())
    def test_td_verify_equals_the_unmasking(self, case):
        s, oracle, proto, td, proof, matches = case
        got = td_verify(YES, proof, td, oracle, proto)
        assert got == unmasked_verdict(proof, td, oracle_from_spec(oracle_spec(s)), proto)
        if not matches:
            assert got == 0

    @pytest.mark.parametrize("proto", sorted(cvqc.PROTOCOLS))
    def test_own_key_reads_the_verdict_without_the_prf(self, proto, monkeypatch):
        s, honest, spec, _ = dual_setup("tdgen", proto)
        oracle = oracle_from_spec(spec)
        proof = CvqcProof(honest, ro_query(oracle, encode_base_proof(proto, honest)))
        calls = []
        monkeypatch.setattr(cvqc, "prf_eval", lambda *a: calls.append(a))
        for td in (oracle.td, s.td, PrfKey(s.td.bytes)):
            assert td_verify(YES, proof, td, oracle, proto) == 1
        assert calls == []

    def test_batch_and_sealed_gate_make_no_trapdoor_prf_call(self, monkeypatch):
        """Regression guard, counted through the module attribute: a TDGEN
        batch of `star_prove` proofs checked by both verifiers, then by the
        sealed CVQC_TDVERIFY gate, calls `cvqc.prf_eval` nowhere. A
        `td_verify` that recomputed F(td, pi) would call it once a proof."""
        s = td_gen(YES, PROTO_TOY, Drbg(b"kept-batch"))
        sealed = sealed_star_td_verifier(s)
        proofs = [star_prove(s.pp, Witness.empty(), s.oracle, Drbg(b"kept-batch%d" % i))
                  for i in range(8)]
        calls = []
        real = cvqc.prf_eval
        monkeypatch.setattr(cvqc, "prf_eval", lambda *a: calls.append(a) or real(*a))
        assert [star_verify(YES, p, s.r, s.oracle) for p in proofs] == [1] * 8
        assert [td_verify(YES, p, s.td, s.oracle, PROTO_TOY) for p in proofs] == [1] * 8
        assert [sealed.run(p.encode(PROTO_TOY)) for p in proofs] == [b"\x01"] * 8
        assert calls == []


class TestVariants:
    def test_stats_variant_checks_subset(self):
        pp, r = toy_keygen(YES, Drbg(36), ToyParams(variant=TOY_STATS))
        salt, pi = toy_prove_stats(pp, Witness.empty(), Drbg(37))
        assert stats_verify(YES, salt, pi, r) == 1

    def test_linear_variant_checks_all_positions(self):
        pp, r = toy_keygen(YES, Drbg(38), ToyParams(variant=TOY_LINEAR))
        pi = toy_prove(pp, Witness.empty(), Drbg(39))
        assert toy_verify(YES, pi, r) == 1
        for i in range(r.body.K):
            mutated = list(pi)
            b, d = mutated[i]
            mutated[i] = (1 - b, d)
            assert toy_verify(YES, tuple(mutated), r) == 0

    def test_verify_key_serialization(self):
        for params in (ToyParams(), MINI_PARAMS, ToyParams(variant=TOY_STATS)):
            _, r = toy_keygen(YES, Drbg(40), params)
            assert CvqcVerifyKey.from_bytes(r.to_bytes()).to_bytes() == r.to_bytes()
        _, r = oracle_keygen(YES, Drbg(41))
        assert CvqcVerifyKey.from_bytes(r.to_bytes()).to_bytes() == r.to_bytes()

    @pytest.mark.parametrize("proto", ["oracle", "toy"])
    def test_verify_key_trailing_bytes_rejected(self, proto):
        keygen = oracle_keygen if proto == "oracle" else toy_keygen
        _, r = keygen(YES, Drbg(41))
        with pytest.raises(MalformedCiphertext):
            CvqcVerifyKey.from_bytes(r.to_bytes() + b"junk")

    @pytest.mark.parametrize("params", [ToyParams(w=0), ToyParams(w=9), ToyParams(K=256),
                                        ToyParams(variant="Linear")],
                             ids=["w-0", "w-9", "K-256", "variant-Linear"])
    def test_keygen_refuses_keys_the_decoder_rejects(self, params):
        with pytest.raises(DomainMismatch):
            toy_keygen(YES, Drbg(41), params)

    def test_unknown_variant_key_rejected(self):
        # a linear key reads every position; re-packed under a name outside
        # the three variants it would be read as a standard key, which skips
        # the positions with basis 0 and accepts a proof flipped at one
        pp, r = toy_keygen(YES, Drbg(1), ToyParams(variant=TOY_LINEAR))
        pi = toy_prove(pp, Witness.empty(), Drbg(2))
        i = r.body.bases.index(0)
        flipped = pi[:i] + ((1 - pi[i][0], pi[i][1]),) + pi[i + 1:]
        assert (toy_verify(YES, pi, r), toy_verify(YES, flipped, r)) == (1, 0)
        as_standard = CvqcVerifyKey(PROTO_TOY, replace(r.body, variant=TOY_STANDARD))
        assert toy_verify(YES, flipped, as_standard) == 1
        fields = unpack_fields(r.to_bytes(), 7)
        for name in (b"Linear", b"LINEAR", b"linear\x00", b""):
            with pytest.raises(MalformedCiphertext):
                CvqcVerifyKey.from_bytes(pack_fields(*fields[:5], name, fields[6]))

    def test_unknown_variant_params_rejected(self):
        pp, _ = toy_keygen(YES, Drbg(1), ToyParams(variant=TOY_LINEAR))
        *head, variant = unpack_fields(unseal(pp.pp), 5)
        assert variant == b"linear"
        bad = replace(pp, pp=seal(pack_fields(*head, b"Linear"), b"cvqc-toy-pp"))
        with pytest.raises(MalformedCiphertext):
            toy_prove(bad, Witness.empty(), Drbg(2))

    def test_verify_key_bad_parameters_rejected(self):
        _, r = toy_keygen(YES, Drbg(41))
        fields = unpack_fields(r.to_bytes(), 7)
        for i, bad in ((4, b"\x00"), (5, b"\xff")):  # (tau, w) pair, variant name
            with pytest.raises(MalformedCiphertext):
                CvqcVerifyKey.from_bytes(pack_fields(*fields[:i], bad, *fields[i + 1:]))


def random_pairs(d: Drbg, r: CvqcVerifyKey):
    return tuple((d.bit(), d.randint(0, (1 << r.body.w) - 1)) for _ in range(r.body.K))


def count_calls(monkeypatch, cls, name: str) -> list:
    calls = []
    original = getattr(cls, name)

    def counted(_cls, blob):
        calls.append(blob)
        return original(blob)

    monkeypatch.setattr(cls, name, classmethod(counted))
    return calls


class TestSealedVerifiers:
    """Sealed TOY verifiers decode their hidden key once per program."""

    def test_toy_key_decoded_once_and_verdicts_match(self, monkeypatch):
        pp, r = toy_keygen(YES, Drbg(50))
        honest = toy_prove(pp, Witness.empty(), Drbg(51))
        sealed = sealed_toy_verifier(YES, r)
        claims = count_calls(monkeypatch, Claim, "from_bytes")
        keys = count_calls(monkeypatch, CvqcVerifyKey, "from_bytes")
        d = Drbg(52)
        proofs = [honest] + [random_pairs(d, r) for _ in range(49)]
        for pi in proofs:
            got = sealed.run(encode_base_proof(PROTO_TOY, pi))
            assert got == bytes([toy_verify(YES, pi, r)])
        assert sealed.run(encode_base_proof(PROTO_TOY, honest)) == b"\x01"
        assert (len(claims), len(keys)) == (1, 1)

    def test_stats_key_decoded_once_and_verdicts_match(self, monkeypatch):
        pp, r = toy_keygen(YES, Drbg(53), ToyParams(variant=TOY_STATS))
        salt, honest = toy_prove_stats(pp, Witness.empty(), Drbg(54))
        sealed = sealed_stats_verifier(YES, r)
        keys = count_calls(monkeypatch, CvqcVerifyKey, "from_bytes")
        d = Drbg(55)
        salted = [(salt, honest)] + [(d.bytes(16), random_pairs(d, r)) for _ in range(49)]
        for s, pi in salted:
            assert sealed.run(stats_encode(s, pi)) == bytes([stats_verify(YES, s, pi, r)])
        assert sealed.run(stats_encode(salt, honest)) == b"\x01"
        assert len(keys) == 1

    def test_sealed_stats_verdicts_match_without_reencoding(self, monkeypatch):
        pp, r = toy_keygen(YES, Drbg(61), ToyParams(variant=TOY_STATS))
        salt, honest = toy_prove_stats(pp, Witness.empty(), Drbg(62))
        i = r.body.bases.index(0)
        d = Drbg(63)
        salted = [(salt, honest), (salt, honest[:i] + ((7, 200),) + honest[i + 1:]),
                  (salt, honest[:-1])] + [(d.bytes(16), random_pairs(d, r)) for _ in range(49)]
        want = []
        for s, pi in salted:
            try:
                want.append(stats_verify(YES, s, pi, r))
            except MalformedProof:
                want.append(0)
        blobs = [stats_encode(s, pi) for s, pi in salted]
        sealed = sealed_stats_verifier(YES, r)
        encodes = []
        monkeypatch.setattr(cvqc, "stats_encode", lambda *a: encodes.append(a))
        assert [sealed.run(blob)[0] for blob in blobs] == want
        assert want[0] == 1 and 0 < sum(want[3:]) < 49
        assert encodes == []

    def test_malformed_proof_bytes_reject(self):
        pp, r = toy_keygen(YES, Drbg(56), ToyParams(variant=TOY_STATS))
        salt, pi = toy_prove_stats(pp, Witness.empty(), Drbg(57))
        assert stats_verify(YES, salt, pi, r) == 1
        # an out-of-range entry at an ignored position
        i = r.body.bases.index(0)
        out_of_range = pi[:i] + ((7, 200),) + pi[i + 1:]
        for sealed in (sealed_toy_verifier(YES, r), sealed_stats_verifier(YES, r)):
            for bad in (b"", b"T", b"garbage", b"T\x05\x00", b"S" + b"\x00" * 20,
                        b"S" + bytes(16) + b"T",
                        encode_base_proof(PROTO_TOY, out_of_range),
                        stats_encode(salt, out_of_range)):
                assert sealed.run(bad) == b"\x00"

    def test_verifiers_with_different_keys_stay_apart(self):
        pp1, r1 = toy_keygen(YES, Drbg(57))
        pp2, r2 = toy_keygen(YES, Drbg(58))
        pi1 = toy_prove(pp1, Witness.empty(), Drbg(59))
        pi2 = toy_prove(pp2, Witness.empty(), Drbg(60))
        v1, v2 = sealed_toy_verifier(YES, r1), sealed_toy_verifier(YES, r2)
        # a round trip through bytes gives a fresh program with the same key
        v1_again = SealedProgram.from_bytes(v1.to_bytes())
        verdicts = set()
        for _ in range(3):
            for pi in (pi1, pi2):
                enc = encode_base_proof(PROTO_TOY, pi)
                want1, want2 = toy_verify(YES, pi, r1), toy_verify(YES, pi, r2)
                assert v1.run(enc) == v1_again.run(enc) == bytes([want1])
                assert v2.run(enc) == bytes([want2])
                verdicts.add((want1, want2))
        assert (1, 0) in verdicts and (0, 1) in verdicts

    def test_stats_subset_key_derived_once(self, monkeypatch):
        pp, r = toy_keygen(YES, Drbg(64), ToyParams(variant=TOY_STATS))
        salt, honest = toy_prove_stats(pp, Witness.empty(), Drbg(65))
        d = Drbg(66)
        salted = [(salt, honest)] + [(d.bytes(16), random_pairs(d, r)) for _ in range(20)]
        want = [bytes([stats_verify(YES, s, pi, r)]) for s, pi in salted]
        sealed = sealed_stats_verifier(YES, r)
        made = []
        real = cvqc.PrfKey
        monkeypatch.setattr(cvqc, "PrfKey", lambda *a: made.append(a) or real(*a))
        assert [sealed.run(stats_encode(s, pi)) for s, pi in salted] == want
        assert want[0] == b"\x01" and made == [(r.body.subset_key,)]

    @pytest.mark.parametrize("variant", (TOY_STANDARD, TOY_LINEAR))
    def test_keys_without_a_subset_key_decode_and_verify(self, variant):
        pp, r = toy_keygen(YES, Drbg(67), ToyParams(variant=variant))
        again = CvqcVerifyKey.from_bytes(r.to_bytes())
        assert again == r and again.body.subset_key == b""
        pi = encode_base_proof(PROTO_TOY, toy_prove(pp, Witness.empty(), Drbg(68)))
        assert sealed_toy_verifier(YES, again).run(pi) == b"\x01"
        with pytest.raises(DomainMismatch):
            again.body.subset_prf

    @pytest.mark.parametrize("length", (0, 15, 17))
    def test_wrong_length_subset_key_fails_on_every_call(self, length):
        pp, r = toy_keygen(YES, Drbg(69), ToyParams(variant=TOY_STATS))
        bad = CvqcVerifyKey(PROTO_TOY, replace(r.body, subset_key=bytes(length)))
        salt, pi = toy_prove_stats(pp, Witness.empty(), Drbg(70))
        sealed = sealed_stats_verifier(YES, bad)
        for _ in range(3):
            with pytest.raises(MalformedCircuit) as failed:
                sealed.run(stats_encode(salt, pi))
            assert isinstance(failed.value.__cause__, DomainMismatch)
            with pytest.raises(DomainMismatch):
                stats_verify(YES, salt, pi, bad)


# ---------------------------------------------------------------------------
# sealed surfaces read the proof bytes they are given; the reference decodes
# the bytes into pairs and runs the pair verifiers, as the gates once did


def decoded_toy_verdict(r, blob) -> int:
    try:
        return toy_verify(YES, decode_base_proof(PROTO_TOY, blob), r)
    except MalformedProof:
        return 0


def decoded_stats_verdict(r, blob) -> int:
    if blob[:1] != b"S" or len(blob) < 1 + KEY_LEN:
        return 0
    try:
        pi = decode_base_proof(PROTO_TOY, blob[1 + KEY_LEN:])
        return stats_verify(YES, blob[1:1 + KEY_LEN], pi, r)
    except MalformedProof:
        return 0


PAIR_VERIFIERS = {PROTO_ORACLE: oracle_verify, PROTO_TOY: toy_verify}


def decoded_star_verdict(s, proto, blob, use_td: bool) -> int:
    """Decode, re-encode, check the digest, then the base verifier on the
    pairs or (use_td) the PRF unmasking of the oracle's last bit."""
    try:
        proof = CvqcProof.decode(proto, blob)
    except (MalformedProof, MalformedCiphertext):
        return 0
    oracle = oracle_from_spec(oracle_spec(s))
    if use_td:
        return unmasked_verdict(proof, s.td, oracle, proto)
    if ro_query(oracle, encode_base_proof(proto, proof.pi)) != proof.h:
        return 0
    try:
        return PAIR_VERIFIERS[proto](YES, proof.pi, s.r)
    except MalformedProof:
        return 0


def decoded_base_verdict(s, proto, blob) -> int:
    try:
        return PAIR_VERIFIERS[proto](YES, decode_base_proof(proto, blob), s.r)
    except MalformedProof:
        return 0


TOY_SURFACES = {  # name: (sealed verifier, key params, salted input)
    "toy-standard": (sealed_toy_verifier, ToyParams(), False),
    "toy-linear": (sealed_toy_verifier, ToyParams(variant=TOY_LINEAR), False),
    "toy-mini": (sealed_toy_verifier, MINI_PARAMS, False),
    "toy-stats-key": (sealed_toy_verifier, ToyParams(variant=TOY_STATS), False),
    "stats": (sealed_stats_verifier, ToyParams(variant=TOY_STATS), True),
    "stats-standard-key": (sealed_stats_verifier, ToyParams(), True),
}
STAR_SURFACES = [(mode, proto, use_td) for proto in sorted(cvqc.PROTOCOLS)
                 for mode, use_td in (("uniform", False), ("tdgen", False), ("tdgen", True),
                                      ("simgen", True))]


@functools.lru_cache(maxsize=None)
def byte_surface(name):
    """(surface, honest input, reference) of a named surface: a sealed
    verifier's `run`, or the TDGEN oracle's verify closure."""
    if name in TOY_SURFACES:
        sealer, params, salted = TOY_SURFACES[name]
        pp, r = toy_keygen(YES, Drbg(b"bytes-" + name.encode()), params)
        pi = toy_prove(pp, Witness.empty(), Drbg(b"bytes-prove"))
        if salted:
            return (sealer(YES, r).run, stats_encode(Drbg(b"bytes-salt").bytes(KEY_LEN), pi),
                    lambda blob: decoded_stats_verdict(r, blob))
        return (sealer(YES, r).run, encode_base_proof(PROTO_TOY, pi),
                lambda blob: decoded_toy_verdict(r, blob))
    kind, mode, proto, use_td = name
    s, honest, spec, _ = dual_setup(mode, proto)
    enc = encode_base_proof(proto, honest)
    if kind == "closure":
        return (oracle_from_spec(spec).verify_closure, enc,
                lambda blob: decoded_base_verdict(s, proto, blob))
    h = ro_query(oracle_from_spec(spec), enc)
    return (cvqc._sealed_verdict(*cvqc.star_gate(s, use_td)).run, pack_fields(enc, h),
            lambda blob: decoded_star_verdict(s, proto, blob, use_td))


@st.composite
def mutated(draw, blob: bytes) -> bytes:
    """`blob` with up to 3 bytes set (mostly to small values), cut or added."""
    out = bytearray(blob)
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(("set", "cut", "add")))
        value = draw(st.one_of(st.integers(0, 2), st.integers(0, 17), BYTE))
        if edit == "add" or not out:
            out.insert(draw(st.integers(0, len(out))), value)
        elif edit == "set":
            out[draw(st.integers(0, len(out) - 1))] = value
        else:
            del out[draw(st.integers(0, len(out) - 1))]
    return bytes(out)


@st.composite
def star_inputs(draw, mode, proto):
    """A dual-mode proof whose base bytes are mutated under the digest the
    oracle gives them, then possibly mutated again as a whole."""
    _, honest, spec, _ = dual_setup(mode, proto)
    enc = draw(mutated(encode_base_proof(proto, honest)))
    blob = pack_fields(enc, ro_query(oracle_from_spec(spec), enc))
    return draw(mutated(blob)) if draw(st.booleans()) else blob


SURFACE_NAMES = ([*TOY_SURFACES] + [("star", *case) for case in STAR_SURFACES]
                 + [("closure", "tdgen", proto, False) for proto in sorted(cvqc.PROTOCOLS)])


class TestByteReaders:
    @pytest.mark.parametrize("name", SURFACE_NAMES, ids=str)
    @settings(derandomize=True, max_examples=150, deadline=None, database=None)
    @given(data=st.data())
    def test_surface_matches_decode_then_verify(self, name, data):
        surface, honest, reference = byte_surface(name)
        if name[0] == "star" and data.draw(st.booleans()):
            blob = data.draw(star_inputs(*name[1:3]))
        else:
            blob = data.draw(st.one_of(mutated(honest), st.binary(max_size=2 * len(honest))))
        got = surface(blob)
        want = reference(blob)
        assert got == (bytes([want]) if isinstance(got, bytes) else want)

    @pytest.mark.parametrize("name", SURFACE_NAMES, ids=str)
    def test_honest_input_accepts_unless_simulated(self, name):
        surface, honest, reference = byte_surface(name)
        want = 0 if name[:2] == ("star", "simgen") or name == "stats-standard-key" else 1
        assert reference(honest) == want
        assert surface(honest) in (want, bytes([want]))

    def test_broken_subset_key_fails_between_layout_and_range_checks(self):
        """As `stats_verify` orders them: a salted proof of the wrong layout
        is rejected before the subset PRF, whose broken key then fails on a
        well-laid-out proof, even one with an entry out of range."""
        pp, r = toy_keygen(YES, Drbg(71), ToyParams(variant=TOY_STATS))
        bad = CvqcVerifyKey(PROTO_TOY, replace(r.body, subset_key=bytes(15)))
        salt, pi = toy_prove_stats(pp, Witness.empty(), Drbg(72))
        sealed = sealed_stats_verifier(YES, bad)
        for unreadable in (stats_encode(salt, pi[:-1]), stats_encode(salt[1:], pi),
                           b"S" + stats_encode(salt, pi)[1:-1]):
            assert sealed.run(unreadable) == b"\x00"
        for readable_layout in (pi, ((7, 200),) + pi[1:]):
            with pytest.raises(MalformedCircuit) as failed:
                sealed.run(stats_encode(salt, readable_layout))
            assert isinstance(failed.value.__cause__, DomainMismatch)
            with pytest.raises(DomainMismatch):
                stats_verify(YES, salt, readable_layout, bad)

    @pytest.mark.parametrize("length", (0, 15, 17))
    def test_salt_of_other_length_unreadable(self, length):
        """`stats_verify` reads a salted proof only with 16 salt bytes, as
        the sealed stats verifier does."""
        pp, r = toy_keygen(YES, Drbg(71), ToyParams(variant=TOY_STATS))
        salt, pi = toy_prove_stats(pp, Witness.empty(), Drbg(72))
        assert stats_verify(YES, salt, pi, r) == 1
        wrong = (salt * 2)[:length]
        with pytest.raises(MalformedProof):
            stats_verify(YES, wrong, pi, r)
        assert sealed_stats_verifier(YES, r).run(stats_encode(wrong, pi)) == b"\x00"

    @pytest.mark.parametrize("verifier", ("star", "td", "stats", "toy"))
    @pytest.mark.parametrize("entry", [(256, 0), (0, -1), ("x", 0), (0, 0, 0)], ids=str)
    def test_entry_that_does_not_encode_fails_closed(self, verifier, entry):
        """A last entry with no encoding is a rejection, as FORMATS.md says:
        0 from `star_verify` and `td_verify`, MalformedProof from the
        pair-level verifiers, not the encoder's TypeError or ValueError."""
        s = td_gen(YES, PROTO_TOY, Drbg(73))
        honest = star_prove(s.pp, Witness.empty(), s.oracle, Drbg(74))
        pp, r = toy_keygen(YES, Drbg(71), ToyParams(variant=TOY_STATS))
        salt, pi = toy_prove_stats(pp, Witness.empty(), Drbg(72))
        bad = CvqcProof(honest.pi[:-1] + (entry,), honest.h)
        if verifier == "star":
            assert star_verify(YES, bad, s.r, s.oracle) == 0
        elif verifier == "td":
            assert td_verify(YES, bad, s.td, s.oracle, PROTO_TOY) == 0
        else:
            with pytest.raises(MalformedProof):
                if verifier == "stats":
                    stats_verify(YES, salt, pi[:-1] + (entry,), r)
                else:
                    toy_verify(YES, bad.pi, s.r)


class TestBlindWrapper:
    def test_completeness(self):
        accepted = 0
        for s in range(100):
            bp, bvk, oracle = blind_keygen(YES, Drbg(600 + s))
            proof = blind_prove(bp, Witness.empty(), oracle, Drbg(700 + s))
            accepted += blind_verify(YES, proof, bvk, oracle)
        assert accepted >= 90

    def test_parameters_hide_the_claim(self):
        bp0, _, _ = blind_keygen(YES, Drbg(42))
        bp1, _, _ = blind_keygen(claim_for(fixture("par8"), b"\x1f"), Drbg(43))
        # public metadata: key id and sealed payload length
        assert len(bp0.ct_pp.payload) == len(bp1.ct_pp.payload)
        assert bp0.ct_pp.eval_depth == bp1.ct_pp.eval_depth

    def test_tampered_challenge_rejected(self):
        bp, bvk, oracle = blind_keygen(YES, Drbg(44))
        proof = blind_prove(bp, Witness.empty(), oracle, Drbg(45))
        import dataclasses
        bad = dataclasses.replace(proof, c=bytes(16))
        assert blind_verify(YES, bad, bvk, oracle) == 0

    def test_decrypt_then_verify_matches_unblinded_flow(self):
        # dual run: the four-message protocol executed in the clear with the
        # same seeds gives the same verdict as the blind wrapper
        from qnk.cvqc import _toy_prove1, _toy_prove2, _toy_verify4
        from qnk.qfhe import qfhe_dec
        from qnk.wire import unpack_fields
        for s in range(20):
            bp, bvk, oracle = blind_keygen(YES, Drbg(800 + s))
            drbg = Drbg(900 + s)
            proof = blind_prove(bp, Witness.empty(), oracle, drbg)
            blind_bit = blind_verify(YES, proof, bvk, oracle)
            # unblinded replay with the same prover randomness
            pp, r = toy_keygen(YES, Drbg(800 + s).child("keygen"))
            y, st = _toy_prove1(pp, Witness.empty(), Drbg(900 + s).child("prove1"))
            pi = _toy_prove2(pp, proof.c, st)
            clear_bit = _toy_verify4(YES, proof.c, encode_base_proof(PROTO_TOY, pi), r)
            assert blind_bit == clear_bit == 1
            # and the decrypted transcript matches the clear one
            dec_y, dec_pi = unpack_fields(qfhe_dec(bvk.sk, proof.ct_pi), 2)
            assert dec_y == y and decode_base_proof(PROTO_TOY, dec_pi) == pi

    def test_unreadable_decrypted_proof_rejected(self):
        """A decrypted proof the key cannot read is a rejection, as on the
        sealed surfaces: here an entry out of range, or one pair too few."""
        from qnk.qfhe import qfhe_dec, qfhe_enc
        bp, bvk, oracle = blind_keygen(YES, Drbg(800))
        proof = blind_prove(bp, Witness.empty(), oracle, Drbg(900))
        assert blind_verify(YES, proof, bvk, oracle) == 1
        y, enc = unpack_fields(qfhe_dec(bvk.sk, proof.ct_pi), 2)
        for bad in (enc[:2] + b"\x02" + enc[3:], b"T" + bytes([enc[1] - 1]) + enc[2:-2]):
            ct_pi = qfhe_enc(bp.pk, pack_fields(y, bad), Drbg(901))
            assert blind_verify(YES, replace(proof, ct_pi=ct_pi), bvk, oracle) == 0

    def test_ciphertext_under_another_key_rejected(self):
        """A proof ciphertext whose key id is not the verifier's is a
        rejection, as the sealed QFHE_DEC gate reads it."""
        bp, bvk, oracle = blind_keygen(YES, Drbg(800))
        proof = blind_prove(bp, Witness.empty(), oracle, Drbg(900))
        assert blind_verify(YES, proof, bvk, oracle) == 1
        bad = replace(proof, ct_pi=replace(proof.ct_pi, key_id=bytes(8)))
        assert blind_verify(YES, bad, bvk, oracle) == 0

    def test_claim_digest_changes(self):
        assert YES.digest() != NO.digest()
        assert Claim.from_bytes(YES.to_bytes()) == YES
