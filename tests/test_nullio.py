import pytest

from qnk.circuit_ir import unwrap
from qnk.cvqc import MINI_PARAMS, PROTO_TOY, claim_for, encode_base_proof
from qnk.errors import InsufficientCopies, MalformedCiphertext
from qnk.nullio import (
    ObfuscatedNullCircuit,
    WeCiphertext,
    inject_proof,
    nio_eval,
    nio_eval_vbb,
    nio_obf,
    nio_obf_stage,
    nio_obf_vbb,
    vbb_surrogate_answer,
    we_dec,
    we_dec_bqp,
    we_dec_bytes,
    we_enc,
    we_enc_bytes,
)
from qnk.qma import Witness, fixture, ghz_witness
from qnk.rand import Drbg
from qnk.wire import pack_fields, unpack_fields

PAR = fixture("par8")
GHZ = fixture("ghz")
NULL = fixture("null3")


class TestCorrectness:
    def test_parity_yes(self):
        obf = nio_obf(claim_for(PAR, b"\x07"), 1)
        assert nio_eval(obf, Witness.empty(), Drbg(2)) == 1

    def test_parity_no(self):
        obf = nio_obf(claim_for(PAR, b"\x03"), 1)
        assert nio_eval(obf, Witness.empty(), Drbg(2)) == 0

    def test_null_fixture_always_rejects(self):
        obf = nio_obf(claim_for(NULL, b"\x01"), 3)
        for i in range(100):
            assert nio_eval(obf, Witness(ghz_witness(), 5), Drbg(i)) == 0

    def test_ghz_acceptance_rate(self):
        obf = nio_obf(claim_for(GHZ, b"\x01"), 4)
        hits = sum(nio_eval(obf, Witness(ghz_witness(), 5), Drbg(i)) for i in range(100))
        assert hits >= 90

    def test_orthogonal_witness_rejected(self):
        from qnk.qsim import StateVector
        minus = StateVector(3, [2 ** -0.5, 0, 0, 0, 0, 0, 0, -(2 ** -0.5)])
        obf = nio_obf(claim_for(GHZ, b"\x01"), 4)
        rejects = sum(1 - nio_eval(obf, Witness(minus, 5), Drbg(i)) for i in range(100))
        assert rejects >= 90

    def test_deterministic_under_seed(self):
        a = nio_obf(claim_for(PAR, b"\x07"), 5).to_bytes()
        b = nio_obf(claim_for(PAR, b"\x07"), 5).to_bytes()
        assert a == b

    def test_insufficient_copies(self):
        obf = nio_obf(claim_for(GHZ, b"\x01"), 6)
        with pytest.raises(InsufficientCopies):
            nio_eval(obf, Witness(ghz_witness(), 2), Drbg(7))

    def test_serialization_roundtrip(self):
        obf = nio_obf(claim_for(PAR, b"\x07"), 8)
        again = ObfuscatedNullCircuit.from_bytes(obf.to_bytes())
        assert nio_eval(again, Witness.empty(), Drbg(9)) == 1

    # field 7 is the copy count, fields 2 and 6 the variant and protocol names
    @pytest.mark.parametrize("index, value", [
        (7, b""), (7, b"\x05\x05"), (2, b"\xff"), (6, b"\xff"),
    ], ids=["empty-copies", "two-byte-copies", "non-utf8-variant", "non-utf8-proto"])
    def test_malformed_field_rejected(self, index, value):
        fields = list(unpack_fields(nio_obf(claim_for(PAR, b"\x07"), 8).to_bytes(), 8))
        fields[index] = value
        blob = pack_fields(*fields)
        with pytest.raises(MalformedCiphertext):
            ObfuscatedNullCircuit.from_bytes(blob)
        with pytest.raises(MalformedCiphertext):
            WeCiphertext.from_bytes(pack_fields(blob, b"digest"))

    def test_toy_base_protocol(self):
        obf = nio_obf(claim_for(PAR, b"\x07"), 10, PROTO_TOY)
        assert nio_eval(obf, Witness.empty(), Drbg(11)) == 1


class TestNullGuard:
    @pytest.mark.parametrize("release", [None, b"payload"], ids=["no-release", "release"])
    def test_stage_swap_changes_nothing_for_null_claims(self, release):
        claim = claim_for(NULL, b"\x01")
        stages = {s: nio_obf_stage(claim, 12, s, PROTO_TOY, MINI_PARAMS, release)
                  for s in ("honest", "td", "sim", "bottom")}
        blobs = {s: o.ct_pp.to_bytes() for s, o in stages.items()}
        assert len(set(blobs.values())) == 1
        sizes = {o.sealed_C.declared_size for o in stages.values()}
        assert len(sizes) == 1
        d = Drbg(13)
        for trial in range(10 ** 4):
            payload = d.bytes(d.randint(1, 48))
            outs = {s: inject_proof(o, payload, d.child(f"i{trial}"))
                    for s, o in stages.items()}
            assert set(outs.values()) == {b"\x00"}

    def test_adversarial_structured_injections(self):
        claim = claim_for(NULL, b"\x01")
        td = nio_obf_stage(claim, 14, "td", PROTO_TOY, MINI_PARAMS)
        sim = nio_obf_stage(claim, 14, "sim", PROTO_TOY, MINI_PARAMS)
        d = Drbg(15)
        import itertools
        from qnk.cvqc import CvqcProof
        singles = [(b, dd) for b in range(2) for dd in range(4)]
        for pi in itertools.islice(itertools.product(singles, repeat=4), 256):
            payload = CvqcProof(pi, bytes(17)).encode(PROTO_TOY)
            assert inject_proof(td, payload, d.child("a")) == \
                inject_proof(sim, payload, d.child("a")) == b"\x00"


class TestVbbVariant:
    def test_eval_correctness(self):
        obf = nio_obf_vbb(claim_for(PAR, b"\x07"), 16)
        assert nio_eval_vbb(obf, Witness.empty(), Drbg(17)) == 1
        obf0 = nio_obf_vbb(claim_for(PAR, b"\x03"), 16)
        assert nio_eval_vbb(obf0, Witness.empty(), Drbg(17)) == 0

    def test_branch0_matches_escrow(self):
        obf = nio_obf_vbb(claim_for(PAR, b"\x07"), 18)
        d = Drbg(19)
        for _ in range(50):
            q = d.bytes(d.randint(0, 24))
            assert obf.sealed_C.run(b"\x00", q) == vbb_surrogate_answer(obf.escrow_key, q)

    def test_sim_handle_black_box(self):
        obf = nio_obf_vbb(claim_for(PAR, b"\x07"), 20)
        assert obf.sim.query(b"\x00", b"probe") == obf.sealed_C.run(b"\x00", b"probe")
        assert obf.sim.declared_size == obf.sealed_C.declared_size

    def test_equal_sizes_for_equal_length_claims(self):
        a = nio_obf_vbb(claim_for(PAR, b"\x07"), 21)
        b = nio_obf_vbb(claim_for(PAR, b"\x1f"), 22)
        assert a.sealed_C.declared_size == b.sealed_C.declared_size


class TestWitnessEncryption:
    def test_deterministic_yes_roundtrip(self):
        for m in (0, 1):
            c = we_enc(PAR, b"\x07", m, bytes([m]) + b"\x00" * 15)
            assert we_dec(PAR, b"\x07", c, Witness.empty(), Drbg(23)) == bytes([m])

    def test_deterministic_no_returns_bottom(self):
        c = we_enc(PAR, b"\x03", 1, b"\x01" * 16)
        assert we_dec(PAR, b"\x03", c, Witness.empty(), Drbg(24)) is None

    def test_quantum_witness_rate(self):
        hits = 0
        for i in range(100):
            c = we_enc(GHZ, b"\x01", 0, Drbg(i).bytes(16))
            if we_dec(GHZ, b"\x01", c, Witness(ghz_witness(), 5), Drbg(i)) == b"\x00":
                hits += 1
        assert hits >= 90

    @pytest.mark.parametrize("payload", [b"", b"\x02", b"\x00\x01"])
    def test_non_bit_plaintext_is_malformed(self, payload):
        # `we_enc` writes one byte, 0 or 1; any other plaintext is forged
        c = we_enc_bytes(PAR, b"\x07", payload, b"\x06" * 16)
        with pytest.raises(MalformedCiphertext):
            we_dec(PAR, b"\x07", c, Witness.empty(), Drbg(25))

    def test_bytes_payload(self):
        c = we_enc_bytes(PAR, b"\x07", b"a sixteen byte m", b"\x05" * 16)
        assert we_dec_bytes(c, Witness.empty(), Drbg(25)) == b"a sixteen byte m"

    def test_coins_determine_ciphertext(self):
        a = we_enc(PAR, b"\x07", 1, b"\x09" * 16).to_bytes()
        b = we_enc(PAR, b"\x07", 1, b"\x09" * 16).to_bytes()
        assert a == b

    def test_bqp_decryption_agrees(self):
        d = Drbg(26)
        for t in range(100):
            v = d.randint(0, 255)
            x = bytes([v])
            c = we_enc(PAR, x, 1, d.child(f"c{t}").bytes(16))
            ct2 = WeCiphertext.from_bytes(c.to_bytes())
            a = we_dec(PAR, x, c, Witness.empty(), d.child(f"d{t}"))
            b = we_dec_bqp(ct2, d.child(f"d{t}"))
            assert a == b

    def test_statement_digest_checked(self):
        c = we_enc(PAR, b"\x07", 1, b"\x0a" * 16)
        assert we_dec(PAR, b"\x06", c, Witness.empty(), Drbg(27)) is None

    def test_mini_lockout_search(self):
        import itertools
        c = we_enc(PAR, b"\x03", 1, b"\x0b" * 16)
        d = Drbg(28)
        singles = [(b, dd) for b in range(2) for dd in range(4)]
        for pi in itertools.product(singles, repeat=4):
            enc = encode_base_proof(PROTO_TOY, pi)
            assert unwrap(inject_proof(c.inner, enc, d.child(enc.hex()))) is None
