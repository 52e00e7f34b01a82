"""Known-answer tests: bytes pinned from the reference implementation.

Criterion 11 compares two runs of one build; these pin the bytes across
builds, so a refactor of the sealing, QFHE, SBSH, IR, ABE-encryption, CVQC,
null-iO or sampling code that changes any output byte or verdict fails here.
"""
import hashlib

import numpy as np
import pytest

from qnk.circuit_ir import ProgramBuilder, evaluate, obf_io
from qnk.cvqc import (
    PROTO_ORACLE,
    PROTO_TOY,
    TOY_LINEAR,
    TOY_STATS,
    ToyParams,
    blind_keygen,
    blind_prove,
    claim_for,
    encode_base_proof,
    sealed_star_td_verifier,
    sealed_stats_verifier,
    sealed_toy_verifier,
    sim_gen,
    stats_encode,
    td_gen,
    toy_keygen,
    toy_prove,
    toy_prove_stats,
)
from qnk.encdelegate import abe_gen, attr_wire, cprf_gen
from qnk.errors import ProofFailed
from qnk.nullio import nio_eval, nio_obf, nio_obf_stage, nio_obf_vbb
from qnk.primitives import SbshKeys, sbsh_com, sbsh_ext, sbsh_gen, sbsh_is_binding
from qnk.qfhe import qfhe_dec, qfhe_enc, qfhe_eval, qfhe_gen
from qnk.proofs import nizk_prove, nizk_setup
from qnk.qma import Witness, fixture, ghz_witness, make_policy_language
from qnk.qsim import StateVector, parse_circuit
from qnk.rand import Drbg
from qnk.wire import pack_fields, seal, unseal


def sha(b: bytes) -> str:
    return hashlib.sha256(b).hexdigest()


class TestSeal:
    def test_short(self):
        blob = seal(b"known answer", b"ctx")
        assert blob.hex() == ("1c9cc529ae0294fd7c4fec83c1044d2a"
                              "a1d8624fc1e95e668b4242e7"
                              "426077bed159d47eddc485bf1ea253d4")
        assert unseal(blob) == b"known answer"

    def test_empty(self):
        assert seal(b"").hex() == ("a544c2ed90748cd5ae10fbf81234ffbf"
                                   "4e5a78c77bb55612a6145d926d7eec1f")

    def test_4k(self):
        data = Drbg(1).bytes(4096)
        blob = seal(data, b"sealed-program")
        assert sha(blob) == "9d7f18f46026f7108cd125fa9be73e2fa83023fde923104a5263f6f2e58fed2a"
        assert unseal(blob) == data


class TestQfhe:
    @pytest.fixture
    def keys(self):
        return qfhe_gen(Drbg(1))

    def test_keys(self, keys):
        assert keys.pk.hex() == ("15b82edab5e5eebb83f163e083204805ac60d0e216d0ba42"
                                 "63d65dc0168a2b598ad44be30fbbfc289d7c8a7fe9e350c8"
                                 "f0eecfb7ebffc91e")

    def test_enc(self, keys):
        ct = qfhe_enc(keys.pk, b"known answer", Drbg(2))
        assert ct.payload.hex() == ("811604562e58dcf4a40260849a688edf"
                                    "aab7ce0bbd5e67618682deee"
                                    "0f7f58e79d035594046c21c261c67020")
        assert qfhe_dec(keys.sk, ct) == b"known answer"

    def test_enc_empty(self, keys):
        ct = qfhe_enc(keys.pk, b"", Drbg(3))
        assert ct.payload.hex() == ("15f39f30d4c01befd108ff864dba4f30"
                                    "6bbc282c866b478bb6774d8d1b990430")

    def test_eval_renonce(self, keys):
        ct = qfhe_enc(keys.pk, b"known answer", Drbg(2))
        out = qfhe_eval(keys.pk, lambda m: m[::-1], ct)
        assert out.payload.hex() == ("205b0228fd0820ceb0a75adeb1f3558b"
                                     "482c8b185dfeaa71816440cc"
                                     "4af45a8e46a9b5ef71926c4c7c4df4c6")
        assert qfhe_dec(keys.sk, out) == b"rewsna nwonk"

    def test_eval_drbg(self, keys):
        ct = qfhe_enc(keys.pk, b"known answer", Drbg(2))
        out = qfhe_eval(keys.pk, lambda m: m[::-1], ct, Drbg(4))
        assert out.payload.hex() == ("7bbf663f11c08380df414f5539919847"
                                     "0c8b3510fc6cd881472a9d0c"
                                     "9026d5096bcb2f9ec4e51f0146cd332c")


class TestSbsh:
    # ck1 index 17 of Drbg(6) is the first binding key pair for this ck0,
    # index 0 a hiding one
    @pytest.mark.parametrize("index, binding, want", [
        (17, True, "a86d605d119235e0dde6f9d5d79b"),
        (0, False, "79c4a56670601193a6e803eede19"),
    ])
    def test_com(self, index, binding, want):
        ck0, gen_rand = sbsh_gen(Drbg(5))
        ck1 = Drbg(6).child(str(index)).bytes(16)
        assert sbsh_is_binding(ck0, ck1) is binding
        m, r = b"\x00\x00known answer", b"\x11" * 16
        c = sbsh_com(SbshKeys(ck0, ck1), m, r)
        assert c.hex() == r.hex() + want
        if binding:
            assert sbsh_ext(gen_rand, ck0, ck1, c) == m


class TestIrXor:
    def test_xor_node(self):
        b = ProgramBuilder(1)
        p = b.build([b.xor(b.input(0), b.const(b"\x00\x00\x01\xff\x80"))])
        assert evaluate(p, [b"\x00\xff\x01\x00\x80"]) == [b"\x00\xff\x00\xff\x00"]
        assert sha(obf_io(p, 4).to_bytes()) == (
            "659d86c06d355c1790d7b42c0a3d0d1d63174bec357fd49bc22eeab8afe92e3d")


class TestAbeEncGate:
    @pytest.mark.parametrize("x, want", [
        (0b0111, "4186fb4e298728a33263e9f1a9ebf91a1ccb41ef5df84b9c690b791825641a15"),
        (0b0011, "ca57f520bed9adb5d44ddc5469550ae33f5aa87b7959ce2bb56465e50225f974"),
    ])
    def test_cprf_ciphertext(self, x, want):
        # the cprf program's output is the ABE_ENC gate's ciphertext
        assert sha(cprf_gen(35).pp.run(attr_wire(x, 8))) == want


class TestHybridBaseMembers:
    """The sealed programs whose padding budget comes from a hybrid family."""

    def test_abe_mpk(self):
        assert sha(abe_gen(4, 36).mpk.to_bytes()) == (
            "0d5ac71b5eba3c16858f04038f612784ca13515110117266c0b49ad213c53ea1")

    def test_cprf_pp(self):
        assert sha(cprf_gen(37).pp.to_bytes()) == (
            "1adb742f8c31649ccb28be37c0414b7cf64588aa24a5ac895218112c40d38b8c")

    def test_nizk_programs(self):
        crs = nizk_setup(fixture("par8"), (38).to_bytes(16, "big"))
        assert sha(crs.p_prog.to_bytes()) == (
            "c3bcdd1c5eb025de386390a91f49d4bcd78fff3d5eec4ca568f5ef59bc5182f2")
        assert sha(crs.v_prog.to_bytes()) == (
            "3c8455af8d295943ef66dfbffdd764da4e46ef136c7221fe665281cbac0aaa63")


PAR = fixture("par8")
YES = claim_for(PAR, b"\x07")
STAGES = ("honest", "td", "sim", "bottom")
NIO_STAGE = {
    (PROTO_ORACLE, None, "honest"):
        "2cf5ac0e8dfb087ce4d6270304913e08d6035587219faf9bfa1ec3a4f4862bcc",
    (PROTO_ORACLE, None, "td"):
        "5600e10af180668734fa9d81961b4f41ebafc72b79907df4f824c94b6c3a9426",
    (PROTO_ORACLE, None, "sim"):
        "c05b774dd751dc0710b47b12990852975cf71c1541be36795f6d40d575b739d2",
    (PROTO_ORACLE, None, "bottom"):
        "8780c29da356bde45c2e17a9c9732085aa9ccd403cae6d774baa57b5ecc57649",
    (PROTO_ORACLE, b"payload", "honest"):
        "1c280b685b1c5f59ab791ae737c82325dcc16ff4fea42a0db5cb056d81597e6c",
    (PROTO_ORACLE, b"payload", "td"):
        "98c4e1231a950f1ed18e4d5c5fb69642412de45b3727f5ca0591ee22ab716ef1",
    (PROTO_ORACLE, b"payload", "sim"):
        "5d7ee9442b873f71a00871d56d669a8c4ac23708729f7ccb606dd998ecb9ffef",
    (PROTO_ORACLE, b"payload", "bottom"):
        "2c3cda98ae473d445280cd688478e39b2d337ca581f2e26f5126f21b48f4c758",
    (PROTO_TOY, None, "honest"):
        "6a2ab4f81e0d3466dce9be87da08de780478733268f30f1fb0215c5bf1d03a27",
    (PROTO_TOY, None, "td"):
        "9581018864321ffdaffffb1afafb31e443602d91ceaef6b5cd93e996d455d9fd",
    (PROTO_TOY, None, "sim"):
        "aa331ef8b613bcabe4c0306ee3d344028e199d65020bb1146f4b6561d388b02f",
    (PROTO_TOY, None, "bottom"):
        "49555f246f200ebf6590d8e3e6c1bbb5a7ddbd31e5faa9da159d70a560fbe024",
    (PROTO_TOY, b"payload", "honest"):
        "e000cee7b088f0996166d89249ba164845d07fc48464cc5160702a0950fc6973",
    (PROTO_TOY, b"payload", "td"):
        "8386405e01154158aeeb88071c708c2d649e4421cdf3c9246c1219cfd6492087",
    (PROTO_TOY, b"payload", "sim"):
        "0be2f52991c2ddb63e2baff293ba82d78b44ae97d843a69f56f801ab65b7e298",
    (PROTO_TOY, b"payload", "bottom"):
        "1947aa70effda9e31acbc25908245bfabd5f01568e272b5135ae23dd976906be",
}
NIO_VBB = {
    PROTO_ORACLE: "c5a1024651da70c1b7579188e2ba3f309b76242351a920fa89d81b3d21e74348",
    PROTO_TOY: "64fba6f6214c30094a13140ba9f4512d8997bd7f6396284f389014fb86a3a818",
}
NIO_CASES = [(proto, release, stage) for proto in (PROTO_ORACLE, PROTO_TOY)
             for release in (None, b"payload") for stage in STAGES]


class TestNullIo:
    @pytest.mark.parametrize("proto, release, stage", NIO_CASES,
                             ids=[f"{p}-{'rel' if r else 'bit'}-{s}" for p, r, s in NIO_CASES])
    def test_obf_stage(self, proto, release, stage):
        obf = nio_obf_stage(YES, 21, stage, proto, release=release)
        assert sha(obf.to_bytes()) == NIO_STAGE[proto, release, stage]

    @pytest.mark.parametrize("proto", [PROTO_ORACLE, PROTO_TOY])
    def test_obf_vbb(self, proto):
        assert sha(nio_obf_vbb(YES, 22, proto).sealed_C.to_bytes()) == NIO_VBB[proto]


class TestSealedVerifiers:
    def test_toy(self):
        _, r = toy_keygen(YES, Drbg(23))
        assert sha(sealed_toy_verifier(YES, r).to_bytes()) == (
            "c30883c2ff7750d2063c19a35a5a90f276cb69695219beee687297e79403183a")

    def test_stats(self):
        _, r = toy_keygen(YES, Drbg(23), ToyParams(variant=TOY_STATS))
        assert sha(sealed_stats_verifier(YES, r).to_bytes()) == (
            "9ede1c8bc535529930c33adba6017cbed4c070102d8d0125e74956002bea54ae")

    @pytest.mark.parametrize("proto, gen, want", [
        (PROTO_ORACLE, td_gen,
         "e04271165101abd2bb2a48f20da53fa614a172b5d76560da796db3104ff1fe43"),
        (PROTO_TOY, td_gen,
         "3541e89144480b6e8317471ff8c8cf57b72ae4aff71bd490c90ca8f1465a8a6b"),
        (PROTO_TOY, sim_gen,
         "7538a26fd7973a58230417c8f7e44754583377e76584c75cf11a68d419b1ee3a"),
    ])
    def test_star_td(self, proto, gen, want):
        setup = gen(YES, proto, Drbg(24))
        assert sha(sealed_star_td_verifier(setup).to_bytes()) == want


class TestToyProvers:
    @pytest.mark.parametrize("variant, want", [
        ("standard", "5408010e0103000301070006000e01090100"),
        (TOY_LINEAR, "5408010e0103000300070006000e01090000"),
    ])
    def test_toy_prove(self, variant, want):
        pp, _ = toy_keygen(YES, Drbg(25), ToyParams(variant=variant))
        pi = toy_prove(pp, Witness.empty(), Drbg(26))
        assert encode_base_proof(PROTO_TOY, pi).hex() == want

    def test_toy_prove_stats(self):
        pp, _ = toy_keygen(YES, Drbg(25), ToyParams(variant=TOY_STATS))
        salt, pi = toy_prove_stats(pp, Witness.empty(), Drbg(27))
        assert stats_encode(salt, pi).hex() == (
            "533a1009e5f923ba61854e5eb71eb54a3954080007010a010e000f010c00030106000c")

    def test_blind_prove(self):
        bp, _, oracle = blind_keygen(YES, Drbg(28))
        proof = blind_prove(bp, Witness.empty(), oracle, Drbg(29))
        assert sha(pack_fields(proof.ct_y.to_bytes(), proof.c,
                               proof.ct_pi.to_bytes())) == (
            "60e9f25f01114a8fe15c56edb5e0532d10a5b434ad72232c2741a9a7919fee8e")


GHZ = fixture("ghz")
GHZ_YES = claim_for(GHZ, b"\x01")
# accepted by the GHZ check with probability 0.6, so every sampled verdict
# depends on the draw
MIXED = StateVector(3, np.sqrt(0.6) * np.array([2 ** -0.5, 0, 0, 0, 0, 0, 0, 2 ** -0.5])
                    + np.sqrt(0.4) * np.array([2 ** -0.5, 0, 0, 0, 0, 0, 0, -2 ** -0.5]))
WITNESS_STATES = {"ghz": ghz_witness, "mixed": lambda: MIXED}
# output probability (1 - cos(pi/4)) / 2 after the final clock step
HTH = claim_for(make_policy_language(parse_circuit("qubits 2\ninput 0\nH 0\nT 0\nH 0\n")), b"")


class TestSampledProvers:
    """Verdicts and proofs over seeds 0-15 (0-7 for the NIZK), with witnesses
    and claims whose acceptance probability is strictly between 0 and 1."""

    @pytest.mark.parametrize("witness, failed, want", [
        ("ghz", "--------",
         "ce2693a8f104e51c3e609b9194363b1ddf388a611a4c9eeae318764258d4c189"),
        ("mixed", "--F-F--F",
         "68aee15294a70021d6edf68887124514d2a280ef035dbbe30677ffc6e74059ae"),
    ])
    def test_nizk_prove(self, witness, failed, want):
        crs = nizk_setup(GHZ, (30).to_bytes(16, "big"))
        proofs = []
        for seed in range(8):
            try:
                proofs.append(nizk_prove(crs, Witness(WITNESS_STATES[witness]()),
                                         b"\x01", Drbg(seed)).pi)
            except ProofFailed:
                proofs.append(b"-")
        assert "".join("F" if p == b"-" else "-" for p in proofs) == failed
        assert sha(b"".join(proofs)) == want

    @pytest.mark.parametrize("witness, want", [
        ("ghz", "1111111111111111"),
        ("mixed", "1101011011111101"),
    ])
    def test_nio_eval(self, witness, want):
        obf = nio_obf(GHZ_YES, 31)
        assert "".join(str(nio_eval(obf, Witness(WITNESS_STATES[witness]()), Drbg(seed)))
                       for seed in range(16)) == want

    @pytest.mark.parametrize("variant, want", [
        ("standard", "a30ceadc17b3f5078df6ca52739ef1883a9a7b333c1f026bb6515f7973dbcb84"),
        (TOY_LINEAR, "81eb6f58bea2517f216056fc778d5c3cfaa644bed2bb9eff25cda530b28fc0f6"),
    ])
    def test_toy_prove(self, variant, want):
        pp, _ = toy_keygen(HTH, Drbg(32), ToyParams(variant=variant))
        assert sha(b"".join(encode_base_proof(PROTO_TOY, toy_prove(pp, Witness.empty(), Drbg(s)))
                            for s in range(16))) == want
