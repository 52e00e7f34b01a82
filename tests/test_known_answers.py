"""Known-answer tests: bytes pinned from the reference implementation.

Criterion 11 compares two runs of one build; these pin the bytes across
builds, so a refactor of the sealing, QFHE, SBSH, IR or ABE-encryption code
that changes any output byte fails here.
"""
import hashlib

import pytest

from qnk.circuit_ir import ProgramBuilder, evaluate, obf_io
from qnk.encdelegate import attr_wire, cprf_gen
from qnk.primitives import SbshKeys, sbsh_com, sbsh_ext, sbsh_gen, sbsh_is_binding
from qnk.qfhe import qfhe_dec, qfhe_enc, qfhe_eval, qfhe_gen
from qnk.rand import Drbg
from qnk.wire import seal, unseal


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
        c = sbsh_com(SbshKeys(ck0, ck1, gen_rand=gen_rand), m, r)
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
