import pytest

from qnk.errors import DepthExceeded, KeyMismatch, MalformedCiphertext
from qnk.primitives import owf
from qnk.qfhe import QfheCiphertext, qfhe_dec, qfhe_enc, qfhe_eval, qfhe_gen
from qnk.rand import Drbg


@pytest.fixture
def keys():
    return qfhe_gen(Drbg(1))


class TestRoundTrip:
    def test_empty_message(self, keys):
        ct = qfhe_enc(keys.pk, b"", Drbg(2))
        assert qfhe_dec(keys.sk, ct) == b""

    def test_64_bytes(self, keys):
        m = bytes(range(64))
        assert qfhe_dec(keys.sk, qfhe_enc(keys.pk, m, Drbg(3))) == m

    def test_wrong_key(self, keys):
        other = qfhe_gen(Drbg(9))
        ct = qfhe_enc(keys.pk, b"secret", Drbg(4))
        with pytest.raises(KeyMismatch):
            qfhe_dec(other.sk, ct)

    def test_tampered_payload(self, keys):
        ct = qfhe_enc(keys.pk, b"secret", Drbg(5))
        bad = QfheCiphertext(ct.key_id, ct.payload[:-1] + bytes([ct.payload[-1] ^ 1]))
        with pytest.raises(MalformedCiphertext):
            qfhe_dec(keys.sk, bad)

    def test_serialization(self, keys):
        ct = qfhe_enc(keys.pk, b"m", Drbg(6))
        again = QfheCiphertext.from_bytes(ct.to_bytes())
        assert qfhe_dec(keys.sk, again) == b"m"

    def test_trailing_bytes_rejected(self, keys):
        ct = qfhe_enc(keys.pk, b"m", Drbg(6))
        with pytest.raises(MalformedCiphertext):
            QfheCiphertext.from_bytes(ct.to_bytes() + b"junk")


class TestEval:
    def test_identity(self, keys):
        ct = qfhe_enc(keys.pk, b"m", Drbg(7))
        out = qfhe_eval(keys.pk, lambda m: m, ct, Drbg(8))
        assert qfhe_dec(keys.sk, out) == b"m"
        assert out.eval_depth == 1

    def test_owf_matches_direct_call(self, keys):
        d = Drbg(9)
        for _ in range(100):
            m = d.bytes(d.randint(0, 24))
            ct = qfhe_enc(keys.pk, m, d.child(m.hex() + "e"))
            out = qfhe_eval(keys.pk, owf, ct, d.child(m.hex() + "v"))
            assert qfhe_dec(keys.sk, out) == owf(m)

    def test_depth_cap(self, keys):
        ct = qfhe_enc(keys.pk, b"m", Drbg(12))
        for _ in range(8):
            ct = qfhe_eval(keys.pk, lambda m: m, ct, Drbg(13))
        with pytest.raises(DepthExceeded):
            qfhe_eval(keys.pk, lambda m: m, ct, Drbg(14))

    def test_seeded_eval_deterministic(self, keys):
        ct = qfhe_enc(keys.pk, b"m", Drbg(15))
        a = qfhe_eval(keys.pk, owf, ct, Drbg(16))
        b = qfhe_eval(keys.pk, owf, ct, Drbg(16))
        assert a == b

    def test_wrong_public_key(self, keys):
        other = qfhe_gen(Drbg(17))
        ct = qfhe_enc(keys.pk, b"m", Drbg(18))
        with pytest.raises(KeyMismatch):
            qfhe_eval(other.pk, lambda m: m, ct, Drbg(19))


def test_no_public_plaintext_path(keys):
    # the ciphertext object exposes only sealed fields
    ct = qfhe_enc(keys.pk, b"the plaintext", Drbg(20))
    assert b"the plaintext" not in ct.payload
    assert b"the plaintext" not in ct.to_bytes()
    public = {a for a in vars(ct) if not a.startswith("_")}
    assert public == {"key_id", "payload", "eval_depth", "max_depth"}
