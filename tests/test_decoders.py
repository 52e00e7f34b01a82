"""Fail-closed decoding of every top-level artifact.

Each decoder round-trips a real artifact. Then every top-level field is in
turn emptied, lengthened by one byte and replaced by the non-UTF-8 bytes
`ff fe`, and one trailing byte is appended. Each mutated blob either decodes
or raises a `QnkError`; any other exception fails the test. A fixed-width
field of the wrong width, and a trailing byte, raise `MalformedCiphertext`.
"""
import functools

import pytest

from qnk import cvqc, encdelegate as ed, nullio, qfhe
from qnk.errors import MalformedCiphertext, QnkError
from qnk.qma import PseudoDetCircuit, fixture
from qnk.qsim import QuantumCircuit
from qnk.rand import Drbg
from qnk.wire import Reader, pack_bytes

PAR = fixture("par8")
CLAIM = cvqc.claim_for(PAR, b"\x07")
PARITY4 = ed.POLICY_FAMILY[1]
U = b"\x11" * 16
PDC = PseudoDetCircuit(QuantumCircuit(5, (("CNOT", (1, 0)),), n_input=4), 3, (U, b"\x22" * 16))


@functools.cache
def abe_keys():
    return ed.abe_gen(4, 1)


# name -> (decoder, artifact builder, field kinds, {field index: fixed width});
# kind "f" is a length-prefixed field, "u" a bare u32
CASES = {
    "Claim": (cvqc.Claim, lambda: CLAIM, "fff", {2: 1}),
    "CvqcParams": (cvqc.CvqcParams, lambda: cvqc.toy_keygen(CLAIM, Drbg(1))[0], "ff", {}),
    "CvqcVerifyKey-toy": (cvqc.CvqcVerifyKey, lambda: cvqc.toy_keygen(CLAIM, Drbg(1))[1],
                          "fffffff", {4: 2}),
    "CvqcVerifyKey-oracle": (cvqc.CvqcVerifyKey,
                             lambda: cvqc.keygen_star(CLAIM, cvqc.PROTO_ORACLE, Drbg(2)).r,
                             "fff", {}),
    "ObfuscatedNullCircuit": (nullio.ObfuscatedNullCircuit, lambda: nullio.nio_obf(CLAIM, 3),
                              "ffffffff", {7: 1}),
    "WeCiphertext": (nullio.WeCiphertext, lambda: nullio.we_enc(PAR, b"\x07", 1, b"c" * 16),
                     "ff", {}),
    "AbeSecretKey": (ed.AbeSecretKey, lambda: ed.abe_keygen(abe_keys(), 0b0111), "ff",
                     {0: 2, 1: 16}),
    "AbeCiphertext": (ed.AbeCiphertext,
                      lambda: ed.abe_enc_circuit(abe_keys(), PARITY4, b"\x01", 2), "fff", {2: 1}),
    "PeCiphertext": (ed.PeCiphertext, lambda: ed.pe_enc(abe_keys(), PARITY4, b"m", 3),
                     "ff", {1: 4}),
    "QLockObf": (ed.QLockObf, lambda: ed.qlock_obf(PDC, U, b"z", 4), "fffff", {3: 4, 4: 4}),
    "ShareSet": (ed.ShareSet, lambda: ed.ss_share(fixture("th23"), 3, 1, 5), "f" * 11, {1: 1}),
    "QfheCiphertext": (qfhe.QfheCiphertext,
                       lambda: qfhe.qfhe_enc(qfhe.qfhe_gen(Drbg(6)).pk, b"m", Drbg(7)),
                       "ffuu", {2: 4, 3: 4}),
    "PseudoDetCircuit": (PseudoDetCircuit, lambda: PDC, "ffff", {1: 1}),
}


def split(blob: bytes, kinds: str) -> list[bytes]:
    r = Reader(blob)
    fields = [r.field() if k == "f" else r.take(4) for k in kinds]
    assert r.done()
    return fields


def join(fields: list[bytes], kinds: str) -> bytes:
    return b"".join(pack_bytes(f) if k == "f" else f for f, k in zip(fields, kinds))


def mutations(fields: list[bytes], kinds: str):
    """(field index or None, new field, mutated blob)."""
    for i, f in enumerate(fields):
        for new in (b"", f + b"\x00", b"\xff\xfe"):
            yield i, new, join(fields[:i] + [new] + fields[i + 1:], kinds)
    yield None, None, join(fields, kinds) + b"\x00"


@pytest.mark.parametrize("name", CASES)
def test_decoder_fails_closed(name):
    decoder, build, kinds, widths = CASES[name]
    blob = build().to_bytes()
    fields = split(blob, kinds)
    assert decoder.from_bytes(blob).to_bytes() == blob
    wrong = []
    for i, new, mutated in mutations(fields, kinds):
        try:
            decoder.from_bytes(mutated)
            err = None
        except QnkError as e:
            err = e
        must_reject = i is None or (i in widths and len(new) != widths[i])
        if must_reject and not isinstance(err, MalformedCiphertext):
            wrong.append((i, new, err))
    assert wrong == []
