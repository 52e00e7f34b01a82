"""Fail-closed decoding of every top-level artifact.

Each decoder round-trips a real artifact. Then every top-level field is in
turn emptied, lengthened by one byte and replaced by the non-UTF-8 bytes
`ff fe`, and one trailing byte is appended. Each mutated blob either decodes
or raises a `QnkError`; any other exception fails the test. A fixed-width
field of the wrong width, and a trailing byte, raise `MalformedCiphertext`,
and so does a name field holding valid UTF-8 outside its closed set. The
proof codecs take their protocol name from the caller and raise
`DomainMismatch` for one outside `cvqc.PROTOCOLS`.
"""
import functools

import pytest

from qnk import cvqc, encdelegate as ed, nullio, qfhe
from qnk.errors import DomainMismatch, MalformedCiphertext, QnkError
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

# (CASES name, field index) -> the closed set of names that field holds
NAME_FIELDS = {
    ("CvqcParams", 0): cvqc.PROTOCOLS,
    ("CvqcVerifyKey-toy", 5): cvqc.TOY_VARIANTS,
    ("ObfuscatedNullCircuit", 2): {nullio.VARIANT_IO},
    ("ObfuscatedNullCircuit", 6): cvqc.PROTOCOLS,
}
OUTSIDE_NAMES = (b"toy-ish", b"Whatever", b"", b"TOY\x00", b"oracle", b"IO ", b"Linear")

# protocol -> a base proof of that protocol. A protocol name a caller passes
# to the proof codecs by hand is not decoded by `wire.choice`, so the codecs
# close it themselves: a name outside cvqc.PROTOCOLS raises DomainMismatch.
BASE_PROOFS = {cvqc.PROTO_TOY: ((0, 1), (1, 2)), cvqc.PROTO_ORACLE: b"\x5a" * 16}
TOY_PI = BASE_PROOFS[cvqc.PROTO_TOY]
# name -> call(proto) for every codec that takes a protocol name
PROOF_CODECS = {
    "encode_base_proof": lambda proto: cvqc.encode_base_proof(proto, TOY_PI),
    "decode_base_proof": lambda proto: cvqc.decode_base_proof(
        proto, cvqc.encode_base_proof(cvqc.PROTO_TOY, TOY_PI)),
    "CvqcProof.encode": lambda proto: cvqc.CvqcProof(TOY_PI).encode(proto),
    "CvqcProof.decode": lambda proto: cvqc.CvqcProof.decode(
        proto, cvqc.CvqcProof(TOY_PI, b"h" * 17).encode(cvqc.PROTO_TOY)),
}


# Semantic cases of the TOY verify key: every field has a valid layout, but
# the fields disagree or the variant is not one of the three, so decoding must
# raise MalformedCiphertext. name ->
# {field index: new field from old}; the fields are (tag, bases, secrets,
# target, (tau, w), variant, subset key), built with K = 8 and w = 4.
TOY_KEY_SEMANTIC = {
    "short-secrets": {2: lambda f: f[:3]},
    "short-target": {3: lambda f: f[:3]},
    "long-bases": {1: lambda f: f + b"\x01"},
    "256-positions": dict.fromkeys((1, 2, 3), lambda f: f * 32),
    "basis-2": {1: lambda f: b"\x02" + f[1:]},
    "w-0": {4: lambda f: f[:1] + b"\x00"},
    "w-9": {4: lambda f: f[:1] + b"\x09"},
    "w-255": {4: lambda f: f[:1] + b"\xff"},
    "secret-2**w": {2: lambda f: b"\x10" + f[1:]},
    # a variant outside the three would be read as the standard one
    "variant-Linear": {5: lambda f: b"Linear"},
    "variant-empty": {5: lambda f: b""},
    "variant-standard-nul": {5: lambda f: b"standard\x00"},
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


@pytest.mark.parametrize("case, index", NAME_FIELDS, ids=[f"{c}-{i}" for c, i in NAME_FIELDS])
def test_name_outside_its_set_rejected(case, index):
    decoder, build, kinds, _ = CASES[case]
    fields = split(build().to_bytes(), kinds)

    def with_name(name: bytes) -> bytes:
        return join(fields[:index] + [name] + fields[index + 1:], kinds)

    for name in NAME_FIELDS[case, index]:
        blob = with_name(name.encode())
        assert decoder.from_bytes(blob).to_bytes() == blob
    for name in OUTSIDE_NAMES:
        with pytest.raises(MalformedCiphertext):
            decoder.from_bytes(with_name(name))


@pytest.mark.parametrize("change", TOY_KEY_SEMANTIC.values(), ids=TOY_KEY_SEMANTIC)
def test_toy_key_with_inconsistent_fields_rejected(change):
    decoder, build, kinds, _ = CASES["CvqcVerifyKey-toy"]
    fields = split(build().to_bytes(), kinds)
    mutated = [change[i](f) if i in change else f for i, f in enumerate(fields)]
    with pytest.raises(MalformedCiphertext):
        decoder.from_bytes(join(mutated, kinds))


def test_toy_key_at_the_bounds_decodes():
    """255 positions, w = 8 and a secret of 255 are inside the bounds."""
    blob = cvqc.CvqcVerifyKey(cvqc.PROTO_TOY, cvqc.ToyVerifyKey(
        (1,) * 255, (255,) * 255, (0,) * 255, 0, 8, cvqc.TOY_STANDARD, b"")).to_bytes()
    r = cvqc.CvqcVerifyKey.from_bytes(blob)
    assert r.to_bytes() == blob and len(r.body.checks) == 255


@pytest.mark.parametrize("proto", BASE_PROOFS)
def test_base_proof_round_trips_for_each_protocol(proto):
    pi = BASE_PROOFS[proto]
    assert cvqc.decode_base_proof(proto, cvqc.encode_base_proof(proto, pi)) == pi
    proof = cvqc.CvqcProof(pi, b"h" * 17)
    assert cvqc.CvqcProof.decode(proto, proof.encode(proto)) == proof


@pytest.mark.parametrize("codec", PROOF_CODECS.values(), ids=PROOF_CODECS)
def test_proof_protocol_outside_its_set_raises(codec):
    """Before any proof byte is read, so a reject mark raises it too."""
    for name in OUTSIDE_NAMES:
        with pytest.raises(DomainMismatch, match="unknown proof protocol"):
            codec(name.decode())
