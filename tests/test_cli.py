import argparse
import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from qnk import cli, encdelegate as ed
from qnk.circuit_ir import Node, program_from_bytes
from qnk.cli import main
from qnk.errors import BadDigest, BadMagic, MalformedCiphertext, VersionMismatch
from qnk.wire import (
    MAGIC,
    VERSION,
    Reader,
    envelope,
    open_envelope,
    pack_bytes,
    pack_fields,
    seal,
    unpack_fields,
    unseal,
)

from program_bytes import raw_program, raw_sealed


def raw_envelope(tag: bytes, payload: bytes, trailing: bytes = b"") -> bytes:
    """An envelope with a valid digest over whatever body it is given."""
    head = MAGIC + VERSION.to_bytes(2, "big") + pack_bytes(tag) + pack_bytes(payload) + trailing
    return head + hashlib.sha256(head).digest()


def envelope_tag(blob: bytes) -> str:
    """The type tag of an envelope, read past its magic and version."""
    return Reader(blob[6:]).field().decode()


def empty_claim_reps(setup: bytes) -> bytes:
    claim, *rest = unpack_fields(setup, 5)
    ref, x, _reps = unpack_fields(claim, 3)
    return pack_fields(pack_fields(ref, x, b""), *rest)


def cvqc_pp_proto(name: bytes):
    """Re-pack the protocol of a `cvqc.setup`'s `pp` as `name`."""
    def mutate(setup: bytes) -> bytes:
        claim, pp, *rest = unpack_fields(setup, 5)
        _proto, sealed_pp = unpack_fields(pp, 2)
        return pack_fields(claim, pack_fields(name, sealed_pp), *rest)
    return mutate


def nio_empty_copies(obf: bytes) -> bytes:
    *fields, _copies = unpack_fields(obf, 8)
    return pack_fields(*fields, b"")


def nio_non_utf8_variant(obf: bytes) -> bytes:
    fields = unpack_fields(obf, 8)
    return pack_fields(*fields[:2], b"\xff", *fields[3:])


def we_empty_count(ct: bytes) -> bytes:
    _count, payload = unpack_fields(ct, 2)
    return pack_fields(b"", payload)


def abe_keys_empty_attr_len(keys: bytes) -> bytes:
    sealed_seed, _attr_len, mpk = unpack_fields(keys, 3)
    return pack_fields(sealed_seed, b"", mpk)


def abe_ct_empty_attr_len(ct: bytes) -> bytes:
    prog, digest, _attr_len = unpack_fields(ct, 3)
    return pack_fields(prog, digest, b"")


def abe_ct_crafted_program(nodes, outputs):
    """Replace the ciphertext's program with a crafted node list; anyone can
    seal it, since the sealing key is a library constant."""
    def mutate(ct: bytes) -> bytes:
        _prog, digest, attr_len = unpack_fields(ct, 3)
        crafted = raw_sealed(raw_program(nodes, outputs, 2), len(nodes))
        return pack_fields(crafted, digest, attr_len)
    return mutate


# a node that reads itself, an output past the last node, and a chain deeper
# than the interpreter's stack
abe_ct_cyclic_program = abe_ct_crafted_program((Node("INPUT"), Node("XOR", (1, 0))), (1,))
abe_ct_output_out_of_range = abe_ct_crafted_program((Node("INPUT"),), (5,))
abe_ct_deep_chain = abe_ct_crafted_program(
    (Node("INPUT"),) + tuple(Node("SLICE", (i,), lo=0, hi=2) for i in range(1500)), (1500,))


def abe_sk_short_attr_wire(sk: bytes) -> bytes:
    _x, key = unpack_fields(sk, 2)
    return pack_fields(b"\x07", key)


def pe_ct_empty_payload_len(ct: bytes) -> bytes:
    cc, _payload_len = unpack_fields(ct, 2)
    return pack_fields(cc, b"")


def first_field(name: bytes):
    """Replace the first field of a `nizk.crs` (language name) or a
    `cvqc.proof` (protocol) with `name`."""
    def mutate(blob: bytes) -> bytes:
        _, rest = unpack_fields(blob, 2)
        return pack_fields(name, rest)
    return mutate


def cvqc_non_utf8_oracle_mode(setup: bytes) -> bytes:
    *head, spec = unpack_fields(setup, 5)
    _mode, *rest = unpack_fields(unseal(spec), 5)
    return pack_fields(*head, seal(pack_fields(b"\xff\xfe", *rest), b"cli-oracle"))


def cvqc_toy_pp(change):
    """Re-seal the TOY prover params of a `cvqc.setup` (claim, bases,
    secrets, (K, w, tau), variant; K = 8, w = 4) with some fields replaced:
    `change` maps a field index to the new field from the old."""
    def mutate(setup: bytes) -> bytes:
        claim, pp, *rest = unpack_fields(setup, 5)
        proto, sealed_pp = unpack_fields(pp, 2)
        fields = [change[i](f) if i in change else f
                  for i, f in enumerate(unpack_fields(unseal(sealed_pp), 5))]
        sealed_pp = seal(pack_fields(*fields), b"cvqc-toy-pp")
        return pack_fields(claim, pack_fields(proto, sealed_pp), *rest)
    return mutate


def cut_sealed_bit(ct: bytes) -> bytes:
    """Cut a WE ciphertext's sealed message CONST, the tagged bit `01 01`, to
    its tag byte and re-seal the program: it then decrypts to no byte at all."""
    inner, digest = unpack_fields(ct, 2)
    fields = unpack_fields(inner, 8)
    r = Reader(fields[1])
    mode, _declared, sealed = r.field(), r.u32(), r.field()
    p = program_from_bytes(unseal(sealed))
    nodes = [Node("CONST", value=b"\x01") if n == Node("CONST", value=b"\x01\x01") else n
             for n in p.nodes]
    assert nodes != list(p.nodes)
    fields[1] = raw_sealed(raw_program(nodes, p.outputs, p.input_arity), len(nodes), mode)
    return pack_fields(pack_fields(*fields), digest)


def we_cut_bit(payload: bytes) -> bytes:
    """`cut_sealed_bit` on the one ciphertext of a `we.ct`."""
    count, cts = unpack_fields(payload, 2)
    return pack_fields(count, pack_fields(cut_sealed_bit(unpack_fields(cts, 1)[0])))


def shares_cut_bit(payload: bytes) -> bytes:
    """`cut_sealed_bit` on every party's ciphertext of a three-party
    `share.set` (language, count, (opening, ciphertext) x 3, commitments)."""
    fields = unpack_fields(payload, 11)
    return pack_fields(*(cut_sealed_bit(f) if i in (3, 5, 7) else f
                         for i, f in enumerate(fields)))


cvqc_short_kwt = cvqc_toy_pp({3: lambda f: f[:2]})
# `Linear` is a name outside the three TOY variants
cvqc_pp_unknown_variant = cvqc_toy_pp({4: lambda f: b"Linear"})
cvqc_pp_k_past_fields = cvqc_toy_pp({3: lambda f: b"\x09" + f[1:]})
cvqc_pp_short_bases = cvqc_toy_pp({1: lambda f: f[:3]})


def cvqc_toy_key(change):
    """Re-pack the TOY verify key, a `cvqc.setup`'s third field, with some of
    its fields (tag, bases, secrets, target, (tau, w), variant, subset key)
    replaced: `change` maps a field index to the new field from the old."""
    def mutate(setup: bytes) -> bytes:
        claim, pp, r, *rest = unpack_fields(setup, 5)
        fields = [change[i](f) if i in change else f
                  for i, f in enumerate(unpack_fields(r, 7))]
        return pack_fields(claim, pp, pack_fields(*fields), *rest)
    return mutate


# keys whose fields disagree or name an unknown variant (`cvqc keygen --proto toy`
# has K = 8, w = 4)
HOSTILE_TOY_KEYS = {
    "short-secrets": {2: lambda f: f[:3]},
    "short-target": {3: lambda f: f[:3]},
    "short-bases": {1: lambda f: f[:3]},
    "256-positions": dict.fromkeys((1, 2, 3), lambda f: f * 32),
    "basis-2": {1: lambda f: b"\x02" + f[1:]},
    "w-0": {4: lambda f: f[:1] + b"\x00"},
    "w-9": {4: lambda f: f[:1] + b"\x09"},
    "w-255": {4: lambda f: f[:1] + b"\xff"},
    "secret-2**w": {2: lambda f: b"\x10" + f[1:]},
    "variant-Linear": {5: lambda f: b"Linear"},
}


# (produce, consume) argv; "{}" is the artifact path (`cvqc verify` fails on
# the setup before it reads the proof)
WE_CMDS = (["we", "enc", "--lang", "par8", "--x", "07", "--m", "1", "--seed", "3",
            "--out", "{}"],
           ["we", "dec", "--lang", "par8", "--x", "07", "--ct", "{}", "--seed", "4"])
NIO_CMDS = (["nio", "obf", "--x", "07", "--seed", "3", "--out", "{}"],
            ["nio", "eval", "--obf", "{}", "--seed", "4"])
CVQC_CMDS = (["cvqc", "keygen", "--proto", "toy", "--x", "07", "--seed", "5", "--out", "{}"],
             ["cvqc", "verify", "--setup", "{}", "--proof", "{}"])
CVQC_PROVE_CMDS = (CVQC_CMDS[0],
                   ["cvqc", "prove", "--setup", "{}", "--seed", "6", "--out", "{}.out"])
ABE_KEYGEN_CMDS = (["abe", "gen", "--attr-len", "4", "--seed", "1", "--out", "{}"],
                   ["abe", "keygen", "--keys", "{}", "--attr", "0111", "--out", "{}.out"])
NIZK_CMDS = (["nizk", "setup", "--lang", "par8", "--seed", "1", "--out", "{}"],
             ["nizk", "prove", "--crs", "{}", "--x", "07", "--seed", "2", "--out", "{}.out"])
SHARE_CMDS = (["share", "split", "--lang", "th23", "--parties", "3", "--secret", "1",
               "--seed", "1", "--out", "{}"],
              ["share", "rec", "--shares", "{}", "--subset", "0,2"])

# commands that need several produced files; "{name}" is `name.bin` (or
# `policy.txt`) in the test's directory
ABE_SETUP = (["abe", "gen", "--attr-len", "4", "--seed", "1", "--out", "{keys}"],
             ["abe", "keygen", "--keys", "{keys}", "--attr", "0111", "--out", "{sk}"])
ABE_ENC = ["abe", "enc", "--keys", "{keys}", "--m", "2a", "--seed", "2", "--out", "{ct}"]
PE_ENC = ["pe", "enc", "--keys", "{keys}", "--m", "2a", "--seed", "2", "--out", "{ct}"]
NIZK_SETUP = (["nizk", "setup", "--lang", "par8", "--seed", "1", "--out", "{setup}"],
              ["nizk", "prove", "--crs", "{setup}", "--x", "07", "--seed", "2", "--out", "{proof}"])
CVQC_SETUP = (["cvqc", "keygen", "--proto", "toy", "--x", "07", "--seed", "5", "--out", "{setup}"],
              ["cvqc", "prove", "--setup", "{setup}", "--seed", "6", "--out", "{proof}"])


def rewrap(name, mutate):
    """Corrupt the payload of artifact `name` and re-envelope it."""
    def corrupt(paths):
        blob = paths[name].read_bytes()
        tag = envelope_tag(blob)
        paths[name].write_bytes(envelope(tag, mutate(open_envelope(blob, tag))))
    return corrupt


def write_policy(text):
    return lambda paths: paths["policy"].write_text(text)


def write_policy_bytes(data):
    return lambda paths: paths["policy"].write_bytes(data)


@pytest.fixture
def tmp(tmp_path):
    return tmp_path


class TestEnvelope:
    def test_roundtrip(self):
        blob = envelope("test.tag", b"payload bytes")
        assert open_envelope(blob, "test.tag") == b"payload bytes"

    def test_bad_magic(self):
        with pytest.raises(BadMagic):
            open_envelope(b"XXXX" + b"\x00" * 40, "t")

    def test_bit_flip_detected(self):
        blob = bytearray(envelope("t", b"payload"))
        blob[12] ^= 1
        with pytest.raises(BadDigest):
            open_envelope(bytes(blob), "t")

    def test_version_mismatch(self):
        head = MAGIC + (9).to_bytes(2, "big") + pack_bytes(b"t") + pack_bytes(b"p")
        with pytest.raises(VersionMismatch):
            open_envelope(head + hashlib.sha256(head).digest(), "t")

    def test_non_utf8_tag(self):
        with pytest.raises(MalformedCiphertext):
            open_envelope(raw_envelope(b"\xff\xfe", b"p"), "t")

    def test_trailing_bytes_under_digest(self):
        assert open_envelope(raw_envelope(b"t", b"p"), "t") == b"p"
        with pytest.raises(MalformedCiphertext):
            open_envelope(raw_envelope(b"t", b"p", trailing=b"\x00"), "t")

    def test_wrong_tag(self):
        blob = envelope("a", b"p")
        with pytest.raises(VersionMismatch):
            open_envelope(blob, "b")


class TestWeCommands:
    def test_enc_dec_roundtrip(self, tmp, capsys):
        ct = tmp / "we.bin"
        assert main(["we", "enc", "--lang", "par8", "--x", "07", "--m", "101",
                     "--seed", "3", "--out", str(ct)]) == 0
        capsys.readouterr()
        assert main(["we", "dec", "--lang", "par8", "--x", "07",
                     "--ct", str(ct), "--seed", "4"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[-1] == "101"

    def test_dec_bottom_on_no_instance(self, tmp, capsys):
        ct = tmp / "we.bin"
        main(["we", "enc", "--lang", "par8", "--x", "03", "--m", "1",
              "--seed", "3", "--out", str(ct)])
        capsys.readouterr()
        assert main(["we", "dec", "--lang", "par8", "--x", "03",
                     "--ct", str(ct), "--seed", "4"]) == 1


    @pytest.mark.parametrize("cmds, tag, mutate, trailing", [
        (WE_CMDS, b"\xff", None, b""),
        (WE_CMDS, None, None, b"\x00"),
        (CVQC_CMDS, None, empty_claim_reps, b""),
        (CVQC_CMDS, None, cvqc_pp_proto(b"\xff"), b""),
        (NIO_CMDS, None, nio_empty_copies, b""),
        (NIO_CMDS, None, nio_non_utf8_variant, b""),
        (WE_CMDS, None, we_empty_count, b""),
        (ABE_KEYGEN_CMDS, None, abe_keys_empty_attr_len, b""),
        (NIZK_CMDS, None, first_field(b"\xff\xfe"), b""),
        (CVQC_CMDS, None, cvqc_non_utf8_oracle_mode, b""),
        (CVQC_PROVE_CMDS, None, cvqc_short_kwt, b""),
        (CVQC_PROVE_CMDS, None, cvqc_pp_unknown_variant, b""),
        (CVQC_PROVE_CMDS, None, cvqc_pp_proto(b"toy-ish"), b""),
        (CVQC_PROVE_CMDS, None, cvqc_pp_k_past_fields, b""),
        (CVQC_PROVE_CMDS, None, cvqc_pp_short_bases, b""),
        (WE_CMDS, None, we_cut_bit, b""),
        (SHARE_CMDS, None, shares_cut_bit, b""),
    ], ids=["non-utf8-tag", "trailing-bytes", "cvqc-empty-claim-reps", "cvqc-non-utf8-proto",
            "nio-empty-copies", "nio-non-utf8-field", "we-empty-count",
            "abe-keygen-empty-attr-len", "nizk-non-utf8-lang", "cvqc-non-utf8-oracle-mode",
            "cvqc-prove-short-kwt", "cvqc-prove-unknown-variant", "cvqc-prove-unknown-proto",
            "cvqc-prove-k-9-over-8-entries", "cvqc-prove-short-bases", "we-dec-cut-bit",
            "share-rec-cut-bit"])
    def test_dec_malformed_envelope_exits_1(self, tmp, capsys, cmds, tag, mutate, trailing):
        path = tmp / "artifact.bin"
        produce, consume = ([a.format(path) for a in argv] for argv in cmds)
        assert main(produce) == 0
        good_tag = envelope_tag(path.read_bytes())
        payload = open_envelope(path.read_bytes(), good_tag)
        if mutate is not None:
            payload = mutate(payload)
        path.write_bytes(raw_envelope(tag or good_tag.encode(), payload, trailing))
        capsys.readouterr()
        assert main(consume) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out.strip().splitlines()[-1])["error"] == "MalformedCiphertext"
        assert "Traceback" not in captured.out + captured.err

    @pytest.mark.parametrize("produce, corrupt, consume, error", [
        (ABE_SETUP + (ABE_ENC,), rewrap("ct", abe_ct_empty_attr_len),
         ["abe", "dec", "--keys", "{keys}", "--sk", "{sk}", "--ct", "{ct}"], "MalformedCiphertext"),
        (ABE_SETUP + (ABE_ENC,), rewrap("sk", abe_sk_short_attr_wire),
         ["abe", "dec", "--keys", "{keys}", "--sk", "{sk}", "--ct", "{ct}"], "MalformedCiphertext"),
        (ABE_SETUP + (ABE_ENC,), rewrap("ct", abe_ct_cyclic_program),
         ["abe", "dec", "--keys", "{keys}", "--sk", "{sk}", "--ct", "{ct}"], "MalformedCircuit"),
        (ABE_SETUP + (ABE_ENC,), rewrap("ct", abe_ct_output_out_of_range),
         ["abe", "dec", "--keys", "{keys}", "--sk", "{sk}", "--ct", "{ct}"], "MalformedCircuit"),
        (ABE_SETUP + (ABE_ENC,), rewrap("ct", abe_ct_deep_chain),
         ["abe", "dec", "--keys", "{keys}", "--sk", "{sk}", "--ct", "{ct}"], "MalformedCircuit"),
        (ABE_SETUP + (PE_ENC,), rewrap("ct", pe_ct_empty_payload_len),
         ["pe", "dec", "--keys", "{keys}", "--sk", "{sk}", "--ct", "{ct}"], "MalformedCiphertext"),
        (CVQC_SETUP, rewrap("proof", first_field(b"\xff\xfe")),
         ["cvqc", "verify", "--setup", "{setup}", "--proof", "{proof}"], "MalformedCiphertext"),
        (CVQC_SETUP, rewrap("proof", first_field(b"Whatever")),
         ["cvqc", "verify", "--setup", "{setup}", "--proof", "{proof}"], "MalformedCiphertext"),
        (NIZK_SETUP, rewrap("proof", lambda pi: pi[:15]),
         ["nizk", "verify", "--crs", "{setup}", "--x", "07", "--proof", "{proof}"],
         "WidthMismatch"),
        (ABE_SETUP[:1], write_policy("qubits\n"),
         ["abe", "enc", "--keys", "{keys}", "--policy-file", "{policy}", "--out", "{ct}"],
         "MalformedCircuit"),
        (ABE_SETUP[:1], write_policy("qubits 2\nCNOT 1 1\n"),
         ["abe", "enc", "--keys", "{keys}", "--policy-file", "{policy}", "--out", "{ct}"],
         "MalformedCircuit"),
        (ABE_SETUP[:1], write_policy_bytes(b"qubits 2\n\xff\n"),
         ["abe", "enc", "--keys", "{keys}", "--policy-file", "{policy}", "--out", "{ct}"],
         "MalformedCiphertext"),
        (ABE_SETUP[:1], write_policy("qubits 0\ninput 0\n"),
         ["abe", "enc", "--keys", "{keys}", "--policy-file", "{policy}", "--out", "{ct}"],
         "MalformedCircuit"),
        (ABE_SETUP[:1], write_policy("qubits 3\ninput -1\nX 0\n"),
         ["abe", "enc", "--keys", "{keys}", "--policy-file", "{policy}", "--out", "{ct}"],
         "MalformedCircuit"),
    ] + [(CVQC_SETUP, rewrap("setup", cvqc_toy_key(change)),
          ["cvqc", "verify", "--setup", "{setup}", "--proof", "{proof}"], "MalformedCiphertext")
         for change in HOSTILE_TOY_KEYS.values()],
        ids=["abe-dec-empty-attr-len", "abe-dec-short-attr-wire", "abe-dec-cyclic-program",
             "abe-dec-output-out-of-range", "abe-dec-deep-chain", "pe-dec-empty-payload-len",
             "cvqc-verify-non-utf8-proof-proto", "cvqc-verify-unknown-proof-proto",
             "nizk-verify-15-byte-proof",
             "abe-enc-policy-without-count",
             "abe-enc-policy-duplicate-target", "abe-enc-non-utf8-policy",
             "abe-enc-policy-zero-qubits", "abe-enc-policy-negative-input"]
        + [f"cvqc-verify-toy-key-{name}" for name in HOSTILE_TOY_KEYS])
    def test_consume_malformed_artifacts_exits_1(self, tmp, capsys, produce, corrupt, consume,
                                                 error):
        paths = {name: tmp / f"{name}.bin" for name in ("keys", "sk", "ct", "setup", "proof")}
        paths["policy"] = tmp / "policy.txt"
        for argv in produce:
            assert main([a.format(**paths) for a in argv]) == 0
        corrupt(paths)
        files = {p: p.read_bytes() for p in tmp.iterdir()}
        capsys.readouterr()
        assert main([a.format(**paths) for a in consume]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out.strip().splitlines()[-1])["error"] == error
        assert "Traceback" not in captured.out + captured.err
        assert {p: p.read_bytes() for p in tmp.iterdir()} == files


class TestCvqcCommands:
    def test_keygen_prove_verify(self, tmp, capsys):
        setup = tmp / "setup.bin"
        proof = tmp / "proof.bin"
        assert main(["cvqc", "keygen", "--proto", "toy", "--x", "07",
                     "--seed", "5", "--out", str(setup)]) == 0
        assert main(["cvqc", "prove", "--setup", str(setup), "--seed", "6",
                     "--out", str(proof)]) == 0
        assert main(["cvqc", "verify", "--setup", str(setup),
                     "--proof", str(proof)]) == 0

    def test_simgen_rejects_honest_proof(self, tmp, capsys):
        setup = tmp / "s.bin"
        sim = tmp / "sim.bin"
        proof = tmp / "p.bin"
        main(["cvqc", "keygen", "--proto", "toy", "--x", "07", "--seed", "7",
              "--out", str(setup)])
        main(["cvqc", "simgen", "--proto", "toy", "--x", "07", "--seed", "7",
              "--out", str(sim)])
        main(["cvqc", "prove", "--setup", str(sim), "--seed", "8", "--out", str(proof)])
        assert main(["cvqc", "verify", "--setup", str(sim), "--proof", str(proof)]) == 1

    # (setup argv, protocol of the proof's own setup): the proof names the
    # other protocol, so it does not verify under the setup
    @pytest.mark.parametrize("setup_argv, proof_proto", [
        (["keygen", "--proto", "oracle"], "toy"),
        (["keygen", "--proto", "toy"], "oracle"),
        (["tdgen", "--proto", "toy"], "oracle"),
    ], ids=["oracle-setup-toy-proof", "toy-setup-oracle-proof", "toy-tdgen-oracle-proof"])
    def test_proof_of_the_other_protocol_is_rejected(self, tmp, capsys, setup_argv,
                                                    proof_proto):
        setup, other, proof = tmp / "s.bin", tmp / "o.bin", tmp / "p.bin"
        assert main(["cvqc", *setup_argv, "--x", "07", "--seed", "5", "--out", str(setup)]) == 0
        assert main(["cvqc", "keygen", "--proto", proof_proto, "--x", "07", "--seed", "6",
                     "--out", str(other)]) == 0
        assert main(["cvqc", "prove", "--setup", str(other), "--seed", "7",
                     "--out", str(proof)]) == 0
        capsys.readouterr()
        assert main(["cvqc", "verify", "--setup", str(setup), "--proof", str(proof)]) == 1
        assert capsys.readouterr().out.splitlines() == ['{"status": "ok", "accept": 0}']

    @pytest.mark.parametrize("gen", ("keygen", "tdgen"))
    def test_proof_of_other_params_is_rejected(self, tmp, capsys, gen):
        # one seed gives one oracle seed whatever the params, so the mini
        # proof's digest matches under the default-params setup
        setup, mini, proof = tmp / "s.bin", tmp / "m.bin", tmp / "p.bin"
        common = ["--lang", "par8", "--x", "07", "--proto", "toy", "--seed", "3"]
        assert main(["cvqc", gen, *common, "--out", str(setup)]) == 0
        assert main(["cvqc", "keygen", *common, "--params", "mini", "--out", str(mini)]) == 0
        assert main(["cvqc", "prove", "--setup", str(mini), "--seed", "4",
                     "--out", str(proof)]) == 0
        capsys.readouterr()
        assert main(["cvqc", "verify", "--setup", str(setup), "--proof", str(proof)]) == 1
        assert capsys.readouterr().out.splitlines() == ['{"status": "ok", "accept": 0}']

    def test_no_instance_prove_fails(self, tmp, capsys):
        setup = tmp / "s.bin"
        main(["cvqc", "keygen", "--proto", "oracle", "--x", "03", "--seed", "9",
              "--out", str(setup)])
        assert main(["cvqc", "prove", "--setup", str(setup), "--seed", "10",
                     "--out", str(tmp / "p.bin")]) == 1


class TestNizkCommands:
    def test_setup_prove_verify_sim(self, tmp, capsys):
        crs = tmp / "crs.bin"
        proof = tmp / "p.bin"
        simp = tmp / "sim.bin"
        assert main(["nizk", "setup", "--lang", "par8", "--seed", "1",
                     "--out", str(crs)]) == 0
        assert main(["nizk", "prove", "--crs", str(crs), "--x", "07",
                     "--seed", "2", "--out", str(proof)]) == 0
        assert main(["nizk", "verify", "--crs", str(crs), "--x", "07",
                     "--proof", str(proof)]) == 0
        assert main(["nizk", "sim", "--crs", str(crs), "--x", "07",
                     "--out", str(simp)]) == 0
        assert (tmp / "p.bin").read_bytes() == (tmp / "sim.bin").read_bytes()

    def test_wrong_statement_rejected(self, tmp, capsys):
        crs = tmp / "crs.bin"
        proof = tmp / "p.bin"
        main(["nizk", "setup", "--lang", "par8", "--seed", "1", "--out", str(crs)])
        main(["nizk", "prove", "--crs", str(crs), "--x", "07", "--seed", "2",
              "--out", str(proof)])
        assert main(["nizk", "verify", "--crs", str(crs), "--x", "0e",
                     "--proof", str(proof)]) == 1


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


class TestZaprCommands:
    def test_setup_prove_verify(self, tmp, capsys):
        crs, proof = tmp / "crs.bin", tmp / "p.bin"
        assert main(["zapr", "setup", "--lang", "par8", "--seed", "1",
                     "--out", str(crs)]) == 0
        assert main(["zapr", "prove", "--crs", str(crs), "--x", "07", "--seed", "2",
                     "--out", str(proof)]) == 0
        capsys.readouterr()
        assert main(["zapr", "verify", "--crs", str(crs), "--x", "07",
                     "--proof", str(proof)]) == 0
        assert last_json(capsys) == {"status": "ok", "accept": 1}
        assert main(["zapr", "verify", "--crs", str(crs), "--x", "0b",
                     "--proof", str(proof)]) == 1
        assert last_json(capsys) == {"status": "ok", "accept": 0}

    def test_prove_no_instance_is_bottom(self, tmp, capsys):
        crs, proof = tmp / "crs.bin", tmp / "p.bin"
        main(["zapr", "setup", "--lang", "par8", "--seed", "1", "--out", str(crs)])
        capsys.readouterr()
        assert main(["zapr", "prove", "--crs", str(crs), "--x", "06", "--seed", "2",
                     "--out", str(proof)]) == 1
        assert last_json(capsys)["status"] == "bottom"
        assert not proof.exists()


class TestNioCommands:
    def test_obf_eval_with_witness(self, tmp, capsys):
        obf = tmp / "o.bin"
        assert main(["nio", "obf", "--lang", "ghz", "--seed", "3", "--out", str(obf)]) == 0
        capsys.readouterr()
        assert main(["nio", "eval", "--obf", str(obf), "--witness", "ghz",
                     "--seed", "4"]) == 0
        assert last_json(capsys) == {"status": "ok", "output": 1}


class TestAbeCommands:
    def test_full_flow(self, tmp, capsys):
        keys = tmp / "keys.bin"
        sk = tmp / "sk.bin"
        ct = tmp / "ct.bin"
        assert main(["abe", "gen", "--attr-len", "4", "--seed", "1",
                     "--out", str(keys)]) == 0
        assert main(["abe", "keygen", "--keys", str(keys), "--attr", "0111",
                     "--out", str(sk)]) == 0
        assert main(["abe", "enc", "--keys", str(keys), "--policy-id", "1",
                     "--m", "2a", "--seed", "2", "--out", str(ct)]) == 0
        assert main(["abe", "dec", "--keys", str(keys), "--sk", str(sk),
                     "--ct", str(ct)]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["m"] == "2a"

    def test_bottom_for_bad_attribute(self, tmp, capsys):
        keys = tmp / "keys.bin"
        sk = tmp / "sk.bin"
        ct = tmp / "ct.bin"
        main(["abe", "gen", "--attr-len", "4", "--seed", "1", "--out", str(keys)])
        main(["abe", "keygen", "--keys", str(keys), "--attr", "0011", "--out", str(sk)])
        main(["abe", "enc", "--keys", str(keys), "--policy-id", "1", "--m", "2a",
              "--seed", "2", "--out", str(ct)])
        assert main(["abe", "dec", "--keys", str(keys), "--sk", str(sk),
                     "--ct", str(ct)]) == 1

    def test_full_flow_at_the_widest_attribute(self, tmp, capsys):
        """--attr-len 8, MAX_ATTR_BITS: every command of the flow finishes."""
        paths = {name: str(tmp / f"{name}.bin") for name in ("keys", "sk", "ct")}
        for argv in (["abe", "gen", "--attr-len", "8", "--seed", "1", "--out", "{keys}"],
                     ["abe", "keygen", "--keys", "{keys}", "--attr", "01010111",
                      "--out", "{sk}"],
                     ["abe", "enc", "--keys", "{keys}", "--policy-id", "1", "--m", "2a",
                      "--seed", "2", "--out", "{ct}"]):
            assert main([a.format(**paths) for a in argv]) == 0
        assert main(["abe", "dec", "--keys", paths["keys"], "--sk", paths["sk"],
                     "--ct", paths["ct"]]) == 0
        assert last_json(capsys) == {"status": "ok", "m": "2a"}

    @pytest.mark.parametrize("attr_len", ["0", "1"])
    def test_gen_refuses_attr_len_below_2(self, tmp, capsys, attr_len):
        """Below 2 bits the keycheck's PRG image is no longer than its seed."""
        assert main(["abe", "gen", "--attr-len", attr_len, "--seed", "1",
                     "--out", str(tmp / "keys.bin")]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out.strip().splitlines()[-1])["error"] == "WidthMismatch"
        assert "Traceback" not in captured.out + captured.err
        assert list(tmp.iterdir()) == []


def keys_fields(build):
    """Rebuild the `abe.keys` envelope from its three fields."""
    def corrupt(good: bytes) -> bytes:
        sealed_seed, attr_len, mpk = unpack_fields(open_envelope(good, "abe.keys"), 3)
        return build(sealed_seed, attr_len, mpk)
    return corrupt


def keys_with(sealed_seed=None, attr_len=None, mpk=None, extra=()):
    return keys_fields(lambda s, a, m: envelope("abe.keys", pack_fields(
        s if sealed_seed is None else sealed_seed(s), a if attr_len is None else attr_len,
        m if mpk is None else mpk, *extra)))


def flip_byte(blob: bytes) -> bytes:
    return blob[:20] + bytes([blob[20] ^ 1]) + blob[21:]


# the `--keys` file that `abe dec` and `pe dec` are given, and how each ends:
# dec reads and checks the file's fields but uses none of them
BAD_DEC_KEYS = {
    "missing-file": (None, "FileNotFoundError"),
    "bad-magic": (lambda good: b"XXXX" + good[4:], "BadMagic"),
    "bad-digest": (lambda good: good[:-1] + bytes([good[-1] ^ 1]), "BadDigest"),
    "wrong-tag": (keys_fields(lambda *f: envelope("cprf.keys", pack_fields(*f))),
                  "VersionMismatch"),
    "two-fields": (keys_fields(lambda s, a, m: envelope("abe.keys", pack_fields(s, a))),
                   "MalformedCiphertext"),
    "four-fields": (keys_with(extra=(b"",)), "MalformedCiphertext"),
    "attr-len-empty": (keys_with(attr_len=b""), "MalformedCiphertext"),
    "attr-len-two-bytes": (keys_with(attr_len=b"\x00\x04"), "MalformedCiphertext"),
    "attr-len-0": (keys_with(attr_len=b"\x00"), "WidthMismatch"),
    "attr-len-1": (keys_with(attr_len=b"\x01"), "WidthMismatch"),
    "attr-len-9": (keys_with(attr_len=b"\x09"), "WidthMismatch"),
    "attr-len-10": (keys_with(attr_len=b"\x0a"), "WidthMismatch"),
    "attr-len-11": (keys_with(attr_len=b"\x0b"), "WidthMismatch"),
    "attr-len-255": (keys_with(attr_len=b"\xff"), "WidthMismatch"),
    "seal-tampered": (keys_with(sealed_seed=flip_byte), "MalformedCiphertext"),
    "seal-short": (keys_with(sealed_seed=lambda s: s[:31]), "MalformedCiphertext"),
    "seal-tampered-attr-len-11": (keys_with(sealed_seed=flip_byte, attr_len=b"\x0b"),
                                  "MalformedCiphertext"),
    "empty-seed": (keys_with(sealed_seed=lambda s: seal(b"", b"cli-abe")), None),
    "mpk-garbage": (keys_with(mpk=b"garbage"), None),
}


@pytest.fixture(scope="module")
def abe_artifacts(tmp_path_factory):
    d = tmp_path_factory.mktemp("abe")
    paths = {name: d / f"{name}.bin" for name in ("keys", "sk", "ct", "pct")}
    for argv, ct in ((*ABE_SETUP, ABE_ENC), "ct"), ((PE_ENC,), "pct"):
        for args in argv:
            assert main([a.format(keys=paths["keys"], sk=paths["sk"], ct=paths[ct])
                         for a in args]) == 0
    return paths


class TestDecKeys:
    @pytest.mark.parametrize("cmd", ["abe", "pe"])
    @pytest.mark.parametrize("case", list(BAD_DEC_KEYS))
    def test_dec_keys_file(self, tmp, capsys, abe_artifacts, cmd, case):
        corrupt, error = BAD_DEC_KEYS[case]
        keys = tmp / "keys.bin"
        if corrupt is not None:
            keys.write_bytes(corrupt(abe_artifacts["keys"].read_bytes()))
        ct = abe_artifacts["ct" if cmd == "abe" else "pct"]
        capsys.readouterr()
        rc = main([cmd, "dec", "--keys", str(keys), "--sk", str(abe_artifacts["sk"]),
                   "--ct", str(ct)])
        captured = capsys.readouterr()
        line = json.loads(captured.out.strip().splitlines()[-1])
        assert "Traceback" not in captured.out + captured.err
        if error is None:
            assert (rc, line["m"]) == (0, "2a")
        else:
            assert (rc, line["error"]) == (1, error)

    @pytest.mark.parametrize("cmd", ["abe", "pe"])
    def test_dec_builds_no_keys(self, capsys, monkeypatch, abe_artifacts, cmd):
        def refuse(*args, **kw):
            raise AssertionError("built on the dec path")

        for name in ("abe_gen", "obf_io", "_keycheck_budget"):
            monkeypatch.setattr(ed, name, refuse)
        ct = abe_artifacts["ct" if cmd == "abe" else "pct"]
        assert main([cmd, "dec", "--keys", str(abe_artifacts["keys"]),
                     "--sk", str(abe_artifacts["sk"]), "--ct", str(ct)]) == 0
        assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["m"] == "2a"


class TestCprfCommands:
    def test_commands_build_no_hybrid_family(self, tmp, capsys, monkeypatch):
        """Pad budgets are memoized per shape: once they are known, no command
        builds a hybrid family, and gen and eval seal nothing at all."""
        ed._keycheck_budget(ed.KP_ATTR_LEN)
        ed._encryptor_budget(ed.KP_ATTR_LEN)
        ed._cprf_budget()

        def refuse(*args, **kw):
            raise AssertionError("built on a command path")

        for name in ("abe_keycheck_hybrids", "abe_encryptor_hybrids", "cprf_hybrids"):
            monkeypatch.setattr(ed, name, refuse)
        keys, ck = tmp / "keys.bin", tmp / "ck.bin"
        with monkeypatch.context() as m:
            m.setattr(ed, "obf_io", refuse)
            assert main(["cprf", "gen", "--seed", "5", "--out", str(keys)]) == 0
            assert hashlib.sha256(keys.read_bytes()).hexdigest() == (
                "0bf6d41e6f98e404ccc14d889246fd717b331e2ce0c80ff6d48b0de0c831bafa")
            assert main(["cprf", "eval", "--keys", str(keys), "--x", "00000111"]) == 0
        assert main(["cprf", "constrain", "--keys", str(keys), "--policy-id", "1",
                     "--out", str(ck)]) == 0
        assert main(["cprf", "ceval", "--keys", str(keys), "--ck", str(ck),
                     "--x", "00000111"]) == 0
        lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert lines[1]["y"] == lines[3]["y"]


class TestShareCommands:
    def test_split_and_reconstruct(self, tmp, capsys):
        shares = tmp / "shares.bin"
        assert main(["share", "split", "--lang", "th23", "--parties", "3",
                     "--secret", "1", "--seed", "1", "--out", str(shares),
                     "--split-dir", str(tmp / "parties")]) == 0
        assert (tmp / "parties" / "party0.share").exists()
        assert main(["share", "rec", "--shares", str(shares),
                     "--subset", "0,2"]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["secret"] == 1
        assert main(["share", "rec", "--shares", str(shares), "--subset", "1"]) == 1

    @pytest.mark.parametrize("subset", ["7", "-1", "0,3"])
    def test_party_index_out_of_range_exits_1(self, tmp, capsys, subset):
        shares = tmp / "shares.bin"
        assert main(["share", "split", "--lang", "th23", "--parties", "3",
                     "--seed", "1", "--out", str(shares)]) == 0
        capsys.readouterr()
        assert main(["share", "rec", "--shares", str(shares), "--subset", subset]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out.strip().splitlines()[-1])["error"] == "WidthMismatch"
        assert "Traceback" not in captured.out + captured.err

    def test_non_monotone_language_exits_1_and_writes_nothing(self, tmp, capsys):
        shares, parties = tmp / "shares.bin", tmp / "parties"
        assert main(["share", "split", "--lang", "par4", "--parties", "4", "--seed", "1",
                     "--out", str(shares), "--split-dir", str(parties)]) == 1
        captured = capsys.readouterr()
        assert json.loads(captured.out.strip().splitlines()[-1])["error"] == "NotMonotone"
        assert "Traceback" not in captured.out + captured.err
        assert not shares.exists() and not parties.exists()


class TestAttackCommands:
    def test_flip_report(self, tmp, capsys):
        report = tmp / "report.json"
        assert main(["attack", "flip", "--lang", "par4", "--x", "07",
                     "--seed", "1", "--report", str(report)]) == 0
        data = json.loads(report.read_text())
        assert data["query_count"] >= 1
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["exact"] is True

    def test_stats(self, capsys):
        assert main(["attack", "stats", "--lang", "par4", "--x", "07",
                     "--samples", "8"]) == 0
        assert last_json(capsys)["exact"] is True

    def test_linear(self, capsys):
        assert main(["attack", "linear", "--lang", "par4", "--x", "07",
                     "--seed", "2"]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert out["exact"] is True


class TestDeterminism:
    def test_identical_artifacts_across_runs(self, tmp, capsys):
        blobs = []
        for run in range(2):
            out = tmp / f"we{run}.bin"
            main(["we", "enc", "--lang", "par8", "--x", "07", "--m", "1",
                  "--seed", "9", "--out", str(out)])
            blobs.append(out.read_bytes())
        assert blobs[0] == blobs[1]


# each (command, action) and exactly the flags its handler reads; "*" marks
# a required flag
GEN = "--lang --x --proto --params --seed --out"
ATTACK = "--lang --x --params --witness --copies --seed --report"
ENC = "--keys* --policy-id --policy-file --m --seed --out"
CLI_SURFACE = {
    ("cvqc", "keygen"): GEN, ("cvqc", "tdgen"): GEN, ("cvqc", "simgen"): GEN,
    ("cvqc", "prove"): "--setup* --witness --copies --seed --out",
    ("cvqc", "verify"): "--setup* --proof*",
    ("nio", "obf"): GEN,
    ("nio", "eval"): "--obf* --witness --copies --seed",
    ("we", "enc"): "--lang --x --m --seed --out",
    ("we", "dec"): "--lang --x --ct* --witness --copies --seed",
    ("nizk", "setup"): "--lang --seed --out", ("zapr", "setup"): "--lang --seed --out",
    ("nizk", "prove"): "--crs* --x --witness --copies --seed --out",
    ("zapr", "prove"): "--crs* --x --witness --copies --seed --out",
    ("nizk", "verify"): "--crs* --proof* --x", ("zapr", "verify"): "--crs* --proof* --x",
    ("nizk", "sim"): "--crs* --x --out",
    ("abe", "gen"): "--attr-len --seed --out",
    ("abe", "keygen"): "--keys* --attr --out",
    ("abe", "enc"): ENC, ("pe", "enc"): ENC,
    ("abe", "dec"): "--keys* --sk* --ct* --seed",
    ("pe", "dec"): "--keys* --sk* --ct*",
    ("cprf", "gen"): "--seed --out",
    ("cprf", "eval"): "--keys* --x",
    ("cprf", "constrain"): "--keys* --policy-id --out",
    ("cprf", "ceval"): "--keys* --ck* --x --seed",
    ("share", "split"): "--lang --parties --secret --seed --out --split-dir",
    ("share", "rec"): "--shares* --subset --witness --copies --seed",
    ("attack", "flip"): ATTACK, ("attack", "linear"): ATTACK,
    ("attack", "stats"): ATTACK + " --samples",
    ("selftest", None): "--only",
}


def _choices(parser) -> dict:
    """The parsers under `parser`'s subcommand positional, or {}."""
    return next((a.choices for a in parser._actions
                 if isinstance(a, argparse._SubParsersAction)), {})


def cli_surface() -> set:
    """(command, action, flag) for every flag the parser accepts, the flag
    marked "*" when it is required."""
    triples = set()
    for command, cp in _choices(cli._parser()[0]).items():
        for action, ap in (_choices(cp) or {None: cp}).items():
            triples |= {(command, action, a.option_strings[0] + "*" * a.required)
                        for a in ap._actions if a.option_strings and a.dest != "help"}
    return triples


class TestUsage:
    def test_unknown_flag_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["we", "enc", "--no-such-flag"])
        assert e.value.code == 2

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as e:
            main(["frobnicate"])
        assert e.value.code == 2

    @pytest.mark.parametrize("cmd", [["abe", "enc"], ["cprf", "constrain"], ["pe", "enc"]])
    @pytest.mark.parametrize("policy_id", ["0", "9"])
    def test_unknown_policy_id_exits_2(self, capsys, cmd, policy_id):
        with pytest.raises(SystemExit) as e:
            main(cmd + ["--policy-id", policy_id])
        assert e.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice" in err and "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", [
        (["abe", "keygen"], "--keys"),
        (["abe", "dec"], "--keys"),
        (["pe", "dec"], "--keys"),
        (["cprf", "eval"], "--keys"),
        (["nio", "eval"], "--obf"),
        (["we", "dec", "--lang", "par8", "--x", "07"], "--ct"),
        (["nizk", "verify", "--x", "07"], "--crs"),
        (["cvqc", "verify"], "--setup"),
    ], ids=lambda v: " ".join(v[:2]) if isinstance(v, list) else v)
    def test_missing_path_flag_exits_2(self, tmp, capsys, monkeypatch, argv, flag):
        monkeypatch.chdir(tmp)
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"qnk {' '.join(argv[:2])}: error: the following arguments are required: {flag}" \
            in captured.err
        assert "Traceback" not in captured.err
        assert list(tmp.iterdir()) == []

    def test_each_action_takes_only_the_flags_it_reads(self):
        want = {(c, a, f) for (c, a), flags in CLI_SURFACE.items() for f in flags.split()}
        assert len(want) == 143
        assert cli_surface() == want

    @pytest.mark.parametrize("argv", [
        ["selftest", "--params", "mini"],
        ["abe", "gen", "--lang", "ghz"],
        ["cprf", "gen", "--witness", "ghz"],
        ["nizk", "setup", "--x", "07"],
        ["we", "enc", "--ct", "x.bin"],
    ], ids=" ".join)
    def test_unread_flag_exits_2(self, tmp, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp)
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert list(tmp.iterdir()) == []

    def test_missing_action_exits_2(self, capsys):
        with pytest.raises(SystemExit) as e:
            main(["nizk"])
        assert e.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_selftest_subset(self, capsys):
        assert main(["selftest", "--only", "1,8"]) == 0
        out = capsys.readouterr().out
        assert "PASS criterion 1" in out and "PASS criterion 8" in out


# a malformed flag value is a usage error, whatever the command would do next
HOSTILE_FLAGS = [
    ["nio", "obf", "--x", "zz"],
    ["attack", "flip", "--x", "0g"],
    ["abe", "enc", "--m", "zz"],
    ["pe", "enc", "--m", "2a3"],
    ["abe", "keygen", "--attr", "0121"],
    ["abe", "keygen", "--attr", ""],
    ["cprf", "eval", "--x", "2"],
    ["we", "enc", "--m", "abc"],
    ["we", "enc", "--m", "2"],
    ["we", "enc", "--m", "1" * 256],
    ["share", "rec", "--subset", "0,x"],
    ["selftest", "--only", "1,x"],
    ["selftest", "--only", "0"],
    ["selftest", "--only", "12"],
    ["abe", "gen", "--attr-len", "-1"],
    ["we", "enc", "--seed", "-1"],
    ["we", "enc", "--seed", str(1 << 128)],
    ["we", "enc", "--lang", "nope"],
    ["nizk", "setup", "--lang", "par9"],
    ["attack", "stats", "--samples", "0"],
    ["attack", "stats", "--samples", "-3"],
]


class TestHostileInput:
    @pytest.mark.parametrize("argv", HOSTILE_FLAGS, ids=[" ".join(a)[:40] for a in HOSTILE_FLAGS])
    def test_malformed_flag_value_exits_2(self, tmp, capsys, monkeypatch, argv):
        monkeypatch.chdir(tmp)
        with pytest.raises(SystemExit) as e:
            main(argv)
        assert e.value.code == 2
        captured = capsys.readouterr()
        assert "invalid" in captured.err
        assert "Traceback" not in captured.out + captured.err
        assert list(tmp.iterdir()) == []

    @pytest.mark.parametrize("argv, error", [
        (["nio", "eval", "--obf", "{tmp}/missing.bin"], "FileNotFoundError"),
        (["we", "dec", "--ct", "{tmp}/missing.bin"], "FileNotFoundError"),
        (["abe", "keygen", "--keys", "{tmp}/missing.bin"], "FileNotFoundError"),
        (["nizk", "verify", "--crs", "{tmp}", "--proof", "{tmp}/missing.bin"], "IsADirectoryError"),
        (["we", "enc", "--out", "{tmp}/no/such/dir/we.bin"], "FileNotFoundError"),
        (["nizk", "setup", "--out", "{tmp}"], "IsADirectoryError"),
    ], ids=["nio-missing-obf", "we-missing-ct", "abe-missing-keys", "nizk-crs-is-dir",
            "we-out-in-missing-dir", "nizk-out-is-dir"])
    def test_unreadable_or_unwritable_path_exits_1(self, tmp, capsys, argv, error):
        assert main([a.format(tmp=tmp) for a in argv]) == 1
        captured = capsys.readouterr()
        line = json.loads(captured.out.strip().splitlines()[-1])
        assert (line["status"], line["error"]) == ("error", error)
        assert "Traceback" not in captured.out + captured.err

    def test_parser_built_once(self, tmp, capsys):
        cli._parser.cache_clear()
        for run in range(2):
            assert main(["we", "enc", "--m", "", "--out", str(tmp / f"we{run}.bin")]) == 0
        assert cli._parser.cache_info().misses <= 1


class TestStatementWidth:
    """Every action that makes a claim from a fixture and --x refuses an --x
    of another width than the fixture's statements (one byte for each)."""

    @pytest.mark.parametrize("x", ["0707", ""], ids=["two-bytes", "empty"])
    @pytest.mark.parametrize("argv", [
        ["cvqc", "keygen", "--lang", "par8"],
        ["nio", "obf", "--lang", "par8"],
        ["we", "enc", "--lang", "par8"],
        ["we", "dec", "--lang", "par8", "--ct", "{ct}"],
        ["attack", "flip", "--lang", "par4", "--report", "flip.json"],
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_wrong_width_exits_1_and_writes_nothing(self, tmp_path_factory, capsys,
                                                    monkeypatch, argv, x):
        ct = tmp_path_factory.mktemp("ct") / "we.bin"
        if "{ct}" in argv:  # a real ciphertext, so only the width can fail
            assert main(["we", "enc", "--lang", "par8", "--x", "07", "--out", str(ct)]) == 0
        work = tmp_path_factory.mktemp("work")
        monkeypatch.chdir(work)
        capsys.readouterr()
        assert main([a.format(ct=ct) for a in argv] + ["--x", x]) == 1
        line = json.loads(capsys.readouterr().out)
        assert (line["status"], line["error"]) == ("error", "WidthMismatch")
        assert list(work.iterdir()) == []


# ---------------------------------------------------------------------------
# `main` parses a (command, action) with that action's parser alone


def readme_argv() -> list[list[str]]:
    """The argv of every `qnk` command in README's shell blocks."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```sh\n(.*?)```", text, re.S)
    lines = "\n".join(blocks).replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("qnk ")]


# a value each flag accepts, other than its default
FLAG_VALUES = {
    "--seed": "9", "--lang": "par4", "--params": "mini", "--x": "01", "--proto": "toy",
    "--witness": "ghz", "--copies": "3", "--out": "o.bin", "--report": "r.json",
    "--samples": "7", "--policy-id": "2", "--policy-file": "policy.txt", "--m": "01",
    "--attr-len": "3", "--attr": "01", "--parties": "4", "--secret": "0",
    "--split-dir": "parties", "--subset": "0,2", "--only": "1,8",
    **{flag: f"{flag[2:]}.bin" for flag in
       ("--setup", "--proof", "--obf", "--ct", "--crs", "--keys", "--sk", "--ck", "--shares")},
}


def flag_argv() -> list[list[str]]:
    """For each action the parser walk finds: its required flags alone, then
    with each other flag added."""
    argvs = []
    for command, cp in _choices(cli._parser()[0]).items():
        for action, ap in (_choices(cp) or {None: cp}).items():
            head = [command] + ([action] if action else [])
            flags = [a.option_strings[0] for a in ap._actions
                     if a.option_strings and a.dest != "help"]
            required = [v for a in ap._actions if a.required and a.option_strings
                        for v in (a.option_strings[0], FLAG_VALUES[a.option_strings[0]])]
            argvs.append(head + required)
            argvs += [head + required + [f, FLAG_VALUES[f]] for f in flags if f not in required]
    return argvs


# README's exit-2 cases (with the malformed values of HOSTILE_FLAGS) and the
# forms argparse reads in its own way
USAGE_ERRORS = [
    [], ["frobnicate"], ["we", "frob"], ["nizk"], ["abe", "dec"], ["nio", "eval"],
    ["selftest", "--params", "mini"], ["abe", "gen", "--lang", "ghz"],
    ["we", "enc", "--x", "zz"], ["abe", "dec", "--keys", "k.bin", "--bogus"],
    ["we", "enc", "--bogus", "1", "--seed"], ["we", "enc", "--", "x"],
    ["we", "enc", "extra", "--seed", "1", "--more"], ["share", "split", "--se", "1"],
    ["nizk", "verify", "--x", "07", "--seed", "1"], *HOSTILE_FLAGS,
]


def help_argv() -> list[list[str]]:
    """--help at every level of the parser walk."""
    argvs = [["--help"], ["-h"]]
    for command, cp in _choices(cli._parser()[0]).items():
        argvs.append([command, "--help"])
        argvs += [[command, action, "--help"] for action in _choices(cp)]
    return argvs


def exit_of(capsys, parse, argv) -> tuple:
    """(exit code, stdout, stderr) of `parse(argv)`, which must exit."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as e:
        parse(argv)
    captured = capsys.readouterr()
    return e.value.code, captured.out, captured.err


class TestLeafParsers:
    def test_every_action_of_the_walk_has_its_tree_parser(self):
        tree, leaves = cli._parser()
        walked = {(command, action): ap for command, cp in _choices(tree).items()
                  for action, ap in _choices(cp).items()}
        assert len(walked) == 31 and walked.keys() == leaves.keys()
        assert all(leaves[key] is ap for key, ap in walked.items())

    def test_namespace_equals_the_trees(self, monkeypatch):
        tree, readme = cli._parser()[0], readme_argv()
        assert {argv[0] for argv in readme} == _choices(tree).keys()
        for argv in readme + flag_argv() + [
                ["we", "enc", "--seed=5"], ["we", "enc", "--se", "5"], ["we", "enc", "--x=0a"]]:
            seen = []
            monkeypatch.setattr(cli, f"cmd_{argv[0]}", lambda args: seen.append(vars(args)) or 0)
            assert main(argv) == 0, argv
            assert seen == [vars(tree.parse_args(argv))], argv

    @pytest.mark.parametrize("argv", USAGE_ERRORS + help_argv(), ids=" ".join)
    def test_exit_and_output_equal_the_trees(self, capsys, argv):
        want = exit_of(capsys, cli._parser()[0].parse_args, argv)
        assert exit_of(capsys, main, argv) == want
        assert want[0] == (0 if {"-h", "--help"} & set(argv) else 2)

    def test_an_action_call_does_not_walk_the_tree(self, tmp, capsys, monkeypatch):
        tree = cli._parser()[0]
        monkeypatch.setattr(tree, "parse_known_args", None)
        assert main(["we", "enc", "--m", "", "--out", str(tmp / "we.bin")]) == 0


COLD_PATH = """
import json, sys
import qnk, qnk.cli
assert "numpy" not in sys.modules, "import qnk, qnk.cli"
d = sys.argv[1]
for argv in (["abe", "gen", "--attr-len", "4", "--seed", "1", "--out", d + "/keys.bin"],
             ["nizk", "setup", "--lang", "par8", "--seed", "1", "--out", d + "/crs.bin"],
             ["nio", "obf", "--lang", "ghz", "--seed", "3", "--out", d + "/obf.bin"]):
    assert qnk.cli.main(argv) == 0
    assert "numpy" not in sys.modules, argv
assert qnk.cli.main(["nio", "eval", "--obf", d + "/obf.bin", "--witness", "ghz",
                     "--seed", "4"]) == 0
assert "numpy" in sys.modules
"""


def test_numpy_loaded_only_by_simulating_actions(tmp):
    """A fresh process imports numpy on the first simulation, not before."""
    src = Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", COLD_PATH, str(tmp)],
                          env={**os.environ, "PYTHONPATH": str(src)},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"status": "ok", "output": 1}
