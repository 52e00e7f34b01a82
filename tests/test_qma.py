import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest

from qnk.errors import (
    JudgeReject, MalformedCiphertext, MalformedCircuit, NotMonotone, WidthMismatch,
)
from qnk.qma import (
    ATTR_WIRE_BYTES,
    DEFAULT_WITNESS_COPIES,
    POLICY_FAMILY,
    PseudoDetCircuit,
    QmaLanguage,
    Witness,
    amplify,
    exact_accept_probability,
    fixture,
    ghz_witness,
    is_qualified,
    make_null_language,
    make_parity_language,
    make_threshold_language,
    make_universal_language,
    monotone_check,
    qma_verify,
    resolve_language,
)
from qnk.qsim import QuantumCircuit, StateVector
from qnk.rand import Drbg
from qnk.wire import pack_fields

SRC = str(Path(__file__).resolve().parents[1] / "src")


class TestParityFixture:
    def test_odd_accepts(self):
        L = fixture("par8")
        assert qma_verify(L, b"\x04", Witness.empty(), Drbg(1)) == 1

    def test_even_rejects(self):
        L = fixture("par8")
        assert qma_verify(L, b"\x05", Witness.empty(), Drbg(1)) == 0

    def test_spec_vectors(self):
        L = make_parity_language(3)
        assert qma_verify(L, bytes([0b101]), Witness.empty(), Drbg(2)) == 0
        assert qma_verify(L, bytes([0b100]), Witness.empty(), Drbg(2)) == 1


class TestGhzFixture:
    def test_ghz_accepted_with_certainty(self):
        L = fixture("ghz")
        w = Witness(ghz_witness(), DEFAULT_WITNESS_COPIES)
        assert exact_accept_probability(L, b"\x01", w) == pytest.approx(1.0)

    def test_phase_flipped_ghz_rejected(self):
        L = fixture("ghz")
        minus = StateVector(3, [2 ** -0.5, 0, 0, 0, 0, 0, 0, -(2 ** -0.5)])
        w = Witness(minus, DEFAULT_WITNESS_COPIES)
        assert exact_accept_probability(L, b"\x01", w) == pytest.approx(0.0)

    def test_no_instance_rejects_everything(self):
        L = fixture("ghz")
        w = Witness(ghz_witness(), DEFAULT_WITNESS_COPIES)
        assert exact_accept_probability(L, b"\x00", w) == pytest.approx(0.0)

    def test_width_mismatch(self):
        L = fixture("ghz")
        with pytest.raises(WidthMismatch):
            qma_verify(L, b"\x01", Witness.empty(), Drbg(3))

    def test_copies_checked_after_width(self):
        L = amplify(fixture("ghz"), 5)
        with pytest.raises(JudgeReject):
            qma_verify(L, b"\x01", Witness(ghz_witness(), copies=4), Drbg(3))
        with pytest.raises(WidthMismatch):
            qma_verify(L, b"\x01", Witness.empty(copies=4), Drbg(3))

    def test_sampled_acceptance_matches_exact(self):
        L = fixture("ghz")
        hits = sum(qma_verify(L, b"\x01", Witness(ghz_witness(), DEFAULT_WITNESS_COPIES), Drbg(i))
                   for i in range(200))
        assert hits == 200  # exact probability is 1


class TestAmplify:
    def test_r1_identity(self):
        L = fixture("par8")
        A = amplify(L, 1)
        assert (A.alpha, A.beta, A.reps) == (L.alpha, L.beta, 1)

    def test_binomial_tail_exact(self):
        L = QmaLanguage("gap", 1, 0, 0.9, 0.1,
                        lambda x, cw=b"": QuantumCircuit(1, ()), b"")
        A = amplify(L, 7)
        # independent oracle: exact Fraction binomial tails
        def tail(p, r, t):
            pf = Fraction(p).limit_denominator(10 ** 12)
            return float(sum(comb(r, k) * pf ** k * (1 - pf) ** (r - k)
                             for k in range(t, r + 1)))
        assert A.alpha == pytest.approx(tail(0.9, 7, 4), abs=1e-12)
        assert A.beta == pytest.approx(tail(0.1, 7, 4), abs=1e-12)
        assert A.alpha >= 0.996

    def test_deterministic_language_unchanged(self):
        L = amplify(fixture("par8"), 7)
        assert L.alpha == pytest.approx(1.0) and L.beta == pytest.approx(0.0)
        assert qma_verify(L, b"\x04", Witness.empty(copies=7), Drbg(4)) == 1

    def test_bad_reps(self):
        with pytest.raises(WidthMismatch):
            amplify(fixture("par8"), 4)


class TestMonotone:
    def test_threshold_is_monotone(self):
        monotone_check(fixture("th23"))

    def test_qualified_supersets(self):
        L = fixture("th23")
        assert is_qualified(L, bytes([0b110])) == "yes"
        assert is_qualified(L, bytes([0b111])) == "yes"
        assert is_qualified(L, bytes([0b100])) == "no"

    def test_non_monotone_detected(self):
        table = {0b00: "no", 0b01: "yes", 0b10: "no", 0b11: "no"}

        def classify(x: bytes) -> str:
            return table[x[0]]

        L = QmaLanguage("bad", 2, 0, 1.0, 0.0,
                        lambda x, cw=b"": QuantumCircuit(1, ()), b"",
                        classify=classify)
        with pytest.raises(NotMonotone):
            monotone_check(L)


class TestReferences:
    def test_fixture_refs_roundtrip(self):
        for name in ("par4", "par8", "ghz", "th23", "null0", "null3"):
            L = fixture(name)
            again = resolve_language(L.ref)
            assert again.ref == L.ref
            assert again.witness_qubits == L.witness_qubits

    def test_threshold_ref(self):
        L = make_threshold_language(4, 2)
        assert resolve_language(L.ref).classify(bytes([0b0110])) == "yes"

    @pytest.mark.parametrize("kind, param", [
        (b"par", b""), (b"par", b"\x04\x04"), (b"th", b""), (b"th", b"\x04"),
        (b"null", b""),
    ])
    def test_bad_parameter_field_rejected(self, kind, param):
        with pytest.raises(MalformedCiphertext):
            resolve_language(pack_fields(kind, param))

    @pytest.mark.parametrize("params", [
        (b"par", b"\x08"), (b"ghz",), (b"th", b"\x03\x02"), (b"null", b"\x00"),
        (b"policy", b"qubits 2\ninput 0\nCNOT 1 0\n"), (b"upolicy", b"\x00\x07"),
    ], ids=lambda params: params[0].decode())
    def test_field_after_parameters_rejected(self, params):
        canonical = pack_fields(*params)
        assert resolve_language(canonical).ref == canonical
        with pytest.raises(MalformedCiphertext):
            resolve_language(pack_fields(*params, b"junk"))

    def test_upolicy_resolves_without_encdelegate(self):
        code = ("import sys; from qnk.qma import resolve_language; from qnk.wire import pack_fields; "
                "L = resolve_language(pack_fields(b'upolicy', b'\\x00\\x07')); "
                "assert 'qnk.encdelegate' not in sys.modules; print(L.name)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env={**os.environ, "PYTHONPATH": SRC}, check=True).stdout
        assert out.strip() == "upolicy"

    @pytest.mark.parametrize("text, error", [
        (b"qubits", MalformedCircuit), (b"qubits x", MalformedCircuit),
        (b"qubits 2\nCNOT 0 y", MalformedCircuit), (b"\xff\xfe", MalformedCiphertext),
    ])
    def test_bad_policy_field_rejected(self, text, error):
        with pytest.raises(error):
            resolve_language(pack_fields(b"policy", text))

    def test_null_language_rejects(self):
        L = make_null_language(3)
        w = Witness(ghz_witness(), DEFAULT_WITNESS_COPIES)
        assert exact_accept_probability(L, b"\x01", w) == pytest.approx(0.0)


class TestUniversalLanguage:
    """Instance pid of the universal language over an attribute is a yes
    instance exactly when family policy pid accepts that attribute."""
    ATTR = bytes([0b0111])  # odd parity, two of its three low bits set

    @pytest.mark.parametrize("pid, p", [(1, 1.0), (2, 1.0), (3, 0.0)])
    def test_family_policy_decides(self, pid, p):
        x = pid.to_bytes(ATTR_WIRE_BYTES, "big")
        L = make_universal_language(self.ATTR)
        assert exact_accept_probability(L, x, Witness.empty()) == pytest.approx(p)

    @pytest.mark.parametrize("pid", [0, 4, 255, 0xFFFF])
    def test_unknown_policy_id_accepts_with_probability_0(self, pid):
        assert pid not in POLICY_FAMILY
        x = pid.to_bytes(ATTR_WIRE_BYTES, "big")
        L = make_universal_language(self.ATTR)
        assert exact_accept_probability(L, x, Witness.empty()) == 0.0
        assert qma_verify(L, x, Witness.empty(), Drbg(pid)) == 0


class TestPseudoDet:
    def test_output_map_and_certificate(self):
        circ = QuantumCircuit(2, (("X", (0,)),), n_input=1)
        pd = PseudoDetCircuit(circ, 3, (b"\x00" * 16, b"\xff" * 16))
        assert pd.decision_probability([0]) == pytest.approx(1.0)
        assert pd.run([0], Drbg(5)) == b"\xff" * 16

    def test_serialization(self):
        circ = QuantumCircuit(2, (("H", (0,)),), n_input=1)
        pd = PseudoDetCircuit(circ, 1, (b"a" * 16, b"b" * 16))
        assert PseudoDetCircuit.from_bytes(pd.to_bytes()) == pd

    def test_duplicate_target_rejected_at_decode(self):
        blob = pack_fields(b"qubits 2\ninput 1\nCNOT 1 1\n", b"\x01", b"a" * 16, b"b" * 16)
        with pytest.raises(MalformedCircuit, match="duplicate targets"):
            PseudoDetCircuit.from_bytes(blob)
