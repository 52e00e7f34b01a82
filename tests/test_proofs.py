import dataclasses

import pytest

from qnk import proofs
from qnk.circuit_ir import EQUAL, chain_budget, check_chain, evaluate
from qnk.errors import InvalidWitness, NoValidNizk, ProofFailed, SetupProofInvalid
from qnk.primitives import ggm_eval, owf
from qnk.proofs import (
    NIZK_P_STEPS,
    NIZK_V_STEPS,
    NiwiScheme,
    NizkProof,
    Relation,
    ZapScheme,
    _nizk_budgets,
    nizk_hybrid_family,
    nizk_prove,
    nizk_setup,
    nizk_sim,
    nizk_verify,
    zapr_prove,
    zapr_setup,
    zapr_verify,
)
from qnk.qma import FIXTURES, Witness, fixture, ghz_witness, make_parity_language
from qnk.qsim import StateVector
from qnk.rand import Drbg

PAR = fixture("par8")


@pytest.fixture(scope="module")
def crs():
    return nizk_setup(PAR, 1)


class TestNizk:
    def test_setup_deterministic(self):
        a = nizk_setup(PAR, 7)
        b = nizk_setup(PAR, 7)
        assert a.digest() == b.digest()

    def test_encryptor_output_decrypts_to_escrow_value(self, crs):
        from qnk.nullio import WeCiphertext, we_dec_bytes
        x = b"\x07"
        ct = WeCiphertext.from_bytes(crs.p_prog.run(x))
        m = we_dec_bytes(ct, Witness.empty(), Drbg(2))
        assert m == ggm_eval(crs.escrow["k0"], x)

    def test_verifier_accepts_escrow_value(self, crs):
        x = b"\x15"
        assert crs.v_prog.run(x, ggm_eval(crs.escrow["k0"], x)) == b"\x01"

    def test_end_to_end(self, crs):
        pi = nizk_prove(crs, Witness.empty(), b"\x07", Drbg(3))
        assert nizk_verify(crs, pi, b"\x07") == 1

    def test_ghz_completeness_rate(self):
        crs_g = nizk_setup(fixture("ghz"), 4)
        ok = 0
        for i in range(100):
            try:
                pi = nizk_prove(crs_g, Witness(ghz_witness(), 5), b"\x01", Drbg(i))
            except ProofFailed:
                continue
            ok += nizk_verify(crs_g, pi, b"\x01")
        assert ok >= 90

    def test_forgeries_rejected(self, crs):
        d = Drbg(5)
        x = b"\x03"  # no instance
        hits = sum(nizk_verify(crs, NizkProof(d.bytes(16)), x) for _ in range(10 ** 4))
        assert hits == 0

    def test_prove_fails_on_no_instance(self, crs):
        with pytest.raises(ProofFailed):
            nizk_prove(crs, Witness.empty(), b"\x03", Drbg(6))

    def test_crs_padding_budgets(self, crs):
        fam = nizk_hybrid_family(crs, b"\x00")
        assert crs.p_prog.declared_size == chain_budget(fam, NIZK_P_STEPS)
        assert crs.v_prog.declared_size == chain_budget(fam, NIZK_V_STEPS)

    @pytest.mark.parametrize("lang", [*sorted(FIXTURES), "par12"])
    def test_memoized_budgets_match_the_families(self, lang):
        L = make_parity_language(12) if lang == "par12" else fixture(lang)
        crs = nizk_setup(L, 9)
        width = 1 if L.statement_bits <= 8 else 2  # 8- or 16-bit statement domain
        budgets = _nizk_budgets(8 * width)
        for x_star in (bytes(width), b"\x2a" * width, b"\xff" * width):
            fam = nizk_hybrid_family(crs, x_star)
            assert (chain_budget(fam, NIZK_P_STEPS), chain_budget(fam, NIZK_V_STEPS)) == budgets
        assert (crs.p_prog.declared_size, crs.v_prog.declared_size) == budgets

    def test_sealed_matches_unsealed_encryptor(self, crs):
        # the sealed CRS program agrees with its plain counterpart everywhere
        fam = nizk_hybrid_family(crs, b"\x00")
        d = Drbg(50)
        for _ in range(100):
            x = bytes([d.randint(0, 255)])
            assert crs.p_prog.run(x) == evaluate(fam["P"], [x])[0]


class TestSimulator:
    def test_sim_equals_prove_on_deterministic_instances(self, crs):
        for v in (0x01, 0x07, 0x15):
            x = bytes([v])
            pi = nizk_prove(crs, Witness.empty(), x, Drbg(v))
            assert nizk_sim(crs, x).pi == pi.pi

    def test_sim_matches_whenever_prove_succeeds(self):
        crs_g = nizk_setup(fixture("ghz"), 8)
        matched = 0
        for i in range(50):
            try:
                pi = nizk_prove(crs_g, Witness(ghz_witness(), 5), b"\x01", Drbg(i))
            except ProofFailed:
                continue
            assert nizk_sim(crs_g, b"\x01").pi == pi.pi
            matched += 1
        assert matched >= 45

    def test_sim_defined_on_no_instances(self, crs):
        pi = nizk_sim(crs, b"\x03")
        assert pi.pi == ggm_eval(crs.escrow["k0"], b"\x03")


def nizk_chains(crs):
    """(steps, points) for both chains on the exhaustive 8-bit domain; the
    verdict chain reads each statement with its PRF value and with junk."""
    k0 = crs.escrow["k0"]
    xs = [bytes([v]) for v in range(256)]
    return ((NIZK_P_STEPS, tuple((x,) for x in xs)),
            (NIZK_V_STEPS,
             tuple(pt for x in xs for pt in ((x, ggm_eval(k0, x)), (x, b"\x5a" * 16)))))


class TestHybridFamily:
    def test_equivalences_exhaustive(self, crs):
        for x_star in (b"\x00", b"\x2a", b"\xff"):
            fam = nizk_hybrid_family(crs, x_star)
            for steps, points in nizk_chains(crs):
                assert check_chain(fam, steps, points, x_star) is None

    def test_point_change_declared_equal_fails(self, crs):
        # P1 -> P2 changes the encryption coins at x_star, so the chain
        # declared as exact equivalences fails there and names that step
        fam = nizk_hybrid_family(crs, b"\x2a")
        (steps, points), _ = nizk_chains(crs)
        assert check_chain(fam, tuple((a, b, EQUAL) for a, b, _ in steps), points,
                           b"\x2a") == "P1->P2"

    def test_verifier_hybrid_hardwires_image(self, crs):
        fam = nizk_hybrid_family(crs, b"\x2a")
        # the final verdict program accepts at the point only on a preimage
        # of the hardwired image, which no 16-byte PRF value supplies
        assert evaluate(fam["Vstar"], [b"\x2a", b"\x00" * 16]) == [b"\x00"]


class TestModeledNiwi:
    REL = Relation("square", lambda x, w: owf(w) == x)

    def test_roundtrip(self):
        niwi = NiwiScheme(Drbg(9))
        x = owf(b"w0")
        pi = niwi.prove(self.REL, x, b"w0")
        assert niwi.verify(self.REL, pi, x) == 1

    def test_witness_independence(self):
        rel = Relation("any", lambda x, w: True)
        niwi = NiwiScheme(Drbg(10))
        assert niwi.prove(rel, b"x", b"w0") == niwi.prove(rel, b"x", b"w1")

    def test_invalid_witness(self):
        niwi = NiwiScheme(Drbg(11))
        with pytest.raises(InvalidWitness):
            niwi.prove(self.REL, owf(b"w"), b"not w")

    def test_forgeries_rejected(self):
        niwi = NiwiScheme(Drbg(12))
        d = Drbg(13)
        hits = sum(niwi.verify(self.REL, d.bytes(16), b"false statement")
                   for _ in range(10 ** 4))
        assert hits == 0

    def test_zap_crs_scopes_tags(self):
        z1 = ZapScheme(Drbg(14))
        z2 = ZapScheme(Drbg(15))
        rel = Relation("any", lambda x, w: True)
        assert z1.prove(rel, b"x", b"") != z2.prove(rel, b"x", b"")
        assert z1.verify(rel, z1.prove(rel, b"x", b""), b"x") == 1


@pytest.fixture(scope="module")
def zcrs():
    return zapr_setup(PAR, 16)


class TestZapr:

    def test_end_to_end(self, zcrs):
        proof = zapr_prove(zcrs, Witness.empty(copies=10), b"\x07", Drbg(17))
        assert zapr_verify(zcrs, proof, b"\x07") == 1

    def test_tampered_proof_rejected(self, zcrs):
        proof = zapr_prove(zcrs, Witness.empty(copies=10), b"\x07", Drbg(18))
        bad = dataclasses.replace(proof, zap_proof=bytes(16))
        assert zapr_verify(zcrs, bad, b"\x07") == 0

    @staticmethod
    def count_nizk_proofs(monkeypatch, fail_first=False):
        """Record the reference string of every `nizk_prove` call that
        `zapr_prove` makes; with `fail_first`, the first call raises
        ProofFailed."""
        calls = []

        def counting(crs, *args):
            calls.append(crs)
            if fail_first and len(calls) == 1:
                raise ProofFailed("stand-in failure")
            return nizk_prove(crs, *args)

        monkeypatch.setattr(proofs, "nizk_prove", counting)
        return calls

    def test_first_verifying_proof_ends_the_search(self, zcrs, monkeypatch):
        calls = self.count_nizk_proofs(monkeypatch)
        proof = zapr_prove(zcrs, Witness.empty(copies=10), b"\x07", Drbg(17))
        assert len(calls) == 1 and calls[0] is zcrs.crs0
        assert zapr_verify(zcrs, proof, b"\x07") == 1

    def test_second_reference_string_after_a_failed_first(self, zcrs, monkeypatch):
        calls = self.count_nizk_proofs(monkeypatch, fail_first=True)
        proof = zapr_prove(zcrs, Witness.empty(copies=10), b"\x07", Drbg(17))
        assert len(calls) == 2 and calls[1] is zcrs.crs1
        assert zapr_verify(zcrs, proof, b"\x07") == 1

    def test_no_instance_aborts(self, zcrs):
        with pytest.raises((NoValidNizk, ProofFailed)):
            zapr_prove(zcrs, Witness.empty(copies=10), b"\x03", Drbg(19))

    def test_corrupted_setup_proof_detected(self, zcrs):
        bad = dataclasses.replace(zcrs, setup_proof=bytes(16))
        with pytest.raises(SetupProofInvalid):
            zapr_prove(bad, Witness.empty(copies=10), b"\x07", Drbg(20))

    def test_ghz_quantum_witness(self):
        zg = zapr_setup(fixture("ghz"), 21)
        proof = zapr_prove(zg, Witness(ghz_witness(), 10), b"\x01", Drbg(22))
        assert zapr_verify(zg, proof, b"\x01") == 1

    def test_witness_indistinguishability_shadow(self):
        # two valid witnesses (phase-rotated GHZ) produce commitment bytes
        # whose per-byte statistics are indistinguishable across seeds
        zg = zapr_setup(fixture("ghz"), 23)
        w0 = ghz_witness()
        rotated = StateVector(3, [a * 1j for a in w0.amps])
        counts = {0: [0] * 8, 1: [0] * 8}
        n = 200
        for i in range(n):
            for tag, w in ((0, w0), (1, rotated)):
                proof = zapr_prove(zg, Witness(w, 10), b"\x01", Drbg(1000 * tag + i))
                body = proof.c_nizk[16:24]
                for j, byte in enumerate(body):
                    counts[tag][j] += bin(byte).count("1")
        sigma = (n * 8 * 0.25) ** 0.5
        for j in range(8):
            assert abs(counts[0][j] - counts[1][j]) < 6 * sigma
