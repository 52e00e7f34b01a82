import hashlib
import json

import pytest

from qnk import attacks
from qnk.attacks import (
    attack_basis_flip,
    attack_linear,
    attack_stats,
    star_verdict,
)
from qnk.cvqc import (
    PROTO_TOY,
    TOY_LINEAR,
    TOY_STATS,
    ToyParams,
    claim_for,
    keygen_star,
    sealed_star_td_verifier,
    sealed_stats_verifier,
    sealed_toy_verifier,
    sim_gen,
    star_prove,
    stats_encode,
    toy_keygen,
    toy_prove,
    toy_prove_stats,
)
from qnk.errors import NoAcceptingProof, RankDeficient
from qnk.primitives import KEY_LEN
from qnk.qma import Witness, fixture
from qnk.rand import Drbg

PAR = fixture("par4")
CLAIM = claim_for(PAR, b"\x07")


class TestBasisFlip:
    def test_exact_recovery_100_instances(self):
        for trial in range(100):
            pp, r = toy_keygen(CLAIM, Drbg(trial))
            pi = toy_prove(pp, Witness.empty(), Drbg(1000 + trial))
            t = attack_basis_flip(sealed_toy_verifier(CLAIM, r), pi)
            assert t.recovered == r.body.bases
            assert t.query_count <= 2 * r.body.K + 2

    def test_no_accepting_proof_for_null_claims(self):
        null = claim_for(fixture("null0"), b"\x01", reps=1)
        pp, r = toy_keygen(null, Drbg(1))
        pi = toy_prove(pp, Witness.empty(copies=1), Drbg(2))
        with pytest.raises(NoAcceptingProof):
            attack_basis_flip(sealed_toy_verifier(null, r), pi)

    def test_all_computational_recovers_zeros(self):
        for s in range(300):
            pp, r = toy_keygen(CLAIM, Drbg(5000 + s))
            if any(r.body.bases):
                continue
            pi = toy_prove(pp, Witness.empty(), Drbg(3))
            t = attack_basis_flip(sealed_toy_verifier(CLAIM, r), pi)
            assert t.recovered == (0,) * r.body.K
            return
        pytest.skip("no all-computational key in the scanned range")

    def test_transcript_records_queries(self):
        pp, r = toy_keygen(CLAIM, Drbg(4))
        pi = toy_prove(pp, Witness.empty(), Drbg(5))
        t = attack_basis_flip(sealed_toy_verifier(CLAIM, r), pi)
        assert len(t.queries) == t.query_count
        report = json.loads(t.to_json())
        assert report["query_count"] == t.query_count

    def test_transcript_verdicts_reproducible(self):
        pp, r = toy_keygen(CLAIM, Drbg(4))
        pi = toy_prove(pp, Witness.empty(), Drbg(5))
        sealed = sealed_toy_verifier(CLAIM, r)
        t = attack_basis_flip(sealed, pi)
        for encoded, verdict in t.queries:
            assert (1 if sealed.run(encoded) == b"\x01" else 0) == verdict


class TestStats:
    def test_recovery_accuracy(self):
        correct = 0
        total = 0
        for trial in range(10):
            pp, r = toy_keygen(CLAIM, Drbg(100 + trial), ToyParams(variant=TOY_STATS))
            salted = toy_prove_stats(pp, Witness.empty(), Drbg(200 + trial))
            t = attack_stats(sealed_stats_verifier(CLAIM, r), salted,
                             samples=500, seed=trial)
            total += r.body.K
            correct += sum(1 for a, b in zip(t.recovered, r.body.bases) if a == b)
        assert correct / total >= 0.9

    def test_single_sample_undetermined(self):
        pp, r = toy_keygen(CLAIM, Drbg(6), ToyParams(variant=TOY_STATS))
        salted = toy_prove_stats(pp, Witness.empty(), Drbg(7))
        t = attack_stats(sealed_stats_verifier(CLAIM, r), salted, samples=1)
        assert all(v is None for v in t.recovered)

    def test_rejecting_proof_raises(self):
        pp, r = toy_keygen(CLAIM, Drbg(8), ToyParams(variant=TOY_STATS))
        salt, pi = toy_prove_stats(pp, Witness.empty(), Drbg(9))
        broken = tuple((1 - b, d) for b, d in pi)
        sealed = sealed_stats_verifier(CLAIM, r)
        if stats_accepts(sealed, salt, broken):
            pytest.skip("mutation accidentally accepted")
        with pytest.raises(NoAcceptingProof):
            attack_stats(sealed, (salt, broken), samples=8)


def stats_accepts(sealed, salt, pi):
    return sealed.run(stats_encode(salt, pi)) == b"\x01"


class TestLinear:
    def test_exact_secret_recovery(self):
        for trial in range(20):
            pp, r = toy_keygen(CLAIM, Drbg(300 + trial), ToyParams(variant=TOY_LINEAR))
            pi = toy_prove(pp, Witness.empty(), Drbg(400 + trial))
            t = attack_linear(sealed_toy_verifier(CLAIM, r), pi, width=r.body.w)
            assert t.recovered == r.body.secrets
            assert t.query_count <= 1 + r.body.K * 8

    def test_zero_secret(self):
        for s in range(400):
            pp, r = toy_keygen(CLAIM, Drbg(6000 + s), ToyParams(variant=TOY_LINEAR))
            if r.body.secrets[0] != 0:
                continue
            pi = toy_prove(pp, Witness.empty(), Drbg(10))
            t = attack_linear(sealed_toy_verifier(CLAIM, r), pi, width=4)
            assert t.recovered[0] == 0
            return
        pytest.skip("no zero secret in the scanned range")

    def test_dependent_probes_rank_deficient(self):
        pp, r = toy_keygen(CLAIM, Drbg(11), ToyParams(variant=TOY_LINEAR))
        pi = toy_prove(pp, Witness.empty(), Drbg(12))
        with pytest.raises(RankDeficient):
            attack_linear(sealed_toy_verifier(CLAIM, r), pi, width=4,
                          probes=[0b0001, 0b0010, 0b0011])

    def test_generic_spanning_probes(self):
        pp, r = toy_keygen(CLAIM, Drbg(13), ToyParams(variant=TOY_LINEAR))
        pi = toy_prove(pp, Witness.empty(), Drbg(14))
        t = attack_linear(sealed_toy_verifier(CLAIM, r), pi, width=4,
                          probes=[0b0011, 0b0110, 0b1100, 0b1000, 0b1111])
        assert t.recovered == r.body.secrets


class TestSimModeImmunity:
    def test_all_attacks_report_no_accepting_proof(self):
        sim = sim_gen(CLAIM, PROTO_TOY, Drbg(15))
        honest = keygen_star(CLAIM, PROTO_TOY, Drbg(15))
        proof = star_prove(honest.pp, Witness.empty(), sim.oracle, Drbg(16))
        verdict = star_verdict(sealed_star_td_verifier(sim), sim.oracle)
        for attack in (
            lambda: attack_basis_flip(verdict, proof.pi),
            lambda: attack_linear(verdict, proof.pi, width=4),
            lambda: attack_stats(lambda q: verdict(q[1 + KEY_LEN:]),
                                 (bytes(16), proof.pi), samples=8),
        ):
            with pytest.raises(NoAcceptingProof):
                attack()


def sha256(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def stats_setup():
    pp, r = toy_keygen(CLAIM, Drbg(100), ToyParams(variant=TOY_STATS))
    return r, toy_prove_stats(pp, Witness.empty(), Drbg(200))


class TestPinnedTranscripts:
    """Attack transcripts for one fixed key and seed each. The digests were
    taken before the verifier's check table and the stats adapter's
    encoding reuse, so they pin those changes to the same bytes."""

    def test_basis_flip(self):
        pp, r = toy_keygen(CLAIM, Drbg(4))
        t = attack_basis_flip(sealed_toy_verifier(CLAIM, r),
                              toy_prove(pp, Witness.empty(), Drbg(5)))
        assert sha256(t.to_json().encode()) == (
            "139f698c6e3405312eae766a3904233123316d5656631c95b282c7c7a65cbdaa")

    def test_linear(self):
        pp, r = toy_keygen(CLAIM, Drbg(300), ToyParams(variant=TOY_LINEAR))
        t = attack_linear(sealed_toy_verifier(CLAIM, r),
                          toy_prove(pp, Witness.empty(), Drbg(400)), width=4)
        assert sha256(t.to_json().encode()) == (
            "97bc1686062b3d09b3e5fc723bbae73feebf75d317f15ae8ae50fa16a17cfb39")

    def test_stats(self):
        r, salted = stats_setup()
        t = attack_stats(sealed_stats_verifier(CLAIM, r), salted, samples=40, seed=3)
        assert sha256(t.to_json().encode()) == (
            "7b7b6feb3143cfbf3b284e91f2c4e8f2dd14beb1247b59db76a0d2aa68416730")
        # to_json shows the first 64 queries; this digest covers all 641
        everything = b"".join(q for q, _ in t.queries) + bytes(v for _, v in t.queries)
        assert (t.query_count, sha256(everything)) == (
            641, "49acc70332442dc8571499f45eaa582de8eb27b511f1e4f04aaee198982b9da2")

    def test_every_stats_query_is_stats_encode(self):
        r, (salt0, pi) = stats_setup()
        t = attack_stats(sealed_stats_verifier(CLAIM, r), (salt0, pi), samples=6, seed=9)
        drbg = Drbg(9).child("stats-attack")
        want = [stats_encode(salt0, pi)]
        for i in range(len(pi)):
            flipped = pi[:i] + ((1 - pi[i][0], pi[i][1]),) + pi[i + 1:]
            for s in range(6):
                salt = drbg.child(f"salt-{i}-{s}").bytes(KEY_LEN)
                want += [stats_encode(salt, pi), stats_encode(salt, flipped)]
        assert [q for q, _ in t.queries] == want


@pytest.fixture(scope="module")
def setups():
    """Per attack: a call taking (verifier, pairs), the sealed verifier of
    one fixed key, and that key's honest accepting pairs."""
    pp, r = toy_keygen(CLAIM, Drbg(4))
    ppl, rl = toy_keygen(CLAIM, Drbg(300), ToyParams(variant=TOY_LINEAR))
    rs, (salt, pis) = stats_setup()
    return {
        "flip": (attack_basis_flip, sealed_toy_verifier(CLAIM, r),
                 toy_prove(pp, Witness.empty(), Drbg(5))),
        "linear": (lambda v, pi: attack_linear(v, pi, width=4), sealed_toy_verifier(CLAIM, rl),
                   toy_prove(ppl, Witness.empty(), Drbg(400))),
        "stats": (lambda v, pi: attack_stats(v, (salt, pi), samples=4, seed=3),
                  sealed_stats_verifier(CLAIM, rs), pis),
    }


ATTACKS = ["flip", "linear", "stats"]

BAD_PAIRS = {  # pairs -> what an attack given them raises, or None if it runs
    "float-b": (lambda pi: ((float(pi[0][0]), pi[0][1]),) + pi[1:], TypeError),
    "b-2": (lambda pi: ((2, pi[0][1]),) + pi[1:], NoAcceptingProof),
    "k-minus-1": (lambda pi: pi[:-1], NoAcceptingProof),
    "int": (lambda pi: 5, TypeError),
    "lists": (lambda pi: [list(pair) for pair in pi], None),
}


class TestQueryBytes:
    """Each attack encodes its accepting proof once and XORs one byte of
    that encoding per query; the verifier is a sealed surface or a callable
    on the same query bytes."""

    @pytest.mark.parametrize("kind", ATTACKS)
    def test_each_attack_encodes_its_proof_once(self, setups, monkeypatch, kind):
        run, sealed, pi = setups[kind]
        encoded = []
        real = attacks.encode_base_proof
        monkeypatch.setattr(attacks, "encode_base_proof",
                            lambda proto, pairs: encoded.append(pairs) or real(proto, pairs))
        t = run(sealed, pi)
        assert t.query_count > 1 and encoded == [pi]

    @pytest.mark.parametrize("kind", ATTACKS)
    def test_run_callable_gives_the_sealed_transcript(self, setups, kind):
        run, sealed, pi = setups[kind]
        want = run(sealed, pi)
        got = run(sealed.run, pi)
        assert (got.queries, got.recovered) == (want.queries, want.recovered)

    @pytest.mark.parametrize("kind", ATTACKS)
    @pytest.mark.parametrize("bad", list(BAD_PAIRS))
    def test_bad_pairs(self, setups, kind, bad):
        run, sealed, pi = setups[kind]
        mutate, error = BAD_PAIRS[bad]
        if error is None:
            assert run(sealed, mutate(pi)).queries == run(sealed, pi).queries
        else:
            with pytest.raises(error):
                run(sealed, mutate(pi))

    @pytest.mark.parametrize("salted, error", [
        ((bytes(16),), ValueError), ((bytes(16), ((0, 1),), b""), ValueError),
        (("salt", ((0, 1),)), TypeError), ((bytes(16), ((0, 300),)), ValueError),
        ((bytes(16), ((0, 1, 2),)), ValueError), ((bytes(16), 5), TypeError),
    ], ids=["one-field", "three-fields", "str-salt", "byte-overflow", "triple", "int-pi"])
    def test_bad_salted_proof(self, setups, salted, error):
        _, sealed, _ = setups["stats"]
        with pytest.raises(error):
            attack_stats(sealed, salted, samples=4)

    @pytest.mark.parametrize("probes, error", [
        ([1, 2, 4, 300], ValueError), ([1, 2, 4, -8], ValueError), ([1.0, 2, 4, 8], TypeError),
    ], ids=["over-a-byte", "negative", "float"])
    def test_probe_that_does_not_encode(self, setups, probes, error):
        """d_i ^ v outside 0..255 raises as encoding that entry would."""
        _, sealed, pi = setups["linear"]
        with pytest.raises(error):
            attack_linear(sealed, pi, width=4, probes=probes)
