import hashlib
import hmac
import inspect
import threading

import pytest
from hypothesis import given, settings, strategies as st

from qnk import primitives
from qnk.errors import (
    DomainMismatch,
    LengthTooLarge,
    MalformedCiphertext,
    MessageTooLong,
    NotBinding,
    PuncturedPoint,
)
from qnk.primitives import (
    MODE_SIMGEN,
    MODE_TDGEN,
    PrfKey,
    RandomOracle,
    commit,
    ggm_eval,
    ggm_eval_punct,
    ggm_punct,
    owf,
    prf_eval,
    prf_gen,
    prg,
    ro_query,
    sbsh_com,
    sbsh_ext,
    sbsh_gen,
    sbsh_is_binding,
    sbsh_key,
    verify_open,
    _xor,
)
from qnk.rand import Drbg
from qnk.wire import seal, unseal

ZERO_KEY = PrfKey(b"\x00" * 16)


class TestPrf:
    def test_zero_key_empty_input_vector(self):
        # frozen vector: HMAC-SHA256(0^16, "") truncated to 16 bytes
        assert prf_eval(ZERO_KEY, b"") == bytes.fromhex("b613679a0814d9ec772f95d778c35fc5")

    def test_deterministic(self):
        k = prf_gen(Drbg(1))
        assert prf_eval(k, b"abc") == prf_eval(k, b"abc")

    def test_extension_changes_output(self):
        d = Drbg(2)
        collisions = 0
        for _ in range(10 ** 4):
            k = PrfKey(d.bytes(16))
            x = d.bytes(8)
            if prf_eval(k, x) == prf_eval(k, x + b"\x00"):
                collisions += 1
        assert collisions == 0

    def test_key_length_enforced(self):
        with pytest.raises(DomainMismatch):
            PrfKey(b"\x00" * 15)


class TestGgm:
    def test_punctured_agrees_everywhere_else(self):
        k = prf_gen(Drbg(3), 8)
        kz = ggm_punct(k, 0x2A)
        for x in range(256):
            if x == 0x2A:
                continue
            assert ggm_eval_punct(kz, x) == ggm_eval(k, x)

    def test_punctured_point_errors(self):
        kz = ggm_punct(prf_gen(Drbg(4), 8), 0x2A)
        with pytest.raises(PuncturedPoint):
            ggm_eval_punct(kz, 0x2A)

    def test_first_path_key_is_right_child_of_root(self):
        k = PrfKey(b"\x00" * 16, 8)
        kz = ggm_punct(k, 0x00)
        g1 = hashlib.sha256(b"\x00" * 16 + b"\x01").digest()[:16]
        assert kz.path_keys[0] == (1, g1)

    def test_all_zero_input_is_left_spine(self):
        k = PrfKey(b"\x00" * 16, 8)
        s = k.bytes
        for _ in range(8):
            s = hashlib.sha256(s + b"\x00").digest()[:16]
        assert ggm_eval(k, 0) == s

    def test_full_domain_collision_free(self):
        k = prf_gen(Drbg(5), 8)
        table = {ggm_eval(k, x) for x in range(256)}
        assert len(table) == 256

    def test_plain_key_still_defined_at_punctured_point(self):
        k = prf_gen(Drbg(6), 8)
        ggm_punct(k, 0x11)
        assert len(ggm_eval(k, 0x11)) == 16

    def test_width_mismatch(self):
        k = prf_gen(Drbg(7), 8)
        with pytest.raises(DomainMismatch):
            ggm_eval(k, 256)
        with pytest.raises(DomainMismatch):
            ggm_punct(k, b"\x00\x01")

    def test_punctured_key_shape(self):
        kz = ggm_punct(prf_gen(Drbg(8), 16), 0x1234)
        assert len(kz.path_keys) == 16
        assert kz.point == 0x1234


class TestXor:
    @pytest.mark.parametrize("n", [0, 1, 17, 4096])
    def test_matches_bytewise_xor(self, n):
        d = Drbg(17).child(str(n))
        for lead in {0, min(n, 1), min(n, 5)}:  # leading zero bytes
            a = bytes(lead) + d.bytes(n - lead)
            b = bytes(lead) + d.bytes(n - lead)
            for x, y in ((a, b), (a, a), (a, bytes(n))):
                assert _xor(x, y) == bytes(u ^ v for u, v in zip(x, y))


class TestPrg:
    def test_single_block(self):
        assert len(prg(b"\x01" * 16, 16)) == 16

    def test_prefix_property(self):
        s = b"\x02" * 16
        assert prg(s, 32)[:16] == prg(s, 16)

    def test_seed_collisions(self):
        d = Drbg(9)
        seen = set()
        for _ in range(10 ** 4):
            out = prg(d.bytes(16), 64)
            assert out not in seen
            seen.add(out)

    def test_too_large(self):
        with pytest.raises(LengthTooLarge):
            prg(b"\x00" * 16, 2 ** 16 + 1)

    def test_too_large_is_not_memoized(self):
        primitives._prg.cache_clear()
        for _ in range(2):
            with pytest.raises(LengthTooLarge):
                prg(b"\x03" * 16, 2 ** 16 + 1)
        assert primitives._prg.cache_info().currsize == 0

    def test_stays_a_plain_function(self):
        # the layer tracer wraps plain functions only and counts prg_bytes through prg
        assert inspect.isfunction(primitives.prg)


def reference_prg(s: bytes, out_len: int) -> bytes:
    """The PRG's definition as a block loop: block i = HMAC-SHA256(s, i), a
    4-byte big-endian counter, concatenated and cut to `out_len` bytes."""
    n = (out_len + 31) // 32
    return b"".join(hmac.digest(s, i.to_bytes(4, "big"), "sha256") for i in range(n))[:out_len]


# lengths on both sides of the 4/5-block cutoff, every block boundary and
# its neighbours, and the 64 KB maximum
PRG_LENGTHS = st.one_of(
    st.integers(0, 200),
    st.builds(lambda k, e: min(32 * k + e, 2 ** 16),
              st.integers(1, 2 ** 11), st.sampled_from((-1, 0, 1))),
    st.just(2 ** 16))


class TestPrgBlocks:
    """`_prg` computes pads of 5 or more blocks through PBKDF2; every pad
    equals the block loop's."""

    @pytest.mark.parametrize("seed", [bytes(16), b"\xff" * 16, b"", b"k" * 65],
                             ids=["zero", "ones", "empty", "longer-than-a-block"])
    def test_every_length_up_to_200(self, seed):
        for n in range(201):
            assert prg(seed, n) == reference_prg(seed, n)

    def test_maximum_length(self):
        assert prg(b"\x05" * 16, 2 ** 16) == reference_prg(b"\x05" * 16, 2 ** 16)

    @settings(derandomize=True, max_examples=300, deadline=None, database=None)
    @given(seed=st.one_of(st.binary(min_size=16, max_size=16), st.binary(max_size=100)),
           n=PRG_LENGTHS)
    def test_matches_block_loop(self, seed, n):
        assert prg(seed, n) == reference_prg(seed, n)

    @pytest.mark.parametrize("n", [2 ** 16 + 1, 2 ** 16 + 32, 2 ** 20])
    def test_above_64k_raises(self, n):
        with pytest.raises(LengthTooLarge):
            prg(bytes(16), n)


class TestSealMemo:
    """`unseal` derives its pad seed from the nonce that `seal` used, so it
    reuses the memoized pad; the tag is still checked on every unseal."""

    DATA = bytes(range(256)) * 20

    def test_unseal_after_seal_adds_no_miss(self):
        primitives._prg.cache_clear()
        blob = seal(self.DATA, b"memo")
        misses = primitives._prg.cache_info().misses
        assert unseal(blob) == self.DATA
        assert unseal(blob) == self.DATA
        assert primitives._prg.cache_info().misses == misses

    @pytest.mark.parametrize("at", [0, 15, 16, 16 + 2560, -17, -1],
                             ids=["nonce-first", "nonce-last", "body-first", "body-middle",
                                  "body-last", "tag-last"])
    def test_tampered_blob_rejected_right_after_seal(self, at):
        blob = bytearray(seal(self.DATA, b"tamper"))
        blob[at] ^= 0x01
        with pytest.raises(MalformedCiphertext):
            unseal(bytes(blob))


class TestOwf:
    def test_deterministic(self):
        assert owf(b"x") == owf(b"x")

    def test_empty_vector(self):
        assert owf(b"") == hashlib.sha256(b"").digest()

    def test_no_collisions(self):
        d = Drbg(10)
        seen = set()
        for _ in range(10 ** 4):
            out = owf(d.bytes(12))
            assert out not in seen
            seen.add(out)


class TestCommit:
    def test_repeatable(self):
        r = b"\x07" * 16
        assert commit(b"\x01", r) == commit(b"\x01", r)

    def test_distinct_messages_distinct_payloads(self):
        d = Drbg(11)
        for _ in range(10 ** 3):
            r = d.bytes(16)
            assert commit(b"\x01", r) != commit(b"\x02", r)

    def test_open_roundtrip(self):
        c = commit(b"msg", b"\x03" * 16)
        assert verify_open(c, b"msg", b"\x03" * 16)
        assert not verify_open(c, b"msh", b"\x03" * 16)

    def test_message_length_cap(self):
        with pytest.raises(MessageTooLong):
            commit(b"\x00" * 65, b"\x00" * 16)

    def test_payload_is_two_digests(self):
        assert len(commit(b"", b"\x00" * 16)) == 64

    def test_binding_search_finds_no_collision(self):
        d = Drbg(12)
        seen = {}
        for _ in range(10 ** 5):
            m = d.bytes(2)
            r = d.bytes(16)
            payload = commit(m, r)
            prev = seen.get(payload)
            assert prev is None or prev == (m, r)
            seen[payload] = (m, r)


class TestRandomOracle:
    def test_consistency(self):
        o = RandomOracle(b"\x05" * 16)
        assert o.query(b"q") == o.query(b"q")

    def test_modes_share_prefix(self):
        seed = b"\x05" * 16
        td = PrfKey(b"\x07" * 16)
        uni = RandomOracle(seed)
        tdo = RandomOracle(seed, MODE_TDGEN, td, lambda x: 0)
        sim = RandomOracle(seed, MODE_SIMGEN, td)
        for q in (b"", b"a", b"zz" * 40):
            answers = {uni.query(q)[:16], tdo.query(q)[:16], sim.query(q)[:16]}
            assert len(answers) == 1

    def test_tdgen_simgen_last_bit_relation(self):
        seed = b"\x05" * 16
        td = PrfKey(b"\x07" * 16)
        tdo = RandomOracle(seed, MODE_TDGEN, td, lambda x: 1 if x == b"hit" else 0)
        sim = RandomOracle(seed, MODE_SIMGEN, td)
        assert tdo.query(b"hit")[16] ^ sim.query(b"hit")[16] == 1
        assert tdo.query(b"miss") == sim.query(b"miss")

    def test_only_a_trapdoor_oracle_keeps_verdicts(self):
        seed, td = b"\x05" * 16, PrfKey(b"\x07" * 16)
        tdo = RandomOracle(seed, MODE_TDGEN, td, lambda x: x[0] & 3)
        sim = RandomOracle(seed, MODE_SIMGEN, td)
        uni = RandomOracle(seed)
        qs = [bytes([i]) for i in range(64)]
        for o in (tdo, sim, uni):
            for q in qs + qs:
                o.query(q)
        assert tdo.verdicts == {q: q[0] & 1 for q in qs}
        assert sim.verdicts == uni.verdicts == {}

    def test_answer_length(self):
        o = RandomOracle(b"\x01" * 16)
        ans = ro_query(o, b"x")
        assert len(ans) == 17 and ans[16] in (0, 1)

    def test_concurrent_queries_consistent(self):
        o = RandomOracle(b"\x09" * 16)
        results = []

        def worker(tag):
            local = [o.query(b"shared"), o.query(tag)]
            results.append(local[0])

        threads = [threading.Thread(target=worker, args=(bytes([i]),)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(results)) == 1


class TestSbsh:
    def test_binding_extraction(self):
        d = Drbg(13)
        ck0, gen_rand = sbsh_gen(d)
        ck1 = sbsh_key(d)
        while not sbsh_is_binding(ck0, ck1):
            ck1 = sbsh_key(d)
        c = sbsh_com(ck0, ck1, b"the committed value", d.bytes(16))
        assert sbsh_ext(gen_rand, ck0, ck1, c) == b"the committed value"

    def test_binding_frequency_matches_rate(self):
        d = Drbg(14)
        ck0, _ = sbsh_gen(d)
        hits = sum(sbsh_is_binding(ck0, sbsh_key(d)) for _ in range(10 ** 4))
        # binomial(10^4, 2^-4): mean 625, sigma ~24.8
        assert abs(hits - 625) <= 3 * 24.8

    def test_not_binding_refuses_extraction(self):
        d = Drbg(15)
        ck0, gen_rand = sbsh_gen(d)
        ck1 = sbsh_key(d)
        while sbsh_is_binding(ck0, ck1):
            ck1 = sbsh_key(d)
        c = sbsh_com(ck0, ck1, b"m", d.bytes(16))
        with pytest.raises(NotBinding):
            sbsh_ext(gen_rand, ck0, ck1, c)

    def test_non_binding_distributions_close(self):
        # per-byte empirical distance between commitments to two messages
        d = Drbg(16)
        ck0, _ = sbsh_gen(d)
        ck1 = sbsh_key(d)
        while sbsh_is_binding(ck0, ck1):
            ck1 = sbsh_key(d)
        ones = [0] * 8
        zeros = [0] * 8
        n = 10 ** 4
        for _ in range(n):
            c0 = sbsh_com(ck0, ck1, b"\x00" * 8, d.bytes(16))[16:]
            c1 = sbsh_com(ck0, ck1, b"\xff" * 8, d.bytes(16))[16:]
            for j in range(8):
                zeros[j] += bin(c0[j]).count("1")
                ones[j] += bin(c1[j]).count("1")
        # each byte contributes 8 Bernoulli(1/2) bits per sample
        sigma = (n * 8 * 0.25) ** 0.5
        for j in range(8):
            assert abs(zeros[j] - ones[j]) < 6 * sigma
