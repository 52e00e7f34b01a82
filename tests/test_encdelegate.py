import pytest

from qnk.circuit_ir import (
    OFF_POINT,
    ProgramBuilder,
    SealedProgram,
    _decode_sealed,
    check_chain,
    evaluate,
    obf_io,
)
from qnk.encdelegate import (
    CPRF_STEPS,
    ENCRYPTOR_STEPS,
    KEYCHECK_STEPS,
    KP_ATTR_LEN,
    MAX_ATTR_BITS,
    POLICY_FAMILY,
    _cprf_budget,
    _encryptor_budget,
    _keycheck_budget,
    AbeCiphertext,
    AbeSecretKey,
    PeCiphertext,
    QLockObf,
    ShareSet,
    abe_dec,
    abe_enc_circuit,
    abe_encryptor_hybrids,
    abe_gen,
    abe_keycheck_hybrids,
    abe_keygen,
    attr_wire,
    cprf_constrain,
    cprf_eval,
    cprf_gen,
    cprf_hybrids,
    kp_enc,
    kp_gen,
    pe_dec,
    pe_enc,
    qlock_eval,
    qlock_obf,
    qlock_sim,
    ss_rec,
    ss_share,
)
from qnk.errors import MalformedCiphertext, NotMonotone, WidthMismatch
from qnk.primitives import ggm_eval, prf_gen, prg
from qnk.qma import (
    PseudoDetCircuit,
    Witness,
    fixture,
    is_qualified,
    make_policy_language,
    make_threshold_language,
)
from qnk.qsim import QuantumCircuit
from qnk.rand import Drbg
from qnk.wire import pack_fields

PARITY4 = QuantumCircuit(5, tuple(("CNOT", (i, 0)) for i in range(1, 5)), n_input=4)


@pytest.fixture(scope="module")
def keys():
    return abe_gen(4, 1)


@pytest.fixture(scope="module")
def parity_ct(keys):
    return abe_enc_circuit(keys, PARITY4, b"\x01", 2)


class TestAbe:
    def test_qualifying_attribute(self, keys, parity_ct):
        sk = abe_keygen(keys, 0b0111)
        assert abe_dec(sk, parity_ct, Drbg(3)) == b"\x01"

    def test_non_qualifying_attribute(self, keys, parity_ct):
        sk = abe_keygen(keys, 0b0011)
        assert abe_dec(sk, parity_ct, Drbg(3)) is None

    def test_wrong_keys_fail_keycheck(self, keys, parity_ct):
        d = Drbg(4)
        wire = attr_wire(0b0111, 4)
        hits = 0
        for _ in range(10 ** 4):
            if keys.mpk.run(wire, d.bytes(16)) == b"\x01":
                hits += 1
        assert hits == 0

    def test_all_attributes_match_policy(self, keys, parity_ct):
        for attr in range(16):
            got = abe_dec(abe_keygen(keys, attr), parity_ct, Drbg(attr))
            want = b"\x01" if bin(attr).count("1") % 2 else None
            assert got == want

    def test_serialization(self, keys, parity_ct):
        sk = abe_keygen(keys, 0b1110)
        again_sk = AbeSecretKey.from_bytes(sk.to_bytes())
        again_ct = AbeCiphertext.from_bytes(parity_ct.to_bytes())
        assert abe_dec(again_sk, again_ct, Drbg(5)) == b"\x01"

    def test_attr_length_cap(self):
        with pytest.raises(WidthMismatch):
            abe_gen(11, 6)

    @pytest.mark.parametrize("attr_len", [0, 1])
    def test_attr_length_floor(self, attr_len):
        with pytest.raises(WidthMismatch):
            abe_gen(attr_len, 6)

    def test_multibyte_message(self, keys):
        ct = abe_enc_circuit(keys, PARITY4, b"sixteen-byte-msg", 7)
        assert abe_dec(abe_keygen(keys, 1), ct, Drbg(8)) == b"sixteen-byte-msg"


class TestKeyPolicy:
    def test_policy_key_decrypts_matching_attribute(self):
        kpk = kp_gen(9)
        ct = kp_enc(kpk.mpk.to_bytes(), attr_wire(0b0111, 4), b"\x42", 10)
        assert abe_dec(abe_keygen(kpk, 1), ct, Drbg(11)) == b"\x42"

    def test_rejecting_policy(self):
        kpk = kp_gen(12)
        ct = kp_enc(kpk.mpk.to_bytes(), attr_wire(0b0111, 4), b"\x42", 13)
        assert abe_dec(abe_keygen(kpk, 3), ct, Drbg(14)) is None

    def test_role_swap_agreement(self):
        # key-policy decryption succeeds exactly when the registered circuit
        # accepts the attribute, matching a direct ciphertext-policy run
        kpk = kp_gen(15)
        cpk = abe_gen(4, 16)
        d = Drbg(17)
        for t in range(50):
            attr = d.randint(0, 15)
            kct = kp_enc(kpk.mpk.to_bytes(), attr_wire(attr, 4), b"\x01", d.child(f"k{t}").bytes(16))
            cct = abe_enc_circuit(cpk, POLICY_FAMILY[1], b"\x01", d.child(f"c{t}").bytes(16))
            kp_ok = abe_dec(abe_keygen(kpk, 1), kct, d.child(f"kd{t}")) is not None
            cp_ok = abe_dec(abe_keygen(cpk, attr), cct, d.child(f"cd{t}")) is not None
            assert kp_ok == cp_ok == (bin(attr).count("1") % 2 == 1)


@pytest.fixture(scope="module")
def dom(keys):
    pts = []
    for a in range(16):
        wire = attr_wire(a, 4)
        pts += [(wire, ggm_eval(keys.msk, wire)), (wire, b"\x31" * 16)]
    return tuple(pts)


class TestAbeHybrids:
    def test_keycheck_chain(self, keys, dom):
        # index 0 has no lower branch in `_index_chain`, index 15 no upper one
        for i_star in (0, 5, 15):
            fam = abe_keycheck_hybrids(keys.msk, 4, i_star, Drbg(18))
            assert check_chain(fam, KEYCHECK_STEPS, dom, attr_wire(i_star, 4)) is None

    def test_foreign_variant_fails_the_first_point_step(self, keys, dom):
        # a P1 under another PRF key differs from P2 off the index as well
        fam = abe_keycheck_hybrids(keys.msk, 4, 5, Drbg(18))
        other = abe_keycheck_hybrids(prf_gen(Drbg(23), 16), 4, 5, Drbg(18))
        point_steps = tuple(step for step in KEYCHECK_STEPS if step[2] == OFF_POINT)
        assert check_chain({**fam, "P1": other["P1"]}, point_steps, dom,
                           attr_wire(5, 4)) == "P1->P2"

    def test_pstar_rejects_at_index(self, keys, dom):
        i_star = 5
        fam = abe_keycheck_hybrids(keys.msk, 4, i_star, Drbg(19))
        wire = attr_wire(i_star, 4)
        assert evaluate(fam["Pstar"], [wire, ggm_eval(keys.msk, wire)]) == [b"\x00"]

    def test_prg_range_event_unhit(self):
        d = Drbg(20)
        for _ in range(10 ** 4):
            image = d.bytes(64)
            assert prg(d.bytes(16), 64) != image

    def test_encryptor_chain(self, keys, dom):
        pol = make_policy_language(PARITY4)
        r = prf_gen(Drbg(21), 16)
        for i_star in (0, 5, 15):
            fam = abe_encryptor_hybrids(keys.mpk.to_bytes(), pol, b"\x00", b"\x01",
                                        r, 4, i_star, Drbg(22))
            assert check_chain(fam, ENCRYPTOR_STEPS, dom, attr_wire(i_star, 4)) is None


class TestQLock:
    def test_constant_circuit_releases_everywhere(self):
        u = bytes(range(16))
        Q = PseudoDetCircuit(QuantumCircuit(5, (), n_input=4), 1, (u, u))
        obj = qlock_obf(Q, u, b"z-payload", 23)
        for x in range(16):
            bits = [(x >> (3 - i)) & 1 for i in range(4)]
            assert qlock_eval(obj, bits, Drbg(x)) == b"z-payload"

    def test_fresh_lock_never_hits(self):
        v0, v1 = b"\x01" * 16, b"\x02" * 16
        Q = PseudoDetCircuit(QuantumCircuit(5, (), n_input=4), 1, (v0, v1))
        obj = qlock_obf(Q, b"\x77" * 16, b"z", 24)
        d = Drbg(25)
        for _ in range(10 ** 4):
            bits = [d.bit() for _ in range(4)]
            assert qlock_eval(obj, bits, d.child(str(bits))) is None

    def test_sim_always_bottom_with_matching_sizes(self):
        u = bytes(range(16))
        Q = PseudoDetCircuit(QuantumCircuit(5, (), n_input=4), 1, (u, u))
        obj = qlock_obf(Q, u, b"zz", 26)
        sim = qlock_sim(obj.desc_len, obj.payload_len, 27)
        assert sim.cc.declared_size == obj.cc.declared_size
        assert len(sim.ct.payload) == len(obj.ct.payload)
        for x in range(16):
            bits = [(x >> (3 - i)) & 1 for i in range(4)]
            assert qlock_eval(sim, bits, Drbg(x)) is None

    def test_serialization(self):
        u = bytes(range(16))
        Q = PseudoDetCircuit(QuantumCircuit(5, (), n_input=4), 1, (u, u))
        obj = qlock_obf(Q, u, b"z", 28)
        again = QLockObf.from_bytes(obj.to_bytes())
        assert qlock_eval(again, [0, 0, 0, 0], Drbg(29)) == b"z"

    def test_duplicate_target_description_is_bottom(self):
        u = bytes(range(16))
        desc = pack_fields(b"qubits 5\ninput 4\nCNOT 1 1\n", b"\x01", u, u)

        class Described:
            def to_bytes(self):
                return desc

        obj = qlock_obf(Described(), u, b"z", 30)
        assert qlock_eval(obj, [0, 0, 0, 0], Drbg(31)) is None


class TestPredicateEncryption:
    def test_qualifying_key(self, keys):
        ct = pe_enc(keys, PARITY4, b"payload", 30)
        assert pe_dec(abe_keygen(keys, 0b0111), ct) == b"payload"

    def test_non_qualifying_key_trials(self, keys):
        d = Drbg(31)
        for t in range(100):
            ct = pe_enc(keys, PARITY4, b"payload", d.child(f"s{t}").bytes(16))
            assert pe_dec(abe_keygen(keys, 0b0011), ct) is None

    def test_policy_hiding_metadata(self, keys):
        ct_a = pe_enc(keys, PARITY4, b"m", 32)
        other = QuantumCircuit(5, tuple(("CNOT", (i, 0)) for i in (1, 2))
                               + (("CNOT", (3, 0)), ("CNOT", (4, 0))), n_input=4)
        ct_b = pe_enc(keys, other, b"m", 33)
        assert ct_a.cc.declared_size == ct_b.cc.declared_size
        assert ct_a.payload_len == ct_b.payload_len

    def test_serialization(self, keys):
        ct = pe_enc(keys, PARITY4, b"m", 34)
        again = PeCiphertext.from_bytes(ct.to_bytes())
        assert pe_dec(abe_keygen(keys, 0b0001), again) == b"m"


@pytest.fixture(scope="module")
def ck():
    return cprf_gen(35)


class TestConstrainedPrf:
    def test_accepting_point_byte_equal(self, ck):
        kq = cprf_constrain(ck, 1)
        assert cprf_eval(ck, 0b0111) == cprf_ceval_wrap(ck, kq, 0b0111)

    def test_rejecting_point_bottom(self, ck):
        kq = cprf_constrain(ck, 1)
        assert cprf_ceval_wrap(ck, kq, 0b0011) is None

    def test_two_keys_agree_with_master(self, ck):
        kq1 = cprf_constrain(ck, 1)
        kq2 = cprf_constrain(ck, 2)
        for x in (0b0111, 0b1110):
            want = cprf_eval(ck, x)
            assert cprf_ceval_wrap(ck, kq1, x) == want
            assert cprf_ceval_wrap(ck, kq2, x) == want

    def test_hybrid_chain(self, ck):
        dom = tuple((attr_wire(v, 8),) for v in range(16))
        for x_star in (0, 3, 15):
            star = attr_wire(x_star, 8)
            fam = cprf_hybrids(ck.k, ck.k_tilde, ck.abe.mpk.to_bytes(), star, Drbg(36))
            assert check_chain(fam, CPRF_STEPS, dom, star) is None


def cprf_ceval_wrap(ck, kq, x):
    from qnk.encdelegate import cprf_ceval
    return cprf_ceval(ck.pp, kq, x, Drbg(x))


def largest(fam):
    return max(p.size for p in fam.values())


class TestPadBudgets:
    """Each memoized budget equals the largest member of its family built from
    real keys, for every shape the library seals: the padding the iO argument
    needs is what the sealed programs get."""

    @pytest.mark.parametrize("attr_len", range(2, MAX_ATTR_BITS + 1))
    def test_keycheck(self, attr_len):
        keys = abe_gen(attr_len, 40 + attr_len)
        for i in {0, (1 << attr_len) // 2, (1 << attr_len) - 1}:
            fam = abe_keycheck_hybrids(keys.msk, attr_len, i, Drbg(i))
            assert largest(fam) == _keycheck_budget(attr_len) == 3 * 2 ** attr_len + 11
        assert keys.mpk.declared_size == _keycheck_budget(attr_len)

    @pytest.mark.parametrize("attr_len", [4, KP_ATTR_LEN])
    def test_encryptor(self, attr_len):
        mpk_blob = abe_gen(attr_len, 51).mpk.to_bytes()
        r = prf_gen(Drbg(52), 16)
        for pid, i in ((1, 0), (2, 3), (3, (1 << attr_len) - 1)):
            pol = make_policy_language(POLICY_FAMILY[pid])
            fam = abe_encryptor_hybrids(mpk_blob, pol, b"\x00", b"\x01\x02", r,
                                        attr_len, i, Drbg(i))
            assert largest(fam) == _encryptor_budget(attr_len)
        assert _encryptor_budget(KP_ATTR_LEN) == 791

    def test_sealed_ciphertexts_use_the_budget(self, parity_ct):
        assert parity_ct.e_prog.declared_size == _encryptor_budget(4)
        mpk = kp_gen(53).mpk.to_bytes()
        ct = kp_enc(mpk, attr_wire(7, KP_ATTR_LEN), b"m", 54)
        assert ct.e_prog.declared_size == _encryptor_budget(KP_ATTR_LEN)

    def test_cprf(self, ck):
        mpk_blob = ck.abe.mpk.to_bytes()
        for x in (0, 7, 255):
            fam = cprf_hybrids(ck.k, ck.k_tilde, mpk_blob, attr_wire(x, 8), Drbg(x))
            assert largest(fam) == _cprf_budget()
        assert ck.pp.declared_size == _cprf_budget()


class TestSecretSharing:
    def test_threshold_2_of_3(self):
        th = fixture("th23")
        ss = ss_share(th, 3, 1, 37)
        assert ss_rec(ss, {0, 1}, Witness.empty(), Drbg(38)) == 1
        assert ss_rec(ss, {0}, Witness.empty(), Drbg(38)) is None
        assert ss_rec(ss, {0, 1, 2}, Witness.empty(), Drbg(38)) == 1

    def test_exhaustive_subsets_match_qualified_table(self):
        for n, t in ((3, 2), (4, 3)):
            lang = make_threshold_language(n, t)
            for secret in (0, 1):
                ss = ss_share(lang, n, secret, 39 + n + secret)
                for mask in range(1, 1 << n):
                    subset = {i for i in range(n) if (mask >> (n - 1 - i)) & 1}
                    got = ss_rec(ss, subset, Witness.empty(), Drbg(mask))
                    want = secret if is_qualified(
                        lang, mask.to_bytes(1, "big")) == "yes" else None
                    assert got == want, (n, t, secret, mask)

    def test_shares_serialize(self):
        ss = ss_share(fixture("th23"), 3, 1, 44)
        again = ShareSet.from_bytes(ss.to_bytes())
        assert ss_rec(again, {1, 2}, Witness.empty(), Drbg(45)) == 1

    def test_malformed_share_set_rejected(self):
        ss = ss_share(fixture("th23"), 3, 1, 44)
        # trailing junk, and an empty share-count field
        for bad in (ss.to_bytes() + b"junk", pack_fields(ss.lang_ref, b"")):
            with pytest.raises(MalformedCiphertext):
                ShareSet.from_bytes(bad)

    @pytest.mark.parametrize("subset", [{3}, {0, 7}, {-1}])
    def test_party_index_out_of_range(self, subset):
        ss = ss_share(fixture("th23"), 3, 1, 44)
        with pytest.raises(WidthMismatch):
            ss_rec(ss, subset, Witness.empty(), Drbg(45))

    @pytest.mark.parametrize("secret", [2, 300, -1])
    def test_secret_is_one_bit(self, secret):
        with pytest.raises(MalformedCiphertext):
            ss_share(fixture("th23"), 3, secret, 46)

    def test_party_count_cap(self):
        with pytest.raises(WidthMismatch):
            ss_share(fixture("th23"), 11, 0, 46)

    def test_non_monotone_language_rejected(self):
        # under parity, {0} qualifies but its superset {0, 1} does not
        with pytest.raises(NotMonotone):
            ss_share(fixture("par4"), 4, 1, 46)

    def test_commitments_bind_party_indices(self):
        from qnk.primitives import commit
        ss = ss_share(fixture("th23"), 3, 1, 47)
        for i, (r_i, _) in enumerate(ss.shares):
            assert commit(bytes([i + 1]), r_i) == ss.commitments[i]


def count_sealed_decodes(monkeypatch) -> list:
    """Empty the sealed-program decode memo, then list each blob that
    `SealedProgram.from_bytes` decodes: the calls that add a miss to
    `_decode_sealed.cache_info()`."""
    _decode_sealed.cache_clear()
    decoded = []
    original = SealedProgram.from_bytes

    def counted(cls, blob):
        misses = _decode_sealed.cache_info().misses
        try:
            return original(blob)
        finally:
            if _decode_sealed.cache_info().misses > misses:
                decoded.append(blob)
    monkeypatch.setattr(SealedProgram, "from_bytes", classmethod(counted))
    return decoded


def owf_program() -> SealedProgram:
    b = ProgramBuilder(1)
    return obf_io(b.build([b.host("OWF", b.input(0))]), 6)


def test_sealed_eval_decodes_nested_program_once(monkeypatch):
    inner = owf_program()
    b = ProgramBuilder(1)
    outer = b.build([b.host("SEALED_EVAL", b.input(0), consts=(inner.to_bytes(),))])
    sealed = obf_io(outer, 4)
    calls = count_sealed_decodes(monkeypatch)
    first, second = sealed.run(b"x"), sealed.run(b"x")
    assert first == second == inner.run(b"x")
    assert len(calls) == 1
    # a plain evaluate goes through the same decoder
    evaluate(outer, [b"x"])
    evaluate(outer, [b"x"])
    assert len(calls) == 1


def test_programs_sharing_a_nested_blob_decode_it_once(monkeypatch):
    inner = owf_program()
    b = ProgramBuilder(1)
    x = b.input(0)
    one = obf_io(b.build([b.host("SEALED_EVAL", x, consts=(inner.to_bytes(),))]), 4)
    b = ProgramBuilder(1)
    x = b.input(0)
    twice = b.host("SEALED_EVAL", b.concat(x, x), consts=(inner.to_bytes(),))
    two = obf_io(b.build([twice]), 5)
    calls = count_sealed_decodes(monkeypatch)
    assert one.run(b"x") == inner.run(b"x")
    assert two.run(b"x") == inner.run(b"xx")
    assert len(calls) == 1


def test_cprf_ceval_decodes_mpk_once(ck, monkeypatch):
    from qnk.encdelegate import cprf_ceval
    kq = cprf_constrain(ck, 1)
    mpk, pp_blob = ck.abe.mpk.to_bytes(), ck.pp.to_bytes()
    calls = count_sealed_decodes(monkeypatch)
    # a fresh copy of pp, whose ABE_ENC node has never run
    pp = SealedProgram.from_bytes(pp_blob)
    assert pp is not ck.pp
    # the ABE_ENC gate checks the mpk; the ciphertext's SEALED_EVAL reuses it
    assert cprf_ceval(pp, kq, 0b0111, Drbg(7)) == cprf_eval(ck, 0b0111)
    assert calls.count(mpk) == 1


def test_cprf_ceval_decodes_no_ciphertext_it_encoded(ck, monkeypatch):
    from qnk import nullio
    from qnk.encdelegate import cprf_ceval
    kq = cprf_constrain(ck, 1)
    pp, mpk = ck.pp, ck.abe.mpk.to_bytes()
    nullio._gate_we_enc.cache_clear()  # so the WE ciphertext is encoded here
    decoded = count_sealed_decodes(monkeypatch)
    assert cprf_ceval(pp, kq, 0b0111, Drbg(9)) == cprf_eval(ck, 0b0111)
    # The mpk left the memo above, so it is decoded once. The ABE ciphertext
    # and the WE ciphertext are read back from the memo their `to_bytes`
    # primed (hits 1 and 3); hit 2 is SEALED_EVAL's mpk.
    assert decoded == [mpk]
    assert _decode_sealed.cache_info().hits == 3


def test_share_set_decodes_its_we_program_once(monkeypatch):
    blob = ss_share(fixture("th23"), 3, 1, 44).to_bytes()
    decoded = count_sealed_decodes(monkeypatch)
    again = ShareSet.from_bytes(blob)
    # every party holds the same WE ciphertext, so the same sealed program
    assert len(decoded) == 1
    assert len({id(ct.inner.sealed_C) for _, ct in again.shares}) == 1


def test_abe_enc_gate_does_not_reseal_mpk(ck, monkeypatch):
    from qnk import circuit_ir, nullio
    from qnk.encdelegate import cprf_ceval
    from qnk.wire import Reader, unseal
    kq = cprf_constrain(ck, 1)
    pp = ck.pp  # built and sealed on first access, so read before counting
    r = Reader(ck.abe.mpk.to_bytes())
    r.field(), r.u32()
    mpk_program = unseal(r.field())
    nullio._gate_we_enc.cache_clear()
    calls = []
    original = circuit_ir.seal
    monkeypatch.setattr(circuit_ir, "seal", lambda *a: calls.append(a) or original(*a))
    # a new x seals the ABE ciphertext's program and the WE ciphertext's
    # program; a repeated one takes the WE ciphertext from the WE_ENC memo
    for x, seals in ((0b0111, 2), (0b0111, 1), (0b0011, 2)):
        before = len(calls)
        cprf_ceval(pp, kq, x, Drbg(x))
        assert len(calls) - before == seals
    # the mpk the gate carries is passed on as bytes, never sealed again
    assert mpk_program not in [plaintext for plaintext, _ in calls]
