"""Acceptance suite: one check per exit criterion, shared by the CLI
`selftest` command and the pytest acceptance module. Each criterion returns
(name, passed, detail) and prints nothing itself.
"""
from __future__ import annotations

import itertools
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from . import attacks, cvqc, encdelegate as ed, nullio, proofs, qsim
from .circuit_ir import (
    ProgramBuilder,
    check_chain,
    lockobf,
    lockobf_sim,
    unwrap,
)
from .cvqc import (
    MINI_PARAMS,
    PROTO_ORACLE,
    PROTO_TOY,
    CvqcProof,
    ToyParams,
    claim_for,
    encode_base_proof,
    keygen_star,
    sealed_star_td_verifier,
    sealed_toy_verifier,
    sim_gen,
    star_prove,
    star_verify,
    td_gen,
    td_verify,
    toy_keygen,
    toy_prove,
)
from .errors import NoAcceptingProof, PuncturedPoint
from .primitives import (
    KEY_LEN, ggm_eval, ggm_eval_punct, ggm_punct, prf_eval, prf_gen, prg, ro_query,
)
from .qma import (
    Witness,
    fixture,
    ghz_witness,
    is_qualified,
    make_policy_language,
    make_threshold_language,
)
from .qsim import QuantumCircuit, StateVector, history_state, propagation_hamiltonian
from .rand import Drbg
from .wire import unseal


def _mini_proof_space():
    singles = [(b, d) for b in range(2) for d in range(4)]
    return itertools.product(singles, repeat=4)


def criterion_1_ggm():
    drbg = Drbg(b"acc-ggm")
    for trial in range(20):
        k = prf_gen(drbg.child(f"k{trial}"), 8)
        z = drbg.child(f"z{trial}").randint(0, 255)
        kz = ggm_punct(k, z)
        for x in range(256):
            if x == z:
                try:
                    ggm_eval_punct(kz, x)
                    return "ggm-puncturable-prf", False, f"no error at removed point {z}"
                except PuncturedPoint:
                    continue
            if ggm_eval_punct(kz, x) != ggm_eval(k, x):
                return "ggm-puncturable-prf", False, f"mismatch at key {trial}, x={x}"
    return "ggm-puncturable-prf", True, "20 keys x 255 points exact, removed point errors"


def _oracle_verdict(proof: CvqcProof, enc: bytes, td, oracle) -> int:
    """The verdict the oracle masked into its answer on `enc`, unmasked with
    F(td, enc) here rather than by `td_verify` (which, under the oracle's
    own trapdoor, reads back what the oracle kept); 0 on a wrong digest."""
    if ro_query(oracle, enc) != proof.h:
        return 0
    return (proof.h[16] & 1) ^ (prf_eval(td, enc)[0] & 1)


def criterion_2_verification_equivalence():
    par = fixture("par4")
    claim = claim_for(par, b"\x07")
    setup = td_gen(claim, PROTO_TOY, Drbg(b"acc-vereq"), MINI_PARAMS)
    checked = 0
    for pairs in _mini_proof_space():
        enc = encode_base_proof(PROTO_TOY, pairs)
        for h in (ro_query(setup.oracle, enc), b"\x00" * 17):
            proof = CvqcProof(pairs, h)
            a = star_verify(claim, proof, setup.r, setup.oracle)
            b = td_verify(claim, proof, setup.td, setup.oracle, PROTO_TOY)
            if not a == b == _oracle_verdict(proof, enc, setup.td, setup.oracle):
                return "dual-mode-verification-equivalence", False, f"disagree on {pairs}"
            checked += 1
    full = td_gen(claim_for(fixture("par8"), b"\x07"), PROTO_TOY, Drbg(b"acc-vereq8"))
    drbg = Drbg(b"acc-vereq-rand")
    for t in range(10 ** 4):
        pairs = tuple((drbg.bit(), drbg.randint(0, 15)) for _ in range(8))
        enc = encode_base_proof(PROTO_TOY, pairs)
        h = ro_query(full.oracle, enc) if t % 4 else drbg.bytes(17)
        proof = CvqcProof(pairs, h)
        a = star_verify(full.claim, proof, full.r, full.oracle)
        b = td_verify(full.claim, proof, full.td, full.oracle, PROTO_TOY)
        if not a == b == _oracle_verdict(proof, enc, full.td, full.oracle):
            return "dual-mode-verification-equivalence", False, f"random disagree at {t}"
        checked += 1
    return ("dual-mode-verification-equivalence", True,
            f"{checked} proofs agree (exhaustive mini + 10^4 full-size)")


def criterion_3_sim_no_accepting():
    par = fixture("par4")
    claim = claim_for(par, b"\x07")
    sim = sim_gen(claim, PROTO_TOY, Drbg(b"acc-sim"), MINI_PARAMS)
    for pairs in _mini_proof_space():
        enc = encode_base_proof(PROTO_TOY, pairs)
        proof = CvqcProof(pairs, ro_query(sim.oracle, enc))
        if td_verify(claim, proof, sim.td, sim.oracle, PROTO_TOY) or \
                _oracle_verdict(proof, enc, sim.td, sim.oracle):
            return "sim-mode-lockout", False, f"accepting input {pairs}"
    simf = sim_gen(claim_for(fixture("par8"), b"\x07"), PROTO_TOY, Drbg(b"acc-sim8"))
    drbg = Drbg(b"acc-sim-rand")
    for t in range(10 ** 5):
        pairs = tuple((drbg.bit(), drbg.randint(0, 15)) for _ in range(8))
        enc = encode_base_proof(PROTO_TOY, pairs)
        proof = CvqcProof(pairs, ro_query(simf.oracle, enc))
        if td_verify(simf.claim, proof, simf.td, simf.oracle, PROTO_TOY) or \
                _oracle_verdict(proof, enc, simf.td, simf.oracle):
            return "sim-mode-lockout", False, f"random accepting input at {t}"
    return "sim-mode-lockout", True, "0 accepting inputs over 2^12 + 10^5 consistent pairs"


def criterion_4_nullio():
    par = fixture("par8")
    for v in range(256):
        x = bytes([v])
        obf = nullio.nio_obf(claim_for(par, x), b"acc-nio" + x)
        want = 1 if bin(v).count("1") % 2 else 0
        if nullio.nio_eval(obf, Witness.empty(), Drbg(b"e" + x)) != want:
            return "null-io-correctness", False, f"parity instance {v:08b}"
    ghz = fixture("ghz")
    obf_g = nullio.nio_obf(claim_for(ghz, b"\x01"), b"acc-nio-ghz")
    hits = sum(nullio.nio_eval(obf_g, Witness(ghz_witness(), 5), Drbg(i))
               for i in range(100))
    if hits < 90:
        return "null-io-correctness", False, f"ghz only {hits}/100"
    nul = fixture("null3")
    obf_n = nullio.nio_obf(claim_for(nul, b"\x01"), b"acc-nio-null")
    zeros = sum(1 - nullio.nio_eval(obf_n, Witness(ghz_witness(), 5), Drbg(i))
                for i in range(100))
    if zeros != 100:
        return "null-io-correctness", False, f"null fixture accepted {100 - zeros} times"
    return ("null-io-correctness", True,
            f"parity exact on 256 instances, ghz {hits}/100, null 100/100 reject")


def criterion_5_witness_encryption():
    par = fixture("par8")
    for v in (0x07, 0x1f, 0x80, 0xfe, 0x01):
        x = bytes([v])
        want_yes = bin(v).count("1") % 2 == 1
        for m in (0, 1):
            c = nullio.we_enc(par, x, m, b"acc-we" + x + bytes([m]))
            got = nullio.we_dec(par, x, c, Witness.empty(), Drbg(b"d" + x))
            if want_yes and got != bytes([m]):
                return "witness-encryption", False, f"yes {v:02x} lost message"
            if not want_yes and got is not None:
                return "witness-encryption", False, f"no {v:02x} released message"
    ghz = fixture("ghz")
    hits = 0
    for i in range(100):
        c = nullio.we_enc(ghz, b"\x01", 0, Drbg(i).bytes(16))
        if nullio.we_dec(ghz, b"\x01", c, Witness(ghz_witness(), 5), Drbg(i)) == b"\x00":
            hits += 1
    if hits < 90:
        return "witness-encryption", False, f"ghz decryption {hits}/100"
    # exhaustive lockout on a no instance: the sealed verifier releases nothing
    # over the whole mini proof space nor over consistent random tags
    c_no = nullio.we_enc(par, b"\x03", 1, b"acc-we-lockout")
    drbg = Drbg(b"acc-we-inject")
    released = 0
    for pairs in _mini_proof_space():
        enc = encode_base_proof(PROTO_TOY, pairs)
        out = nullio.inject_proof(c_no.inner, enc, drbg.child(enc.hex()))
        if unwrap(out) is not None:
            released += 1
    oracle = cvqc.oracle_from_spec(unseal(c_no.inner.oracle_spec_sealed))
    for t in range(2000):
        tag = b"O" + drbg.bytes(16)
        proof_bytes = CvqcProof(tag[1:], ro_query(oracle, tag)).encode(PROTO_ORACLE)
        if unwrap(nullio.inject_proof(c_no.inner, proof_bytes, drbg.child(f"t{t}"))) is not None:
            released += 1
    if released:
        return "witness-encryption", False, f"{released} inputs released the message"
    return ("witness-encryption", True,
            f"roundtrips exact, ghz {hits}/100, lockout 0 releases over 2^12+2000 inputs")


def criterion_6_nizk():
    par = fixture("par8")
    crs = proofs.nizk_setup(par, b"acc-nizk")
    for v in (0x07, 0x15, 0xfe):
        x = bytes([v])
        pi = proofs.nizk_prove(crs, Witness.empty(), x, Drbg(b"p" + x))
        if proofs.nizk_verify(crs, pi, x) != 1:
            return "nizk", False, f"completeness failed at {v:02x}"
    ghz = fixture("ghz")
    crs_g = proofs.nizk_setup(ghz, b"acc-nizk-ghz")
    ok_g = 0
    for i in range(100):
        try:
            pig = proofs.nizk_prove(crs_g, Witness(ghz_witness(), 5), b"\x01", Drbg(i))
        except proofs.ProofFailed:
            continue
        ok_g += proofs.nizk_verify(crs_g, pig, b"\x01")
    if ok_g < 90:
        return "nizk", False, f"ghz completeness {ok_g}/100"
    # zero-knowledge exactness: simulated proof equals the honest one whenever
    # proving succeeds
    for i in range(100):
        x = bytes([Drbg(b"zk" + bytes([i])).randint(0, 255) | 1])
        if bin(x[0]).count("1") % 2 == 0:
            x = bytes([x[0] ^ 2])
        pi = proofs.nizk_prove(crs, Witness.empty(), x, Drbg(i))
        if proofs.nizk_sim(crs, x).pi != pi.pi:
            return "nizk", False, f"simulator diverged at {x.hex()}"
    # soundness-hybrid chains on the exhaustive 8-bit domain
    x_star = b"\x2a"
    fam = proofs.nizk_hybrid_family(crs, x_star)
    k0 = crs.escrow["k0"]
    xs = [bytes([v]) for v in range(256)]
    chains = ((proofs.NIZK_P_STEPS, tuple((x,) for x in xs)),
              (proofs.NIZK_V_STEPS,
               tuple(pt for x in xs for pt in ((x, ggm_eval(k0, x)), (x, b"\x5a" * 16)))))
    for steps, points in chains:
        failed = check_chain(fam, steps, points, x_star)
        if failed:
            return "nizk", False, f"hybrid step {failed} fails its relation"
    return ("nizk", True,
            f"completeness exact + ghz {ok_g}/100, ZK byte-equal on 100 runs, "
            f"{sum(len(steps) for steps, _ in chains)} hybrid steps verified on the "
            "exhaustive 8-bit domain")


def criterion_7_delegation():
    # ABE correctness
    keys = ed.abe_gen(4, b"acc-abe")
    policy = QuantumCircuit(5, tuple(("CNOT", (i, 0)) for i in range(1, 5)), n_input=4)
    ct1 = ed.abe_enc_circuit(keys, policy, b"\x01", b"acc-abe-ct")
    for attr in range(16):
        sk = ed.abe_keygen(keys, attr)
        got = ed.abe_dec(sk, ct1, Drbg(attr))
        want = b"\x01" if bin(attr).count("1") % 2 else None
        if got != want:
            return "delegation", False, f"abe attribute {attr:04b}"
    # constrained PRF agreement on accepting points, bottom elsewhere
    ck = ed.cprf_gen(b"acc-cprf")
    kq = ed.cprf_constrain(ck, 1)
    for x in range(16):
        got = ed.cprf_ceval(ck.pp, kq, x, Drbg(x))
        want = ed.cprf_eval(ck, x) if bin(x & 0xf).count("1") % 2 else None
        if got != want:
            return "delegation", False, f"cprf point {x:04b}"
    # two constrained keys agree with the master evaluation
    kq2 = ed.cprf_constrain(ck, 2)
    for x in (0b0111, 0b1110):
        outs = {ed.cprf_ceval(ck.pp, kq, x, Drbg(x)),
                ed.cprf_ceval(ck.pp, kq2, x, Drbg(x)), ed.cprf_eval(ck, x)}
        outs.discard(None)
        if len(outs) != 1:
            return "delegation", False, f"constrained keys disagree at {x:04b}"
    # predicate encryption
    pe_ct = ed.pe_enc(keys, policy, b"payload", b"acc-pe")
    if ed.pe_dec(ed.abe_keygen(keys, 7), pe_ct) != b"payload":
        return "delegation", False, "pe qualifying key failed"
    if ed.pe_dec(ed.abe_keygen(keys, 3), pe_ct) is not None:
        return "delegation", False, "pe non-qualifying key decrypted"
    # secret sharing vs the brute-force qualified table, N = 3 and N = 4
    for n, t in ((3, 2), (4, 2)):
        lang = make_threshold_language(n, t)
        for secret in (0, 1):
            ss = ed.ss_share(lang, n, secret, b"acc-ss" + bytes([n, secret]))
            for mask in range(1 << n):
                subset = {i for i in range(n) if (mask >> (n - 1 - i)) & 1}
                got = ed.ss_rec(ss, subset, Witness.empty(), Drbg(mask)) if subset else None
                want = secret if is_qualified(
                    lang, mask.to_bytes(1, "big")) == "yes" else None
                if got != want:
                    return "delegation", False, f"sharing N={n} subset {mask:0{n}b}"
    # hybrid chains on the mini domains: keycheck and encryptor at index 5 of
    # 4-bit attributes, the constrained PRF at point 3 of its 16 inputs
    i_star = 5
    wires = [ed.attr_wire(a, 4) for a in range(16)]
    pts = tuple(pt for w in wires for pt in ((w, ggm_eval(keys.msk, w)), (w, b"\x31" * 16)))
    r = prf_gen(Drbg(b"acc-hyb-r"), 16)
    c_wires = [ed.attr_wire(v, 8) for v in range(16)]
    chains = (
        (ed.abe_keycheck_hybrids(keys.msk, 4, i_star, Drbg(b"acc-hyb")), ed.KEYCHECK_STEPS,
         pts, wires[i_star]),
        (ed.abe_encryptor_hybrids(keys.mpk.to_bytes(), make_policy_language(policy), b"\x00",
                                  b"\x01", r, 4, i_star, Drbg(b"acc-hyb-e")),
         ed.ENCRYPTOR_STEPS, pts, wires[i_star]),
        (ed.cprf_hybrids(ck.k, ck.k_tilde, ck.abe.mpk.to_bytes(), c_wires[3],
                         Drbg(b"acc-cprf-hyb")),
         ed.CPRF_STEPS, tuple((w,) for w in c_wires), c_wires[3]),
    )
    for fam, steps, points, star in chains:
        failed = check_chain(fam, steps, points, star)
        if failed:
            return "delegation", False, f"hybrid step {failed} fails its relation"
    # keycheck P3 -> Pstar differ at the index only on the PRG-range event:
    # scan random images
    drbg = Drbg(b"acc-prg-range")
    for t in range(10 ** 4):
        K_img = drbg.bytes(4 * KEY_LEN)
        s = drbg.bytes(KEY_LEN)
        if prg(s, 4 * KEY_LEN) == K_img:
            return "delegation", False, "random image collided with the expander"
    return ("delegation", True,
            "abe/cprf/pe exact on fixtures, sharing matches the qualified table "
            f"(N=3,4), {sum(len(steps) for _, steps, _, _ in chains)} hybrid steps "
            "verified on mini domains")


def criterion_8_lockable():
    # C maps a byte to a 16-byte line; the lock selects exactly one input
    b = ProgramBuilder(1)
    x = b.input(0)
    c_prog = b.build([b.concat(x, b.const(bytes(range(15))))])
    u = bytes([0xAB]) + bytes(range(15))
    obj = lockobf(u, b"released", c_prog)
    sim = lockobf_sim(c_prog.size, len(b"released"))
    for v in range(256):
        got = unwrap(obj.run(bytes([v])))
        want = b"released" if v == 0xAB else None
        if got != want:
            return "lockable-obfuscation", False, f"lock semantics at {v:02x}"
        if unwrap(sim.run(bytes([v]))) is not None:
            return "lockable-obfuscation", False, f"simulator released at {v:02x}"
    if sim.declared_size != obj.declared_size:
        return "lockable-obfuscation", False, "simulator size mismatch"
    return ("lockable-obfuscation", True,
            "exhaustive 8-bit release semantics, simulator silent and size-matched")


def criterion_9_qsim():
    drbg = Drbg(b"acc-qsim")
    gate_pool = ["H", "X", "Z", "S", "T"]
    # norm preservation through random gate sequences
    for trial in range(20):
        n = drbg.randint(1, 4)
        sv = StateVector(n)
        for g in range(8):
            name = gate_pool[drbg.randint(0, 4)]
            qsim.apply_gate(sv, name, (drbg.randint(0, n - 1),))
            if abs(sv.norm() - 1.0) > 1e-9:
                return "simulator-numerics", False, f"norm drift in trial {trial}"
    # propagation expectation on history states of random short circuits
    for trial in range(10):
        n_gates = drbg.randint(1, 3)
        n_data = 2
        gates = []
        for _ in range(n_gates):
            if drbg.bit() and n_data >= 2:
                a = drbg.randint(0, n_data - 1)
                bq = (a + 1) % n_data
                gates.append(("CNOT", (a, bq)))
            else:
                gates.append((gate_pool[drbg.randint(0, 4)], (drbg.randint(0, n_data - 1),)))
        circ = QuantumCircuit(n_data, tuple(gates), n_input=n_data)
        bits = [drbg.bit() for _ in range(n_data)]
        hist = history_state(circ, bits)
        H = propagation_hamiltonian(circ)
        e = qsim.expectation(H, hist)
        if abs(e) > 1e-9:
            return "simulator-numerics", False, f"propagation energy {e} in trial {trial}"
    # sampled frequency vs exact probability at 3 sigma
    probe = QuantumCircuit(1, (("H", (0,)),))
    shots = 10 ** 4
    hits = 0
    sampler = Drbg(b"acc-shots")
    for i in range(shots):
        bit, p = qsim.run_circuit(probe, [], sampler.child(f"s{i}"))
        hits += bit
    p_exact = 0.5
    sigma = (shots * p_exact * (1 - p_exact)) ** 0.5
    if abs(hits - shots * p_exact) > 3 * sigma:
        return "simulator-numerics", False, f"{hits}/{shots} outside 3 sigma"
    return ("simulator-numerics", True,
            f"norms exact, 10 propagation checks at 1e-9, sampling {hits}/{shots} within 3 sigma")


def criterion_10_attacks():
    par = fixture("par4")
    claim = claim_for(par, b"\x07")
    for trial in range(100):
        pp, r = toy_keygen(claim, Drbg(b"acc-atk" + trial.to_bytes(2, "big")))
        pi = toy_prove(pp, Witness.empty(), Drbg(trial))
        t = attacks.attack_basis_flip(sealed_toy_verifier(claim, r), pi)
        if t.recovered != r.body.bases:
            return "cryptanalysis", False, f"basis recovery failed on instance {trial}"
        if t.query_count > 2 * r.body.K + 2:
            return "cryptanalysis", False, f"query budget exceeded: {t.query_count}"
    ppl, rl = toy_keygen(claim, Drbg(b"acc-atk-lin"), ToyParams(variant=cvqc.TOY_LINEAR))
    pil = toy_prove(ppl, Witness.empty(), Drbg(b"acc-atk-lin-p"))
    tl = attacks.attack_linear(sealed_toy_verifier(claim, rl), pil, width=rl.body.w)
    if tl.recovered != rl.body.secrets:
        return "cryptanalysis", False, "linear secret recovery failed"
    # simulation-mode verifiers admit no accepting proof for any attack
    sim = sim_gen(claim, PROTO_TOY, Drbg(b"acc-atk-sim"))
    honest = keygen_star(claim, PROTO_TOY, Drbg(b"acc-atk-sim"))
    pi_h = star_prove(honest.pp, Witness.empty(), sim.oracle, Drbg(b"acc-atk-sp"))
    verdict = attacks.star_verdict(sealed_star_td_verifier(sim), sim.oracle)
    immune = 0
    try:
        attacks.attack_basis_flip(verdict, pi_h.pi)
    except NoAcceptingProof:
        immune += 1
    try:
        attacks.attack_linear(verdict, pi_h.pi, width=4)
    except NoAcceptingProof:
        immune += 1
    try:
        attacks.attack_stats(lambda salted, t=None: verdict(salted[1], t),
                             (bytes(16), pi_h.pi), samples=8)
    except NoAcceptingProof:
        immune += 1
    if immune != 3:
        return "cryptanalysis", False, f"only {immune}/3 attacks reported no accepting proof"
    return ("cryptanalysis", True,
            "basis string exact on 100 instances within budget, secrets recovered, "
            "simulation mode immune")


def criterion_11_cli_determinism():
    commands = {
        "we": ["we", "enc", "--lang", "par8", "--x", "07", "--m", "1", "--seed", "7"],
        "crs": ["nizk", "setup", "--lang", "par8", "--seed", "7"],
        "shares": ["share", "split", "--lang", "th23", "--parties", "3",
                   "--secret", "1", "--seed", "7"],
        "obf": ["nio", "obf", "--lang", "par8", "--x", "07", "--seed", "7"],
    }
    artifacts = {}
    for run in range(2):
        with tempfile.TemporaryDirectory() as tmp:
            blobs = {}
            for name, argv in commands.items():
                out = Path(tmp) / f"{name}.bin"
                proc = subprocess.run(
                    [sys.executable, "-m", "qnk.cli"] + argv + ["--out", str(out)],
                    capture_output=True)
                if proc.returncode != 0:
                    return ("cli-determinism", False,
                            f"{name} failed: {proc.stderr.decode()[:120]}")
                blobs[name] = out.read_bytes()
        if run == 0:
            artifacts = blobs
        elif blobs != artifacts:
            diff = [k for k in blobs if blobs[k] != artifacts[k]]
            return "cli-determinism", False, f"artifacts differ across runs: {diff}"
    return ("cli-determinism", True,
            "4 artifact kinds byte-identical across two separate processes")


CRITERIA = [
    criterion_1_ggm,
    criterion_2_verification_equivalence,
    criterion_3_sim_no_accepting,
    criterion_4_nullio,
    criterion_5_witness_encryption,
    criterion_6_nizk,
    criterion_7_delegation,
    criterion_8_lockable,
    criterion_9_qsim,
    criterion_10_attacks,
    criterion_11_cli_determinism,
]


def run_all(only: list[int] | None = None):
    results = []
    for idx, fn in enumerate(CRITERIA, 1):
        if only and idx not in only:
            continue
        t0 = time.time()
        name, ok, detail = fn()
        results.append((idx, name, ok, detail, time.time() - t0))
    return results
