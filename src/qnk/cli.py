"""Command-line front end: deterministic seeding, enveloped artifact files,
and the acceptance selftest.

Every artifact is written as a QNK1 envelope (magic, version, type tag,
payload, digest) and every command is a pure function of its flags: a fixed
--seed reproduces artifacts byte for byte.

Exit codes: 0 success, 1 protocol-level failure (rejection / bottom),
2 usage errors.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import attacks, cvqc, encdelegate as ed, nullio, proofs, selftest
from .errors import JudgeReject, NoAcceptingProof, ProofFailed, QnkError
from .qma import Witness, fixture, ghz_witness
from .rand import Drbg
from .wire import envelope, fixed, open_envelope, pack_fields, seal, unpack_fields, unseal, utf8

_WITNESSES = {
    "none": lambda copies: Witness.empty(copies),
    "ghz": lambda copies: Witness(ghz_witness(), copies),
}


def _store(path: str, tag: str, payload: bytes) -> None:
    Path(path).write_bytes(envelope(tag, payload))


def _load(path: str, tag: str) -> bytes:
    return open_envelope(Path(path).read_bytes(), tag)[1]


def _say(**kv) -> None:
    print(json.dumps(kv))


def _toy_params(args) -> cvqc.ToyParams:
    return cvqc.MINI_PARAMS if getattr(args, "params", "default") == "mini" else cvqc.ToyParams()


def _claim(args) -> cvqc.Claim:
    return cvqc.claim_for(fixture(args.lang), bytes.fromhex(args.x))


def _witness(args) -> Witness:
    return _WITNESSES[getattr(args, "witness", "none")](getattr(args, "copies", 5))


# ---------------------------------------------------------------------------
# cvqc


def cmd_cvqc(args) -> int:
    proto = cvqc.PROTO_ORACLE if args.proto == "oracle" else cvqc.PROTO_TOY
    if args.action == "keygen":
        setup = cvqc.keygen_star(_claim(args), proto, Drbg(args.seed), _toy_params(args))
        _store(args.out, "cvqc.setup", _pack_setup(setup))
        _say(status="ok", proto=args.proto, out=args.out)
        return 0
    if args.action in ("tdgen", "simgen"):
        gen = cvqc.td_gen if args.action == "tdgen" else cvqc.sim_gen
        setup = gen(_claim(args), proto, Drbg(args.seed), _toy_params(args))
        _store(args.out, "cvqc.setup", _pack_setup(setup))
        _say(status="ok", mode=args.action, out=args.out)
        return 0
    if args.action == "prove":
        setup = _unpack_setup(_load(args.setup, "cvqc.setup"))
        try:
            proof = cvqc.star_prove(setup.pp, _witness(args), setup.oracle, Drbg(args.seed))
        except JudgeReject:
            _say(status="reject", reason="witness failed the amplified check")
            return 1
        _store(args.out, "cvqc.proof",
               pack_fields(setup.pp.proto.encode(), proof.encode(setup.pp.proto)))
        _say(status="ok", out=args.out)
        return 0
    # verify
    setup = _unpack_setup(_load(args.setup, "cvqc.setup"))
    proto_b, blob = unpack_fields(_load(args.proof, "cvqc.proof"), 2)
    proto = utf8(proto_b)
    proof = cvqc.CvqcProof.decode(proto, blob)
    if setup.td is not None and setup.r is None:
        bit = cvqc.td_verify(setup.claim, proof, setup.td, setup.oracle, proto)
    else:
        bit = cvqc.star_verify(setup.claim, proof, setup.r, setup.oracle)
    _say(status="ok", accept=bit)
    return 0 if bit == 1 else 1


def _pack_setup(setup: cvqc.StarSetup) -> bytes:
    return pack_fields(
        setup.claim.to_bytes(), setup.pp.to_bytes(),
        setup.r.to_bytes() if setup.r is not None else b"",
        seal(setup.td.bytes, b"cli-td") if setup.td is not None else b"",
        seal(cvqc.oracle_spec(setup), b"cli-oracle"))


def _unpack_setup(blob: bytes) -> cvqc.StarSetup:
    from .primitives import PrfKey
    claim_b, pp_b, r_b, td_b, spec_b = unpack_fields(blob, 5)
    return cvqc.StarSetup(
        cvqc.Claim.from_bytes(claim_b), cvqc.CvqcParams.from_bytes(pp_b),
        cvqc.CvqcVerifyKey.from_bytes(r_b) if r_b else None,
        cvqc.oracle_from_spec(unseal(spec_b, b"cli-oracle")),
        PrfKey(unseal(td_b, b"cli-td")) if td_b else None)


# ---------------------------------------------------------------------------
# nio / we


def cmd_nio(args) -> int:
    if args.action == "obf":
        obf = nullio.nio_obf(_claim(args), args.seed,
                             cvqc.PROTO_ORACLE if args.proto == "oracle" else cvqc.PROTO_TOY,
                             _toy_params(args))
        _store(args.out, "nio.obf", obf.to_bytes())
        _say(status="ok", out=args.out, declared_size=obf.sealed_C.declared_size)
        return 0
    obf = nullio.ObfuscatedNullCircuit.from_bytes(_load(args.obf, "nio.obf"))
    bit = nullio.nio_eval(obf, _witness(args), Drbg(args.seed))
    _say(status="ok", output=bit)
    return 0 if bit == 1 else 1


def cmd_we(args) -> int:
    if args.action == "enc":
        bits = [int(b) for b in args.m]
        cts = []
        for i, m in enumerate(bits):
            coins = Drbg(args.seed).child(f"bit{i}").bytes(16)
            cts.append(nullio.we_enc(fixture(args.lang), bytes.fromhex(args.x), m, coins))
        payload = pack_fields(*(c.to_bytes() for c in cts))
        _store(args.out, "we.ct", pack_fields(bytes([len(cts)]), payload))
        _say(status="ok", bits=len(cts), out=args.out)
        return 0
    count_b, payload = unpack_fields(_load(args.ct, "we.ct"), 2)
    blobs = unpack_fields(payload, fixed(count_b, 1)[0])
    out_bits = []
    for i, blob in enumerate(blobs):
        ct = nullio.WeCiphertext.from_bytes(blob)
        m = nullio.we_dec(fixture(args.lang), bytes.fromhex(args.x), ct,
                          _witness(args), Drbg(args.seed).child(f"bit{i}"))
        if m is None:
            _say(status="bottom", bit_index=i)
            return 1
        out_bits.append(str(m[0]))
    _say(status="ok", m="".join(out_bits))
    print("".join(out_bits))
    return 0


# ---------------------------------------------------------------------------
# nizk / zapr (reference strings reconstruct from their sealed setup seed)


def cmd_nizk(args) -> int:
    if args.action == "setup":
        lang = fixture(args.lang)
        seed = Drbg(args.seed).child("nizk-cli").bytes(16)
        proofs.nizk_setup(lang, seed)  # fail early on bad parameters
        _store(args.out, "nizk.crs", pack_fields(args.lang.encode(), seal(seed, b"cli-crs")))
        _say(status="ok", out=args.out)
        return 0
    lang_name, sealed_seed = unpack_fields(_load(args.crs, "nizk.crs"), 2)
    crs = proofs.nizk_setup(fixture(utf8(lang_name)), unseal(sealed_seed, b"cli-crs"))
    x = bytes.fromhex(args.x)
    if args.action == "prove":
        try:
            pi = proofs.nizk_prove(crs, _witness(args), x, Drbg(args.seed))
        except ProofFailed:
            _say(status="bottom")
            return 1
        _store(args.out, "nizk.proof", pi.pi)
        _say(status="ok", out=args.out, proof=pi.pi.hex())
        return 0
    if args.action == "sim":
        pi = proofs.nizk_sim(crs, x)
        _store(args.out, "nizk.proof", pi.pi)
        _say(status="ok", out=args.out, proof=pi.pi.hex())
        return 0
    pi = proofs.NizkProof(_load(args.proof, "nizk.proof"))
    bit = proofs.nizk_verify(crs, pi, x)
    _say(status="ok", accept=bit)
    return 0 if bit == 1 else 1


def cmd_zapr(args) -> int:
    if args.action == "setup":
        seed = Drbg(args.seed).child("zapr-cli").bytes(16)
        proofs.zapr_setup(fixture(args.lang), seed)
        _store(args.out, "zapr.crs", pack_fields(args.lang.encode(), seal(seed, b"cli-crs")))
        _say(status="ok", out=args.out)
        return 0
    lang_name, sealed_seed = unpack_fields(_load(args.crs, "zapr.crs"), 2)
    crs = proofs.zapr_setup(fixture(utf8(lang_name)), unseal(sealed_seed, b"cli-crs"))
    x = bytes.fromhex(args.x)
    if args.action == "prove":
        # the prover consumes two batches of witness copies, one per CRS
        double = _WITNESSES[args.witness](2 * args.copies)
        try:
            zp = proofs.zapr_prove(crs, double, x, Drbg(args.seed))
        except (ProofFailed, proofs.NoValidNizk) as e:
            _say(status="bottom", reason=str(e))
            return 1
        _store(args.out, "zapr.proof",
               pack_fields(zp.ck1, zp.c_nizk, zp.c_owf, zp.zap_proof))
        _say(status="ok", out=args.out, proof=zp.zap_proof.hex())
        return 0
    ck1, c_nizk, c_owf, zap_proof = unpack_fields(_load(args.proof, "zapr.proof"), 4)
    bit = proofs.zapr_verify(crs, proofs.ZaprProof(ck1, c_nizk, c_owf, zap_proof), x)
    _say(status="ok", accept=bit)
    return 0 if bit == 1 else 1


# ---------------------------------------------------------------------------
# abe / cprf / pe


def _policy_circuit(args):
    if args.policy_file:
        from .qsim import parse_circuit
        return parse_circuit(Path(args.policy_file).read_text())
    return ed.POLICY_FAMILY[args.policy_id]


def cmd_abe(args) -> int:
    if args.action == "gen":
        seed = Drbg(args.seed).child("abe-cli").bytes(16)
        keys = ed.abe_gen(args.attr_len, seed)
        _store(args.out, "abe.keys",
               pack_fields(seal(seed, b"cli-abe"), bytes([args.attr_len]),
                           keys.mpk.to_bytes()))
        _say(status="ok", out=args.out)
        return 0
    sealed_seed, al, mpk_b = unpack_fields(_load(args.keys, "abe.keys"), 3)
    keys = ed.abe_gen(fixed(al, 1)[0], unseal(sealed_seed, b"cli-abe"))
    if args.action == "keygen":
        sk = ed.abe_keygen(keys, int(args.attr, 2))
        _store(args.out, "abe.sk", sk.to_bytes())
        _say(status="ok", out=args.out)
        return 0
    if args.action == "enc":
        ct = ed.abe_enc_circuit(keys, _policy_circuit(args), bytes.fromhex(args.m),
                                Drbg(args.seed).child("enc").bytes(16))
        _store(args.out, "abe.ct", ct.to_bytes())
        _say(status="ok", out=args.out)
        return 0
    sk = ed.AbeSecretKey.from_bytes(_load(args.sk, "abe.sk"))
    ct = ed.AbeCiphertext.from_bytes(_load(args.ct, "abe.ct"))
    m = ed.abe_dec(sk, ct, Drbg(args.seed))
    if m is None:
        _say(status="bottom")
        return 1
    _say(status="ok", m=m.hex())
    return 0


def cmd_cprf(args) -> int:
    if args.action == "gen":
        seed = Drbg(args.seed).child("cprf-cli").bytes(16)
        ed.cprf_gen(seed)
        _store(args.out, "cprf.keys", seal(seed, b"cli-cprf"))
        _say(status="ok", out=args.out)
        return 0
    keys = ed.cprf_gen(unseal(_load(args.keys, "cprf.keys"), b"cli-cprf"))
    if args.action == "eval":
        _say(status="ok", y=ed.cprf_eval(keys, int(args.x, 2)).hex())
        return 0
    if args.action == "constrain":
        kq = ed.cprf_constrain(keys, args.policy_id)
        _store(args.out, "cprf.ck", kq.to_bytes())
        _say(status="ok", out=args.out)
        return 0
    kq = ed.AbeSecretKey.from_bytes(_load(args.ck, "cprf.ck"))
    y = ed.cprf_ceval(keys.pp, kq, int(args.x, 2), Drbg(args.seed))
    if y is None:
        _say(status="bottom")
        return 1
    _say(status="ok", y=y.hex())
    return 0


def cmd_pe(args) -> int:
    sealed_seed, al, _mpk = unpack_fields(_load(args.keys, "abe.keys"), 3)
    keys = ed.abe_gen(fixed(al, 1)[0], unseal(sealed_seed, b"cli-abe"))
    if args.action == "enc":
        ct = ed.pe_enc(keys, _policy_circuit(args), bytes.fromhex(args.m),
                       Drbg(args.seed).child("pe").bytes(16))
        _store(args.out, "pe.ct", ct.to_bytes())
        _say(status="ok", out=args.out)
        return 0
    sk = ed.AbeSecretKey.from_bytes(_load(args.sk, "abe.sk"))
    ct = ed.PeCiphertext.from_bytes(_load(args.ct, "pe.ct"))
    m = ed.pe_dec(sk, ct)
    if m is None:
        _say(status="bottom")
        return 1
    _say(status="ok", m=m.hex())
    return 0


# ---------------------------------------------------------------------------
# secret sharing


def cmd_share(args) -> int:
    if args.action == "split":
        ss = ed.ss_share(fixture(args.lang), args.parties, args.secret,
                         Drbg(args.seed).child("share").bytes(16))
        _store(args.out, "share.set", ss.to_bytes())
        if args.split_dir:
            d = Path(args.split_dir)
            d.mkdir(parents=True, exist_ok=True)
            for i, (r_i, ct) in enumerate(ss.shares):
                (d / f"party{i}.share").write_bytes(
                    envelope("share.party", pack_fields(bytes([i]), r_i, ct.to_bytes())))
        _say(status="ok", out=args.out, parties=args.parties)
        return 0
    ss = ed.ShareSet.from_bytes(_load(args.shares, "share.set"))
    subset = {int(i) for i in args.subset.split(",") if i != ""}
    s = ed.ss_rec(ss, subset, _witness(args), Drbg(args.seed))
    if s is None:
        _say(status="bottom")
        return 1
    _say(status="ok", secret=s)
    return 0


# ---------------------------------------------------------------------------
# attacks


def cmd_attack(args) -> int:
    claim = cvqc.claim_for(fixture(args.lang), bytes.fromhex(args.x))
    drbg = Drbg(args.seed)
    params = _toy_params(args)
    try:
        if args.action == "flip":
            pp, r = cvqc.toy_keygen(claim, drbg.child("kg"), params)
            pi = cvqc.toy_prove(pp, _witness(args), drbg.child("pv"))
            t = attacks.attack_basis_flip(cvqc.sealed_toy_verifier(claim, r), pi)
            exact = t.recovered == r.body.bases
        elif args.action == "stats":
            sp = cvqc.ToyParams(params.K, params.w, params.tau, cvqc.TOY_STATS)
            pp, r = cvqc.toy_keygen(claim, drbg.child("kg"), sp)
            salted = cvqc.toy_prove_stats(pp, _witness(args), drbg.child("pv"))
            t = attacks.attack_stats(cvqc.sealed_stats_verifier(claim, r), salted,
                                     samples=args.samples, seed=args.seed)
            exact = t.recovered == r.body.bases
        else:
            lp = cvqc.ToyParams(params.K, params.w, params.tau, cvqc.TOY_LINEAR)
            pp, r = cvqc.toy_keygen(claim, drbg.child("kg"), lp)
            pi = cvqc.toy_prove(pp, _witness(args), drbg.child("pv"))
            t = attacks.attack_linear(cvqc.sealed_toy_verifier(claim, r), pi,
                                      width=r.body.w)
            exact = t.recovered == r.body.secrets
    except NoAcceptingProof:
        _say(status="no-accepting-proof")
        return 1
    if args.report:
        Path(args.report).write_text(t.to_json())
    _say(status="ok", exact=exact, queries=t.query_count,
         recovered=["?" if v is None else v for v in t.recovered])
    return 0


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args) -> int:
    only = [int(v) for v in args.only.split(",")] if args.only else None
    results = selftest.run_all(args.params, only)
    failures = 0
    for idx, name, ok, detail, dt in results:
        print(f"{'PASS' if ok else 'FAIL'} criterion {idx} [{name}] "
              f"({dt:.1f}s): {detail}")
        failures += 0 if ok else 1
    print(f"{len(results) - failures}/{len(results)} criteria passed")
    return 0 if failures == 0 else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--lang", default="par8")
    common.add_argument("--params", choices=["mini", "default"], default="default")
    common.add_argument("--witness", choices=sorted(_WITNESSES), default="none")
    common.add_argument("--copies", type=int, default=5)

    p = argparse.ArgumentParser(prog="qnk", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("cvqc", parents=[common])
    c.add_argument("action", choices=["keygen", "prove", "verify", "tdgen", "simgen"])
    c.add_argument("--proto", choices=["oracle", "toy"], default="oracle")
    c.add_argument("--x", default="07")
    c.add_argument("--setup")
    c.add_argument("--proof")
    c.add_argument("--out", default="cvqc.bin")
    c.set_defaults(fn=cmd_cvqc)

    n = sub.add_parser("nio", parents=[common])
    n.add_argument("action", choices=["obf", "eval"])
    n.add_argument("--proto", choices=["oracle", "toy"], default="oracle")
    n.add_argument("--x", default="07")
    n.add_argument("--obf")
    n.add_argument("--out", default="nio.bin")
    n.set_defaults(fn=cmd_nio)

    w = sub.add_parser("we", parents=[common])
    w.add_argument("action", choices=["enc", "dec"])
    w.add_argument("--x", default="07")
    w.add_argument("--m", default="1", help="bit string, one ciphertext per bit")
    w.add_argument("--ct")
    w.add_argument("--out", default="we.bin")
    w.set_defaults(fn=cmd_we)

    z = sub.add_parser("nizk", parents=[common])
    z.add_argument("action", choices=["setup", "prove", "verify", "sim"])
    z.add_argument("--x", default="07")
    z.add_argument("--crs")
    z.add_argument("--proof")
    z.add_argument("--out", default="nizk.bin")
    z.set_defaults(fn=cmd_nizk)

    zr = sub.add_parser("zapr", parents=[common])
    zr.add_argument("action", choices=["setup", "prove", "verify"])
    zr.add_argument("--x", default="07")
    zr.add_argument("--crs")
    zr.add_argument("--proof")
    zr.add_argument("--out", default="zapr.bin")
    zr.set_defaults(fn=cmd_zapr)

    a = sub.add_parser("abe", parents=[common])
    a.add_argument("action", choices=["gen", "keygen", "enc", "dec"])
    a.add_argument("--attr-len", type=int, default=4)
    a.add_argument("--attr", default="0111", help="attribute bits")
    a.add_argument("--policy-id", type=int, default=1, choices=sorted(ed.POLICY_FAMILY))
    a.add_argument("--policy-file")
    a.add_argument("--m", default="01")
    a.add_argument("--keys")
    a.add_argument("--sk")
    a.add_argument("--ct")
    a.add_argument("--out", default="abe.bin")
    a.set_defaults(fn=cmd_abe)

    cp = sub.add_parser("cprf", parents=[common])
    cp.add_argument("action", choices=["gen", "eval", "constrain", "ceval"])
    cp.add_argument("--x", default="00000111", help="input bits")
    cp.add_argument("--policy-id", type=int, default=1, choices=sorted(ed.POLICY_FAMILY))
    cp.add_argument("--keys")
    cp.add_argument("--ck")
    cp.add_argument("--out", default="cprf.bin")
    cp.set_defaults(fn=cmd_cprf)

    pe = sub.add_parser("pe", parents=[common])
    pe.add_argument("action", choices=["enc", "dec"])
    pe.add_argument("--policy-id", type=int, default=1, choices=sorted(ed.POLICY_FAMILY))
    pe.add_argument("--policy-file")
    pe.add_argument("--m", default="01")
    pe.add_argument("--keys")
    pe.add_argument("--sk")
    pe.add_argument("--ct")
    pe.add_argument("--out", default="pe.bin")
    pe.set_defaults(fn=cmd_pe)

    sh = sub.add_parser("share", parents=[common])
    sh.add_argument("action", choices=["split", "rec"])
    sh.add_argument("--parties", type=int, default=3)
    sh.add_argument("--secret", type=int, choices=[0, 1], default=1)
    sh.add_argument("--subset", default="0,1", help="comma-separated party indices")
    sh.add_argument("--shares")
    sh.add_argument("--split-dir")
    sh.add_argument("--out", default="shares.bin")
    sh.set_defaults(fn=cmd_share)

    at = sub.add_parser("attack", parents=[common])
    at.add_argument("action", choices=["flip", "stats", "linear"])
    at.add_argument("--x", default="07")
    at.add_argument("--samples", type=int, default=50)
    at.add_argument("--report")
    at.set_defaults(fn=cmd_attack)

    st = sub.add_parser("selftest", parents=[common])
    st.add_argument("--only", help="comma-separated criterion numbers")
    st.set_defaults(fn=cmd_selftest)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except QnkError as e:
        _say(status="error", error=type(e).__name__, detail=str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
