"""Command-line front end: deterministic seeding, enveloped artifact files,
and the acceptance selftest.

Every artifact is written as a QNK1 envelope (magic, version, type tag,
payload, digest) and every command is a pure function of its flags: a fixed
--seed reproduces artifacts byte for byte.

Exit codes: 0 success; 1 protocol-level failure (rejection / bottom), or a
malformed, missing or unwritable artifact, reported as a JSON error line;
2 usage errors: a malformed flag value, a missing action or path flag, or a
flag the action does not read.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import attacks, cvqc, encdelegate as ed, nullio, proofs, selftest
from .errors import JudgeReject, NoAcceptingProof, ProofFailed, QnkError
from .memo import memo
from .primitives import PrfKey
from .qma import FIXTURES, Witness, fixture, ghz_witness
from .qsim import parse_circuit
from .rand import Drbg
from .wire import (
    choice, envelope, fixed, open_envelope, pack_fields, seal, unpack_fields, unseal, utf8,
)

_WITNESSES = {
    "none": lambda copies: Witness.empty(copies),
    "ghz": lambda copies: Witness(ghz_witness(), copies),
}
_PROTOS = {"oracle": cvqc.PROTO_ORACLE, "toy": cvqc.PROTO_TOY}


# ---------------------------------------------------------------------------
# flag value types: a ValueError becomes argparse's "invalid <type> value"


def count(s: str) -> int:
    """A non-negative integer of at most 128 bits, the width of a Drbg seed."""
    n = int(s)
    if n < 0 or n >> 128:
        raise ValueError(s)
    return n


def positive(s: str) -> int:
    """An integer of at least 1, such as a sample count."""
    n = int(s)
    if n < 1:
        raise ValueError(s)
    return n


def bits(s: str) -> int:
    """A non-empty string of 0s and 1s, read as a binary number."""
    if not s or s.strip("01"):
        raise ValueError(s)
    return int(s, 2)


def bit_list(s: str) -> list[int]:
    """One bit per character, at most 255 (the ciphertext count is one byte)."""
    if s.strip("01") or len(s) > 255:
        raise ValueError(s)
    return [int(b) for b in s]


def int_set(s: str) -> set[int]:
    """Comma-separated integers; empty items are skipped."""
    return {int(v) for v in s.split(",") if v != ""}


def criteria(s: str) -> set[int]:
    """Comma-separated acceptance criterion numbers, each one that selftest has."""
    only = int_set(s)
    if not only <= set(range(1, len(selftest.CRITERIA) + 1)):
        raise ValueError(s)
    return only


def protocol(s: str) -> str:
    """oracle or toy, as the cvqc protocol name."""
    if s not in _PROTOS:
        raise ValueError(s)
    return _PROTOS[s]


# ---------------------------------------------------------------------------
# artifacts and output lines


def _store(path: str, tag: str, payload: bytes) -> None:
    Path(path).write_bytes(envelope(tag, payload))


def _load(args, flag: str, tag: str) -> bytes:
    """The payload of the `tag` artifact named by the (required) `--flag`."""
    return open_envelope(Path(getattr(args, flag)).read_bytes(), tag)[1]


def _say(**kv) -> None:
    print(json.dumps(kv))


def _saved(args, tag: str, payload: bytes, **fields) -> int:
    """Write the artifact to --out and print the ok line: `fields`, then
    `out` unless `fields` places it earlier."""
    _store(args.out, tag, payload)
    fields.setdefault("out", args.out)
    _say(status="ok", **fields)
    return 0


def _verdict(key: str, bit: int) -> int:
    _say(**{"status": "ok", key: bit})
    return 0 if bit == 1 else 1


def _bottom(**kv) -> int:
    _say(status="bottom", **kv)
    return 1


def _value(key: str, value) -> int:
    """The ok line for a recovered value (bytes as hex), or bottom for None."""
    if value is None:
        return _bottom()
    _say(**{"status": "ok", key: value.hex() if isinstance(value, bytes) else value})
    return 0


def _toy_params(args) -> cvqc.ToyParams:
    return cvqc.MINI_PARAMS if args.params == "mini" else cvqc.ToyParams()


def _claim(args) -> cvqc.Claim:
    return cvqc.claim_for(fixture(args.lang), args.x)


def _witness(args) -> Witness:
    return _WITNESSES[args.witness](args.copies)


# ---------------------------------------------------------------------------
# cvqc


def cmd_cvqc(args) -> int:
    if args.action in ("keygen", "tdgen", "simgen"):
        gen = {"keygen": cvqc.keygen_star, "tdgen": cvqc.td_gen,
               "simgen": cvqc.sim_gen}[args.action]
        setup = gen(_claim(args), args.proto, Drbg(args.seed), _toy_params(args))
        mode = ({"proto": args.proto.lower()} if args.action == "keygen"
                else {"mode": args.action})
        return _saved(args, "cvqc.setup", _pack_setup(setup), **mode)
    setup = _unpack_setup(_load(args, "setup", "cvqc.setup"))
    if args.action == "prove":
        try:
            proof = cvqc.star_prove(setup.pp, _witness(args), setup.oracle, Drbg(args.seed))
        except JudgeReject:
            _say(status="reject", reason="witness failed the amplified check")
            return 1
        return _saved(args, "cvqc.proof",
                      pack_fields(setup.pp.proto.encode(), proof.encode(setup.pp.proto)))
    proto_b, blob = unpack_fields(_load(args, "proof", "cvqc.proof"), 2)
    proto = setup.pp.proto
    if choice(proto_b, cvqc.PROTOCOLS) != proto:
        return _verdict("accept", 0)  # a proof of the other protocol does not verify
    proof = cvqc.CvqcProof.decode(proto, blob)
    if setup.td is not None and setup.r is None:
        bit = cvqc.td_verify(setup.claim, proof, setup.td, setup.oracle, proto)
    else:
        bit = cvqc.star_verify(setup.claim, proof, setup.r, setup.oracle)
    return _verdict("accept", bit)


def _pack_setup(setup: cvqc.StarSetup) -> bytes:
    return pack_fields(
        setup.claim.to_bytes(), setup.pp.to_bytes(),
        setup.r.to_bytes() if setup.r is not None else b"",
        seal(setup.td.bytes, b"cli-td") if setup.td is not None else b"",
        seal(cvqc.oracle_spec(setup), b"cli-oracle"))


def _unpack_setup(blob: bytes) -> cvqc.StarSetup:
    claim_b, pp_b, r_b, td_b, spec_b = unpack_fields(blob, 5)
    return cvqc.StarSetup(
        cvqc.Claim.from_bytes(claim_b), cvqc.CvqcParams.from_bytes(pp_b),
        cvqc.CvqcVerifyKey.from_bytes(r_b) if r_b else None,
        cvqc.oracle_from_spec(unseal(spec_b)),
        PrfKey(unseal(td_b)) if td_b else None)


# ---------------------------------------------------------------------------
# nio / we


def cmd_nio(args) -> int:
    if args.action == "obf":
        obf = nullio.nio_obf(_claim(args), args.seed, args.proto, _toy_params(args))
        return _saved(args, "nio.obf", obf.to_bytes(), out=args.out,
                      declared_size=obf.sealed_C.declared_size)
    obf = nullio.ObfuscatedNullCircuit.from_bytes(_load(args, "obf", "nio.obf"))
    return _verdict("output", nullio.nio_eval(obf, _witness(args), Drbg(args.seed)))


def cmd_we(args) -> int:
    lang = fixture(args.lang)
    if args.action == "enc":
        cts = [nullio.we_enc(lang, args.x, m, Drbg(args.seed).child(f"bit{i}").bytes(16))
               for i, m in enumerate(args.m)]
        payload = pack_fields(*(c.to_bytes() for c in cts))
        return _saved(args, "we.ct", pack_fields(bytes([len(cts)]), payload), bits=len(cts))
    count_b, payload = unpack_fields(_load(args, "ct", "we.ct"), 2)
    out_bits = ""
    for i, blob in enumerate(unpack_fields(payload, fixed(count_b, 1)[0])):
        m = nullio.we_dec(lang, args.x, nullio.WeCiphertext.from_bytes(blob),
                          _witness(args), Drbg(args.seed).child(f"bit{i}"))
        if m is None:
            return _bottom(bit_index=i)
        out_bits += str(m[0])
    _say(status="ok", m=out_bits)
    print(out_bits)
    return 0


# ---------------------------------------------------------------------------
# nizk / zapr (reference strings reconstruct from their sealed setup seed)


def _crs_setup(args, setup) -> int:
    seed = Drbg(args.seed).child(f"{args.command}-cli").bytes(16)
    setup(fixture(args.lang), seed)  # fail early on bad parameters
    return _saved(args, f"{args.command}.crs",
                  pack_fields(args.lang.encode(), seal(seed, b"cli-crs")))


def _crs(args, setup):
    lang_name, sealed_seed = unpack_fields(_load(args, "crs", f"{args.command}.crs"), 2)
    return setup(fixture(utf8(lang_name)), unseal(sealed_seed))


def cmd_nizk(args) -> int:
    if args.action == "setup":
        return _crs_setup(args, proofs.nizk_setup)
    crs = _crs(args, proofs.nizk_setup)
    if args.action == "verify":
        pi = proofs.NizkProof(_load(args, "proof", "nizk.proof"))
        return _verdict("accept", proofs.nizk_verify(crs, pi, args.x))
    if args.action == "sim":
        pi = proofs.nizk_sim(crs, args.x)
    else:
        try:
            pi = proofs.nizk_prove(crs, _witness(args), args.x, Drbg(args.seed))
        except ProofFailed:
            return _bottom()
    return _saved(args, "nizk.proof", pi.pi, out=args.out, proof=pi.pi.hex())


def cmd_zapr(args) -> int:
    if args.action == "setup":
        return _crs_setup(args, proofs.zapr_setup)
    crs = _crs(args, proofs.zapr_setup)
    if args.action == "verify":
        zp = proofs.ZaprProof(*unpack_fields(_load(args, "proof", "zapr.proof"), 4))
        return _verdict("accept", proofs.zapr_verify(crs, zp, args.x))
    # the prover consumes two batches of witness copies, one per CRS
    double = _WITNESSES[args.witness](2 * args.copies)
    try:
        zp = proofs.zapr_prove(crs, double, args.x, Drbg(args.seed))
    except (ProofFailed, proofs.NoValidNizk) as e:
        return _bottom(reason=str(e))
    return _saved(args, "zapr.proof", pack_fields(zp.ck1, zp.c_nizk, zp.c_owf, zp.zap_proof),
                  out=args.out, proof=zp.zap_proof.hex())


# ---------------------------------------------------------------------------
# abe / cprf / pe


def _abe_seed(args) -> tuple[int, bytes]:
    """The `--keys` file's attribute length and seed, checked as `abe_gen`
    would check them but without building the keys (`dec` uses neither)."""
    sealed_seed, al, _mpk = unpack_fields(_load(args, "keys", "abe.keys"), 3)
    attr_len, seed = fixed(al, 1)[0], unseal(sealed_seed)
    return ed.check_attr_len(attr_len), seed


def _abe_keys(args) -> ed.AbeKeys:
    return ed.abe_gen(*_abe_seed(args))


def _policy_circuit(args):
    if args.policy_file:
        return parse_circuit(utf8(Path(args.policy_file).read_bytes()))
    return ed.POLICY_FAMILY[args.policy_id]


def cmd_abe(args) -> int:
    if args.action == "gen":
        seed = Drbg(args.seed).child("abe-cli").bytes(16)
        keys = ed.abe_gen(args.attr_len, seed)
        return _saved(args, "abe.keys", pack_fields(seal(seed, b"cli-abe"),
                                                    bytes([args.attr_len]), keys.mpk.to_bytes()))
    if args.action == "keygen":
        return _saved(args, "abe.sk", ed.abe_keygen(_abe_keys(args), args.attr).to_bytes())
    if args.action == "enc":
        ct = ed.abe_enc_circuit(_abe_keys(args), _policy_circuit(args), args.m,
                                Drbg(args.seed).child("enc").bytes(16))
        return _saved(args, "abe.ct", ct.to_bytes())
    _abe_seed(args)
    sk = ed.AbeSecretKey.from_bytes(_load(args, "sk", "abe.sk"))
    ct = ed.AbeCiphertext.from_bytes(_load(args, "ct", "abe.ct"))
    return _value("m", ed.abe_dec(sk, ct, Drbg(args.seed)))


def cmd_cprf(args) -> int:
    if args.action == "gen":
        return _saved(args, "cprf.keys",
                      seal(Drbg(args.seed).child("cprf-cli").bytes(16), b"cli-cprf"))
    # derived on use: eval reads only keys.k, constrain only keys.abe
    keys = ed.cprf_gen(unseal(_load(args, "keys", "cprf.keys")))
    if args.action == "eval":
        return _value("y", ed.cprf_eval(keys, args.x))
    if args.action == "constrain":
        return _saved(args, "cprf.ck", ed.cprf_constrain(keys, args.policy_id).to_bytes())
    kq = ed.AbeSecretKey.from_bytes(_load(args, "ck", "cprf.ck"))
    return _value("y", ed.cprf_ceval(keys.pp, kq, args.x, Drbg(args.seed)))


def cmd_pe(args) -> int:
    if args.action == "enc":
        ct = ed.pe_enc(_abe_keys(args), _policy_circuit(args), args.m,
                       Drbg(args.seed).child("pe").bytes(16))
        return _saved(args, "pe.ct", ct.to_bytes())
    _abe_seed(args)
    sk = ed.AbeSecretKey.from_bytes(_load(args, "sk", "abe.sk"))
    return _value("m", ed.pe_dec(sk, ed.PeCiphertext.from_bytes(_load(args, "ct", "pe.ct"))))


# ---------------------------------------------------------------------------
# secret sharing


def cmd_share(args) -> int:
    if args.action == "split":
        ss = ed.ss_share(fixture(args.lang), args.parties, args.secret,
                         Drbg(args.seed).child("share").bytes(16))
        if args.split_dir:
            d = Path(args.split_dir)
            d.mkdir(parents=True, exist_ok=True)
            for i, (r_i, ct) in enumerate(ss.shares):
                (d / f"party{i}.share").write_bytes(
                    envelope("share.party", pack_fields(bytes([i]), r_i, ct.to_bytes())))
        return _saved(args, "share.set", ss.to_bytes(), out=args.out, parties=args.parties)
    ss = ed.ShareSet.from_bytes(_load(args, "shares", "share.set"))
    return _value("secret", ed.ss_rec(ss, args.subset, _witness(args), Drbg(args.seed)))


# ---------------------------------------------------------------------------
# attacks


def cmd_attack(args) -> int:
    claim = _claim(args)
    drbg = Drbg(args.seed)
    params = _toy_params(args)
    variant = {"flip": params.variant, "stats": cvqc.TOY_STATS,
               "linear": cvqc.TOY_LINEAR}[args.action]
    try:
        pp, r = cvqc.toy_keygen(claim, drbg.child("kg"),
                                cvqc.ToyParams(params.K, params.w, params.tau, variant))
        if args.action == "stats":
            salted = cvqc.toy_prove_stats(pp, _witness(args), drbg.child("pv"))
            t = attacks.attack_stats(cvqc.sealed_stats_verifier(claim, r), salted,
                                     samples=args.samples, seed=args.seed)
        else:
            pi = cvqc.toy_prove(pp, _witness(args), drbg.child("pv"))
            verifier = cvqc.sealed_toy_verifier(claim, r)
            t = (attacks.attack_linear(verifier, pi, width=r.body.w) if args.action == "linear"
                 else attacks.attack_basis_flip(verifier, pi))
    except NoAcceptingProof:
        _say(status="no-accepting-proof")
        return 1
    exact = t.recovered == (r.body.secrets if args.action == "linear" else r.body.bases)
    if args.report:
        Path(args.report).write_text(t.to_json())
    _say(status="ok", exact=exact, queries=t.query_count,
         recovered=["?" if v is None else v for v in t.recovered])
    return 0


# ---------------------------------------------------------------------------
# selftest


def cmd_selftest(args) -> int:
    results = selftest.run_all(args.only)
    for idx, name, ok, detail, dt in results:
        print(f"{'PASS' if ok else 'FAIL'} criterion {idx} [{name}] "
              f"({dt:.1f}s): {detail}")
    passed = sum(ok for _, _, ok, _, _ in results)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


# ---------------------------------------------------------------------------
# parser


@memo(1)
def _parser() -> argparse.ArgumentParser:
    """The whole flag grammar, built on first use and kept for the process:
    each (command, action) takes exactly the flags its handler reads."""
    def flag(name, **kw) -> argparse.ArgumentParser:
        f = argparse.ArgumentParser(add_help=False)
        f.add_argument(name, **kw)
        return f

    def out(default) -> argparse.ArgumentParser:
        return flag("--out", default=default)

    seed = flag("--seed", type=count, default=0)
    lang = flag("--lang", choices=sorted(FIXTURES), default="par8")
    params = flag("--params", choices=["mini", "default"], default="default")
    hex_x = flag("--x", type=bytes.fromhex, default="07", help="statement bytes, hex")
    prover = (flag("--witness", choices=sorted(_WITNESSES), default="none"),
              flag("--copies", type=int, default=5), seed)
    gen = (lang, hex_x, flag("--proto", type=protocol, default="oracle",
                             metavar="{oracle,toy}"), params, seed)
    keys, sk, ct, crs, proof = (flag(name, required=True)
                                for name in ("--keys", "--sk", "--ct", "--crs", "--proof"))
    policy_id = flag("--policy-id", type=int, default=1, choices=sorted(ed.POLICY_FAMILY))
    enc = (keys, policy_id, flag("--policy-file"),
           flag("--m", type=bytes.fromhex, default="01", help="message bytes, hex"), seed)

    p = argparse.ArgumentParser(prog="qnk", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, **actions) -> None:
        acts = sub.add_parser(name).add_subparsers(dest="action", required=True)
        for action, parents in actions.items():
            acts.add_parser(action, parents=list(parents))

    o, setup = out("cvqc.bin"), flag("--setup", required=True)
    command("cvqc", keygen=(*gen, o), prove=(setup, *prover, o), verify=(setup, proof),
            tdgen=(*gen, o), simgen=(*gen, o))
    command("nio", obf=(*gen, out("nio.bin")), eval=(flag("--obf", required=True), *prover))
    command("we", enc=(lang, hex_x, flag("--m", type=bit_list, default="1",
                                         help="bit string, one ciphertext per bit"),
                       seed, out("we.bin")),
            dec=(lang, hex_x, ct, *prover))
    for name in ("nizk", "zapr"):
        o = out(f"{name}.bin")
        command(name, setup=(lang, seed, o), prove=(crs, hex_x, *prover, o),
                verify=(crs, proof, hex_x), **({"sim": (crs, hex_x, o)} if name == "nizk" else {}))
    o = out("abe.bin")
    command("abe", gen=(flag("--attr-len", type=count, default=4), seed, o),
            keygen=(keys, flag("--attr", type=bits, default="0111", help="attribute bits"), o),
            enc=(*enc, o), dec=(keys, sk, ct, seed))
    o, cprf_x = out("cprf.bin"), flag("--x", type=bits, default="00000111", help="input bits")
    command("cprf", gen=(seed, o), eval=(keys, cprf_x), constrain=(keys, policy_id, o),
            ceval=(keys, flag("--ck", required=True), cprf_x, seed))
    command("pe", enc=(*enc, out("pe.bin")), dec=(keys, sk, ct))
    command("share",
            split=(lang, flag("--parties", type=int, default=3),
                   flag("--secret", type=int, choices=[0, 1], default=1), seed,
                   out("shares.bin"), flag("--split-dir")),
            rec=(flag("--shares", required=True),
                 flag("--subset", type=int_set, default="0,1",
                      help="comma-separated party indices"), *prover))
    attack = (lang, hex_x, params, *prover, flag("--report"))
    command("attack", flip=attack, stats=(*attack, flag("--samples", type=positive, default=50)),
            linear=attack)
    sub.add_parser("selftest", parents=[flag("--only", type=criteria,
                                             help="comma-separated criterion numbers")])
    return p


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        # looked up per call, so a handler rebound on this module is the one that runs
        return globals()[f"cmd_{args.command}"](args)
    except (QnkError, OSError) as e:
        _say(status="error", error=type(e).__name__, detail=str(e))
        return 1


if __name__ == "__main__":
    sys.exit(main())
