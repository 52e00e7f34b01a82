"""The four benchmark workloads, driven through qnk's public API.

Every input comes from a `random.Random` seeded with the workload name, the
benchmark seed and the cycle index, and is drawn before the operation it
feeds is timed. A workload is set up once (keys, fixtures, instance pools)
and then run as numbered cycles; each cycle is a fixed mix of operations, so
per-cycle cost does not depend on the seed. Each operation carries a check
against ground truth that runs outside the timed region.

Calls go through module attributes (`cvqc.star_verify`, not a name imported
from cvqc) so that the traced run sees them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import shlex
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from qnk import attacks, cli, cvqc, nullio, primitives, proofs, qma
from qnk.qma import Witness
from qnk.rand import Drbg

DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).resolve().parent / "golden.json"


@dataclass
class Op:
    """One closed-loop operation, or `weight` operations timed as a batch.

    `produce()` builds an artifact or proof, `consume(produced)` evaluates or
    verifies one; either may be absent. `check(result)` returns the number of
    failed operations among the `weight` it stands for."""

    label: str
    produce: Callable | None
    consume: Callable | None
    check: Callable[[object], int]
    weight: int = 1


def _rng(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def _with_weight(rng: random.Random, bits: int, weight: int) -> int:
    """A `bits`-wide value with exactly `weight` set bits."""
    v = 0
    for i in rng.sample(range(bits), weight):
        v |= 1 << i
    return v


def _keygen_with_checks(claim, rng, params, checked: int):
    """toy_keygen on the first seed whose key checks exactly `checked`
    positions, so that verification cost does not vary with the seed."""
    while True:
        pp, r = cvqc.toy_keygen(claim, Drbg(rng.getrandbits(64)), params)
        if sum(r.body.bases) == checked:
            return pp, r


def _dot(d: int, s: int) -> int:
    return bin(d & s).count("1") & 1


# ---------------------------------------------------------------------------
# verify: dual-mode verifier sweep (HMAC, PRF and oracle memo only)


class Verify:
    name = "verify"
    why = ("Dual-mode verifier sweep over random K=8 TOY proofs for par8: HMAC, "
           "PRF and oracle-memo work only, the bypass workload for wire, IR and "
           "simulator changes.")
    BATCH = 256          # one timed sample; a single verification is ~20 us
    # per cycle, one batch against the TDGEN setup (star_verify and td_verify,
    # the costlier kind) and four against the SIMGEN setup: p95 then falls
    # inside the TDGEN batches instead of in the noise of identical batches
    SIM_BATCHES = 4
    trace_cycles = 16

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(self.name, seed, "setup")
        self.seed = seed
        x = _with_weight(rng, 8, 3)
        self.claim = cvqc.claim_for(qma.fixture("par8"), bytes([x]))
        # keys that check exactly 4 positions, so cost does not vary with the seed
        while True:
            self.td = cvqc.td_gen(self.claim, cvqc.PROTO_TOY, Drbg(rng.getrandbits(64)))
            if sum(self.td.r.body.bases) == 4:
                break
        self.sim = cvqc.sim_gen(self.claim, cvqc.PROTO_TOY, Drbg(rng.getrandbits(64)))
        self.td_spec = cvqc.oracle_spec(self.td)
        self.sim_spec = cvqc.oracle_spec(self.sim)

    def _accepts(self, pi) -> int:
        vk = self.td.r.body
        bad = sum(1 for i in range(vk.K)
                  if vk.bases[i] and pi[i][0] ^ _dot(pi[i][1], vk.secrets[i]) != vk.target[i])
        return 1 if bad <= vk.tau else 0

    def _batch(self, rng: random.Random):
        vk = self.td.r.body
        items = []
        for i in range(self.BATCH):
            if i % 4 == 3:                       # a quarter repeat earlier proofs
                pi = items[rng.randrange(i)][0]
            else:
                pi = [(rng.randrange(2), rng.randrange(1 << vk.w)) for _ in range(vk.K)]
                if i % 2 == 0:                   # half the fresh ones are honest
                    pi = [(vk.target[j] ^ _dot(d, vk.secrets[j]) if vk.bases[j] else b, d)
                          for j, (b, d) in enumerate(pi)]
                pi = tuple(pi)
            items.append((pi, i % 4 == 1))       # a quarter carry a forged digest
        return items

    def cycle(self, c: int) -> list[Op]:
        rng = _rng(self.name, self.seed, c)
        ops = [self._op(self._batch(rng), self.td, self.td_spec)]
        ops += [self._op(self._batch(rng), self.sim, self.sim_spec)
                for _ in range(self.SIM_BATCHES)]
        return ops

    def _op(self, items, setup, spec) -> Op:
        claim, trapdoor = self.claim, setup.r is not None

        def produce():
            oracle = cvqc.oracle_from_spec(spec)          # fresh memo per batch
            out = []
            for pi, forged in items:
                h = primitives.ro_query(oracle, cvqc.encode_base_proof(cvqc.PROTO_TOY, pi))
                if forged:
                    h = h[:16] + bytes([h[16] ^ 1])
                out.append(cvqc.CvqcProof(pi, h))
            return oracle, out

        def consume(produced):
            oracle, proofs_ = produced
            tdv = [cvqc.td_verify(claim, p, setup.td, oracle, cvqc.PROTO_TOY) for p in proofs_]
            if not trapdoor:
                return tdv
            return [(cvqc.star_verify(claim, p, setup.r, oracle), v)
                    for p, v in zip(proofs_, tdv)]

        def check(verdicts) -> int:
            if not trapdoor:                              # SIMGEN rejects everything
                return sum(v != 0 for v in verdicts)
            return sum(not (star == tdv == (0 if forged else self._accepts(pi)))
                       for (pi, forged), (star, tdv) in zip(items, verdicts))

        return Op("tdgen" if trapdoor else "simgen", produce, consume, check, self.BATCH)


# ---------------------------------------------------------------------------
# attack: cryptanalysis query streams against sealed verifiers


class Attack:
    name = "attack"
    why = ("Key recovery against sealed par4 verifiers: every query runs "
           "circuit_ir.evaluate and a host gate that re-decodes its constants, "
           "with 9-, 33- and 2001-query attacks side by side.")
    POOL = 16             # instances per attack kind, built at set-up
    # per cycle: as many flips as stats puts the median mid-way through the
    # linear attacks, and stats at 1 in 8 operations puts p95 inside them
    FLIPS, LINEARS, STATS = 2, 12, 2
    STATS_SAMPLES = 125   # 1 + 8 * 2 * 125 = 2001 queries per recovery
    trace_cycles = 3

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(self.name, seed, "setup")
        self.seed = seed
        par4 = qma.fixture("par4")
        self.pools = {}
        for kind, variant in (("flip", cvqc.TOY_STANDARD), ("linear", cvqc.TOY_LINEAR),
                              ("stats", cvqc.TOY_STATS)):
            pool = []
            for _ in range(self.POOL):
                claim = cvqc.claim_for(par4, bytes([_with_weight(rng, 4, rng.choice((1, 3)))]))
                pp, r = _keygen_with_checks(claim, rng, cvqc.ToyParams(variant=variant), 4)
                drbg = Drbg(rng.getrandbits(64))
                if kind == "stats":
                    proof = cvqc.toy_prove_stats(pp, Witness.empty(), drbg)
                else:
                    proof = cvqc.toy_prove(pp, Witness.empty(), drbg)
                pool.append((claim, r, proof))
            self.pools[kind] = pool

    def cycle(self, c: int) -> list[Op]:
        rng = _rng(self.name, self.seed, c)
        ops = []
        for j in range(self.FLIPS):
            ops.append(self._flip(*self.pools["flip"][(c * self.FLIPS + j) % self.POOL]))
        for j in range(self.LINEARS):
            ops.append(self._linear(*self.pools["linear"][(c * self.LINEARS + j) % self.POOL]))
        for j in range(self.STATS):
            ops.append(self._stats(*self.pools["stats"][(c * self.STATS + j) % self.POOL],
                                   rng.getrandbits(32)))
        return ops

    @staticmethod
    def _flip(claim, r, pi) -> Op:
        return Op("flip", lambda: cvqc.sealed_toy_verifier(claim, r),
                  lambda v: attacks.attack_basis_flip(v, pi).recovered,
                  lambda rec: int(rec != r.body.bases))

    @staticmethod
    def _linear(claim, r, pi) -> Op:
        return Op("linear", lambda: cvqc.sealed_toy_verifier(claim, r),
                  lambda v: attacks.attack_linear(v, pi, width=r.body.w).recovered,
                  lambda rec: int(rec != r.body.secrets))

    def _stats(self, claim, r, salted, seed) -> Op:
        return Op("stats", lambda: cvqc.sealed_stats_verifier(claim, r),
                  lambda v: attacks.attack_stats(v, salted, samples=self.STATS_SAMPLES,
                                                 seed=seed).recovered,
                  lambda rec: int(rec != r.body.bases))


# ---------------------------------------------------------------------------
# flows: the README CLI flows, in process


def run_cli(argv: list[str]) -> tuple[int, str]:
    """qnk.cli.main with stdout captured; argparse usage errors exit 2."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            rc = cli.main(argv)
        except SystemExit as e:
            rc = e.code
    return rc, out.getvalue()


def _status(out: str) -> dict:
    return json.loads(out.splitlines()[0]) if out else {}


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Flows:
    name = "flows"
    why = ("README CLI flows through qnk.cli.main: every artifact is built, "
           "enveloped, written, read back and evaluated once; produce and "
           "consume commands are timed apart.")
    GOLDEN_ROUNDS = 2
    trace_cycles = 2

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir
        self.golden = None
        if seed == DEFAULT_SEED:
            # without golden.json every artifact of the golden rounds fails
            self.golden = ([{}] * self.GOLDEN_ROUNDS if not GOLDEN_PATH.exists()
                           else json.loads(GOLDEN_PATH.read_text())["rounds"])

    def commands(self, c: int):
        """(kind, argv, artifacts written, expected exit code, expected output
        fields) for round c; the CLI seed changes every round."""
        rng = _rng(self.name, self.seed, c)
        s = str(rng.getrandbits(31))
        d = self.dir
        p = {name: shlex.quote(str(d / name)) for name in (
            "we.bin", "we0.bin", "obf.bin", "obf0.bin", "crs.bin", "pi.bin",
            "pi0.bin", "keys.bin", "sk.bin", "sk0.bin", "ct.bin", "pe.bin",
            "shares.bin", "parties", "cprf.bin", "ck.bin")}
        m = "".join(rng.choice("01") for _ in range(4))
        abe_m = f"{rng.getrandbits(8):02x}"
        pe_m = f"{rng.getrandbits(8):02x}"
        parties = [f"parties/party{i}.share" for i in range(3)]
        P, C = "produce", "consume"
        return [
            (P, f"we enc --lang par8 --x 07 --m {m} --seed {s} --out {p['we.bin']}",
             ["we.bin"], 0, {}),
            (C, f"we dec --lang par8 --x 07 --ct {p['we.bin']}", [], 0, {"m": m}),
            (P, f"we enc --lang par8 --x 06 --m 1 --seed {s} --out {p['we0.bin']}",
             ["we0.bin"], 0, {}),
            (C, f"we dec --lang par8 --x 06 --ct {p['we0.bin']}", [], 1, {"status": "bottom"}),
            (P, f"nio obf --lang ghz --x 01 --seed {s} --out {p['obf.bin']}",
             ["obf.bin"], 0, {}),
            (C, f"nio eval --obf {p['obf.bin']} --witness ghz --seed {s}", [], 0, {"output": 1}),
            (P, f"nio obf --lang ghz --x 00 --seed {s} --out {p['obf0.bin']}",
             ["obf0.bin"], 0, {}),
            (C, f"nio eval --obf {p['obf0.bin']} --witness ghz --seed {s}", [], 1, {"output": 0}),
            (P, f"nizk setup --lang par8 --seed {s} --out {p['crs.bin']}", ["crs.bin"], 0, {}),
            (P, f"nizk prove --crs {p['crs.bin']} --x 07 --seed {s} --out {p['pi.bin']}",
             ["pi.bin"], 0, {}),
            (C, f"nizk verify --crs {p['crs.bin']} --x 07 --proof {p['pi.bin']}", [], 0,
             {"accept": 1}),
            (C, f"nizk verify --crs {p['crs.bin']} --x 0b --proof {p['pi.bin']}", [], 1,
             {"accept": 0}),
            (P, f"nizk prove --crs {p['crs.bin']} --x 06 --seed {s} --out {p['pi0.bin']}",
             [], 1, {"status": "bottom"}),
            (P, f"abe gen --attr-len 4 --seed {s} --out {p['keys.bin']}", ["keys.bin"], 0, {}),
            (P, f"abe keygen --keys {p['keys.bin']} --attr 0111 --out {p['sk.bin']}",
             ["sk.bin"], 0, {}),
            (P, f"abe keygen --keys {p['keys.bin']} --attr 0011 --out {p['sk0.bin']}",
             ["sk0.bin"], 0, {}),
            (P, f"abe enc --keys {p['keys.bin']} --policy-id 1 --m {abe_m} --seed {s} "
                f"--out {p['ct.bin']}", ["ct.bin"], 0, {}),
            (C, f"abe dec --keys {p['keys.bin']} --sk {p['sk.bin']} --ct {p['ct.bin']}", [], 0,
             {"m": abe_m}),
            (C, f"abe dec --keys {p['keys.bin']} --sk {p['sk0.bin']} --ct {p['ct.bin']}", [], 1,
             {"status": "bottom"}),
            (P, f"pe enc --keys {p['keys.bin']} --policy-id 1 --m {pe_m} --seed {s} "
                f"--out {p['pe.bin']}", ["pe.bin"], 0, {}),
            (C, f"pe dec --keys {p['keys.bin']} --sk {p['sk.bin']} --ct {p['pe.bin']}", [], 0,
             {"m": pe_m}),
            (C, f"pe dec --keys {p['keys.bin']} --sk {p['sk0.bin']} --ct {p['pe.bin']}", [], 1,
             {"status": "bottom"}),
            (P, f"share split --lang th23 --parties 3 --secret 1 --seed {s} "
                f"--out {p['shares.bin']} --split-dir {p['parties']}",
             ["shares.bin"] + parties, 0, {}),
            (C, f"share rec --shares {p['shares.bin']} --subset 0,2", [], 0, {"secret": 1}),
            (C, f"share rec --shares {p['shares.bin']} --subset 1", [], 1, {"status": "bottom"}),
            (P, f"cprf gen --seed {s} --out {p['cprf.bin']}", ["cprf.bin"], 0, {}),
            (P, f"cprf constrain --keys {p['cprf.bin']} --policy-id 1 --out {p['ck.bin']}",
             ["ck.bin"], 0, {}),
            (C, f"cprf eval --keys {p['cprf.bin']} --x 00000111", [], 0, {}),
            (C, f"cprf eval --keys {p['cprf.bin']} --x 10111101", [], 0, {}),
            (C, f"cprf ceval --keys {p['cprf.bin']} --ck {p['ck.bin']} --x 00000111", [], 0, {}),
            (C, f"cprf ceval --keys {p['cprf.bin']} --ck {p['ck.bin']} --x 10111101", [], 0, {}),
            (C, f"cprf ceval --keys {p['cprf.bin']} --ck {p['ck.bin']} --x 00000011", [], 1,
             {"status": "bottom"}),
        ]

    def cycle(self, c: int) -> list[Op]:
        golden = None
        if self.golden is not None and c < self.GOLDEN_ROUNDS:
            golden = self.golden[c]
        prf = {}                  # unconstrained PRF values check ceval
        ops = []
        for kind, argv, written, rc_want, fields in self.commands(c):
            args = shlex.split(argv)
            call = (lambda args=args: run_cli(args))
            check = self._checker(argv, written, rc_want, fields, golden, prf)
            label = " ".join(args[:2])
            if kind == "produce":
                ops.append(Op(label, call, None, check))
            else:
                ops.append(Op(label, None, lambda _, call=call: call(), check))
        return ops

    def _checker(self, argv, written, rc_want, fields, golden, prf):
        x = argv.rsplit(" ", 1)[-1]

        def check(result) -> int:
            rc, out = result
            st = _status(out)
            if rc != rc_want or any(st.get(k) != v for k, v in fields.items()):
                return 1
            if argv.startswith("cprf eval"):
                prf[x] = st.get("y")
            elif argv.startswith("cprf ceval") and rc == 0 and st.get("y") != prf.get(x):
                return 1
            if golden is not None:
                for name in written:
                    if golden.get(name) != _digest(self.dir / name):
                        return 1
            return 0
        return check

    def artifact_digests(self, rounds: int) -> list[dict]:
        """Run `rounds` rounds and return the SHA-256 of every artifact."""
        digests = []
        for c in range(rounds):
            round_digests = {}
            for _, argv, written, _, _ in self.commands(c):
                run_cli(shlex.split(argv))
                for name in written:
                    round_digests[name] = _digest(self.dir / name)
            digests.append(round_digests)
        return digests


# ---------------------------------------------------------------------------
# prove: quantum provers, the only workload where the simulator dominates


class Prove:
    name = "prove"
    why = ("Quantum provers: toy_prove on par8 (history states of up to 9 qubits), "
           "nio_eval and nizk_prove with the GHZ witness, null3 rejections; the "
           "one workload where qsim and numpy do most of the work.")
    POOL = 16
    trace_cycles = 40

    def __init__(self, seed: int, workdir: Path):
        rng = _rng(self.name, seed, "setup")
        self.seed = seed
        par8 = qma.fixture("par8")
        # two instances per Hamming weight 1..8 (odd: yes, even: no), each
        # with a key that checks 4 positions
        self.toy = []
        for k in range(self.POOL):
            weight = k % 8 + 1
            claim = cvqc.claim_for(par8, bytes([_with_weight(rng, 8, weight)]))
            pp, r = _keygen_with_checks(claim, rng, cvqc.ToyParams(), 4)
            self.toy.append((claim, pp, r, par8.classify(claim.x) == "yes"))
        ghz = qma.fixture("ghz")
        self.ghz_claim = cvqc.claim_for(ghz, b"\x01")
        self.obf_ghz = nullio.nio_obf(self.ghz_claim, rng.getrandbits(64))
        self.obf_null = nullio.nio_obf(cvqc.claim_for(qma.fixture("null3"), b"\x01"),
                                       rng.getrandbits(64))
        self.crs = proofs.nizk_setup(ghz, rng.getrandbits(64).to_bytes(16, "big"))

    @staticmethod
    def _witness() -> Witness:
        return Witness(qma.ghz_witness(), qma.DEFAULT_WITNESS_COPIES)

    def cycle(self, c: int) -> list[Op]:
        rng = _rng(self.name, self.seed, c)
        ops = []
        for j in range(8):
            claim, pp, r, yes = self.toy[(c * 8 + j) % self.POOL]
            drbg = Drbg(rng.getrandbits(64))
            ops.append(Op("toy_prove",
                          lambda pp=pp, drbg=drbg: cvqc.toy_prove(pp, Witness.empty(), drbg),
                          lambda pi, claim=claim, r=r: cvqc.toy_verify(claim, pi, r),
                          lambda v, yes=yes: int(v != (1 if yes else 0))))
        for obf, want, n in ((self.obf_ghz, 1, 2), (self.obf_null, 0, 1)):
            for _ in range(n):
                drbg = Drbg(rng.getrandbits(64))
                ops.append(Op("nio_eval", None,
                              lambda _, obf=obf, drbg=drbg:
                              nullio.nio_eval(obf, self._witness(), drbg),
                              lambda v, want=want: int(v != want)))
        x = self.ghz_claim.x
        for _ in range(2):
            drbg = Drbg(rng.getrandbits(64))
            ops.append(Op("nizk",
                          lambda drbg=drbg: proofs.nizk_prove(self.crs, self._witness(), x, drbg),
                          lambda pi: proofs.nizk_verify(self.crs, pi, x),
                          lambda v: int(v != 1)))
        return ops


WORKLOADS = {w.name: w for w in (Verify, Attack, Flows, Prove)}
