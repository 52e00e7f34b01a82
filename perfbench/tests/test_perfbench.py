"""Tests for the benchmark's own code.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import hmac
import inspect
import shutil
import sys
import tempfile
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from qnk import circuit_ir, cvqc, nullio, primitives, rand  # noqa: E402


@pytest.fixture
def workdir():
    out = BENCH.parent / ".perfbench_out"
    out.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="test-", dir=out))
    yield path
    shutil.rmtree(path)


def _inputs(name: str, seed: int, workdir: Path):
    """Everything a workload hands the program for set-up and cycle 1."""
    wl = workloads.WORKLOADS[name](seed, workdir)
    if name == "verify":
        rng = workloads._rng(name, seed, 1)
        return wl.claim, wl.td.r, wl.sim_spec, [wl._batch(rng) for _ in range(5)]
    if name == "attack":
        return {k: [(c, r, p) for c, r, p in pool] for k, pool in wl.pools.items()}
    if name == "flows":
        return [argv for _, argv, _, _, _ in wl.commands(1)]
    return [(c, r) for c, _, r, _ in wl.toy], wl.obf_ghz.to_bytes(), wl.crs.digest()


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_seed_determines_inputs(name, workdir):
    assert _inputs(name, 3, workdir) == _inputs(name, 3, workdir)
    assert _inputs(name, 3, workdir) != _inputs(name, 4, workdir)


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_of_nested_spans():
    # A(cvqc) [0, 10] holds B(wire) [1, 5], which holds C(wire) [2, 4];
    # then D(qsim) [6, 9]. C fails and B lets the error through to A.
    t = tracing.Tracer(clock=FakeClock([0, 1, 2, 4, 5, 6, 9, 10]))
    t.op = 7
    t.enter("cvqc", "A")
    t.enter("wire", "B")
    t.enter("wire", "C")
    assert [f[4] for f in t.stack] == [7, 7, 7]  # spans carry their operation
    t.exit(error=True)
    t.exit(error=True)
    t.enter("qsim", "D")
    t.exit()
    t.exit()
    assert t.self_s["cvqc"] == 10 - 4 - 3
    assert t.self_s["wire"] == (4 - 2) + (2 - 0)
    assert t.self_s["qsim"] == 3
    assert t.calls == {"cvqc": 1, "wire": 2, "qsim": 1}
    assert t.errors == {"wire": 1}              # counted once, where it left wire
    assert not t.stack


def _snapshot():
    """Every attribute install() may replace, by identity."""
    snap = {}
    for name, mod in list(sys.modules.items()):
        if mod is not None and (name == "qnk" or name.startswith("qnk.")):
            for attr, val in vars(mod).items():
                snap[(name, attr)] = val
                if inspect.isclass(val):
                    for member, obj in vars(val).items():
                        snap[(name, attr, member)] = obj
    snap["registry"] = dict(circuit_ir.DEFAULT_REGISTRY)
    snap["hmac.new"] = hmac.new
    return snap


def test_uninstall_restores_originals(workdir):
    before = _snapshot()
    t = tracing.Tracer()
    undo = tracing.install(t)
    try:
        assert cvqc.star_verify is not before[("qnk.cvqc", "star_verify")]
        # a name bound with `from .cvqc import star_prove` is re-bound too
        assert nullio.star_prove is cvqc.star_prove
        assert rand.Drbg.bytes is not before[("qnk.rand", "Drbg", "bytes")]
        assert hmac.new is not before["hmac.new"]
    finally:
        tracing.uninstall(undo)
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before if k != "registry")
    assert all(after["registry"][g] is f for g, f in before["registry"].items())
    calls = sum(t.calls.values())
    wl = workloads.Verify(1, workdir)
    s = run.Samples()
    run.run_cycle(wl, 1, s)
    assert s.failed == 0
    assert sum(t.calls.values()) == calls and not t.stack


def _counts(metrics):
    return {k: v for k, (v, unit) in metrics.items() if unit != "s" and unit != "ratio"
            or k.endswith("_ratio")}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_counts_repeat(name, workdir):
    results = []
    for _ in range(2):
        wl = workloads.WORKLOADS[name](5, workdir)
        wl.trace_cycles = 1
        s, metrics = run.traced(wl)
        assert s.failed == 0
        results.append(_counts(metrics))
    assert results[0] == results[1]
    assert results[0][f"{'cli' if name == 'flows' else 'cvqc'}.calls"] > 0


def test_nested_calls_count_once():
    from qnk import qsim
    from qnk.qma import Witness, fixture
    from qnk.rand import Drbg
    claim = cvqc.claim_for(fixture("par4"), b"\x07")
    setup = cvqc.td_gen(claim, cvqc.PROTO_TOY, Drbg(1))
    proof = cvqc.star_prove(setup.pp, Witness.empty(), setup.oracle, Drbg(2))
    circuit = fixture("par4").verifier(b"\x07")
    t = tracing.Tracer()
    undo = tracing.install(t)
    try:
        assert cvqc.star_verify(claim, proof, setup.r, setup.oracle) == 1
        qsim.run_circuit(circuit, [])           # runs run_unitary inside
        qsim.run_circuit(circuit, [])
    finally:
        tracing.uninstall(undo)
    m = tracing.layer_metrics(t)
    assert m["cvqc.verify_calls"][0] == 1      # not base_verify and toy_verify too
    assert m["qsim.run_circuit_calls"][0] == 2
    assert m["qsim.distinct_sim_ratio"][0] == 0.5


def test_ro_hits_are_counted(workdir):
    oracle = primitives.RandomOracle(b"k" * 16)
    t = tracing.Tracer()
    undo = tracing.install(t)
    try:
        for x in (b"a", b"b", b"a"):
            primitives.ro_query(oracle, x)
    finally:
        tracing.uninstall(undo)
    m = tracing.layer_metrics(t)
    assert m["primitives.ro_queries"][0] == 3
    assert m["primitives.ro_hit_ratio"][0] == pytest.approx(1 / 3)
    assert m["primitives.ro_table_entries"][0] == 2


@pytest.mark.parametrize("golden_present", [True, False])
def test_flows_golden_digests(golden_present, workdir, monkeypatch):
    if not golden_present:
        monkeypatch.setattr(workloads, "GOLDEN_PATH", workdir / "missing.json")
    wl = workloads.Flows(workloads.DEFAULT_SEED, workdir)
    s = run.Samples()
    run.run_cycle(wl, 0, s)
    produced = sum(1 for _, _, written, _, _ in wl.commands(0) if written)
    assert s.failed == (0 if golden_present else produced)
