"""The evaluation plan behind `circuit_ir.evaluate`.

The first `evaluate` of a program builds its plan, one closure per node
reachable from the outputs, and keeps it as `Program.plan`. These tests pin
what the plan must keep from the node-by-node interpreter it replaced: the
same outputs, the same errors, each shared node run once per call, unselected
ITE arms never run, host gates looked up when they run, and a chain too deep
to evaluate reported as such on every call. A node list that breaks the
structural rules has no plan: making its `Program` fails as the decoder
fails its bytes. A plan holds no reference cycle, so it is freed with its
program. Hypothesis runs derandomized with bounded examples, so each run
draws the same cases.
"""
import gc
import hashlib
import sys
import weakref
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qnk.circuit_ir import (
    DEFAULT_REGISTRY,
    OPS,
    Node,
    Program,
    ProgramBuilder,
    evaluate,
    program_from_bytes,
    program_to_bytes,
)
from qnk.errors import DomainMismatch, MalformedCircuit, UnknownGate
from qnk.primitives import _xor, owf

from program_bytes import raw_program, with_fillers

PROPERTY = settings(derandomize=True, max_examples=300, deadline=None, database=None)


def seed_evaluate(p: Program, inputs: list[bytes]) -> list[bytes]:
    """The interpreter `evaluate` used before the plan, verbatim: the
    reference the plan is checked against."""
    if len(inputs) != p.input_arity:
        raise MalformedCircuit(
            f"program takes {p.input_arity} inputs, got {len(inputs)}")
    memo: dict[int, bytes] = {}

    def ev(i: int) -> bytes:
        got = memo.get(i)
        if got is not None:
            return got
        node = p.nodes[i]
        try:
            if node.op == "CONST":
                v = node.value
            elif node.op == "INPUT":
                v = inputs[node.slot]
            elif node.op == "CONCAT":
                v = b"".join(ev(a) for a in node.args)
            elif node.op == "SLICE":
                v = ev(node.args[0])[node.lo:node.hi]
            elif node.op == "XOR":
                a, b = ev(node.args[0]), ev(node.args[1])
                if len(a) != len(b):
                    raise MalformedCircuit("XOR operand lengths differ")
                v = _xor(a, b)
            elif node.op == "EQ":
                v = b"\x01" if ev(node.args[0]) == ev(node.args[1]) else b"\x00"
            elif node.op == "ITE":
                v = ev(node.args[1]) if ev(node.args[0]) == b"\x01" else ev(node.args[2])
            else:
                fn = DEFAULT_REGISTRY.get(node.gate)
                if fn is None:
                    raise UnknownGate(f"host gate {node.gate!r} not registered")
                v = fn(*(tuple(ev(a) for a in node.args) + node.consts))
        except (MalformedCircuit, UnknownGate):
            raise
        except RecursionError:
            raise
        except Exception as e:
            raise MalformedCircuit(f"node {i} ({node.op}) failed: {e}") from e
        memo[i] = v
        return v

    try:
        return [ev(o) for o in p.outputs]
    except RecursionError as e:
        # a chain deeper than the interpreter's stack; ev stays recursive
        raise MalformedCircuit("program too deep to evaluate") from e


class Gates:
    """Test host gates. Each gate node carries its own index as its last
    constant, so `runs` counts the runs of each node."""

    def __init__(self):
        self.runs: Counter = Counter()

    def count(self, *vals: bytes) -> bytes:
        self.runs[vals[-1]] += 1
        # one byte, 0 or 1, so the result also steers ITE and EQ
        return bytes([hashlib.sha256(b"|".join(vals)).digest()[0] & 1])

    def fail(self, *vals: bytes) -> bytes:
        self.runs[vals[-1]] += 1
        raise DomainMismatch(f"gate at {vals[-1].hex()} refused")

    def malformed(self, *vals: bytes) -> bytes:
        self.runs[vals[-1]] += 1
        raise MalformedCircuit("passed through unchanged")

    def registered(self):
        return mock.patch.dict(DEFAULT_REGISTRY, {
            "T_COUNT": self.count, "T_FAIL": self.fail, "T_MALFORMED": self.malformed})


GATE_NAMES = ("T_COUNT", "T_COUNT", "T_FAIL", "T_MALFORMED", "T_UNREGISTERED")
VALUES = (b"\x00", b"\x01", b"", b"ab", b"\x01\x02")


@st.composite
def dags(draw):
    """Well-formed programs of every op, with shared nodes (any argument may
    be any earlier node, and outputs may repeat), dead nodes, padding, and
    host gates that count, raise or are not registered."""
    arity = draw(st.integers(1, 3))
    nodes = []
    for i in range(draw(st.integers(1, 14))):
        op = draw(st.sampled_from(OPS if i else ("CONST", "INPUT")))
        arg = st.integers(0, i - 1)
        if op == "CONST":
            node = Node(op, value=draw(st.sampled_from(VALUES)))
        elif op == "INPUT":
            node = Node(op, slot=draw(st.integers(0, arity - 1)))
        elif op == "CONCAT":
            node = Node(op, tuple(draw(st.lists(arg, min_size=1, max_size=3))))
        elif op == "SLICE":
            lo = draw(st.integers(0, 2))
            node = Node(op, (draw(arg),), lo=lo, hi=draw(st.integers(lo, 3)))
        elif op == "HOSTGATE":
            node = Node(op, tuple(draw(st.lists(arg, max_size=3))),
                        gate=draw(st.sampled_from(GATE_NAMES)), consts=(bytes([i]),))
        else:
            node = Node(op, tuple(draw(arg) for _ in range({"XOR": 2, "EQ": 2, "ITE": 3}[op])))
        nodes.append(node)
    outputs = tuple(draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=3)))
    return with_fillers(Program(tuple(nodes), outputs, arity), draw(st.integers(0, 4)))


def outcome(run, p: Program, inputs: list[bytes]):
    """Outputs, or the raised error's type, message and cause type."""
    try:
        return "ok", run(p, inputs)
    except Exception as e:
        return type(e), str(e), type(e.__cause__)


@PROPERTY
@given(dags(), st.lists(st.lists(st.sampled_from(VALUES), min_size=3, max_size=3),
                        min_size=1, max_size=3))
def test_plan_matches_the_seed_interpreter(p, calls):
    gates = Gates()
    with gates.registered():
        for inputs in calls:
            inputs = inputs[:p.input_arity]
            want = outcome(seed_evaluate, p, inputs)
            seed_runs, gates.runs = gates.runs, Counter()
            assert outcome(evaluate, p, inputs) == want
            # the seed memoizes every node and runs only the selected arm of
            # an ITE, so equal counts mean the same: each gate node at most
            # once per call, and no gate of an arm not taken
            assert gates.runs == seed_runs
            assert set(gates.runs.values()) <= {1}
            gates.runs = Counter()


def counted_program() -> Program:
    """`shared` = COUNT(x) has three readers: the then-arm of an ITE, the
    gate in its else-arm, and an output CONCAT that reads it twice."""
    b = ProgramBuilder(1)
    x = b.input(0)
    shared = b.host("T_COUNT", x, consts=(b"\x01",))
    other = b.host("T_COUNT", shared, consts=(b"\x02",))
    cond = b.eq(x, b.const(b"\x01"))
    return b.build([b.ite(cond, shared, other), b.concat(shared, shared)])


def test_shared_node_runs_once_per_call_and_untaken_arm_never():
    gates = Gates()
    p = counted_program()
    with gates.registered():
        for call in range(1, 4):
            evaluate(p, [b"\x01"])             # then-arm: `other` is not taken
            assert gates.runs == Counter({b"\x01": call})
        evaluate(p, [b"\x00"])                 # else-arm reads `shared` again
        assert gates.runs == Counter({b"\x01": 4, b"\x02": 1})


def test_plan_is_kept_with_the_program_and_out_of_its_bytes():
    b = ProgramBuilder(1)
    p = b.build([b.host("OWF", b.input(0))])
    blob = program_to_bytes(p, p.size)
    assert evaluate(p, [b"q"]) == [owf(b"q")]
    plan = p.plan
    assert evaluate(p, [b"r"]) == [owf(b"r")] and p.plan is plan
    assert program_to_bytes(p, p.size) == blob and p == program_from_bytes(blob)


def test_dropped_plan_is_freed_without_the_cycle_collector():
    """No closure of a plan refers back to it, so a program's plan goes
    when the program does, by reference counting alone."""
    b = ProgramBuilder(1)
    x = b.input(0)
    p = b.build([b.xor(x, x)])                  # a shared node, behind the memo
    assert evaluate(p, [b"a"]) == [b"\x00"]
    refs = [weakref.ref(f) for f in p.plan]
    gc.disable()
    try:
        del p
        assert [r() for r in refs] == [None]
    finally:
        gc.enable()


def chain(depth: int) -> Program:
    b = ProgramBuilder(1)
    v = b.input(0)
    for _ in range(depth):
        v = b.slice(v, 0, 4)
    return b.build([v])


def test_chain_deeper_than_the_stack_fails_on_every_call():
    p = chain(sys.getrecursionlimit() + 50)
    for _ in range(2):
        with pytest.raises(MalformedCircuit, match="^program too deep to evaluate$") as e:
            evaluate(p, [b"abcdef"])
        assert isinstance(e.value.__cause__, RecursionError)
        assert "plan" not in vars(p)            # no half-built plan is kept


def test_chain_inside_the_stack_evaluates():
    p = chain(sys.getrecursionlimit() // 4)
    assert evaluate(p, [b"abcdef"]) == evaluate(p, [b"abcdef"]) == [b"abcd"]


def gate_program(gate: str, n_args: int) -> Program:
    """`gate` over the input and n_args - 1 constants."""
    b = ProgramBuilder(1)
    args = [b.input(0)] + [b.const(bytes([k])) for k in range(1, n_args)]
    return b.build([b.host(gate, *args)])


# host gates take one of two closures: two arguments, or any other count
@pytest.mark.parametrize("n_args", (1, 2, 3))
def test_swapped_gate_is_seen_by_a_built_plan(monkeypatch, n_args):
    monkeypatch.setitem(DEFAULT_REGISTRY, "T_SWAP", lambda *v: b"old")
    p = gate_program("T_SWAP", n_args)
    assert evaluate(p, [b"x"]) == [b"old"]
    monkeypatch.setitem(DEFAULT_REGISTRY, "T_SWAP", lambda *v: b"new:" + b"".join(v))
    assert evaluate(p, [b"x"]) == [b"new:x" + bytes(range(1, n_args))]


@pytest.mark.parametrize("n_args", (1, 2, 3))
def test_unregistered_gate_raises_only_when_it_runs(monkeypatch, n_args):
    late = gate_program("T_LATE", n_args)
    b = ProgramBuilder(1)
    x = b.input(0)
    (gate,) = b.inline(late, [x])
    # an ITE whose taken arm never reaches the gate
    guarded = b.ite(b.eq(x, b.const(b"safe")), b.const(b"skipped"), gate)
    p = b.build([guarded])
    p = program_from_bytes(program_to_bytes(p, p.size))           # decodes
    assert p.plan                                                 # and builds
    assert evaluate(p, [b"safe"]) == [b"skipped"]
    with pytest.raises(UnknownGate, match="'T_LATE' not registered"):
        evaluate(p, [b"other"])
    monkeypatch.setitem(DEFAULT_REGISTRY, "T_LATE", lambda *v: b"".join(v)[::-1])
    assert evaluate(p, [b"other"]) == [(b"other" + bytes(range(1, n_args)))[::-1]]


def test_gate_errors_are_wrapped_with_the_node_and_cause():
    gates = Gates()
    b = ProgramBuilder(1)
    x = b.input(0)
    p = b.build([b.host("T_FAIL", x, consts=(b"\x07",))])
    q = b.build([b.host("T_MALFORMED", x, consts=(b"\x08",))])
    with gates.registered():
        with pytest.raises(MalformedCircuit, match=r"^node 1 \(HOSTGATE\) failed: gate at 07") as e:
            evaluate(p, [b""])
        assert isinstance(e.value.__cause__, DomainMismatch)
        with pytest.raises(MalformedCircuit, match="^passed through unchanged$") as e:
            evaluate(q, [b""])
        assert e.value.__cause__ is None


# (nodes, outputs) of one input that `Program` refuses
MALFORMED = {
    # an XOR with one argument, in the ITE arm a call on b"a" would not take
    "short node in an untaken arm": (
        (Node("INPUT"), Node("CONST", value=b"\x01"), Node("XOR", (0,)),
         Node("ITE", (1, 0, 2))), (3,)),
    "output past the nodes": ((Node("INPUT"),), (1,)),
    "negative output": ((Node("INPUT"),), (-1,)),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_program_is_refused_with_the_decoders_error(case):
    nodes, outputs = MALFORMED[case]
    with pytest.raises(MalformedCircuit) as got:
        Program(nodes, outputs, 1)
    if case == "negative output":  # a u32 output index cannot encode it
        assert str(got.value) == "output -1 out of range"
        return
    with pytest.raises(MalformedCircuit) as want:
        program_from_bytes(raw_program(nodes, outputs, 1))
    assert str(got.value) == str(want.value)
