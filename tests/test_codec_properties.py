"""Property tests for the program codec and the sealed-program header.

`validate`'s structural rules are the decoder's rules: a node list decodes
exactly when `validate` accepts it (host-gate registration aside, which is
checked at evaluation), and every failure is `MalformedCircuit` or
`MalformedCiphertext`. Hypothesis runs derandomized with bounded examples,
so each run draws the same cases.
"""
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from qnk.circuit_ir import (
    MODE_IO,
    MODE_LOCK,
    MODE_VBB,
    OPS,
    Node,
    Program,
    SealedProgram,
    pad,
    program_from_bytes,
    program_to_bytes,
    validate,
)
from qnk.errors import MalformedCiphertext, MalformedCircuit
from qnk.wire import pack_bytes, pack_u32, seal

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)

GATES = ("OWF", "PRF", "PRG", "unregistered")


def structural(p: Program) -> bool:
    """`validate` with every host gate counted as registered."""
    nodes = tuple(replace(n, gate="OWF") if n.op == "HOSTGATE" else n for n in p.nodes)
    try:
        validate(Program(nodes, p.outputs, p.input_arity))
    except MalformedCircuit:
        return False
    return True


@st.composite
def valid_programs(draw):
    arity = draw(st.integers(1, 3))
    nodes = []
    for i in range(draw(st.integers(1, 10))):
        op = draw(st.sampled_from(OPS if i else ("CONST", "INPUT")))
        arg = st.integers(0, i - 1)
        if op == "CONST":
            node = Node(op, value=draw(st.binary(max_size=6)))
        elif op == "INPUT":
            node = Node(op, slot=draw(st.integers(0, arity - 1)))
        elif op == "CONCAT":
            node = Node(op, tuple(draw(st.lists(arg, min_size=1, max_size=3))))
        elif op == "SLICE":
            lo = draw(st.integers(0, 6))
            node = Node(op, (draw(arg),), lo=lo, hi=draw(st.integers(lo, 12)))
        elif op == "HOSTGATE":
            node = Node(op, tuple(draw(st.lists(arg, max_size=2))), gate=draw(st.sampled_from(GATES)),
                        consts=tuple(draw(st.lists(st.binary(max_size=4), max_size=2))))
        else:
            node = Node(op, tuple(draw(arg) for _ in range({"XOR": 2, "EQ": 2, "ITE": 3}[op])))
        nodes.append(node)
    outputs = tuple(draw(st.lists(st.integers(0, len(nodes) - 1), min_size=1, max_size=3)))
    p = Program(tuple(nodes), outputs, arity)
    return pad(p, p.size + draw(st.integers(0, 4)))


@st.composite
def node_lists(draw):
    """Any node shapes, in or out of the structural rules."""
    n = draw(st.integers(0, 6))
    small = st.integers(0, n + 1)
    nodes = tuple(
        Node(draw(st.sampled_from(OPS)), tuple(draw(st.lists(small, max_size=4))),
             slot=draw(st.integers(0, 3)), lo=draw(st.integers(0, 4)), hi=draw(st.integers(0, 4)),
             gate=draw(st.sampled_from(GATES)))
        for _ in range(n))
    return Program(nodes, tuple(draw(st.lists(small, max_size=3))), draw(st.integers(0, 2)))


@PROPERTY
@given(valid_programs())
def test_valid_programs_round_trip(p):
    blob = program_to_bytes(p)
    again = program_from_bytes(blob)
    assert again == p
    assert program_to_bytes(again) == blob


@PROPERTY
@given(node_lists())
def test_decode_accepts_exactly_what_validate_accepts(p):
    blob = program_to_bytes(p)
    if structural(p):
        assert program_from_bytes(blob) == p
    else:
        with pytest.raises(MalformedCircuit) as e:
            program_from_bytes(blob)
        assert type(e.value) is MalformedCircuit


@PROPERTY
@given(valid_programs(), st.data())
def test_damaged_encoding_fails_closed(p, data):
    """A cut, or one byte overwritten, either decodes to a program that
    passes the structural rules or raises one of the two codec errors."""
    blob = program_to_bytes(p)
    at = data.draw(st.integers(0, len(blob) - 1))
    damaged = data.draw(st.sampled_from((
        blob[:at], blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1:])))
    try:
        got = program_from_bytes(damaged)
    except (MalformedCircuit, MalformedCiphertext):
        return
    assert structural(got)


@PROPERTY
@given(valid_programs(), st.sampled_from((MODE_IO, MODE_VBB, MODE_LOCK)))
def test_sealed_program_round_trips(p, mode):
    sealed = SealedProgram(p, mode)
    blob = sealed.to_bytes()
    again = SealedProgram.from_bytes(blob)
    assert (again.mode, again.declared_size) == (mode, p.size)
    assert again.to_bytes() == blob


def sealed_blob(p: Program, mode: bytes = b"IO", declared: int | None = None) -> bytes:
    body = seal(program_to_bytes(p), b"sealed-program")
    return pack_bytes(mode) + pack_u32(p.size if declared is None else declared) + pack_bytes(body)


FOUR_NODES = Program((Node("INPUT"), Node("CONST", value=b"k"), Node("XOR", (0, 1)),
                      Node("SLICE", (2,), lo=0, hi=1)), (3,), 1)


@PROPERTY
@given(st.one_of(st.just(4), st.integers(0, 2 ** 32 - 1)),
       st.one_of(st.sampled_from((b"IO", b"VBB", b"LOCK")), st.binary(max_size=6)))
def test_sealed_header_must_match_program(declared, mode):
    blob = sealed_blob(FOUR_NODES, mode, declared)
    if declared == 4 and mode in (b"IO", b"VBB", b"LOCK"):
        assert SealedProgram.from_bytes(blob).run(b"z") == b"\x11"
    else:
        with pytest.raises(MalformedCircuit):
            SealedProgram.from_bytes(blob)


@pytest.mark.parametrize("mode, declared", [(b"IO", 9999), (b"NOPE", 4)],
                         ids=["declared-size-9999", "mode-NOPE"])
def test_sealed_header_rejected(mode, declared):
    with pytest.raises(MalformedCircuit) as e:
        SealedProgram.from_bytes(sealed_blob(FOUR_NODES, mode, declared))
    assert type(e.value) is MalformedCircuit


# node shapes that `validate` rejects and that once decoded and evaluated
# to b"" (SLICE, CONCAT) or to zero bytes (XOR with three arguments)
SHAPES = {
    "slice-lo-above-hi": (Node("INPUT"), Node("SLICE", (0,), lo=3, hi=1)),
    "concat-no-args": (Node("INPUT"), Node("CONCAT")),
    "xor-three-args": (Node("CONST", value=bytes(8)), Node("XOR", (0, 0, 0))),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_rejected_shape_fails_at_decode(shape):
    p = Program(SHAPES[shape], (1,), 1)
    with pytest.raises(MalformedCircuit):
        validate(p)
    with pytest.raises(MalformedCircuit):
        program_from_bytes(program_to_bytes(p))
    with pytest.raises(MalformedCircuit):
        SealedProgram.from_bytes(sealed_blob(p))
