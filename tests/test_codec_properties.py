"""Property tests for the program codec and the sealed-program header.

The decoder's structural rules are `Program`'s: a node list decodes exactly
when `Program` construction accepts it (host-gate registration is checked
at evaluation), and every failure is `MalformedCircuit` or
`MalformedCiphertext`. Hostile node lists are encoded raw, since no
`Program` holds them. Hypothesis runs derandomized with bounded examples,
so each run draws the same cases.
"""
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
    _decode_sealed,
    program_from_bytes,
    program_to_bytes,
)
from qnk.errors import MalformedCiphertext, MalformedCircuit
from qnk.wire import Reader, unseal

from program_bytes import raw_program, raw_sealed, with_fillers

PROPERTY = settings(derandomize=True, max_examples=150, deadline=None, database=None)

GATES = ("OWF", "PRF", "PRG", "unregistered")


def structural(nodes, outputs, input_arity) -> bool:
    """Whether `Program` construction accepts the node list."""
    try:
        Program(nodes, outputs, input_arity)
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
    return with_fillers(Program(tuple(nodes), outputs, arity), draw(st.integers(0, 4)))


@st.composite
def node_lists(draw):
    """(nodes, outputs, input arity) of any node shapes, in or out of the
    structural rules."""
    n = draw(st.integers(0, 6))
    small = st.integers(0, n + 1)
    nodes = tuple(
        Node(draw(st.sampled_from(OPS)), tuple(draw(st.lists(small, max_size=4))),
             slot=draw(st.integers(0, 3)), lo=draw(st.integers(0, 4)), hi=draw(st.integers(0, 4)),
             gate=draw(st.sampled_from(GATES)))
        for _ in range(n))
    return nodes, tuple(draw(st.lists(small, max_size=3))), draw(st.integers(0, 2))


@PROPERTY
@given(valid_programs())
def test_valid_programs_round_trip(p):
    blob = program_to_bytes(p, p.size)
    again = program_from_bytes(blob)
    assert again == p
    assert program_to_bytes(again, again.size) == blob


@PROPERTY
@given(node_lists())
def test_decode_accepts_exactly_what_program_accepts(node_list):
    blob = raw_program(*node_list)
    if structural(*node_list):
        p = Program(*node_list)
        assert program_from_bytes(blob) == p
        assert program_to_bytes(p, p.size) == blob
    else:
        with pytest.raises(MalformedCircuit) as e:
            program_from_bytes(blob)
        assert type(e.value) is MalformedCircuit


@PROPERTY
@given(valid_programs(), st.data())
def test_damaged_encoding_fails_closed(p, data):
    """A cut, or one byte overwritten, either decodes to a program that
    passes the structural rules or raises one of the two codec errors."""
    blob = program_to_bytes(p, p.size)
    at = data.draw(st.integers(0, len(blob) - 1))
    damaged = data.draw(st.sampled_from((
        blob[:at], blob[:at] + bytes([data.draw(st.integers(0, 255))]) + blob[at + 1:])))
    try:
        got = program_from_bytes(damaged)
    except (MalformedCircuit, MalformedCiphertext):
        return
    assert structural(got.nodes, got.outputs, got.input_arity)


@PROPERTY
@given(valid_programs(), st.integers(0, 4), st.sampled_from((MODE_IO, MODE_VBB, MODE_LOCK)))
def test_sealed_program_round_trips(p, fill, mode):
    """The declared padding is written as `fill` filler nodes: the bytes of
    the program with those nodes appended."""
    sealed = SealedProgram(p, mode, p.size + fill)
    blob = sealed.to_bytes()
    r = Reader(blob)
    assert (r.field(), r.u32()) == (mode.encode(), p.size + fill)
    padded = with_fillers(p, fill)
    assert unseal(r.field()) == program_to_bytes(padded, padded.size)
    _decode_sealed.cache_clear()  # drop the entry `to_bytes` primed, so this decodes
    again = SealedProgram.from_bytes(blob)
    assert again is not sealed
    assert (again.mode, again.declared_size) == (mode, p.size + fill)
    assert again.to_bytes() == blob


def outcome(sealed: SealedProgram, inputs):
    try:
        return sealed.run(*inputs)
    except Exception as e:  # whatever evaluation raises, both sides must agree
        return type(e), e.args


@PROPERTY
@given(valid_programs(), st.integers(0, 4), st.sampled_from((MODE_IO, MODE_VBB, MODE_LOCK)),
       st.lists(st.lists(st.binary(max_size=6), max_size=4), min_size=1, max_size=4))
def test_primed_decode_matches_cold_decode(p, fill, mode, queries):
    """`to_bytes` primes the decode memo with its own object; a decode of the
    same bytes after the memo is emptied must behave the same."""
    primed = SealedProgram(p, mode, p.size + fill)
    _decode_sealed.cache_clear()  # so no earlier example's equal blob answers
    blob = primed.to_bytes()
    assert SealedProgram.from_bytes(blob) is primed
    _decode_sealed.cache_clear()
    cold = SealedProgram.from_bytes(blob)
    assert cold is not primed
    assert (primed.declared_size, primed.mode) == (cold.declared_size, cold.mode)
    assert primed.to_bytes() == cold.to_bytes() == blob
    for inputs in queries:
        assert outcome(primed, inputs) == outcome(cold, inputs)


def test_unknown_mode_still_fails_to_decode():
    blob = SealedProgram(FOUR_NODES, "XX", 4).to_bytes()
    with pytest.raises(MalformedCircuit):
        SealedProgram.from_bytes(blob)


def sealed_blob(p: Program, mode: bytes = b"IO", declared: int | None = None) -> bytes:
    return raw_sealed(program_to_bytes(p, p.size), p.size if declared is None else declared, mode)


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


# node shapes that `Program` rejects and that once decoded and evaluated
# to b"" (SLICE, CONCAT) or to zero bytes (XOR with three arguments)
SHAPES = {
    "slice-lo-above-hi": (Node("INPUT"), Node("SLICE", (0,), lo=3, hi=1)),
    "concat-no-args": (Node("INPUT"), Node("CONCAT")),
    "xor-three-args": (Node("CONST", value=bytes(8)), Node("XOR", (0, 0, 0))),
}


@pytest.mark.parametrize("shape", SHAPES)
def test_rejected_shape_fails_at_decode(shape):
    with pytest.raises(MalformedCircuit):
        Program(SHAPES[shape], (1,), 1)
    blob = raw_program(SHAPES[shape], (1,), 1)
    with pytest.raises(MalformedCircuit):
        program_from_bytes(blob)
    with pytest.raises(MalformedCircuit):
        SealedProgram.from_bytes(raw_sealed(blob, 2))
