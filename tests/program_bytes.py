"""Raw program encodings for hostile-input tests.

A `Program` checks the structural rules when it is made, so a node list
that breaks them has no `Program` to encode. `raw_program` writes any node
list in the program binary format (FORMATS.md) with the codec's own node
packer, `raw_sealed` wraps program bytes in a sealed-program header, and
`with_fillers` appends the dead nodes a sealed program's padding decodes to.
"""
from qnk.circuit_ir import Node, Program, _pack_node
from qnk.wire import pack_bytes, pack_u32, seal


def raw_program(nodes, outputs, input_arity: int) -> bytes:
    out = bytearray(b"\x01") + pack_u32(input_arity) + pack_u32(len(nodes))
    for node in nodes:
        _pack_node(out, node)
    out += pack_u32(len(outputs))
    for o in outputs:
        out += pack_u32(o)
    return bytes(out)


def raw_sealed(program: bytes, declared: int, mode: bytes = b"IO") -> bytes:
    """`SealedProgram.to_bytes`'s layout around any program bytes and header."""
    return pack_bytes(mode) + pack_u32(declared) + pack_bytes(seal(program, b"sealed-program"))


def with_fillers(p: Program, n: int) -> Program:
    """`p` with `n` empty CONST nodes after its own, as `program_from_bytes`
    reads a sealed program padded by `n`."""
    return Program(p.nodes + (Node("CONST"),) * n, p.outputs, p.input_arity)
