"""Classical gate-DAG circuit IR with host gates, declared sizes, and
sealed-evaluator obfuscation (functional opacity only).

Programs compute over byte strings. Heavyweight sub-primitives (PRF, WE
encryption, QFHE decryption, CVQC verification, ...) appear as registered
host gates; embedded keys travel as CONST nodes. The first evaluation of a
program builds its plan, one closure per node reachable from the outputs,
and keeps it with the program (`Program.plan`), so a program queried many
times pays for reading its nodes once. Dead padding nodes are never visited,
and ITE runs only its selected branch.

Obfuscation here normalizes size and hides constants behind the evaluator
API. It makes no security claim: all "indistinguishability" content lives in
functional-equivalence checks (equiv_check) and the hybrid chains checked
step by step with them (check_chain).
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

from . import primitives as pr
from .errors import MalformedCircuit, TargetTooSmall, UnknownGate
from .memo import memo
from .primitives import _xor
from .wire import Reader, pack_bytes, pack_u32, seal, unseal

# distinguished "no output" sentinel, distinct from every released payload:
# released values are tagged 0x01 || payload, bottom is the single byte 0x00
BOTTOM = b"\x00"


def wrap_some(payload: bytes) -> bytes:
    return b"\x01" + payload


def unwrap(value: bytes):
    """Tagged value -> payload bytes, or None for the bottom sentinel."""
    if value[:1] == b"\x01":
        return value[1:]
    return None


OPS = ("CONST", "INPUT", "CONCAT", "SLICE", "XOR", "EQ", "ITE", "HOSTGATE")


@dataclass(frozen=True)
class Node:
    op: str
    args: tuple[int, ...] = ()
    value: bytes = b""                 # CONST payload
    slot: int = 0                      # INPUT slot
    lo: int = 0                        # SLICE range [lo, hi)
    hi: int = 0
    gate: str = ""                     # HOSTGATE name
    consts: tuple[bytes, ...] = ()     # HOSTGATE embedded constants


# the node a sealed program's padding decodes to, one shared instance for
# every slot
_FILLER = Node("CONST")


@dataclass(frozen=True)
class Program:
    """A node DAG and its outputs. Construction checks every node against the
    structural rules (`_check_node`) and every output against the node
    count, so a Program that exists obeys them, built or decoded."""
    nodes: tuple[Node, ...]
    outputs: tuple[int, ...]
    input_arity: int

    def __post_init__(self):
        nodes = self.nodes
        tail_tried = False
        for i, node in enumerate(nodes):
            if node is _FILLER:
                # Once per program, at the first filler, test whether every
                # node left is one too (as padding decodes) with one compare.
                if not tail_tried:
                    tail_tried = True
                    if nodes[i:] == (_FILLER,) * (len(nodes) - i):
                        break
                continue
            _check_node(i, node, self.input_arity)
        for o in self.outputs:
            if not 0 <= o < len(nodes):
                raise MalformedCircuit(f"output {o} out of range")

    @property
    def size(self) -> int:
        return len(self.nodes)

    @functools.cached_property
    def plan(self) -> tuple:
        """The output closures `evaluate` runs (see `_plan`), built on first
        use and kept with the program; not part of its bytes or equality."""
        return _plan(self)


class ProgramBuilder:
    def __init__(self, input_arity: int):
        self.input_arity = input_arity
        self.nodes: list[Node] = []

    def _add(self, node: Node) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def const(self, value: bytes) -> int:
        return self._add(Node("CONST", value=value))

    def input(self, slot: int) -> int:
        return self._add(Node("INPUT", slot=slot))

    def concat(self, *args: int) -> int:
        return self._add(Node("CONCAT", args=tuple(args)))

    def slice(self, a: int, lo: int, hi: int) -> int:
        return self._add(Node("SLICE", args=(a,), lo=lo, hi=hi))

    def xor(self, a: int, b: int) -> int:
        return self._add(Node("XOR", args=(a, b)))

    def eq(self, a: int, b: int) -> int:
        return self._add(Node("EQ", args=(a, b)))

    def ite(self, c: int, a: int, b: int) -> int:
        return self._add(Node("ITE", args=(c, a, b)))

    def host(self, gate: str, *args: int, consts: tuple[bytes, ...] = ()) -> int:
        return self._add(Node("HOSTGATE", args=tuple(args), gate=gate, consts=consts))

    def inline(self, sub: "Program", input_ids: list[int]) -> list[int]:
        """Splice another program's nodes in, wiring its INPUT slots to ours."""
        if len(input_ids) != sub.input_arity:
            raise MalformedCircuit("inline input arity mismatch")
        remap: dict[int, int] = {}
        for i, node in enumerate(sub.nodes):
            if node.op == "INPUT":
                remap[i] = input_ids[node.slot]
            else:
                args = tuple(remap[a] for a in node.args)
                remap[i] = self._add(Node(node.op, args, node.value, node.slot,
                                          node.lo, node.hi, node.gate, node.consts))
        return [remap[o] for o in sub.outputs]

    def build(self, outputs: list[int]) -> Program:
        return Program(tuple(self.nodes), tuple(outputs), self.input_arity)


# ---------------------------------------------------------------------------
# host gates

_ARITY = {"CONST": 0, "INPUT": 0, "SLICE": 1, "XOR": 2, "EQ": 2, "ITE": 3}

DEFAULT_REGISTRY: dict[str, object] = {}


def register_gate(name: str, fn) -> None:
    """`fn` receives the node's argument values, then its embedded constants."""
    DEFAULT_REGISTRY[name] = fn


def _register_base_gates():
    def g_prf(key: bytes, x: bytes) -> bytes:
        return pr.prf_eval(pr.PrfKey(key), x)

    def g_ggm(key_blob: bytes, x: bytes) -> bytes:
        k = pr.PrfKey(key_blob[1:], key_blob[0])
        return pr.ggm_eval(k, int.from_bytes(x, "big"))

    def g_ggm_punct(blob: bytes, x: bytes) -> bytes:
        kz = punctured_key_from_bytes(blob)
        return pr.ggm_eval_punct(kz, int.from_bytes(x, "big"))

    def g_prg(seed: bytes, out_len: bytes) -> bytes:
        return pr.prg(seed, int.from_bytes(out_len, "big"))

    register_gate("PRF", g_prf)
    register_gate("GGM_EVAL", g_ggm)
    register_gate("GGM_EVAL_PUNCT", g_ggm_punct)
    register_gate("PRG", g_prg)
    register_gate("OWF", pr.owf)


def ggm_key_blob(k) -> bytes:
    """GGM key as a host-gate constant: domain byte then key bytes."""
    return bytes([k.domain_bits]) + k.bytes


def punctured_key_to_bytes(kz) -> bytes:
    out = bytes([kz.domain_bits]) + kz.point.to_bytes(4, "big") + bytes([len(kz.path_keys)])
    for level, sub in kz.path_keys:
        out += bytes([level]) + sub
    return out


def punctured_key_from_bytes(blob: bytes):
    """Inverse of `punctured_key_to_bytes`; a short or overlong blob raises
    MalformedCiphertext."""
    r = Reader(blob)
    domain, point = r.take(1)[0], int.from_bytes(r.take(4), "big")
    path = tuple((r.take(1)[0], r.take(pr.KEY_LEN)) for _ in range(r.take(1)[0]))
    r.end()
    return pr.PuncturedKey(path, point, domain)


def ggm_node(b: ProgramBuilder, key: pr.PrfKey | pr.PuncturedKey, x: int) -> int:
    """F(key, x) on node x, for a GGM key (GGM_EVAL) or a punctured one
    (GGM_EVAL_PUNCT), with the key as a CONST."""
    if isinstance(key, pr.PuncturedKey):
        return b.host("GGM_EVAL_PUNCT", b.const(punctured_key_to_bytes(key)), x)
    return b.host("GGM_EVAL", b.const(ggm_key_blob(key)), x)


def prf_encryptor(gate: str, cfg: bytes, m_key: pr.PrfKey | pr.PuncturedKey,
                  coin_key: pr.PrfKey | pr.PuncturedKey,
                  star: tuple[bytes, bytes, bytes] | None) -> Program:
    """x -> gate(x, F(m_key, x), F(coin_key, x)) with host constant cfg: the
    NIZK encryptor (WE_ENC) and the constrained-PRF pp circuit (ABE_ENC).
    Their hybrids puncture the keys and pass star = (x_star, m, coins), which
    hardwires x_star's encryption; the real programs pass None."""
    b = ProgramBuilder(1)
    x = b.input(0)
    if star is not None:
        ct_star = b.host(gate, *map(b.const, star), consts=(cfg,))
    ct = b.host(gate, x, ggm_node(b, m_key, x), ggm_node(b, coin_key, x), consts=(cfg,))
    if star is not None:
        ct = b.ite(b.eq(x, b.const(star[0])), ct_star, ct)
    return b.build([ct])


# ---------------------------------------------------------------------------
# structural rules / evaluation


def _check_node(i: int, node: Node, input_arity: int) -> None:
    """The structural rules for node `i`, checked by `Program` alone. Each
    argument comes before its node, so a program has no cycle."""
    op = node.op
    if op not in OPS:
        raise MalformedCircuit(f"node {i}: unknown op {op!r}")
    for a in node.args:
        if not 0 <= a < i:
            raise MalformedCircuit(f"node {i}: argument {a} not before node")
    if op in _ARITY and len(node.args) != _ARITY[op]:
        raise MalformedCircuit(f"node {i}: {op} wants {_ARITY[op]} args")
    if op == "CONCAT" and not node.args:
        raise MalformedCircuit(f"node {i}: CONCAT needs at least one argument")
    if op == "INPUT" and not 0 <= node.slot < input_arity:
        raise MalformedCircuit(f"node {i}: input slot {node.slot} out of range")
    if op == "SLICE" and not 0 <= node.lo <= node.hi:
        raise MalformedCircuit(f"node {i}: bad slice range")


def evaluate(p: Program, inputs: list[bytes]) -> list[bytes]:
    """Run the program's evaluation plan (`Program.plan`, which the first
    call builds; see `_plan`) on `inputs`; deterministic given gate
    determinism. A node that raises anything but MalformedCircuit,
    UnknownGate or RecursionError fails as MalformedCircuit("node i (op)
    failed: ...") caused by it."""
    if len(inputs) != p.input_arity:
        raise MalformedCircuit(
            f"program takes {p.input_arity} inputs, got {len(inputs)}")
    try:
        plan = p.plan
        if len(plan) == 1:  # the common case, without a comprehension frame
            return [plan[0](inputs, {})]
        m: dict[int, bytes] = {}
        return [f(inputs, m) for f in plan]
    except RecursionError as e:
        # a chain deeper than the interpreter's stack: building and running
        # the plan both recurse
        raise MalformedCircuit("program too deep to evaluate") from e


_PASS = (MalformedCircuit, UnknownGate, RecursionError)


def _failed(e: Exception, i: int, op: str) -> Exception:
    """What node `i` raises when evaluating it raised `e`: `e` itself if it
    is one of _PASS, else a MalformedCircuit caused by it."""
    if isinstance(e, _PASS):
        return e
    err = MalformedCircuit(f"node {i} ({op}) failed: {e}")
    err.__cause__ = e
    return err


def _memoized(i: int, g):
    """Node i's closure `g` behind the call's memo, for a node read twice."""
    def memo_g(x, m):
        v = m.get(i)
        if v is None:
            v = m[i] = g(x, m)
        return v
    return memo_g


def _count_reads(i: int, p: Program, reads: dict, order: list) -> None:
    """Walk from node i: count each reachable node's readers into `reads`
    and append it to `order` after its arguments."""
    if i in reads:
        reads[i] += 1
        return
    reads[i] = 1
    for a in p.nodes[i].args:
        _count_reads(a, p, reads, order)
    order.append(i)


def _plan(p: Program) -> tuple:
    """The output closures of `p`'s evaluation plan.

    A walk from the outputs counts the readers of each reachable node, so
    dead padding is never visited. Then each of those nodes, arguments first,
    becomes one closure f(x, m) over the call's inputs x and memo m. It binds
    its children's closures and its own constants as defaults, which cost
    less to bind than closure cells, and runs behind the call's memo only if
    it has two or more readers. Counting first is what lets a closure hold
    its children directly: no closure refers back to the plan, so a dropped
    program's plan is freed by reference counting, not left to the cycle
    collector.

    ITE runs only its selected arm. A host gate is looked up in
    DEFAULT_REGISTRY when it runs: a swapped entry is seen, and an
    unregistered gate raises only if it is reached. The plan trusts the
    structural rules that `Program` enforces: an INPUT slot is below the
    arity `evaluate` checks, and EQ and ITE only compare values their
    children computed, so those three closures catch nothing."""
    nodes, reads, order = p.nodes, {}, []
    for o in p.outputs:
        _count_reads(o, p, reads, order)
    f: dict = {}
    for i in order:
        node = nodes[i]
        args = node.args
        op = node.op
        if op == "CONST":
            g = lambda x, m, v=node.value: v
        elif op == "INPUT":
            g = lambda x, m, s=node.slot: x[s]
        elif op == "CONCAT":
            def g(x, m, fs=tuple([f[a] for a in args]), i=i):
                try:
                    return b"".join([h(x, m) for h in fs])
                except Exception as e:
                    raise _failed(e, i, "CONCAT")
        elif op == "SLICE":
            def g(x, m, a=f[args[0]], lo=node.lo, hi=node.hi, i=i):
                try:
                    return a(x, m)[lo:hi]
                except Exception as e:
                    raise _failed(e, i, "SLICE")
        elif op == "XOR":
            def g(x, m, a=f[args[0]], b=f[args[1]], i=i):
                try:
                    u, v = a(x, m), b(x, m)
                    if len(u) != len(v):
                        raise MalformedCircuit("XOR operand lengths differ")
                    return _xor(u, v)
                except Exception as e:
                    raise _failed(e, i, "XOR")
        elif op == "EQ":
            def g(x, m, a=f[args[0]], b=f[args[1]]):
                return b"\x01" if a(x, m) == b(x, m) else b"\x00"
        elif op == "ITE":
            def g(x, m, c=f[args[0]], a=f[args[1]], b=f[args[2]]):
                return a(x, m) if c(x, m) == b"\x01" else b(x, m)
        elif len(args) == 2:  # most host gates: their arguments without a list
            def g(x, m, gate=node.gate, a=f[args[0]], b=f[args[1]], consts=node.consts,
                  i=i, op=op):
                fn = DEFAULT_REGISTRY.get(gate)
                if fn is None:
                    raise UnknownGate(f"host gate {gate!r} not registered")
                try:
                    return fn(a(x, m), b(x, m), *consts)
                except Exception as e:
                    raise _failed(e, i, op)
        else:  # HOSTGATE
            def g(x, m, gate=node.gate, fs=tuple([f[a] for a in args]), consts=node.consts,
                  i=i, op=op):
                fn = DEFAULT_REGISTRY.get(gate)
                if fn is None:
                    raise UnknownGate(f"host gate {gate!r} not registered")
                try:
                    return fn(*[h(x, m) for h in fs], *consts)
                except Exception as e:
                    raise _failed(e, i, op)
        f[i] = g if reads[i] == 1 else _memoized(i, g)
    return tuple([f[o] for o in p.outputs])


# ---------------------------------------------------------------------------
# sealed evaluators

MODE_IO = "IO"
MODE_VBB = "VBB"
MODE_LOCK = "LOCK"
_MODES = {m.encode(): m for m in (MODE_IO, MODE_VBB, MODE_LOCK)}


class SealedProgram:
    """Opaque evaluator over a program padded to `declared_size` nodes. The
    padding is that number alone until `to_bytes` writes it as filler nodes.
    The public surface is evaluation plus (declared_size, mode); embedded
    constants have no accessor and serialize sealed."""

    def __init__(self, program: Program, mode: str, declared_size: int):
        if declared_size < program.size:
            raise TargetTooSmall(f"target {declared_size} below program size {program.size}")
        self.__program = program
        self.__size = declared_size
        self.__mode = mode
        self.__blob = None

    @property
    def declared_size(self) -> int:
        return self.__size

    @property
    def mode(self) -> str:
        return self.__mode

    def run(self, *inputs: bytes) -> bytes:
        return evaluate(self.__program, list(inputs))[0]

    def to_bytes(self) -> bytes:
        """mode (field) | declared_size (u32) | sealed program (field),
        encoded once per object. Bytes that `from_bytes` accepts prime its
        memo with this object, so this process never decodes them."""
        if self.__blob is None:
            sealed = seal(_program_bytes(self.__program, self.__size), b"sealed-program")
            mode = self.__mode.encode()
            blob = _Encoded(pack_bytes(mode) + pack_u32(self.__size) + pack_bytes(sealed))
            if mode in _MODES:
                blob.sealed = self
                _decode_sealed(blob)
                del blob.sealed  # the memo keeps this object, the bytes no cycle
            self.__blob = blob
        return self.__blob

    @classmethod
    def from_bytes(cls, blob: bytes) -> "SealedProgram":
        return _decode_sealed(blob)


class _Encoded(bytes):
    """The bytes `SealedProgram.to_bytes` returns, equal to and hashed as
    plain bytes. In the one call that primes `_decode_sealed` they carry the
    object they encode (`sealed`), so the memo keeps it under the key that a
    later decode of equal bytes looks up."""


@memo(8)
def _decode_sealed(blob: bytes) -> SealedProgram:
    """The one decoder of sealed programs, so a blob is decoded once across
    all callers (a kp mpk is about 117 KB decoded), and not at all after this
    process encoded it."""
    primed = getattr(blob, "sealed", None)
    if primed is not None:
        return primed
    r = Reader(blob)
    mode, declared, sealed = r.field(), r.u32(), r.field()
    if not r.done():
        raise MalformedCircuit("trailing bytes after sealed program")
    if mode not in _MODES:
        raise MalformedCircuit(f"unknown sealed program mode {mode!r}")
    program = program_from_bytes(unseal(sealed))
    if declared != program.size:
        raise MalformedCircuit(
            f"declared size {declared}, program has {program.size} nodes")
    return SealedProgram(program, _MODES[mode], declared)


def obf_io(p: Program, target: int) -> SealedProgram:
    return SealedProgram(p, MODE_IO, target)


class SimHandle:
    """Black-box simulator handle: answers queries to the plain program and
    reveals only the declared size as metadata."""

    def __init__(self, program: Program, declared_size: int):
        self.__program = program
        self.declared_size = declared_size
        self.query_count = 0

    def query(self, *inputs: bytes) -> bytes:
        self.query_count += 1
        return evaluate(self.__program, list(inputs))[0]


def obf_vbb(p: Program, target: int) -> tuple[SealedProgram, SimHandle]:
    return SealedProgram(p, MODE_VBB, target), SimHandle(p, target)


# ---------------------------------------------------------------------------
# lockable obfuscation: release z exactly when C(x) = u

_LOCK_BASE_NODES = 6


def lock_pad_target(size_c: int, size_z: int) -> int:
    return _LOCK_BASE_NODES + size_c + (size_z + 15) // 16


def lockobf(lock: bytes, payload: bytes, inner: Program) -> SealedProgram:
    """Release `payload` (z) on the inputs where the one-input program
    `inner` (C) outputs the 16-byte `lock` (u), and bottom elsewhere."""
    if len(lock) != 16:
        raise MalformedCircuit("lock value must be 16 bytes")
    target = lock_pad_target(inner.size, len(payload))
    b = ProgramBuilder(1)
    (cx,) = b.inline(inner, [b.input(0)])
    u = b.const(lock)
    hit = b.eq(cx, u)
    z = b.const(wrap_some(payload))
    bot = b.const(BOTTOM)
    return SealedProgram(b.build([b.ite(hit, z, bot)]), MODE_LOCK, target)


def lockobf_sim(size_c: int, size_z: int) -> SealedProgram:
    """Input-independent bottom program with the same declared size."""
    b = ProgramBuilder(1)
    b.input(0)
    return SealedProgram(b.build([b.const(BOTTOM)]), MODE_LOCK, lock_pad_target(size_c, size_z))


# ---------------------------------------------------------------------------
# functional-equivalence checking and hybrid chains (the test oracle behind
# every "functionally equivalent, hence indistinguishable" step)


def equiv_check(p1: Program, p2: Program, points: tuple[tuple[bytes, ...], ...]) -> bool:
    """True iff both programs give the same outputs on every point, each
    point a tuple holding one byte string per program input."""
    for point in points:
        if evaluate(p1, list(point)) != evaluate(p2, list(point)):
            return False
    return True


# The relation a hybrid step claims between two consecutive variants. EQUAL:
# the same outputs on every domain point, so iO makes them indistinguishable.
# OFF_POINT: the same outputs on every point whose first input is not the
# challenge point or index; what changes there rests on the step's own
# argument (a punctured key, a fresh value, a negligible event).
EQUAL = "equal"
OFF_POINT = "off-point"


def check_chain(fam: dict[str, Program], steps: tuple[tuple[str, str, str], ...],
                points: tuple[tuple[bytes, ...], ...], star: bytes) -> str | None:
    """The first step "A->B" of a hybrid chain whose relation fails on
    `points`, or None when every step holds. `steps` lists (A, B, relation)
    in chain order, `star` is the first input OFF_POINT steps leave out."""
    domain = {EQUAL: points, OFF_POINT: tuple(pt for pt in points if pt[0] != star)}
    for a, b, relation in steps:
        if not equiv_check(fam[a], fam[b], domain[relation]):
            return f"{a}->{b}"
    return None


def chain_budget(fam: dict[str, Program], steps: tuple[tuple[str, str, str], ...]) -> int:
    """The pad budget of a hybrid chain: the size of its largest variant."""
    return max(fam[name].size for step in steps for name in step[:2])


# ---------------------------------------------------------------------------
# program serialization (versioned binary, documented in FORMATS.md)

_OP_TAGS = {op: i for i, op in enumerate(OPS)}
_TAG_OPS = {i: op for op, i in _OP_TAGS.items()}


def _pack_node(out: bytearray, node: Node) -> bytearray:
    out += bytes([_OP_TAGS[node.op]])
    out += pack_u32(len(node.args))
    for a in node.args:
        out += pack_u32(a)
    out += pack_bytes(node.value)
    out += pack_u32(node.slot)
    out += pack_u32(node.lo)
    out += pack_u32(node.hi)
    out += pack_bytes(node.gate.encode())
    out += pack_u32(len(node.consts))
    for c in node.consts:
        out += pack_bytes(c)
    return out


# 29 zero bytes: tag 0 (CONST), then zero arg count, value length, slot, lo,
# hi, gate-name length and const count
_FILLER_BYTES = bytes(_pack_node(bytearray(), _FILLER))


def program_to_bytes(p: Program) -> bytes:
    return _program_bytes(p, p.size)


def _program_bytes(p: Program, size: int) -> bytes:
    """The encoding of `p` padded to `size` nodes: filler nodes between its
    own and the output list."""
    out = bytearray(b"\x01")  # format version
    out += pack_u32(p.input_arity)
    out += pack_u32(size)
    for node in p.nodes:
        _pack_node(out, node)
    out += _FILLER_BYTES * (size - p.size)
    out += pack_u32(len(p.outputs))
    for o in p.outputs:
        out += pack_u32(o)
    return bytes(out)


def program_from_bytes(blob: bytes) -> Program:
    r = Reader(blob)
    if r.take(1) != b"\x01":
        raise MalformedCircuit("unknown program format version")
    input_arity = r.u32()
    nodes = []
    count = r.u32()
    tail_tried = False
    # one try around the loop, not one per node
    try:
        for i in range(count):
            if r.skip(_FILLER_BYTES):
                nodes.append(_FILLER)
                rest = count - 1 - i
                # Once per decode, at the first filler, test whether every node
                # left is one too (as padding is written) with one compare. The
                # run is built only if the blob still holds its bytes, so a
                # hostile count allocates no more than the blob's length.
                if not tail_tried and rest * len(_FILLER_BYTES) <= len(blob) - r.pos:
                    tail_tried = True
                    if r.skip(_FILLER_BYTES * rest):
                        nodes += [_FILLER] * rest
                        break
                continue
            op = _TAG_OPS[r.take(1)[0]]
            args = tuple(r.u32() for _ in range(r.u32()))
            value = r.field()
            slot = r.u32()
            lo = r.u32()
            hi = r.u32()
            gate = r.field().decode()
            consts = tuple(r.field() for _ in range(r.u32()))
            nodes.append(Node(op, args, value, slot, lo, hi, gate, consts))
    except KeyError as e:
        raise MalformedCircuit(f"unknown op tag {e.args[0]:#04x}") from e
    except UnicodeDecodeError as e:
        raise MalformedCircuit("host gate name is not UTF-8") from e
    # `Program` checks the nodes and outputs before the trailing bytes
    p = Program(tuple(nodes), tuple(r.u32() for _ in range(r.u32())), input_arity)
    if not r.done():
        raise MalformedCircuit("trailing bytes after program")
    return p


_register_base_gates()
