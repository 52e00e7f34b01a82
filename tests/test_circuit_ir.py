import time
import tracemalloc

import pytest

from qnk.circuit_ir import (
    BOTTOM,
    MODE_IO,
    MODE_VBB,
    Node,
    Program,
    ProgramBuilder,
    SealedProgram,
    equiv_check,
    evaluate,
    lock_pad_target,
    lockobf,
    lockobf_sim,
    obf_io,
    obf_vbb,
    program_from_bytes,
    program_to_bytes,
    punctured_key_from_bytes,
    punctured_key_to_bytes,
    unwrap,
    wrap_some,
)
from qnk.errors import (
    MalformedCiphertext,
    MalformedCircuit,
    QnkError,
    TargetTooSmall,
    UnknownGate,
)
from qnk.primitives import owf
from qnk.rand import Drbg
from qnk.wire import Reader, pack_bytes, pack_u32, unseal

from program_bytes import raw_program, raw_sealed, with_fillers


def identity_program():
    b = ProgramBuilder(1)
    return b.build([b.input(0)])


def sealed_body(sealed: SealedProgram) -> bytes:
    """The program bytes inside a sealed program's encoding."""
    r = Reader(sealed.to_bytes())
    r.field(), r.u32()
    return unseal(r.field())


class TestValidate:
    """A `Program` is validated when it is made; host-gate registration is
    checked only when a gate runs."""

    def test_identity_ok(self):
        p = identity_program()
        assert (p.size, p.outputs, p.input_arity) == (1, (0,), 1)

    def test_forward_reference_rejected(self):
        with pytest.raises(MalformedCircuit, match="not before node"):
            Program((Node("XOR", args=(0, 1)), Node("CONST", value=b"")), (0,), 0)

    def test_unknown_hostgate(self):
        b = ProgramBuilder(1)
        x = b.input(0)
        gate = b.host("no_such", x)
        p = b.build([b.ite(b.eq(x, b.const(b"safe")), b.const(b"skipped"), gate)])
        sealed = obf_io(p, p.size + 2)  # sealing does not look the gate up
        assert SealedProgram.from_bytes(sealed.to_bytes()).run(b"safe") == b"skipped"
        assert sealed.run(b"safe") == b"skipped"
        with pytest.raises(UnknownGate, match="'no_such' not registered"):
            sealed.run(b"other")

    def test_bad_input_slot(self):
        b = ProgramBuilder(1)
        out = b.input(3)
        with pytest.raises(MalformedCircuit, match="input slot 3 out of range"):
            b.build([out])


class TestEvaluate:
    def test_eq_reflexive(self):
        b = ProgramBuilder(1)
        x = b.input(0)
        p = b.build([b.eq(x, x)])
        assert evaluate(p, [b"data"]) == [b"\x01"]

    def test_ite_selects(self):
        b = ProgramBuilder(3)
        p = b.build([b.ite(b.input(0), b.input(1), b.input(2))])
        assert evaluate(p, [b"\x01", b"a", b"b"]) == [b"a"]
        assert evaluate(p, [b"\x00", b"a", b"b"]) == [b"b"]

    def test_hostgate_matches_direct_call(self):
        b = ProgramBuilder(1)
        p = b.build([b.host("OWF", b.input(0))])
        d = Drbg(1)
        for _ in range(100):
            x = d.bytes(d.randint(0, 32))
            assert evaluate(p, [x]) == [owf(x)]

    def test_xor_length_mismatch(self):
        b = ProgramBuilder(2)
        p = b.build([b.xor(b.input(0), b.input(1))])
        with pytest.raises(MalformedCircuit):
            evaluate(p, [b"ab", b"a"])

    def test_concat_slice(self):
        b = ProgramBuilder(2)
        cat = b.concat(b.input(0), b.input(1))
        p = b.build([b.slice(cat, 1, 3)])
        assert evaluate(p, [b"ab", b"cd"]) == [b"bc"]

    def test_lazy_ite_skips_failing_branch(self):
        from qnk.circuit_ir import punctured_key_to_bytes
        from qnk.primitives import ggm_punct, prf_gen
        k = prf_gen(Drbg(2), 8)
        kz = punctured_key_to_bytes(ggm_punct(k, 0x10))
        b = ProgramBuilder(1)
        x = b.input(0)
        punct_eval = b.host("GGM_EVAL_PUNCT", b.const(kz), x)
        p = b.build([b.ite(b.eq(x, b.const(b"\x10")), b.const(b"safe"), punct_eval)])
        assert evaluate(p, [b"\x10"]) == [b"safe"]


class TestPad:
    """A sealed program's padding is its declared size, written as filler
    nodes between its own nodes and its output list."""

    def test_pad_preserves_behavior(self):
        b = ProgramBuilder(1)
        x = b.input(0)
        p = b.build([b.host("OWF", x)])
        sealed = obf_io(p, 40)
        again = SealedProgram.from_bytes(sealed.to_bytes())
        padded = program_from_bytes(sealed_body(sealed))
        assert sealed.declared_size == again.declared_size == padded.size == 40
        assert padded == with_fillers(p, 40 - p.size)
        assert program_to_bytes(padded) == sealed_body(sealed)
        d = Drbg(3)
        for _ in range(100):
            v = [d.bytes(4)]
            assert evaluate(p, v) == evaluate(padded, v) == [sealed.run(*v)] == [again.run(*v)]

    def test_pad_identity_at_own_size(self):
        p = identity_program()
        assert sealed_body(obf_io(p, p.size)) == program_to_bytes(p)

    def test_target_too_small(self):
        b = ProgramBuilder(1)
        p = b.build([b.host("OWF", b.input(0))])
        with pytest.raises(TargetTooSmall, match="target 1 below program size 2"):
            obf_io(p, 1)
        with pytest.raises(TargetTooSmall):
            SealedProgram(p, MODE_IO, 1)


class TestSealed:
    def test_io_identity_exhaustive(self):
        sealed = obf_io(identity_program(), 8)
        for v in range(256):
            assert sealed.run(bytes([v])) == bytes([v])

    def test_equal_declared_size_for_distinct_constants(self):
        def make(c):
            b = ProgramBuilder(1)
            x = b.input(0)
            k = b.const(c)
            return b.build([b.xor(b.xor(x, k), k)])  # computes identity

        s1 = obf_io(make(b"\x55"), 10)
        s2 = obf_io(make(b"\xaa"), 10)
        assert s1.declared_size == s2.declared_size == 10
        assert s1.run(b"\x42") == s2.run(b"\x42") == b"\x42"

    def test_no_constant_accessor(self):
        sealed = obf_io(identity_program(), 4)
        assert [a for a in vars(sealed) if not a.startswith("_")] == []
        public = {a for a in dir(sealed) if not a.startswith("_")}
        assert public == {"declared_size", "mode", "run", "to_bytes", "from_bytes"}

    def test_declared_size_is_read_only(self):
        sealed = obf_io(identity_program(), 4)
        with pytest.raises(AttributeError):
            sealed.declared_size = 5
        again = SealedProgram.from_bytes(sealed.to_bytes())
        assert again.declared_size == sealed.declared_size == 4

    def test_mode_is_read_only(self):
        # a decode hands back the encoder's object, so no holder may change it
        sealed = obf_io(identity_program(), 4)
        with pytest.raises(AttributeError):
            sealed.mode = MODE_VBB
        assert SealedProgram.from_bytes(sealed.to_bytes()).mode == sealed.mode == MODE_IO

    def test_serialization_roundtrip(self):
        b = ProgramBuilder(1)
        p = b.build([b.host("OWF", b.input(0))])
        sealed = obf_io(p, 12)
        again = SealedProgram.from_bytes(sealed.to_bytes())
        assert again.declared_size == 12
        assert again.run(b"q") == sealed.run(b"q")

    def test_vbb_sim_matches_and_counts(self):
        b = ProgramBuilder(1)
        p = b.build([b.host("OWF", b.input(0))])
        sealed, sim = obf_vbb(p, 9)
        d = Drbg(4)
        for i in range(100):
            x = d.bytes(3)
            assert sim.query(x) == sealed.run(x)
        assert sim.query_count == 100
        assert sim.declared_size == 9
        assert not any(a for a in vars(sim) if not a.startswith("_")
                       if a not in ("declared_size", "query_count"))


class TestLockable:
    def test_identity_lock(self):
        u = bytes(range(16))
        obj = lockobf(u, b"payload", identity_program())
        assert unwrap(obj.run(u)) == b"payload"
        assert unwrap(obj.run(b"\x00" * 16)) is None

    def test_lock_survives_serialization(self):
        u = bytes(range(16))
        obj = lockobf(u, b"p", identity_program())
        again = SealedProgram.from_bytes(obj.to_bytes())
        assert (again.mode, again.declared_size) == (obj.mode, obj.declared_size)
        for x in (u, b"\x00" * 16, u[:15], b""):
            assert again.run(x) == obj.run(x)
        assert unwrap(again.run(u)) == b"p"

    @pytest.mark.parametrize("length", (0, 15, 17))
    def test_lock_must_be_16_bytes(self, length):
        with pytest.raises(MalformedCircuit):
            lockobf(bytes(length), b"p", identity_program())

    def test_exhaustive_and_sim(self):
        b = ProgramBuilder(1)
        x = b.input(0)
        inner = b.build([b.concat(x, b.const(b"\x11" * 15))])
        u = b"\x2a" + b"\x11" * 15
        obj = lockobf(u, b"z!", inner)
        sim = lockobf_sim(inner.size, 2)
        for v in range(256):
            got = unwrap(obj.run(bytes([v])))
            assert got == (b"z!" if v == 0x2A else None)
            assert unwrap(sim.run(bytes([v]))) is None
        assert sim.declared_size == obj.declared_size == lock_pad_target(inner.size, 2)

    def test_bottom_sentinel_distinct_from_payloads(self):
        assert unwrap(BOTTOM) is None
        assert unwrap(wrap_some(b"")) == b""
        assert unwrap(wrap_some(b"\x00")) == b"\x00"


ALL_BYTES = tuple((bytes([v]),) for v in range(256))


class TestEquivCheck:
    def test_same_function_different_structure(self):
        b1 = ProgramBuilder(1)
        x = b1.input(0)
        p1 = b1.build([b1.xor(x, b1.const(b"\x00"))])
        p2 = identity_program()
        assert equiv_check(p1, p2, ALL_BYTES)

    def test_detects_divergence(self):
        b1 = ProgramBuilder(1)
        x = b1.input(0)
        p1 = b1.build([b1.xor(x, b1.const(b"\x01"))])
        assert not equiv_check(p1, identity_program(), ALL_BYTES)

    def test_random_domain(self):
        d = Drbg(5)
        points = tuple((d.bytes(2),) for _ in range(50))
        assert equiv_check(identity_program(), identity_program(), points)

    def test_explicit_domain(self):
        dom = ((b"\x01",), (b"\x02",))
        assert equiv_check(identity_program(), identity_program(), dom)


def test_program_serialization_roundtrip():
    b = ProgramBuilder(2)
    x = b.input(0)
    y = b.input(1)
    h = b.host("PRF", b.const(b"\x00" * 16), b.concat(x, y))
    p = b.build([b.ite(b.eq(x, y), h, b.slice(h, 0, 4))])
    again = program_from_bytes(program_to_bytes(p))
    assert again == p
    assert evaluate(again, [b"a", b"a"]) == evaluate(p, [b"a", b"a"])


class TestProgramDecoding:
    """program_from_bytes and SealedProgram.from_bytes fail closed."""

    @staticmethod
    def blob():
        b = ProgramBuilder(1)
        return program_to_bytes(b.build([b.host("ab", b.input(0))]))

    def test_unknown_op_tag(self):
        blob = bytearray(self.blob())
        blob[9] = 0xEE  # version (1) + arity (4) + node count (4), then tag
        with pytest.raises(MalformedCircuit):
            program_from_bytes(bytes(blob))

    def test_non_utf8_gate_name(self):
        blob = self.blob().replace(pack_bytes(b"ab"), pack_bytes(b"\xff\xfe"))
        with pytest.raises(MalformedCircuit):
            program_from_bytes(blob)

    def test_trailing_bytes(self):
        with pytest.raises(MalformedCircuit):
            program_from_bytes(self.blob() + b"\x00")

    @pytest.mark.parametrize("args", [(1, 0), (0, 2)], ids=["self", "forward"])
    def test_argument_not_before_node(self, args):
        # `Program`'s rule; an argument at or after its node allows a cycle
        nodes = (Node("INPUT"), Node("XOR", args), Node("INPUT"))
        with pytest.raises(MalformedCircuit, match="not before node"):
            program_from_bytes(raw_program(nodes, (1,), 1))

    def test_output_out_of_range(self):
        blob = raw_program((Node("INPUT"),), (1,), 1)
        with pytest.raises(MalformedCircuit, match="out of range"):
            program_from_bytes(blob)

    def test_sealed_trailing_bytes(self):
        sealed = obf_io(identity_program(), 4).to_bytes()
        with pytest.raises(MalformedCircuit):
            SealedProgram.from_bytes(sealed + b"\x00")

    def test_sealed_non_utf8_mode(self):
        body = program_to_bytes(identity_program())
        assert SealedProgram.from_bytes(raw_sealed(body, 1)).run(b"x") == b"x"
        with pytest.raises(MalformedCircuit):
            SealedProgram.from_bytes(raw_sealed(body, 1, b"\xff"))


class TestPaddedProgramCodec:
    """Padded programs are mostly dead `CONST b""` nodes. Their encoding,
    and every way it can be cut or damaged, decodes as it always has."""

    FILL = 6

    @classmethod
    def program(cls):
        b = ProgramBuilder(2)
        x, y = b.input(0), b.input(1)
        h = b.host("PRF", b.const(b"\x00" * 16), b.concat(x, y))
        p = b.build([b.ite(b.eq(x, y), h, b.slice(h, 0, 4))])
        return with_fillers(p, cls.FILL)

    @classmethod
    def regions(cls):
        """(start, end) of the header, the live nodes, the filler run and the
        output list in the program's encoding."""
        blob = program_to_bytes(cls.program())
        outputs_len = 4 + 4 * len(cls.program().outputs)
        run = len(blob) - outputs_len - 29 * cls.FILL
        return blob, {"header": (0, 9), "live-node": (9, run),
                      "filler-run": (run, len(blob) - outputs_len),
                      "output-list": (len(blob) - outputs_len, len(blob))}

    def test_filler_encoding(self):
        blob, regions = self.regions()
        lo, hi = regions["filler-run"]
        assert blob[lo:hi] == bytes(29 * self.FILL)
        assert program_from_bytes(blob) == self.program()

    def test_padding_shares_one_node(self):
        # `Program` skips the structural checks by identity with that one
        # instance
        decoded = program_from_bytes(program_to_bytes(self.program()))
        fill = decoded.nodes[-self.FILL:]
        assert fill[0] == Node("CONST") and all(node is fill[0] for node in fill)

    @pytest.mark.parametrize("region", ["header", "live-node", "filler-run", "output-list"])
    def test_every_prefix_is_truncated(self, region):
        blob, regions = self.regions()
        for cut in range(*regions[region]):
            with pytest.raises(MalformedCiphertext, match="truncated") as e:
                program_from_bytes(blob[:cut])
            assert type(e.value) is MalformedCiphertext

    # byte offset within the fourth filler node, new value, the decode's outcome
    @pytest.mark.parametrize("offset, value, outcome", [
        (0, 0x01, "INPUT"), (0, 0x02, MalformedCircuit), (0, 0x07, "HOSTGATE"),
        (0, 0x08, MalformedCircuit), (0, 0xFF, MalformedCircuit),
        (8, 0x01, MalformedCiphertext), (8, 0x1D, MalformedCiphertext),
        (8, 0xFF, MalformedCiphertext), (5, 0x01, MalformedCiphertext),
        (24, 0x01, MalformedCiphertext), (24, 0x1D, MalformedCiphertext),
        (24, 0xFF, MalformedCiphertext), (21, 0x01, MalformedCiphertext),
    ], ids=["tag-input", "tag-concat", "tag-hostgate", "tag-past-ops", "tag-ff",
            "value-len-1", "value-len-29", "value-len-255", "value-len-2^24",
            "gate-len-1", "gate-len-29", "gate-len-255", "gate-len-2^24"])
    def test_filler_mutation(self, offset, value, outcome):
        blob, regions = self.regions()
        at = regions["filler-run"][0] + 3 * 29 + offset
        mutated = bytes(blob[:at]) + bytes([value]) + blob[at + 1:]
        if isinstance(outcome, str):
            got = program_from_bytes(mutated)
            assert got.nodes[got.size - self.FILL + 3] == Node(outcome)
            # the encoding is canonical, so this pins the whole program
            assert program_to_bytes(got) == mutated
        else:
            with pytest.raises(outcome) as e:
                program_from_bytes(mutated)
            assert type(e.value) is outcome

    def test_live_empty_const_round_trips(self):
        b = ProgramBuilder(1)
        empty = b.const(b"")
        p = with_fillers(b.build([b.concat(b.input(0), empty)]), 6)
        blob = program_to_bytes(p)
        again = program_from_bytes(blob)
        assert again == p
        assert program_to_bytes(again) == blob
        assert evaluate(again, [b"q"]) == [b"q"]

    def test_inlined_filler_round_trips(self):
        b = ProgramBuilder(2)
        (inner,) = b.inline(with_fillers(identity_program(), 4), [b.input(0)])
        p = with_fillers(b.build([b.xor(inner, b.input(1))]), 5)
        # the inlined fillers sit between live nodes
        assert p.nodes[1:5] == (Node("CONST"),) * 4 and p.nodes[6].op == "XOR"
        blob = program_to_bytes(p)
        again = program_from_bytes(blob)
        assert again == p
        assert program_to_bytes(again) == blob
        assert evaluate(again, [b"\x0f", b"\xf0"]) == [b"\xff"]


class CountedBlob(bytes):
    """A program blob that counts the bytes its prefix compares read."""

    def startswith(self, prefix, *span):
        self.compared = getattr(self, "compared", 0) + len(prefix)
        return super().startswith(prefix, *span)


class TestFillerTail:
    """`program_from_bytes` reads each filler node as the shared `_FILLER`,
    wherever it sits, and decodes the program that was encoded."""

    @staticmethod
    def decode(p: Program) -> tuple[Program, CountedBlob]:
        blob = CountedBlob(program_to_bytes(p))
        again = program_from_bytes(blob)
        assert again == p
        assert program_to_bytes(again) == blob
        return again, blob

    def test_all_trailing_fillers_take_one_compare(self):
        b = ProgramBuilder(1)
        live = b.build([b.xor(b.input(0), b.const(b"\x01"))])
        again, _ = self.decode(with_fillers(live, 500 - live.size))
        assert evaluate(again, [b"\x02"]) == [b"\x03"]

    def test_middle_fillers_stay_linear(self):
        # fillers in the middle, then live nodes, then a filler before every
        # live node, then a trailing run: each byte is compared about once
        nodes = ((Node("INPUT"),) + (Node("CONST"),) * 40 + (Node("XOR", (0, 0)),)
                 + (Node("CONST"), Node("CONCAT", (0, 41))) * 500 + (Node("CONST"),) * 300)
        again, blob = self.decode(Program(nodes, (1041,), 1))
        assert evaluate(again, [b"\x05"]) == [b"\x05\x00"]
        assert blob.compared < 2 * len(blob)

    def test_empty_const_in_the_trailing_run(self):
        # a live `CONST b""` encodes as a filler, so it decodes as one
        nodes = ((Node("INPUT"), Node("CONST"), Node("CONST"), Node("CONCAT", (0, 2)))
                 + (Node("CONST"),) * 20)
        again, _ = self.decode(Program(nodes, (3, 2, 23), 1))
        assert evaluate(again, [b"z"]) == [b"z", b"", b""]
        again, _ = self.decode(Program(nodes[:3] + (Node("CONST"),) * 20, (2, 22), 1))
        assert evaluate(again, [b"z"]) == [b"", b""]

    @pytest.mark.parametrize("after", [0, 1, 30], ids=["last", "one-filler-after", "30-after"])
    def test_broken_node_after_fillers_is_refused(self, after):
        # the decoder reads the fillers as the shared instance, which
        # `Program` skips, and it must still check the broken node after them
        fill = (Node("CONST"),) * 20
        nodes = (Node("INPUT"),) + fill + (Node("SLICE", (0,), lo=3, hi=1),) + fill[:after]
        with pytest.raises(MalformedCircuit, match="^node 21: bad slice range$"):
            program_from_bytes(raw_program(nodes, (0,), 1))

    @pytest.mark.parametrize("short", [1, 28])
    def test_filler_tail_cut_short(self, short):
        # the output list follows, so the blob still holds as many bytes as
        # the run needs, and the last filler read short runs into it; a blob
        # that ends inside the run is
        # TestPaddedProgramCodec.test_every_prefix_is_truncated
        b = ProgramBuilder(1)
        blob = program_to_bytes(with_fillers(b.build([b.input(0)]), 39))
        run_end = len(blob) - 8  # the output list is a count and one index
        cut = blob[:run_end - short] + blob[run_end:]
        with pytest.raises(MalformedCiphertext, match="truncated") as e:
            program_from_bytes(cut)
        assert type(e.value) is MalformedCiphertext

    @pytest.mark.parametrize("body", [bytes(29 * 3) + pack_u32(1) + pack_u32(0), bytes(29 * 1000)],
                             ids=["three-fillers", "1000-fillers"])
    def test_huge_node_count_over_a_short_blob(self, body):
        blob = b"\x01" + pack_u32(1) + pack_u32(2 ** 32 - 1) + body
        tracemalloc.start()
        start = time.perf_counter()
        try:
            with pytest.raises(QnkError):
                program_from_bytes(blob)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1.0
        assert peak < 64 * 1024 + len(blob)


class TestPuncturedKeyCodec:
    @staticmethod
    def key_and_blob():
        from qnk.primitives import ggm_punct, prf_gen
        kz = ggm_punct(prf_gen(Drbg(2), 8), 0x10)
        return kz, punctured_key_to_bytes(kz)

    def test_round_trip(self):
        from qnk.primitives import ggm_eval_punct
        kz, blob = self.key_and_blob()
        again = punctured_key_from_bytes(blob)
        assert again == kz and punctured_key_to_bytes(again) == blob
        assert ggm_eval_punct(again, 0x11) == ggm_eval_punct(kz, 0x11)

    def test_trailing_bytes_rejected(self):
        _, blob = self.key_and_blob()
        with pytest.raises(MalformedCiphertext):
            punctured_key_from_bytes(blob + b"junk")

    @pytest.mark.parametrize("cut", [1, 3, 16, 17, 100, 141])
    def test_truncated_rejected(self, cut):
        _, blob = self.key_and_blob()
        assert len(blob) == 142
        with pytest.raises(MalformedCiphertext):
            punctured_key_from_bytes(blob[:-cut])

    @pytest.mark.parametrize("mutate", [lambda blob: blob[:-3], lambda blob: blob + b"junk"],
                             ids=["truncated", "trailing"])
    def test_sealed_gate_with_malformed_constant(self, mutate):
        _, blob = self.key_and_blob()
        b = ProgramBuilder(1)
        p = b.build([b.host("GGM_EVAL_PUNCT", b.const(mutate(blob)), b.input(0))])
        sealed = SealedProgram(p, MODE_IO, p.size)
        with pytest.raises(MalformedCircuit):
            sealed.run(b"\x11")
