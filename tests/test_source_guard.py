"""Source checks that keep the crypto plumbing in one place each.

HMAC-SHA256 goes through `rand._hmac` and byte-string XOR through
`primitives._xor`; a second copy of either fails here. No module imports the
stdlib `hmac`, and the RFC 2104 pad bytes 0x36/0x5C appear only in `rand.py`,
so a second keyed-state HMAC cannot creep back in. The dual-mode CVQC
gates are paired with their constants in `cvqc.star_gate` alone, so their
names appear in no other module. Born-rule draws go through
`qsim.sample_bit`, so `2 ** 64` appears in no other module. A name field
is decoded by `wire.utf8`, so `except UnicodeDecodeError` appears only in
`wire.py` and in `circuit_ir.py`, whose decoders raise `MalformedCircuit`.
Host gates are the one registry (`circuit_ir.register_gate`); languages and
policies are resolved by `qma` itself, so no other module defines a
`register_` hook. The CLI parser converts every flag value with its
argparse `type=`, so no handler in `cli.py` parses `args.*` by hand.
Every process memo is declared with `qnk.memo.memo`, which states the memo
rule and bounds the cache, so `lru_cache` appears only in `memo.py`, which
imports only `functools`. Hybrid program families model the security
arguments; sealing reads only their memoized pad budgets, so outside
`selftest.py` a family builder is named only by its budget helper and by
`proofs.nizk_hybrid_family`. Each hybrid chain is declared once beside its
builder and checked by `circuit_ir.check_chain` alone: `equiv_check` is
called only there, and no function that builds or fetches a family
evaluates its variants itself. Only `qsim.py` names numpy, and it imports it
inside a function on the first simulation, never at module top, so actions
that never simulate do not load it. Every multi-qubit gate is a controlled X
with one kernel, so outside `GATE_ARITY` `qsim.py` names no "CNOT" or "CCX".
A one-qubit gate is a matmul between two transposes of the amplitude
tensor, so no module calls `moveaxis`.
A QMA witness is one `qma.Witness`, its classical part included, so no
function takes the classical part as a parameter of its own.
`_hmac` takes one message, so every `_hmac(` call passes exactly a key and a
message, neither starred, and a caller that needs several blocks joins them.
A program's structural rules are checked once, when its `Program` is made,
so `_check_node(` is called only in `Program.__post_init__`.
Amplified verification is one rule: `qma._majority` draws the repeated
Born-rule bits and accepts on a strict majority, so no other function draws
`sample_bit(` in a `for ... in range(` generator, and the threshold is derived
from the repetition count, so no call passes `threshold=`.
Every module-level function and method reads each of its parameters (other
than `self` and `cls`), so no caller computes an argument that nothing uses.
The one exception is the `claim` of `toy_verify`, `stats_verify` and
`td_verify`, which keeps the verifiers' signature uniform with the ones that
check the claim.
A TOY verifier that holds a proof's bytes reads them (`cvqc._toy_verdict_bytes`)
instead of decoding pairs, so `decode_base_proof(` is called only where pairs
are wanted, in `CvqcProof.decode`, or for `PROTO_ORACLE`. The pair reader
`cvqc._toy_verdict` serves the one verifier that is handed pairs, so
`toy_verify` alone names it.
Sealed programs have one decode memo, `circuit_ir._decode_sealed`, which
`SealedProgram.to_bytes` primes, so no `@memo` function outside
`circuit_ir.py` calls `SealedProgram.from_bytes`.
"""
import ast
import re
from pathlib import Path

SRC = sorted((Path(__file__).resolve().parents[1] / "src" / "qnk").glob("*.py"))

BYTEWISE_XOR = re.compile(r"\^.*\bfor\b.*\bin\s+zip\(")
REPEATED_DRAW = re.compile(r"\bsample_bit\(.*\bfor\b.*\bin\s+range\(")


def offending_lines(pattern, skip=()):
    return [f"{p.name}:{n}: {line.strip()}"
            for p in SRC if p.name not in skip
            for n, line in enumerate(p.read_text().splitlines(), 1)
            if pattern.search(line)]


def test_no_stdlib_hmac():
    assert offending_lines(re.compile(r"\bhmac\.new\b|^\s*(import|from)\s+hmac\b")) == []


def test_hmac_pads_only_in_rand():
    assert any(p.name == "rand.py" for p in SRC)
    assert offending_lines(re.compile(r"\b0x(36|5c)\b", re.I), skip=("rand.py",)) == []


def test_no_bytewise_xor_generator():
    assert offending_lines(BYTEWISE_XOR) == []


def test_cvqc_gate_names_only_in_cvqc():
    assert any(p.name == "cvqc.py" for p in SRC)
    assert offending_lines(re.compile(r"""["']CVQC_(TD)?VERIFY["']"""), skip=("cvqc.py",)) == []


def test_born_rule_draw_only_in_qsim():
    assert any(p.name == "qsim.py" for p in SRC)
    assert offending_lines(re.compile(r"\b2\s*\*\*\s*64\b"), skip=("qsim.py",)) == []


def test_utf8_check_only_in_wire():
    assert offending_lines(re.compile(r"\bexcept\b.*\bUnicodeDecodeError\b"),
                           skip=("wire.py", "circuit_ir.py")) == []


def test_register_hooks_only_in_circuit_ir():
    assert any(p.name == "circuit_ir.py" for p in SRC)
    assert offending_lines(re.compile(r"\bdef register_"), skip=("circuit_ir.py",)) == []


def test_no_flag_parsing_in_cli_handlers():
    assert any(p.name == "cli.py" for p in SRC)
    assert offending_lines(re.compile(r"(fromhex|int)\(args\."),
                           skip=tuple(p.name for p in SRC if p.name != "cli.py")) == []


def test_lru_cache_only_in_memo():
    assert offending_lines(re.compile(r"\blru_cache\b|\bfunctools\.cache\b|\bimport\b.*\bcache\b"),
                           skip=("memo.py",)) == []
    memo = ast.parse(next(p for p in SRC if p.name == "memo.py").read_text())
    imports = [n for n in ast.walk(memo) if isinstance(n, (ast.Import, ast.ImportFrom))]
    assert [ast.unparse(n) for n in imports] == ["import functools"]


def test_numpy_named_only_in_qsim():
    assert any(p.name == "qsim.py" for p in SRC)
    assert offending_lines(re.compile(r"\bnumpy\b"), skip=("qsim.py",)) == []


def test_qsim_imports_numpy_lazily():
    qsim = next(p for p in SRC if p.name == "qsim.py")
    top = ast.parse(qsim.read_text()).body
    imported = ({a.name.split(".")[0] for n in top if isinstance(n, ast.Import) for a in n.names}
                | {n.module.split(".")[0] for n in top if isinstance(n, ast.ImportFrom) and n.module})
    assert "math" in imported and "numpy" not in imported


def test_controlled_x_named_only_in_gate_arity():
    hits = offending_lines(re.compile(r"""["'](CNOT|CCX)["']"""),
                           skip=tuple(p.name for p in SRC if p.name != "qsim.py"))
    assert [h.split(": ", 1)[1][:14] for h in hits] == ["GATE_ARITY = {"]


def test_no_moveaxis():
    assert offending_lines(re.compile(r"\bmoveaxis\s*\(")) == []


def test_classical_witness_travels_in_the_witness():
    params = [f"{p.name}:{node.lineno}: {node.name}"
              for p in SRC for node in ast.walk(ast.parse(p.read_text()))
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
              and any(a.arg == "classical_witness" for a in
                      (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs))]
    assert params == []


def test_majority_drawn_only_in_qma_majority():
    drawers = []
    for p in SRC:
        text = p.read_text()
        lines = text.splitlines()
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef) and any(
                    REPEATED_DRAW.search(line)
                    for line in lines[node.lineno - 1:node.end_lineno]):
                drawers.append(f"{p.name}:{node.name}")
    assert drawers == ["qma.py:_majority"]
    assert len(offending_lines(REPEATED_DRAW)) == 1


def test_no_threshold_keyword():
    passed = [f"{p.name}:{node.lineno}" for p in SRC for node in ast.walk(ast.parse(p.read_text()))
              if isinstance(node, ast.keyword) and node.arg == "threshold"]
    assert passed == []


def check_node_calls(tree) -> int:
    return sum(isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_check_node"
               for node in ast.walk(tree))


def test_structural_rules_checked_only_by_program():
    trees = {p.name: ast.parse(p.read_text()) for p in SRC}
    program = next(node for node in trees["circuit_ir.py"].body
                   if isinstance(node, ast.ClassDef) and node.name == "Program")
    post_init = [node for node in program.body
                 if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"]
    # (calls in src/qnk, calls in Program.__post_init__)
    assert (sum(map(check_node_calls, trees.values())),
            sum(map(check_node_calls, post_init))) == (1, 1)


FAMILY_BUILDERS = {"abe_keycheck_hybrids", "abe_encryptor_hybrids", "cprf_hybrids",
                   "nizk_hybrid_programs"}
FAMILY_USERS = {"_keycheck_budget", "_encryptor_budget", "_cprf_budget", "_nizk_budgets",
                "nizk_hybrid_family"}


def family_builder_users():
    """(module, top-level function or "<module>", builder) for every name or
    attribute that refers to a family builder."""
    found = set()
    for p in SRC:
        for top in ast.parse(p.read_text()).body:
            where = top.name if isinstance(top, ast.FunctionDef) else "<module>"
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute) else None)
                if name in FAMILY_BUILDERS:
                    found.add((p.name, where, name))
    return found


def test_hybrid_families_built_only_for_budgets():
    users = family_builder_users()
    assert {name for _, _, name in users} == FAMILY_BUILDERS
    assert {where for m, where, _ in users if m != "selftest.py"} == FAMILY_USERS


def test_hybrid_steps_checked_only_by_check_chain():
    family_names = FAMILY_BUILDERS | {"nizk_hybrid_family"}
    equiv_callers, family_evaluators = set(), set()
    for p in SRC:
        for top in ast.parse(p.read_text()).body:
            where = f"{p.name}:{getattr(top, 'name', '<module>')}"
            nodes = list(ast.walk(top))
            called = {getattr(n.func, "id", None) or getattr(n.func, "attr", None)
                      for n in nodes if isinstance(n, ast.Call)}
            named = ({n.id for n in nodes if isinstance(n, ast.Name)}
                     | {n.attr for n in nodes if isinstance(n, ast.Attribute)})
            if "equiv_check" in called:
                equiv_callers.add(where)
            if named & family_names and called & {"evaluate", "equiv_check"}:
                family_evaluators.add(where)
    assert (equiv_callers, family_evaluators) == ({"circuit_ir.py:check_chain"}, set())


def test_xor_pattern():
    assert BYTEWISE_XOR.search("    body = bytes(a ^ b for a, b in zip(data, pad))")
    assert not BYTEWISE_XOR.search("    for i, (c_i, r_i) in enumerate(zip(commitments, openings)):")


def test_repeated_draw_pattern():
    assert REPEATED_DRAW.search(
        '    hits = sum(sample_bit(p1, drbg.child(f"judge{i}")) for i in range(lang.reps))')
    assert not REPEATED_DRAW.search('            e = 1 - sample_bit(p1, pd.child("measure"))')


# (module, function) -> parameters it may leave unread, with the reason above
UNREAD_PARAMETERS = {
    ("cvqc.py", "toy_verify"): {"claim"},
    ("cvqc.py", "stats_verify"): {"claim"},
    ("cvqc.py", "td_verify"): {"claim"},
}


def top_level_functions(tree):
    """(qualified name, node) of every module-level function and method."""
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield top.name, top
        elif isinstance(top, ast.ClassDef):
            for node in top.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{top.name}.{node.name}", node


def test_every_parameter_is_read():
    unread = []
    for p in SRC:
        for name, fn in top_level_functions(ast.parse(p.read_text())):
            a = fn.args
            params = [x.arg for x in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg)
                      if x is not None and x.arg not in ("self", "cls")]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            allowed = UNREAD_PARAMETERS.get((p.name, name), set())
            unread += [f"{p.name}:{fn.lineno}: {name}({q})" for q in params
                       if q not in read and q not in allowed]
    assert unread == []


def test_hmac_takes_one_message():
    calls, bad = 0, []
    for p in SRC:
        for node in ast.walk(ast.parse(p.read_text())):
            if isinstance(node, ast.Call) and "_hmac" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                calls += 1
                if (len(node.args) != 2 or node.keywords
                        or any(isinstance(a, ast.Starred) for a in node.args)):
                    bad.append(f"{p.name}:{node.lineno}: {ast.unparse(node)}")
    assert calls > 0 and bad == []


PAIR_DECODERS = {("cvqc.py", "CvqcProof.decode")}


def test_pairs_decoded_only_where_wanted():
    is_decode = lambda n: isinstance(n, ast.Call) and "decode_base_proof" in (
        getattr(n.func, "id", None), getattr(n.func, "attr", None))
    everywhere, calls = 0, []  # calls: (module, function, decodes a tag proof)
    for p in SRC:
        tree = ast.parse(p.read_text())
        everywhere += sum(map(is_decode, ast.walk(tree)))
        calls += [(p.name, name, getattr(call.args[0], "id", None) == "PROTO_ORACLE")
                  for name, fn in top_level_functions(tree)
                  for call in filter(is_decode, ast.walk(fn))]
    assert everywhere == len(calls)
    assert {(m, name) for m, name, oracle in calls if not oracle} == PAIR_DECODERS


def test_pair_reader_named_only_by_toy_verify():
    names_it = lambda n: "_toy_verdict" in (getattr(n, "id", None), getattr(n, "attr", None))
    uses = []  # (module, top-level function or "<module>") per reference
    for p in SRC:
        tree = ast.parse(p.read_text())
        inside = [(p.name, name) for name, fn in top_level_functions(tree)
                  for node in ast.walk(fn) if names_it(node)]
        uses += inside + [(p.name, "<module>")] * (sum(map(names_it, ast.walk(tree))) - len(inside))
    assert uses == [("cvqc.py", "toy_verify")]


def sealed_decoding_memos(path_name: str, tree) -> list:
    """`module:function` for each `@memo(...)` function that calls
    `SealedProgram.from_bytes`."""
    found = []
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(d, ast.Call) and getattr(d.func, "id", None) == "memo"
                for d in fn.decorator_list) and any(
                isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
                and n.func.attr == "from_bytes"
                and getattr(n.func.value, "id", None) == "SealedProgram"
                for n in ast.walk(fn)):
            found.append(f"{path_name}:{fn.name}")
    return found


def test_sealed_programs_decoded_by_one_memo():
    found = [hit for p in SRC if p.name != "circuit_ir.py"
             for hit in sealed_decoding_memos(p.name, ast.parse(p.read_text()))]
    assert found == []


def test_sealed_decoding_memo_pattern():
    per_module = ast.parse("@memo(8)\ndef _decode_sealed(blob):\n"
                           "    return SealedProgram.from_bytes(blob)\n")
    assert sealed_decoding_memos("encdelegate.py", per_module) == ["encdelegate.py:_decode_sealed"]
    plain = ast.parse("def decode(blob):\n    return SealedProgram.from_bytes(blob)\n")
    assert sealed_decoding_memos("encdelegate.py", plain) == []
