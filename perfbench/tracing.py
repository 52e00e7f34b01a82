"""Per-layer tracing for the benchmark, done entirely from the benchmark's side.

`install(tracer)` wraps the public functions and the public methods of public
classes of every qnk module (the "layers"), the host gates in
`circuit_ir.DEFAULT_REGISTRY`, and `hmac.new`. Names that other modules bound
with `from .x import y` are re-bound to the wrapper in every qnk module, so a
call is traced whichever name it goes through. `uninstall` puts every
original object back.

Each wrapped call is a span. A span's self time is its duration minus the
durations of the spans nested directly inside it; time in unwrapped helpers
(private functions, numpy, hashlib) counts as self time of the nearest
wrapped caller. The program is single-threaded, so spans nest strictly and
one stack suffices. Each open span carries the index of the operation it
belongs to (`Tracer.op`, set by the runner); a span is folded into the
per-layer totals when it closes, and no span is stored after that.
"""
from __future__ import annotations

import functools
import hmac
import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

from qnk.errors import QnkError

LAYERS = ("rand", "primitives", "wire", "circuit_ir", "qsim", "qfhe", "qma",
          "cvqc", "nullio", "proofs", "encdelegate", "attacks", "cli")

# host gates registered when qnk is imported (lockobf adds per-program
# closures at run time; those are counted under "other")
HOST_GATES = ("PRF", "GGM_EVAL", "GGM_EVAL_PUNCT", "PRG", "OWF", "COMMIT",
              "CVQC_VERIFY", "CVQC_TDVERIFY", "TOY_VERIFY", "TOY_VERIFY_STATS",
              "QFHE_DEC", "RO_SURROGATE", "WE_ENC", "SEALED_EVAL", "ABE_DEC",
              "ABE_ENC")

# entry points that simulate a whole circuit, and cvqc's verifiers; a call
# nested inside another one of its kind is not counted again
SIM_ENTRIES = tuple("qsim." + n for n in (
    "run_circuit", "run_unitary", "accept_probability", "history_state"))
CVQC_VERIFIERS = tuple("cvqc." + n for n in (
    "star_verify", "td_verify", "toy_verify", "oracle_verify", "base_verify",
    "stats_verify", "blind_verify"))


class Tracer:
    """Span stack with per-layer self time, call and error counts, and named
    counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.op = -1                      # index of the operation being run
        self.stack: list[list] = []       # [layer, name, start, child_s, op, hostgate]
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.hostgate_self_s = 0.0
        self.counts: Counter = Counter()
        self.distinct: defaultdict = defaultdict(set)

    def enter(self, layer: str, name: str, hostgate: bool = False) -> None:
        self.calls[layer] += 1
        self.stack.append([layer, name, self.clock(), 0.0, self.op, hostgate])

    def exit(self, error: bool = False) -> None:
        end = self.clock()
        layer, _, start, child_s, _, hostgate = self.stack.pop()
        dur = end - start
        own = dur - child_s
        self.self_s[layer] += own
        if hostgate:
            self.hostgate_self_s += own
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[3] += dur
        # an error leaves the layer only where the caller is another layer
        if error and (parent is None or parent[0] != layer):
            self.errors[layer] += 1

    def inside(self, names) -> bool:
        """True when a span named in `names` encloses the newest one."""
        return any(f[1] in names for f in self.stack[:-1])


# ---------------------------------------------------------------------------
# counters taken at layer boundaries: name -> (pre, post), where pre(tracer,
# args) runs inside the span before the call and post(tracer, args, result,
# pre_value) after it returns


def _sim_key(args):
    q, inp = args[0], args[1] if len(args) > 1 else None
    if hasattr(inp, "amps"):
        inp = inp.amps.tobytes()
    elif inp is not None:
        inp = tuple(inp)
    return hash((q, inp))


def _sim_pre(t, a):
    return not t.inside(SIM_ENTRIES)


def _sim_post(name):
    def post(t, a, r, outer):
        t.counts[f"{name}_calls"] += 1
        if outer:
            t.counts["qsim.simulations"] += 1
            t.distinct["qsim.sims"].add(_sim_key(a))
    return post


def _ro_pre(t, a):
    return a[1] in a[0].table


def _ro_post(t, a, r, hit):
    t.counts["primitives.ro_queries"] += 1
    t.counts["primitives.ro_hits"] += hit
    t.counts["primitives.ro_table_entries"] = max(
        t.counts["primitives.ro_table_entries"], len(a[0].table))


def _drbg_post(t, a, r, _):
    n = a[1]
    t.counts["rand.drbg_blocks"] += (n + 31) // 32
    t.counts["rand.drbg_bytes"] += n


def _decode_post(t, a, r, _):
    t.counts["circuit_ir.program_from_bytes_calls"] += 1
    t.counts["circuit_ir.program_bytes_decoded"] += len(a[0])
    t.distinct["circuit_ir.blobs"].add(hash(a[0]))


def _verify_pre(t, a):
    return not t.inside(CVQC_VERIFIERS)


def _verify_post(t, a, r, outer):
    t.counts["cvqc.verify_calls"] += outer


def _apply_gate_post(t, a, r, _):
    t.counts["qsim.apply_gate_calls"] += 1
    t.counts["qsim.amp_bytes_moved"] += 2 * 16 * 2 ** a[0].n_qubits


def _qfhe_post(t, a, r, _):
    t.counts["qfhe.payload_bytes"] += len(r.payload)


def _qfhe_eval_post(t, a, r, _):
    t.counts["qfhe.eval_calls"] += 1
    t.counts["qfhe.payload_bytes"] += len(r.payload)


def _count(key, size=None):
    def post(t, a, r, _):
        t.counts[key] += 1 if size is None else size(a, r)
    return post


def _count_entry(key):
    def pre(t, a):
        t.counts[key] += 1
    return pre


HOOKS = {
    "rand.Drbg.bytes": (None, _drbg_post),
    "primitives.RandomOracle.query": (_ro_pre, _ro_post),
    "primitives.prg": (None, _count("primitives.prg_bytes", lambda a, r: a[1])),
    "wire.seal": (None, _count("wire.seal_bytes", lambda a, r: len(a[0]))),
    "wire.unseal": (None, _count("wire.unseal_bytes", lambda a, r: len(a[0]))),
    "wire.envelope": (None, _count("wire.envelope_bytes", lambda a, r: len(r))),
    "wire.open_envelope": (None, _count("wire.envelope_bytes", lambda a, r: len(a[0]))),
    "wire.unpack_fields": (None, _count("wire.unpack_fields_calls")),
    "circuit_ir.evaluate": (None, _count("circuit_ir.evaluate_calls")),
    "circuit_ir.program_from_bytes": (None, _decode_post),
    "qsim.apply_gate": (None, _apply_gate_post),
    "qfhe.qfhe_enc": (None, _qfhe_post),
    "qfhe.qfhe_eval": (None, _qfhe_eval_post),
    "cvqc.judge_accepts": (None, _count("cvqc.judge_calls")),
    "cvqc.oracle_from_spec": (None, _count("cvqc.oracle_from_spec_calls")),
    "cli.main": (None, _count("cli.commands")),
}
for _name in ("attack_basis_flip", "attack_stats", "attack_linear"):
    HOOKS["attacks." + _name] = (None, _count("attacks.queries",
                                              lambda a, r: r.query_count))
for _name in SIM_ENTRIES:
    HOOKS[_name] = (_sim_pre, _sim_post(_name))
for _name in CVQC_VERIFIERS:
    HOOKS[_name] = (_verify_pre, _verify_post)
for _name in HOST_GATES + ("other",):
    HOOKS["hostgate." + _name] = (_count_entry("circuit_ir.hostgate." + _name), None)


# ---------------------------------------------------------------------------
# wrapping


def _wrap(fn, tracer: Tracer, layer: str, name: str, hostgate: bool = False):
    pre, post = HOOKS.get(name, (None, None))

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        tracer.enter(layer, name, hostgate)
        try:
            p = pre(tracer, args) if pre is not None else None
            result = fn(*args, **kwargs)
        except QnkError:
            tracer.exit(error=True)
            raise
        except BaseException:
            tracer.exit()
            raise
        if post is not None:
            post(tracer, args, result, p)
        tracer.exit()
        return result

    return traced


def _layer_modules():
    return {layer: importlib.import_module("qnk." + layer) for layer in LAYERS}


def _targets(modules):
    """(owner, attribute, original, qualified name, kind) for every public
    function and public method defined in a layer module."""
    out = []
    for layer, mod in modules.items():
        for name, obj in list(vars(mod).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                out.append((mod, name, obj, f"{layer}.{name}", "function"))
            elif inspect.isclass(obj):
                for attr, member in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    qual = f"{layer}.{name}.{attr}"
                    if isinstance(member, (classmethod, staticmethod)):
                        out.append((obj, attr, member, qual, type(member).__name__))
                    elif inspect.isfunction(member) and not inspect.isgeneratorfunction(member):
                        out.append((obj, attr, member, qual, "function"))
    return out


def install(tracer: Tracer) -> list:
    """Wrap every layer; returns the undo list that `uninstall` consumes."""
    modules = _layer_modules()
    undo = []
    replaced = {}                      # id(original) -> (original, wrapper)
    for owner, attr, original, qual, kind in _targets(modules):
        layer = qual.split(".", 1)[0]
        if kind == "function":
            wrapper = _wrap(original, tracer, layer, qual)
            replaced[id(original)] = (original, wrapper)
        else:
            wrapper = type(original)(_wrap(original.__func__, tracer, layer, qual))
        undo.append((owner, attr, original))
        setattr(owner, attr, wrapper)
    # re-bind names imported with `from .x import y`
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "qnk" or mod_name.startswith("qnk.")):
            continue
        for attr, val in list(vars(mod).items()):
            hit = replaced.get(id(val))
            if hit is not None and hit[0] is val and getattr(mod, attr) is val:
                undo.append((mod, attr, val))
                setattr(mod, attr, hit[1])
    registry = modules["circuit_ir"].DEFAULT_REGISTRY
    for gate, fn in list(registry.items()):
        layer = fn.__module__.rsplit(".", 1)[-1]
        layer = layer if layer in LAYERS else "circuit_ir"
        label = gate if gate in HOST_GATES else "other"
        undo.append((registry, gate, fn))
        registry[gate] = _wrap(fn, tracer, layer, "hostgate." + label, hostgate=True)
    undo.append((hmac, "new", hmac.new))
    hmac.new = _counting(hmac.new, tracer, "rand.hmac_calls")
    return undo


def _counting(fn, tracer, key):
    @functools.wraps(fn)
    def counted(*args, **kwargs):
        tracer.counts[key] += 1
        return fn(*args, **kwargs)
    return counted


def uninstall(undo: list) -> None:
    for owner, attr, original in reversed(undo):
        if isinstance(owner, dict):
            owner[attr] = original
        else:
            setattr(owner, attr, original)
    undo.clear()


# ---------------------------------------------------------------------------
# metrics


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(t: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as name -> (value, unit)."""
    c = t.counts
    total_self = sum(t.self_s[layer] for layer in LAYERS)
    m: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        m[f"{layer}.calls"] = (t.calls[layer], "count")
        m[f"{layer}.self_s"] = (t.self_s[layer], "s")
        m[f"{layer}.errors"] = (t.errors[layer], "count")
        m[f"{layer}.share"] = (_ratio(t.self_s[layer], total_self), "ratio")
    m["rand.hmac_calls"] = (c["rand.hmac_calls"], "count")
    m["rand.drbg_blocks"] = (c["rand.drbg_blocks"], "count")
    m["rand.drbg_useful_byte_ratio"] = (
        _ratio(c["rand.drbg_bytes"], 32 * c["rand.drbg_blocks"]), "ratio")
    m["primitives.ro_queries"] = (c["primitives.ro_queries"], "count")
    m["primitives.ro_hit_ratio"] = (
        _ratio(c["primitives.ro_hits"], c["primitives.ro_queries"]), "ratio")
    m["primitives.ro_table_entries"] = (c["primitives.ro_table_entries"], "count")
    m["primitives.prg_bytes"] = (c["primitives.prg_bytes"], "B")
    for key in ("seal_bytes", "unseal_bytes", "envelope_bytes"):
        m["wire." + key] = (c["wire." + key], "B")
    m["wire.unpack_fields_calls"] = (c["wire.unpack_fields_calls"], "count")
    m["circuit_ir.evaluate_calls"] = (c["circuit_ir.evaluate_calls"], "count")
    m["circuit_ir.program_from_bytes_calls"] = (
        c["circuit_ir.program_from_bytes_calls"], "count")
    m["circuit_ir.program_bytes_decoded"] = (c["circuit_ir.program_bytes_decoded"], "B")
    m["circuit_ir.decode_distinct_ratio"] = (
        _ratio(len(t.distinct["circuit_ir.blobs"]),
               c["circuit_ir.program_from_bytes_calls"]), "ratio")
    m["circuit_ir.hostgate_self_s"] = (t.hostgate_self_s, "s")
    for gate in HOST_GATES:
        m["circuit_ir.hostgate." + gate] = (c["circuit_ir.hostgate." + gate], "count")
    m["qsim.apply_gate_calls"] = (c["qsim.apply_gate_calls"], "count")
    m["qsim.amp_bytes_moved"] = (c["qsim.amp_bytes_moved"], "B_computed")
    m["qsim.run_circuit_calls"] = (c["qsim.run_circuit_calls"], "count")
    m["qsim.history_state_calls"] = (c["qsim.history_state_calls"], "count")
    m["qsim.distinct_sim_ratio"] = (
        _ratio(len(t.distinct["qsim.sims"]), c["qsim.simulations"]), "ratio")
    m["qfhe.eval_calls"] = (c["qfhe.eval_calls"], "count")
    m["qfhe.payload_bytes"] = (c["qfhe.payload_bytes"], "B")
    for key in ("verify_calls", "judge_calls", "oracle_from_spec_calls"):
        m["cvqc." + key] = (c["cvqc." + key], "count")
    m["attacks.queries"] = (c["attacks.queries"], "count")
    m["cli.commands"] = (c["cli.commands"], "count")
    return m
