"""QMA/BQP language descriptors, amplification, named fixtures, the universal
policy family of the key-policy ABE wrapper, and monotone access-structure
support.

A language carries a verifier builder (instance -> single-copy check circuit),
a witness width p, thresholds (alpha, beta), and a repetition count for
majority amplification. Fixture languages are addressable by a byte reference
so they can be embedded as host-gate constants and reconstructed on the other
side of a serialization boundary.

A witness is one object: the quantum state, its copy count, and a classical
part `Witness.classical` that every verifier builder receives with the
instance. Only the secret-sharing language reads it (its witness is commitment
openings plus a quantum state); the others ignore it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import comb

from .errors import JudgeReject, MalformedCiphertext, NotMonotone, WidthMismatch
from .memo import memo
from .primitives import KEY_LEN, commit
from .qsim import QuantumCircuit, StateVector, accept_probability, format_circuit, parse_circuit, sample_bit
from .rand import Drbg
from .wire import Reader, fixed, pack_fields, unpack_fields, utf8

DEFAULT_WITNESS_COPIES = 5
MAX_WITNESS_QUBITS = 5
ATTR_WIRE_BYTES = 2  # attributes travel as 2-byte big-endian wires


@dataclass(frozen=True)
class QmaLanguage:
    name: str
    statement_bits: int
    witness_qubits: int          # p
    alpha: float
    beta: float
    builder: object              # (x: bytes, cw: bytes) -> QuantumCircuit
    ref: bytes                   # serializable constructor reference
    reps: int = 1                # majority repetitions (odd)
    classify: object = None      # exact yes/no ground truth for fixtures, or None

    def __post_init__(self):
        if self.witness_qubits > MAX_WITNESS_QUBITS:
            raise WidthMismatch(f"witness width {self.witness_qubits} exceeds cap")
        gap = self.alpha - self.beta
        if gap <= 0 or (self.witness_qubits >= 1 and gap < 1.0 / self.witness_qubits):
            raise WidthMismatch("completeness/soundness gap below 1/p")

    def verifier(self, x: bytes, cw: bytes = b"") -> QuantumCircuit:
        return self.builder(x, cw)


@dataclass(frozen=True)
class Witness:
    state: StateVector
    copies: int = DEFAULT_WITNESS_COPIES
    classical: bytes = b""       # classical part, e.g. commitment openings

    @classmethod
    def empty(cls, copies: int = DEFAULT_WITNESS_COPIES) -> "Witness":
        return cls(StateVector(0), copies)


@memo(64)
def _binom_tail(r: int, p: float) -> float:
    """Exact Pr[Binomial(r, p) > r // 2], the acceptance probability of `_majority`,
    memoized: `amplify` recomputes the same tails for every judged claim."""
    pf = Fraction(p).limit_denominator(10 ** 12)
    acc = Fraction(0)
    for k in range(r // 2 + 1, r + 1):
        acc += comb(r, k) * pf ** k * (1 - pf) ** (r - k)
    return float(acc)


def amplify(L: QmaLanguage, reps: int) -> QmaLanguage:
    """Majority amplification: run `reps` independent copies, accept on a
    majority of successes. The amplified alpha and beta are exact binomial tails.
    """
    if reps % 2 != 1 or reps > 15:
        raise WidthMismatch("repetition count must be odd and at most 15")
    return replace(
        L,
        alpha=_binom_tail(reps, L.alpha),
        beta=_binom_tail(reps, L.beta),
        reps=reps,
    )


def _majority(p1: float, reps: int, drbg: Drbg, label: str) -> int:
    """The one amplified decision: `reps` Born-rule bits of acceptance
    probability p1, bit i drawn on child `label{i}`; 1 on a strict majority."""
    hits = sum(sample_bit(p1, drbg.child(f"{label}{i}")) for i in range(reps))
    return 1 if hits > reps // 2 else 0


def qma_verify(L: QmaLanguage, x: bytes, w: Witness, drbg: Drbg) -> int:
    """Sample the (possibly amplified) verifier; consumes one witness copy per
    repetition, so a witness with fewer copies than `L.reps` is rejected."""
    if w.state.n_qubits != L.witness_qubits:
        raise WidthMismatch(
            f"witness has {w.state.n_qubits} qubits, language takes {L.witness_qubits}")
    if w.copies < L.reps:
        raise JudgeReject(f"only {w.copies} witness copies for {L.reps} repetitions")
    p1 = accept_probability(L.verifier(x, w.classical), w.state if L.witness_qubits else [])
    return _majority(p1, L.reps, drbg, "judge")


def exact_accept_probability(L: QmaLanguage, x: bytes, w: Witness) -> float:
    """Exact amplified acceptance probability of the witness, classical part
    included."""
    p = accept_probability(L.verifier(x, w.classical), w.state if L.witness_qubits else [])
    return _binom_tail(L.reps, p)


# ---------------------------------------------------------------------------
# monotone languages


def is_qualified(L: QmaLanguage, subset_bits: bytes) -> str:
    """'yes' / 'no' / 'unknown' for a subset bitstring instance."""
    if L.classify is None:
        return "unknown"
    return L.classify(subset_bits)


def monotone_check(L: QmaLanguage) -> None:
    """Exhaustive monotonicity scan over the instance space (<= 2^10)."""
    n = L.statement_bits
    if n > 10:
        raise NotMonotone("instance space too large for the exhaustive scan")
    nbytes = (n + 7) // 8
    verdicts = {}
    for v in range(1 << n):
        verdicts[v] = is_qualified(L, v.to_bytes(nbytes, "big"))
    for v in range(1 << n):
        if verdicts[v] != "yes":
            continue
        for i in range(n):
            sup = v | (1 << i)
            if verdicts[sup] == "no":
                raise NotMonotone(
                    f"qualified {v:0{n}b} has unqualified superset {sup:0{n}b}")


# ---------------------------------------------------------------------------
# fixtures


def _bits_of(x: bytes, n: int) -> list[int]:
    v = int.from_bytes(x, "big")
    return [(v >> (n - 1 - i)) & 1 for i in range(n)]


def make_parity_language(n: int) -> QmaLanguage:
    """Deterministic BQP fixture: accept exactly when the instance has odd
    parity. Empty witness; the instance is baked into the gate list."""

    def build(x: bytes, cw: bytes):
        gates = tuple(("X", (0,)) for b in _bits_of(x, n) if b)
        return QuantumCircuit(1, gates, n_input=0)

    def classify(x: bytes) -> str:
        return "yes" if sum(_bits_of(x, n)) % 2 else "no"

    return QmaLanguage(f"par{n}", n, 0, 1.0, 0.0, build,
                       pack_fields(b"par", bytes([n])), classify=classify)


GHZ_STATE_AMPS = [2 ** -0.5, 0, 0, 0, 0, 0, 0, 2 ** -0.5]


def ghz_witness() -> StateVector:
    return StateVector(3, GHZ_STATE_AMPS)


def make_ghz_language() -> QmaLanguage:
    """Quantum-witness fixture. Instance bit 1: project onto the 3-qubit GHZ
    state (disentangle, then AND the negated register into the output qubit).
    Instance bit 0: reject everything."""

    def build(x: bytes, cw: bytes):
        if int.from_bytes(x, "big") & 1:
            gates = (
                ("CNOT", (2, 3)), ("CNOT", (2, 4)), ("H", (2,)),
                ("X", (2,)), ("X", (3,)), ("X", (4,)),
                ("CCX", (2, 3, 1)), ("CCX", (1, 4, 0)),
            )
            return QuantumCircuit(5, gates, n_input=3)
        return QuantumCircuit(4, (), n_input=3)

    def classify(x: bytes) -> str:
        return "yes" if int.from_bytes(x, "big") & 1 else "no"

    return QmaLanguage("ghz", 1, 3, 1.0, 0.0, build, pack_fields(b"ghz"),
                       classify=classify)


def make_threshold_language(n: int, t: int) -> QmaLanguage:
    """Monotone fixture: n-bit subset strings, qualified at Hamming weight >= t."""

    def build(x: bytes, cw: bytes):
        gates = (("X", (0,)),) if sum(_bits_of(x, n)) >= t else ()
        return QuantumCircuit(1, gates, n_input=0)

    def classify(x: bytes) -> str:
        return "yes" if sum(_bits_of(x, n)) >= t else "no"

    return QmaLanguage(f"th{t}of{n}", n, 0, 1.0, 0.0, build,
                       pack_fields(b"th", bytes([n, t])), classify=classify)


def make_null_language(p: int) -> QmaLanguage:
    """Rejects every input: the output qubit is a fresh ancilla never touched."""

    def build(x: bytes, cw: bytes):
        return QuantumCircuit(p + 1, (), n_input=p)

    def classify(x: bytes) -> str:
        return "no"

    return QmaLanguage(f"null{p}", 1, p, 1.0, 0.0, build,
                       pack_fields(b"null", bytes([p])), classify=classify)


def make_policy_language(circuit: QuantumCircuit) -> QmaLanguage:
    """BQP policy carrier for ABE: the instance is the attribute string fed to
    the policy circuit; the witness is empty."""
    n = circuit.n_input

    def build(x: bytes, cw: bytes):
        bits = _bits_of(x, n)
        load = tuple(("X", (circuit.n_qubits - n + i,)) for i, b in enumerate(bits) if b)
        return QuantumCircuit(circuit.n_qubits, load + circuit.gates, n_input=0)

    return QmaLanguage("policy", n, 0, 1.0, 0.0, build,
                       pack_fields(b"policy", format_circuit(circuit).encode()))


def make_share_language(inner: QmaLanguage, commitments: tuple[bytes, ...]) -> QmaLanguage:
    """Derived language for secret sharing: the statement is the commitment
    tuple; the classical witness holds per-party openings (16 bytes each,
    zero-filled when absent); a party's bit is set exactly when its opening
    matches its commitment. The inner language's verifier then runs on that
    subset string with the quantum witness part."""
    N = len(commitments)

    def build(x: bytes, cw: bytes):
        openings = [cw[i * KEY_LEN:(i + 1) * KEY_LEN] for i in range(N)]
        bits = 0
        for i, (c_i, r_i) in enumerate(zip(commitments, openings)):
            if len(r_i) == KEY_LEN and commit(bytes([i + 1]), r_i) == c_i:
                bits |= 1 << (N - 1 - i)
        subset = bits.to_bytes((inner.statement_bits + 7) // 8, "big")
        return inner.verifier(subset)

    ref = pack_fields(b"share", inner.ref, *commitments)
    return QmaLanguage("share:" + inner.name, 8 * len(b"".join(commitments)),
                       inner.witness_qubits, inner.alpha, inner.beta, build, ref,
                       reps=inner.reps)


# universal policy family of the key-policy ABE wrapper: id 1 is odd parity
# of a 4-bit attribute, id 2 at-least-2-of-3, id 3 never
POLICY_FAMILY: dict[int, QuantumCircuit] = {
    1: QuantumCircuit(5, tuple(("CNOT", (i, 0)) for i in range(1, 5)), n_input=4),
    2: QuantumCircuit(5, (("CCX", (2, 3, 1)), ("CCX", (2, 4, 1)),
                          ("CCX", (3, 4, 1)), ("CNOT", (1, 0)),
                          ("CCX", (2, 3, 1)), ("CCX", (2, 4, 1))), n_input=3),
    3: QuantumCircuit(2, (), n_input=1),
}


def make_universal_language(x_attr: bytes) -> QmaLanguage:
    """BQP language whose instances are policy-family ids: instance pid is a
    yes-instance exactly when that family circuit accepts the attribute x_attr."""

    def build(pid_bytes: bytes, cw: bytes):
        circ = POLICY_FAMILY.get(int.from_bytes(pid_bytes, "big"))
        if circ is None:
            return QuantumCircuit(1, (), n_input=0)  # unknown policy: reject
        return make_policy_language(circ).verifier(x_attr)

    return QmaLanguage("upolicy", 8 * ATTR_WIRE_BYTES, 0, 1.0, 0.0, build,
                       pack_fields(b"upolicy", x_attr))


# named fixtures (CLI `--lang` and serialized references)

FIXTURES = {
    "par4": lambda: make_parity_language(4),
    "par8": lambda: make_parity_language(8),
    "ghz": make_ghz_language,
    "th23": lambda: make_threshold_language(3, 2),
    "null0": lambda: make_null_language(0),
    "null3": lambda: make_null_language(3),
}


def resolve_language(ref: bytes) -> QmaLanguage:
    """Rebuild a language from its reference. Every kind but `share` takes a
    fixed parameter list; a field after it raises MalformedCiphertext."""
    r = Reader(ref)
    kind = r.field()
    if kind == b"share":
        inner = resolve_language(r.field())
        commitments = []
        while not r.done():
            commitments.append(r.field())
        return make_share_language(inner, tuple(commitments))
    if kind == b"par":
        L = make_parity_language(fixed(r.field(), 1)[0])
    elif kind == b"ghz":
        L = make_ghz_language()
    elif kind == b"th":
        n, t = fixed(r.field(), 2)
        L = make_threshold_language(n, t)
    elif kind == b"null":
        L = make_null_language(fixed(r.field(), 1)[0])
    elif kind == b"policy":
        L = make_policy_language(parse_circuit(utf8(r.field())))
    elif kind == b"upolicy":
        L = make_universal_language(r.field())
    else:
        raise MalformedCiphertext(f"unknown language reference kind {kind!r}")
    r.end()
    return L


def fixture(name: str) -> QmaLanguage:
    if name not in FIXTURES:
        raise MalformedCiphertext(f"unknown language fixture {name!r}")
    return FIXTURES[name]()


# ---------------------------------------------------------------------------
# pseudo-deterministic circuits with a classical output register


@dataclass(frozen=True)
class PseudoDetCircuit:
    """Amplified decision circuit with a declared output map: the majority
    decision bit selects a 16-byte register value. Per-input probability
    certificates come from the exact simulator."""

    circuit: QuantumCircuit
    reps: int
    output_map: tuple[bytes, bytes]  # value on decision 0, value on decision 1

    def decision_probability(self, x_bits) -> float:
        p = accept_probability(self.circuit, x_bits)
        return _binom_tail(self.reps, p)

    def run(self, x_bits, drbg: Drbg) -> bytes:
        # a decoded circuit may carry reps = 0, which draws nothing
        p1 = accept_probability(self.circuit, x_bits) if self.reps else 0.0
        return self.output_map[_majority(p1, self.reps, drbg, "rep")]

    def to_bytes(self) -> bytes:
        return pack_fields(format_circuit(self.circuit).encode(),
                           bytes([self.reps]), self.output_map[0], self.output_map[1])

    @classmethod
    def from_bytes(cls, blob: bytes) -> "PseudoDetCircuit":
        text, reps, m0, m1 = unpack_fields(blob, 4)
        return cls(parse_circuit(utf8(text)), fixed(reps, 1)[0], (m0, m1))
