"""Dense statevector simulator, capped at 12 qubits.

Gate set {H, X, Z, S, T, CNOT, CCX} plus an implicit terminal computational
measurement of qubit 0. Also hosts Pauli-term Hamiltonians, the unary-clock
history-state construction for a circuit's run, and the matching propagation
Hamiltonian whose kernel contains the history state.

Every Born-rule draw goes through `sample_bit(p1, drbg)`, so a caller that
needs several independent outcomes of one (circuit, input) pair simulates it
once and draws each outcome from its own child stream.

Qubit 0 is the most significant index bit. Circuit inputs occupy the LAST
``n_input`` qubits; every other qubit (including the output qubit 0) starts
in |0>.

numpy is imported on the first simulation, not with this module. Most qnk
actions (key generation, encryption, verification) never simulate, and
importing numpy is the largest part of a cold CLI process's start-up. So
`np` starts as a stand-in that imports numpy on its first attribute access
and rebinds `np` to it; the gate tables `GATES_1Q` and `PAULI` are built at
that moment, and reading either from outside the module loads numpy too.
Circuit parsing, formatting and validation use `GATE_ARITY` alone.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import MalformedCircuit, TooManyQubits, WidthMismatch
from .memo import memo
from .rand import Drbg

MAX_QUBITS = 12

_SQ2 = 1.0 / math.sqrt(2.0)
GATE_ARITY = {"H": 1, "X": 1, "Z": 1, "S": 1, "T": 1, "CNOT": 2, "CCX": 3}
MAX_PAULI_TERMS = 256


def _load_numpy():
    """Import numpy, build the gate tables from it and bind it to `np`, last,
    so code that sees numpy in `np` also sees the tables. Once done, later
    calls return numpy at once."""
    global np, GATES_1Q, PAULI
    if not isinstance(np, _NumpyOnFirstUse):
        return np
    import numpy
    GATES_1Q = {
        "H": numpy.array([[_SQ2, _SQ2], [_SQ2, -_SQ2]], dtype=complex),
        "X": numpy.array([[0, 1], [1, 0]], dtype=complex),
        "Z": numpy.array([[1, 0], [0, -1]], dtype=complex),
        "S": numpy.array([[1, 0], [0, 1j]], dtype=complex),
        "T": numpy.array([[1, 0], [0, numpy.exp(1j * numpy.pi / 4)]], dtype=complex),
    }
    PAULI = {
        "I": numpy.eye(2, dtype=complex),
        "X": numpy.array([[0, 1], [1, 0]], dtype=complex),
        "Y": numpy.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": numpy.array([[1, 0], [0, -1]], dtype=complex),
    }
    np = numpy
    return numpy


class _NumpyOnFirstUse:
    """Stand-in for numpy until the first attribute access, which loads it;
    from then on `np` is numpy itself, so simulation reads plain globals."""

    def __getattr__(self, name: str):
        return getattr(_load_numpy(), name)


np = _NumpyOnFirstUse()


def __getattr__(name: str):
    if name in ("GATES_1Q", "PAULI"):
        _load_numpy()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# state vectors


def _as_bits(bits) -> list[int]:
    """A bitstring or a sequence of bits as 0/1 ints; any other entry is a
    WidthMismatch."""
    if any(b not in (0, 1, "0", "1") for b in bits):
        raise WidthMismatch("input bits must be 0 or 1")
    return [int(b) for b in bits]


class StateVector:
    """Single-owner mutable amplitude buffer over n qubits."""

    def __init__(self, n_qubits: int, amps: np.ndarray | None = None):
        if n_qubits > MAX_QUBITS:
            raise TooManyQubits(f"{n_qubits} qubits exceeds the {MAX_QUBITS}-qubit cap")
        self.n_qubits = n_qubits
        if amps is None:
            amps = np.zeros(2 ** n_qubits, dtype=complex)
            amps[0] = 1.0
        else:
            amps = np.asarray(amps, dtype=complex)
            if amps.shape != (2 ** n_qubits,):
                raise WidthMismatch("amplitude vector has wrong dimension")
        self.amps = amps

    @classmethod
    def from_bits(cls, bits: str | list[int]) -> "StateVector":
        bits = _as_bits(bits)
        sv = cls(len(bits))
        sv.amps[0] = 0.0
        idx = 0
        for b in bits:
            idx = (idx << 1) | b
        sv.amps[idx] = 1.0
        return sv

    def copy(self) -> "StateVector":
        return StateVector(self.n_qubits, self.amps.copy())

    def norm(self) -> float:
        return float(np.sqrt(np.sum(np.abs(self.amps) ** 2)))

    def tensor(self, other: "StateVector") -> "StateVector":
        return StateVector(self.n_qubits + other.n_qubits, np.kron(self.amps, other.amps))

    def prob_of(self, qubit: int, value: int) -> float:
        """Exact probability of observing `value` on `qubit` in the computational basis."""
        t = self.amps.reshape([2] * self.n_qubits)
        probs = np.abs(t) ** 2
        axes = tuple(i for i in range(self.n_qubits) if i != qubit)
        marg = probs.sum(axis=axes)
        return float(marg[value])

    def project(self, assignments: dict[int, int]) -> tuple["StateVector", float]:
        """Project onto given qubit values; returns (normalized state, probability)."""
        t = self.amps.reshape([2] * self.n_qubits).copy()
        for q, v in assignments.items():
            idx = [slice(None)] * self.n_qubits
            idx[q] = 1 - v
            t[tuple(idx)] = 0.0
        flat = t.reshape(-1)
        p = float(np.sum(np.abs(flat) ** 2))
        if p > 1e-300:
            flat = flat / np.sqrt(p)
        return StateVector(self.n_qubits, flat), p


def _check_gate(name: str, targets: tuple[int, ...], n_qubits: int) -> None:
    """The gate is known, has its arity of targets, and they are distinct
    qubits of an n_qubits register."""
    if name not in GATE_ARITY:
        raise MalformedCircuit(f"unknown gate {name!r}")
    if len(targets) != GATE_ARITY[name]:
        raise MalformedCircuit(f"gate {name} expects {GATE_ARITY[name]} targets")
    for q in targets:
        if not 0 <= q < n_qubits:
            raise MalformedCircuit(f"gate {name} targets out-of-range qubit {q}")
    if len(set(targets)) != len(targets):
        raise MalformedCircuit(f"gate {name} has duplicate targets {targets}")


def _apply_1q(t: np.ndarray, q: int, G: np.ndarray) -> np.ndarray:
    """The 2x2 matrix `G` applied to axis `q` of the n-axis tensor `t`: move
    `q` last, multiply, move it back. The two transposes are the axis orders
    `np.moveaxis` would compute, so the matmul sees the same strided view and
    the amplitudes are bit-identical to the moveaxis kernel."""
    n = t.ndim
    t = t.transpose((*range(q), *range(q + 1, n), q)) @ G.T
    return t.transpose((*range(q), n - 1, *range(q, n - 1)))


def apply_gate(state: StateVector, name: str, targets: tuple[int, ...]) -> None:
    """In-place gate application. Every multi-qubit gate is a controlled X:
    the last target flips where all the others are 1."""
    n = state.n_qubits
    _check_gate(name, targets, n)
    t = state.amps.reshape([2] * n)
    if len(targets) == 1:
        state.amps = _apply_1q(t, targets[0], GATES_1Q[name]).reshape(-1)
    else:
        *controls, x = targets
        t = t.copy()
        idx = [slice(None)] * n
        for c in controls:
            idx[c] = 1
        xq = x - sum(1 for c in controls if c < x)  # x's axis once controls are fixed
        t[tuple(idx)] = np.flip(t[tuple(idx)], axis=xq).copy()
        state.amps = t.reshape(-1)


def sample_bit(p1: float, drbg: Drbg) -> int:
    """Born-rule draw with 64-bit precision: 1 with probability `p1`."""
    return 1 if int.from_bytes(drbg.bytes(8), "big") / 2 ** 64 < p1 else 0


# ---------------------------------------------------------------------------
# circuits


@dataclass(frozen=True)
class QuantumCircuit:
    """Unitary gate list; the classical output is a terminal computational
    measurement of qubit 0. Inputs fill the last `n_input` qubits."""

    n_qubits: int
    gates: tuple[tuple[str, tuple[int, ...]], ...]
    n_input: int = 0

    def __post_init__(self):
        if self.n_qubits < 1:
            raise MalformedCircuit("a circuit needs qubit 0, its output")
        if self.n_input < 0:
            raise MalformedCircuit("a circuit cannot take a negative number of inputs")
        if self.n_qubits > MAX_QUBITS:
            raise TooManyQubits(f"{self.n_qubits} qubits exceeds the cap")
        if self.n_input > self.n_qubits:
            raise WidthMismatch("more input qubits than qubits")
        for name, targets in self.gates:
            _check_gate(name, targets, self.n_qubits)


def prepare_input(Q: QuantumCircuit, inp) -> StateVector:
    """Ancilla-pad an input (bitstring over the input qubits, or a full/partial
    StateVector) into a full-width register."""
    if inp is None:
        inp = [0] * Q.n_input
    if isinstance(inp, StateVector):
        if inp.n_qubits == Q.n_qubits:
            return inp.copy()
        if inp.n_qubits != Q.n_input:
            raise WidthMismatch(
                f"input has {inp.n_qubits} qubits, circuit takes {Q.n_input}")
        anc = StateVector(Q.n_qubits - inp.n_qubits)
        return anc.tensor(inp)
    bits = _as_bits(inp)
    if len(bits) != Q.n_input:
        raise WidthMismatch(f"input has {len(bits)} bits, circuit takes {Q.n_input}")
    return StateVector.from_bits([0] * (Q.n_qubits - len(bits)) + bits)


def run_unitary(Q: QuantumCircuit, inp) -> StateVector:
    state = prepare_input(Q, inp)
    for name, targets in Q.gates:
        apply_gate(state, name, targets)
    return state


def run_circuit(Q: QuantumCircuit, inp, drbg: Drbg | None = None) -> tuple[int, float]:
    """Returns (sampled output bit, exact probability that the output is 1)."""
    p1 = accept_probability(Q, inp)
    if drbg is None:
        return (1 if p1 > 0.5 else 0), p1
    return sample_bit(p1, drbg), p1


def accept_probability(Q: QuantumCircuit, inp) -> float:
    """Exact probability that the output qubit reads 1. The values of the 16
    most recent (circuit, input value) pairs are kept, so judging one circuit
    on one input again in a process skips the simulation: `we dec` of a k-bit
    message judges one claim on one witness k times. The memo keys a
    StateVector on its width and amplitude bytes, never on the mutable
    object, and any other input on the tuple of its bits."""
    if isinstance(inp, StateVector):
        return _accept_probability(Q, inp.n_qubits, inp.amps.tobytes())
    return _accept_probability(Q, None, tuple(_as_bits([0] * Q.n_input if inp is None else inp)))


@memo(16)  # a 12-qubit key holds 64 KB of amplitudes: at most 1 MB in all
def _accept_probability(Q: QuantumCircuit, n_qubits: int | None, inp: bytes | tuple) -> float:
    if n_qubits is not None:
        inp = StateVector(n_qubits, np.frombuffer(inp, dtype=complex))
    return run_unitary(Q, inp).prob_of(0, 1)


# ---------------------------------------------------------------------------
# circuit text format: "qubits N" / "input K" directives then one gate per line


def format_circuit(Q: QuantumCircuit) -> str:
    lines = [f"qubits {Q.n_qubits}", f"input {Q.n_input}"]
    lines += [" ".join([name] + [str(t) for t in targets]) for name, targets in Q.gates]
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> QuantumCircuit:
    n_qubits = None
    n_input = 0
    gates = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        try:
            if head == "qubits":
                n_qubits = int(parts[1])
            elif head == "input":
                n_input = int(parts[1])
            elif head.upper() in GATE_ARITY:
                gates.append((head.upper(), tuple(int(t) for t in parts[1:])))
            else:
                raise MalformedCircuit(f"line {lineno}: unknown directive {head!r}")
        except (IndexError, ValueError) as e:
            raise MalformedCircuit(f"line {lineno}: missing or non-integer argument") from e
    if n_qubits is None:
        raise MalformedCircuit("missing 'qubits' directive")
    return QuantumCircuit(n_qubits, tuple(gates), n_input)


# ---------------------------------------------------------------------------
# Pauli Hamiltonians


@dataclass(frozen=True)
class PauliHamiltonian:
    """Real-weighted Pauli words (Hermitian by construction)."""

    n_qubits: int
    terms: tuple[tuple[float, str], ...]

    def __post_init__(self):
        if len(self.terms) > MAX_PAULI_TERMS:
            raise WidthMismatch(f"{len(self.terms)} terms exceeds cap {MAX_PAULI_TERMS}")
        for _, word in self.terms:
            if len(word) != self.n_qubits or any(c not in "IXYZ" for c in word):
                raise WidthMismatch(f"bad Pauli word {word!r}")


def _apply_pauli_word(amps: np.ndarray, word: str) -> np.ndarray:
    n = len(word)
    t = amps.reshape([2] * n)
    for q, c in enumerate(word):
        if c == "I":
            continue
        t = _apply_1q(t, q, PAULI[c])
    return t.reshape(-1)


def expectation(H: PauliHamiltonian, state: StateVector) -> float:
    if H.n_qubits != state.n_qubits:
        raise WidthMismatch("Hamiltonian and state widths differ")
    acc = 0.0
    for coeff, word in H.terms:
        acc += coeff * np.real(np.vdot(state.amps, _apply_pauli_word(state.amps, word)))
    return float(acc)


def _pauli_word_matrix(word: str) -> np.ndarray:
    P = np.eye(1, dtype=complex)
    for c in word:
        P = np.kron(P, PAULI[c])
    return P


def dense_matrix(H: PauliHamiltonian) -> np.ndarray:
    dim = 2 ** H.n_qubits
    M = np.zeros((dim, dim), dtype=complex)
    for coeff, word in H.terms:
        M += coeff * _pauli_word_matrix(word)
    return M


def ground_energy(H: PauliHamiltonian) -> float:
    if H.n_qubits > MAX_QUBITS:
        raise TooManyQubits("Hamiltonian too wide for exact diagonalization")
    return float(np.linalg.eigvalsh(dense_matrix(H))[0])


# ---------------------------------------------------------------------------
# history states (unary clock) and the matching propagation Hamiltonian


def history_state(Q: QuantumCircuit, inp) -> StateVector:
    """Uniform superposition over the circuit's run: clock qubits (unary
    encoding, one per gate) come first, then the data register.

        (T+1)^{-1/2} sum_t |1^t 0^(T-t)> |psi_t>
    """
    T = len(Q.gates)
    if T + Q.n_qubits > MAX_QUBITS:
        raise TooManyQubits(f"clock({T}) + data({Q.n_qubits}) exceeds {MAX_QUBITS}")
    psi = prepare_input(Q, inp)
    dim_d = 2 ** Q.n_qubits
    out = np.zeros(2 ** T * dim_d, dtype=complex)
    scale = 1.0 / np.sqrt(T + 1)
    for t in range(T + 1):
        if t > 0:
            apply_gate(psi, *Q.gates[t - 1])
        clock_idx = 0
        for i in range(T):
            clock_idx = (clock_idx << 1) | (1 if i < t else 0)
        out[clock_idx * dim_d:(clock_idx + 1) * dim_d] += scale * psi.amps
    return StateVector(T + Q.n_qubits, out)


def _pauli_decompose(U: np.ndarray, k: int) -> list[tuple[complex, str]]:
    """Decompose a 2^k x 2^k matrix over k-qubit Pauli words."""
    words = [""]
    for _ in range(k):
        words = [w + c for w in words for c in "IXYZ"]
    out = []
    for w in words:
        P = _pauli_word_matrix(w)
        coeff = np.trace(P.conj().T @ U) / 2 ** k
        if abs(coeff) > 1e-12:
            out.append((complex(coeff), w))
    return out


def propagation_hamiltonian(Q: QuantumCircuit) -> PauliHamiltonian:
    """Clock-transition penalty terms annihilating history_state(Q, .).

    Term t couples clock qubits (t-2, t-1, t) in the unary encoding and the
    data qubits touched by gate t. Each term is positive semidefinite with the
    history state in its kernel.
    """
    T = len(Q.gates)
    n = T + Q.n_qubits
    if T == 0:
        return PauliHamiltonian(n, ())
    acc: dict[str, complex] = {}

    proj = {0: [(0.5, "I"), (0.5, "Z")], 1: [(0.5, "I"), (-0.5, "Z")]}
    lower = [(0.5, "X"), (-0.5j, "Y")]  # |1><0|
    raise_ = [(0.5, "X"), (0.5j, "Y")]  # |0><1|

    def add(coeff: complex, word: str):
        if abs(coeff) > 1e-12:
            acc[word] = acc.get(word, 0) + coeff

    def emit(clock_factors: dict[int, list], data_op: list[tuple[complex, str]],
             data_qubits: tuple[int, ...], scale: complex):
        """Tensor out one clock pattern x data operator into full-width words."""
        combos = [(scale, {})]
        for cq, factors in clock_factors.items():
            combos = [(c * fc, {**m, cq: ch}) for c, m in combos for fc, ch in factors]
        for dcoeff, dword in data_op:
            for ccoeff, cmap in combos:
                word = ["I"] * n
                for cq, ch in cmap.items():
                    word[cq] = ch
                for dq, ch in zip(data_qubits, dword):
                    word[T + dq] = ch
                add(ccoeff * dcoeff, "".join(word))

    _load_numpy()  # binds GATES_1Q, read before any other numpy call below
    for t in range(1, T + 1):
        name, targets = Q.gates[t - 1]
        if len(targets) == 1:
            U = GATES_1Q[name]
        else:  # controlled X: swap the last two basis states
            dim = 2 ** len(targets)
            U = np.eye(dim, dtype=complex)[:, [*range(dim - 2), dim - 1, dim - 2]]
        u_terms = _pauli_decompose(U, len(targets))
        udag_terms = _pauli_decompose(U.conj().T, len(targets))
        ident = [(1.0 + 0j, "I" * len(targets))]

        # local clock patterns around transition t-1 -> t (clock qubits 0-based)
        prev_pat = {t - 2: proj[1]} if t >= 2 else {}
        next_pat = {t: proj[0]} if t < T else {}
        at_prev = {t - 1: proj[0], **prev_pat, **next_pat}   # clock == t-1
        at_cur = {t - 1: proj[1], **prev_pat, **next_pat}    # clock == t
        down = {t - 1: lower, **prev_pat, **next_pat}        # |t><t-1|
        up = {t - 1: raise_, **prev_pat, **next_pat}         # |t-1><t|

        emit(at_prev, ident, targets, 0.5)
        emit(at_cur, ident, targets, 0.5)
        emit(down, u_terms, targets, -0.5)
        emit(up, udag_terms, targets, -0.5)

    terms = []
    for word, coeff in sorted(acc.items()):
        if abs(coeff.imag) > 1e-9:
            raise WidthMismatch("non-Hermitian accumulation (internal error)")
        if abs(coeff.real) > 1e-12:
            terms.append((float(coeff.real), word))
    return PauliHamiltonian(n, tuple(terms))
