import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qnk import qsim
from qnk.errors import MalformedCircuit, TooManyQubits, WidthMismatch
from qnk.qma import PseudoDetCircuit
from qnk.qsim import (
    PauliHamiltonian,
    QuantumCircuit,
    StateVector,
    accept_probability,
    apply_gate,
    dense_matrix,
    expectation,
    format_circuit,
    ground_energy,
    history_state,
    measure_qubit,
    parse_circuit,
    propagation_hamiltonian,
    run_circuit,
    run_unitary,
)
from qnk.rand import Drbg
from qnk.wire import pack_fields


SQ2 = 1 / np.sqrt(2.0)
GATE_MATRICES = {
    "H": [[SQ2, SQ2], [SQ2, -SQ2]],
    "X": [[0, 1], [1, 0]],
    "Z": [[1, 0], [0, -1]],
    "S": [[1, 0], [0, 1j]],
    "T": [[1, 0], [0, np.exp(1j * np.pi / 4)]],
}
PAULI_MATRICES = {
    "I": [[1, 0], [0, 1]],
    "X": [[0, 1], [1, 0]],
    "Y": [[0, -1j], [1j, 0]],
    "Z": [[1, 0], [0, -1]],
}


@pytest.mark.parametrize("table, expected", [("GATES_1Q", GATE_MATRICES),
                                              ("PAULI", PAULI_MATRICES)])
def test_lazy_tables_match_literal_matrices(table, expected):
    got = getattr(qsim, table)
    assert sorted(got) == sorted(expected)
    for name, rows in expected.items():
        assert got[name].dtype == complex, name
        assert np.array_equal(got[name], np.array(rows, dtype=complex)), name


class TestRunCircuit:
    def test_hadamard_half(self):
        Q = QuantumCircuit(1, (("H", (0,)),))
        _, p = run_circuit(Q, [], Drbg(1))
        assert abs(p - 0.5) < 1e-12

    def test_x_gate_certain(self):
        Q = QuantumCircuit(1, (("X", (0,)),))
        bit, p = run_circuit(Q, [], Drbg(1))
        assert p == pytest.approx(1.0) and bit == 1

    def test_parity_fanin(self):
        Q = QuantumCircuit(4, (("CNOT", (1, 0)), ("CNOT", (2, 0)), ("CNOT", (3, 0))),
                           n_input=3)
        # dense matrix-vector oracle
        for bits in ((1, 0, 1), (1, 1, 1), (0, 0, 0)):
            sv = run_unitary(Q, list(bits))
            want = sum(bits) % 2
            assert sv.prob_of(0, want) == pytest.approx(1.0)

    def test_qubit_cap(self):
        with pytest.raises(TooManyQubits):
            QuantumCircuit(13, ())

    @pytest.mark.parametrize("text", ["qubits 0\ninput 0\n", "qubits -1\n"])
    def test_circuit_needs_its_output_qubit(self, text):
        with pytest.raises(MalformedCircuit, match="qubit 0"):
            parse_circuit(text)
        with pytest.raises(MalformedCircuit, match="qubit 0"):
            PseudoDetCircuit.from_bytes(pack_fields(text.encode(), b"\x01", bytes(16), bytes(16)))

    def test_circuit_input_count_is_not_negative(self):
        with pytest.raises(MalformedCircuit, match="negative"):
            parse_circuit("qubits 3\ninput -1\nX 0\n")
        with pytest.raises(MalformedCircuit, match="negative"):
            QuantumCircuit(3, (), n_input=-1)

    def test_bad_gate_target(self):
        with pytest.raises(MalformedCircuit):
            QuantumCircuit(1, (("CNOT", (0, 1)),))

    @pytest.mark.parametrize("gate", [("CNOT", (1, 1)), ("CCX", (0, 2, 0))])
    def test_duplicate_gate_target(self, gate):
        with pytest.raises(MalformedCircuit, match="duplicate targets"):
            QuantumCircuit(3, (gate,))

    @pytest.mark.parametrize("bits", [[0, 3], [2, 0], [-1, 1], [0, 0.5], "02", "0a", [0, "x"]])
    def test_input_bits_must_be_0_or_1(self, bits):
        Q = QuantumCircuit(2, (), n_input=2)
        with pytest.raises(WidthMismatch, match="must be 0 or 1"):
            run_circuit(Q, bits)

    @pytest.mark.parametrize("bits", [[2], [1, 5], "2", "1b"])
    def test_from_bits_takes_only_0_or_1(self, bits):
        with pytest.raises(WidthMismatch, match="must be 0 or 1"):
            StateVector.from_bits(bits)

    @pytest.mark.parametrize("bits", [[0, 1], (0, 1), "01", [False, True], ["0", "1"]])
    def test_bit_spellings_agree(self, bits):
        Q = QuantumCircuit(2, (("CNOT", (1, 0)),), n_input=2)
        assert run_circuit(Q, bits) == (1, 1.0)
        assert np.array_equal(StateVector.from_bits(bits).amps, [0, 1, 0, 0])


class TestMeasure:
    def test_zero_state_computational(self):
        bit, post = measure_qubit(StateVector(1), 0, "computational", Drbg(1))
        assert bit == 0 and post.prob_of(0, 0) == pytest.approx(1.0)

    def test_plus_state_hadamard(self):
        sv = StateVector(1, [2 ** -0.5, 2 ** -0.5])
        for seed in range(20):
            bit, _ = measure_qubit(sv.copy(), 0, "hadamard", Drbg(seed))
            assert bit == 0

    def test_plus_state_computational_frequency(self):
        sv = StateVector(1, [2 ** -0.5, 2 ** -0.5])
        d = Drbg(2)
        shots = 10 ** 4
        ones = sum(measure_qubit(sv.copy(), 0, "computational", d.child(f"s{i}"))[0]
                   for i in range(shots))
        sigma = (shots * 0.25) ** 0.5
        assert abs(ones - shots / 2) <= 3 * sigma

    def test_post_state_renormalized(self):
        sv = StateVector(2, [0.6, 0, 0.8, 0])
        _, post = measure_qubit(sv, 0, "computational", Drbg(3))
        assert abs(post.norm() - 1.0) < 1e-9


class TestHistoryState:
    def test_no_gates_is_plain_input(self):
        Q = QuantumCircuit(2, (), n_input=2)
        h = history_state(Q, [1, 0])
        assert h.n_qubits == 2
        assert h.prob_of(0, 1) == pytest.approx(1.0)

    def test_single_x_makes_bell_pair(self):
        Q = QuantumCircuit(1, (("X", (0,)),), n_input=1)
        h = history_state(Q, [0])
        assert np.allclose(h.amps, [2 ** -0.5, 0, 0, 2 ** -0.5])

    def test_norm_one_random_circuits(self):
        d = Drbg(4)
        pool = ["H", "X", "Z", "S", "T"]
        for _ in range(10):
            gates = tuple((pool[d.randint(0, 4)], (d.randint(0, 1),)) for _ in range(3))
            Q = QuantumCircuit(2, gates, n_input=2)
            h = history_state(Q, [d.bit(), d.bit()])
            assert abs(h.norm() - 1.0) < 1e-9

    def test_qubit_budget(self):
        Q = QuantumCircuit(5, tuple(("X", (0,)),) * 0 + tuple([("X", (0,))] * 8),
                           n_input=5)
        with pytest.raises(TooManyQubits):
            history_state(Q, [0] * 5)


class TestHamiltonians:
    def test_z_expectations(self):
        H = PauliHamiltonian(1, ((1.0, "Z"),))
        assert expectation(H, StateVector.from_bits([0])) == pytest.approx(1.0)
        assert expectation(H, StateVector.from_bits([1])) == pytest.approx(-1.0)

    def test_two_gate_propagation_annihilates(self):
        Q = QuantumCircuit(1, (("H", (0,)), ("T", (0,))), n_input=1)
        h = history_state(Q, [0])
        H = propagation_hamiltonian(Q)
        assert abs(expectation(H, h)) < 1e-9
        # annihilation, not just zero mean
        M = dense_matrix(H)
        assert np.max(np.abs(M @ h.amps)) < 1e-9

    def test_ground_energy_of_z(self):
        H = PauliHamiltonian(2, ((1.0, "ZI"), (1.0, "IZ")))
        assert ground_energy(H) == pytest.approx(-2.0)

    def test_term_cap(self):
        with pytest.raises(WidthMismatch):
            PauliHamiltonian(1, tuple((1.0, "Z") for _ in range(65)))

    def test_propagation_ground_energy_nonnegative(self):
        Q = QuantumCircuit(1, (("X", (0,)),), n_input=1)
        assert ground_energy(propagation_hamiltonian(Q)) > -1e-9


def controlled_x_reference(amps, n, targets):
    """Index-level controlled X: flip the last target's bit (qubit 0 is the
    most significant) wherever every other target's bit is 1."""
    *controls, x = targets
    out = amps.copy()
    for i in range(2 ** n):
        if all(i >> (n - 1 - c) & 1 for c in controls):
            out[i] = amps[i ^ (1 << (n - 1 - x))]
    return out


@pytest.mark.parametrize("n", [3, 4, 5])
def test_controlled_x_matches_index_reference(n):
    rng = np.random.default_rng(n)
    amps = rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)
    for name in ("CNOT", "CCX"):
        for targets in itertools.permutations(range(n), qsim.GATE_ARITY[name]):
            sv = StateVector(n, amps.copy())
            apply_gate(sv, name, targets)
            assert np.array_equal(sv.amps, controlled_x_reference(amps, n, targets)), targets


def moveaxis_reference(amps, q, G):
    """A 2x2 matrix on qubit q the way the simulator once applied it: move
    the axis last with `np.moveaxis`, multiply, move it back."""
    n = amps.size.bit_length() - 1
    t = np.moveaxis(amps.reshape([2] * n), q, -1) @ G.T
    return np.moveaxis(t, -1, q).reshape(-1)


def pauli_word_reference(amps, word):
    for q, c in enumerate(word):
        if c != "I":
            amps = moveaxis_reference(amps, q, qsim.PAULI[c])
    return amps


def expectation_reference(H, amps):
    acc = 0.0
    for coeff, word in H.terms:
        acc += coeff * np.real(np.vdot(amps, pauli_word_reference(amps, word)))
    return float(acc)


@st.composite
def random_states(draw):
    n = draw(st.integers(1, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    return n, rng.normal(size=2 ** n) + 1j * rng.normal(size=2 ** n)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(random_states(), st.data())
def test_one_qubit_kernel_is_bit_identical_to_moveaxis(state, data):
    """Every one-qubit gate on every target, and a Pauli Hamiltonian, give the
    same bytes as the moveaxis kernel."""
    n, amps = state
    for name in sorted(GATE_MATRICES):
        for q in range(n):
            sv = StateVector(n, amps.copy())
            apply_gate(sv, name, (q,))
            want = moveaxis_reference(amps, q, qsim.GATES_1Q[name])
            assert sv.amps.tobytes() == want.tobytes(), (name, q)
    words = data.draw(st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=4))
    H = PauliHamiltonian(n, tuple((data.draw(st.floats(-2, 2)), w) for w in words))
    assert expectation(H, StateVector(n, amps)) == expectation_reference(H, amps)
    for word in words:
        assert (qsim._apply_pauli_word(amps, word).tobytes()
                == pauli_word_reference(amps, word).tobytes()), word


@pytest.mark.parametrize("name, targets", [("H", (0, 1)), ("CNOT", (0,)), ("CNOT", (0, 1, 2)),
                                           ("CCX", (0, 1)), ("SWAP", (0, 1)),
                                           ("CNOT", (2, 2)), ("X", (3,))])
def test_apply_gate_rejects_malformed_gate(name, targets):
    sv = StateVector(3)
    with pytest.raises(MalformedCircuit):
        apply_gate(sv, name, targets)
    assert np.array_equal(sv.amps, StateVector(3).amps)


@pytest.mark.parametrize("name, permutation", [("CNOT", [0, 1, 3, 2]),
                                               ("CCX", [0, 1, 2, 3, 4, 5, 7, 6])])
def test_propagation_unitary_is_the_controlled_x_permutation(name, permutation):
    """One gate on the whole data register: the clock-1-from-clock-0 block of
    the propagation Hamiltonian is -U/2."""
    k = len(permutation).bit_length() - 1
    H = propagation_hamiltonian(QuantumCircuit(k, ((name, tuple(range(k))),)))
    dim = 2 ** k
    U = np.eye(dim, dtype=complex)[:, permutation]
    assert np.array_equal(dense_matrix(H)[dim:, :dim], -0.5 * U)


class TestNormPreservation:
    def test_every_gate_preserves_norm(self):
        d = Drbg(5)
        sv = StateVector(3)
        apply_gate(sv, "H", (0,))
        apply_gate(sv, "H", (1,))
        for name, targets in (("X", (2,)), ("Z", (0,)), ("S", (1,)), ("T", (2,)),
                              ("CNOT", (0, 1)), ("CCX", (0, 1, 2)), ("H", (2,))):
            apply_gate(sv, name, targets)
            assert abs(sv.norm() - 1.0) < 1e-9


class TestTextFormat:
    def test_roundtrip(self):
        Q = QuantumCircuit(3, (("H", (0,)), ("CNOT", (0, 1)), ("CCX", (0, 1, 2)),
                               ("T", (2,))), n_input=2)
        text = format_circuit(Q)
        assert parse_circuit(text) == Q

    def test_grammar(self):
        Q = parse_circuit("qubits 2\ninput 1\n# comment\nH 0\nCNOT 0 1\n")
        assert Q.n_qubits == 2 and Q.n_input == 1 and len(Q.gates) == 2

    def test_unknown_directive(self):
        with pytest.raises(MalformedCircuit):
            parse_circuit("qubits 1\nFOO 0\n")

    def test_duplicate_target(self):
        with pytest.raises(MalformedCircuit, match="duplicate targets"):
            parse_circuit("qubits 2\nCNOT 1 1\n")

    def test_missing_header(self):
        with pytest.raises(MalformedCircuit):
            parse_circuit("H 0\n")

    @pytest.mark.parametrize("text", ["qubits\n", "qubits x\n", "qubits 2\nCNOT 0 y\n"])
    def test_missing_or_non_integer_argument(self, text):
        with pytest.raises(MalformedCircuit):
            parse_circuit(text)


def test_accept_probability_matches_sampling():
    Q = QuantumCircuit(2, (("H", (0,)), ("CNOT", (0, 1))), n_input=0)
    p = accept_probability(Q, [])
    d = Drbg(6)
    shots = 10 ** 4
    hits = sum(run_circuit(Q, [], d.child(f"s{i}"))[0] for i in range(shots))
    sigma = (shots * p * (1 - p)) ** 0.5
    assert abs(hits - shots * p) <= 3 * sigma
