"""Compile mixed-state circuits into unitary circuits with ancilla and garbage.

The dilation is per-gate minimal rather than the generic recipe that spends
two environment qubits per output: unitary gates pass through, an ancilla
becomes a wire initialized |0>, a trace reclassifies its wire as garbage,
and a decohere becomes a CNOT into a fresh ancilla that is then garbage.
Ancilla and garbage counts are linear in the gate count.

After the source gates, SWAP gates route the channel's output wires to
positions 0..m-1 and the garbage wires to positions m..m+l-1, so every
dilation of a type-(n, m) circuit presents the same output/garbage wire
partition.  The reduction that exchanges the roles of output and garbage
relies on this shared layout.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, named_gate, unitary_gate
from .linalg import DIM_CAP, as_matrix, check_wires, partial_trace
from .simulate import simulate

SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    dtype=np.complex128,
)


@dataclass(eq=False)
class DilatedCircuit:
    """A unitary circuit on n + k = m + l wires simulating a channel.

    Running ``unitary_circuit`` on rho (x) |0^k><0^k| and tracing
    ``garbage_wires`` reproduces the source circuit's action on rho, with
    the output read off ``output_wires`` in order.
    """

    unitary_circuit: Circuit
    k: int
    l: int
    output_wires: list[int]
    garbage_wires: list[int]

    @property
    def n_in(self) -> int:
        return self.unitary_circuit.n_in - self.k

    @property
    def n_out(self) -> int:
        return len(self.output_wires)

    @property
    def n_wires(self) -> int:
        return self.unitary_circuit.n_in


def dilate(c: Circuit, cap: int = DIM_CAP) -> DilatedCircuit:
    """Unitary dilation of ``c`` with canonical output/garbage wire layout."""
    n = c.n_in
    mapping = list(range(n))
    garbage: list[int] = []
    next_fresh = n
    gates: list[Gate] = []
    for g in c.gates:
        if g.kind == "unitary":
            gates.append(
                Gate("unitary", tuple(mapping[w] for w in g.wires), g.matrix, g.label)
            )
        elif g.kind == "ancilla":
            mapping.append(next_fresh)
            next_fresh += 1
        elif g.kind == "trace":
            garbage.append(mapping.pop(g.wires[0]))
        elif g.kind == "decohere":
            gates.append(named_gate("CNOT", (mapping[g.wires[0]], next_fresh)))
            garbage.append(next_fresh)
            next_fresh += 1
        else:
            raise ValueError(f"unknown gate kind {g.kind!r}")
        check_wires(next_fresh, cap, "dilation wires")
    n_wires = next_fresh
    k = n_wires - n
    m = len(mapping)
    l = len(garbage)
    # Route outputs to wires 0..m-1 (in order) and garbage to m..m+l-1.
    target = {w: i for i, w in enumerate(mapping)}
    target.update({w: m + j for j, w in enumerate(garbage)})
    content = list(range(n_wires))
    want = [None] * n_wires
    for wire, pos in target.items():
        want[pos] = wire
    for pos in range(n_wires):
        if content[pos] == want[pos]:
            continue
        src = content.index(want[pos], pos + 1)
        gates.append(unitary_gate(SWAP, (pos, src)))
        content[pos], content[src] = content[src], content[pos]
    unitary_circuit = Circuit(f"{c.name}_dilated", n_wires, tuple(gates))
    return DilatedCircuit(
        unitary_circuit=unitary_circuit,
        k=k,
        l=l,
        output_wires=list(range(m)),
        garbage_wires=list(range(m, m + l)),
    )


def dilated_apply(d: DilatedCircuit, rho: np.ndarray, cap: int = DIM_CAP) -> np.ndarray:
    """Run the dilation on rho (x) |0^k><0^k| and trace out the garbage."""
    rho = as_matrix(rho)
    state = rho
    for _ in range(d.k):
        state = np.kron(state, np.array([[1, 0], [0, 0]], dtype=np.complex128))
    state = simulate(d.unitary_circuit, state, 0, cap)
    n_wires = d.n_wires
    return partial_trace(state, [2] * n_wires, list(range(d.n_out)))


def expand_unitary_matrix(u: np.ndarray, wires, n: int) -> np.ndarray:
    """Embed a gate matrix into the full 2^n space on the given wires."""
    a = len(wires)
    rest = [q for q in range(n) if q not in wires]
    order = list(wires) + rest
    full = np.kron(u, np.eye(2 ** (n - a), dtype=np.complex128))
    idx = np.arange(2**n)
    shifts = np.array([n - 1 - q for q in order])
    bits = (idx[:, None] >> shifts[None, :]) & 1
    weights = 1 << np.arange(n - 1, -1, -1)
    pi = bits @ weights
    return full[np.ix_(pi, pi)]


def dilated_unitary(d: DilatedCircuit) -> np.ndarray:
    """Full matrix of the dilation's unitary circuit."""
    n = d.n_wires
    u = np.eye(2**n, dtype=np.complex128)
    for g in d.unitary_circuit.gates:
        u = expand_unitary_matrix(g.matrix, g.wires, n) @ u
    return u


def dilated_isometry(d: DilatedCircuit) -> np.ndarray:
    """The isometry W = U (I (x) |0^k>) from the input space to output (x) garbage."""
    u = dilated_unitary(d)
    cols = np.arange(2**d.n_in) * (2**d.k)
    return u[:, cols]
