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

``dilated_isometry`` is the minimal dilation W = sum_k A_k (x) |k>: its
environment is the Kraus rank, at most d_in * d_out, not 2^l.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, Gate, _WireTracker, named_gate
from .linalg import check_wires


@dataclass(eq=False)
class DilatedCircuit:
    """A unitary circuit on n + k = m + l wires simulating a channel.

    Running ``unitary_circuit`` on rho (x) |0^k><0^k| and tracing
    ``garbage_wires`` reproduces the source circuit's action on rho, with
    the output read off ``output_wires`` in order: the first m wires, and
    the l garbage wires after them.
    """

    unitary_circuit: Circuit
    k: int
    l: int

    @property
    def n_in(self) -> int:
        return self.unitary_circuit.n_in - self.k

    @property
    def n_out(self) -> int:
        return self.n_wires - self.l

    @property
    def n_wires(self) -> int:
        return self.unitary_circuit.n_in

    @property
    def output_wires(self) -> list[int]:
        return list(range(self.n_out))

    @property
    def garbage_wires(self) -> list[int]:
        return list(range(self.n_out, self.n_wires))


def dilate(c: Circuit) -> DilatedCircuit:
    """Unitary dilation of ``c`` with canonical output/garbage wire layout.

    Each ancilla and each decohere adds one wire, so the width is refused
    by arithmetic before any gate is built.
    """
    n = c.n_in
    check_wires(n + sum(g.kind in ("ancilla", "decohere") for g in c.gates), "dilation wires")
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
        else:
            gates.append(named_gate("CNOT", (mapping[g.wires[0]], next_fresh)))
            garbage.append(next_fresh)
            next_fresh += 1
    router = _WireTracker(range(next_fresh))
    router.route_outputs(mapping + garbage)
    gates += router.gates
    unitary_circuit = Circuit(f"{c.name}_dilated", next_fresh, tuple(gates))
    return DilatedCircuit(unitary_circuit, k=next_fresh - n, l=len(garbage))


def dilated_isometry(kraus, env_dim: int) -> np.ndarray:
    """W[o, k, i] = A_k[o, i], shape (d_out, env_dim, d_in), from a Kraus stack.

    ``W.reshape(-1, d_in)`` maps the input into output (x) environment.
    ``env_dim`` pads the stack with zero operators to a shared environment.
    """
    ops = np.asarray(kraus, dtype=np.complex128)
    pad = env_dim - len(ops)  # np.pad refuses pad < 0
    return np.pad(ops, ((0, pad), (0, 0), (0, 0))).transpose(1, 0, 2)
