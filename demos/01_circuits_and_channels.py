"""Build mixed-state circuits, run them, and inspect their channels.

Circuits are plain text: unitary gates plus ancilla (fresh |0> wire),
trace (discard a wire), and decohere (kill off-diagonals on one qubit).
"""

import numpy as np

from qcdist import apply_extended, choi_of, kraus_of, parse_circuit, serialize_circuit, validate

# A circuit that entangles the input with a fresh ancilla, decoheres the
# ancilla, and throws it away: the Z-basis dephasing channel in disguise.
text = """\
circuit dephase_via_environment inputs 1
ancilla
gate CNOT 0 1
decohere 1
trace 1
end
"""
circuit = parse_circuit(text)
print("type:", (circuit.n_in, circuit.n_out))
print("violations:", validate(circuit))

# Run it on |+><+| with no reference qubits: coherence dies, populations survive.
plus = np.full((2, 2), 0.5, dtype=complex)
print("\n|+><+| goes to:")
print(np.round(apply_extended(circuit, plus, 0), 6))

# The channel object is its Choi matrix; Kraus operators are extracted from it.
channel = choi_of(circuit)
print("\nChoi matrix (output factor first):")
print(np.round(channel.choi.real, 6))
print("\nKraus operators:")
for op in kraus_of(channel):
    print(np.round(op, 6))

# Serialization round-trips exactly (17 significant digits per entry).
assert parse_circuit(serialize_circuit(circuit)).n_out == circuit.n_out
print("\nserialized form:\n" + serialize_circuit(circuit))
