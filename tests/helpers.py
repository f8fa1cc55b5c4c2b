"""Shared test utilities: random objects and standard small circuits."""

import numpy as np
from hypothesis import strategies as st

from qcdist.circuits import (
    Circuit,
    ancilla_gate,
    decohere_gate,
    parse_circuit,
    serialize_circuit,
    trace_gate,
    unitary_gate,
)
from qcdist.linalg import partial_trace
from qcdist.simulate import simulate


def random_unitary(rng, dim):
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_density(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_state(rng, dim):
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2


def purification(rng, rho, d_aux):
    """Random purification of rho on system (x) auxiliary."""
    w, v = np.linalg.eigh(rho)
    w = np.clip(w, 0.0, None)
    u = random_unitary(rng, d_aux)
    psi = np.zeros(rho.shape[0] * d_aux, dtype=complex)
    for i in range(rho.shape[0]):
        psi += np.sqrt(w[i]) * np.kron(v[:, i], u[:, i % d_aux])
    return psi / np.linalg.norm(psi)


def identity_circuit(name="id", n=1):
    return parse_circuit(f"circuit {name} inputs {n}\nend")


def decohere_circuit(name="dec"):
    return parse_circuit(f"circuit {name} inputs 1\ndecohere 0\nend")


def z_circuit(name="z"):
    return parse_circuit(f"circuit {name} inputs 1\ngate Z 0\nend")


def depolarizing_circuit(name="dep", n=1):
    """Completely depolarizing channel on n qubits: Kraus rank 4^n."""
    body = "trace 0\n" * n + "ancilla\n" * n
    body += "".join(f"gate H {i}\ndecohere {i}\n" for i in range(n))
    return parse_circuit(f"circuit {name} inputs {n}\n{body}end")


def constant_circuit(name, which):
    """Type-(1, 1) circuit whose image is the single state |0>, |1>, or |+>."""
    tail = {"zero": "", "one": "gate X 0\n", "plus": "gate H 0\n"}[which]
    return parse_circuit(f"circuit {name} inputs 1\ntrace 0\nancilla\n{tail}end")


def random_circuit(rng, n_in, n_gates, max_live=4):
    """Random valid circuit; keeps at least one live wire."""
    gates = []
    live = n_in
    for _ in range(n_gates):
        options = ["u1", "deco"]
        if live >= 2:
            options += ["u2", "trace"]
        if live < max_live:
            options.append("ancilla")
        kind = options[rng.integers(0, len(options))]
        if kind == "u1":
            gates.append(unitary_gate(random_unitary(rng, 2), (int(rng.integers(0, live)),)))
        elif kind == "u2":
            w = rng.choice(live, size=2, replace=False)
            gates.append(unitary_gate(random_unitary(rng, 4), (int(w[0]), int(w[1]))))
        elif kind == "deco":
            gates.append(decohere_gate(int(rng.integers(0, live))))
        elif kind == "ancilla":
            gates.append(ancilla_gate())
            live += 1
        else:
            gates.append(trace_gate(int(rng.integers(0, live))))
            live -= 1
    return Circuit("rand", n_in, tuple(gates))


def random_11_circuit(rng, name="q", min_ops=1, max_ops=4):
    """Random type-(1, 1) circuit mixing unitaries, decoherence, resets,
    and traced-out interactions."""
    gates = []
    for _ in range(int(rng.integers(min_ops, max_ops))):
        choice = rng.integers(0, 4)
        if choice == 0:
            gates.append(unitary_gate(random_unitary(rng, 2), (0,)))
        elif choice == 1:
            gates.append(decohere_gate(0))
        elif choice == 2:
            gates.append(trace_gate(0))
            gates.append(ancilla_gate())
            gates.append(unitary_gate(random_unitary(rng, 2), (0,)))
        else:
            gates.append(ancilla_gate())
            gates.append(unitary_gate(random_unitary(rng, 4), (0, 1)))
            gates.append(trace_gate(1))
    return Circuit(name, 1, tuple(gates))


def expand_gate(u, wires, n):
    """Embed a gate matrix into the full 2^n space on the given wires."""
    a = len(wires)
    rest = [q for q in range(n) if q not in wires]
    order = list(wires) + rest
    full = np.kron(u, np.eye(2 ** (n - a), dtype=complex))
    idx = np.arange(2**n)
    shifts = np.array([n - 1 - q for q in order])
    bits = (idx[:, None] >> shifts[None, :]) & 1
    pi = bits @ (1 << np.arange(n - 1, -1, -1))
    return full[np.ix_(pi, pi)]


def dilated_unitary(d):
    """Full matrix of a dilation's unitary circuit, multiplied out gate by gate."""
    n = d.n_wires
    u = np.eye(2**n, dtype=complex)
    for g in d.unitary_circuit.gates:
        u = expand_gate(g.matrix, g.wires, n) @ u
    return u


def dilated_apply(d, rho):
    """Run a dilation on rho (x) |0^k><0^k| and trace out the garbage."""
    state = np.asarray(rho, dtype=complex)
    for _ in range(d.k):
        state = np.kron(state, np.diag([1.0, 0.0]).astype(complex))
    state = simulate(d.unitary_circuit, state)
    return partial_trace(state, [2] * d.n_wires, list(range(d.n_out)))


@st.composite
def small_circuits(draw, max_in=3, max_live=5, n_in=None):
    """Valid circuits on at most ``max_in`` inputs (exactly ``n_in`` if given)
    and ``max_live`` live wires."""
    if n_in is None:
        n_in = draw(st.integers(0, max_in))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    live, gates = n_in, []
    for _ in range(draw(st.integers(0, 12))):
        kinds = ["ancilla"] if live < max_live else []
        if live >= 1:
            kinds += ["u1", "decohere", "trace"]
        if live >= 2:
            kinds.append("u2")
        kind = draw(st.sampled_from(kinds))
        if kind == "ancilla":
            gates.append(ancilla_gate())
            live += 1
        elif kind == "u2":
            wires = draw(st.lists(st.integers(0, live - 1), min_size=2, max_size=2, unique=True))
            gates.append(unitary_gate(random_unitary(rng, 4), wires))
        else:
            w = draw(st.integers(0, live - 1))
            if kind == "u1":
                gates.append(unitary_gate(random_unitary(rng, 2), (w,)))
            elif kind == "decohere":
                gates.append(decohere_gate(w))
            else:
                gates.append(trace_gate(w))
                live -= 1
    return Circuit("gen", n_in, gates)


@st.composite
def equal_type_pairs(draw):
    """Two ``small_circuits()`` of one type: the second is drawn on the
    first's inputs, then padded with ancillas or traced to its outputs."""
    c0 = draw(small_circuits(max_in=2, max_live=3))
    c1 = draw(small_circuits(max_live=3, n_in=c0.n_in))
    gates = list(c1.gates)
    gates += [ancilla_gate()] * (c0.n_out - c1.n_out)
    gates += [trace_gate(0)] * (c1.n_out - c0.n_out)
    return c0, Circuit("gen1", c1.n_in, gates)


@st.composite
def mutated_circuit_texts(draw):
    """(mutation, text): a serialized small circuit, possibly hit by one one-line mutation."""
    c = draw(small_circuits())
    lines = serialize_circuit(c).splitlines()
    mutation = draw(st.sampled_from(["none", "unknown gate", "wire", "non-unitary", "truncate"]))
    if mutation == "truncate":
        text = "\n".join(lines) + "\n"
        return mutation, text[: draw(st.integers(0, len(text) - 1))]
    if mutation != "none":
        wire = draw(st.integers(5, 2**40)) if mutation == "wire" else 0  # live wires stay below 5
        bad = {
            "unknown gate": draw(st.sampled_from(["gate FOO 0", "frobnicate 0", "unitary 0 0"])),
            "wire": draw(st.sampled_from([f"decohere {wire}", f"gate H {wire}", f"trace {wire}"])),
            "non-unitary": "unitary 1 0 1.0,0.0 0.1,0.0 0.0,0.0 1.0,0.0",
        }[mutation]
        at = draw(st.integers(1, len(lines) - 1))
        replace = at < len(lines) - 1 and draw(st.booleans())  # never replace the header or end
        lines[at : at + replace] = [bad]
    return mutation, "\n".join(lines) + "\n"
