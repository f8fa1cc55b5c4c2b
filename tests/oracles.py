"""Independent oracles the optimizers and the simulator are checked against.

Nothing here shares code paths with the seesaw: states come from an
explicit hyperspherical grid, channels act through stacked Kraus tensors,
and trace norms come from batched eigenvalue sums.  The density walk is
checked against per-gate kernels that reshape to a (D, D) matrix after
every gate: two half-actions per unitary, a bit mask for decohere, a kron
for ancilla and ``linalg.partial_trace`` for trace, and the fold's index
assignments against the two scatters they replaced.  Circuit text is
checked against the line-at-a-time reader the one-pass parser replaced,
which walks liveness on its own (``live_counts``), and JSON text against
a writer that formats one value at a time.  Pairs of classical channels
have an exact diamond-norm distance to check the certified interval
against.  Tensor products and mixtures of channels are formed on their
Choi matrices, for the constructions' circuits to be checked against.
"""

import itertools
import json
import math

import numpy as np

from qcdist.circuits import (
    STANDARD_GATES,
    UNITARY_ARITY_CAP,
    Circuit,
    CircuitParseError,
    LivenessError,
    UnitarityError,
    ancilla_gate,
    decohere_gate,
    named_gate,
    trace_gate,
    unitary_gate,
)
from qcdist.linalg import TOL_TRACE, check_cap, check_wires, partial_trace
from qcdist.simulate import Channel, channel_from_choi, kraus_of

_P0 = np.array([[1, 0], [0, 0]], dtype=np.complex128)


def hyperspherical_grid(dim, n_theta=5, n_phase=6):
    """Deterministic grid of unit vectors in C^dim.

    Magnitude angles run over an inclusive [0, pi/2] grid (so computational
    basis states and uniform superpositions are hit exactly); phases over
    an endpoint-free [0, 2pi) grid; the first amplitude is real.
    """
    thetas = np.linspace(0.0, np.pi / 2, n_theta)
    phases = np.linspace(0.0, 2 * np.pi, n_phase, endpoint=False)
    states = []
    for th in itertools.product(thetas, repeat=dim - 1):
        amps = np.ones(dim)
        for i, t in enumerate(th):
            amps[i] *= np.cos(t)
            amps[i + 1 :] *= np.sin(t)
        if np.abs(amps[1:]).max() < 1e-15:
            states.append(amps.astype(complex))
            continue
        for ph in itertools.product(phases, repeat=dim - 1):
            z = amps.astype(complex)
            z[1:] *= np.exp(1j * np.array(ph))
            states.append(z)
    return np.array(states)


def _apply_ext_batch(kraus, psis, din, ref):
    k = np.stack(kraus)
    mats = psis.reshape(-1, din, ref)
    v = np.einsum("koi,nir->nkor", k, mats)
    rho = np.einsum("nkor,nkps->norps", v, v.conj())
    side = k.shape[1] * ref
    return rho.reshape(-1, side, side)


def grid_max_output_tnorm(ch0, ch1, states=None):
    """Max over grid states psi of tnorm((Phi0 - Phi1) (x) I (psi psi^dag)).

    The reference space has the input dimension; a lower bound on the
    diamond-norm distance that is exact whenever the grid contains an
    optimal input.
    """
    din = ch0.dim_in
    if states is None:
        states = hyperspherical_grid(din * din)
    rho0 = _apply_ext_batch(kraus_of(ch0), states, din, din)
    rho1 = _apply_ext_batch(kraus_of(ch1), states, din, din)
    w = np.linalg.eigvalsh(rho0 - rho1)
    values = np.abs(w).sum(axis=1)
    best = int(np.argmax(values))
    return float(values[best]), states[best]


def classical_channel(p):
    """Channel of a column-stochastic p, p[y, x] = p(y|x), on qubits: its
    Choi matrix is diagonal, sum_xy p(y|x) |y><y| (x) |x><x|."""
    dout, din = p.shape
    choi = np.diag(p.reshape(-1)).astype(np.complex128)  # index y * din + x: output first
    return channel_from_choi(din.bit_length() - 1, dout.bit_length() - 1, choi)


def classical_dnorm(p0, p1):
    """Exact diamond-norm distance of two classical channels,
    max over x of ||p0(.|x) - p1(.|x)||_1, attained at the input |x>."""
    return float(np.abs(p0 - p1).sum(axis=0).max())


def channel_tensor(a, b):
    """Parallel composition Phi (x) Psi (first channel on the leading qubits)."""
    n_in = a.n_in + b.n_in
    n_out = a.n_out + b.n_out
    side = 2 ** (n_in + n_out)
    check_cap(side, context="tensored Choi")
    # kron(Ja, Jb) is ordered (oa ia ob ib); the Choi convention wants (oa ob ia ib)
    k = np.kron(a.choi, b.choi).reshape((a.dim_out, a.dim_in, b.dim_out, b.dim_in) * 2)
    choi = k.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(side, side)
    return Channel(n_in, n_out, choi)


def channel_mix(channels, weights):
    """Convex mixture of channels of equal type: the weighted sum of Choi matrices."""
    channels = list(channels)
    weights = [float(w) for w in weights]
    if len(channels) != len(weights) or not channels:
        raise ValueError("need equally many channels and weights")
    # NaN fails 0 <= w, and would pass both w < 0 and the sum test
    if any(not 0 <= w < math.inf for w in weights) or abs(sum(weights) - 1.0) > TOL_TRACE:
        raise ValueError(f"weights must be a distribution, got {weights}")
    n_in, n_out = channels[0].n_in, channels[0].n_out
    if any(ch.n_in != n_in or ch.n_out != n_out for ch in channels):
        raise ValueError("mixed channels must agree on type")
    return Channel(n_in, n_out, sum(w * ch.choi for w, ch in zip(weights, channels)))


def kron_entry_oracle(a, b):
    """Kronecker product straight from the definition, entry by entry."""
    ra, ca = a.shape
    rb, cb = b.shape
    out = np.zeros((ra * rb, ca * cb), dtype=complex)
    for i in range(ra):
        for j in range(ca):
            for k in range(rb):
                for l in range(cb):
                    out[i * rb + k, j * cb + l] = a[i, j] * b[k, l]
    return out


def tnorm_from_eigs(h):
    """Trace norm of a Hermitian matrix as the sum of |eigenvalues|."""
    return float(np.abs(np.linalg.eigvalsh(h)).sum())


def _act(u, t, axes):
    """Apply the matrix u to the given qubit axes of the tensor t."""
    a = len(axes)
    t = np.tensordot(u.reshape([2] * (2 * a)), t, axes=(list(range(a, 2 * a)), axes))
    return np.moveaxis(t, list(range(a)), axes)


def _apply_unitary(rho, u, wires, n):
    """Conjugate rho (n qubits) by u acting on the given wires."""
    dim = 2**n
    t = _act(u, rho.reshape([2] * (2 * n)), list(wires))
    t = _act(u.conj(), t, [n + w for w in wires])
    return t.reshape(dim, dim)


def _decohere(rho, wire, n):
    """Zero every entry whose row and column disagree on the wire's bit."""
    bits = (np.arange(2**n) >> (n - 1 - wire)) & 1
    return np.where(bits[:, None] == bits[None, :], rho, 0.0)


def _insert_zero_qubit(rho, pos, n):
    """Tensor in a fresh |0> qubit and move it to qubit position ``pos``."""
    out = np.kron(rho, _P0)
    m = n + 1
    if pos == m - 1:
        return out
    t = out.reshape([2] * (2 * m))
    t = np.moveaxis(t, [m - 1, 2 * m - 1], [pos, m + pos])
    return t.reshape(2**m, 2**m)


def density_walk_oracle(c, x, ref_qubits=0):
    """(c (x) I)(x) by a gate-by-gate walk on the (D, D) matrix, for any operator x."""
    live = c.n_in
    total = live + ref_qubits
    rho = np.array(x, dtype=np.complex128)
    for g in c.gates:
        if g.kind == "unitary":
            rho = _apply_unitary(rho, g.matrix, g.wires, total)
        elif g.kind == "decohere":
            rho = _decohere(rho, g.wires[0], total)
        elif g.kind == "ancilla":
            rho = _insert_zero_qubit(rho, live, total)
            live += 1
            total += 1
        else:
            w = g.wires[0]
            rho = partial_trace(rho, [2] * total, [q for q in range(total) if q != w])
            live -= 1
            total -= 1
    return rho


def fold_assembly_oracle(blocks, din):
    """The Choi matrix of walked blocks, written as the batch-last walk wrote it:
    two scatters through a transposed view of J with fancy indices.

    ``blocks`` is (2^m, 2^m, P), batch last, the blocks at |i><j|, i <= j,
    in ``np.triu_indices(din)`` order.  The i > j blocks are the adjoints,
    and each diagonal block B becomes (B + B^dagger) / 2."""
    side = blocks.shape[0]
    i, j = np.triu_indices(din)
    out = blocks.copy()
    choi = np.empty((side, din, side, din), dtype=np.complex128)
    view = choi.transpose(0, 2, 1, 3)
    diag = out[:, :, i == j]
    out[:, :, i == j] = (diag + diag.conj().swapaxes(0, 1)) / 2
    view[:, :, j, i] = out.conj().swapaxes(0, 1)
    view[:, :, i, j] = out
    return choi.reshape(side * din, side * din)


def line_parse_circuit(text):
    """Circuit text read one line at a time, each matrix and each line's
    liveness checked on its own line."""
    header = None
    gates, lines = [], []
    ended = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if not stripped:
            continue
        if ended:
            raise CircuitParseError("content after 'end'", lineno)
        tokens = stripped.split()
        if header is None:
            if len(tokens) != 4 or tokens[0] != "circuit" or tokens[2] != "inputs":
                raise CircuitParseError("expected 'circuit <name> inputs <n>'", lineno)
            try:
                n_in = int(tokens[3])
            except ValueError:
                raise CircuitParseError(f"bad input count {tokens[3]!r}", lineno)
            if n_in < 0:
                raise CircuitParseError(f"negative input count {n_in}", lineno)
            header = (tokens[1], n_in)
            live_counts(n_in, gates)
            continue
        if tokens[0] == "end":
            if len(tokens) != 1:
                raise CircuitParseError("unexpected tokens after 'end'", lineno)
            ended = True
            continue
        gates.append(_line_gate(tokens, lineno))
        lines.append(lineno)
        live_counts(header[1], gates, lines)  # walked again from the start: a dead wire fails here
    if header is None:
        raise CircuitParseError("empty circuit text", None)
    if not ended:
        raise CircuitParseError("missing 'end'", None)
    return Circuit(header[0], header[1], tuple(gates))


def live_counts(n_in, gates, lines=None):
    """The live wire count before the first gate and after each, walked one
    gate at a time; LivenessError names the first out-of-range wire (with
    its line, given ``lines``), and SizeCapError the first count over the cap."""
    live = n_in
    counts = [live]
    check_wires(live, "input wires")
    for idx, g in enumerate(gates):
        line = lines[idx] if lines is not None else None
        for w in g.wires:
            if w < 0 or w >= live:
                raise LivenessError(idx, w, live, line)
        if g.kind == "ancilla":
            live += 1
            check_wires(live)
        elif g.kind == "trace":
            live -= 1
        counts.append(live)
    return counts


def _line_gate(tokens, lineno):
    op = tokens[0]
    try:
        if op == "gate":
            if len(tokens) < 3:
                raise CircuitParseError("expected 'gate <name> <wire...>'", lineno)
            name = tokens[1]
            if name not in STANDARD_GATES:
                raise CircuitParseError(f"unknown standard gate {name!r}", lineno)
            return named_gate(name, [int(t) for t in tokens[2:]])
        if op == "unitary":
            if len(tokens) < 2:
                raise CircuitParseError("expected 'unitary <arity> <wire...> <entries>'", lineno)
            arity = int(tokens[1])
            if arity < 1 or arity > UNITARY_ARITY_CAP:
                raise CircuitParseError(
                    f"unitary arity {arity} outside 1..{UNITARY_ARITY_CAP}", lineno
                )
            wires = [int(t) for t in tokens[2 : 2 + arity]]
            if len(wires) != arity:
                raise CircuitParseError("fewer wires than arity", lineno)
            entry_tokens = tokens[2 + arity :]
            dim = 2**arity
            if len(entry_tokens) != dim * dim:
                raise CircuitParseError(
                    f"expected {dim * dim} matrix entries, got {len(entry_tokens)}", lineno
                )
            entries = []
            for tok in entry_tokens:
                re_s, sep, im_s = tok.partition(",")
                if not sep:
                    raise CircuitParseError(f"bad complex entry {tok!r}", lineno)
                entries.append(complex(float(re_s), float(im_s)))
            m = np.array(entries, dtype=np.complex128).reshape(dim, dim)
            return unitary_gate(m, wires)
        if op == "ancilla":
            if len(tokens) != 1:
                raise CircuitParseError("'ancilla' takes no arguments", lineno)
            return ancilla_gate()
        if op == "trace":
            if len(tokens) != 2:
                raise CircuitParseError("expected 'trace <wire>'", lineno)
            return trace_gate(int(tokens[1]))
        if op == "decohere":
            if len(tokens) != 2:
                raise CircuitParseError("expected 'decohere <wire>'", lineno)
            return decohere_gate(int(tokens[1]))
    except CircuitParseError:
        raise
    except UnitarityError as exc:
        raise UnitarityError(str(exc), lineno) from None
    except ValueError as exc:
        raise CircuitParseError(str(exc), lineno) from None
    raise CircuitParseError(f"unknown construct {op!r}", lineno)


def percent_17g_json(obj) -> str:
    """JSON text of ``obj`` written one value at a time: each float as
    ``"%.17g" % x``, a complex array as the row-major list of its
    ``[re, im]`` pairs, containers recursively and the rest by ``json``."""
    if isinstance(obj, np.ndarray):
        return "[" + ",".join("[%.17g,%.17g]" % (z.real, z.imag) for z in obj.reshape(-1)) + "]"
    if isinstance(obj, float):
        return "%.17g" % obj
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(map(percent_17g_json, obj)) + "]"
    if isinstance(obj, dict):
        return "{" + ",".join(f"{json.dumps(k)}:{percent_17g_json(v)}" for k, v in obj.items()) + "}"
    return json.dumps(obj)
