"""Exact circuit action on density matrices and superoperator extraction.

Wires are qubits with wire 0 most significant in the computational basis.
The Choi matrix convention is J(Phi) = sum_ij Phi(|i><j|) (x) |i><j| with
the output factor first and no normalization, so a trace-preserving map has
tr_out J = I_in and an admissible map has J >= 0.  A ``Channel`` is its Choi
matrix and nothing else.  Its action with a reference system,
(Phi (x) I)(X), and the adjoint action are one matmul each against J with
its axes permuted (``_contract``); Kraus operators are recovered from
scaled Choi eigenvectors only on request (``kraus_of``).

Every walk runs the circuit in its narrowest equivalent schedule
(``circuits.schedule``): each ancilla just before its wire's first gate,
each trace just after its wire's last gate, gates whose wires are all
traced next and decoheres of diagonal wires dropped, and SWAPs restoring
the output order.  That changes neither the channel nor the output order,
and no step is wider than the circuit as written.  The caps are checked on
the circuit as written, so a refusal does not depend on the schedule.

``choi_of`` picks its walk from observable widths.  It walks a stack of r
Kraus operators of shape (r, 2^live, 2^n_in), starting from the identity;
decohere and trace split each operator in two, and the halves that are
exactly zero are dropped.  The first time r exceeds
D = 2^live * 2^n_in, the stack is folded into the D x D matrix
sum_k vec(K_k) vec(K_k)^dagger, and the remaining gates walk its blocks
at the input matrix units |i><j| with i <= j only, as one density walk;
the others are their adjoints, as Phi(X^dagger) = Phi(X)^dagger.  A
circuit whose widest point has live + n_in > log2(DIM_CAP) would put that
matrix over the cap, so it is instead simulated once per input matrix unit
at its own width.  A walk that would exceed the cap is refused by
arithmetic on the ``replay_liveness`` counts before it starts.

The density walk (``_run_gates``, also behind ``simulate``) holds a batch
of B operators on the live wires as one [2] * (2 * live) + [B] tensor,
rows, then columns, then the batch axis, from the first gate to the last:
each gate acts on its row and column axes in one pass for the whole batch.
It allocates two buffers sized for its widest point once, and nothing per
gate; the output is copied out, so no result aliases a buffer or an input.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .circuits import Circuit, replay_liveness, schedule
from .linalg import (
    TOL_HERM,
    TOL_PSD,
    TOL_TRACE,
    as_matrix,
    check_wires,
    dag,
    herm_defect,
    partial_trace,
    spectral,
)
from . import linalg

#: Choi eigenvalues below this are dropped during Kraus extraction
#: (rank deflation for numerically rank-deficient Choi matrices).
KRAUS_EIG_CUTOFF = 1e-12

TOL_CHANNEL = 1e-9

class NotCompletelyPositiveError(ValueError):
    """Choi matrix has a negative eigenvalue beyond tolerance."""


class InternalConsistencyError(RuntimeError):
    """A simulator-derived object violated an invariant it must satisfy."""


def require_density(rho, tol_herm=TOL_HERM, tol_trace=TOL_TRACE, tol_psd=TOL_PSD) -> np.ndarray:
    """Validate Hermiticity, unit trace, and positivity of a density matrix."""
    rho = as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got {rho.shape}")
    d = herm_defect(rho)
    if d > tol_herm:
        raise ValueError(f"density matrix not Hermitian: defect {d:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > tol_trace:
        raise ValueError(f"density matrix trace {tr} differs from 1")
    wmin = float(np.linalg.eigvalsh((rho + dag(rho)) / 2).min())
    if wmin < -tol_psd:
        raise ValueError(f"density matrix has eigenvalue {wmin:.3e} < -{tol_psd:.1e}")
    return rho


def simulate(c: Circuit, rho: np.ndarray, ref_qubits: int = 0) -> np.ndarray:
    """Run ``c`` on the first n_in qubits of ``rho``, identity on the rest.

    Pure linear action: works for any operator input of the right size, not
    only density matrices.  The widest point of ``c`` as written, live
    wires plus ``ref_qubits``, is checked against the cap before the walk
    starts; the walk runs ``schedule(c)``.  It copies rho in as its 4^ref
    reference blocks, the batch.
    """
    check_wires(max(replay_liveness(c)) + ref_qubits, "qubits mid-circuit")
    rho = as_matrix(rho)
    n, r = 2**c.n_in, 2**ref_qubits
    if rho.shape != (n * r, n * r):
        raise ValueError(f"input operator is {rho.shape}, expected side {n * r} for "
                         f"{c.n_in} input wires and {ref_qubits} reference qubits")
    t = rho.reshape(n, r, n, r).transpose(0, 2, 1, 3).reshape(n, n, r * r)
    out, m = _run_gates(t, schedule(c).gates, c.n_in)
    return out.reshape(2**m, 2**m, r, r).transpose(0, 2, 1, 3).reshape(2**m * r, 2**m * r)


def _run_gates(t: np.ndarray, gates, live: int) -> tuple[np.ndarray, int]:
    """One-pass density walk of ``gates`` on a (2^live, 2^live, B) batch t.

    Two flat buffers of 4^widest * B entries, widest being the largest live
    count, are allocated once: one holds the [2] * (2 * live) + [B] tensor,
    batch axis last, the other is scratch.  A unitary u copies the tensor
    into scratch with its axes first and multiplies u (x) conj(u) from there
    into the tensor's buffer, left as a moveaxis view; decohere zeroes two
    off-diagonal blocks in place; ancilla fills a zeroed scratch prefix, and
    trace adds two diagonal slices into one, and the buffers swap.  Returns
    a copy of the (2^m, 2^m, B) output and its live width m.  The width is
    not checked here: ``simulate`` and ``choi_of`` refuse it first.
    """
    b, s = t.shape[-1], (slice(None),)
    steps = ((g.kind == "ancilla") - (g.kind == "trace") for g in gates)
    size = 4 ** max(itertools.accumulate(steps, initial=live)) * b
    home, spare = np.empty((2, size), dtype=np.complex128)

    def view(buf, width):
        return buf[: 4**width * b].reshape([2] * (2 * width) + [b])

    cur = view(home, live)
    cur[...] = t.reshape(cur.shape)
    for g in gates:
        if g.kind == "unitary":
            a = len(g.wires)
            axes = list(g.wires) + [live + w for w in g.wires]
            moved = view(spare, live)
            np.copyto(moved, np.moveaxis(cur, axes, list(range(2 * a))))
            # (rows, cols) of u times (rows, cols) of conj(u): the column pairs contract;
            # u (x) conj(u) as one broadcast product, entry for entry np.kron's
            u = g.matrix
            k = (u[:, None, :, None] * u.conj()[None, :, None, :]).reshape(4**a, 4**a)
            out = view(home, live)
            np.matmul(k, moved.reshape(4**a, -1), out=out.reshape(4**a, -1))
            cur = np.moveaxis(out, list(range(2 * a)), axes)
        elif g.kind == "decohere":
            w = g.wires[0]
            for bit in (0, 1):  # row axis w and column axis live + w disagree
                cur[s * w + (bit,) + s * (live - 1) + (1 - bit,)] = 0.0
        elif g.kind == "ancilla":
            grown = view(spare, live + 1)
            grown.fill(0.0)
            # the new wire's row axis is live and its column axis 2 * live + 1
            grown[s * live + (0,) + s * live + (0,)] = cur
            cur, live, home, spare = grown, live + 1, spare, home
        else:  # trace: ``schedule`` refuses any other kind
            diag = [cur[s * g.wires[0] + (bit,) + s * (live - 1) + (bit,)] for bit in (0, 1)]
            cur = np.add(*diag, out=view(spare, live - 1))
            live, home, spare = live - 1, spare, home
    return cur.copy().reshape(2**live, 2**live, b), live


def apply(c: Circuit, rho: np.ndarray) -> np.ndarray:
    """Exact action of the circuit's channel on a density matrix."""
    rho = require_density(rho)
    if rho.shape[0] != 2**c.n_in:
        raise ValueError(
            f"density matrix side {rho.shape[0]} does not match {c.n_in} input wires"
        )
    return simulate(c, rho)


def apply_extended(c: Circuit, rho: np.ndarray, ref_qubits: int) -> np.ndarray:
    """(Q (x) I)(rho): the circuit on the first n_in qubits, reference untouched."""
    rho = require_density(rho)
    if ref_qubits < 0:
        raise ValueError("ref_qubits must be nonnegative")
    if rho.shape[0] != 2 ** (c.n_in + ref_qubits):
        raise ValueError(
            f"density matrix side {rho.shape[0]} does not match "
            f"{c.n_in} input wires plus {ref_qubits} reference qubits"
        )
    return simulate(c, rho, ref_qubits)


@dataclass(eq=False)
class Channel:
    """Concrete superoperator on qubits, held as its Choi matrix."""

    n_in: int
    n_out: int
    choi: np.ndarray

    @property
    def dim_in(self) -> int:
        return 2**self.n_in

    @property
    def dim_out(self) -> int:
        return 2**self.n_out


def _choi_from_kraus(kraus, n_in: int, n_out: int) -> np.ndarray:
    """sum_k vec(A_k) vec(A_k)^dagger as one matmul over the stacked operators."""
    d = 2 ** (n_in + n_out)
    v = np.asarray(kraus, dtype=np.complex128).reshape(len(kraus), d)
    return v.T @ v.conj()


def _check_channel(ch: Channel, tol: float = TOL_CHANNEL) -> list[str]:
    """Hermiticity, complete positivity and trace preservation of the Choi matrix.

    J^dagger is formed once, and one buffer h holds |J - J^dagger|, then
    (J + J^dagger) / 2 + tol * I.  J >= -tol holds when h has a Cholesky
    factor; eigvalsh runs only if not, on h, for the message."""
    problems = []
    adj = dag(ch.choi)
    h = ch.choi - adj
    d = float(np.abs(h, out=h).real.max(initial=0.0))
    if d > tol:
        problems.append(f"Choi not Hermitian: defect {d:.3e}")
    else:
        np.add(ch.choi, adj, out=h)
        del adj  # not held while the factor is formed
        h /= 2
        h.flat[:: h.shape[0] + 1] += tol  # in place: h + tol * I costs another side^2 array
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            wmin = float(np.linalg.eigvalsh(h).min()) - tol
            if wmin < -tol:
                problems.append(f"Choi eigenvalue {wmin:.3e}: not completely positive")
    tp = partial_trace(ch.choi, [ch.dim_out, ch.dim_in], [1])
    tp_defect = float(np.abs(tp - np.eye(ch.dim_in)).max())
    if tp_defect > tol:
        problems.append(f"not trace preserving: tr_out(choi) deviates by {tp_defect:.3e}")
    return problems


def channel_from_choi(n_in: int, n_out: int, choi) -> Channel:
    """Build a Channel from a Choi matrix, validating admissibility."""
    choi = as_matrix(choi)
    d = 2 ** (n_in + n_out)
    if choi.shape != (d, d):
        raise ValueError(f"Choi matrix is {choi.shape}, expected {(d, d)}")
    ch = Channel(n_in, n_out, choi)
    problems = _check_channel(ch)
    if problems:
        raise ValueError("not an admissible channel: " + "; ".join(problems))
    return ch


def _matrix_unit_choi(c: Circuit) -> np.ndarray:
    """Choi matrix from one density walk per input matrix unit |i><j|, j >= i.

    The j < i blocks follow from Phi(X^dagger) = Phi(X)^dagger, so every
    walk stays at the circuit's own width.  ``c`` is walked as given:
    ``choi_of`` passes it scheduled.
    """
    din = 2**c.n_in
    dout = 2**c.n_out
    blocks = np.zeros((dout, din, dout, din), dtype=np.complex128)
    for i in range(din):
        for j in range(i, din):
            unit = np.zeros((din, din, 1), dtype=np.complex128)
            unit[i, j] = 1.0
            out = _run_gates(unit, c.gates, c.n_in)[0][..., 0]
            blocks[:, i, :, j] = out
            if j != i:
                blocks[:, j, :, i] = dag(out)
    return blocks.reshape(dout * din, dout * din)


def _kraus_walk_choi(c: Circuit) -> np.ndarray:
    """Choi matrix from one walk of a Kraus stack, finished densely if needed.

    The stack K has shape (r, 2^live, 2^n_in) and starts as the identity.
    A unitary acts on the live axes; decohere and trace split every
    operator in two on the gate's bit, keeping the nonzero halves; ancilla
    appends a |0> axis.  Once r exceeds D = 2^live * 2^n_in the stack
    outweighs the D x D matrix sum_k vec(K_k) vec(K_k)^dagger it stands
    for, so that matrix is formed once by a matmul.  The remaining gates
    walk its din(din+1)/2 blocks at |i><j|, i <= j, as one batch, and the
    i > j blocks are filled in as their adjoints.  The switch stays at
    r > D: at the new break-even point 2^live * (din + 1) / 2 it measured
    no faster.
    """
    n = c.n_in
    din = 2**n
    k = np.eye(din, dtype=np.complex128)[None]
    live = n
    for idx, g in enumerate(c.gates):
        r = k.shape[0]
        if g.kind == "unitary":
            a, axes = len(g.wires), [1 + w for w in g.wires]
            t = k.reshape((r,) + (2,) * live + (din,))
            t = np.tensordot(g.matrix.reshape([2] * (2 * a)), t, (list(range(a, 2 * a)), axes))
            k = np.moveaxis(t, list(range(a)), axes).reshape(r, 2**live, din)
        elif g.kind == "decohere":
            w = g.wires[0]
            t = k.reshape(r, 2**w, 2, -1)
            split = np.zeros((2,) + t.shape, dtype=np.complex128)
            split[0, :, :, 0] = t[:, :, 0]
            split[1, :, :, 1] = t[:, :, 1]
            k = split.reshape(2 * r, 2**live, din)
        elif g.kind == "ancilla":
            grown = np.zeros((r, 2**live, 2, din), dtype=np.complex128)
            grown[:, :, 0] = k
            live += 1
            k = grown.reshape(r, 2**live, din)
        else:  # trace: ``schedule`` refuses any other kind
            t = k.reshape(r, 2 ** g.wires[0], 2, -1)
            live -= 1
            k = np.moveaxis(t, 2, 0).reshape(2 * r, 2**live, din)
        if g.kind in ("decohere", "trace"):
            # a split on a bit still in a basis state leaves exact zeros
            k = k[k.reshape(k.shape[0], -1).any(axis=1)]
        if k.shape[0] > 2**live * din:
            full = _choi_from_kraus(k, n, live).reshape(2**live, din, 2**live, din)
            i, j = np.triu_indices(din)
            out, m = _run_gates(full.transpose(0, 2, 1, 3)[:, :, i, j], c.gates[idx + 1 :], live)
            choi = np.empty((2**m, din, 2**m, din), dtype=np.complex128)
            blocks = choi.transpose(0, 2, 1, 3)
            blocks[:, :, j, i] = out.conj().swapaxes(0, 1)
            blocks[:, :, i, j] = out
            return choi.reshape(2**m * din, 2**m * din)
    return _choi_from_kraus(k, n, live)


def choi_of(c: Circuit) -> Channel:
    """Extract the circuit's channel as a Choi matrix.

    One walk of a Kraus stack from the identity, finished as a density walk
    with n_in reference qubits once the stack outgrows it; a circuit too
    wide for that reference walk under ``DIM_CAP`` is run once per input
    matrix unit instead (module docstring).  The caps are checked on ``c``
    as written; both walks run ``schedule(c)``, and the choice between them
    follows its width.  The result is checked for complete positivity and
    trace preservation; a failure beyond tolerance is a simulator bug, not
    a property of the circuit, and raises InternalConsistencyError.
    """
    counts = replay_liveness(c)
    n = c.n_in
    m = counts[-1]
    linalg.check_cap(2 ** (m + n), "Choi matrix")
    limit = check_wires(max(counts))
    s = schedule(c)
    # the reference walk would hold the widest point plus n reference qubits
    if max(replay_liveness(s)) + n > limit:
        choi = _matrix_unit_choi(s)
    else:
        choi = _kraus_walk_choi(s)
    choi += dag(choi)  # in place, so that J is not held twice while it is checked
    choi /= 2
    ch = Channel(n, m, choi)
    problems = _check_channel(ch)
    if problems:
        raise InternalConsistencyError(
            f"circuit {c.name!r} produced an inadmissible channel: " + "; ".join(problems)
        )
    return ch


def kraus_of(ch: Channel) -> list[np.ndarray]:
    """Kraus operators A_k from scaled eigenvectors of the Choi matrix.

    The only place Kraus operators are produced.  A Choi eigenvalue below
    -TOL_PSD raises NotCompletelyPositiveError; eigenvalues up to
    KRAUS_EIG_CUTOFF are dropped.  The operators are then checked to be
    complete (sum_k A_k^dagger A_k = I) and to rebuild J, and a deviation
    beyond TOL_CHANNEL raises InternalConsistencyError.
    """
    w, v = spectral(ch.choi)
    if w[-1] < -TOL_PSD:
        raise NotCompletelyPositiveError(
            f"Choi matrix has eigenvalue {w[-1]:.3e}; the map is not completely positive"
        )
    keep = w > KRAUS_EIG_CUTOFF
    ops = list((v[:, keep] * np.sqrt(w[keep])).T.reshape(-1, ch.dim_out, ch.dim_in))
    ksum = sum((dag(a) @ a for a in ops), np.zeros((ch.dim_in, ch.dim_in)))
    ksum_defect = float(np.abs(ksum - np.eye(ch.dim_in)).max())
    rb_defect = float(np.abs(_choi_from_kraus(ops, ch.n_in, ch.n_out) - ch.choi).max())
    if max(ksum_defect, rb_defect) > TOL_CHANNEL:
        raise InternalConsistencyError(
            f"Kraus operators deviate: completeness by {ksum_defect:.3e}, "
            f"rebuild of Choi by {rb_defect:.3e}"
        )
    return ops


def _contract(j4: np.ndarray, x, ref_dim: int) -> np.ndarray:
    """out[(o r), (p s)] = sum_ij j4[o, i, p, j] x[(i r), (j s)], as one matmul.

    The kernel j4 is permuted to (o p, i j) and multiplied against x
    permuted to (i j, r s).
    """
    dout, din = j4.shape[:2]
    x = as_matrix(x)
    if x.shape != (din * ref_dim, din * ref_dim):
        raise ValueError(f"operator is {x.shape}, expected side {din * ref_dim}")
    k = j4.transpose(0, 2, 1, 3).reshape(dout * dout, din * din)
    xs = x.reshape(din, ref_dim, din, ref_dim).transpose(0, 2, 1, 3).reshape(din * din, -1)
    out = (k @ xs).reshape(dout, dout, ref_dim, ref_dim)
    return out.transpose(0, 2, 1, 3).reshape(dout * ref_dim, dout * ref_dim)


def _kernel(choi: np.ndarray, dim_in: int, dim_out: int, adjoint: bool = False) -> np.ndarray:
    """``_contract`` kernel of the map with Choi matrix ``choi`` (any, not only
    a channel's), or of its adjoint: conj(J) with input and output swapped."""
    j4 = choi.reshape(dim_out, dim_in, dim_out, dim_in)
    return j4.conj().transpose(1, 0, 3, 2) if adjoint else j4


def channel_apply_ext(ch: Channel, x, ref_dim: int) -> np.ndarray:
    """(Phi (x) I_ref)(x) for any operator x on input (x) reference."""
    return _contract(_kernel(ch.choi, ch.dim_in, ch.dim_out), x, ref_dim)


def adjoint_apply_ext(ch: Channel, m, ref_dim: int) -> np.ndarray:
    """(Phi^dagger (x) I_ref)(M) for any operator M on output (x) reference."""
    return _contract(_kernel(ch.choi, ch.dim_in, ch.dim_out, adjoint=True), m, ref_dim)


def channel_tensor(a: Channel, b: Channel) -> Channel:
    """Parallel composition Phi (x) Psi (first channel on the leading qubits)."""
    n_in = a.n_in + b.n_in
    n_out = a.n_out + b.n_out
    side = 2 ** (n_in + n_out)
    linalg.check_cap(side, context="tensored Choi")
    # kron(Ja, Jb) is ordered (oa ia ob ib); the Choi convention wants (oa ob ia ib)
    k = np.kron(a.choi, b.choi).reshape((a.dim_out, a.dim_in, b.dim_out, b.dim_in) * 2)
    choi = k.transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(side, side)
    return Channel(n_in, n_out, choi)


def channel_mix(channels, weights) -> Channel:
    """Convex mixture of channels of equal type: the weighted sum of Choi matrices."""
    channels = list(channels)
    weights = [float(w) for w in weights]
    if len(channels) != len(weights) or not channels:
        raise ValueError("need equally many channels and weights")
    if abs(sum(weights) - 1.0) > TOL_TRACE or any(w < 0 for w in weights):
        raise ValueError(f"weights must be a distribution, got {weights}")
    n_in, n_out = channels[0].n_in, channels[0].n_out
    if any(ch.n_in != n_in or ch.n_out != n_out for ch in channels):
        raise ValueError("mixed channels must agree on type")
    return Channel(n_in, n_out, sum(w * ch.choi for w, ch in zip(weights, channels)))


def density_to_json(rho) -> dict:
    """Matrix JSON with a ``qubits`` wrapper field."""
    rho = as_matrix(rho)
    n = int(round(math.log2(rho.shape[0])))
    if 2**n != rho.shape[0] or rho.shape[0] != rho.shape[1]:
        raise ValueError(f"matrix of shape {rho.shape} is not a qubit operator")
    out = {"qubits": n}
    out.update(linalg.matrix_to_json(rho))
    return out


def density_from_json(obj: dict) -> np.ndarray:
    m = linalg.matrix_from_json(obj)
    try:
        n = int(obj.get("qubits", -1))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"malformed density JSON: qubits {obj.get('qubits')!r}") from exc
    if m.shape != (2**n, 2**n):
        raise ValueError(
            f"matrix shape {m.shape} does not match declared qubit count {n}"
        )
    return m
