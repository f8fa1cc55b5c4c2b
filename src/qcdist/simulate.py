"""Exact circuit action on density matrices and superoperator extraction.

Wires are qubits with wire 0 most significant in the computational basis.
The Choi matrix convention is J(Phi) = sum_ij Phi(|i><j|) (x) |i><j| with
the output factor first and no normalization, so a trace-preserving map has
tr_out J = I_in and an admissible map has J >= 0.  A ``Channel`` is its Choi
matrix and nothing else.  Its action with a reference system,
(Phi (x) I)(X), and the adjoint action are one matmul each against J with
its axes permuted, ``channel_apply_ext`` and ``adjoint_apply_ext``, the
only users of that matmul (``_contract``); Kraus operators are recovered
from scaled Choi eigenvectors only on request (``kraus_of``).

Every walk runs the circuit in its narrowest equivalent schedule
(``circuits.schedule``): each ancilla just before its wire's first gate,
each trace just after its wire's last gate, gates whose wires are all
traced next and decoheres of diagonal wires dropped, and SWAPs restoring
the output order.  That changes neither the channel nor the output order,
and no step is wider than the circuit as written.  The caps are checked on
the circuit as written, so a refusal does not depend on the schedule.

``choi_of`` walks a stack of r Kraus operators of shape
(r, 2^live, 2^n_in), starting from the identity; decohere and trace split
each operator in two, and the halves that are exactly zero are dropped.
The first time r exceeds D = 2^live * 2^n_in, the stack is folded into
the D x D matrix sum_k vec(K_k) vec(K_k)^dagger, and the remaining gates
walk its blocks at the input matrix units |i><j| with i <= j only; the
others are their adjoints, as Phi(X^dagger) = Phi(X)^dagger.  One loop
walks those blocks in batches, each formed from the stack by one matmul
and walked as one density walk.  The batch rule is one line: all of the
blocks where they fit DIM_CAP^2 entries at the widest remaining point,
else one per batch, which happens only on a circuit whose widest point
has live + n_in > log2(DIM_CAP).  The stack also folds before an ancilla
or decohere would double it past 2 * DIM_CAP^2 entries.  Both bounds
follow from DIM_CAP, and neither can bind on a circuit whose widest
point plus n_in fits the cap.  A walk that would exceed the cap is
refused by arithmetic on the ``replay_liveness`` counts before it starts.

The walk returns J exactly Hermitian: the fold's i > j blocks are exact
adjoints, and its diagonal blocks, like an unfolded stack's product, are
replaced by their Hermitian parts.  So no Hermiticity is checked on it;
``channel_from_choi`` checks a matrix given from outside.  Complete
positivity is certified once per Choi matrix: by the channel's pivoted
Cholesky factor where it stops within half of J's side in columns and
its residual is within TOL_CHANNEL, and by a Cholesky factor of
J + TOL_CHANNEL * I otherwise (``_check_channel``).  The factor stays on the Channel
(``Channel.factor``), so ``kraus_of`` and the diamond norm do not factor
J again.

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
from functools import cached_property

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


def _widths(gates, live: int) -> list[int]:
    """Live wire counts from ``live`` on, before the first of ``gates`` and after each."""
    return list(itertools.accumulate(
        ((g.kind == "ancilla") - (g.kind == "trace") for g in gates), initial=live))


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
    size = 4 ** max(_widths(gates, live)) * b
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
    return apply_extended(c, rho, 0)


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
    """Concrete superoperator on qubits, held as its Choi matrix.

    No code writes to ``choi`` once the Channel exists, so its factor is
    formed at most once and stays the factor of ``choi``."""

    n_in: int
    n_out: int
    choi: np.ndarray

    @property
    def dim_in(self) -> int:
        return 2**self.n_in

    @property
    def dim_out(self) -> int:
        return 2**self.n_out

    @cached_property
    def factor(self) -> tuple[np.ndarray, float]:
        """``linalg.psd_factor`` of J with at most half its side in columns.

        Where it stops on its own, its residual certifies complete
        positivity (``_check_channel``); where it is also thin, with fewer
        columns than that, ``kraus_of`` and the diamond norm decompose on
        its range.  A factor cut at half the side has an infinite
        residual, and they all work on J itself instead.
        """
        l, residual = linalg.psd_factor(self.choi, self.choi.shape[0] // 2)
        l.flags.writeable = False  # every reader of the channel gets this one array
        return l, residual


def _choi_from_kraus(kraus, n_in: int, n_out: int) -> np.ndarray:
    """sum_k vec(A_k) vec(A_k)^dagger as one matmul over the stacked operators."""
    d = 2 ** (n_in + n_out)
    v = np.asarray(kraus, dtype=np.complex128).reshape(len(kraus), d)
    return v.T @ v.conj()


def _check_channel(ch: Channel, tol: float = TOL_CHANNEL) -> list[str]:
    """Complete positivity and trace preservation of an exactly Hermitian Choi matrix.

    The channel's pivoted factor decides first (``Channel.factor``): its
    residual r bounds ||J - L L^dagger||_F, and L L^dagger >= 0, so
    lambda_min(J) >= -r, and r <= tol certifies J >= -tol.  A PSD J whose
    factor stops within half its side passes there; a factor cut at half
    the side has r = inf.  Otherwise J >= -tol holds when J + tol * I has
    a Cholesky factor; eigvalsh runs only if not, on J + tol * I, for the
    message."""
    problems = []
    if ch.factor[1] > tol:
        h = ch.choi.copy()
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
    """Build a Channel from a Choi matrix, validating admissibility.

    The one Hermiticity check on a Choi matrix: the program's own are
    exactly Hermitian (``choi_of``), a given one may not be.  The Channel
    holds (J + J^dagger) / 2, which ``_check_channel`` then reads."""
    choi = as_matrix(choi)
    d = 2 ** (n_in + n_out)
    if choi.shape != (d, d):
        raise ValueError(f"Choi matrix is {choi.shape}, expected {(d, d)}")
    defect = herm_defect(choi)
    ch = Channel(n_in, n_out, (choi + dag(choi)) / 2)
    problems = [f"Choi not Hermitian: defect {defect:.3e}"] if defect > TOL_CHANNEL else []
    problems += _check_channel(ch)
    if problems:
        raise ValueError("not an admissible channel: " + "; ".join(problems))
    return ch


def _kraus_step(k: np.ndarray, g, live: int) -> tuple[np.ndarray, int]:
    """One gate on a C-contiguous Kraus stack k of shape (r, 2^live, d_in);
    returns the new stack and live count.

    A unitary acts on the live axes, overwriting k: the stack is copied
    once with the gate's axes first, the matmul by u writes back into k's
    buffer, and the copy's buffer takes the product back in k's axis
    order, so the step holds two stack-sized arrays.  Decohere and trace
    split every operator in two on the gate's bit and keep the halves that
    are not exactly zero; ancilla appends a |0> axis.
    """
    r, din = k.shape[0], k.shape[2]
    if g.kind == "unitary":
        a, axes = len(g.wires), [1 + w for w in g.wires]
        # explicit axis orders: two np.moveaxis calls took over half of a step on a small stack
        order = axes + [x for x in range(live + 2) if x not in axes]
        back = sorted(range(live + 2), key=order.__getitem__)
        t = k.reshape((r,) + (2,) * live + (din,))
        moved = t.transpose(order).copy()
        product = k.reshape(moved.shape)
        np.matmul(g.matrix, moved.reshape(2**a, -1), out=product.reshape(2**a, -1))
        out = moved.reshape(t.shape)
        out[...] = product.transpose(back)
        return out.reshape(r, 2**live, din), live
    if g.kind == "ancilla":
        grown = np.zeros((r, 2**live, 2, din), dtype=np.complex128)
        grown[:, :, 0] = k
        return grown.reshape(r, 2 ** (live + 1), din), live + 1
    t = k.reshape(r, 2 ** g.wires[0], 2, -1)
    if g.kind == "decohere":
        split = np.zeros((2,) + t.shape, dtype=np.complex128)
        split[0, :, :, 0] = t[:, :, 0]
        split[1, :, :, 1] = t[:, :, 1]
        k = split.reshape(2 * r, 2**live, din)
    else:  # trace: ``schedule`` refuses any other kind
        live -= 1
        k = np.moveaxis(t, 2, 0).reshape(2 * r, 2**live, din)
    # a split on a bit still in a basis state leaves exact zeros
    return k[k.reshape(k.shape[0], -1).any(axis=1)], live


def _fold(k: np.ndarray, gates, n_in: int, live: int) -> np.ndarray:
    """Choi matrix of ``gates`` run on sum_k vec(K_k) vec(K_k)^dagger.

    The walk carries the din(din+1)/2 blocks at |i><j|, i <= j, fills in
    the i > j blocks as their adjoints and keeps the Hermitian part
    (B + B^dagger) / 2 of each diagonal block B, so J is exactly
    Hermitian.  One loop walks them in batches of consecutive pairs: all
    of them where they fit DIM_CAP^2 entries at the widest point of
    ``gates``, else one.  A batch's blocks come from one matmul over the
    inputs its pairs span, K[:, :, rows]^T conj(K[:, :, cols]): the D x D
    fold for all pairs, the block A_i A_j^dagger (A_i = K[:, :, i]^T) for
    one, which always fits, as no point is wider than log2(DIM_CAP) wires.
    """
    din, r = 2**n_in, k.shape[0]
    widths = _widths(gates, live)
    m = widths[-1]
    i, j = np.triu_indices(din)
    choi = np.empty((2**m, din, 2**m, din), dtype=np.complex128)
    blocks = choi.transpose(0, 2, 1, 3)
    batch = len(i) if 4 ** max(widths) * len(i) <= linalg.DIM_CAP**2 else 1
    for at in range(0, len(i), batch):
        a, b = i[at : at + batch], j[at : at + batch]  # a is sorted, b need not be
        rows, cols = slice(a[0], a[-1] + 1), slice(b.min(), b.max() + 1)
        # one expression, so the operands' copies are freed before the walk
        fold = k[:, :, rows].reshape(r, -1).T @ k[:, :, cols].conj().reshape(r, -1)
        fold = fold.reshape(2**live, rows.stop - rows.start, 2**live, -1).transpose(0, 2, 1, 3)
        out, _ = _run_gates(fold[:, :, a - rows.start, b - cols.start], gates, live)
        diag = out[:, :, a == b]
        out[:, :, a == b] = (diag + diag.conj().swapaxes(0, 1)) / 2
        blocks[:, :, b, a] = out.conj().swapaxes(0, 1)
        blocks[:, :, a, b] = out
    return choi.reshape(2**m * din, 2**m * din)


def _kraus_walk_choi(c: Circuit) -> np.ndarray:
    """Choi matrix from one walk of a Kraus stack, folded when it outgrows one.

    The stack K has shape (r, 2^live, 2^n_in), starts as the identity and
    takes each gate in turn (``_kraus_step``).  Once r exceeds
    D = 2^live * 2^n_in the stack outweighs the D x D matrix
    sum_k vec(K_k) vec(K_k)^dagger it stands for, and the remaining gates
    walk that fold instead (``_fold``).  The stack also folds before an
    ancilla or decohere would double it past 2 * DIM_CAP^2 entries; with
    r <= D that can happen only where D is over the cap.  The switch stays
    at r > D: at the break-even point 2^live * (din + 1) / 2 it measured
    no faster.  Either way J is exactly Hermitian: an unfolded stack's
    matmul is symmetrized here, and ``_fold`` builds its own.
    """
    n = c.n_in
    din = 2**n
    k = np.eye(din, dtype=np.complex128)[None]
    live = n
    for idx, g in enumerate(c.gates):
        if g.kind in ("ancilla", "decohere") and k.size > linalg.DIM_CAP**2:
            return _fold(k, c.gates[idx:], n, live)
        k, live = _kraus_step(k, g, live)
        if k.shape[0] > 2**live * din:
            return _fold(k, c.gates[idx + 1 :], n, live)
    choi = _choi_from_kraus(k, n, live)
    choi += dag(choi)  # in place: the product is Hermitian only up to rounding
    choi /= 2
    return choi


def choi_of(c: Circuit) -> Channel:
    """Extract the circuit's channel as a Choi matrix.

    One walk of a Kraus stack from the identity, folded into a density walk
    of its upper blocks once the stack outgrows them (module docstring).
    The caps are checked on ``c`` as written, and the walk runs
    ``schedule(c)``.  The walk returns J exactly Hermitian, so nothing
    symmetrizes it here and no Hermiticity is checked.  Complete positivity
    is certified by the channel's pivoted factor, or where that is cut at
    half the side, by a Cholesky factor of J + TOL_CHANNEL * I
    (``_check_channel``); the factor stays on the Channel for ``kraus_of``
    and the diamond norm.
    Trace preservation is checked too.  A failure beyond tolerance is a
    simulator bug, not a property of the circuit, and raises
    InternalConsistencyError.
    """
    counts = replay_liveness(c)
    n = c.n_in
    m = counts[-1]
    linalg.check_cap(2 ** (m + n), "Choi matrix")
    check_wires(max(counts))
    ch = Channel(n, m, _kraus_walk_choi(schedule(c)))
    problems = _check_channel(ch)
    if problems:
        raise InternalConsistencyError(
            f"circuit {c.name!r} produced an inadmissible channel: " + "; ".join(problems)
        )
    return ch


def kraus_of(ch: Channel) -> list[np.ndarray]:
    """Kraus operators A_k from scaled eigenvectors of the Choi matrix.

    The only place Kraus operators are produced.  J is decomposed on its
    range: the channel's pivoted Cholesky factor J ~ L L^dagger
    (``Channel.factor``, formed once per channel) and ``range_spectral``
    of L, a thin QR and the eigendecomposition of its small core, give J's
    eigenpairs.  Its residual r bounds how far J's least eigenvalue can
    fall below zero, so r <= TOL_PSD certifies complete positivity.  Where
    r is larger, or L has half as many columns as J's side or more, J
    itself is decomposed instead, and a Choi eigenvalue below -TOL_PSD
    raises NotCompletelyPositiveError.  Eigenvalues up to KRAUS_EIG_CUTOFF
    are dropped.  The operators are then checked to be complete
    (sum_k A_k^dagger A_k = I) and to rebuild J, and a deviation beyond
    TOL_CHANNEL raises InternalConsistencyError.
    """
    l, residual = ch.factor
    if l.shape[1] < ch.choi.shape[0] // 2 and residual <= TOL_PSD:
        w, v = linalg.range_spectral(l)
    else:
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


def channel_apply_ext(ch: Channel, x, ref_dim: int) -> np.ndarray:
    """(Phi (x) I_ref)(x) for any operator x on input (x) reference."""
    return _contract(ch.choi.reshape(ch.dim_out, ch.dim_in, ch.dim_out, ch.dim_in), x, ref_dim)


def adjoint_apply_ext(ch: Channel, m, ref_dim: int) -> np.ndarray:
    """(Phi^dagger (x) I_ref)(M) for any operator M on output (x) reference:
    the kernel is conj(J) with input and output swapped."""
    j4 = ch.choi.reshape(ch.dim_out, ch.dim_in, ch.dim_out, ch.dim_in)
    return _contract(j4.conj().transpose(1, 0, 3, 2), m, ref_dim)


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
    # NaN fails 0 <= w, and would pass both w < 0 and the sum test
    if any(not 0 <= w < math.inf for w in weights) or abs(sum(weights) - 1.0) > TOL_TRACE:
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
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed density JSON: qubits {obj.get('qubits')!r}") from exc
    # n must be the bit count of the side, which the cap bounds, before 2^n is formed:
    # 2^n of a huge n never finishes
    if n != m.shape[0].bit_length() - 1 or m.shape != (2**n, 2**n):
        raise ValueError(
            f"matrix shape {m.shape} does not match declared qubit count {n}"
        )
    # a density matrix's real and imaginary parts are at most 1 in magnitude;
    # a distance of parts near the float maximum would overflow
    peak = float(np.abs(m.view(np.float64)).max(initial=0.0))
    if peak > 1 + TOL_TRACE:
        raise ValueError(f"density JSON entry part {peak:.3e} exceeds 1: not a density matrix")
    return m
