"""Exact circuit action on density matrices and superoperator extraction.

Wires are qubits with wire 0 most significant in the computational basis.
The Choi matrix convention is J(Phi) = sum_ij Phi(|i><j|) (x) |i><j| with
the output factor first and no normalization, so a trace-preserving map has
tr_out J = I_in and an admissible map has J >= 0.  A ``Channel`` is its Choi
matrix and nothing else.  Its action with a reference system,
(Phi (x) I)(X), and the adjoint action are one matmul each against J with
its axes permuted, ``channel_apply_ext`` and ``adjoint_apply_ext``, the
only users of that matmul (``_contract``); Kraus operators are recovered
from scaled Choi eigenvectors only on request (``kraus_of``).  Both
distances take Channels and read ``Channel.factor``, so neither factors J.

Every walk runs the circuit in its narrowest equivalent schedule
(``circuits.schedule``): each ancilla just before its wire's first gate,
each trace just after its wire's last gate, gates whose wires are all
traced next and decoheres of diagonal wires dropped, and SWAPs restoring
the output order.  That changes neither the channel nor the output order,
and no step is wider than the circuit as written.  The caps are checked on
the circuit as written, so a refusal does not depend on the schedule.

``choi_of`` extracts J one independent wire group at a time
(``circuits.schedule_groups``): a gate the schedule keeps joins the
groups of its wires, and nothing else couples two wires.  A k-fold tensor
product is k groups, walked as k circuits of one copy's width and d_in
rather than one of k times both.  Inputs traced before any kept gate form
the discarded factor, whose Choi matrix is I and takes no walk.  Each
group is scheduled on its own wires, with no SWAPs between groups, and J
is written from the factors by one broadcast product into its own buffer
(``_product``), with no temporary of J's size.  Complete positivity is
then certified one group at a time, never at J's side: each group's Choi
matrix at a tolerance that keeps J >= -TOL_CHANNEL through the product
and its rounding (``_check_groups``).  Trace preservation is checked on
the assembled J, one read of it that also checks the assembly at run
time.  A circuit of one group with every input is walked whole, as
``schedule(c)``, and certified on J itself.

Each walk (``_kraus_walk_choi``) carries a stack of r Kraus operators of
shape (r, 2^live, 2^n_in), starting from the identity; decohere and trace
split each operator in two, and the halves that are exactly zero are
dropped.
The first time r exceeds D = 2^live * 2^n_in, the stack is folded into
the D x D matrix sum_k vec(K_k) vec(K_k)^dagger, and the remaining gates
walk its blocks at the input matrix units |i><j| with i <= j only; the
others are their adjoints, as Phi(X^dagger) = Phi(X)^dagger.  One loop
walks those blocks in batches, each formed from the stack by one matmul
and walked as one density walk.  J is held as (2^m, d_in, 2^m, d_in)
and written by three index assignments per batch, each block
J[:, i, :, j] from one matrix of the walk's batch-first output: the
walked blocks, their adjoints at [:, j, :, i], then the Hermitian parts
of the diagonal blocks.  The batch rule is one line: all of the
blocks where they fit DIM_CAP^2 entries at the widest remaining point,
else one per batch, which happens only on a circuit whose widest point
has live + n_in > log2(DIM_CAP).  The stack also folds before an ancilla
or decohere would double it past 2 * DIM_CAP^2 entries.  Both bounds
follow from DIM_CAP, and neither can bind on a circuit whose widest
point plus n_in fits the cap.  A walk that would exceed the cap is
refused by arithmetic on the counts that ``Circuit`` keeps from its one
liveness walk (``n_out``, ``width``), before it starts.

The walk returns J exactly Hermitian: the fold's i > j blocks are exact
adjoints, and its diagonal blocks, like an unfolded stack's product, are
replaced by their Hermitian parts.  A product of exactly Hermitian factors
is exactly Hermitian too.  So no Hermiticity is checked on it;
``channel_from_choi`` checks a matrix given from outside.  Complete
positivity is certified once per walked Choi matrix, J or a group's, at
a tolerance t: by its pivoted Cholesky factor where that stops within
half of its side in columns and its residual is within t, and by a
Cholesky factor of it + t * I otherwise (``_check_channel``).  J's
factor stays on the Channel (``Channel.factor``), so ``kraus_of`` and the
diamond norm do not factor J again; a product's J is factored only when
one of them first asks.

The density walk (``_run_gates``, also behind ``simulate``) holds a batch
of B operators on the live wires as one [2] * (2 * live) + [B] tensor,
rows, then columns, then the batch axis, from the first gate to the last:
each gate acts on its row and column axes in one pass for the whole batch.
It allocates two buffers sized for its widest point once, and nothing per
gate; the output is copied out once, batch first, (B, 2^m, 2^m), so no
result aliases a buffer or an input, and each operator of the batch is
one contiguous matrix.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .circuits import Circuit, schedule, schedule_groups
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

#: The one tolerance on a Choi matrix J: its Hermiticity defect where it
#: is given from outside, lambda_min(J) >= -TOL_CHANNEL (complete
#: positivity), its trace-preservation defect, and the Kraus operators'
#: completeness and rebuild of J.
TOL_CHANNEL = 1e-9


class NotCompletelyPositiveError(ValueError):
    """Choi matrix has a negative eigenvalue beyond tolerance."""


class InternalConsistencyError(RuntimeError):
    """A simulator-derived object violated an invariant it must satisfy."""


def require_density(rho) -> np.ndarray:
    """``rho`` as a matrix if it is square, Hermitian within TOL_HERM, of trace
    within TOL_TRACE of 1 and has no eigenvalue below -TOL_PSD; else refused."""
    rho = as_matrix(rho)
    if rho.shape[0] != rho.shape[1]:
        raise ValueError(f"density matrix must be square, got {rho.shape}")
    d = herm_defect(rho)
    if d > TOL_HERM:
        raise ValueError(f"density matrix not Hermitian: defect {d:.3e}")
    tr = complex(np.trace(rho))
    if abs(tr - 1.0) > TOL_TRACE:
        raise ValueError(f"density matrix trace {tr} differs from 1")
    wmin = float(np.linalg.eigvalsh((rho + dag(rho)) / 2).min())
    if wmin < -TOL_PSD:
        raise ValueError(f"density matrix has eigenvalue {wmin:.3e} < -{TOL_PSD:.1e}")
    return rho


def simulate(c: Circuit, rho: np.ndarray, ref_qubits: int = 0) -> np.ndarray:
    """Run ``c`` on the first n_in qubits of ``rho``, identity on the rest.

    Pure linear action: works for any operator input of the right size, not
    only density matrices.  The widest point of ``c`` as written, live
    wires plus ``ref_qubits``, is checked against the cap before the walk
    starts; the walk runs ``schedule(c)``.  It copies rho in as its 4^ref
    reference blocks, the batch, and lays them out again from the walk's
    batch-first copy: the one reshape that copies at the end.
    """
    check_wires(c.width + ref_qubits, "qubits mid-circuit")
    rho = as_matrix(rho)
    n, r = 2**c.n_in, 2**ref_qubits
    if rho.shape != (n * r, n * r):
        raise ValueError(f"input operator is {rho.shape}, expected side {n * r} for "
                         f"{c.n_in} input wires and {ref_qubits} reference qubits")
    t = rho.reshape(n, r, n, r).transpose(0, 2, 1, 3).reshape(n, n, r * r)
    out, m = _run_gates(t, schedule(c).gates, c.n_in)
    # the batch is (reference row, reference column), first
    return out.reshape(r, r, 2**m, 2**m).transpose(2, 0, 3, 1).reshape(2**m * r, 2**m * r)


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
    one copy of the output, batch first, (B, 2^m, 2^m), and its live width
    m.  The width is not checked here: ``simulate`` and ``choi_of`` refuse
    it first.
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
        else:  # trace: ``Gate`` has no other kind
            diag = [cur[s * g.wires[0] + (bit,) + s * (live - 1) + (bit,)] for bit in (0, 1)]
            cur = np.add(*diag, out=view(spare, live - 1))
            live, home, spare = live - 1, spare, home
    return np.moveaxis(cur, -1, 0).copy().reshape(b, 2**live, 2**live), live


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
        """``linalg.psd_factor`` of J with at most half its side in columns,
        formed on first use.

        Where it stops on its own, its residual certifies complete
        positivity (``_check_channel``); where it is also thin, with fewer
        columns than that, ``kraus_of`` and the diamond norm decompose on
        its range.  A factor cut at half the side has an infinite
        residual, and they all work on J itself instead.  ``choi_of``
        forms it while it certifies a circuit walked whole; a product's is
        left to its first reader, as its groups are certified instead.
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
    """Complete positivity of an exactly Hermitian Choi matrix, J >= -tol.
    The channel's pivoted factor decides first (``Channel.factor``): its
    residual r bounds ||J - L L^dagger||_F, and L L^dagger >= 0, so
    r <= tol certifies J >= -tol, as in ``kraus_of``.  A PSD J whose factor
    stops within half its side passes there; a factor cut at half the side
    has r = inf.  Otherwise J >= -tol holds when J + tol * I has a Cholesky
    factor; eigvalsh runs only if not, on J + tol * I, for the message."""
    if ch.factor[1] <= tol:
        return []
    h = ch.choi.copy()
    h.flat[:: h.shape[0] + 1] += tol  # in place: h + tol * I costs another side^2 array
    try:
        np.linalg.cholesky(h)
    except np.linalg.LinAlgError:
        wmin = float(np.linalg.eigvalsh(h).min()) - tol
        if wmin < -tol:
            return [f"Choi eigenvalue {wmin:.3e}: not completely positive"]
    return []


def _check_trace(ch: Channel) -> list[str]:
    """Trace preservation, tr_out J = I_in within TOL_CHANNEL: one read of J."""
    tp = partial_trace(ch.choi, [ch.dim_out, ch.dim_in], [1])
    tp_defect = float(np.abs(tp - np.eye(ch.dim_in)).max())
    if tp_defect > TOL_CHANNEL:
        return [f"not trace preserving: tr_out(choi) deviates by {tp_defect:.3e}"]
    return []


def _check_groups(groups: list[Channel]) -> list[str]:
    """Complete positivity of J, the wire groups' tensor product with I on
    the discarded inputs as ``_product`` computes it, J >= -TOL_CHANNEL,
    by ``_check_channel`` on each group's Choi matrix J_g at its own t_g.

    The eigenvalues of a Kronecker product are the products of its factors'
    (Horn and Johnson, Topics in Matrix Analysis, Thm 4.2.12), and I's are
    1.  A negative product has a negative factor, at least -t_g where
    J_g >= -t_g, and every eigenvalue of J_h is within ||J_h||_F of zero.
    So lambda_min(P) >= -sum_g t_g prod_{h != g} ||J_h||_F for the exact
    product P.  ``_product`` rounds each entry of J by at most k - 1
    complex multiplies for k groups, each within sqrt(2) gamma_2 < 1.5 eps
    relative (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
    ed., sec. 3.6; a multiply by I's 0 or 1 is exact), so |J - P| <=
    2 (k - 1) eps |P| entrywise, and ||J - P||_2 <= 2 (k - 1) eps ||P||_F
    = 2 (k - 1) eps prod_g ||J_g||_F.  Each group takes an equal share of
    what that rounding leaves of TOL_CHANNEL.  The norms are floored at
    TOL_CHANNEL, which only loosens the bound, so no share divides by zero.
    """
    norms = [max(float(np.linalg.norm(g.choi)), TOL_CHANNEL) for g in groups]
    k = len(norms)
    budget = TOL_CHANNEL - 2 * (k - 1) * np.finfo(float).eps * math.prod(norms)
    problems = []
    for g, part in enumerate(groups):
        tol = budget / (k * math.prod(norms[:g] + norms[g + 1 :]))
        problems += [f"wire group {g + 1} of {k}: {p}" for p in _check_channel(part, tol)]
    return problems


def channel_from_choi(n_in: int, n_out: int, choi) -> Channel:
    """Build a Channel from a Choi matrix, validating admissibility.

    The one Hermiticity check on a Choi matrix: the program's own are
    exactly Hermitian (``choi_of``), a given one may not be.  The Channel
    holds (J + J^dagger) / 2, which ``_check_channel`` and ``_check_trace``
    then read."""
    choi = as_matrix(choi)
    d = 2 ** (n_in + n_out)
    if choi.shape != (d, d):
        raise ValueError(f"Choi matrix is {choi.shape}, expected {(d, d)}")
    defect = herm_defect(choi)
    ch = Channel(n_in, n_out, (choi + dag(choi)) / 2)
    problems = [f"Choi not Hermitian: defect {defect:.3e}"] if defect > TOL_CHANNEL else []
    problems += _check_channel(ch) + _check_trace(ch)
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
    else:  # trace: ``Gate`` has no other kind
        live -= 1
        k = np.moveaxis(t, 2, 0).reshape(2 * r, 2**live, din)
    # a split on a bit still in a basis state leaves exact zeros
    return k[k.reshape(k.shape[0], -1).any(axis=1)], live


def _fold(k: np.ndarray, gates, n_in: int, live: int) -> np.ndarray:
    """Choi matrix of ``gates`` run on sum_k vec(K_k) vec(K_k)^dagger.

    The walk carries the din(din+1)/2 blocks at |i><j|, i <= j, fills in
    the i > j blocks as their adjoints and keeps the Hermitian part
    (B + B^dagger) / 2 of each diagonal block B, so J is exactly
    Hermitian.  J is held as (2^m, din, 2^m, din), where J[:, a, :, b]
    for index arrays a and b is (batch, 2^m, 2^m), the walk's own output
    layout: each batch is written by three index assignments, the blocks,
    their adjoints from the output conjugated in place, and the Hermitian
    parts of the diagonal blocks, with no temporary the size of J.  One
    loop walks the blocks in batches of consecutive pairs: all of them
    where they fit DIM_CAP^2 entries at the widest point of ``gates``, else
    one.  A batch's blocks come from one matmul over the inputs its pairs
    span, K[:, :, rows]^T conj(K[:, :, cols]): the D x D fold for all
    pairs, the block A_i A_j^dagger (A_i = K[:, :, i]^T) for one, which
    always fits, as no point is wider than log2(DIM_CAP) wires.
    """
    din, r = 2**n_in, k.shape[0]
    widths = _widths(gates, live)
    m = widths[-1]
    i, j = np.triu_indices(din)
    choi = np.empty((2**m, din, 2**m, din), dtype=np.complex128)
    batch = len(i) if 4 ** max(widths) * len(i) <= linalg.DIM_CAP**2 else 1
    for at in range(0, len(i), batch):
        a, b = i[at : at + batch], j[at : at + batch]  # a is sorted, b need not be
        rows, cols = slice(a[0], a[-1] + 1), slice(b.min(), b.max() + 1)
        # one expression, so the operands' copies are freed before the walk
        fold = k[:, :, rows].reshape(r, -1).T @ k[:, :, cols].conj().reshape(r, -1)
        fold = fold.reshape(2**live, rows.stop - rows.start, 2**live, -1).transpose(0, 2, 1, 3)
        out, _ = _run_gates(fold[:, :, a - rows.start, b - cols.start], gates, live)
        # choi[:, a, :, b] is (batch, 2^m, 2^m), out's own layout: the index arrays,
        # parted by a slice, lead
        choi[:, a, :, b] = out
        np.conjugate(out, out=out)  # in place: out is the walk's own copy
        choi[:, b, :, a] = out.swapaxes(1, 2)
        on = a == b
        diag = out[on]  # conj(B) of each diagonal block B, so B^dagger is its transpose
        choi[:, a[on], :, a[on]] = (diag.conj() + diag.swapaxes(1, 2)) / 2
    return choi.reshape(2**m * din, 2**m * din)


def _kraus_walk_choi(c: Circuit) -> np.ndarray:
    """Choi matrix from one walk of a Kraus stack, folded when it outgrows one.

    ``c`` is walked as one piece: a wire group of a circuit, or a whole
    circuit of one group (``_choi_matrix``), scheduled.

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


def _product(factors, width: int) -> np.ndarray:
    """The Choi matrix whose factor on each set of row bits is given.

    ``factors`` are (matrix, bits): a Choi matrix and the positions among
    J's ``width`` row bits (outputs, then inputs) of its own row bits, in
    its order; together they cover every position once.  Bits that are
    consecutive in J and in one factor merge into one axis, so J is viewed
    as a few axes of rows and the same of columns, and each factor as a
    transposed view with length-1 axes at the others'.  J is written by
    one broadcast product into that view; the factors but the largest are
    multiplied first, into at most J's size over the largest factor's, so
    no temporary is J's size beside the ufunc's fixed buffers.  A product
    of exactly Hermitian factors is exactly Hermitian: the entry at (c, r)
    multiplies the conjugates of the factors at (r, c), in the same order.
    """
    owner = [None] * width  # (factor, its own bit) at each of J's row bits
    for f, (_, bits) in enumerate(factors):
        for at, p in enumerate(bits):
            owner[p] = (f, at)
    # an axis starts where the next bit of J is not the next bit of the same factor
    starts = [p for p in range(width)
              if p == 0 or owner[p] != (owner[p - 1][0], owner[p - 1][1] + 1)]
    ends = starts[1:] + [width]
    sizes = [2 ** (e - s) for s, e in zip(starts, ends)]
    terms = []
    for f, (j, _) in enumerate(factors):
        mine = [k for k, s in enumerate(starts) if owner[s][0] == f]  # J's order
        own = sorted(mine, key=lambda k: owner[starts[k]][1])  # the factor's order
        perm = [own.index(k) for k in mine]
        t = j.reshape([sizes[k] for k in own] * 2).transpose(perm + [len(own) + x for x in perm])
        full = [sizes[k] if k in mine else 1 for k in range(len(starts))]
        terms.append(t.reshape(full * 2))
    terms.sort(key=lambda t: t.size)  # the largest last, the others' product first
    choi = np.empty((2**width, 2**width), dtype=np.complex128)
    out = choi.reshape(sizes * 2)
    if len(terms) == 1:
        out[...] = terms[0]
    else:
        np.multiply(functools.reduce(np.multiply, terms[:-1]), terms[-1], out=out)
    return choi


def _choi_matrix(c: Circuit) -> tuple[np.ndarray, list[Channel] | None]:
    """J of ``c``, one walk per wire group (``circuits.schedule_groups``),
    and the groups' own channels, or None where ``c`` is walked whole.

    A circuit of one group with every input is walked whole, as
    ``schedule(c)``: J is ``_kraus_walk_choi``'s.  Otherwise each group is
    walked on its own, the discarded inputs give the factor I with no walk,
    and J is their product (``_product``); each group's Choi matrix comes
    back as a Channel on the group's wires, for ``choi_of`` to certify.
    Exactly Hermitian either way.
    """
    groups, discarded = schedule_groups(c)
    if len(groups) == 1 and not discarded:
        return _kraus_walk_choi(groups[0].circuit), None
    m = sum(len(g.outputs) for g in groups)
    parts = [Channel(g.circuit.n_in, g.circuit.n_out, _kraus_walk_choi(g.circuit)) for g in groups]
    factors = [(p.choi, g.outputs + tuple([m + i for i in g.inputs])) for p, g in zip(parts, groups)]
    if discarded:
        factors.append((np.eye(2 ** len(discarded), dtype=np.complex128),
                        tuple([m + i for i in discarded])))
    return _product(factors, m + c.n_in), parts


def choi_of(c: Circuit) -> Channel:
    """Extract the circuit's channel as a Choi matrix.

    One walk per independent wire group, each of a Kraus stack from the
    identity, folded into a density walk of its upper blocks once the stack
    outgrows them, and J their tensor product with I on the discarded
    inputs (``_choi_matrix``, module docstring).  ``c`` met the cap on its
    live wires when it was built, and the cap on J's side, from its
    ``n_out``, is checked here before any walk.  J is exactly Hermitian,
    so nothing symmetrizes it here.

    Complete positivity, J >= -TOL_CHANNEL, is certified by
    ``_check_channel``: the pivoted factor's residual, or where that is cut
    at half the side, a Cholesky factor of J + t * I.  A circuit walked
    whole is certified on J at t = TOL_CHANNEL, and the factor stays on the
    Channel for ``kraus_of`` and the diamond norm.  A product is certified
    one group at a time, each J_g at its own t_g, and never at J's side:
    if lambda_min(J_g) >= -t_g, then
    lambda_min(J) >= -sum_g t_g prod_{h != g} ||J_h||_F - rounding,
    and the t_g keep that within TOL_CHANNEL (``_check_groups``); the
    discarded factor I is exact.  J's own factor is then formed only by
    its first reader.  Trace preservation is checked on the assembled J,
    one read of it that also checks the assembly.  A failure beyond
    tolerance is a simulator bug, not a property of the circuit, and
    raises InternalConsistencyError.
    """
    n, m = c.n_in, c.n_out
    linalg.check_cap(2 ** (m + n), "Choi matrix")
    choi, groups = _choi_matrix(c)
    ch = Channel(n, m, choi)
    problems = (_check_channel(ch) if groups is None else _check_groups(groups)) + _check_trace(ch)
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
    fall below zero, so r <= TOL_CHANNEL certifies complete positivity, as
    in ``_check_channel``.  Where r is larger, or L has half as many columns
    as J's side or more, J itself is decomposed instead, and a Choi
    eigenvalue below -TOL_CHANNEL raises NotCompletelyPositiveError.
    Eigenvalues up to KRAUS_EIG_CUTOFF are dropped.  The operators are then checked to be complete
    (sum_k A_k^dagger A_k = I) and to rebuild J, and a deviation beyond
    TOL_CHANNEL raises InternalConsistencyError.
    """
    l, residual = ch.factor
    if l.shape[1] < ch.choi.shape[0] // 2 and residual <= TOL_CHANNEL:
        w, v = linalg.range_spectral(l)
    else:
        w, v = spectral(ch.choi)
        if w[-1] < -TOL_CHANNEL:
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
    if not isinstance(obj, dict):
        raise ValueError(f"malformed density JSON: {type(obj).__name__}, not an object")
    n, rows, cols = obj.get("qubits"), obj.get("rows"), obj.get("cols")
    if type(n) is not int:  # int() would take a bool or a fraction
        raise ValueError(f"malformed density JSON: qubits {n!r} is not an integer")
    # the declared shape is checked against n before the size cap, so that a 0 x 4097
    # "state" is a usage error (exit 2), not a size cap (exit 3).  2^n is formed only
    # once n is the side's bit count: 2^n of a huge n never finishes.  Sizes that are
    # not integers are refused by matrix_from_json.
    if type(rows) is int and type(cols) is int and (
        rows != cols or n != rows.bit_length() - 1 or rows != 2**n
    ):
        raise ValueError(f"matrix shape {(rows, cols)} does not match declared qubit count {n}")
    m = linalg.matrix_from_json(obj)
    # a density matrix's real and imaginary parts are at most 1 in magnitude;
    # a distance of parts near the float maximum would overflow
    peak = float(np.abs(m.view(np.float64)).max(initial=0.0))
    if peak > 1 + TOL_TRACE:
        raise ValueError(f"density JSON entry part {peak:.3e} exceeds 1: not a density matrix")
    return m
