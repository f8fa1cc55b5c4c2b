"""Distance measures for states and channels.

Trace norm, fidelity (direct and via purifications), Helstrom measurements,
the diamond-norm distance as a certified interval, and maximum image
fidelity.  Every reported value is attained by the returned witness.

Diamond norm.  For channels Phi_0, Phi_1 on input space H with Choi
matrices J_0, J_1 on output (x) input, let J = J_0 - J_1 and, for a state
rho on H with s = sqrt(rho),

    M(rho) = (I_out (x) s) J (I_out (x) s).

M(rho) is (Phi_0 (x) I - Phi_1 (x) I)(psi psi^dagger) for psi = vec(s^T) on
H (x) H, so ||M(rho)||_1 is a lower bound attained by psi.  It is Watrous's
SDP value at a fixed rho (arXiv:1207.5726), concave in rho, so one ascent
from rho = I/d_in needs no restarts:

    rho <- tr_out M_+ / tr M_+

with M_+ the positive part of M(rho).  The dual point
Z = (I (x) s^+) M_+ (I (x) s^+), with s^+ the pseudo-inverse on the support
of rho, meets Z >= 0, and Z >= J where rho has full rank, in exact
arithmetic; then 2 lambda_max(tr_out Z) bounds the norm from above, and
G = s^+ (tr_out M_+) s^+ is that tr_out Z.  Rounding amplified by s^+, and
directions off the support of rho, can break both constraints, so the
certified bound adds 2 d_out eps with
eps = max(0, -lambda_min(Z - J), -lambda_min(Z)): Z + eps I is feasible.
The bound is also at most 2, the norm of any difference of channels.
Where the optimal rho is rank-deficient the ascent can stall on the
boundary with the gap open.  The polished input state, mixed with a little
of I/d_in so that nothing is inverted off its support, is then certified
as well, and a seesaw run started from the ascent's psi polishes the
lower bound:

    (a) Delta <- (Phi_0 (x) I - Phi_1 (x) I)(psi psi^dagger)
    (b) M     <- projector onto the strictly positive eigenspace of Delta
    (c) K     <- (Phi_0 - Phi_1)^dagger (x) I applied to M
    (d) psi   <- top eigenvector of (K + K^dagger)/2

Both half-steps exactly maximize the objective 2 tr(M Delta) in their own
block, so the objective is monotone nondecreasing.  Steps (a) and (c) are
each one contraction with J_0 - J_1; the reported value is recomputed
from the two channels at the returned psi.

Maximum image fidelity.  F(Q_0(rho_0), Q_1(rho_1)) is maximized over mixed
inputs by parametrizing each rho_i through a purification psi_i on
H (x) G.  With the Stinespring isometries W_i = sum_k A_k (x) |k> of the
Kraus operators, padded with zero operators to one environment E of size
r = max(r_0, r_1), Uhlmann's theorem gives the fidelity as
max_V |<psi_1| W_1^dagger (I (x) V) W_0 |psi_0>| over unitaries V on
E (x) G.  Alternating the three blocks (V by SVD, each psi_i by
normalization) again gives closed-form monotone updates, each a few
reshaped matmuls.  The objective is not concave, so the ascent runs from
random restarts, all of them as one stack (in slices where the matrices
are wide): every iteration is one batched matmul chain and one batched
SVD over the restarts still running, and a restart leaves the stack when
it stops.  The early stop keeps the meaning of restarts run one after
another: the run ends when the first restart j to reach F = 1 has
stopped and so has every restart before it, and restarts after j do not
count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import (
    TOL_PSD,
    as_state,
    dag,
    partial_trace,
    psd_sqrt,
    singular_values,
    spectral,
)
from .circuits import Circuit
from .dilation import dilated_isometry
from .simulate import (
    Channel,
    InternalConsistencyError,
    _contract,
    _kernel,
    apply,
    channel_apply_ext,
    choi_of,
    kraus_of,
    require_density,
)

#: Monotonicity slack for the ascent objectives; a larger backward step
#: indicates a bug in the channel algebra, not numerical jitter.
MONOTONE_SLACK = 1e-12

#: A diamond-norm interval whose gap, upper minus value, is at most this is
#: converged; a wider one is still reported, with exit code 4 on the CLI.
GAP_TOL = 1e-6

#: Eigenvalues of rho below this fraction of its largest are off its
#: support: the certificate's pseudo-inverse leaves them out.
SUPPORT_CUT = 1e-14

#: The ascent runs until its input-side gap is below this.  Its lower bound
#: closes on the optimum about as fast as the upper one, so a hundredth of
#: GAP_TOL leaves the value within ~1e-8 of the optimum, for a few more
#: iterations of a geometric convergence.
ASCENT_TOL = GAP_TOL / 100

#: The image-fidelity restarts ascend in slices, one after another, whose
#: stacks of SVD-sized matrices take at most this many bytes.  Wider stacks
#: allocate temporaries that fault in fresh pages on every step (about 10^4
#: faults per run on side-512 pairs at four restarts a slice), which cost
#: more than batching saves.  On 1-qubit pairs (8 x 8 matrices) all
#: restarts fit one slice; at side 512 (64 x 64) two do.
STACK_BYTES = 2**17

#: Weights delta of I/d_in mixed into the polished input state before it is
#: certified.  A rank-deficient rho voids its own certificate; mixing costs
#: O(delta) in the bound and inverts eigenvalues of at least delta/d_in, so
#: a ladder of delta finds the balance, about 1e-5 on 1-qubit pairs.
MIX_WEIGHTS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


@dataclass(frozen=True)
class OptimizerConfig:
    """Iteration and restart policy of the optimizers.

    ``max_iters`` caps each run: the diamond-norm ascent, its seesaw polish
    and each image-fidelity restart.  ``rel_tol`` stops the seesaw polish
    and the image-fidelity ascent on a relative change of the objective.
    ``restarts`` and ``seed`` are read by ``max_image_fidelity`` only:
    restart j uses seed + j, so runs are reproducible and restarts are
    independent, and the max over restarts is order-independent.  The
    restarts ascend together as one stack; each still stops on its own,
    and the early stop at F = 1 counts the restarts up to the first one
    that reaches it, as if they had run in order.
    ``diamond_norm`` is deterministic and stops on its certified gap
    (GAP_TOL).
    """

    restarts: int = 32
    max_iters: int = 500
    rel_tol: float = 1e-10
    seed: int = 0

    def __post_init__(self):
        if self.restarts < 1:
            raise ValueError("restarts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.rel_tol <= 0:
            raise ValueError("rel_tol must be positive")


@dataclass(eq=False)
class DiamondWitness:
    """Certified interval [value, upper] on a diamond-norm distance.

    ``value`` equals the trace norm of (Phi_0 (x) I - Phi_1 (x) I) applied
    to ``psi psi^dagger``; ``measurement`` is the Helstrom projector for
    that difference on the output (x) reference space.  ``upper`` is the
    repaired dual bound of the ascent, and ``iterations`` counts ascent and
    polish steps.
    """

    value: float
    psi: np.ndarray
    measurement: np.ndarray
    upper: float
    iterations: int

    @property
    def gap(self) -> float:
        return self.upper - self.value

    @property
    def converged(self) -> bool:
        return self.gap <= GAP_TOL


@dataclass(eq=False)
class ImageFidelityResult:
    """Witnessed lower bound for max F(Q0(rho0), Q1(rho1))."""

    value: float
    rho0: np.ndarray
    rho1: np.ndarray
    restarts_used: int
    converged: bool

    def __iter__(self):
        return iter((self.value, self.rho0, self.rho1))


def trace_norm(x) -> float:
    """Sum of the singular values."""
    return float(singular_values(x).sum())


def fidelity(rho, xi) -> float:
    """F(rho, xi) = tr sqrt(sqrt(rho) xi sqrt(rho)), clamped into [0, 1]."""
    rho = require_density(rho)
    xi = require_density(xi)
    if rho.shape != xi.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {xi.shape}")
    s = psd_sqrt(rho)
    inner = s @ xi @ s
    w = np.linalg.eigvalsh((inner + dag(inner)) / 2)
    f = float(np.sqrt(np.clip(w, 0.0, None)).sum())
    return min(max(f, 0.0), 1.0)


def fidelity_via_purification(psi, phi, dims) -> float:
    """Fidelity of two reduced states from purifications on a shared space.

    ``dims = (d_sys, d_aux)``: both vectors live on system (x) auxiliary,
    the reduced states are the system-side partial traces, and the value is
    the trace norm of the auxiliary-side operator tr_sys |psi><phi|.
    """
    psi = as_state(psi)
    phi = as_state(phi)
    d_sys, d_aux = int(dims[0]), int(dims[1])
    if psi.size != d_sys * d_aux or phi.size != d_sys * d_aux:
        raise ValueError(
            f"purifications of size {psi.size}, {phi.size} do not match dims {dims}"
        )
    a = psi.reshape(d_sys, d_aux)
    b = phi.reshape(d_sys, d_aux)
    return trace_norm(a.T @ b.conj())


def helstrom(delta, tol: float = TOL_PSD) -> tuple[np.ndarray, float]:
    """Optimal projective measurement for a Hermitian difference operator.

    Returns (M, value) with M the projector onto the strictly positive
    eigenspace of delta (eigenvalues within ``tol`` of zero are excluded,
    keeping M minimal) and value = 2 tr(M delta) - tr(delta), which equals
    the trace norm of delta.
    """
    w, v = spectral(delta)
    cols = v[:, w > tol]
    m = cols @ dag(cols)
    value = float(2 * np.real(np.trace(m @ delta)) - np.real(np.trace(delta)))
    return m, value


def _random_unit(rng: np.random.Generator, dim: int) -> np.ndarray:
    z = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    return z / np.linalg.norm(z)


def _difference_kernels(ch0: Channel, ch1: Channel) -> tuple[np.ndarray, np.ndarray]:
    """``_contract`` kernels of Phi_0 - Phi_1 and its adjoint: both actions
    are linear in J, so one contraction with J0 - J1 replaces two."""
    j = ch0.choi - ch1.choi
    return _kernel(j, ch0.dim_in, ch0.dim_out), _kernel(j, ch0.dim_in, ch0.dim_out, adjoint=True)


def _seesaw(forward, adjoint, ref_dim: int, psi: np.ndarray, max_iters: int, rel_tol: float):
    """One seesaw run from the unit vector ``psi``; returns (value, psi,
    measurement, converged, history).

    ``value`` is the Helstrom value at the returned ``psi``, whose
    measurement is ``measurement``; it can sit up to ``slack`` below
    ``max(history)``.
    """
    # helstrom leaves eigenvalues within TOL_PSD of zero out of M, and each
    # lowers 2 tr(M Delta) - tr Delta by up to 2 TOL_PSD: on Delta of this
    # side, a drop of up to 2 side TOL_PSD is rounding, not a fault of the
    # channel algebra
    slack = 2 * forward.shape[0] * ref_dim * TOL_PSD
    prev = -np.inf
    converged = False
    history: list[float] = []
    for _ in range(max_iters):  # OptimizerConfig guarantees max_iters >= 1
        evaluated = psi
        delta = _contract(forward, np.outer(psi, psi.conj()), ref_dim)
        delta = (delta + dag(delta)) / 2
        m, value = helstrom(delta)
        history.append(value)
        if value < prev - slack:
            raise InternalConsistencyError(
                f"seesaw objective decreased from {prev!r} to {value!r}"
            )
        if abs(value - prev) <= rel_tol * max(1.0, abs(value)):
            converged = True
            break
        prev = value
        k = _contract(adjoint, m, ref_dim)
        k = (k + dag(k)) / 2
        _, vecs = spectral(k)
        psi = vecs[:, 0]
    return history[-1], evaluated, m, converged, history


def _sandwich(x: np.ndarray, a: np.ndarray, dim_out: int) -> np.ndarray:
    """(I_out (x) a) x (I_out (x) a) for x on output (x) input and Hermitian
    a on the input, as two broadcast matmuls over x's input axes."""
    n = x.shape[0]
    dim_in = a.shape[0]
    left = (a @ x.reshape(dim_out, dim_in, n)).reshape(n, dim_out, dim_in)
    return (left @ a).reshape(n, n)


def _lambda_max(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((h + dag(h)) / 2)[-1])


def _infeasibility(z: np.ndarray, j: np.ndarray) -> float:
    """eps = max(0, -lambda_min(Z - J), -lambda_min(Z)): how far Z misses
    the dual constraints Z >= J and Z >= 0.  Z + eps I meets both."""
    return max(0.0, -float(np.linalg.eigvalsh(z - j)[0]), -float(np.linalg.eigvalsh(z)[0]))


def _certified_upper(j: np.ndarray, m_pos: np.ndarray, s_inv: np.ndarray, dim_out: int) -> float:
    """2 lambda_max(tr_out Z) + 2 d_out eps for Z = (I (x) s_inv) M_+ (I (x) s_inv):
    the repair Z + eps I adds eps d_out to every eigenvalue of tr_out Z."""
    dim_in = s_inv.shape[0]
    z = _sandwich(m_pos, s_inv, dim_out)
    z = (z + dag(z)) / 2
    g = partial_trace(z, [dim_out, dim_in], [1])
    return 2 * _lambda_max(g) + 2 * dim_out * _infeasibility(z, j)


def _positive_part(j: np.ndarray, s: np.ndarray, dim_out: int) -> tuple[float, np.ndarray]:
    """(||M||_1, M_+) for M = (I_out (x) s) J (I_out (x) s)."""
    e, u = spectral(_sandwich(j, s, dim_out))
    pos = e > 0
    return float(np.abs(e).sum()), (u[:, pos] * e[pos]) @ dag(u[:, pos])


def _root_and_inverse(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(rho) and its pseudo-inverse on the support of rho (SUPPORT_CUT)."""
    w, v = spectral(rho)
    w = np.clip(w, 0.0, None)
    supp = w > SUPPORT_CUT * w[0]
    return (v * np.sqrt(w)) @ dag(v), (v[:, supp] / np.sqrt(w[supp])) @ dag(v[:, supp])


def _ascent(j: np.ndarray, dim_in: int, dim_out: int, max_iters: int):
    """Ascent over the input state rho from I/d_in; returns (lower, upper,
    sqrt(rho), iterations) at the iterate it stops on.

    Each iteration bounds the gap on the input side, 2 lambda_max(G) minus
    the lower bound; the certificate on output (x) input is formed at the
    iterate where that gap falls below ASCENT_TOL, or at ``max_iters``.
    Where the input-side gap closes but the certificate does not, rho sits
    on a boundary of the state space, and further steps only shrink an
    eigenvalue that the certificate then inverts, so the ascent stops there.
    """
    rho = np.eye(dim_in) / dim_in
    for it in range(1, max_iters + 1):
        s, s_inv = _root_and_inverse(rho)
        lower, m_pos = _positive_part(j, s, dim_out)
        t = partial_trace(m_pos, [dim_out, dim_in], [1])
        if 2 * _lambda_max(s_inv @ t @ s_inv) - lower <= ASCENT_TOL or it == max_iters:
            break
        rho = t / np.trace(t).real
    return lower, _certified_upper(j, m_pos, s_inv, dim_out), s, it


def _mixed_upper(j: np.ndarray, rho: np.ndarray, dim_out: int) -> float:
    """Least certified bound at (1 - delta) rho + delta I/d_in over MIX_WEIGHTS."""
    dim_in = rho.shape[0]
    bounds = []
    for delta in MIX_WEIGHTS:
        s, s_inv = _root_and_inverse((1 - delta) * rho + delta * np.eye(dim_in) / dim_in)
        bounds.append(_certified_upper(j, _positive_part(j, s, dim_out)[1], s_inv, dim_out))
    return min(bounds)


def diamond_norm(
    ch0: Channel,
    ch1: Channel,
    cfg: OptimizerConfig | None = None,
    *,
    ref_qubits: int | None = None,
) -> DiamondWitness:
    """Certified interval [value, upper] on the diamond-norm distance.

    One deterministic ascent over the input state (module docstring).
    While its gap is above GAP_TOL, a seesaw run from its witness polishes
    the value, and the polished witness's input state, mixed with a little
    of I/d_in, is certified too.  The reference space defaults to the input
    dimension, which suffices for the exact value; ``ref_qubits`` exists so
    tests can confirm that a larger reference gains nothing.
    """
    if (ch0.n_in, ch0.n_out) != (ch1.n_in, ch1.n_out):
        raise ValueError(
            f"channels disagree on type: ({ch0.n_in},{ch0.n_out}) vs ({ch1.n_in},{ch1.n_out})"
        )
    cfg = cfg or OptimizerConfig()
    if ref_qubits is None:
        ref_qubits = ch0.n_in
    if ref_qubits < ch0.n_in:
        raise ValueError(f"reference of {ref_qubits} qubits is smaller than the {ch0.n_in} inputs")
    din, dout = ch0.dim_in, ch0.dim_out
    ref_dim = 2**ref_qubits
    linalg.check_cap(din * ref_dim, context="diamond-norm input")
    linalg.check_cap(dout * ref_dim, context="diamond-norm output")
    j = ch0.choi - ch1.choi
    j = (j + dag(j)) / 2
    lower, upper, s, iterations = _ascent(j, din, dout, cfg.max_iters)
    # psi = vec(sqrt(rho)^T), padded to the reference: (Phi (x) I)(psi psi^dagger) is M(rho)
    x = np.zeros((din, ref_dim), dtype=np.complex128)
    x[:, :din] = s.T
    if upper - lower > GAP_TOL:
        value, polished, _, _, history = _seesaw(
            *_difference_kernels(ch0, ch1), ref_dim, x.reshape(-1), cfg.max_iters, cfg.rel_tol
        )
        iterations += len(history)
        if value > lower:
            x = polished.reshape(din, ref_dim)
        # psi = vec(x) stands for rho = (x x^dagger)^T
        upper = min(upper, _mixed_upper(j, (x @ dag(x)).T, dout))
    psi = x.reshape(-1)
    # the reported value comes from the two channels at the returned psi
    rho = np.outer(psi, psi.conj())
    delta = channel_apply_ext(ch0, rho, ref_dim) - channel_apply_ext(ch1, rho, ref_dim)
    measurement, value = helstrom((delta + dag(delta)) / 2)
    return DiamondWitness(value, psi, measurement, min(upper, 2.0), iterations)


def _normalized(cand: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Each matrix of the stack ``cand`` at unit norm; where that norm
    vanishes, the matching matrix of ``psi`` is kept."""
    flat = cand.reshape(len(cand), 1, -1)
    re, im = flat.real, flat.imag
    # per matrix, the dot products np.linalg.norm takes of one matrix, so a
    # restart rounds the same in a stack as alone; norm is (k, 1, 1)
    norm = np.sqrt(re @ re.swapaxes(1, 2) + im @ im.swapaxes(1, 2))
    ok = norm > 1e-200
    if ok.all():
        return cand / norm
    return np.where(ok, cand / np.where(ok, norm, 1.0), psi)


def _uhlmann_step(w0, w1, w0h, w1h, v0, psi0, psi1):
    """(value, psi0, psi1, v0): the objective at each restart of a stack,
    and the restart's next psi0 and psi1.  ``v0`` is ``w0 @ psi0`` as
    d_out x dfg matrices; the next one is returned with them.  ``w0h`` and
    ``w1h`` are the conjugate transposes of the isometries."""
    k, dout, dfg = v0.shape
    din = psi0.shape[1]
    v1 = (w1 @ psi1).reshape(k, dout, dfg)
    # full: V must be unitary, not a partial isometry
    p, s, qh = np.linalg.svd(v0.swapaxes(1, 2) @ v1.conj())
    # V = Qh^dagger P^dagger; I (x) V acts on the d_out x dfg matrix v_i as
    # v_i @ V^T, and V^T is the conjugate transpose of V^*
    v_conj = qh.swapaxes(1, 2) @ p.swapaxes(1, 2)
    psi0 = _normalized(w0h @ (v1 @ v_conj).reshape(k, -1, din), psi0)
    v0 = (w0 @ psi0).reshape(k, dout, dfg)
    psi1 = _normalized(w1h @ (v0 @ v_conj.conj().swapaxes(1, 2)).reshape(k, -1, din), psi1)
    return s.sum(axis=1), psi0, psi1, v0


def _restarts_used(values: np.ndarray, running: np.ndarray) -> int:
    """Restarts the early stop leaves counted, or 0 while that is not known.

    The first restart j whose value reaches 1 - 1e-12 ends the run, once
    no restart before it is still running; without one, every restart
    counts once none is running.  Unfinished restarts hold -inf.
    """
    hits = np.flatnonzero(values >= 1.0 - 1e-12)
    end = int(hits[0]) + 1 if hits.size else len(values)
    return 0 if running[:end].any() else end


def max_image_fidelity(
    q0: Circuit, q1: Circuit, cfg: OptimizerConfig | None = None
) -> ImageFidelityResult:
    """Witnessed maximum of F(Q0(rho0), Q1(rho1)) over input states.

    Optimizes over purifications on input (x) reference (reference of input
    dimension), since joint concavity of the fidelity means the maximizer
    may be mixed.  The ambient side d_out * r * d_in is capped; at the cap
    (four parity blocks of id vs decohere) a run takes minutes and may stop
    unconverged.  The returned value is recomputed from the witnesses, so
    it is a certified lower bound regardless of optimizer state.

    The restarts ascend as one stack, or as slices of it run one after
    another where the matrices are wide (STACK_BYTES): each iteration is
    one batched matmul chain and one batched SVD over the restarts still
    running.  A restart leaves the stack when its step changes the value
    by at most ``rel_tol``, with the psi that gave that value; at
    ``max_iters`` the rest leave unconverged, after their last update.
    The run ends once the first restart j to reach F >= 1 - 1e-12 has
    stopped and every restart before j has too: ``restarts_used`` is
    j + 1 and the witness is the first argmax over restarts 0..j, as if
    they had run in order.  The worst case is a restart 0 that reaches
    F = 1 only slowly: the others in its slice run beside it, up to
    ``restarts`` times the work of running restart 0 alone.
    """
    if (q0.n_in, q0.n_out) != (q1.n_in, q1.n_out):
        raise ValueError("circuits disagree on type")
    cfg = cfg or OptimizerConfig()
    din = 2**q0.n_in
    dout = 2**q0.n_out
    kraus0 = kraus_of(choi_of(q0))
    kraus1 = kraus_of(choi_of(q1))
    r = max(len(kraus0), len(kraus1))  # one environment for both (Uhlmann)
    dfg = r * din  # environment (x) reference
    linalg.check_cap(dout * dfg, context="image-fidelity ambient space")
    w0 = dilated_isometry(kraus0, r).reshape(dout * r, din)
    w1 = dilated_isometry(kraus1, r).reshape(dout * r, din)
    isometries = (w0, w1, dag(w0), dag(w1))
    n = cfg.restarts
    # psi_i of restart j as a d_in x d_ref matrix; (W_i (x) I) psi_i is then W_i @ psi_i
    psi0 = np.empty((n, din, din), dtype=np.complex128)
    psi1 = np.empty_like(psi0)
    for j in range(n):
        rng = np.random.default_rng(cfg.seed + j)
        psi0[j] = _random_unit(rng, din * din).reshape(din, din)
        psi1[j] = _random_unit(rng, din * din).reshape(din, din)
    wit0, wit1 = np.empty_like(psi0), np.empty_like(psi1)
    values = np.full(n, -np.inf)
    converged = np.zeros(n, dtype=bool)
    running = np.ones(n, dtype=bool)
    used = 0
    width = max(1, STACK_BYTES // (16 * dfg * dfg))
    for start in range(0, n, width):
        live = np.arange(start, min(start + width, n))  # the restart of each row of the stack
        a0, a1, prev = psi0[live], psi1[live], np.full(len(live), -np.inf)
        v0 = (w0 @ a0).reshape(len(live), dout, dfg)
        for _ in range(cfg.max_iters):
            value, next0, next1, v0 = _uhlmann_step(*isometries, v0, a0, a1)
            change = value - prev
            if change.min() < -MONOTONE_SLACK:
                i = int(change.argmin())
                raise InternalConsistencyError(
                    f"image-fidelity objective of restart {live[i]} decreased "
                    f"from {prev[i]!r} to {value[i]!r}"
                )
            # value, a sum of singular values, is never negative
            stop = np.abs(change) <= cfg.rel_tol * np.maximum(1.0, value)
            if stop.any():
                ids = live[stop]
                values[ids], converged[ids], running[ids] = value[stop], True, False
                wit0[ids], wit1[ids] = a0[stop], a1[stop]
                keep = ~stop
                live, value, next0, next1, v0 = (
                    x[keep] for x in (live, value, next0, next1, v0)
                )
                used = _restarts_used(values, running)
                if used or not live.size:
                    break
            prev, a0, a1 = value, next0, next1
        else:  # the iteration cap stops the restarts still running
            values[live], wit0[live], wit1[live], running[live] = prev, a0, a1, False
            used = _restarts_used(values, running)
        if used:
            break
    best = int(np.argmax(values[:used]))
    rho0, rho1 = wit0[best] @ dag(wit0[best]), wit1[best] @ dag(wit1[best])
    value = fidelity(apply(q0, rho0), apply(q1, rho1))
    return ImageFidelityResult(value, rho0, rho1, used, bool(converged[best]))


def witness_to_json(w: DiamondWitness) -> dict:
    return {
        "value": float(w.value),
        "upper": float(w.upper),
        "gap": float(w.gap),
        "iterations": int(w.iterations),
        "converged": bool(w.converged),
        "psi": linalg.complex_pairs(w.psi),
        "measurement": linalg.matrix_to_json(w.measurement),
    }
