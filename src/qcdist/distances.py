"""Distance measures for states and channels.

Trace norm, fidelity (direct and via purifications), Helstrom measurements,
the diamond-norm seesaw, and maximum image fidelity.  The two optimizers
return certified lower bounds: every iterate is a feasible input, so the
reported value is attained by the returned witness.

Diamond-norm seesaw.  For channels Phi_0, Phi_1 with input space H, fix a
reference space G of the same dimension and ascend over unit vectors psi on
H (x) G:

    (a) Delta <- (Phi_0 (x) I - Phi_1 (x) I)(psi psi^dagger)
    (b) M     <- projector onto the strictly positive eigenspace of Delta
    (c) K     <- (Phi_0 - Phi_1)^dagger (x) I applied to M
    (d) psi   <- top eigenvector of (K + K^dagger)/2

Both half-steps exactly maximize the objective 2 tr(M Delta) in their own
block, so the objective is monotone nondecreasing; restarts guard against
local optima.  Steps (a) and (c) are each one contraction with J_0 - J_1;
the reported value is recomputed from the two channels.

Maximum image fidelity.  F(Q_0(rho_0), Q_1(rho_1)) is maximized over mixed
inputs by parametrizing each rho_i through a purification psi_i on
H (x) G.  With the Stinespring isometries W_i = sum_k A_k (x) |k> of the
Kraus operators, padded with zero operators to one environment E of size
r = max(r_0, r_1), Uhlmann's theorem gives the fidelity as
max_V |<psi_1| W_1^dagger (I (x) V) W_0 |psi_0>| over unitaries V on
E (x) G.  Alternating the three blocks (V by SVD, each psi_i by
normalization) again gives closed-form monotone updates, each a few
reshaped matmuls.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .linalg import (
    TOL_PSD,
    as_state,
    dag,
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


@dataclass(frozen=True)
class OptimizerConfig:
    """Restart/convergence policy shared by the optimizers.

    Restart j uses seed + j, so runs are reproducible and restarts are
    independent; the max over restarts is order-independent.
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
    """Certified lower-bound witness for a diamond-norm distance.

    ``value`` equals the trace norm of (Phi_0 (x) I - Phi_1 (x) I) applied
    to ``psi psi^dagger``; ``measurement`` is the Helstrom projector for
    that difference on the output (x) reference space.
    """

    value: float
    psi: np.ndarray
    measurement: np.ndarray
    restarts_used: int
    converged: bool


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


def _seesaw(forward, adjoint, ref_dim: int, rng, max_iters: int, rel_tol: float):
    """One seesaw run; returns (value, psi, measurement, converged, history).

    ``value`` is the Helstrom value at the returned ``psi``, whose
    measurement is ``measurement``; it can sit up to MONOTONE_SLACK below
    ``max(history)``.
    """
    dim = forward.shape[1] * ref_dim
    psi = _random_unit(rng, dim)
    prev = -np.inf
    converged = False
    history: list[float] = []
    for _ in range(max_iters):  # OptimizerConfig guarantees max_iters >= 1
        evaluated = psi
        delta = _contract(forward, np.outer(psi, psi.conj()), ref_dim)
        delta = (delta + dag(delta)) / 2
        m, value = helstrom(delta)
        history.append(value)
        if value < prev - MONOTONE_SLACK:
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


def diamond_norm(
    ch0: Channel,
    ch1: Channel,
    cfg: OptimizerConfig | None = None,
    *,
    ref_qubits: int | None = None,
) -> DiamondWitness:
    """Seesaw lower bound on the diamond-norm distance between two channels.

    The reference space defaults to the input dimension, which suffices for
    the exact value; ``ref_qubits`` exists so tests can confirm that a
    larger reference gains nothing.
    """
    if (ch0.n_in, ch0.n_out) != (ch1.n_in, ch1.n_out):
        raise ValueError(
            f"channels disagree on type: ({ch0.n_in},{ch0.n_out}) vs ({ch1.n_in},{ch1.n_out})"
        )
    cfg = cfg or OptimizerConfig()
    if ref_qubits is None:
        ref_qubits = ch0.n_in
    ref_dim = 2**ref_qubits
    linalg.check_cap(ch0.dim_in * ref_dim, context="seesaw input")
    linalg.check_cap(ch0.dim_out * ref_dim, context="seesaw output")
    kernels = _difference_kernels(ch0, ch1)
    best: DiamondWitness | None = None
    used = 0
    for j in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + j)
        value, psi, m, converged, _ = _seesaw(
            *kernels, ref_dim, rng, cfg.max_iters, cfg.rel_tol
        )
        used = j + 1
        if best is None or value > best.value:
            best = DiamondWitness(value, psi, m, used, converged)
        if best.value >= 2.0 - 1e-12:
            break
    best.restarts_used = used
    # the reported value comes from the two channels at the returned psi
    rho = np.outer(best.psi, best.psi.conj())
    delta = channel_apply_ext(ch0, rho, ref_dim) - channel_apply_ext(ch1, rho, ref_dim)
    best.measurement, best.value = helstrom((delta + dag(delta)) / 2)
    return best


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
    best = None
    used = 0
    for j in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + j)
        # psi_i as a d_in x d_ref matrix; (W_i (x) I) psi_i is then W_i @ psi_i
        psi0 = _random_unit(rng, din * din).reshape(din, din)
        psi1 = _random_unit(rng, din * din).reshape(din, din)
        prev = -np.inf
        converged = False
        for _ in range(cfg.max_iters):
            v0 = (w0 @ psi0).reshape(dout, dfg)
            v1 = (w1 @ psi1).reshape(dout, dfg)
            x = v0.T @ v1.conj()
            p, s, qh = np.linalg.svd(x)  # full: V must be unitary, not a partial isometry
            value = float(s.sum())
            if value < prev - MONOTONE_SLACK:
                raise InternalConsistencyError(
                    f"image-fidelity objective decreased from {prev!r} to {value!r}"
                )
            if abs(value - prev) <= cfg.rel_tol * max(1.0, abs(value)):
                converged = True
                break
            prev = value
            v = dag(qh) @ dag(p)
            # I (x) V acts on the d_out x dfg matrix v_i as v_i @ V^T
            cand0 = dag(w0) @ (v1 @ v.conj()).reshape(dout * r, din)
            norm0 = np.linalg.norm(cand0)
            if norm0 > 1e-200:
                psi0 = cand0 / norm0
            cand1 = dag(w1) @ ((w0 @ psi0).reshape(dout, dfg) @ v.T).reshape(dout * r, din)
            norm1 = np.linalg.norm(cand1)
            if norm1 > 1e-200:
                psi1 = cand1 / norm1
        used = j + 1
        if best is None or value > best[0]:
            best = (value, psi0, psi1, converged)
        if best[0] >= 1.0 - 1e-12:
            break
    _, psi0, psi1, converged = best
    rho0, rho1 = psi0 @ dag(psi0), psi1 @ dag(psi1)
    value = fidelity(apply(q0, rho0), apply(q1, rho1))
    return ImageFidelityResult(value, rho0, rho1, used, converged)


def witness_to_json(w: DiamondWitness) -> dict:
    return {
        "value": float(w.value),
        "converged": bool(w.converged),
        "restarts_used": int(w.restarts_used),
        "psi": linalg.complex_pairs(w.psi),
        "measurement": linalg.matrix_to_json(w.measurement),
    }
