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
local optima.

Maximum image fidelity.  F(Q_0(rho_0), Q_1(rho_1)) is maximized over mixed
inputs by parametrizing each rho_i through a purification psi_i on
H (x) G and writing the fidelity through dilation isometries W_i as
max_V |<psi_1| W_1^dagger (I (x) V) W_0 |psi_0>| over unitaries V on the
garbage-and-reference space.  Alternating the three blocks (V by SVD, each
psi_i by normalization) again gives closed-form monotone updates.
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
from .dilation import dilate, dilated_isometry
from .simulate import (
    Channel,
    InternalConsistencyError,
    adjoint_apply_ext,
    apply,
    channel_apply_ext,
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


def _seesaw(ch0: Channel, ch1: Channel, ref_dim: int, rng, max_iters: int, rel_tol: float):
    """One seesaw run; returns (value, psi, measurement, converged, history).

    ``value`` is the Helstrom value at the returned ``psi``, whose
    measurement is ``measurement``; it can sit up to MONOTONE_SLACK below
    ``max(history)``.
    """
    dim = ch0.dim_in * ref_dim
    psi = _random_unit(rng, dim)
    prev = -np.inf
    converged = False
    history: list[float] = []
    for _ in range(max_iters):  # OptimizerConfig guarantees max_iters >= 1
        evaluated = psi
        rho = np.outer(psi, psi.conj())
        delta = channel_apply_ext(ch0, rho, ref_dim) - channel_apply_ext(ch1, rho, ref_dim)
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
        k = adjoint_apply_ext(ch0, m, ref_dim) - adjoint_apply_ext(ch1, m, ref_dim)
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
    best: DiamondWitness | None = None
    used = 0
    for j in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + j)
        value, psi, m, converged, _ = _seesaw(
            ch0, ch1, ref_dim, rng, cfg.max_iters, cfg.rel_tol
        )
        used = j + 1
        if best is None or value > best.value:
            best = DiamondWitness(value, psi, m, used, converged)
        if best.value >= 2.0 - 1e-12:
            break
    best.restarts_used = used
    return best


def max_image_fidelity(
    q0: Circuit, q1: Circuit, cfg: OptimizerConfig | None = None
) -> ImageFidelityResult:
    """Witnessed maximum of F(Q0(rho0), Q1(rho1)) over input states.

    Optimizes over purifications on input (x) reference (reference of input
    dimension), since joint concavity of the fidelity means the maximizer
    may be mixed.  The returned value is recomputed from the witnesses, so
    it is a certified lower bound regardless of optimizer state.
    """
    if (q0.n_in, q0.n_out) != (q1.n_in, q1.n_out):
        raise ValueError("circuits disagree on type")
    cfg = cfg or OptimizerConfig()
    n = q0.n_in
    d0 = dilate(q0)
    d1 = dilate(q1)
    l = max(d0.l, d1.l)
    din = 2**n
    dout = 2**q0.n_out
    dfg = (2**l) * din  # garbage (x) reference
    linalg.check_cap(dout * dfg, context="image-fidelity ambient space")
    w0 = dilated_isometry(d0)
    w1 = dilated_isometry(d1)
    if l > d0.l:
        ket = np.zeros((2 ** (l - d0.l), 1), dtype=np.complex128)
        ket[0, 0] = 1.0
        w0 = np.kron(w0, ket)
    if l > d1.l:
        ket = np.zeros((2 ** (l - d1.l), 1), dtype=np.complex128)
        ket[0, 0] = 1.0
        w1 = np.kron(w1, ket)
    a0 = np.kron(w0, np.eye(din, dtype=np.complex128))
    a1 = np.kron(w1, np.eye(din, dtype=np.complex128))
    best = None
    used = 0
    for j in range(cfg.restarts):
        rng = np.random.default_rng(cfg.seed + j)
        psi0 = _random_unit(rng, din * din)
        psi1 = _random_unit(rng, din * din)
        prev = -np.inf
        converged = False
        for _ in range(cfg.max_iters):
            v0 = (a0 @ psi0).reshape(dout, dfg)
            v1 = (a1 @ psi1).reshape(dout, dfg)
            x = v0.T @ v1.conj()
            p, s, qh = np.linalg.svd(x)
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
            t = dag(a1) @ np.kron(np.eye(dout, dtype=np.complex128), v) @ a0
            cand0 = dag(t) @ psi1
            norm0 = np.linalg.norm(cand0)
            if norm0 > 1e-200:
                psi0 = cand0 / norm0
            cand1 = t @ psi0
            norm1 = np.linalg.norm(cand1)
            if norm1 > 1e-200:
                psi1 = cand1 / norm1
        used = j + 1
        if best is None or value > best[0]:
            best = (value, psi0, psi1, converged)
        if best[0] >= 1.0 - 1e-12:
            break
    _, psi0, psi1, converged = best
    rho0 = partial_trace(np.outer(psi0, psi0.conj()), [din, din], [0])
    rho1 = partial_trace(np.outer(psi1, psi1.conj()), [din, din], [0])
    value = fidelity(apply(q0, rho0), apply(q1, rho1))
    return ImageFidelityResult(value, rho0, rho1, used, converged)


def witness_to_json(w: DiamondWitness) -> dict:
    return {
        "value": float(w.value),
        "converged": bool(w.converged),
        "restarts_used": int(w.restarts_used),
        "psi": [[float(z.real), float(z.imag)] for z in w.psi],
        "measurement": linalg.matrix_to_json(w.measurement),
    }
