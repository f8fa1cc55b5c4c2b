"""Distance measures for states and channels.

Trace norm, fidelity (direct and via purifications), Helstrom measurements,
and, as certified intervals, the diamond-norm distance and the maximum
image fidelity.  Every reported value is attained by the returned witness.
Both intervals take a pair of Channels of one type, formed by ``choi_of``
from the circuits, and neither walks a circuit itself.

One engine serves both intervals.  For a map with Choi matrix J on
X (x) H, where H is the input and X the output or an environment, and for
states rho_0, rho_1 on H with s_i = sqrt(rho_i), let

    K(rho_0, rho_1) = (I_X (x) s_0) J (I_X (x) s_1).

The largest ||K||_1 over both states is the completely bounded trace norm
of the map: Watrous's SDP at fixed inputs (arXiv:1207.5726).  It is
jointly concave, so one ascent from rho_0 = rho_1 = I/d_in needs no
restarts:

    rho_0 <- tr_X |K^dagger| / ||K||_1,    rho_1 <- tr_X |K| / ||K||_1.

With s_i^+ the pseudo-inverse of s_i on the support of rho_i,
Y_0 = (I (x) s_0^+) |K^dagger| (I (x) s_0^+) and
Y_1 = (I (x) s_1^+) |K| (I (x) s_1^+) make B = [[Y_0, J], [J^dagger, Y_1]]
>= 0 where both rho_i have full rank; then
sqrt(lambda_max(tr_X Y_0) lambda_max(tr_X Y_1)) bounds the norm from
above.  Rounding amplified by s_i^+, and directions off the support of
rho_i, can break B >= 0, so the certified bound repairs the block:
B + eps I >= 0 for eps = max(0, -lambda_min(B)) plus a rounding allowance
of side(B) eps_mach max|lambda(B)| for the computed spectrum itself, and
each lambda_max gains d_X eps.  Where J is Hermitian, K is Hermitian at
rho_0 = rho_1, both steps give one state, and the engine carries that one:
the eigendecomposition of K is its SVD, and B is unitarily
diag(Y + J, Y - J), two eigenproblems of half its side.

The one-state path runs on the range of J.  Where J = J_0 - J_1 with PSD
J_i, as for the diamond norm, pivoted Cholesky factors J_i ~ L_i L_i^dagger
give J = F S F^dagger + E with F = [L_0, L_1], S = diag(+-1) and ||E||_F
bounded by the factors' residuals.  They are the channels' own, formed
once per Choi matrix (``Channel.factor``), by ``choi_of``'s certificate or
by their first reader.  Every spectral step then
decomposes a small core instead of a matrix of J's side:
  - K: a thin QR of (I (x) s) F and the eigendecomposition of its core;
  - T, the polar factor and Y stay thin: Y = A D^dagger, each factor with
    as many columns as F;
  - lambda(Y +- J): both are compressed to an orthonormal basis Z of the
    span of [A, D, F], and the compression's residual and ||E||_F are added
    to eps, since by Weyl's inequality no eigenvalue moves further;
  - the Helstrom measurement of the witness: the eigenpairs of
    (I (x) X^T) F S F^dagger (I (x) conj(X)) at psi = vec(X), from the same
    F, with the value taken on the full difference of the outputs.
Where F would have half as many columns as J's side or more, the basis is
the identity, and every step runs on J itself.
The two-state path, max image fidelity's, stays dense: its J is not a
difference of PSD matrices.

The ascent's steps are Anderson-accelerated (Walker and Ni, SIAM J.
Numer. Anal. 49 (2011) 1715-1735): each mixes the last few plain steps
into one iterate, whose eigenvalues are held above a floor: no lower than
ANDERSON_REACH plain steps would take the least one, at the rate the last
plain step shrank it, or than where the input-side gap, which falls with
it, would reach a tenth of ASCENT_TOL.  The mixed iterate is kept only
where it neither lowers the lower bound nor widens the input-side gap;
otherwise the plain step is taken.  An ascent whose input creeps to a
rank-deficient optimum takes a few iterations instead of dozens.

Where an optimal rho_i is rank-deficient the ascent can stall on the
boundary with the gap open.  A polish per distance then improves the
value, and the kept witness, mixed with a little of I/d_in so that nothing
is inverted off its support, is certified again.

Diamond norm.  J = J_0 - J_1 for channels Phi_0, Phi_1 with Choi
matrices J_i on output (x) input, Hermitian, so rho_0 = rho_1 = rho and
M(rho) = K(rho, rho) is (Phi_0 (x) I - Phi_1 (x) I)(psi psi^dagger) for
psi = vec(s^T) on H (x) H: ||M(rho)||_1 is a lower bound attained by psi.
For trace-preserving channels tr_out J_i = I, so tr_out M = s (tr_out J) s
= 0 and tr_out M_+ = tr_out M_-: tr_out |M| = 2 tr_out M_+, and the step
is Watrous's rho <- tr_out M_+ / tr M_+.  On the support of rho,
Y = 2 Z - J for his dual point Z = (I (x) s^+) M_+ (I (x) s^+), and
diag(Y + J, Y - J) >= 0 is his pair of constraints Z >= 0, Z >= J.  The
bound is also at most 2, the norm of any difference of channels.  The
polish is a seesaw run started from the ascent's psi = vec(X):

    (a) Delta <- (Phi_0 (x) I - Phi_1 (x) I)(psi psi^dagger)
    (b) M     <- projector onto the strictly positive eigenspace of Delta
    (c) K     <- (Phi_0 - Phi_1)^dagger (x) I applied to M
    (d) psi   <- top eigenvector of (K + K^dagger)/2

Both half-steps exactly maximize the objective 2 tr(M Delta) in their own
block, so the objective is monotone nondecreasing.  Steps (a) and (b) are
the code that reports the value at the returned psi: each output is the
sandwich (I (x) X^T) J_i (I (x) conj(X)) of its Choi matrix, and M comes
from (I (x) X^T) F where J is factored.  Step (c) is the adjoint action
of the map whose Choi matrix is J_0 - J_1.

Maximum image fidelity.  With Kraus operators A_k of Q_0 and B_l of Q_1,
padded with zero operators to one environment E of size r, J is the Choi
matrix of the cross map on E (x) H, with blocks A_k^dagger B_l.  By
Uhlmann's theorem F(Q_0(rho_0), Q_1(rho_1)) = ||K||_1, the reported value,
at most 1 as the fidelity is.  The polish is an Uhlmann run from the
ascent's purifications, and the kept witness is also certified by the
Schur complement of a side of full rank, Y_0 = J (Y_1 + eta I)^-1 J^dagger
or the same swapped.
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
    range_spectral,
    singular_values,
    spectral,
)
from .dilation import dilated_isometry
from .simulate import (
    Channel,
    InternalConsistencyError,
    adjoint_apply_ext,
    kraus_of,
    require_density,
)

#: Iteration cap on each run of the optimizers: each ascent and each polish.
MAX_ITERS = 500

#: Monotonicity slack for the Uhlmann run's objective; a larger backward
#: step indicates a bug in the channel algebra, not numerical jitter.
MONOTONE_SLACK = 1e-12

#: An interval, diamond norm or max image fidelity, whose gap (upper minus
#: value) is at most this is converged; a wider one is still reported, with
#: exit code 4 on the CLI.
GAP_TOL = 1e-6

#: Eigenvalues of rho below this fraction of its largest are off its
#: support: the certificate's pseudo-inverse leaves them out.
SUPPORT_CUT = 1e-14

#: The ascent runs until its input-side gap is below this.  Its lower bound
#: closes on the optimum about as fast as the upper one, so a hundredth of
#: GAP_TOL leaves the value within ~1e-8 of the optimum, for a few more
#: iterations: the plain steps converge geometrically, and the Anderson
#: steps faster.
ASCENT_TOL = GAP_TOL / 100

#: Anderson acceleration of the ascent (``_ascent``): the number of past
#: steps it mixes; how many plain steps' worth of shrinking it may take at
#: once, which sets the floor of a mixed state's eigenvalues
#: (``_floor``); the least-squares cutoff on the singular values of the
#: residual differences; and the number of mixed steps rejected after which
#: it takes plain steps only.  The floor is relative: a fixed one presses a
#: state onto a face it may not belong on, where the plain step regrows
#: the eigenvalue only by a factor per step and the input-side gap closes
#: falsely once it falls below SUPPORT_CUT, and a certificate at a fixed
#: floor amplifies rounding by 1/sqrt(floor).
ANDERSON_MEMORY = 5
ANDERSON_REACH = 30
ANDERSON_RCOND = 1e-6
ANDERSON_FAILURES = 3

#: Shifts eta of max image fidelity's Schur-complement certificate: each
#: costs O(eta) in the bound and amplifies rounding by up to 1/eta.
SCHUR_SHIFTS = (1e-4, 1e-6, 1e-8, 1e-10)

#: Weights delta of I/d_in mixed into the polished input states before they
#: are certified, for both distances.  A rank-deficient rho voids its own
#: certificate; mixing costs O(delta) in the bound and inverts eigenvalues
#: of at least delta/d_in, so a ladder of delta finds the balance, about
#: 1e-5 on 1-qubit pairs.
MIX_WEIGHTS = (1e-3, 1e-4, 1e-5, 1e-6, 1e-7)


@dataclass(frozen=True)
class OptimizerConfig:
    """Stopping rule of the optimizers' polishes.

    ``rel_tol`` stops the polishes, the diamond-norm seesaw and the
    image-fidelity Uhlmann run, on a relative change of the objective; each
    run is also capped at MAX_ITERS steps.  Both distances are
    deterministic: no restarts and no seed.
    """

    rel_tol: float = 1e-10

    def __post_init__(self):
        if not 0 < self.rel_tol < np.inf:  # NaN too: it would stop no polish early
            raise ValueError(f"rel_tol must be positive and finite, got {self.rel_tol!r}")


@dataclass(eq=False)
class _Interval:
    """Certified interval [value, upper] with its ``gap`` and ``converged``;
    ``iterations`` counts ascent and polish steps, each evaluation of the
    ascent's cross terms one, a rejected accelerated iterate's too."""

    value: float
    upper: float
    iterations: int

    @property
    def gap(self) -> float:
        return self.upper - self.value

    @property
    def converged(self) -> bool:
        return self.gap <= GAP_TOL


@dataclass(eq=False)
class DiamondWitness(_Interval):
    """Certified interval [value, upper] on a diamond-norm distance.

    ``value`` equals the trace norm of (Phi_0 (x) I - Phi_1 (x) I) applied
    to ``psi psi^dagger``; ``measurement`` is the Helstrom projector for
    that difference on the output (x) reference space.  ``upper`` is the
    least repaired dual bound, at most max(2, ``value``).
    """

    psi: np.ndarray
    measurement: np.ndarray


@dataclass(eq=False)
class ImageFidelityResult(_Interval):
    """Certified interval [value, upper] on max F(Q0(rho0), Q1(rho1)).

    ``value`` is F(Q0(rho0), Q1(rho1)) at the returned inputs, taken as
    ||K||_1 (module docstring); both ends are at most 1.
    """

    rho0: np.ndarray
    rho1: np.ndarray


def _interval_json(r: _Interval) -> dict:
    """The interval's keys in the CLI's JSON, in their printed order."""
    casts = {"value": float, "upper": float, "gap": float, "iterations": int, "converged": bool}
    return {key: cast(getattr(r, key)) for key, cast in casts.items()}


def trace_norm(x) -> float:
    """Sum of the singular values."""
    return float(singular_values(x).sum())


def _state_pair(rho, xi) -> tuple[np.ndarray, np.ndarray]:
    """Both as density matrices, refused unless they are states of one size."""
    rho, xi = require_density(rho), require_density(xi)
    if rho.shape != xi.shape:
        raise ValueError(f"dimension mismatch: {rho.shape} vs {xi.shape}")
    return rho, xi


def fidelity(rho, xi) -> float:
    """F(rho, xi) = tr sqrt(sqrt(rho) xi sqrt(rho)), clamped into [0, 1].

    Eigenvalues of sqrt(rho) xi sqrt(rho) at or below its rounding level,
    side eps_mach lambda_max, are dropped before the root: on a pure pair
    a rounding eigenvalue of 1e-17 would otherwise add about 3e-9.
    """
    rho, xi = _state_pair(rho, xi)
    s = psd_sqrt(rho)
    inner = s @ xi @ s
    w = np.linalg.eigvalsh((inner + dag(inner)) / 2)
    w = w[w > len(w) * np.finfo(float).eps * max(float(w[-1]), 0.0)]
    f = float(np.sqrt(w).sum())
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


def helstrom(delta) -> tuple[np.ndarray, float]:
    """Optimal projective measurement for a Hermitian difference operator.

    Returns (M, value) with M the projector onto the positive eigenspace of
    delta (``_projector_value``) and value = 2 tr(M delta) - tr(delta),
    which equals the trace norm of delta.
    """
    return _projector_value(delta, *spectral(delta))


def _projector_value(delta: np.ndarray, w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, float]:
    """(M, 2 tr(M delta) - tr delta), M projecting onto the columns of ``v``
    whose eigenvalue in ``w`` is above side eps_mach max|w|, the rounding
    floor of ``linalg.psd_factor``; tr(M delta) is one elementwise product."""
    floor = len(delta) * np.finfo(float).eps * float(np.abs(w).max(initial=0.0))
    cols = v[:, w > floor]
    m = cols @ dag(cols)
    return m, float(2 * np.vdot(delta, m).real - np.trace(delta).real)


def _witness_at(ch0: Channel, ch1: Channel, j, x: np.ndarray) -> tuple[np.ndarray, float]:
    """(M, value) at psi = vec(x): the Helstrom measurement of the channels'
    outputs and 2 tr(M Delta) - tr Delta, Delta taken from the two channels
    (``_output_of``).  On a ``_Factored`` J, M comes from the eigenpairs of
    (I (x) x^T) F, which factors Delta as F factors J, up to J's residual."""
    delta = _output_of(ch0, x) - _output_of(ch1, x)
    delta = (delta + dag(delta)) / 2
    if isinstance(j, _Factored):
        return _projector_value(delta, *range_spectral(_on_input(x.T, j.f), j.signs))
    return helstrom(delta)


def _seesaw(ch0: Channel, ch1: Channel, j, x: np.ndarray, rel_tol: float):
    """One seesaw run from psi = vec(x), x of shape (d_in, ref) and unit
    norm; returns (value, x, converged, history).

    ``value`` is the Helstrom value at the returned ``x``, ``history[-1]``
    bit for bit, as ``_witness_at`` computes both; it can sit up to
    ``slack`` below ``max(history)``.
    """
    din, ref_dim = x.shape
    difference = Channel(ch0.n_in, ch0.n_out, ch0.choi - ch1.choi)
    # the objective is monotone in exact arithmetic; computed, each value
    # carries the rounding of Delta's eigenpairs and of the trace, and the
    # measurement leaves out the eigenvalues at its rounding floor, each
    # lowering the value by up to twice itself.  A drop of up to
    # 2 side TOL_PSD on Delta of this side is that rounding, not a fault of
    # the channel algebra
    slack = 2 * ch0.dim_out * ref_dim * TOL_PSD
    prev = -np.inf
    converged = False
    history: list[float] = []
    for _ in range(MAX_ITERS):
        evaluated = x
        m, value = _witness_at(ch0, ch1, j, x)
        history.append(value)
        if value < prev - slack:
            raise InternalConsistencyError(
                f"seesaw objective decreased from {prev!r} to {value!r}"
            )
        if abs(value - prev) <= rel_tol * max(1.0, abs(value)):
            converged = True
            break
        prev = value
        k = adjoint_apply_ext(difference, m, ref_dim)
        _, vecs = spectral((k + dag(k)) / 2)
        x = vecs[:, 0].reshape(din, ref_dim)
    return history[-1], evaluated, converged, history


def _on_input(s: np.ndarray, f: np.ndarray) -> np.ndarray:
    """(I_X (x) s) F for F with rows on X (x) input, as one broadcast matmul;
    s may map the input to a space of another size."""
    return (s @ f.reshape(-1, s.shape[1], f.shape[1])).reshape(-1, f.shape[1])


def _sandwich(x: np.ndarray, left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(I_X (x) left) x (I_X (x) right) for x on X (x) input and left, right
    from and to the input, as two broadcast matmuls over x's input axes."""
    rows = _on_input(left, x)
    return (rows.reshape(len(rows), -1, right.shape[0]) @ right).reshape(len(rows), -1)


def _lambda_max(h: np.ndarray) -> float:
    return float(np.linalg.eigvalsh((h + dag(h)) / 2)[-1])


def _traced_out(f: np.ndarray, dim_in: int, g: np.ndarray | None = None) -> np.ndarray:
    """tr_X (F G^dagger), G = F by default, for F and G with rows on
    X (x) input: one matmul of two d_in x (d_X cols) matrices."""
    def flat(a):
        return a.reshape(-1, dim_in, a.shape[1]).transpose(1, 0, 2).reshape(dim_in, -1)

    x = flat(f)
    return x @ dag(x if g is None else flat(g))


def _root_and_inverse(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(rho) and its pseudo-inverse on the support of rho (SUPPORT_CUT)."""
    w, v = spectral(rho)
    w = np.clip(w, 0.0, None)
    supp = w > SUPPORT_CUT * w[0]
    return (v * np.sqrt(w)) @ dag(v), (v[:, supp] / np.sqrt(w[supp])) @ dag(v[:, supp])


@dataclass(frozen=True)
class _Factored:
    """Hermitian J = F diag(signs) F^dagger + E with ||E||_F <= ``residual``,
    held by its factor alone (``_stacked_factors``)."""

    f: np.ndarray
    signs: np.ndarray
    residual: float


def _stacked_factors(ch0: Channel, ch1: Channel) -> _Factored | None:
    """J0 - J1 = F diag(signs) F^dagger + E for the channels' Choi matrices,
    as ``_Factored``.

    F = [L0, L1] stacks the channels' pivoted factors (``Channel.factor``,
    formed once per channel), with sign +1 on L0's columns and -1 on L1's,
    and the residual, the sum of theirs, bounds ||E||_F, so also the
    distance from the Hermitian part of J0 - J1.  Where F would have half
    as many columns as the side or more, there is nothing to gain from its
    range, and the result is None: the basis is the identity, and the
    callers run on J0 - J1 itself.
    """
    (l0, res0), (l1, res1) = ch0.factor, ch1.factor
    if l0.shape[1] + l1.shape[1] >= ch0.choi.shape[0] // 2:
        return None
    signs = np.repeat([1.0, -1.0], [l0.shape[1], l1.shape[1]])
    return _Factored(np.hstack([l0, l1]), signs, res0 + res1)


def _cross_terms(j, rhos: tuple):
    """(||K||_1, Ts, Gs, dual_blocks) for K = (I_X (x) sqrt rho0) J (I_X (x) sqrt rho1).

    ``rhos`` is (rho0, rho1), or (rho,) for rho0 = rho1 = rho with J
    Hermitian, given as a matrix or as ``_Factored``; each of Ts, Gs and
    ``dual_blocks()`` then holds one term.  T0 = tr_X |K^dagger| and
    T1 = tr_X |K| are the next ascent step, and G_i = s_i^+ T_i s_i^+ =
    tr_X Y_i.  ``dual_blocks()`` forms Y0 and Y1 with one factor of s_i^+,
    which amplifies rounding by 1 / sqrt(lambda_min(rho_i)), not two:
    Y0 = P0 J S1 U^dagger S0^+ and Y1 = S1^+ U^dagger S0 J P1, with
    S_i = I_X (x) s_i, P_i = S_i^+ S_i and the polar factor K = U |K|.

    With one state K = u e u^dagger is Hermitian, U = u sign(e) u^dagger,
    and Y is returned as the pair (A, D) = (P J S u sign(e), S^+ u) with
    Y = A D^dagger.  On a ``_Factored`` J, (e, u) are the eigenpairs of
    (S F) diag(signs) (S F)^dagger on the range of S F, and
    J S u = F diag(signs) (S F)^dagger u, so every factor has as many
    columns as F.
    """
    dim_in = rhos[0].shape[0]
    roots = [_root_and_inverse(x) for x in rhos]
    (s0, s0_inv), (s1, s1_inv) = roots[0], roots[-1]
    if len(rhos) == 2:
        u, sv, vh = np.linalg.svd(_sandwich(j, s0, s1))
        factors = (u, dag(vh))
    else:
        if isinstance(j, _Factored):
            sf = _on_input(s0, j.f)
            e, u = range_spectral(sf, j.signs)
        else:
            e, u = spectral(_sandwich(j, s0, s0))
        sv, factors = np.abs(e), (u,)
    ts = [_traced_out(f * np.sqrt(sv), dim_in) for f in factors]
    gs = [s_inv @ t @ s_inv for (_, s_inv), t in zip(roots, ts)]

    def dual_blocks():
        if len(rhos) == 1:
            if isinstance(j, _Factored):
                jsu = j.f @ (j.signs[:, None] * (dag(sf) @ u))
            else:
                jsu = j @ _on_input(s0, u)
            return ((_on_input(s0_inv @ s0, jsu) * np.sign(e), _on_input(s0_inv, u)),)
        # U^dagger = V u^dagger for the right singular vectors V
        polar_h = factors[1] @ dag(u)
        eye = np.eye(dim_in)
        y0 = _sandwich(_sandwich(j, s0_inv @ s0, s1) @ polar_h, eye, s0_inv)
        return y0, _sandwich(polar_h @ _sandwich(j, s0, s1_inv @ s1), s1_inv, eye)

    return float(sv.sum()), ts, gs, dual_blocks


def _repair(w: np.ndarray) -> float:
    """eps with B + eps I >= 0, from the computed spectrum ``w`` of B: its
    least eigenvalue, plus len(w) eps_mach max|w| for the rounding of w."""
    return max(0.0, -float(w.min())) + len(w) * np.finfo(float).eps * float(np.abs(w).max())


def _block_upper(j, ys: tuple, dim_in: int) -> float:
    """Certified bound sqrt(l0 l1) from the block B = [[Y0, J], [J^dagger, Y1]].

    ``ys`` is (Y0, Y1), or ((A, D),) for Y0 = Y1 = Y = (A D^dagger +
    D A^dagger) / 2 with J Hermitian: B is then unitarily diag(Y + J, Y - J).
    B + eps I >= 0 for eps = _repair(lambda(B)), and
    l_i = lambda_max(tr_X Y_i) + d_X eps.  Scaling Y0 by t and Y1 by 1/t
    keeps the block feasible; the dual value (t l0 + l1 / t) / 2 is least at
    sqrt(l0 l1).

    On a ``_Factored`` J = F diag(signs) F^dagger + E, Y +- J is compressed
    to an orthonormal basis Z of the span of [A, D, F], from a thin QR
    [A, D, F] = Z [T_A, T_D, T_F]: C = (T_A T_D^dagger + T_D T_A^dagger) / 2
    +- T_F diag(signs) T_F^dagger is Z^dagger (Y +- J) Z but for E.  With
    a = ||A - Z T_A||_F, d and f likewise, Y +- J and Z C Z^dagger, whose
    spectrum is C's padded with zeros, differ in Frobenius norm by at most
    a ||D||_F + ||A||_F d + a d + 2 f ||F||_F + f^2 + ||E||_F: each column's
    QR residual is rounding relative to that column, so the bound stays
    small where S^+ makes D large.  By Weyl's inequality eps gains that much.
    """
    if len(ys) == 2:
        r = j.shape[0] // dim_in
        ys = [(y + dag(y)) / 2 for y in ys]
        w = np.linalg.eigvalsh(np.block([[ys[0], j], [dag(j), ys[1]]]))
        traced = [partial_trace(y, [r, dim_in], [1]) for y in ys]
        eps = _repair(w)
    else:
        ((a, d),) = ys
        r = a.shape[0] // dim_in
        traced = [_traced_out(a, dim_in, d)]
        if isinstance(j, _Factored):
            g = (a, d, j.f)
            z, t = np.linalg.qr(np.hstack(g))
            ta, td, tf = np.split(t, [a.shape[1], 2 * a.shape[1]], axis=1)
            y, core = ta @ dag(td), (tf * j.signs) @ dag(tf)
            la, ld, lf = (float(np.linalg.norm(x - z @ tx)) for x, tx in zip(g, (ta, td, tf)))
            na, nd, nf = (float(np.linalg.norm(x)) for x in g)
            slack = la * nd + na * ld + la * ld + (2 * nf + lf) * lf + j.residual
        else:
            y, core, slack = a @ dag(d), j, 0.0
        y = (y + dag(y)) / 2
        w = np.concatenate([np.linalg.eigvalsh(y + core), np.linalg.eigvalsh(y - core)])
        eps = _repair(w) + slack
    ls = [_lambda_max(t) + r * eps for t in traced]
    return float(np.sqrt(max(ls[0], 0.0) * max(ls[-1], 0.0)))


def _ascent(j, dim_in: int):
    """Ascent over the inputs from I/d_in; returns (lower, upper, rhos,
    iterations) at the iterate it stops on, with ``rhos`` as in
    ``_cross_terms``: one state where J is Hermitian or ``_Factored``, else
    two.

    Each iteration bounds the gap on the input side, by the unrepaired
    bound sqrt(lambda_max(G0) lambda_max(G1)) minus the lower bound; the
    block certificate is formed at the iterate where that gap falls below
    ASCENT_TOL, or at MAX_ITERS.  Where the input-side gap closes but
    the certificate does not, an input sits on a boundary of the state
    space, and further steps only shrink an eigenvalue that the certificate
    then inverts, so the ascent stops there.

    The steps are Anderson-accelerated (``_anderson``): from the second
    iteration on, the next iterate mixes the last ANDERSON_MEMORY + 1
    plain steps rho_i <- T_i / tr T_i, with its eigenvalues held above a
    floor.  A mixed iterate whose lower bound falls below the previous
    iterate's, or whose input-side gap rises above it, is rejected: the
    plain step from the previous iterate replaces it, and the memory is
    cleared.  After ANDERSON_FAILURES rejections only plain steps are
    taken.  Every evaluation counts as an iteration, rejected ones too.
    The certificate is formed at the stop iterate whatever led there, so a
    bad step costs tightness, never soundness.
    """
    flat = np.eye(dim_in, dtype=np.complex128) / dim_in
    hermitian = isinstance(j, _Factored) or np.array_equal(j, dag(j))
    rhos, mixed = ((flat,) if hermitian else (flat, flat)), False
    memory: list[tuple[np.ndarray, np.ndarray]] = []
    failures = 0
    for it in range(1, MAX_ITERS + 1):
        lower, ts, gs, dual_blocks = _cross_terms(j, rhos)
        ls = [_lambda_max(g) for g in gs]
        gap = np.sqrt(ls[0] * ls[-1]) - lower
        if mixed and (lower < kept[0] or gap > kept[1]):
            failures += 1
            memory.clear()
            rhos, mixed = plain, False
            continue
        kept = (lower, gap, dual_blocks, rhos)
        if gap <= ASCENT_TOL or it == MAX_ITERS:
            break
        plain = tuple(t / np.trace(t).real for t in ts)
        if failures < ANDERSON_FAILURES:
            memory = [*memory[-ANDERSON_MEMORY:], (_stacked(rhos), _stacked(plain))]
        if failures < ANDERSON_FAILURES and len(memory) > 1:
            rhos, mixed = _anderson(memory, rhos, plain, gap), True
        else:
            rhos, mixed = plain, False
    lower, _, dual_blocks, rhos = kept
    return lower, _block_upper(j, dual_blocks(), dim_in), rhos, it


def _stacked(rhos: tuple) -> np.ndarray:
    """The states as one real vector: their entries' real and imaginary parts."""
    return np.concatenate([x.reshape(-1).view(np.float64) for x in rhos])


def _anderson(memory: list, current: tuple, plain: tuple, gap: float) -> tuple:
    """The states of the type-II Anderson step (Walker and Ni, SIAM J.
    Numer. Anal. 49 (2011) 1715-1735) from ``memory``, pairs (x_i, g(x_i))
    of stacked states and their plain steps, the last of which is
    ``current`` and ``plain``.

    With residuals f_i = g(x_i) - x_i, gamma minimizes ||f_k - dF gamma||
    over the differences dF of consecutive residuals, and the mixed iterate
    is g(x_k) - dG gamma, dG the differences of the plain steps.  Each
    state of it is made Hermitian, its eigenvalues are raised to the floor
    (``_floor``), and the part above the floor is scaled to make its trace
    1, so every eigenvalue stays at least the floor.
    """
    xs, steps = (np.array(a) for a in zip(*memory))
    residuals = steps - xs
    d_res, d_steps = np.diff(residuals, axis=0).T, np.diff(steps, axis=0).T
    # rcond explicitly: numpy 2.0 changed its default
    gamma = np.linalg.lstsq(d_res, residuals[-1], rcond=ANDERSON_RCOND)[0]
    dim_in = plain[0].shape[0]
    mixed = (steps[-1] - d_steps @ gamma).view(np.complex128).reshape(-1, dim_in, dim_in)
    rhos = []
    for x, rho, step in zip(mixed, current, plain):
        floor = _floor(rho, step, gap)
        w, v = np.linalg.eigh((x + dag(x)) / 2)
        above = np.maximum(w, floor) - floor
        w = floor + (1 - dim_in * floor) * above / (above.sum() or 1.0)
        rho = (v * w) @ dag(v)
        rhos.append((rho + dag(rho)) / 2)
    return tuple(rhos)


def _floor(rho: np.ndarray, step: np.ndarray, gap: float) -> float:
    """The least eigenvalue a mixed state may have, from the least
    eigenvalues lam of ``rho`` and lam' of its plain step ``step``, and the
    input-side gap at ``rho``: never above lam', and never below both

    - lam' (lam' / lam)^ANDERSON_REACH, as far as ANDERSON_REACH more plain
      steps would take it at the rate of this one (not at all where it
      grew), and
    - lam ASCENT_TOL / (10 gap): near a rank-deficient optimum the gap
      falls in proportion to lam, so a least eigenvalue that leaves the gap
      about a tenth of ASCENT_TOL, where the ascent stops, and no further.

    So the floor is 0 only where the plain step is singular.
    """
    low, low_step = (max(float(np.linalg.eigvalsh(a)[0]), 0.0) for a in (rho, step))
    reach = low_step * min(1.0, low_step / low) ** ANDERSON_REACH if low > 0 else low_step
    return min(low_step, max(reach, low * ASCENT_TOL / (10 * gap)))


def _mixed_upper(j, rhos: tuple) -> float:
    """Least block bound at (1 - delta) rho_i + delta I/d_in over MIX_WEIGHTS."""
    dim_in = rhos[0].shape[0]
    flat = np.eye(dim_in) / dim_in
    mixed = (tuple((1 - delta) * x + delta * flat for x in rhos) for delta in MIX_WEIGHTS)
    return min(_block_upper(j, _cross_terms(j, m)[-1](), dim_in) for m in mixed)


def _output_of(ch: Channel, x: np.ndarray) -> np.ndarray:
    """(Phi (x) I_ref)(psi psi^dagger) for psi = vec(x), x of shape
    (d_in, ref): the sandwich (I (x) x^T) J (I (x) conj(x)) of the Choi
    matrix, with no side^2 operator psi psi^dagger formed."""
    return _sandwich(ch.choi, x.T, x.conj())


def _same_type(ch0: Channel, ch1: Channel) -> None:
    """Refuse a pair of channels of different types, for both distances."""
    if (ch0.n_in, ch0.n_out) != (ch1.n_in, ch1.n_out):
        raise ValueError(
            f"channels disagree on type: ({ch0.n_in},{ch0.n_out}) vs ({ch1.n_in},{ch1.n_out})"
        )


def diamond_norm(
    ch0: Channel,
    ch1: Channel,
    cfg: OptimizerConfig | None = None,
    *,
    ref_qubits: int | None = None,
) -> DiamondWitness:
    """Certified interval [value, upper] on the diamond-norm distance.

    One deterministic ascent over the input state (module docstring), on
    J0 - J1 held by the channels' stacked pivoted factors where they are
    thin (``_stacked_factors``).  While its gap is above GAP_TOL, a seesaw
    run from its witness polishes the value, and the polished witness's
    input state, mixed with a little of I/d_in, is certified too.  The
    reference space defaults to the input dimension, which suffices for the
    exact value; ``ref_qubits`` exists so tests can confirm that a larger
    reference gains nothing.
    """
    _same_type(ch0, ch1)
    cfg = cfg or OptimizerConfig()
    if ref_qubits is None:
        ref_qubits = ch0.n_in
    if ref_qubits < ch0.n_in:
        raise ValueError(f"reference of {ref_qubits} qubits is smaller than the {ch0.n_in} inputs")
    din, dout = ch0.dim_in, ch0.dim_out
    ref_dim = 2**ref_qubits
    linalg.check_cap(din * ref_dim, context="diamond-norm input")
    linalg.check_cap(dout * ref_dim, context="diamond-norm output")
    j = _stacked_factors(ch0, ch1)
    if j is None:
        # exactly Hermitian as it stands: both Choi matrices are, and IEEE subtraction
        # commutes with negating both operands, so conj(x) - conj(y) is conj(x - y)
        j = ch0.choi - ch1.choi
    lower, upper, (rho,), iterations = _ascent(j, din)
    # psi = vec(sqrt(rho)^T), padded to the reference: (Phi (x) I)(psi psi^dagger) is M(rho)
    x = np.zeros((din, ref_dim), dtype=np.complex128)
    x[:, :din] = _root_and_inverse(rho)[0].T
    if upper - lower > GAP_TOL:
        value, polished, _, history = _seesaw(ch0, ch1, j, x, cfg.rel_tol)
        iterations += len(history)
        if value > lower:
            x = polished
        # psi = vec(x) stands for rho = (x x^dagger)^T
        upper = min(upper, _mixed_upper(j, ((x @ dag(x)).T,)))
    measurement, value = _witness_at(ch0, ch1, j, x)
    # 2 bounds the norm of a difference of channels; the value can round above it
    value = min(value, 2.0)
    upper = min(upper, 2.0)
    return DiamondWitness(value, upper, iterations, x.reshape(-1), measurement)


def _uhlmann(w0, w1, dim_out: int, psi0, psi1, rel_tol: float):
    """Uhlmann run from the d_in x d_in purifications (psi0, psi1) to a step
    that changes the objective by at most ``rel_tol``; returns (psi0, psi1,
    iterations).  Each step maximizes over the unitary V on E (x) reference
    by SVD, then over psi0 and psi1 by normalization."""
    din = psi0.shape[1]
    prev = -np.inf
    for it in range(1, MAX_ITERS + 1):
        v0 = (w0 @ psi0).reshape(dim_out, -1)
        v1 = (w1 @ psi1).reshape(dim_out, -1)
        # full: V must be unitary, not a partial isometry
        p, s, qh = np.linalg.svd(v0.T @ v1.conj())
        value = float(s.sum())
        if value < prev - MONOTONE_SLACK:
            raise InternalConsistencyError(
                f"image-fidelity objective decreased from {prev!r} to {value!r}"
            )
        if abs(value - prev) <= rel_tol * max(1.0, value):
            break
        prev = value
        # V = Qh^dagger P^dagger; I (x) V acts on the d_out x dfg matrix v_i as
        # v_i @ V^T, and V^T is the conjugate transpose of V^*
        v_conj = qh.T @ p.T
        new = dag(w0) @ (v1 @ v_conj).reshape(-1, din)
        psi0 = new / norm if (norm := np.linalg.norm(new)) > 1e-200 else psi0
        new = dag(w1) @ ((w0 @ psi0).reshape(dim_out, -1) @ dag(v_conj)).reshape(-1, din)
        psi1 = new / norm if (norm := np.linalg.norm(new)) > 1e-200 else psi1
    return psi0, psi1, it


def _schur_upper(j: np.ndarray, y1: np.ndarray, dim_in: int) -> float:
    """Least block bound over SCHUR_SHIFTS with Y1 + eta I and its Schur
    complement Y0 = J (Y1 + eta I)^-1 J^dagger, whatever the rank of rho0."""
    shifted = (y1 + eta * np.eye(len(y1)) for eta in SCHUR_SHIFTS)
    return min(_block_upper(j, (j @ np.linalg.solve(y, dag(j)), y), dim_in) for y in shifted)


def max_image_fidelity(
    ch0: Channel, ch1: Channel, cfg: OptimizerConfig | None = None
) -> ImageFidelityResult:
    """Certified interval [value, upper] on max F(Q0(rho0), Q1(rho1)).

    One deterministic ascent over the input states (module docstring);
    while its gap is above GAP_TOL, an Uhlmann run polishes the value and
    the kept witness is certified again.  ``value`` is ||K||_1 at the
    returned (rho0, rho1), the fidelity of their images.  The Kraus
    operators come from each channel's cached factor (``kraus_of``), and
    the ambient side d_out * r * d_in is capped before they are padded.
    """
    _same_type(ch0, ch1)
    cfg = cfg or OptimizerConfig()
    din, dout = ch0.dim_in, ch0.dim_out
    kraus0, kraus1 = kraus_of(ch0), kraus_of(ch1)
    r = max(len(kraus0), len(kraus1))  # one environment for both (Uhlmann)
    linalg.check_cap(dout * r * din, context="image-fidelity ambient space")
    w0, w1 = dilated_isometry(kraus0, r), dilated_isometry(kraus1, r)
    # the cross map's Choi matrix on E (x) input, with blocks A_k^dagger B_l
    j = dag(w0.reshape(dout, -1)) @ w1.reshape(dout, -1)
    value, upper, rhos, iterations = _ascent(j, din)
    if upper - value > GAP_TOL:
        roots = (_root_and_inverse(x)[0] for x in (rhos[0], rhos[-1]))
        isometries = (w.reshape(-1, din) for w in (w0, w1))
        psi0, psi1, steps = _uhlmann(*isometries, dout, *roots, cfg.rel_tol)
        iterations += steps
        polished = (psi0 @ dag(psi0), psi1 @ dag(psi1))
        if _cross_terms(j, polished)[0] > value:
            rhos = polished
        value, *_, dual_blocks = _cross_terms(j, rhos)
        ys = dual_blocks()
        schur = min(_schur_upper(j, ys[-1], din), _schur_upper(dag(j), ys[0], din))
        upper = min(upper, schur, _mixed_upper(j, rhos))
    # fidelity() clamps into [0, 1] too: ||K||_1 can round above 1
    return ImageFidelityResult(min(value, 1.0), min(upper, 1.0), iterations, rhos[0], rhos[-1])


def witness_to_json(w: DiamondWitness) -> dict:
    return {
        **_interval_json(w),
        "psi": w.psi,
        "measurement": linalg.matrix_to_json(w.measurement),
    }
