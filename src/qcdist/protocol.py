"""The blind taste-test: simulate the distinguishability protocol exactly.

One round: the prover prepares a joint state, sends the circuit-input half
to the verifier; the verifier applies Q_i for a uniform i in {0, 1} and
returns the output; the prover measures output + private space with a
binary projector and answers j; the verifier accepts iff i = j.

Acceptance probabilities are computed exactly on density matrices (the
protocol's final message is a single classical bit, so intermediate
collapse is unobservable); Monte Carlo sampling exists to exercise the
operational reading.  Trials run in blocks of ``_BLOCK``: block b draws
from the PCG64 stream SeedSequence(seed, spawn_key=(b,)), first its
verifier coins, then its prover uniforms, one per trial each.  Blocks are
independent, so the tally is reproducible for a fixed seed and the same
for any order in which blocks run, and memory stays O(_BLOCK) for any
trial count.

The optimal prover's diamond norm takes Channels, as the max image fidelity
does; ``optimal_prover_witness`` forms them with ``choi_of``.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import log2

import numpy as np

from .circuits import Circuit
from .distances import DiamondWitness, OptimizerConfig, diamond_norm, trace_norm
from .linalg import TOL_HERM, TOL_PSD, TOL_TRACE, as_matrix, as_state, herm_defect
from .simulate import InternalConsistencyError, choi_of, simulate

#: Trials per random stream; block b of a run uses spawn key (b,).
_BLOCK = 1 << 16


@dataclass(eq=False)
class ProverStrategy:
    """Input state on circuit-input (x) private space, plus a binary
    measurement on circuit-output (x) private space (outcome 0 means
    "the verifier applied Q0").  |psi|^2, the trace of psi psi^dagger, is
    within TOL_TRACE of 1, so that input needs no density check; M is
    Hermitian within TOL_HERM and M^2 = M within TOL_PSD."""

    psi: np.ndarray
    measurement: np.ndarray

    def __post_init__(self):
        self.psi = as_state(self.psi)
        self.measurement = as_matrix(self.measurement)
        norm2 = float(np.vdot(self.psi, self.psi).real)
        if abs(norm2 - 1.0) > TOL_TRACE:
            raise ValueError(f"prover state squared norm {norm2!r} differs from 1")
        m = self.measurement
        if herm_defect(m) > TOL_HERM or float(np.abs(m @ m - m).max()) > TOL_PSD:
            raise ValueError("prover measurement is not an orthogonal projector")


@dataclass(eq=False)
class ProtocolResult:
    p_accept_exact: float
    trials: int | None
    accepts: int | None
    estimate: float | None
    dnorm_witness_value: float
    seed: int | None = None
    dnorm_upper: float = 2.0


def _private_qubits(strat: ProverStrategy, c: Circuit) -> int:
    total = int(log2(strat.psi.size))
    if 2**total != strat.psi.size:
        raise ValueError(f"prover state dimension {strat.psi.size} is not a power of 2")
    priv = total - c.n_in
    if priv < 0:
        raise ValueError(
            f"prover state on {total} qubits is too small for {c.n_in} circuit inputs"
        )
    dout = 2 ** (c.n_out + priv)
    if strat.measurement.shape != (dout, dout):
        raise ValueError(
            f"measurement is {strat.measurement.shape}, expected side {dout} "
            f"(output {c.n_out} + private {priv} qubits)"
        )
    return priv


def optimal_prover_witness(
    q0: Circuit, q1: Circuit, cfg: OptimizerConfig | None = None
) -> tuple[ProverStrategy, DiamondWitness]:
    """The strategy built from the diamond-norm witness, and the witness.

    The prover prepares the witness input and measures with the Helstrom
    projector for the two possible outputs, attaining acceptance
    1/2 + 1/4 ||Q0 - Q1||_diamond.
    """
    witness = diamond_norm(choi_of(q0), choi_of(q1), cfg)
    return ProverStrategy(psi=witness.psi, measurement=witness.measurement), witness


def _answer0(q0: Circuit, q1: Circuit, strat: ProverStrategy):
    """((tr M rho_0, tr M rho_1), rho_0 - rho_1) for the outputs rho_i of Q_i
    on the strategy's input: the probabilities that the prover answers 0."""
    if (q0.n_in, q0.n_out) != (q1.n_in, q1.n_out):
        raise ValueError("circuits disagree on type")
    priv = _private_qubits(strat, q0)
    rho_in = np.outer(strat.psi, strat.psi.conj())
    rho0 = simulate(q0, rho_in, priv)
    rho1 = simulate(q1, rho_in, priv)
    m = strat.measurement
    return (float(np.real(np.trace(m @ rho0))), float(np.real(np.trace(m @ rho1)))), rho0 - rho1


def acceptance_probability(q0: Circuit, q1: Circuit, strat: ProverStrategy) -> float:
    """Exact acceptance probability of the strategy in one protocol round."""
    (p0, p1), _ = _answer0(q0, q1, strat)
    return float(min(max(0.5 * p0 + 0.5 * (1.0 - p1), 0.0), 1.0))


def _block_accepts(seed: int, block: int, n: int, p_answer0: tuple[float, float]) -> int:
    """Accepting trials among the n trials of one block."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(block,))))
    coins = rng.integers(0, 2, n)
    answer0 = rng.random(n) < np.asarray(p_answer0)[coins]
    return int(np.count_nonzero(answer0 == (coins == 0)))


def run_protocol(
    q0: Circuit,
    q1: Circuit,
    strat: ProverStrategy,
    trials: int,
    seed: int,
    *,
    dnorm_upper: float = 2.0,
) -> ProtocolResult:
    """Exact acceptance probability plus a Monte Carlo tally.

    ``dnorm_upper`` is a certified upper bound on ||Q0 - Q1||_diamond (the
    default 2 holds for any pair).  No strategy accepts with probability
    above 1/2 + dnorm_upper/4, so an exact acceptance probability above it
    raises InternalConsistencyError.

    Trials run in blocks of ``_BLOCK`` (the last one shorter).  Block b
    draws from its own stream, SeedSequence(seed, spawn_key=(b,)): the
    verifier's coins i with ``integers(0, 2, n)``, then the prover's
    uniforms u with ``random(n)``.  The prover answers 0 iff
    u < tr(M rho_i), and a trial accepts iff that answer is i.  Outcome
    probabilities tr(M rho_i) are computed exactly rather than by
    simulating collapse.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    p_answer0, difference = _answer0(q0, q1, strat)
    p_exact = 0.5 * p_answer0[0] + 0.5 * (1.0 - p_answer0[1])
    if p_exact > 0.5 + dnorm_upper / 4 + 1e-12:
        raise InternalConsistencyError(
            f"acceptance probability {p_exact!r} exceeds the soundness bound "
            f"1/2 + {dnorm_upper!r}/4"
        )
    accepts = sum(
        _block_accepts(seed, b, min(_BLOCK, trials - start), p_answer0)
        for b, start in enumerate(range(0, trials, _BLOCK))
    )
    return ProtocolResult(
        p_accept_exact=float(min(max(p_exact, 0.0), 1.0)),
        trials=trials,
        accepts=accepts,
        estimate=accepts / trials,
        dnorm_witness_value=trace_norm(difference),
        seed=seed,
        dnorm_upper=dnorm_upper,
    )


def result_to_json(res: ProtocolResult) -> dict:
    return {
        "p_accept_exact": float(res.p_accept_exact),
        "trials": res.trials,
        "accepts": res.accepts,
        "estimate": None if res.estimate is None else float(res.estimate),
        "dnorm_witness_value": float(res.dnorm_witness_value),
        "dnorm_upper": float(res.dnorm_upper),
        "seed": res.seed,
    }
