"""The blind taste-test: simulate the distinguishability protocol exactly.

One round: the prover prepares a joint state, sends the circuit-input half
to the verifier; the verifier applies Q_i for a uniform i in {0, 1} and
returns the output; the prover measures output + private space with a
binary projector and answers j; the verifier accepts iff i = j.

Every function takes the pair as two Channels of one type, as ``choi_of``
returns them and as the distances take them, and none walks a circuit.
Acceptance probabilities are computed exactly from the two outputs at the
prover's state, each a sandwich of a Choi matrix, the one the diamond norm
evaluates its witness on (``distances._output_of``); the protocol's final
message is a single classical bit, so intermediate collapse is
unobservable.  Monte Carlo sampling exists to exercise the operational
reading.  Trials run in blocks of ``_BLOCK``: block b draws from the PCG64
stream SeedSequence(seed, spawn_key=(b,)), first its verifier coins, then
its prover uniforms, one per trial each.  Blocks are independent, so the
tally is reproducible for a fixed seed and the same for any order in which
blocks run, and memory stays O(_BLOCK) for any trial count.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .distances import DiamondWitness, OptimizerConfig, diamond_norm, trace_norm
from .distances import _output_of, _same_type
from .linalg import TOL_HERM, TOL_PSD, TOL_TRACE, as_matrix, as_state, herm_defect
from .simulate import Channel, InternalConsistencyError

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
    """One run of ``run_protocol``, its fields in the order the CLI prints them."""

    p_accept_exact: float
    trials: int
    accepts: int
    estimate: float
    dnorm_witness_value: float
    dnorm_upper: float
    seed: int


def _private_qubits(strat: ProverStrategy, ch: Channel) -> int:
    priv = strat.psi.size.bit_length() - 1 - ch.n_in
    if priv < 0 or strat.psi.size != 2 ** (ch.n_in + priv):
        raise ValueError(
            f"prover state dimension {strat.psi.size} is not 2^{ch.n_in} times a power of 2")
    dout = 2 ** (ch.n_out + priv)
    if strat.measurement.shape != (dout, dout):
        raise ValueError(
            f"measurement is {strat.measurement.shape}, expected side {dout} "
            f"(output {ch.n_out} + private {priv} qubits)"
        )
    return priv


def optimal_prover_witness(
    ch0: Channel, ch1: Channel, cfg: OptimizerConfig | None = None
) -> tuple[ProverStrategy, DiamondWitness]:
    """The strategy built from the diamond-norm witness, and the witness.

    The prover prepares the witness input and measures with the Helstrom
    projector for the two possible outputs, attaining acceptance
    1/2 + 1/4 ||Q0 - Q1||_diamond.
    """
    witness = diamond_norm(ch0, ch1, cfg)
    return ProverStrategy(psi=witness.psi, measurement=witness.measurement), witness


def _answer0(ch0: Channel, ch1: Channel, strat: ProverStrategy):
    """((tr M rho_0, tr M rho_1), rho_0 - rho_1): the probabilities that the
    prover answers 0, from the channels' outputs rho_i at psi = vec(x), x of
    shape (d_in, 2^private)."""
    _same_type(ch0, ch1)
    x = strat.psi.reshape(ch0.dim_in, 2 ** _private_qubits(strat, ch0))
    rho0, rho1 = _output_of(ch0, x), _output_of(ch1, x)
    m = strat.measurement
    return (float(np.real(np.trace(m @ rho0))), float(np.real(np.trace(m @ rho1)))), rho0 - rho1


def _accept(p_answer0: tuple[float, float], dnorm_upper: float = 2.0) -> float:
    """1/2 tr(M rho_0) + 1/2 (1 - tr(M rho_1)), clamped into [0, 1].  No
    strategy accepts above 1/2 + dnorm_upper/4 for a certified upper bound
    on ||Q0 - Q1||_diamond (2 holds for any pair): a value above it raises
    InternalConsistencyError."""
    p = 0.5 * p_answer0[0] + 0.5 * (1.0 - p_answer0[1])
    if p > 0.5 + dnorm_upper / 4 + 1e-12:
        raise InternalConsistencyError(
            f"acceptance probability {p!r} exceeds the soundness bound 1/2 + {dnorm_upper!r}/4"
        )
    return float(min(max(p, 0.0), 1.0))


def acceptance_probability(ch0: Channel, ch1: Channel, strat: ProverStrategy) -> float:
    """Exact acceptance probability of the strategy in one protocol round."""
    return _accept(_answer0(ch0, ch1, strat)[0])


def _block_accepts(seed: int, block: int, n: int, p_answer0: tuple[float, float]) -> int:
    """Accepting trials among the n trials of one block."""
    rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(block,))))
    coins = rng.integers(0, 2, n)
    answer0 = rng.random(n) < np.asarray(p_answer0)[coins]
    return int(np.count_nonzero(answer0 == (coins == 0)))


def run_protocol(
    ch0: Channel,
    ch1: Channel,
    strat: ProverStrategy,
    trials: int,
    seed: int,
    *,
    dnorm_upper: float = 2.0,
) -> ProtocolResult:
    """Exact acceptance probability plus a Monte Carlo tally.

    The exact probability is checked against ``dnorm_upper`` (``_accept``).
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
    p_answer0, difference = _answer0(ch0, ch1, strat)
    p_exact = _accept(p_answer0, dnorm_upper)
    accepts = sum(
        _block_accepts(seed, b, min(_BLOCK, trials - start), p_answer0)
        for b, start in enumerate(range(0, trials, _BLOCK))
    )
    return ProtocolResult(
        p_accept_exact=p_exact,
        trials=trials,
        accepts=accepts,
        estimate=accepts / trials,
        dnorm_witness_value=trace_norm(difference),
        dnorm_upper=float(dnorm_upper),
        seed=seed,
    )


def result_to_json(res: ProtocolResult) -> dict:
    return asdict(res)
