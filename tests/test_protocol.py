import numpy as np
import pytest

from qcdist.distances import OptimizerConfig, diamond_norm
from qcdist.protocol import (
    _BLOCK,
    ProverStrategy,
    acceptance_probability,
    optimal_prover_witness,
    result_to_json,
    run_protocol,
)
from qcdist.simulate import InternalConsistencyError, apply_extended, choi_of

from oracles import density_walk_oracle
from helpers import (
    decohere_circuit,
    identity_circuit,
    random_11_circuit,
    random_state,
    random_unitary,
    z_circuit,
)

CFG = OptimizerConfig()
ID, ID2, DEC, Z = (choi_of(c) for c in (identity_circuit(), identity_circuit("id2"),
                                          decohere_circuit(), z_circuit()))


def random_projector(rng, dim):
    u = random_unitary(rng, dim)
    rank = int(rng.integers(1, dim))
    cols = u[:, :rank]
    return cols @ cols.conj().T


def test_strategy_validation():
    with pytest.raises(ValueError, match="norm"):
        ProverStrategy(np.array([1.0, 1.0]), np.eye(2))
    with pytest.raises(ValueError, match="projector"):
        ProverStrategy(np.array([1.0, 0.0]), np.array([[0.5, 0.0], [0.0, 0.0]]) * 1.2)


def test_prover_state_norm_is_decided_at_construction():
    # |psi| = 1 + 9e-10 once passed the constructor, then failed the density
    # check inside acceptance_probability: |psi|^2 is the trace of psi psi^dagger
    m = np.diag([1.0, 0.0])
    with pytest.raises(ValueError, match="squared norm"):
        ProverStrategy(np.array([1 + 9e-10, 0.0]), m)
    strat = ProverStrategy(np.array([1 + 4e-10, 0.0]), m)
    assert abs(acceptance_probability(ID, Z, strat) - 0.5) < 1e-9


def test_equal_circuits_give_half():
    strat = optimal_prover_witness(ID, ID2, CFG)[0]
    assert abs(acceptance_probability(ID, ID2, strat) - 0.5) < 1e-9


def test_perfectly_distinguishable_gives_one():
    strat = optimal_prover_witness(ID, Z, CFG)[0]
    assert abs(acceptance_probability(ID, Z, strat) - 1.0) < 1e-9


def test_decohere_pair_gives_three_quarters():
    strat = optimal_prover_witness(ID, DEC, CFG)[0]
    assert abs(acceptance_probability(ID, DEC, strat) - 0.75) < 1e-6


def test_optimal_strategy_attains_witness_identity():
    for other in (DEC, Z, choi_of(random_11_circuit(np.random.default_rng(0), "r"))):
        strat, witness = optimal_prover_witness(ID, other, CFG)
        p = acceptance_probability(ID, other, strat)
        assert abs(p - (0.5 + witness.value / 4)) < 1e-8


def test_random_strategies_respect_soundness_bound():
    rng = np.random.default_rng(1)
    bound = diamond_norm(ID, DEC, CFG).value
    for _ in range(25):
        psi = random_state(rng, 4)  # 1 input qubit + 1 private qubit
        m = random_projector(rng, 4)
        p = acceptance_probability(ID, DEC, ProverStrategy(psi, m))
        assert p <= 0.5 + bound / 4 + 1e-4


@pytest.mark.parametrize("private", [0, 1, 2])
def test_acceptance_from_channels_matches_density_walk(private):
    # the Choi sandwich at the prover's state against a gate-by-gate walk of both circuits
    rng = np.random.default_rng(40 + private)
    side = 2 ** (1 + private)
    for k in range(8):
        q0, q1 = random_11_circuit(rng, "a"), random_11_circuit(rng, "b")
        strat = ProverStrategy(random_state(rng, side), random_projector(rng, side))
        rho_in = np.outer(strat.psi, strat.psi.conj())
        outs = [density_walk_oracle(q, rho_in, private) for q in (q0, q1)]
        p0, p1 = (float(np.real(np.trace(strat.measurement @ rho))) for rho in outs)
        p = acceptance_probability(choi_of(q0), choi_of(q1), strat)
        assert abs(p - (0.5 * p0 + 0.5 * (1.0 - p1))) <= 1e-12, (private, k)


@pytest.mark.parametrize("psi, side, match", [
    (np.array([1.0, 0.0, 0.0]), 2, "dimension 3 is not 2\\^1 times a power of 2"),
    (np.array([1.0]), 1, "dimension 1 is not 2\\^1 times a power of 2"),
    (np.array([1.0, 0.0, 0.0, 0.0]), 2, "expected side 4 \\(output 1 \\+ private 1 qubits\\)"),
])
def test_acceptance_refuses_a_strategy_of_the_wrong_size(psi, side, match):
    m = np.zeros((side, side))
    m[0, 0] = 1.0
    with pytest.raises(ValueError, match=match):
        acceptance_probability(ID, DEC, ProverStrategy(psi, m))


def test_acceptance_refuses_channels_of_different_types():
    strat = ProverStrategy(np.array([1.0, 0.0]), np.diag([1.0, 0.0]))
    wide = choi_of(identity_circuit("id_2", 2))
    with pytest.raises(ValueError, match="channels disagree on type"):
        acceptance_probability(ID, wide, strat)
    with pytest.raises(ValueError, match="channels disagree on type"):
        run_protocol(ID, wide, strat, 10, seed=0)


def test_run_protocol_statistics_equal_circuits():
    strat = optimal_prover_witness(ID, ID2, CFG)[0]
    res = run_protocol(ID, ID2, strat, 10000, seed=7)
    assert abs(res.estimate - 0.5) < 0.02
    assert abs(res.p_accept_exact - 0.5) < 1e-12


def test_run_protocol_perfect_case_always_accepts():
    strat = optimal_prover_witness(ID, Z, CFG)[0]
    res = run_protocol(ID, Z, strat, 10000, seed=11)
    assert res.accepts == res.trials


def test_run_protocol_concentrates():
    strat = optimal_prover_witness(ID, DEC, CFG)[0]
    res = run_protocol(ID, DEC, strat, 100000, seed=13)
    assert abs(res.estimate - 0.75) < 0.006
    assert abs(res.dnorm_witness_value - 1.0) < 1e-6


def test_run_protocol_reproducible():
    strat = optimal_prover_witness(ID, DEC, CFG)[0]
    a = run_protocol(ID, DEC, strat, 2000, seed=3)
    b = run_protocol(ID, DEC, strat, 2000, seed=3)
    assert a.accepts == b.accepts


def test_completeness_and_soundness_thresholds():
    # yes instance for a = 2 - eps: identity vs Z; no instance for b = eps:
    # identical circuits.
    strat = optimal_prover_witness(ID, Z, CFG)[0]
    p_yes = acceptance_probability(ID, Z, strat)
    a = 2 - 1e-6
    assert p_yes >= 0.5 + a / 4
    strat0 = optimal_prover_witness(ID, ID2, CFG)[0]
    p_no = acceptance_probability(ID, ID2, strat0)
    assert p_no <= 0.5 + 1e-6 / 4 + 1e-9


def test_result_json_fields():
    strat = optimal_prover_witness(ID, DEC, CFG)[0]
    res = run_protocol(ID, DEC, strat, 100, seed=1)
    blob = result_to_json(res)
    # the printed order, too
    assert list(blob) == [
        "p_accept_exact",
        "trials",
        "accepts",
        "estimate",
        "dnorm_witness_value",
        "dnorm_upper",
        "seed",
    ]
    assert [type(v) for v in blob.values()] == [float, int, int, float, float, float, int]
    assert blob["dnorm_upper"] == 2.0  # the trivial bound when none is given
    res = run_protocol(ID, DEC, strat, 100, seed=1, dnorm_upper=2)
    assert type(result_to_json(res)["dnorm_upper"]) is float


def test_run_protocol_checks_soundness_against_upper_bound():
    strat, witness = optimal_prover_witness(ID, DEC, CFG)
    res = run_protocol(ID, DEC, strat, 100, seed=1, dnorm_upper=witness.upper)
    assert res.p_accept_exact <= 0.5 + witness.upper / 4 + 1e-12
    assert result_to_json(res)["dnorm_upper"] == witness.upper
    # the optimal strategy accepts with 3/4, which no pair at distance 0.9 allows
    with pytest.raises(InternalConsistencyError, match="soundness bound"):
        run_protocol(ID, DEC, strat, 100, seed=1, dnorm_upper=0.9)


@pytest.fixture(scope="module")
def decohere_prover():
    return identity_circuit(), decohere_circuit(), optimal_prover_witness(ID, DEC, CFG)[0]


def reference_accepts(q0, q1, strat, trials, seed):
    """The block-stream contract, one trial at a time, blocks in reverse order."""
    priv = int(np.log2(strat.psi.size)) - q0.n_in
    rho_in = np.outer(strat.psi, strat.psi.conj())
    rho = [apply_extended(q, rho_in, priv) for q in (q0, q1)]
    p_answer0 = [float(np.real(np.trace(strat.measurement @ r))) for r in rho]
    starts = list(range(0, trials, _BLOCK))
    accepts = 0
    for b in reversed(range(len(starts))):
        n = min(_BLOCK, trials - starts[b])
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(b,))))
        coins = rng.integers(0, 2, n)
        uniforms = rng.random(n)
        for i, u in zip(coins.tolist(), uniforms.tolist()):
            j = 0 if u < p_answer0[i] else 1
            accepts += int(i == j)
    return accepts


@pytest.mark.parametrize("trials", [1, _BLOCK, _BLOCK + 1, 3 * _BLOCK + 5])
def test_block_streams_reproducible_and_in_range(decohere_prover, trials):
    _, _, strat = decohere_prover
    a = run_protocol(ID, DEC, strat, trials, seed=17)
    b = run_protocol(ID, DEC, strat, trials, seed=17)
    assert 0 <= a.accepts <= trials
    assert a.accepts == b.accepts
    assert a.estimate == a.accepts / trials


@pytest.mark.parametrize("trials", [_BLOCK + 1, 3 * _BLOCK + 5])
def test_tally_is_sum_of_blocks_in_any_order(decohere_prover, trials):
    q0, q1, strat = decohere_prover
    res = run_protocol(ID, DEC, strat, trials, seed=23)
    assert res.accepts == reference_accepts(q0, q1, strat, trials, seed=23)


def test_perfect_case_accepts_across_block_boundary():
    strat = optimal_prover_witness(ID, Z, CFG)[0]
    res = run_protocol(ID, Z, strat, 2 * _BLOCK + 3, seed=5)
    assert res.accepts == res.trials


def test_million_trials_within_five_sigma(decohere_prover):
    _, _, strat = decohere_prover
    n = 10**6
    res = run_protocol(ID, DEC, strat, n, seed=29)
    p = res.p_accept_exact
    assert abs(res.accepts - n * p) <= 5 * np.sqrt(n * p * (1 - p))
