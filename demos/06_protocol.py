"""The blind taste-test protocol with its optimal prover.

The prover claims two circuits differ.  The verifier applies one of them,
chosen by a fair coin, to a state the prover supplied, returns the output,
and challenges the prover to name the circuit.  The best possible
acceptance probability is exactly 1/2 + ||Q0 - Q1||_diamond / 4: the
optimal prover sends half of the diamond-norm witness and measures with
the Helstrom projector.
"""

import numpy as np

from qcdist import (
    ProverStrategy,
    acceptance_probability,
    optimal_prover_witness,
    parse_circuit,
    run_protocol,
)

identity = parse_circuit("circuit id inputs 1\nend")
dephase = parse_circuit("circuit dephase inputs 1\ndecohere 0\nend")

strategy, witness = optimal_prover_witness(identity, dephase)
exact = acceptance_probability(identity, dephase, strategy)
print(f"diamond-norm witness value : {witness.value:.10f}")
print(f"optimal acceptance         : {exact:.10f}  (= 1/2 + value/4)")

# Monte Carlo protocol run: per-trial random streams, reproducible.
result = run_protocol(identity, dephase, strategy, trials=100000, seed=2026)
print(f"empirical over {result.trials} trials: {result.estimate}")
print(f"4-sigma window             : +/- {4 * np.sqrt(0.75 * 0.25 / result.trials):.5f}")

# A lazy prover does no better than chance on identical circuits...
strategy_lazy = ProverStrategy(
    psi=np.array([1.0, 0.0, 0.0, 0.0], dtype=complex),
    measurement=np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex),
)
print("\nlazy strategy on identical circuits:",
      acceptance_probability(identity, identity, strategy_lazy))

# ... and no strategy beats 1/2 + dnorm/4 (soundness).
rng = np.random.default_rng(3)
best = 0.0
for _ in range(200):
    z = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    psi = z / np.linalg.norm(z)
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    q, _ = np.linalg.qr(g)
    cols = q[:, : rng.integers(1, 4)]
    best = max(best, acceptance_probability(identity, dephase, ProverStrategy(psi, cols @ cols.conj().T)))
print(f"best of 200 random strategies: {best:.6f}  <= {exact:.6f}")
