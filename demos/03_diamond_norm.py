"""Diamond-norm distances as certified intervals.

The distinguishability of two channels is governed by the diamond norm of
their difference, which allows the input to be entangled with a reference
system the channels never touch.  One ascent over the input state rho
gives both sides: the trace norm of the output difference at the input
vec(sqrt(rho)), a lower bound attained by that witness, and a dual point
of Watrous's semidefinite program, an upper bound.  The ascent has no bad
local optima, so it needs no restarts; every interval below is certified.
"""

import numpy as np

from qcdist import diamond_norm, choi_of, parse_circuit

identity = parse_circuit("circuit id inputs 1\nend")
z_flip = parse_circuit("circuit z inputs 1\ngate Z 0\nend")
dephase = parse_circuit("circuit dephase inputs 1\ndecohere 0\nend")
depolarize = parse_circuit(
    "circuit depolarize inputs 1\ntrace 0\nancilla\ngate H 0\ndecohere 0\nend"
)

ch_id = choi_of(identity)

for name, other, expect in [
    ("Z conjugation", z_flip, 2.0),
    ("dephasing", dephase, 1.0),
    ("depolarizing", depolarize, 1.5),
]:
    witness = diamond_norm(ch_id, choi_of(other))
    print(
        f"identity vs {name:13s}: [{witness.value:.12f}, {witness.upper:.12f}]"
        f"  (expected {expect}, {witness.iterations} iteration(s))"
    )

# The witness is a concrete strategy: an input state on input (x) reference
# and a projective measurement on output (x) reference.
witness = diamond_norm(ch_id, choi_of(dephase))
print("\ndephasing witness input state (amplitudes):")
print(np.round(witness.psi, 4))
print("measurement projector rank:", int(round(np.trace(witness.measurement).real)))

# Entanglement with the reference matters: against depolarizing noise the
# optimal input is maximally entangled (equal Schmidt coefficients); a
# product input could never exceed 1.
witness = diamond_norm(ch_id, choi_of(depolarize))
schmidt = np.linalg.svd(witness.psi.reshape(2, 2), compute_uv=False)
print("\ndepolarizing witness Schmidt coefficients:", np.round(schmidt, 6))
