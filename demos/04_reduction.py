"""The closeness-of-images to distinguishability reduction.

Given circuits Q0, Q1, build R0, R1 that run a controlled dilation of
either circuit, discard the original outputs, and keep the control plus
the dilation garbage; R1 additionally decoheres the control.  If some
inputs make Q0 and Q1's outputs overlap, discarding those outputs leaves
the control coherent and the decoherence gate bites; if the outputs are
always far apart, discarding them already decoheres the control and the
extra gate changes nothing.  Quantitatively,

    ||R0 - R1||_diamond  =  max F(Q0(rho0), Q1(rho1)).
"""

import numpy as np

from qcdist import (
    ci_to_qcd,
    choi_of,
    diamond_norm,
    max_image_fidelity,
    parse_circuit,
    serialize_circuit,
)

q0 = parse_circuit("circuit rotate inputs 1\ngate H 0\ngate T 0\nend")
q1 = parse_circuit("circuit dephase inputs 1\ndecohere 0\nend")

r0, r1 = ci_to_qcd(q0, q1)
print("reduction output type:", (r0.n_in, r0.n_out))
print("r1 is r0 plus a trailing decohere on the control:",
      r1.gates[:-1] == r0.gates and r1.gates[-1].kind == "decohere")

# Two independent certified intervals, one equality.  Both distances take
# the circuits' channels.
left = diamond_norm(choi_of(r0), choi_of(r1))
right = max_image_fidelity(choi_of(q0), choi_of(q1))
print(f"\ndiamond norm of the reduction pair : [{left.value:.10f}, {left.upper:.10f}]")
print(f"max image fidelity of (q0, q1)     : [{right.value:.10f}, {right.upper:.10f}]")
print(f"difference                         : {abs(left.value - right.value):.2e}")

# The fidelity witness: concrete input states achieving the maximum.
print("\nwitness rho0:")
print(np.round(right.rho0, 5))
print("witness rho1:")
print(np.round(right.rho1, 5))

print("\nemitted circuit r0:\n" + serialize_circuit(r0))
