"""Hardness amplification: shrink with parity mixtures, grow with tensor
powers, polarize by composing the two.

The parity mixture runs r blocks, each applying Q0 or Q1 according to
fair classical coins whose parity is fixed (even for R0, odd for R1); it
obeys the exact law ||R0 - R1|| = 2 (||Q0 - Q1|| / 2)^r.  Tensor powers
push distances up: 2 - 2 exp(-k eps^2 / 8) < ||Q0^k - Q1^k|| <= k eps.
"""

import numpy as np

from qcdist import (
    PolarizationParams,
    choi_of,
    diamond_norm,
    parity_mix,
    parse_circuit,
    polarize,
    tensor_power,
)
from qcdist.linalg import SizeCapError

identity = parse_circuit("circuit id inputs 1\nend")
dephase = parse_circuit("circuit dephase inputs 1\ndecohere 0\nend")

print("base distance ||id - dephase||:",
      diamond_norm(choi_of(identity), choi_of(dephase)).value)

print("\nparity mixture law 2*(eps/2)^r:")
for r in (1, 2, 3):
    p0, p1 = parity_mix(identity, dephase, r)
    v = diamond_norm(choi_of(p0), choi_of(p1)).value
    print(f"  r={r}: {v:.6f}  (law says {2 * 0.5**r})")

print("\ntensor power bounds:")
for k in (1, 2, 3):
    t0, t1 = tensor_power(identity, dephase, k)
    v = diamond_norm(choi_of(t0), choi_of(t1)).value
    print(f"  k={k}: {v:.6f}  in ({2 - 2 * np.exp(-k / 8):.6f}, {min(k, 2)}]")

# Full-strength polarization parameters explode; the pipeline refuses and
# hands back the certificate instead of truncating.
params = PolarizationParams(n=1, a=1.0, b=0.25)
print(f"\nderived parameters for (a, b, n) = (1, 1/4, 1): "
      f"r={params.r}, s={params.s}, t={params.t}")
try:
    polarize(identity, dephase, params)
except SizeCapError as exc:
    cert = exc.certificate
    print("refused:", str(exc).split(";")[0])
    print("certified final no-interval :", cert["final_interval_no"])
    print("certified final yes-interval:", cert["final_interval_yes"])

# Desk-scale override: each stage still obeys its law.
s0, s1, cert = polarize(identity, dephase, params, override=(2, 2, 1))
v = diamond_norm(choi_of(s0), choi_of(s1)).value
print(f"\noverride (2,2,1) pipeline value: {v:.6f}")
for stage in cert["stages"]:
    print(" ", stage["construction"], stage["params"],
          "yes:", np.round(stage["guaranteed_interval_yes"], 6).tolist(),
          "no:", np.round(stage["guaranteed_interval_no"], 6).tolist())
