"""Zero structure of generalized Laguerre polynomials.

Walks through the machinery the rest of the library is built on: zeros
for ordinary parameters, the reflection identity at negative integer
parameters (null roots with multiplicity), interlacing along the
parameter ladder, and the increasing zero curves.
"""

import numpy as np

from landaudelta.laguerre import LaguerreSpec, laguerre_eval, laguerre_zeros, positive_zeros

# ---------------------------------------------------------------------
# Zeros for a regular parameter: q simple positive roots.
# ---------------------------------------------------------------------
print("zeros of L_5^(0.5):")
for z, m in laguerre_zeros(LaguerreSpec(5, 0.5)):
    print(f"   t = {z:.12f}   multiplicity {m}   residual {laguerre_eval(LaguerreSpec(5, 0.5), z):+.2e}")

# ---------------------------------------------------------------------
# Negative integer parameters: a null root of known order appears.
# L_q^(k-q) is proportional to t^(q-k) L_k^(q-k).
# ---------------------------------------------------------------------
print("\nzeros of L_4^(-2) (reflection reduction, null root of order 2):")
for z, m in laguerre_zeros(LaguerreSpec(4, -2.0)):
    print(f"   t = {z:.12f}   multiplicity {m}")

print("\nzeros of L_3^(-3): pure null root of order 3")
print("  ", laguerre_zeros(LaguerreSpec(3, -3.0)))

# ---------------------------------------------------------------------
# Interlacing along the parameter ladder: between consecutive parameter
# values the positive zeros strictly alternate.
# ---------------------------------------------------------------------
q = 4
print(f"\ninterlacing for degree {q} (positive zeros, descending):")
for k in range(q, 0, -1):
    zs = sorted((z for z, _ in laguerre_zeros(LaguerreSpec(q, float(k - q))) if z > 0), reverse=True)
    print(f"   k={k}: " + "  ".join(f"{z:9.5f}" for z in zs))

# ---------------------------------------------------------------------
# Zero curves: every zero is strictly increasing in the parameter.
# ---------------------------------------------------------------------
alphas = np.arange(0.0, 6.0, 1.0)
print("\nzero curves of L_3^(alpha) on an integer grid:")
print("   alpha " + " ".join(f"{a:8.1f}" for a in alphas))
table = positive_zeros(3, alphas).T  # one row per parameter, in one stacked solve
for row, label in zip(table[::-1], ("largest", "middle", "smallest")):
    print(f"   {label:>8s} " + " ".join(f"{z:8.4f}" for z in row))
