"""The census of resonant radii.

A circle of radius r is resonant for level q when t = b r^2 / 2 hits a
Laguerre zero; the kernel dimension of the compressed interaction equals
the number of angular indices witnessing the hit and never exceeds q.
Levels 1 and 2 admit closed forms, which the sweep reproduces.
"""

import numpy as np

from landaudelta.basis import MagneticField
from landaudelta.census import census, eta_curve, explicit_D12, gap_constants, multiplicities

field = MagneticField(2.0)

# ---------------------------------------------------------------------
# Level 1: the resonant radii are sqrt(2n/b).
# ---------------------------------------------------------------------
print("level-1 census up to r = 3:")
for e in census(field, 1, 3.0):
    print(f"   r = {e.r:.10f}   t = {e.t:.6f}   m = {e.multiplicity}   witnesses k = {[k for k, _ in e.witnesses]}")

# ---------------------------------------------------------------------
# Level 2: two families; coincidences carry multiplicity 2.
# ---------------------------------------------------------------------
print("\nlevel-2 census up to r = 2.6:")
for e in census(field, 2, 2.6):
    tag = "  <-- double" if e.multiplicity == 2 else ""
    print(f"   r = {e.r:.10f}   m = {e.multiplicity}   witnesses {[k for k, _ in e.witnesses]}{tag}")

closed = explicit_D12(field, 8)
print("\nclosed forms (first entries): D1 =", [round(x, 6) for x in closed["D1"][:4]])
print("double-multiplicity radii:     D22 =", [round(x, 6) for x in closed["D22"][:3]])

# ---------------------------------------------------------------------
# Multiplicity is capped by the level index.
# ---------------------------------------------------------------------
rng = np.random.default_rng(0)
print("\nspot check of the kernel bound m <= q:")
for q in (3, 5):
    worst = int(multiplicities(field, q, rng.uniform(0.05, 4.0, size=2000)).max())
    print(f"   q = {q}: max multiplicity over 2000 random radii = {worst}")

# ---------------------------------------------------------------------
# Radius curves: increasing in the parameter, ordered in the branch
# index; their integer samples generate the census.
# ---------------------------------------------------------------------
print("\nradius curves for level 2 (eta_1 above eta_2):")
grid = np.arange(-1.0, 4.0, 1.0)
for ell in (1, 2):
    row = []
    for a in grid:
        try:
            row.append(f"{eta_curve(field, 2, ell, float(a)):7.4f}")
        except ValueError:
            row.append("     --")
    print(f"   eta_{ell}(alpha) on alpha = {list(grid)}: " + " ".join(row))

# ---------------------------------------------------------------------
# Scalar constants controlling the perturbation-theory windows.
# ---------------------------------------------------------------------
print("\nspectral-gap constants at lambda = 0 (b = 2):")
for q in (1, 2, 3):
    plus, minus = gap_constants(field, q, 0.0)
    print(f"   q = {q}: down-gap {plus:.6f}   up-gap {minus:.6f}")
