"""Fate of a Landau level under a circle interaction, at desk scale.

A finite model on a few levels shows the dichotomy: at a resonant radius
the level survives as an exact eigenvalue with the resonant basis vector
as eigenvector, for any weight and either coupling sign; away from
resonance the whole cluster detaches.  The lowest level always detaches
(its compression has trivial kernel).
"""

import math

import numpy as np

from landaudelta.basis import MagneticField
from landaudelta.census import census
from landaudelta.curves import load_weight, make_circle
from landaudelta.galerkin import assemble_model, cluster_report, persistence_check

field = MagneticField(2.0)

# ---------------------------------------------------------------------
# Cluster picture for a unit weight on the unit circle.
# ---------------------------------------------------------------------
wc = load_weight(make_circle(1.0), 1.0)
model = assemble_model(field, 2, 8, wc, +1, check_resolution=False)
report = cluster_report(model)
print("clusters for unit weight on the unit circle (sign +1, Q=2, K=8):")
for c in report.clusters:
    hits = len(c.exact_hits)
    print(
        f"   level {c.level_index} (Lambda = {c.landau_level:4.1f}): {c.count} eigenvalues, "
        f"offsets in [{c.min_offset:.3e}, {c.max_offset:.3e}], exact hits: {hits}"
    )
print("   the level-1 exact hit is the resonance at r = 1; level 0 always detaches")

# ---------------------------------------------------------------------
# Persistence across the whole census, with a weight that is far from
# constant; then a non-resonant radius for contrast.
# ---------------------------------------------------------------------
print("\npersistence of Lambda_1 at the first census radii, weight e^cos:")
for e in census(field, 1, 2.0):
    res = persistence_check(field, 1, e.r, weight=lambda t: np.exp(np.cos(t)))
    print(f"   r = {e.r:.6f}: persists = {res.persists}, witnesses k = {list(res.witnesses)}")

r_off = 1.3
res = persistence_check(field, 1, r_off, weight=1.0)
off = min(res.details["sign_+"]["min_offset"], res.details["sign_-"]["min_offset"])
print(f"\nnon-resonant r = {r_off}: persists = {res.persists}, closest eigenvalue {off:.3e} away")

# ---------------------------------------------------------------------
# Multiplicity 2: both witnesses ride through the perturbation.
# ---------------------------------------------------------------------
r2 = math.sqrt(2.0)
res2 = persistence_check(field, 2, r2, weight=lambda t: 2.0 + np.sin(t))
print(f"\ndouble resonance at r = sqrt(2) for level 2: persists = {res2.persists}, witnesses {list(res2.witnesses)}")
# ||B e_w|| / max|B| for each witness column of the coupling B: zero up to
# rounding, so each witness vector is an eigenvector at Lambda_2 for both signs.
print(f"   witness column norms of the coupling: {['%.1e' % x for x in res2.details['sign_+']['support_residuals']]}")
