"""Compression of a curve interaction to one Landau level.

Assembles the truncated interaction matrix over the arclength rule and
compares it with the closed-form circle diagonal; then looks at a
resonant radius, where an exact zero eigenvalue appears, and at an
ellipse, where the matrix is no longer diagonal.
"""

import numpy as np

from landaudelta.basis import MagneticField
from landaudelta.curves import load_weight, make_circle, make_ellipse
from landaudelta.toeplitz import (
    assemble,
    circle_diagonal,
    default_truncation,
    kernel_dim_estimate,
    spectrum,
)

field = MagneticField(2.0)

# ---------------------------------------------------------------------
# On a circle the matrix is diagonal and the diagonal has a closed form.
# ---------------------------------------------------------------------
r = 1.0
wc = load_weight(make_circle(r), 1.0)
m = assemble(field, 1, wc, K=8)
diag = np.real(np.diag(m.entries))
print(f"level 1, circle r = {r}, unit weight (K=8, N={m.provenance['N']}):")
print("    k   assembled        closed form")
for k in range(9):
    print(f"   {k:2d}   {diag[k]:.12f}   {circle_diagonal(field, 1, k, r):.12f}")
off = np.max(np.abs(m.entries - np.diag(np.diag(m.entries))))
print(f"   max off-diagonal: {off:.2e}   underresolved: {m.underresolved}")

# ---------------------------------------------------------------------
# r = 1 makes t = b r^2 / 2 = 1 a Laguerre zero: the k = 1 diagonal
# vanishes and the kernel estimate agrees with the analytic census.
# ---------------------------------------------------------------------
est = kernel_dim_estimate(m)
print(f"\nkernel estimate at the resonant radius: count={est.count}, census={est.census_multiplicity}")

vals = spectrum(m).eigenvalues
print("eigenvalues (descending):", " ".join(f"{v:.3e}" for v in vals))

# ---------------------------------------------------------------------
# The default truncation keeps every entry above the numerical floor.
# ---------------------------------------------------------------------
print(f"\ndefault truncation for level 2 at r = 2.5: K = {default_truncation(field, 2, make_circle(2.5))}")

# ---------------------------------------------------------------------
# General curves: no diagonality, but the sign structure survives (a
# nonnegative weight gives a positive semidefinite compression).
# ---------------------------------------------------------------------
ellipse = make_ellipse(1.4, 0.9, n=1024)
for label, weight in (("nonnegative", lambda t: 1.0 + np.sin(t)), ("indefinite", lambda t: np.cos(t))):
    wce = load_weight(ellipse, weight)
    me = assemble(field, 1, wce, K=10, check_resolution=False)
    ev = spectrum(me).eigenvalues
    print(f"\nellipse, {label} weight ({wce.sign_class}):")
    print(f"   eigenvalue range [{ev.min():+.3e}, {ev.max():+.3e}]")
    print(f"   max |off-diagonal| {np.max(np.abs(me.entries - np.diag(np.diag(me.entries)))):.3e}")
