"""Whole-space spectral bottoms, their closed forms, and certificates.

For the coupling living on a flat interface the essential spectrum of
the operator starts at m_infinity <= 0, computable in closed form from
(alpha, beta, gamma).  Special parameter pinches collapse the formula
further; each collapse is cross-checked against the interval solver,
whose bottom converges to m_infinity exponentially fast.  On curved
interfaces, rough existence/absence certificates come from sign
considerations alone and are verified against box-truncated counts.
"""

import numpy as np

from surfint import core, harness

# the surface coupling matrix behind all of this: Hermitian by
# construction, real symmetric exactly for real gamma
field = core.uniform_field(0.0, 1.0, 2j)
theta = core.theta_matrix(field)
print("surface matrix for (alpha, beta, gamma) = (0, 1, 2i):")
print(np.array2string(theta.entries, precision=6))
print(f"eigenvalues {theta.eigenvalues()}, real symmetric: {theta.is_real_symmetric}")
print(f"quadratic-form lower constant eta = {core.form_lower_bound(field).eta}")

# closed-form bottoms and their pinched special cases
print("\nwhole-space bottoms:")
for alpha, beta, gamma, note in [
    (1.0, 4.0, 0.0, "alpha*beta = 4: collapses to -4/beta^2"),
    (3.0, 2.0, 0.0, "alpha*beta = 6 > 4: the -4/beta^2 collapse no longer applies"),
    (0.0, 2.0, 2j, "pure jump with imaginary gamma: -(4+|gamma|^2)^2/(4 beta^2)"),
    (2.0, 0.0, 2j, "pure mean trace with imaginary gamma: -4 alpha^2/(4+|gamma|^2)^2"),
]:
    m = core.m_infinity(alpha, beta, gamma)
    print(f"  m_infinity({alpha}, {beta}, {gamma}) = {m:+.12f}   ({note})")

# the full report: which pinches apply, whether the identity holds, and
# an interval cross-check of the bottom itself
report = harness.essential_bound_check(1.0, 4.0, 0.0)
print(f"\nessential_bound_check(1, 4, 0): m_A = {report['m_A']}")
for case in report["cases"]:
    print(f"  pinch {case['case']}: identity_holds = {case['identity_holds']}")
chk = report["interval_check"]
print(f"  interval cross-check: status {chk['status']}, d = {chk['d']}, "
      f"gap {chk['gap']:.2e}")

# curvature certificates: a free coupling on a circle always binds, a
# weak constrained coupling on a sphere never does
print("\nbound-state certificates:")
for alpha, beta, gamma, kind in [
    (0.0, 1.0, 0.0, "circle"),
    (1.0, 0.0, 1j, "circle"),
    (1.0, 0.0, 1j, "sphere"),
]:
    field = core.uniform_field(alpha, beta, gamma)
    cert = harness.bound_state_certificate(field, {"kind": kind, "R": 1.0})
    active = {
        name: entry["prediction"]
        for name, entry in cert["criteria"].items()
        if entry["applicable"] and entry["prediction"]
    }
    print(f"  ({alpha}, {beta}, {gamma}) on the {kind}: predictions {active}, "
          f"census N {cert['counts']['N']}, Dirichlet box count {cert['counts']['N_dirichlet']}, "
          f"consistent: {cert['ok']}")
