"""Negative spectrum of the four-parameter point coupling on an interval.

The operator is the free Laplacian on (-d, d) with Neumann ends and a
singular interaction at the origin parameterized by (alpha, beta, gamma):
alpha weights the mean trace, beta the jump, and the complex gamma mixes
the two.  Negative eigenvalues lambda = -k^2 are roots of an explicit
characteristic function, which reduces to a quadratic in k tanh(kd), so
everything here is exact up to the last float of each root.
"""

import numpy as np

from surfint import core, interval

# one coupling in full detail: both roots of a generic attractive case
prob = interval.IntervalProblem(alpha=2.0, beta=1.0, gamma=0.5j, d=8.0)
spec = interval.negative_spectrum(prob)
print("coupling alpha=2, beta=1, gamma=0.5i on (-8, 8)")
print(f"  eigenvalues: {[f'{x:.12f}' for x in spec.eigenvalues]}")
print(f"  decay rates: {[f'{k:.12f}' for k in spec.ks]}")
print(f"  residuals:   {[f'{r:.1e}' for r in spec.diagnostics['residuals']]}")
print(f"  structural count {spec.diagnostics['census_expected']}, "
      f"found {len(spec.eigenvalues)}")

# the census: how many bound states each parameter class carries
print("\nroot census on a small grid (d = 6):")
for alpha, beta, gamma in [
    (0.0, 0.0, 1.0),   # gamma alone never binds
    (2.0, 0.0, 0.0),   # pure mean-trace coupling: one state
    (0.0, 2.0, 0.0),   # pure jump coupling: one state
    (2.0, 1.0, 0.0),   # both attractive: two states
    (1.0, 4.0, 0.0),   # alpha*beta = 4, gamma = 0: merged double root
]:
    prob = interval.IntervalProblem(alpha, beta, gamma, 6.0)
    n = len(interval.negative_spectrum(prob).eigenvalues)
    print(f"  alpha={alpha}, beta={beta}, gamma={gamma}: {n} negative eigenvalue(s)")

# the interval only perturbs the line exponentially: the gap to the
# whole-line bottom m_infinity closes like e^{-2 k0 d}
alpha, beta, gamma = 2.0, 0.0, 0.0
m_inf = core.m_infinity(alpha, beta, gamma)
print(f"\nwhole-line bottom for alpha=2 delta coupling: m_infinity = {m_inf}")
print("gap |m_interval(d) - m_infinity| while the interval grows:")
for d in (1.0, 2.0, 4.0, 8.0, 16.0):
    m_d = interval.m_interval(interval.IntervalProblem(alpha, beta, gamma, d))
    print(f"  d = {d:5.1f}: m_interval = {m_d:+.15f}   gap = {abs(m_d - m_inf):.3e}")
print("the walls can only deepen the state: m_interval <= m_infinity throughout")

# the spectrum sees gamma only through its modulus
probs = [
    interval.IntervalProblem(1.0, 2.0, 1.3 * np.exp(1j * t), 5.0) for t in (0.0, 0.9, 2.2)
]
vals = [interval.negative_spectrum(p).eigenvalues for p in probs]
print("\nsame |gamma| = 1.3 under three phases:")
for p, v in zip(probs, vals):
    print(f"  gamma = {p.gamma:+.3f}: eigenvalues {[f'{x:.12f}' for x in v]}")
