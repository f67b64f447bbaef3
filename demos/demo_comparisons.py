"""Eigenvalue comparison principles, checked across two solvers.

Each comparison family states a hypothesis on two couplings under which
every negative eigenvalue of one operator sits below its partner's.
The harness validates the hypothesis symbolically, then solves both
sides (exact interval solver, or circle FEM on one shared mesh so the
variational ordering survives discretization) and reports the worst
margin.  A negative margin beyond tolerance would falsify the family.
"""

from surfint import harness

suite = harness.build_comparison_suite()
verdicts = harness.run_suite(suite)

print(f"{len(suite)} cases across {len(set(c.case_id for c in suite))} families\n")
print(f"{'family':18s} {'geometry':12s} {'pairs':5s} {'margin':>12s} {'ordered'}")
for case, verdict in zip(suite, verdicts):
    print(
        f"{case.case_id:18s} {case.geometry:12s} {len(verdict.pairs):5d} "
        f"{verdict.margin:12.3e} {verdict.ordering_ok}"
    )

worst = min(v.margin for v in verdicts)
print(f"\nworst margin over the suite: {worst:.3e}")
print("(zero margins come from hypothesis-boundary cases, where the two")
print(" couplings are exactly unitarily equivalent and the ordering is tight)")

# one case in detail: direct strengthening of the mean-trace coupling
case = harness.ComparisonCase(
    "alpha_direct", 3.0, 1.0, 0.0, reference=1.5, geometry="interval", params={"d": 8.0}
)
verdict = harness.compare_spectra(case)
print("\nstrengthening alpha from 1.5 to 3.0 at beta = 1 on the interval:")
for lo, up in verdict.pairs:
    print(f"  {lo:+.12f} <= {up:+.12f}   (gap {up - lo:.3e})")

# hypotheses are enforced, not assumed: an inadmissible reference raises
try:
    bad = harness.ComparisonCase(
        "alpha_direct", 1.0, 1.0, 0.0, reference=2.0, geometry="interval", params={"d": 8.0}
    )
    harness.compare_spectra(bad)
except Exception as err:
    print(f"\nrejected reference stronger than the target: {err}")
