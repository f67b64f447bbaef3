"""Binding threshold of the attractive delta shell on a sphere in 3-D.

In three dimensions a radius-R shell of strength alpha_tilde binds its
first s-wave state only when alpha_tilde * R exceeds 1: the matching
equation (alpha_tilde/2)(1 - e^{-2kR}) = k has a positive root exactly
there.  The transition is located two independent ways: by bisecting the
closed-form matching condition and by counting finite-difference
eigenvalues in a large Dirichlet box.
"""

from surfint import core, radial

# closed-form matching: count and ground state across the threshold
print("s-wave matching on the unit sphere:")
for alpha_tilde in (0.5, 0.9, 0.99, 1.01, 1.5, 2.0, 4.0):
    count, lam = radial.sphere_swave_matching(alpha_tilde, 1.0)
    lam_txt = "none" if lam is None else f"{lam:.12f}"
    print(f"  alpha_tilde = {alpha_tilde:5.2f}: {count} state(s), ground state {lam_txt}")

thr = radial.swave_threshold(R=1.0, lo=0.9, hi=1.1, tol=1e-10)
print(f"\nbisected threshold strength at R = 1: {thr!r} (exact value 1)")

# higher modes switch on at alpha_tilde * R = 2l + 1, each bringing 2l+1
# degenerate states; the pure delta shell count is therefore exact
print("\nmode-resolved counts from a Dirichlet-box finite-difference sweep:")
geom = radial.RadialGeometry(dimension=3, R=1.0, R_out=30.0, outer_bc="dirichlet", mode=0)
for alpha_tilde in (0.9, 1.5, 2.9, 4.2):
    field = core.delta_field(alpha_tilde)
    report = radial.assemble_mode_sum(geom, field, n_grid=1024)
    per_mode = report.convergence["per_mode"]
    print(f"  alpha_tilde = {alpha_tilde}: N = {report.N}, per-mode counts {per_mode}")

# the deep ground state is pinned by the same matching condition; a grid
# ladder with Richardson extrapolation reproduces it to ~1e-10
exact = radial.sphere_swave_matching(2.0, 1.0)[1]
geom = radial.RadialGeometry(dimension=3, R=1.0, R_out=30.0, outer_bc="neumann", mode=0)
field = core.delta_field(2.0)
ladder = [radial.radial_fd_spectrum(geom, field, n).eigenvalues[0] for n in (256, 512, 1024)]
best, err_bar = radial.richardson(ladder)
print(f"\nground state at alpha_tilde = 2: matching {exact!r}")
print(f"  FD ladder {[f'{x:.10f}' for x in ladder]}")
print(f"  extrapolated {best!r} (error bar {err_bar:.1e}, true deviation {abs(best - exact):.1e})")
