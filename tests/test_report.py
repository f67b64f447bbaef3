"""Levels: one record turns each level into its repeated eigenvalues.

Each test pins Levels.expanded() against an expansion written out by
hand: the interval's double root, the circle mode sum, the delta sphere
and the sphere-radial comparison.
"""

from dataclasses import replace

import surfint as si
from surfint import harness, interval, radial
from surfint.report import Levels


def test_degenerate_interval_root_expands_to_two_eigenvalues():
    spec = interval.negative_spectrum(interval.IntervalProblem(2.0, 2.0, 0.0, 3.0))
    assert isinstance(spec, Levels)
    assert len(spec.eigenvalues) == 1 and spec.multiplicities == (2,) and spec.N == 2

    def counted(values):  # each value twice, written out
        return [v for v in values for _ in range(2)]

    assert spec.expanded() == counted(spec.eigenvalues) == [spec.eigenvalues[0]] * 2
    assert spec.expanded(spec.ks) == counted(spec.ks)
    assert spec.expanded(spec.diagnostics["residuals"]) == counted(spec.diagnostics["residuals"])


def test_circle_mode_levels_carry_multiplicity_two():
    geom = radial.RadialGeometry(2, 1.0, 12.0, "dirichlet", 0)
    field = si.delta_field(6.0)
    rep = radial.assemble_mode_sum(geom, field, 256)
    old = []
    for mode in range(4):  # modes 0, 1, 2 bind, mode 3 is empty
        levels = radial.radial_fd_spectrum(replace(geom, mode=mode), field, 256)
        assert levels.eigenvalues == tuple(rep.convergence["per_mode"][str(mode)])
        assert set(levels.multiplicities) <= {1 if mode == 0 else 2}
        assert levels.expanded() == [lam for lam in levels.eigenvalues for _ in range(1 if mode == 0 else 2)]
        old += levels.expanded()
    assert levels.N == 0
    assert list(rep.eigenvalues) == sorted(old) and rep.N == len(old) == 5


def test_delta_sphere_mode_one_appears_three_times():
    N, levels = radial.dtn_census(3, si.delta_field(4.4), 1.0, 5)
    lams = levels.expanded()[:5]
    assert N == 4 == len(lams)  # modes 0 and 1 bind: 1 + 3
    swave = radial.sphere_swave_matching(4.4, 1.0)[1]
    assert lams[0] == swave < lams[1] == lams[2] == lams[3]
    assert Levels((swave, lams[1]), (1, 3)).expanded() == lams


def test_merged_ties_give_the_sorted_expansion():
    parts = [Levels((-3.0, -1.0), (1, 1)), Levels((-2.0, -1.0), (2, 2)), Levels((), ()), Levels((-1.0,), (5,))]
    levels = Levels.merged(parts)
    assert levels.eigenvalues == (-3.0, -2.0, -1.0) and levels.multiplicities == (1, 2, 8)
    assert levels.expanded() == sorted(v for part in parts for v in part.expanded())
    assert levels.N == 11 == sum(part.N for part in parts)
    assert Levels.merged([]) == Levels((), ()) and Levels.merged([]).N == 0


def test_sphere_radial_merge_matches_the_sorted_expansion():
    params = {"R": 1.0, "R_out": 4.0, "mode_max": 2, "n_grid": 128}
    coupling = (5.0, 0.0, 0.0)
    old = []
    for mode in range(params["mode_max"] + 1):
        geom = radial.RadialGeometry(dimension=3, R=1.0, R_out=4.0, mode=mode)
        lam = radial.radial_mode_eigenvalues(geom, si.uniform_field(*coupling), 128, count=6)
        old.extend(float(v) for v in lam for _ in range(2 * mode + 1))
    assert harness._radial_merged_eigenvalues(coupling, params, 6) == sorted(old)[:6]
