"""Tests for the comparison harness, certificates and matched-strength checks."""

import math
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from surfint import core, harness, radial
from surfint.errors import (CaseInapplicable, ConvergenceFailure, GeometryUnavailable,
                            NonRealAlpha, ValidationError)
from surfint.harness import ComparisonCase


def make_case(case_id, alpha, beta, gamma, reference, geometry="interval", **params):
    return ComparisonCase(case_id, alpha, beta, gamma, reference, geometry,
                          params or {"d": 8.0})


def test_hypothesis_accepts_every_suite_case():
    for case in harness.build_comparison_suite():
        ok, fails = harness.check_hypothesis(case)
        assert ok, (case, fails)


def test_hypothesis_boundary_equalities_admitted():
    # reference exactly at its admissible maximum must pass, not be
    # rejected by square-root rounding in the modulus.
    ok, fails = harness.check_hypothesis(
        make_case("beta_reciprocal", 1.0, 2.0, 0.0, 2.0))
    assert ok, fails
    # alpha / |1 + i/2|^2 = 2 / 1.25 = 1.6 exactly
    ok, fails = harness.check_hypothesis(
        make_case("alpha_gamma", 2.0, 0.0, 1.0j, 1.6))
    assert ok, fails
    ok, fails = harness.check_hypothesis(
        make_case("beta_gamma", 0.0, 2.0, 1.0j, 2.5))
    assert ok, fails


def test_hypothesis_rejects_real_gamma_in_twisted_families():
    ok, fails = harness.check_hypothesis(
        make_case("beta_gamma", 0.0, 1.0, 1.0, 1.0))
    assert not ok
    assert any("imaginary" in f for f in fails)
    ok, fails = harness.check_hypothesis(
        make_case("alpha_gamma", 1.0, 0.0, 0.5 + 1.0j, 0.1))
    assert not ok
    assert any("imaginary" in f for f in fails)


def test_hypothesis_rejects_strength_overshoot():
    ok, fails = harness.check_hypothesis(
        make_case("alpha_direct", 2.0, 1.0, 0.0, 2.5))
    assert not ok and any("reference <= alpha" in f for f in fails)
    ok, fails = harness.check_hypothesis(
        make_case("beta_reciprocal", 1.0, 2.0, 0.0, 2.0 + 1e-9))
    assert not ok
    # alpha = 5 with delta-prime strength 1 violates alpha <= 4/strength
    ok, fails = harness.check_hypothesis(
        make_case("deltaprime_lower", 5.0, 0.0, 0.0, 1.0))
    assert not ok and any("alpha <= 4/reference" in f for f in fails)


def test_hypothesis_rejects_wrong_coupling_shape():
    ok, fails = harness.check_hypothesis(
        make_case("beta_gamma", 1.0, 2.0, 1.0j, 1.0))
    assert not ok and any("alpha must be 0" in f for f in fails)
    ok, fails = harness.check_hypothesis(
        make_case("alpha_gamma", 2.0, 1.0, 1.0j, 0.5))
    assert not ok and any("beta must be 0" in f for f in fails)
    ok, fails = harness.check_hypothesis(
        make_case("alpha_direct", 2.0, 1.0, 0.5j, 1.0))
    assert not ok and any("gamma must be 0" in f for f in fails)
    ok, fails = harness.check_hypothesis(
        make_case("unknown_family", 1.0, 1.0, 0.0, 1.0))
    assert not ok


def test_hypothesis_reports_the_shape_and_skips_the_bound():
    # gamma != 0 breaks the diagonal shape and reference 5 > alpha breaks
    # the bound: only the shape failure is reported
    ok, fails = harness.check_hypothesis(make_case("alpha_direct", 2.0, 1.0, 0.5j, 5.0))
    assert not ok and fails == ["gamma must be 0 for the diagonal coupling"]
    ok, fails = harness.check_hypothesis(make_case("deltaprime_lower", -1.0, 0.0, 0.0, 0.0))
    assert fails == ["alpha must be >= 0, got -1.0"]


def test_hypothesis_checks_case_params():
    ok, fails = harness.check_hypothesis(make_case("alpha_direct", 2.0, 1.0, 0.0, 1.0, dd=2.0))
    assert not ok and fails == ["unknown params key 'dd' for geometry 'interval'"]
    sphere = dict(R=1.0, R_out=12.0, n_grid=128, mode_max=0)
    ok, fails = harness.check_hypothesis(
        make_case("alpha_direct", 2.0, 1.0, 0.0, 1.0, "sphere-radial", **sphere))
    assert ok, fails
    ok, fails = harness.check_hypothesis(
        make_case("alpha_direct", 2.0, 1.0, 0.0, 1.0, "sphere-radial", outer_bc="dirichlet"))
    assert fails == ["unknown params key 'outer_bc' for geometry 'sphere-radial'"]
    ok, fails = harness.check_hypothesis(
        make_case("alpha_direct", 2.0, 1.0, 0.0, 1.0, "sphere-radial", n_grid=True, mode_max=2.5))
    assert fails == ["params n_grid must be an integer, got True",
                     "params mode_max must be an integer >= 0, got 2.5"]
    with pytest.raises(ValidationError):
        harness.compare_spectra(make_case("alpha_direct", 2.0, 1.0, 0.0, 1.0, "sphere-radial",
                                          mode_max=-1))


def test_sphere_radial_refuses_more_pairs_than_its_modes_hold():
    # mode 0 at n_grid 64 holds 128 eigenvalues on the constrained side
    case = make_case("alpha_direct", 2.0, 1.0, 0.0, 1.0, "sphere-radial", n_grid=64, mode_max=0)
    assert len(harness.compare_spectra(replace(case, k_count=128)).pairs) == 128
    with pytest.raises(ValidationError, match="k_count 129 exceeds the 128 eigenvalues"):
        harness.compare_spectra(replace(case, k_count=129))


def test_compare_raises_on_failed_hypothesis():
    with pytest.raises(ValidationError):
        harness.compare_spectra(make_case("alpha_direct", 2.0, 1.0, 0.0, 3.0))


def test_suite_covers_all_families_on_both_solvers():
    cases = harness.build_comparison_suite()
    assert len(cases) == 20
    assert {c.case_id for c in cases} == set(harness.CASE_IDS)
    geoms = [c.geometry for c in cases]
    assert geoms.count("interval") == 12
    assert geoms.count("circle-fem") == 8
    fem_families = {c.case_id for c in cases if c.geometry == "circle-fem"}
    assert fem_families == set(harness.CASE_IDS)


def test_full_suite_orderings_hold():
    verdicts = harness.run_suite(harness.build_comparison_suite())
    assert len(verdicts) == 20
    for v in verdicts:
        assert v.ordering_ok, v.to_dict()
        assert v.margin >= -v.tolerance, v.to_dict()
        assert len(v.pairs) == 3


def test_interval_ordering_strict_when_reference_weaker():
    # alpha = 2 against a much weaker delta: the ground gap is order one.
    v = harness.compare_spectra(make_case("alpha_direct", 2.0, 1.0, 0.0, 1.2))
    assert v.ordering_ok
    lo, up = v.pairs[0]
    assert up - lo > 1.0
    assert v.diagnostics["gaps"][0] == up - lo


def test_alpha_gamma_boundary_equality_is_exact():
    # at reference = alpha/|1+gamma/2|^2 the twisted coupling and the
    # delta comparison operator are unitarily equivalent, so the ground
    # eigenvalues agree to round-off on the same solver.
    v = harness.compare_spectra(make_case("alpha_gamma", 2.0, 0.0, 1.0j, 1.6))
    lo, up = v.pairs[0]
    assert lo < -0.5
    assert abs(up - lo) < 1e-9


def test_deltaprime_reference_sits_below():
    v = harness.compare_spectra(make_case("deltaprime_lower", 1.0, 0.0, 0.5, 4.0))
    assert v.ordering_ok
    assert v.diagnostics["lower_is_reference"] is True
    # delta-prime strength 4 pins the lower ground state near -4/16
    assert v.pairs[0][0] == pytest.approx(-0.25, abs=1e-2)


def test_padding_reported_when_spectra_are_short():
    # one negative eigenvalue per side, compared at k_count = 3
    v = harness.compare_spectra(
        make_case("beta_reciprocal", 0.0, 1.0, 0.0, 3.5))
    assert v.diagnostics["padded"] == [2, 2]
    assert v.pairs[1] == (0.0, 0.0)
    assert v.ordering_ok


def test_degenerate_interval_side_pads_after_its_double_root():
    # (2, 2, 0) lists one root of multiplicity 2: both copies are compared
    v = harness.compare_spectra(make_case("alpha_direct", 2.0, 2.0, 0.0, 2.0, d=3.0))
    assert v.diagnostics["padded"] == [1, 2]
    assert v.pairs[0][0] == v.pairs[1][0] < 0.0 == v.pairs[1][1]
    assert v.ordering_ok


def test_verdict_to_dict_is_json_shaped():
    v = harness.compare_spectra(make_case("alpha_direct", 2.0, 1.0, 0.0, 2.0))
    d = v.to_dict()
    assert d["case_id"] == "alpha_direct"
    assert d["ordering_ok"] is True
    assert isinstance(d["pairs"], list) and len(d["pairs"]) == 3
    assert isinstance(d["pairs"][0], list)
    assert isinstance(d["margin"], float)
    assert d["tolerance"] == 1e-10
    assert d["diagnostics"]["geometry"] == "interval"


@settings(max_examples=10, deadline=None)
@given(
    alpha=st.floats(0.5, 4.0),
    beta=st.floats(0.5, 4.0),
    frac=st.floats(0.1, 1.0),
)
def test_random_direct_orderings_hold(alpha, beta, frac):
    case = make_case("alpha_direct", alpha, beta, 0.0, frac * alpha,
                     d=6.0)
    v = harness.compare_spectra(case)
    assert v.ordering_ok, v.to_dict()


def test_certificate_interaction_integral_circle():
    rep = harness.bound_state_certificate(
        core.uniform_field(0.0, 1.0, 0.0), {"kind": "circle", "R": 1.0})
    entry = rep["criteria"]["interaction_integral"]
    assert entry["applicable"]
    assert entry["integral"] == pytest.approx(2.0 * math.pi, rel=1e-14)
    assert entry["prediction"] == "N >= 1"
    assert entry["consistent"] is True
    assert rep["counts"]["N_dirichlet"] >= 1
    assert rep["ok"]


@pytest.mark.parametrize("alpha, gamma", [(1.0, 1.0j), (0.1, 0.0), (0.3, 0.0)],
                         ids=["alpha-1", "alpha-0.1", "alpha-0.3"])
def test_certificate_attractive_trace_circle(alpha, gamma):
    # the weak states lie at -2.6e-9 and -1.6e-3, beyond the FD box of
    # radius 8R: the census binds them, the Dirichlet count reads 0
    rep = harness.bound_state_certificate(
        core.uniform_field(alpha, 0.0, gamma), {"kind": "circle", "R": 1.0})
    entry = rep["criteria"]["attractive_trace_2d"]
    assert entry["applicable"] and entry["prediction"] == "N >= 1"
    assert entry["consistent"] is True
    assert entry["numeric"] == rep["counts"]["N"] == 1
    assert rep["counts"]["dirichlet_at_most_N"]
    assert rep["ok"]


def test_certificate_majorant_sphere_below_threshold():
    # min |1 +- gamma/2|^2 at gamma = 4 is 1, majorant strength 0.5,
    # and 0.5 * R <= 1 rules out bound states on the sphere.
    rep = harness.bound_state_certificate(
        core.uniform_field(0.5, 0.0, 4.0), {"kind": "sphere", "R": 1.0})
    entry = rep["criteria"]["delta_majorant"]
    assert entry["applicable"]
    assert entry["alpha_tilde"] == pytest.approx(0.5, abs=1e-15)
    assert entry["prediction"] == "N == 0"
    assert entry["consistent"] is True
    assert rep["counts"]["N_dirichlet"] == 0
    assert rep["ok"]


def test_certificate_majorant_silent_above_threshold():
    rep = harness.bound_state_certificate(
        core.uniform_field(1.5, 0.0, 0.0),
        {"kind": "sphere", "R": 1.0, "R_out": 40.0})
    entry = rep["criteria"]["delta_majorant"]
    assert entry["prediction"] is None
    assert rep["counts"]["N_dirichlet"] >= 1
    assert rep["ok"]


def test_certificate_majorant_needs_its_hypothesis_exactly():
    # alpha R rounds to 1.0, the threshold, but exceeds it: the delta sphere
    # binds one state at -1.23e-32, so the majorant may not predict N == 0
    alpha, R = 1.0 + 2.0 ** -52, 1.0 - 2.0 ** -53
    assert alpha * R == 1.0
    rep = harness.bound_state_certificate(core.uniform_field(alpha, 0.0, 0.0), {"kind": "sphere", "R": R})
    entry = rep["criteria"]["delta_majorant"]
    assert entry["threshold"] == 1.0
    assert entry["prediction"] is None and entry["consistent"] is None
    assert rep["counts"] == {"N": 1, "N_dirichlet": 0, "dirichlet_at_most_N": True}
    assert rep["ok"]


def _exact_hypotheses(alpha, beta, gamma, kind, R):
    """The criteria whose hypothesis holds, decided in Fraction on the float inputs."""
    a, b, R = Fraction(alpha), Fraction(beta), Fraction(R)
    gr, gi = Fraction(gamma.real) / 2, Fraction(gamma.imag) / 2
    w = ((1 - gr) ** 2 + gi ** 2, (1 + gr) ** 2 + gi ** 2)
    if b:
        return {"interaction_integral"} if w[1] / b + a / 4 > 0 else set()
    holds = {"attractive_trace_2d"} if kind == "circle" and a > 0 else set()
    if min(w) and (a * R <= min(w) if kind == "sphere" else a == 0):
        holds.add("delta_majorant")
    return holds


def test_certificate_judges_seeded_draw():
    # both kinds, both geometries, weak circles down to alpha = 1e-3 and
    # couplings within a few ulp of the sphere's threshold alpha_tilde R = 1
    rng = random.Random(2024)
    for i in range(160):
        kind = ("circle", "sphere")[i % 2]
        R = rng.choice([1.0, rng.uniform(0.3, 3.0)])
        gamma = rng.choice([0.0, 2.0, -2.0, complex(rng.uniform(-3, 3), rng.uniform(-3, 3))])
        if i % 4 < 2:  # free
            alpha, beta = rng.uniform(-3.0, 5.0), rng.choice([1.0, -1.0]) * rng.uniform(0.2, 3.0)
        elif kind == "circle":
            alpha, beta = rng.choice([10.0 ** rng.uniform(-3.0, 0.0), rng.uniform(-3.0, 5.0), 0.0]), 0.0
        else:
            w = min(abs(1.0 + gamma / 2.0) ** 2, abs(1.0 - gamma / 2.0) ** 2) or 1.0
            alpha, beta, toward = w / R, 0.0, rng.choice([0.0, math.inf])
            for _ in range(rng.randint(0, 3)):
                alpha = math.nextafter(alpha, toward)
        geometry = {"kind": kind, "R": R, "R_out": R * rng.uniform(4.0, 12.0), "n_grid": rng.choice([128, 256])}
        rep = harness.bound_state_certificate(core.uniform_field(alpha, beta, gamma), geometry)
        case = (alpha, beta, gamma, geometry)
        predicted = {name for name, entry in rep["criteria"].items() if entry.get("prediction")}
        assert predicted == _exact_hypotheses(alpha, beta, complex(gamma), kind, R), (case, rep)
        assert all(rep["criteria"][name]["consistent"] is True for name in predicted), (case, rep)
        assert rep["counts"]["dirichlet_at_most_N"] and rep["ok"], (case, rep)


def test_certificate_cross_check_refutes_the_fd_zero_mode():
    # at alpha = 0, gamma = -2 the inner side decouples with a Neumann
    # condition; its constant state has eigenvalue 0, binds nothing in
    # the census, and FD on 768 cells puts it at -1.16e-10, below -NEG_TOL
    rep = harness.bound_state_certificate(core.uniform_field(0.0, 0.5, -2.0),
                                          {"kind": "circle", "R": 0.68, "n_grid": 768})
    assert rep["counts"] == {"N": 11, "N_dirichlet": 12, "dirichlet_at_most_N": False}
    assert not rep["ok"]


def test_census_count_solves_no_root(monkeypatch):
    # certificates read dtn_census(..., 0): its closed-form N solves nothing
    monkeypatch.setattr(core, "bisect", lambda *a, **kw: pytest.fail("core.bisect called"))
    for dim in (2, 3):
        for field in (core.uniform_field(2.0, 1.0, 0.3j), core.uniform_field(40.0, 0.0, 0.5),
                      core.delta_field(1e6)):
            N, levels = radial.dtn_census(dim, field, 1.0, 0)
            assert N >= 1 and levels.N == 0


def test_certificate_majorant_diverges_at_gamma_two():
    rep = harness.bound_state_certificate(
        core.uniform_field(1.0, 0.0, 2.0), {"kind": "sphere", "R": 1.0})
    entry = rep["criteria"]["delta_majorant"]
    assert entry["applicable"]
    assert entry["prediction"] is None
    assert "diverges" in entry["reason"]


def test_certificate_refuses_a_sweep_that_never_empties():
    # a delta sphere of strength 1e20 binds far beyond mode 256; the
    # Dirichlet count must not read 0 and certify "no bound state"
    with pytest.raises(ConvergenceFailure):
        harness.bound_state_certificate(core.uniform_field(1e20, 0.0, 0.0),
                                        {"kind": "sphere", "R": 1.0, "n_grid": 64})


def test_certificate_rejects_unknown_geometry():
    with pytest.raises(GeometryUnavailable):
        harness.bound_state_certificate(
            core.uniform_field(1.0, 1.0, 0.0), {"kind": "torus", "R": 1.0})


def test_essential_bound_diag_case():
    rep = harness.essential_bound_check(1.0, 2.0, 0.0)
    cases = {c["case"]: c for c in rep["cases"]}
    c = cases["diag_saturation"]
    assert c["alpha_tilde"] == pytest.approx(2.0)
    assert c["identity_holds"] and c["condition_met"]
    assert rep["m_A"] == pytest.approx(-1.0, abs=1e-15)
    assert rep["interval_check"]["status"] == "ok"
    assert rep["interval_check"]["gap"] < 1e-9


def test_essential_bound_diag_case_beyond_validity():
    # alpha * beta = 6 > 4: the matched-strength identity genuinely
    # fails there and the check must say so instead of papering over it.
    rep = harness.essential_bound_check(3.0, 2.0, 0.0)
    c = {c["case"]: c for c in rep["cases"]}["diag_saturation"]
    assert not c["condition_met"]
    assert not c["identity_holds"]
    assert rep["m_A"] == pytest.approx(-2.25, abs=1e-15)
    # the closed form itself still matches the interval solver
    assert rep["interval_check"]["status"] == "ok"


def test_essential_bound_diag_boundary():
    rep = harness.essential_bound_check(1.0, 4.0, 0.0)
    c = {c["case"]: c for c in rep["cases"]}["diag_saturation"]
    assert c["condition_met"] and c["identity_holds"]
    assert c["boundary_equality_admitted"]
    assert rep["m_A"] == pytest.approx(-0.25, abs=1e-15)


def test_essential_bound_twisted_cases_exact():
    rep = harness.essential_bound_check(0.0, 2.0, 2.0j)
    c = {c["case"]: c for c in rep["cases"]}["beta_imaginary_gamma"]
    assert c["alpha_tilde"] == pytest.approx(4.0)
    assert c["identity_holds"]
    assert rep["m_A"] == pytest.approx(-4.0, abs=1e-15)
    assert rep["interval_check"]["status"] == "ok"

    rep = harness.essential_bound_check(2.0, 0.0, 2.0j)
    c = {c["case"]: c for c in rep["cases"]}["alpha_imaginary_gamma"]
    assert c["alpha_tilde"] == pytest.approx(1.0)
    assert c["identity_holds"]
    assert rep["m_A"] == pytest.approx(-0.25, abs=1e-15)


def test_essential_bound_overlapping_cases_agree():
    # gamma = 0 with alpha = 0 fits both the diagonal case and the
    # imaginary-gamma case (gamma = 0i); both must report the same bound.
    rep = harness.essential_bound_check(0.0, 2.0, 0.0)
    names = sorted(c["case"] for c in rep["cases"])
    assert names == ["beta_imaginary_gamma", "diag_saturation"]
    for c in rep["cases"]:
        assert c["identity_holds"]
        assert c["alpha_tilde"] == pytest.approx(2.0)


def test_essential_bound_inapplicable_and_invalid():
    with pytest.raises(CaseInapplicable):
        harness.essential_bound_check(1.0, 1.0, 0.5 + 0.5j)
    # (0, 0, iy) takes alpha_gamma's shape, but its matched strength would be 0
    with pytest.raises(CaseInapplicable):
        harness.essential_bound_check(0.0, 0.0, 1j)
    with pytest.raises(ValidationError):
        harness.essential_bound_check(-1.0, 1.0, 0.0)


def test_essential_bound_takes_real_parts_as_m_infinity_does():
    # the coupling is checked once, by the floats core.m_infinity checks
    with pytest.raises(NonRealAlpha):
        harness.essential_bound_check(1 + 1j, 1.0, 0.0)
    rep = harness.essential_bound_check(1.0, 1 + 0j, 0.0)
    assert rep == harness.essential_bound_check(1.0, 1.0, 0.0)


def test_essential_bound_interval_check_is_optional():
    rep = harness.essential_bound_check(1.0, 2.0, 0.0, verify_interval=False)
    assert "interval_check" not in rep
    assert rep["m_A"] == pytest.approx(-1.0, abs=1e-15)
