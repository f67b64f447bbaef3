"""Seeded task lists for the four benchmark workloads.

A workload run repeats rounds until its time is up.  Round r of a run
with seed s draws its configs from ``random.Random(f"{name}/{s}/{r}")``,
so the same seed always gives the same configs.  Every round has the
same shape: the seed moves coupling values inside bands that keep each
task on the same solver path (same ARPACK retry, same root census, same
mesh and grid sizes), so runs on different seeds do the same amount of
work and their timings can be compared.

Each config is the JSON document ``surfint <task> --config`` would read;
the program receives nothing else.
"""

from __future__ import annotations

import cmath
import math
import random

WORKLOADS = ("fem-ladder", "radial-sweep", "interval-batch", "compare-suite")


def coupling(alpha, beta, gamma=0j):
    g = complex(gamma)
    return {"alpha": float(alpha), "beta": float(beta), "gamma": [g.real, g.imag]}


def _polar(rng, r_lo, r_hi, phase_lo, phase_hi):
    return cmath.rect(rng.uniform(r_lo, r_hi), rng.uniform(phase_lo, phase_hi) * math.pi)


def fem_ladder(rng, smoke):
    """circle-fem at the CLI defaults R=1, R_out=3R, h=0.3R.

    The free coupling has complex gamma, so its pencil is complex, and a
    ground state near -8 that sends the 5500-unknown ARPACK solve through
    its sigma retry.  The constrained coupling has real gamma (real
    pencil) and a ground state above -2.8 (no retry).
    """
    geometry = {"R": 1.0, "h": 0.6} if smoke else {"R": 1.0}
    free = coupling(rng.uniform(1.8, 2.2), rng.uniform(0.9, 1.1), _polar(rng, 0.5, 0.7, 0.3, 0.45))
    g = rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.7)
    constrained = coupling(rng.uniform(1.6, 2.4), 0.0, g)
    return [
        {"task": "circle-fem", "coupling": free, "geometry": dict(geometry)},
        {"task": "circle-fem", "coupling": constrained, "geometry": dict(geometry)},
    ]


def radial_sweep(rng, smoke):
    """Radial-grid sweeps, n_grid 2048 sphere tasks and certificates.

    Pure-delta sphere tasks use a Dirichlet box so their counts can be
    checked against the exact whole-space census.
    """
    n_sweep, n_sphere, steps = (128, 128, 3) if smoke else (1024, 2048, 16)

    def free():
        return coupling(rng.uniform(1.0, 1.4), rng.uniform(0.9, 1.1), _polar(rng, 0.3, 0.6, 0.2, 0.4))

    a0 = rng.uniform(0.8, 1.0)
    b0 = rng.uniform(0.8, 1.0)
    r0 = rng.uniform(0.45, 0.55)
    delta_alpha = rng.uniform(4.3, 4.5)
    return [
        {"task": "sweep", "coupling": free(), "geometry": {"kind": "sphere", "R": 1.0},
         "sweep": {"parameter": "alpha", "start": a0, "stop": a0 + 1.5, "steps": steps},
         "solver": {"n_grid": n_sweep}},
        {"task": "sweep", "coupling": free(), "geometry": {"kind": "circle", "R": 1.0},
         "sweep": {"parameter": "beta", "start": b0, "stop": b0 + 1.5, "steps": steps},
         "solver": {"n_grid": n_sweep}},
        {"task": "sweep", "coupling": coupling(delta_alpha, 0.0),
         "geometry": {"kind": "sphere", "R": 1.0},
         "sweep": {"parameter": "R", "start": r0, "stop": r0 + 0.5, "steps": steps},
         "solver": {"n_grid": n_sweep, "backend": "grid", "outer_bc": "dirichlet"}},
        {"task": "sphere", "coupling": coupling(delta_alpha, 0.0), "geometry": {"R": 1.0},
         "solver": {"n_grid": n_sphere, "outer_bc": "dirichlet"}},
        {"task": "sphere", "coupling": free(), "geometry": {"R": 1.0},
         "solver": {"n_grid": n_sphere}},
        {"task": "certify", "coupling": coupling(rng.uniform(1.5, 2.5), rng.uniform(0.5, 0.8)),
         "geometry": {"kind": "sphere", "R": 1.0}},
        {"task": "certify", "coupling": coupling(rng.uniform(2.0, 3.0), 0.0, rng.uniform(-0.5, 0.5)),
         "geometry": {"kind": "circle", "R": 1.0}},
        {"task": "certify", "coupling": coupling(rng.uniform(0.3, 0.8), 0.0, _polar(rng, 0.2, 0.5, 0.0, 2.0)),
         "geometry": {"kind": "sphere", "R": 1.0}},
    ]


def interval_batch(rng, smoke):
    """Many sub-millisecond tasks: interval, interval sweeps, m-infinity, radial-oracle."""
    n_plain, n_negative, n_small = (4, 2, 2) if smoke else (40, 8, 6)
    tasks = []
    for i in range(n_plain):
        # a quarter each of beta = 0, alpha = 0 and the two-root regime
        # twice; |gamma| >= 0.3 keeps clear of the alpha*beta = 4 double zero
        kind = i % 4
        alpha = 0.0 if kind == 1 else rng.uniform(0.5, 3.0)
        beta = 0.0 if kind == 0 else rng.uniform(0.5, 3.0)
        gamma = _polar(rng, 0.3, 2.0, 0.0, 2.0)
        tasks.append({"task": "interval", "coupling": coupling(alpha, beta, gamma),
                      "geometry": {"d": rng.uniform(2.0, 8.0)}})
    for i in range(n_negative):
        if i % 2:
            c = coupling(rng.uniform(-2.0, -0.5), rng.uniform(0.5, 2.0), _polar(rng, 0.3, 1.5, 0.0, 2.0))
        else:
            c = coupling(rng.uniform(0.5, 3.0), rng.uniform(-1.0, -0.3), _polar(rng, 0.3, 1.5, 0.0, 2.0))
        tasks.append({"task": "interval", "coupling": c, "geometry": {"d": rng.uniform(2.0, 8.0)},
                      "solver": {"k_max": 12.0}})
    steps = 4 if smoke else 8
    sweeps = (
        ("d", rng.uniform(1.0, 2.0), rng.uniform(6.0, 8.0)),
        ("alpha", rng.uniform(0.2, 0.5), rng.uniform(2.5, 3.0)),
        ("beta", rng.uniform(0.5, 0.8), rng.uniform(2.5, 3.0)),
    )
    for param, start, stop in sweeps:
        c = coupling(rng.uniform(0.5, 3.0), rng.uniform(0.5, 3.0), _polar(rng, 0.3, 2.0, 0.0, 2.0))
        tasks.append({"task": "sweep", "coupling": c, "geometry": {"d": rng.uniform(3.0, 6.0)},
                      "sweep": {"parameter": param, "start": start, "stop": stop, "steps": steps}})
    for i in range(n_small):
        # the three matched-strength shapes in turn; alpha*beta < 3.5
        # stays clear of the diag_saturation validity edge at 4
        shape = i % 3
        if shape == 0:
            beta = rng.uniform(0.5, 2.0)
            c = coupling(rng.uniform(0.2, 3.5 / beta), beta)
        elif shape == 1:
            c = coupling(0.0, rng.uniform(0.5, 3.0), complex(0.0, rng.uniform(-2.0, 2.0)))
        else:
            c = coupling(rng.uniform(0.5, 3.0), 0.0, complex(0.0, rng.uniform(-2.0, 2.0)))
        tasks.append({"task": "m-infinity", "coupling": c, "solver": {"verify_interval": True}})
        tasks.append({"task": "radial-oracle", "coupling": coupling(rng.uniform(0.5, 6.0), 0.0),
                      "geometry": {"R": rng.uniform(0.5, 2.0)}})
    return tasks


def _comparison_case(rng, family, geometry, params):
    """One hypothesis-satisfying case of the given family."""
    u = rng.uniform(0.5, 1.0)
    if family == "alpha_direct":
        a, b, g = rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0), 0j
        ref = u * a
    elif family == "beta_reciprocal":
        a, b, g = rng.uniform(0.0, 2.0), rng.uniform(1.0, 3.0), 0j
        ref = u * 4.0 / b
    elif family == "beta_gamma":
        a, b, g = 0.0, rng.uniform(1.0, 2.5), complex(0.0, rng.uniform(0.5, 2.0))
        ref = u * (4.0 + abs(g) ** 2) / b
    elif family == "alpha_gamma":
        a, b, g = rng.uniform(1.0, 3.0), 0.0, complex(0.0, rng.uniform(0.5, 2.0))
        ref = u * a / abs(1.0 + g / 2.0) ** 2
    else:  # deltaprime_lower
        ref = rng.uniform(1.0, 4.0)
        a, b, g = u * 4.0 / ref, 0.0, _polar(rng, 0.0, 1.0, 0.0, 2.0)
    c = coupling(a, b, g)
    return {"case_id": family, **c, "reference": ref, "geometry": geometry, "params": params}


FAMILIES = ("alpha_direct", "beta_reciprocal", "beta_gamma", "alpha_gamma", "deltaprime_lower")


def compare_suite(rng, smoke):
    """The built-in 20-case suite plus two seeded case lists.

    Each seeded list has three interval cases, one small circle-fem case
    at each of h = 0.2, 0.25, 0.3 (dense path) and two sphere-radial
    cases; families are drawn at random.
    """
    hs = (0.5,) if smoke else (0.2, 0.25, 0.3)
    n_grid = 128 if smoke else 256
    tasks = [] if smoke else [{"task": "compare"}]
    for _ in range(2):
        cases = []
        for _ in range(3):
            cases.append(_comparison_case(rng, rng.choice(FAMILIES), "interval",
                                          {"d": rng.uniform(4.0, 10.0)}))
        for h in hs:
            cases.append(_comparison_case(rng, rng.choice(FAMILIES), "circle-fem",
                                          {"R": 1.0, "R_out": 3.0, "h": h}))
        for _ in range(2):
            cases.append(_comparison_case(rng, rng.choice(FAMILIES), "sphere-radial",
                                          {"R": 1.0, "R_out": 12.0, "n_grid": n_grid, "mode_max": 2}))
        tasks.append({"task": "compare", "compare": {"cases": cases}})
    return tasks


ROUNDS = {
    "fem-ladder": fem_ladder,
    "radial-sweep": radial_sweep,
    "interval-batch": interval_batch,
    "compare-suite": compare_suite,
}


def make_round(workload, seed, round_index, smoke=False):
    """Configs of one round of a workload, deterministic in its arguments."""
    rng = random.Random(f"{workload}/{seed}/{round_index}")
    return ROUNDS[workload](rng, smoke)
