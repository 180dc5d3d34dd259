"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
report.  All tolerances are pinned here; nothing is deferred.
"""

import numpy as np

from satflow import (
    DemandPath,
    IntegratorConfig,
    NetworkSpec,
    directional_limits,
    equilibrium_set,
    h_operator,
    integrate,
    invariant_vector,
    sweep,
    validate,
)
from satflow.equilibria import picard_max, picard_min

from conftest import (
    C3,
    C_STAR,
    COND3,
    PI3,
    R3,
    W3,
    XMAX3,
    XMIN3,
    random_spec,
    random_stochastic_irreducible,
    random_zero_sum,
)
from oracles import h_series

PAPER_XMIN = np.array([0.32, 0.0, 1.08])
PAPER_XMAX = np.array([1.62, 4.0, 5.41])


def report(num, desc, ok):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_1_reference_equilibrium_endpoints(spec3):
    eq = equilibrium_set(spec3)
    ok = (
        np.abs(eq.x_min - PAPER_XMIN).max() < 1e-2
        and np.abs(eq.x_max - PAPER_XMAX).max() < 1e-2
        and np.abs(eq.x_min - XMIN3).max() < 1e-8
        and np.abs(eq.x_max - XMAX3).max() < 1e-8
    )
    report(1, "reference equilibrium endpoints (1e-2 vs printed, 1e-8 vs exact)", ok)


def test_criterion_2_condition_value(spec3):
    eq = equilibrium_set(spec3)
    ok = abs(eq.condition_value - 9.6216) < 1e-3 and abs(eq.condition_value - COND3) < 1e-8
    report(2, "segment-length condition value 356/37 ~ 9.6216", ok)


def test_criterion_3_invariant_vector():
    pi = invariant_vector(R3)
    ok = np.abs(pi - PI3).max() < 1e-10 and np.abs(pi - R3.T @ pi).sum() < 1e-10
    report(3, "invariant vector [12/89, 37/89, 40/89] with residual < 1e-10", ok)


def test_criterion_4_sweep_phase_transition():
    # path c(a) = [a/3, -1, 2a/3], a in [0, 9], 901 samples
    path = DemandPath([0.0, -1.0, 0.0], [3.0, -1.0, 6.0], 901)
    result = sweep(R3, W3, path)
    ok = len(result.jumps) == 1 and not result.unresolved
    if ok:
        s_star = result.jumps[0]["s"]
        ok = abs(9 * s_star - 1.0) < 1e-6 and abs(result.jumps[0]["magnitude"] - COND3) < 1e-6
    if ok:
        eq = equilibrium_set(NetworkSpec(routing=R3, capacity=W3, demand=C_STAR))
        lim = directional_limits(R3, W3, C_STAR, np.array([1 / 3, 0.0, 2 / 3]),
                                 epsilons=(1e-2, 1e-3, 1e-4))
        ok = (np.abs(lim.from_below - eq.x_min).sum() < 1e-2
              and np.abs(lim.from_above - eq.x_max).sum() < 1e-2)
    report(4, "sweep finds one critical point at a=1 with jump 356/37 and matching one-sided limits", ok)


def test_criterion_5_global_convergence(spec3):
    # once the sampled residual is below 1e-10 the state drifts by at most
    # residual * remaining time, far below the 1e-5 budget, so early
    # stopping at the residual threshold is equivalent to running to t=200
    eq = equilibrium_set(spec3)
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(50):
        x0 = rng.random(3) * W3
        traj = integrate(spec3, x0, IntegratorConfig(dt=0.01, t_end=200.0))
        worst = max(worst, eq.distance_l1(traj.final_state))
    report(5, f"50 random starts end within 1e-5 of the equilibrium segment (worst {worst:.3g})",
           worst < 1e-5)


def test_criterion_6_monotone_nonexpansive():
    rng = np.random.default_rng(103)
    cfg = IntegratorConfig(dt=0.01, t_end=10.0, residual_tol=1e-16)
    ok = True
    for _ in range(200):
        spec = random_spec(rng, int(rng.integers(2, 7)), stochastic=bool(rng.integers(2)))
        x0 = rng.random(spec.n) * spec.capacity
        y0 = x0 + rng.random(spec.n) * (spec.capacity - x0)
        tx = integrate(spec, x0, cfg)
        ty = integrate(spec, y0, cfg)
        m = min(len(tx.states), len(ty.states))
        d0 = np.abs(x0 - y0).sum()
        if not np.all(tx.states[:m] <= ty.states[:m] + 1e-8):
            ok = False
            break
        if not np.all(np.abs(tx.states[:m] - ty.states[:m]).sum(axis=1) <= d0 + 1e-8):
            ok = False
            break
    report(6, "200 random trials: order preserved and l1 distance nonincreasing (1e-8)", ok)


def test_criterion_7_oracle_equivalence():
    rng = np.random.default_rng(107)
    cfg = IntegratorConfig(dt=0.05, t_end=500.0)
    worst_fp = 0.0
    for _ in range(100):
        spec = random_spec(rng, int(rng.integers(2, 7)))
        lo = picard_min(spec).x
        hi = picard_max(spec).x
        worst_fp = max(
            worst_fp,
            np.abs(integrate(spec, np.zeros(spec.n), cfg).final_state - lo).sum(),
            np.abs(integrate(spec, spec.capacity, cfg).final_state - hi).sum(),
        )
    worst_h = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 7))
        R = random_stochastic_irreducible(rng, n)
        v = random_zero_sum(rng, n)
        worst_h = max(worst_h, np.abs(h_operator(R, v) - h_series(R, v)).max())
    ok = worst_fp < 1e-6 and worst_h < 1e-8
    report(7, f"Picard vs ODE within 1e-6 (worst {worst_fp:.3g}); series vs solve within 1e-8 (worst {worst_h:.3g})", ok)


def test_criterion_8_uniqueness_collapse():
    rng = np.random.default_rng(109)
    worst = 0.0
    for _ in range(100):
        spec = random_spec(rng, int(rng.integers(2, 7)))
        worst = max(worst, np.abs(picard_max(spec).x - picard_min(spec).x).sum())
    report(8, f"100 random out-connected specs: min/max equilibria coincide (worst {worst:.3g})",
           worst < 1e-8)


def test_criterion_9_monotone_demand_dependence():
    rng = np.random.default_rng(113)
    ok = True
    for _ in range(100):
        c1 = rng.uniform(-2.0, 2.0, 3)
        c2 = c1 + rng.random(3)
        s1 = validate(NetworkSpec(routing=R3, capacity=W3, demand=c1))
        s2 = validate(NetworkSpec(routing=R3, capacity=W3, demand=c2))
        if not (np.all(picard_min(s1).x <= picard_min(s2).x + 1e-8)
                and np.all(picard_max(s1).x <= picard_max(s2).x + 1e-8)):
            ok = False
            break
    report(9, "100 ordered demand pairs: minimal and maximal equilibria monotone (1e-8)", ok)
