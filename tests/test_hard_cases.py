"""Equilibria where Picard iteration crawls: next to the critical set, with
a nearly stochastic leaky routing, and at extreme scales.  The exact
pattern iteration behind equilibrium_set must return a certified Point
there with no iteration budget involved; Picard serves as the oracle
wherever it converges."""

import numpy as np
import pytest

from satflow import NetworkSpec, directional_limits, equilibrium_set, picard_max, picard_min, validate
from satflow.equilibria import POINT, SEGMENT

from conftest import C3, C_STAR, R3, W3, random_spec, random_stochastic_irreducible, random_substochastic

D = np.array([1 / 3, 0.0, 2 / 3])


def residual(spec, x):
    return np.abs(np.clip(spec.routing.T @ x + spec.demand, 0, spec.capacity) - x).sum()


def spec_at(c, R=R3, w=W3):
    return validate(NetworkSpec(routing=R, capacity=w, demand=c))


@pytest.mark.parametrize("eps", [1e-6, 1e-8, 1e-10])
def test_near_critical_demand_is_a_point_next_to_the_segment(eps):
    segment = equilibrium_set(spec_at(C_STAR))
    assert segment.kind == SEGMENT
    bound = 10 * eps * W3.sum()
    # below the critical set the equilibrium sits at the lower endpoint,
    # above it at the upper one
    for sign, endpoint in ((-1.0, segment.x_min), (1.0, segment.x_max)):
        spec = spec_at(C_STAR + sign * eps * D)
        eq = equilibrium_set(spec)
        assert eq.kind == POINT
        assert residual(spec, eq.x_min) < 1e-10
        assert np.abs(eq.x_max - eq.x_min).sum() < 1e-6
        assert np.abs(eq.x_min - endpoint).sum() <= bound


def test_directional_limits_down_to_1e_10():
    eps = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
    segment = equilibrium_set(spec_at(C_STAR))
    lim = directional_limits(R3, W3, C_STAR, D, epsilons=eps)
    assert [row[0] for row in lim.table] == list(eps)
    below = [np.abs(row[1] - segment.x_min).sum() for row in lim.table]
    above = [np.abs(row[2] - segment.x_max).sum() for row in lim.table]
    assert all(b < a for a, b in zip(below, below[1:]))
    assert all(b < a for a, b in zip(above, above[1:]))
    # the demand rises with -eps below and falls with eps above, and so do the equilibria
    for (_, lo_big, hi_big), (_, lo_small, hi_small) in zip(lim.table, lim.table[1:]):
        assert np.all(lo_big <= lo_small + 1e-12)
        assert np.all(hi_small <= hi_big + 1e-12)
    assert below[-1] <= 10 * 1e-10 * W3.sum()
    assert above[-1] <= 10 * 1e-10 * W3.sum()


def test_nearly_stochastic_leaky_routing():
    spec = spec_at(C3, R=(1 - 1e-7) * R3)
    eq = equilibrium_set(spec)
    assert eq.kind == POINT
    assert residual(spec, eq.x_min) < 1e-10
    assert residual(spec, eq.x_max) < 1e-10
    assert np.abs(eq.x_max - eq.x_min).sum() < 1e-6


@pytest.mark.parametrize("k", [1e-6, 1e6, 1e12])
def test_scaled_point(spec2_leaky, k):
    # (kw, kc) has k times the equilibria of (w, c); at k = 1e12 the
    # residual of a computed point is rounding of order 1e-4, so only a
    # certificate that scales with w accepts it
    rng = np.random.default_rng(59)
    specs = [spec2_leaky] + [random_spec(rng, 6, stochastic=bool(i % 2)) for i in range(6)]
    for spec in specs:
        base = equilibrium_set(spec)
        eq = equilibrium_set(validate(NetworkSpec(routing=spec.routing, capacity=k * spec.capacity,
                                                  demand=k * spec.demand)))
        assert base.kind == eq.kind == POINT
        assert np.abs(eq.x_min - k * base.x_min).max() <= 1e-12 * k
        assert np.abs(eq.x_max - k * base.x_max).max() <= 1e-12 * k
    assert np.abs(equilibrium_set(spec2_leaky).x_min - 0.6).max() < 1e-12


def test_matches_picard_on_random_networks():
    rng = np.random.default_rng(53)
    points = 0
    for trial in range(200):
        n = int(rng.integers(1, 10))
        if trial % 2 or n == 1:
            R = random_substochastic(rng, n, 0.05, 1.0)
        else:
            R = random_stochastic_irreducible(rng, n)
        spec = validate(NetworkSpec(routing=R, capacity=rng.uniform(0.5, 5.0, n), demand=rng.uniform(-1.5, 1.5, n)))
        eq = equilibrium_set(spec)
        if eq.kind != POINT:
            continue
        points += 1
        lo, hi = picard_min(spec), picard_max(spec)
        assert lo.converged and hi.converged
        assert np.abs(eq.x_min - lo.x).sum() < 1e-9
        assert np.abs(eq.x_max - hi.x).sum() < 1e-9
    assert points >= 180


@pytest.mark.parametrize("k", [1e-9, 1e-6])
def test_fast_contracting_network_at_small_scale(k):
    # row sums 0.5-0.6 contract by about 0.6 per Picard step; an absolute
    # increment of 1e-12 ended the warm-up of this network scaled by 1e-9
    # after 11 steps, about 1e-5 (relative) away from the equilibrium
    rng = np.random.default_rng(61)
    n = 40
    R = random_substochastic(rng, n, 0.5, 0.6)
    w, c = rng.uniform(0.5, 5.0, n), rng.uniform(-1.5, 1.5, n)
    base = equilibrium_set(spec_at(c, R=R, w=w))
    eq = equilibrium_set(spec_at(k * c, R=R, w=k * w))
    assert base.kind == eq.kind == POINT
    assert np.abs(eq.x_min - k * base.x_min).max() <= 1e-12 * k * np.abs(base.x_min).max()
    assert np.abs(eq.x_max - k * base.x_max).max() <= 1e-12 * k * np.abs(base.x_max).max()
