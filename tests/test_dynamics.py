import re

import numpy as np
import pytest

from satflow import (
    IntegratorConfig,
    NetworkSpec,
    NumericalError,
    PreconditionError,
    integrate,
    net_flow,
    validate,
)
from satflow import dynamics
from satflow.dynamics import in_lattice

from conftest import C3, R3, W3, XMAX3, XMIN3, random_spec, random_stochastic_irreducible, random_substochastic
from oracles import linear_rhs, rk4, saturate


class TestSaturate:
    def test_identity_inside_bounds(self):
        y = np.array([1.0, 2.0, 3.0])
        assert np.array_equal(saturate(y, np.zeros(3), W3), y)

    def test_clamps_both_sides(self):
        assert np.array_equal(saturate([-1.0, 7.0, 3.0], np.zeros(3), W3), [0.0, 4.0, 3.0])

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        y = rng.standard_normal(5) * 10
        lo, hi = -np.ones(5), np.ones(5)
        once = saturate(y, lo, hi)
        assert np.array_equal(saturate(once, lo, hi), once)

    def test_shift_identity(self):
        # clamp to [-x, w-x] of (z - x) equals clamp to [0, w] of z, minus x
        rng = np.random.default_rng(1)
        for _ in range(50):
            z = rng.standard_normal(4) * 5
            x = rng.standard_normal(4)
            w = rng.uniform(0.5, 3.0, 4)
            lhs = saturate(z - x, -x, w - x)
            rhs = saturate(z, np.zeros(4), w) - x
            assert np.array_equal(lhs, rhs)

    def test_inverted_bounds_raise(self):
        with pytest.raises(ValueError, match="inverted"):
            saturate([0.0], [1.0], [0.0])


class TestNetFlow:
    def test_zero_at_minimal_equilibrium(self, spec3):
        assert np.abs(net_flow(spec3, XMIN3)).sum() < 1e-14

    def test_nonnegative_at_empty_state(self):
        spec = validate(NetworkSpec(routing=R3, capacity=W3, demand=[0.5, 0.2, 0.0]))
        f = net_flow(spec, np.zeros(3))
        assert np.all(f >= 0)

    def test_nonpositive_at_full_state(self, spec3):
        assert np.all(net_flow(spec3, W3) <= 0)

    def test_flow_constraints_hold_exactly(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            spec = random_spec(rng, int(rng.integers(2, 7)), stochastic=bool(rng.integers(2)))
            x = rng.random(spec.n) * spec.capacity
            f = net_flow(spec, x)
            assert np.all(f >= -x) and np.all(f <= spec.capacity - x)


class TestLinearRhs:
    def test_matches_net_flow_when_unsaturated(self):
        rng = np.random.default_rng(9)
        spec = validate(NetworkSpec(routing=R3, capacity=W3, demand=[0.1, 0.1, 0.1]))
        for _ in range(50):
            x = rng.random(3) * W3
            pre = R3.T @ x + spec.demand
            if np.all(pre > 0) and np.all(pre < W3):
                assert np.array_equal(linear_rhs(spec, x), net_flow(spec, x))

    def test_zero_at_origin_without_demand(self):
        spec = validate(NetworkSpec(routing=R3, capacity=W3, demand=np.zeros(3)))
        assert np.array_equal(linear_rhs(spec, np.zeros(3)), np.zeros(3))

    def test_zero_on_equilibrium_segment(self, spec3):
        mid = 0.5 * (XMIN3 + XMAX3)
        assert np.abs(linear_rhs(spec3, mid)).max() < 1e-14


class TestIntegratorConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt=-0.1)
        with pytest.raises(ValueError):
            IntegratorConfig(dt=2.0, t_end=1.0)
        with pytest.raises(ValueError):
            IntegratorConfig(sample_every=0)


class TestIntegrate:
    def test_converges_to_minimal_equilibrium(self, spec3):
        traj = integrate(spec3, np.zeros(3))
        assert traj.converged
        assert np.abs(traj.final_state - XMIN3).sum() < 1e-6

    def test_converges_to_maximal_equilibrium(self, spec3):
        traj = integrate(spec3, W3)
        assert traj.converged
        assert np.abs(traj.final_state - XMAX3).sum() < 1e-6

    def test_constant_at_equilibrium(self, spec3):
        traj = integrate(spec3, XMIN3)
        assert traj.converged
        assert len(traj.times) == 1

    def test_rejects_state_outside_lattice(self, spec3):
        with pytest.raises(PreconditionError, match="lattice"):
            integrate(spec3, np.array([-1.0, 0.0, 0.0]))
        with pytest.raises(PreconditionError, match="lattice"):
            integrate(spec3, W3 + 1)

    def test_times_strictly_increasing(self, spec3):
        traj = integrate(spec3, np.zeros(3), IntegratorConfig(t_end=5.0))
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[0] == 0.0

    def test_lattice_invariance_random(self):
        rng = np.random.default_rng(13)
        cfg = IntegratorConfig(dt=0.01, t_end=3.0)
        for _ in range(200):
            spec = random_spec(rng, int(rng.integers(2, 7)), stochastic=bool(rng.integers(2)))
            x0 = rng.random(spec.n) * spec.capacity
            traj = integrate(spec, x0, cfg)
            assert np.all(traj.states >= -1e-9)
            assert np.all(traj.states <= spec.capacity + 1e-9)

    def test_monotonicity_and_nonexpansiveness(self):
        # full 200-trial version lives in the acceptance suite
        rng = np.random.default_rng(17)
        cfg = IntegratorConfig(dt=0.01, t_end=5.0, residual_tol=1e-16)
        for _ in range(30):
            spec = random_spec(rng, int(rng.integers(2, 7)), stochastic=bool(rng.integers(2)))
            x0 = rng.random(spec.n) * spec.capacity
            y0 = x0 + rng.random(spec.n) * (spec.capacity - x0)
            tx = integrate(spec, x0, cfg)
            ty = integrate(spec, y0, cfg)
            m = min(len(tx.states), len(ty.states))
            assert np.all(tx.states[:m] <= ty.states[:m] + 1e-8)
            d0 = np.abs(x0 - y0).sum()
            assert np.all(np.abs(tx.states[:m] - ty.states[:m]).sum(axis=1) <= d0 + 1e-8)

    def test_sum_conserved_between_extremal_equilibria(self, spec3):
        # inside the box [x_min, x_max] the dynamics are linear with a
        # stochastic matrix, so total mass is an invariant
        rng = np.random.default_rng(19)
        cfg = IntegratorConfig(dt=0.01, t_end=100.0, residual_tol=1e-16)
        for _ in range(5):
            u = rng.random(3)
            x0 = XMIN3 + u * (XMAX3 - XMIN3)
            traj = integrate(spec3, x0, cfg)
            sums = traj.states.sum(axis=1)
            assert np.abs(sums - sums[0]).max() < 1e-6

    def test_locally_linear_where_unsaturated(self, spec3):
        traj = integrate(spec3, 0.5 * W3, IntegratorConfig(t_end=20.0))
        margin = 1e-6
        for x in traj.states:
            pre = spec3.routing.T @ x + spec3.demand
            if np.all(pre > margin) and np.all(pre < spec3.capacity - margin):
                assert np.array_equal(net_flow(spec3, x), linear_rhs(spec3, x))

    def test_in_lattice_helper(self):
        assert in_lattice(np.zeros(2), np.ones(2))
        assert not in_lattice(np.array([1.5, 0.0]), np.ones(2))


def assert_matches_oracle(spec, x0, cfg):
    """integrate agrees with the stage-by-stage oracle: the same sample
    times and convergence flag, states and residuals within roundoff, or
    the same NumericalError message."""
    try:
        times, states, converged, residuals = rk4(spec, x0, cfg)
    except NumericalError as exc:
        with pytest.raises(NumericalError, match=f"^{re.escape(str(exc))}$"):
            integrate(spec, x0, cfg)
        return None
    traj = integrate(spec, x0, cfg)
    tol = 1e-12 * max(1.0, float(spec.capacity.max()))
    assert np.array_equal(traj.times, times)
    assert traj.converged == converged
    assert np.abs(traj.states - states).max() <= tol
    assert np.abs(traj.residuals - residuals).max() <= tol
    assert traj.final_residual == traj.residuals[-1]
    return traj


class TestAgainstStageByStageOracle:
    def test_random_networks(self):
        rng = np.random.default_rng(71)
        affine = total = 0
        for trial in range(300):
            n = int(rng.integers(1, 9))
            if trial % 2 and n > 1:
                R = random_stochastic_irreducible(rng, n)
            else:
                R = random_substochastic(rng, n, 0.05, 1.0)
            w = rng.uniform(0.5, 5.0, n)
            spec = validate(NetworkSpec(routing=R, capacity=w, demand=rng.uniform(-1.5, 1.5, n)))
            start = trial % 4
            if start == 0:
                x0 = np.zeros(n)
            elif start == 1:
                x0 = w.copy()
            elif start == 2:
                x0 = rng.random(n) * w
            else:  # on saturated faces: some cells empty, some full
                x0 = np.choose(rng.integers(0, 3, n), [np.zeros(n), w, rng.random(n) * w])
            dt = float(rng.choice([0.01, 0.05, 0.2]))
            every = int(rng.choice([1, 3, 10]))
            n_steps = int(rng.integers(20, 150))
            if every > 1 and n_steps % every == 0:
                n_steps += 1  # a shorter last interval
            cfg = IntegratorConfig(dt=dt, t_end=n_steps * dt, sample_every=every,
                                   residual_tol=float(rng.choice([1e-10, 1e-4, 1e-2])))
            traj = assert_matches_oracle(spec, x0, cfg)
            if traj is not None:
                affine += traj.affine_steps
                total += round(traj.times[-1] / dt)
        # most intervals stay in one pattern; the rest exercised the fallback
        assert 0.5 * total < affine < total

    def test_guard_violation_raises_the_oracle_message(self):
        # one leaky cell with f(x) = 0.5 - x; at dt = 20 RK4 multiplies the
        # distance to 0.5 by about 5.5e3 per step, and the second step of
        # the first interval leaves [0, 1] by more than the guard
        spec = validate(NetworkSpec(routing=np.zeros((1, 1)), capacity=np.ones(1), demand=[0.5]))
        cfg = IntegratorConfig(dt=20.0, t_end=100.0, sample_every=3)
        with pytest.raises(NumericalError, match=r"^lattice clamp 304 exceeds guard 221 at t=40$"):
            rk4(spec, np.array([0.5 + 1e-5]), cfg)
        assert_matches_oracle(spec, np.array([0.5 + 1e-5]), cfg)
        assert_matches_oracle(spec, np.zeros(1), IntegratorConfig(dt=20.0, t_end=20.0))

    def test_pattern_switch_inside_an_interval_falls_back(self, spec3):
        # from w, cell 3's pre-activation starts above its capacity and
        # drops below it within an interval, which then runs stage by stage
        cfg = IntegratorConfig(dt=0.05)
        traj = assert_matches_oracle(spec3, W3, cfg)
        assert 0 < traj.affine_steps < round(traj.times[-1] / cfg.dt)

    def test_larger_network_from_saturated_starts(self):
        # n = 30 from 0 and from w with demands that hold cells at both ends:
        # the early patterns are left within an interval, so their maps are
        # built and rejected before the final pattern's map is kept
        rng = np.random.default_rng(29)
        n = 30
        spec = validate(NetworkSpec(routing=random_substochastic(rng, n, 0.3, 0.6),
                                    capacity=rng.uniform(1.0, 5.0, n), demand=rng.uniform(-3.0, 6.0, n)))
        for x0 in (np.zeros(n), spec.capacity.copy()):
            traj = assert_matches_oracle(spec, x0, IntegratorConfig(dt=0.05, t_end=40.0))
            assert 0 < traj.affine_steps < round(traj.times[-1] / 0.05)

    def test_maps_evicted_when_the_cache_is_full(self, spec3, monkeypatch):
        # room for one map: every build after the first clears the cache
        cached = []  # maps held when a build starts
        build = dynamics._IntervalMaps._build

        def counted(self, low, high, steps):
            cached.append(len(self.maps))
            return build(self, low, high, steps)

        monkeypatch.setattr(dynamics, "_MAP_BYTES", dynamics._IntervalMaps.nbytes(3, 10))
        monkeypatch.setattr(dynamics._IntervalMaps, "_build", counted)
        cfg = IntegratorConfig(dt=0.05, t_end=60.0)
        for x0 in (W3, np.array([0.0, W3[1], 0.0])):  # two patterns each
            cached.clear()
            traj = assert_matches_oracle(spec3, x0, cfg)
            assert traj.affine_steps > 0
            assert len(cached) > 1 and not any(cached)

    def test_affine_steps_on_the_reference_network(self, spec3):
        traj = integrate(spec3, np.zeros(3))
        assert traj.converged
        assert traj.affine_steps > 0
        assert len(traj.residuals) == len(traj.times)
        for x, r in zip(traj.states, traj.residuals):
            assert abs(np.abs(net_flow(spec3, x)).sum() - r) <= 1e-15 * W3.sum()


def test_unit_scale_stops_at_the_configured_tolerance(spec3):
    # the roundoff level 1e-14 n |w|_inf = 1.8e-13 is below 1e-10 here, so
    # integration stops at the first sample under the configured tolerance
    for x0 in (np.zeros(3), W3):
        traj = integrate(spec3, x0)
        assert traj.converged
        assert traj.residuals[-1] < 1e-10 <= traj.residuals[-2]


@pytest.mark.parametrize("k", [1e6, 1e9, 1e12])
def test_scaled_reference_network_converges(k):
    # (kw, kc) has k times the trajectories of (w, c); the residual
    # tolerance is raised to the roundoff level 1e-14 n k|w|_inf, and the
    # guard floor and the lattice slack scale with k
    spec = validate(NetworkSpec(routing=R3, capacity=k * W3, demand=k * C3))
    unscaled = validate(NetworkSpec(routing=R3, capacity=W3, demand=C3))
    for x0, end in ((np.zeros(3), XMIN3), (k * W3, XMAX3)):
        traj = integrate(spec, x0)
        base = integrate(unscaled, x0 / k, IntegratorConfig(residual_tol=1e-300))
        m = min(len(traj.times), len(base.times))  # both stop near 1e-14 n |w|_inf
        assert traj.converged
        assert np.array_equal(traj.times[:m], base.times[:m])
        assert np.abs(traj.states[:m] - k * base.states[:m]).max() <= 1e-12 * k
        assert np.abs(traj.final_state - k * end).sum() < 1e-6 * k
    assert integrate(spec, k * W3 * (1 + 1e-12)).converged
    with pytest.raises(PreconditionError, match="lattice"):
        integrate(spec, k * W3 * (1 + 1e-8))
