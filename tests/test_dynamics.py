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


@pytest.fixture
def runs(monkeypatch):
    """Every run integrate takes, as (steps, stack length J, kept, rejected,
    converged): J intervals were tried, the first `kept` kept."""
    seen = []
    run = dynamics._IntervalMaps.run

    def spy(self, x, z, steps, count, tol):
        key = (steps, (z < 0.0).tobytes(), (z > self.w).tobytes())
        xs, zs, rs, rejected = run(self, x, z, steps, count, tol)
        entry = self.maps.get(key)
        J = 1 if entry is None else min(count, entry.T.shape[0] // (x.size + 1))
        seen.append((steps, J, len(rs), rejected, bool(len(rs)) and rs[-1] < tol))
        return xs, zs, rs, rejected

    monkeypatch.setattr(dynamics._IntervalMaps, "run", spy)
    return seen


def chain_spec(c_last=-10.0):
    # 0 -> 1 -> 2 -> 3, all cells empty at first: cell 2 accelerates while
    # cell 3's pre-activation 0.9 x_2 + c_last rises
    R = np.zeros((4, 4))
    R[0, 1] = R[1, 2] = R[2, 3] = 0.9
    return validate(NetworkSpec(routing=R, capacity=np.full(4, 2.0), demand=[1.0, 0.0, 0.0, c_last]))


class TestRuns:
    """Runs of sample intervals against the stage-by-stage oracle, at its
    1e-12 max(1, |w|_inf) tolerance."""

    @pytest.mark.parametrize("start", ["zero", "capacity", "faces"])
    def test_largest_affine_network(self, start):
        rng = np.random.default_rng(64)
        n = dynamics._AFFINE_MAX_N
        spec = validate(NetworkSpec(routing=random_substochastic(rng, n, 0.3, 0.6),
                                    capacity=rng.uniform(1.0, 5.0, n), demand=rng.uniform(-3.0, 6.0, n)))
        w = spec.capacity
        x0 = {"zero": np.zeros(n), "capacity": w.copy(),
              "faces": np.choose(rng.integers(0, 3, n), [np.zeros(n), w, rng.random(n) * w])}[start]
        cfg = IntegratorConfig(dt=0.05, t_end=25.0)
        traj = assert_matches_oracle(spec, x0, cfg)
        assert 0 < traj.affine_steps <= round(traj.times[-1] / cfg.dt)

    def test_run_reaches_the_shorter_last_interval(self, spec3, runs):
        # 67 steps: six intervals of 10 and a last one of 7, all in one pattern
        cfg = IntegratorConfig(dt=0.05, t_end=67 * 0.05, residual_tol=1e-300)
        traj = assert_matches_oracle(spec3, 0.5 * W3, cfg)
        assert traj.times[-1] == 67 * 0.05 and not traj.converged
        assert traj.affine_steps == 67
        assert runs[-1][:3] == (7, 1, 1)
        assert max(J for steps, J, *_ in runs if steps == 10) > 1

    @pytest.mark.parametrize("where", ["first", "middle"])
    def test_convergence_inside_a_run(self, spec2_leaky, runs, where):
        # the first run takes one interval, the second all the rest; the
        # tolerance puts convergence at the second run's first sample or
        # at its fifth
        x0 = np.array([0.1, 0.9])
        _, _, _, residuals = rk4(spec2_leaky, x0, IntegratorConfig(dt=0.05, t_end=20.0, residual_tol=1e-300))
        sample = 2 if where == "first" else 6
        assert np.all(np.diff(residuals[:sample + 1]) < 0)
        tol = float(np.sqrt(residuals[sample - 1] * residuals[sample]))
        traj = assert_matches_oracle(spec2_leaky, x0, IntegratorConfig(dt=0.05, t_end=20.0, residual_tol=tol))
        assert traj.converged and len(traj.times) == sample + 1
        assert [run[1:] for run in runs] == [(1, 1, False, False), (runs[1][1], sample - 1, False, True)]
        assert runs[1][1] > sample - 1

    def test_pattern_change_in_the_middle_of_a_run(self, runs):
        # cell 3's pre-activation crosses 0 between the last stage of the
        # fourth interval and its end, so every stage of that interval stays
        # in the pattern and the fourth sample starts a new one
        _, states, _, _ = rk4(chain_spec(), np.zeros(4), IntegratorConfig(dt=0.05, t_end=2.0, residual_tol=1e-300))
        spec = chain_spec(-0.9 * states[4, 2] + 5e-7)
        traj = assert_matches_oracle(spec, np.zeros(4), IntegratorConfig(dt=0.05, t_end=30.0))
        assert traj.affine_steps == round(traj.times[-1] / 0.05)
        ended = [(J, kept) for _, J, kept, rejected, converged in runs if not rejected and not converged and kept < J]
        assert ended == [(ended[0][0], 3)] and ended[0][0] > 3
        assert runs[2][1:3] == (1, 1)  # the new pattern's first run

    def test_eviction_counts_the_stacks(self, spec3, monkeypatch, runs):
        # room for one map with a stack of 4 powers: the stack stops at 4,
        # and every build after the first clears the cache
        monkeypatch.setattr(dynamics, "_MAP_BYTES", dynamics._IntervalMaps.nbytes(3, 10, 4))
        held = []
        run = dynamics._IntervalMaps.run

        def checked(self, *args):
            out = run(self, *args)
            held.append((self.held, sum(e.nbytes for e in self.maps.values() if e is not None), len(self.maps)))
            return out

        monkeypatch.setattr(dynamics._IntervalMaps, "run", checked)
        traj = assert_matches_oracle(spec3, W3, IntegratorConfig(dt=0.05, t_end=60.0))
        assert traj.affine_steps > 0
        assert all(h == total <= dynamics._MAP_BYTES and count <= 1 for h, total, count in held)
        assert max(J for _, J, *_ in runs) == 4

    def test_expanding_map_stack_stays_finite(self):
        # at dt = 20, one cell with f(x) = 0.5 - x has an RK4 factor of 5.5e3
        # per step; its fixed point keeps every run's pattern, so the stack
        # grows until its powers pass _POWER_MAX, without overflowing
        w, c = np.ones(1), np.array([0.5])
        maps = dynamics._IntervalMaps(np.zeros((1, 1)), c, w, 20.0, 1e-12)
        x = np.array([0.5])
        for _ in range(8):
            maps.run(x, c.copy(), 3, 1000, 0.0)
        (entry,) = maps.maps.values()
        assert entry.capped and 1 < entry.T.shape[0] // 2 < 1000
        assert np.abs(entry.T).max() <= dynamics._POWER_MAX

    def test_map_rejected_at_its_first_interval_is_dropped(self, monkeypatch):
        # from 0 with saturating demands several patterns are left within
        # their first interval; their maps go, the others stay
        rng = np.random.default_rng(29)
        n = 30
        spec = validate(NetworkSpec(routing=random_substochastic(rng, n, 0.3, 0.6),
                                    capacity=rng.uniform(1.0, 5.0, n), demand=rng.uniform(-3.0, 6.0, n)))
        record = []  # (new map, kept, rejected, map kept in the cache)
        run = dynamics._IntervalMaps.run

        def spy(self, x, z, steps, count, tol):
            key = (steps, (z < 0.0).tobytes(), (z > self.w).tobytes())
            new = key not in self.maps
            xs, zs, rs, rejected = run(self, x, z, steps, count, tol)
            record.append((new, len(rs), rejected, key in self.maps))
            return xs, zs, rs, rejected

        monkeypatch.setattr(dynamics._IntervalMaps, "run", spy)
        assert_matches_oracle(spec, np.zeros(n), IntegratorConfig(dt=0.05, t_end=40.0))
        dropped = [r for r in record if r[0] and r[1] == 0]
        assert dropped and all(r[2] and not r[3] for r in dropped)
        assert all(r[3] for r in record if r[1] > 0)

    def test_stack_states_agree_with_the_interval_map(self):
        # cell 1 sits on the fixed point of an RK4 step that multiplies
        # distances to it by 9.4, cell 2 decays: the stack's powers carry
        # roundoff that grows 9.4-fold per interval while every state stays
        # in the box, and the run stops where it passes the guard's floor
        R_t = np.array([[0.0, 0.0], [0.0, 0.9]])
        c, w, floor = np.array([0.5, 0.05]), np.ones(2), 1e-12
        maps = dynamics._IntervalMaps(R_t, c, w, 4.6, floor)
        x = np.array([0.5, 0.2])
        xs, _, _, rejected = maps.run(x, R_t @ x + c, 1, 1000, 0.0)
        assert len(xs) == 1 and not rejected
        xs, _, _, rejected = maps.run(xs[-1], R_t @ xs[-1] + c, 1, 1000, 0.0)
        (entry,) = maps.maps.values()
        assert rejected and 1 < len(xs) < entry.T.shape[0] // 3
        assert np.abs(xs[:, 0] - 0.5).max() <= 10 * floor

    def test_expanding_map_runs_stage_by_stage(self):
        # the powers of 100 steps of the map above would overflow: the
        # interval runs stage by stage and raises the oracle's guard message
        spec = validate(NetworkSpec(routing=np.zeros((1, 1)), capacity=np.ones(1), demand=[0.5]))
        cfg = IntegratorConfig(dt=20.0, t_end=2500.0, sample_every=100)
        assert assert_matches_oracle(spec, np.array([0.5 + 1e-5]), cfg) is None


def test_unit_scale_stops_at_the_configured_tolerance(spec3):
    # the roundoff level 1e-14 n |w|_inf = 1.8e-13 is below 1e-10 here, so
    # integration stops at the first sample under the configured tolerance
    for x0 in (np.zeros(3), W3):
        traj = integrate(spec3, x0)
        assert traj.converged
        assert traj.residuals[-1] < 1e-10 <= traj.residuals[-2]


@pytest.mark.parametrize("k", [1e-6, 1e-9])
def test_small_units_stop_near_the_scaled_equilibrium(k):
    # below unit scale the residual tolerance is residual_tol |w|_inf, so
    # (kw, kc) stops as near k times its limit as unit-range networks do;
    # with an absolute tolerance it stopped 9.4e-5 (k = 1e-6) and 9.3e-2
    # (k = 1e-9) away, relative to ||k x_min||_1
    spec = validate(NetworkSpec(routing=R3, capacity=k * W3, demand=k * C3))
    for x0, end in ((np.zeros(3), XMIN3), (k * W3, XMAX3)):
        traj = integrate(spec, x0)
        assert traj.converged
        assert np.abs(traj.final_state - k * end).sum() <= 1e-9 * k * end.sum()


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
