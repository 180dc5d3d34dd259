import numpy as np
import pytest

from satflow import (
    DemandPath,
    NetworkSpec,
    PreconditionError,
    directional_limits,
    equilibrium_set,
    on_critical_manifold,
    sweep,
    validate,
)
from satflow import equilibria
from satflow.equilibria import POINT, SEGMENT

from conftest import C3, C_STAR, COND3, R3, W3, random_stochastic_irreducible, random_substochastic


class TestOnCriticalManifold:
    def test_critical_demand(self):
        assert on_critical_manifold(R3, W3, C_STAR)
        assert on_critical_manifold(R3, W3, C3)

    def test_nonzero_sum(self):
        assert not on_critical_manifold(R3, W3, np.array([0.0, -1.0, 0.0]))

    def test_zero_sum_negative_condition(self):
        assert not on_critical_manifold(R3, W3, 10 * C3)

    def test_requires_stochastic_irreducible(self):
        R = np.array([[0.0, 0.5], [0.5, 0.0]])
        with pytest.raises(PreconditionError):
            on_critical_manifold(R, np.ones(2), np.zeros(2))


class TestDemandPath:
    def test_grid_and_interpolation(self):
        path = DemandPath([0.0, -1.0, 0.0], [3.0, -1.0, 6.0], 10)
        assert len(path.grid) == 10
        assert np.allclose(path.c_at(0.5), [1.5, -1.0, 3.0])

    def test_rejects_too_few_samples(self):
        with pytest.raises(ValueError, match="samples"):
            DemandPath([0.0], [1.0], 1)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            DemandPath([0.0, 1.0], [1.0], 5)


class TestSweep:
    def test_reference_path_single_crossing(self):
        # c(a) = [a/3, -1, 2a/3] for a in [0, 9]; critical at a = 1
        path = DemandPath([0.0, -1.0, 0.0], [3.0, -1.0, 6.0], 91)
        result = sweep(R3, W3, path)
        assert len(result.rows) == 91
        assert [row.s for row in result.rows] == sorted(row.s for row in result.rows)
        assert not result.unresolved
        assert len(result.jumps) == 1
        jump = result.jumps[0]
        assert abs(9 * jump["s"] - 1.0) < 1e-6
        assert abs(jump["magnitude"] - COND3) < 1e-6
        assert len(result.critical_points) == 1
        bracket = result.critical_points[0]
        assert bracket["s_lo"] <= jump["s"] <= bracket["s_hi"]

    def test_point_rows_have_tight_min_max(self):
        path = DemandPath([0.0, -1.0, 0.0], [3.0, -1.0, 6.0], 31)
        for row in sweep(R3, W3, path).rows:
            if row.kind == POINT:
                assert np.abs(row.x_max - row.x_min).sum() < 1e-8

    def test_jump_magnitude_equals_condition_value(self):
        path = DemandPath([0.0, -1.0, 0.0], [3.0, -1.0, 6.0], 91)
        result = sweep(R3, W3, path)
        s_star = result.jumps[0]["s"]
        eq = equilibrium_set(NetworkSpec(routing=R3, capacity=W3,
                                         demand=path.c_at(s_star)))
        assert eq.kind == SEGMENT
        assert abs(result.jumps[0]["magnitude"] - eq.condition_value) < 1e-8

    def test_path_without_crossing(self):
        path = DemandPath([0.0, -1.0, 0.0], [0.0, -2.0, 0.0], 11)
        result = sweep(R3, W3, path)
        assert not result.jumps and not result.critical_points
        for row in result.rows:
            assert row.kind == POINT
            assert np.abs(row.x_max - row.x_min).sum() < 1e-8

    def test_constant_critical_path(self):
        path = DemandPath(C_STAR, C_STAR, 5)
        result = sweep(R3, W3, path)
        assert all(row.on_manifold for row in result.rows)
        assert len(result.jumps) == 1
        assert result.jumps[0]["s"] == 0.0
        assert abs(result.jumps[0]["magnitude"] - COND3) < 1e-8

    def test_no_critical_set_for_out_connected_routing(self):
        R = np.array([[0.0, 0.5], [0.5, 0.0]])
        path = DemandPath([-0.5, 0.3], [0.5, 0.3], 9)
        result = sweep(R, np.ones(2), path)
        assert not result.jumps
        assert all(not row.on_manifold for row in result.rows)

    def test_piecewise_linear_between_transitions(self):
        # the equilibrium curve has an active-set breakpoint at a = 31/15
        # (cell 3 reaches capacity); a in [2.2, 8] lies inside one linear
        # piece, so uniform sampling has vanishing second differences
        path = DemandPath([2.2 / 3, -1.0, 4.4 / 3], [8 / 3, -1.0, 16 / 3], 25)
        rows = sweep(R3, W3, path).rows
        xs = np.array([row.x_min for row in rows])
        second = xs[2:] - 2 * xs[1:-1] + xs[:-2]
        assert np.abs(second).sum(axis=1).max() < 1e-6


@pytest.mark.parametrize("t, marginal", [(1.0, False), (5.55, True)])
def test_marginal_flag_does_not_depend_on_units(t, marginal):
    # the condition value of t*C3 is 356/37 up to t = 1.55 and
    # 534/40 - 89 t/37 after, zero at t = 5.55: the flag compares it with
    # MARGINAL_TOL ||w||_1, so scaling (w, c) by k leaves it unchanged
    for k in (1e-12, 1e-9, 1.0, 1e6):
        row = sweep(R3, k * W3, DemandPath(k * t * C3, k * t * C3, 2)).rows[0]
        assert row.condition_value is not None
        assert row.marginal is marginal


class TestDirectionalLimits:
    def test_limits_bracket_segment(self):
        eq = equilibrium_set(NetworkSpec(routing=R3, capacity=W3, demand=C_STAR))
        d = np.array([1 / 3, 0.0, 2 / 3])
        lim = directional_limits(R3, W3, C_STAR, d)
        assert np.abs(lim.from_below - eq.x_min).sum() < 1e-2
        assert np.abs(lim.from_above - eq.x_max).sum() < 1e-2
        assert np.all(lim.from_below >= eq.x_min - 1e-2)
        assert np.all(lim.from_above <= eq.x_max + 1e-2)

    def test_uniform_direction_ordering(self):
        lim = directional_limits(R3, W3, C_STAR, np.ones(3))
        assert np.all(lim.from_below <= lim.from_above + 1e-10)

    def test_lower_limits_monotone_in_epsilon(self):
        # x_min(c) is nondecreasing in c, so shrinking the downward offset
        # can only raise the from-below equilibrium
        eps = tuple(1e-2 * 0.5**k for k in range(6))
        lim = directional_limits(R3, W3, C_STAR, np.ones(3), epsilons=eps)
        below = np.array([row[1] for row in lim.table])
        assert np.all(np.diff(below, axis=0) >= -1e-9)

    def test_requires_critical_demand(self):
        with pytest.raises(PreconditionError, match="critical"):
            directional_limits(R3, W3, np.array([0.0, -1.0, 0.0]), np.ones(3))

    def test_rejects_bad_direction(self):
        with pytest.raises(PreconditionError, match="direction"):
            directional_limits(R3, W3, C_STAR, np.zeros(3))
        with pytest.raises(PreconditionError, match="direction"):
            directional_limits(R3, W3, C_STAR, np.array([1.0, 0.0, -2.0]))


def _reducible_routing():
    # a leaky 2-cycle (0.9) beside a closed stochastic 2-cycle: MinMaxOnly
    R = np.zeros((4, 4))
    R[0, 1] = R[1, 0] = 0.9
    R[2, 3] = R[3, 2] = 1.0
    return R


def _random_path(rng, trial):
    """A random network and demand path: leaky, stochastic irreducible
    (some paths through an interior critical demand, some inside the
    zero-sum hyperplane from a segment out to points) or the reducible
    network."""
    kind = trial % 6
    if kind == 5:
        R = _reducible_routing()
    else:
        n = int(rng.integers(1 if kind < 2 else 2, 13))
        R = random_substochastic(rng, n, 0.05, 1.0) if kind < 2 else random_stochastic_irreducible(rng, n)
    n = R.shape[0]
    w = rng.uniform(0.5, 5.0, n)
    # c* = (I - R')x for an interior x is zero-sum with a segment through x
    x = w * rng.uniform(0.2, 0.8, n)
    c_star = x - R.T @ x
    if kind == 3:
        d = rng.random(n)
        span = rng.uniform(0.5, 4.0)
        s_star = rng.uniform(0.2, 0.8)
        c_start, c_end = c_star - s_star * span * d, c_star + (1 - s_star) * span * d
    elif kind == 4:
        c_start, c_end = 0.5 * c_star, rng.uniform(5.0, 50.0) * c_star
    else:
        c_start, c_end = rng.uniform(-1.5, 1.5, n), rng.uniform(-1.5, 1.5, n)
    return R, w, DemandPath(c_start, c_end, int(rng.integers(5, 26)))


class TestContinuation:
    """sweep and directional_limits walk each unique-equilibrium stretch of
    the path one saturation pattern at a time; every answer must match
    equilibrium_set at that demand."""

    def test_sweep_rows_match_equilibrium_set(self, monkeypatch):
        rng = np.random.default_rng(67)
        pieces, cold = [], []
        real_piece, real_point = equilibria._pattern_piece, equilibria._point

        def counted_piece(*args, **kwargs):
            out = real_piece(*args, **kwargs)
            pieces.append(len(out[0]))
            return out

        def counted_point(spec, *args, **kwargs):
            cold.append(spec.demand)
            return real_point(spec, *args, **kwargs)

        monkeypatch.setattr(equilibria, "_pattern_piece", counted_piece)
        monkeypatch.setattr(equilibria, "_point", counted_point)
        crossing = 0
        for trial in range(200):
            R, w, path = _random_path(rng, trial)
            tol = 1e-10 * max(1.0, w.max())
            del cold[:]
            result = sweep(R, w, path)
            if trial % 6 in (2, 3) and result.jumps:
                # a path that crosses the critical set runs the cold solver
                # at its first sample only: past the crossing the walk starts
                # from the segment endpoint the path leaves
                crossing += 1
                assert len(cold) <= 1
                assert all(np.array_equal(c, path.c_start) for c in cold)
            assert len(result.rows) == path.samples
            for row in result.rows:
                eq = equilibrium_set(validate(NetworkSpec(routing=R, capacity=w, demand=row.c)))
                assert row.kind == eq.kind
                assert row.on_manifold == (eq.kind == SEGMENT)
                assert row.condition_value == eq.condition_value
                assert np.abs(row.x_min - eq.x_min).sum() <= tol
                assert np.abs(row.x_max - eq.x_max).sum() <= tol
            # the same sweep with every guess refused runs equilibrium_set's path
            with monkeypatch.context() as m:
                m.setattr(equilibria, "_pattern_piece", lambda *args, **kwargs: ([], None))
                cold_sweep = sweep(R, w, path)
            assert result.jumps == cold_sweep.jumps
            assert result.critical_points == cold_sweep.critical_points
            assert result.unresolved == cold_sweep.unresolved
            for jump in result.jumps:
                eq = equilibrium_set(validate(NetworkSpec(routing=R, capacity=w, demand=path.c_at(jump["s"]))))
                assert jump["magnitude"] == np.abs(eq.x_max - eq.x_min).sum()
        assert crossing > 30
        # one pattern solve usually certifies several samples
        assert sum(pieces) > 1.5 * len(pieces) > 1000

    def test_one_piece_per_affine_stretch(self, monkeypatch):
        # a in [2.2, 8] of the reference path lies inside one affine piece
        # (see TestSweep.test_piecewise_linear_between_transitions): the
        # cold solver answers the first sample and one pattern solve the rest
        calls = []
        real_piece, real_point = equilibria._pattern_piece, equilibria._point
        monkeypatch.setattr(equilibria, "_pattern_piece", lambda *a, **k: calls.append("piece") or real_piece(*a, **k))
        monkeypatch.setattr(equilibria, "_point", lambda *a, **k: calls.append("point") or real_point(*a, **k))
        path = DemandPath([2.2 / 3, -1.0, 4.4 / 3], [8 / 3, -1.0, 16 / 3], 25)
        rows = sweep(R3, W3, path).rows
        assert calls == ["point", "piece"]
        monkeypatch.undo()
        assert all(row.kind == POINT for row in rows)
        for row in rows[1:]:
            eq = equilibrium_set(validate(NetworkSpec(routing=R3, capacity=W3, demand=row.c)))
            assert np.abs(row.x_min - eq.x_min).sum() <= 1e-10 * W3.max()

    @pytest.mark.parametrize("rising", [True, False])
    def test_reference_crossing_runs_one_cold_solve(self, monkeypatch, rising):
        # the paper's path crosses its critical demand at a = 1; past it the
        # walk starts from x_max when the total demand rises, x_min when it falls
        cold = []
        real = equilibria._point
        monkeypatch.setattr(equilibria, "_point", lambda spec, *a, **k: cold.append(spec.demand) or real(spec, *a, **k))
        ends = [[0.0, -1.0, 0.0], [3.0, -1.0, 6.0]]
        path = DemandPath(*(ends if rising else ends[::-1]), 91)
        result = sweep(R3, W3, path)
        assert len(result.jumps) == 1
        assert len(cold) == 1 and np.array_equal(cold[0], path.c_start)

    def test_sample_past_a_breakpoint_is_not_extrapolated(self):
        # two cells feeding each other half their mass, x = min(2a, 1) on
        # both: the piece of the first sample (x = 0.8, free) extrapolates to
        # 1 + 2e-12 at the second, whose residual 4e-12 alone would pass;
        # its pattern (both at w) rejects it
        R, w = np.array([[0.0, 0.5], [0.5, 0.0]]), np.ones(2)
        rows = sweep(R, w, DemandPath([0.4, 0.4], [0.5 + 1e-12, 0.5 + 1e-12], 2)).rows
        assert np.allclose(rows[0].x_min, 0.8, rtol=0, atol=1e-15)
        assert np.array_equal(rows[1].x_min, w) and np.array_equal(rows[1].x_max, w)

    def test_breakpoints_between_samples(self, monkeypatch):
        # a chain fed at its head with capacities 0.6**k: as the feed rises
        # from 0 to 2 every cell saturates between the two samples, so the
        # walk crosses all the breakpoints by restarts, not by the cold solver
        n = 6
        R = np.zeros((n, n))
        R[np.arange(n - 1), np.arange(1, n)] = 0.99
        w = 0.6 ** np.arange(n)
        c_end = np.zeros(n)
        c_end[0] = 2.0
        calls = []
        real_piece, real_point = equilibria._pattern_piece, equilibria._point
        monkeypatch.setattr(equilibria, "_pattern_piece", lambda *a, **k: calls.append("piece") or real_piece(*a, **k))
        monkeypatch.setattr(equilibria, "_point", lambda *a, **k: calls.append("point") or real_point(*a, **k))
        rows = sweep(R, w, DemandPath(np.zeros(n), c_end, 2)).rows
        assert calls[0] == "point" and calls.count("point") == 1
        assert calls.count("piece") > 1
        monkeypatch.undo()
        assert np.array_equal(rows[1].x_min, w)
        assert np.array_equal(rows[1].x_max, w)

    @pytest.mark.parametrize("seed", range(4))
    def test_directional_limits_match_equilibrium_set(self, seed):
        eps = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
        if seed == 0:
            R, w, c_star, d = R3, W3, C_STAR, np.array([1 / 3, 0.0, 2 / 3])
        else:
            rng = np.random.default_rng([71, seed])
            n = 4 * seed
            R = random_stochastic_irreducible(rng, n)
            w = rng.uniform(0.5, 5.0, n)
            x = w * rng.uniform(0.2, 0.8, n)
            c_star, d = x - R.T @ x, rng.random(n)
        lim = directional_limits(R, w, c_star, d, epsilons=eps)
        assert [row[0] for row in lim.table] == list(eps)
        tol = 1e-10 * max(1.0, w.max())
        for e, below, above in lim.table:
            for x, sign in ((below, -1.0), (above, 1.0)):
                eq = equilibrium_set(validate(NetworkSpec(routing=R, capacity=w, demand=c_star + sign * e * d)))
                assert eq.kind == POINT
                assert np.abs(x - eq.x_min).sum() <= tol

    def test_wrong_guess_falls_back(self, monkeypatch):
        # a chain fed at its head: from the guess 0 each re-read of the
        # pattern frees one more cell, more than _GUESS_ROUNDS allow
        n = 6
        R = np.zeros((n, n))
        R[np.arange(n - 1), np.arange(1, n)] = 0.99
        w = np.ones(n)
        c = np.zeros(n)
        c[0] = 2.0
        spec = validate(NetworkSpec(routing=R, capacity=w, demand=c))
        guess = np.zeros(n)
        y = R.T @ guess + c
        assert equilibria._pattern_piece(R.T, w, c, np.zeros(n), 0.0, y, np.zeros(1), stochastic=False) == ([], None)
        cold = []
        real = equilibria._point
        monkeypatch.setattr(equilibria, "_point", lambda *a, **k: cold.append(1) or real(*a, **k))
        eq, = equilibria._points_along(R, w, c, np.zeros(n), [0.0], (0.0, y), stochastic=False)
        assert cold == [1]
        assert eq.kind == POINT
        assert np.allclose(eq.x_min, 0.99 ** np.arange(n), rtol=0, atol=1e-14)
        assert np.array_equal(eq.x_min, equilibrium_set(spec).x_min)

    def test_stochastic_all_free_pattern_is_skipped(self, monkeypatch):
        # the segment's midpoint at C3 is interior, so at a demand just off
        # the hyperplane R'x + c is strictly inside (0, w): all cells free
        # and I - R' singular
        seg = equilibrium_set(validate(NetworkSpec(routing=R3, capacity=W3, demand=C3)))
        guess = 0.5 * (seg.x_min + seg.x_max)
        spec = validate(NetworkSpec(routing=R3, capacity=W3, demand=C3 + 1e-3 * np.ones(3)))
        y = R3.T @ guess + spec.demand
        assert np.all((y > 0) & (y < W3))
        solves = []
        real = np.linalg.solve
        monkeypatch.setattr(np.linalg, "solve", lambda *a, **k: solves.append(1) or real(*a, **k))
        assert equilibria._pattern_piece(R3.T, W3, spec.demand, np.zeros(3), 0.0, y, np.zeros(1),
                                         stochastic=True) == ([], None)
        assert solves == []
        monkeypatch.undo()
        eq, = equilibria._points_along(R3, W3, spec.demand, np.zeros(3), [0.0], (0.0, y), stochastic=True)
        ref = equilibrium_set(spec)
        assert eq.kind == POINT
        assert np.array_equal(eq.x_min, ref.x_min) and np.array_equal(eq.x_max, ref.x_max)
