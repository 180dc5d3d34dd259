import dataclasses
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from satflow import (
    DemandPath,
    NetworkSpec,
    PreconditionError,
    ScenarioError,
    directional_limits,
    equilibrium_set,
    on_critical_manifold,
    sweep,
    validate,
)
import satflow
from satflow import cli, dynamics, equilibria, model, transitions
from satflow.equilibria import POINT, SEGMENT

from conftest import (C3, C_STAR, COND3, R3, W3, bits, random_reducible, random_stochastic_irreducible,
                      random_substochastic, reducible_demand)


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

    # a float count once constructed and failed later in np.linspace
    @pytest.mark.parametrize("samples", [5.0, 2.5, True, "5", None, 1, 0, -3], ids=repr)
    def test_rejects_samples_that_are_not_an_integer_of_at_least_2(self, samples):
        with pytest.raises(ValueError, match="samples must be an integer of at least 2"):
            DemandPath([0.0, -1.0, 0.0], [3.0, -1.0, 6.0], samples)

    def test_accepts_numpy_integer_samples(self):
        assert DemandPath([0.0], [1.0], np.int64(3)).grid.tolist() == [0.0, 0.5, 1.0]

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            DemandPath([0.0, 1.0], [1.0], 5)

    @pytest.mark.parametrize("field, value", [("samples", 1), ("c_start", [0.0, 1.0]), ("c_end", [1.0])])
    def test_fields_cannot_be_assigned(self, field, value):
        # samples = 1 assigned after the checks once gave a sweep of one row
        # with a jump at s = 0.5, off its grid
        path = DemandPath([0.1, 0.0, 0.0], [-0.1, 0.0, 0.0], 5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(path, field, value)
        assert path.samples == 5 and path.c_start.tolist() == [0.1, 0.0, 0.0]
        assert path.c_end.dtype == float and len(path.grid) == 5


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

    def test_rows_lie_in_the_lattice(self):
        # the demo sweep starts at [0, -1, 0], whose equilibrium 0 is on a
        # breakpoint; the piece's solve gives x_max = -8.3e-17 on cell 3
        # there, and a certified row is clamped onto [0, w]
        for row in sweep(R3, W3, DemandPath([0.0, -1.0, 0.0], [3.0, -1.0, 6.0], 91)).rows:
            for x in (row.x_min, row.x_max):
                assert np.all(x >= 0.0) and np.all(x <= W3)

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
        assert not result.jumps
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

    @pytest.mark.parametrize("start_critical", [True, False])
    def test_critical_end_of_a_crossing_path_is_its_s(self, start_critical):
        # the total demand's root at a zero-sum end is that end's s exactly,
        # not its rounding (1.4e-17 at the start)
        ends = [C_STAR, [3.0, -1.0, 6.0]]
        path = DemandPath(*(ends if start_critical else ends[::-1]), 11)
        result = sweep(R3, W3, path)
        end = 0 if start_critical else -1
        assert result.rows[end].kind == SEGMENT
        assert [jump["s"] for jump in result.jumps] == [0.0 if start_critical else 1.0]
        assert abs(result.jumps[0]["magnitude"] - COND3) < 1e-8
        assert not result.unresolved

    def test_in_hyperplane_edge_is_exact_and_does_not_jump(self):
        # t*C3 is critical for -4 < t < 5.55 (condition value 534/40 - 89t/37
        # past t = 1.55), so the demo's path t = 1 -> 6 leaves the critical
        # set at s = 0.91, an edge where the segment has shrunk to a point
        result = sweep(R3, W3, DemandPath(C3, 6 * C3, 91))
        assert not result.unresolved
        assert len(result.jumps) == 1
        assert abs(result.jumps[0]["s"] - 0.91) <= 1e-12
        assert result.jumps[0]["magnitude"] <= 1e-12 * W3.sum()

    def test_critical_stretch_between_two_samples(self):
        # t = -10 -> 10: both samples are points, and the stretch -4 < t < 5.55
        # (condition value 356/37 + 89t/37 below t = 0) lies between them
        result = sweep(R3, W3, DemandPath(-10 * C3, 10 * C3, 2))
        assert [row.kind for row in result.rows] == [POINT, POINT]
        assert [jump["s"] for jump in result.jumps] == pytest.approx([0.3, 0.7775], rel=0, abs=1e-12)
        assert all(jump["magnitude"] <= 1e-12 * W3.sum() for jump in result.jumps)
        assert not result.unresolved

    def test_path_critical_end_to_end_reports_its_start(self):
        # t = 0.5 -> 1 lies inside the critical stretch -4 < t < 5.55 of t*C3
        result = sweep(R3, W3, DemandPath(0.5 * C3, C3, 11))
        assert all(row.on_manifold for row in result.rows)
        assert [jump["s"] for jump in result.jumps] == [0.0]
        assert abs(result.jumps[0]["magnitude"] - COND3) < 1e-8

    def test_zero_sum_crossing_off_the_critical_set_is_not_a_critical_point(self):
        # the path crosses the hyperplane at 10*C3, condition value 534/40 - 890/37 = -10.70
        result = sweep(R3, W3, DemandPath(10 * C3 - np.ones(3), 10 * C3 + np.ones(3), 11))
        assert result.jumps == [] and result.unresolved == []

    @pytest.mark.parametrize("ends, samples, solves", [
        # the demo path crosses c* between samples: one solve finds that s*
        # is critical and sizes its jump
        (([0.0, -1.0, 0.0], [3.0, -1.0, 6.0]), 90, 1),
        # critical end to end: one solve at each end for the stretch, one
        # per sample, and none more for the jump at s = 0
        ((0.5 * C3, C3), 11, 2 + 11),
    ], ids=["crossing", "end_to_end"])
    def test_critical_point_line_is_solved_once(self, monkeypatch, ends, samples, solves):
        calls, real = [], model._pi_and_h
        monkeypatch.setattr(equilibria, "_pi_and_h", lambda R, v: calls.append(1) or real(R, v))
        result = sweep(R3, W3, DemandPath(*ends, samples))
        assert len(result.jumps) == 1
        assert len(calls) == solves

    def test_jump_fields_are_floats(self):
        result = sweep(R3, W3, DemandPath([0.0, -1.0, 0.0], [3.0, -1.0, 6.0], 91))
        assert len(result.jumps) == 1
        assert all(type(v) is float for v in result.jumps[0].values())

    def test_no_critical_set_for_out_connected_routing(self):
        R = np.array([[0.0, 0.5], [0.5, 0.0]])
        path = DemandPath([-0.5, 0.3], [0.5, 0.3], 9)
        result = sweep(R, np.ones(2), path)
        assert not result.jumps
        assert all(not row.on_manifold for row in result.rows)

    def test_reducible_class_crossing_its_critical_set_is_reported(self):
        # two closed 2-cycles, {1, 2} and {3, 4}: the demand on the first sums
        # to s - 0.4, so its x_min jumps from [0, 0.1] to [2, 2] at s = 0.4;
        # the second is zero-sum all along
        w = np.array([2.0, 2.0, 3.0, 3.0])
        result = sweep(_TWO_CYCLES, w, DemandPath([-0.5, 0.1, 0.2, -0.2], [0.5, 0.1, 0.2, -0.2], 11))
        assert result.rows[3].x_min[:2].tolist() == pytest.approx([0.0, 0.1])
        assert result.rows[5].x_min[:2].tolist() == [2.0, 2.0]
        assert result.jumps == []
        assert result.unresolved == [{"s_lo": 0.30000000000000004, "s_hi": 0.4}, {"s_lo": 0.4, "s_hi": 0.5}]

    def test_reducible_class_demand_counts_the_draining_cells(self):
        # leaky cell 1 sends half its state into the closed 2-cycle {2, 3}:
        # x_1 = s, so the class's demand sums to -0.3 + 0.5 s, zero at s = 0.6
        R = np.zeros((3, 3))
        R[0, 1] = 0.5
        R[1, 2] = R[2, 1] = 1.0
        result = sweep(R, np.full(3, 2.0), DemandPath([0.0, -0.5, 0.2], [1.0, -0.5, 0.2], 5))
        assert result.unresolved == [{"s_lo": 0.5, "s_hi": 0.75}]

    @pytest.mark.parametrize("samples", [2, 10, 100])
    @pytest.mark.parametrize("seed", ["demo", "two_cycles", 0, 1, 2])
    def test_reducible_classes_are_found_once_per_sweep(self, calls, samples, seed):
        # the closed classes of R are searched for once per routing matrix:
        # a sweep runs the searches of one equilibrium_set call, one
        # _closed_subset call per class, not one per sample, and after an
        # equilibrium_set on the same (R, w) it runs none; "demo" is two
        # closed 2-cycles fed by a leaky cell (demos/two_classes.json),
        # "two_cycles" two closed 2-cycles alone
        if seed == "demo":
            R, w, c0, c1 = _TWO_CLASSES, np.array([2.0, 1.0, 1.0, 1.0, 1.0]), [1, -0.8, 0, -1, 0], [1, 0.2, 0, -1, 0]
        elif seed == "two_cycles":
            R, w, c0, c1 = _TWO_CYCLES, np.array([2.0, 2.0, 3.0, 3.0]), [-0.5, 0.1, 0.2, -0.2], [0.5, 0.1, 0.2, -0.2]
        else:
            rng = np.random.default_rng(seed)
            R, unfed = random_reducible(rng, classes=2)
            w = rng.uniform(0.5, 5.0, R.shape[0])
            c0, c1 = (reducible_demand(rng, R, w, unfed) for _ in range(2))
        calls.watch("_closed_subset", "_reached", module=model)
        spec = validate(NetworkSpec(routing=R, capacity=w, demand=np.asarray(c0, dtype=float)))
        equilibrium_set(spec)
        once = Counter(calls.names)
        assert once["_closed_subset"] == 2
        calls.clear()
        sweep(R, w, DemandPath(c0, c1, samples))
        assert calls == []
        vars(equilibria._last).clear()
        sweep(R, w, DemandPath(c0, c1, samples))
        assert Counter(calls.names) == once
        calls.clear()
        equilibrium_set(spec)
        assert calls == []

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_refuses_a_non_finite_c_end_as_validate_does(self, bad):
        c_end = np.array([3.0, -1.0, 6.0])
        c_end[1] = bad
        with pytest.raises(ScenarioError, match=r"^demand contains non-finite entries$"):
            sweep(R3, W3, DemandPath([0.0, -1.0, 0.0], c_end, 5))

    def test_refuses_a_c_end_of_the_wrong_length_as_validate_does(self):
        with pytest.raises(ScenarioError, match=r"^demand must have length 3, got shape \(4,\)$"):
            sweep(R3, W3, DemandPath(np.zeros(4), np.ones(4), 5))
        # a path forged past DemandPath's own check of equal lengths
        path = DemandPath(C3, C3, 5)
        object.__setattr__(path, "c_end", np.ones(4))
        with pytest.raises(ScenarioError, match=r"^demand must have length 3, got shape \(4,\)$"):
            sweep(R3, W3, path)

    @pytest.mark.parametrize("inputs, seeds", [("reducible", 300), ("stochastic", 150)],
                             ids=["reducible", "stochastic"])
    def test_results_lie_in_the_lattice(self, inputs, seeds):
        # a segment's endpoints hc + alpha*pi can round past [0, w]; every
        # result is clamped onto it where equilibria builds it, the line
        # data keep their bits, and a sweep row at a zero-sum sample is
        # equilibrium_set's answer at its demand
        for seed in range(seeds):
            R, w, demands, path = (_reducible_inputs if inputs == "reducible" else _stochastic_inputs)(seed)
            eqs = [equilibrium_set(validate(NetworkSpec(routing=R, capacity=w, demand=c))) for c in demands]
            rows = sweep(R, w, path).rows
            ends = [x for eq in eqs + rows for x in (eq.x_min, eq.x_max)]
            if inputs == "stochastic":  # demands[0] is critical
                ends += [x for _, *xs in directional_limits(R, w, demands[0], np.ones(w.size)).table for x in xs]
            for x in ends:
                assert np.all((x >= 0) & (x <= w)), seed
            for eq in eqs:
                lines = list(eq._segments)
                if eq.kind == SEGMENT:
                    assert bits(eq.condition_value) == bits(eq.alpha_max - eq.alpha_min), seed
                    lines.append((np.arange(w.size), eq.pi, eq.hc, eq.alpha_min, eq.alpha_max))
                for cells, pi, hc, alpha_min, alpha_max in lines:
                    for x, alpha in ((eq.x_min, alpha_min), (eq.x_max, alpha_max)):
                        assert bits(x[cells]) == bits(np.minimum(np.maximum(hc + alpha * pi, 0.0), w[cells])), seed
            for row in rows:
                if model.is_zero_sum(row.c):
                    eq = equilibrium_set(validate(NetworkSpec(routing=R, capacity=w, demand=row.c)))
                    assert bits((row.kind, row.x_min, row.x_max, row.condition_value)) == bits(
                        (eq.kind, eq.x_min, eq.x_max, eq.condition_value)), seed

    def test_class_demand_that_cancels_to_rounding_is_zero_sum(self):
        # at s = 1/2, c_2 = -0.8 + 0.5 rounds to -0.30000000000000004, and the
        # class {2, 3} sees the demand [-5.6e-17, 0]: zero-sum against the
        # size of its terms, so the class has a segment there
        result = sweep(_TWO_CLASSES, np.array([2.0, 1.0, 1.0, 1.0, 1.0]),
                       DemandPath([1, -0.8, 0, -1, 0], [1, 0.2, 0, -1, 0], 11))
        assert result.rows[5].x_max[1:3].tolist() == pytest.approx([1.0, 1.0])

    def test_piecewise_linear_between_transitions(self):
        # the equilibrium curve has an active-set breakpoint at a = 31/15
        # (cell 3 reaches capacity); a in [2.2, 8] lies inside one linear
        # piece, so uniform sampling has vanishing second differences
        path = DemandPath([2.2 / 3, -1.0, 4.4 / 3], [8 / 3, -1.0, 16 / 3], 25)
        rows = sweep(R3, W3, path).rows
        xs = np.array([row.x_min for row in rows])
        second = xs[2:] - 2 * xs[1:-1] + xs[:-2]
        assert np.abs(second).sum(axis=1).max() < 1e-6


class TestDirectionalLimits:
    def test_limits_bracket_segment(self):
        eq = equilibrium_set(NetworkSpec(routing=R3, capacity=W3, demand=C_STAR))
        d = np.array([1 / 3, 0.0, 2 / 3])
        lim = directional_limits(R3, W3, C_STAR, d)
        assert np.abs(lim.from_below - eq.x_min).sum() < 1e-2
        assert np.abs(lim.from_above - eq.x_max).sum() < 1e-2
        assert np.all(lim.from_below >= eq.x_min - 1e-2)
        assert np.all(lim.from_above <= eq.x_max + 1e-2)

    @pytest.mark.parametrize("d", [[1 / 3, 0.0, 2 / 3], [1.0, 1.0, 1.0], [0.5, -0.2, 1.0], [0.0, 1.0, 0.0],
                                   [2.0, -1.0, 0.5]])
    def test_limits_approach_the_exact_segment_ends_linearly(self, d):
        # at C3 the segment's ends are XMAX3 = (60, 148, 200)/37, cell 2 at
        # w, and XMIN3 = (12, 0, 40)/37, cell 2 at 0, cells 1 and 3 free on
        # both; near them the equilibrium keeps that pattern, so
        # x(+eps) = XMAX3 + eps*v and x(-eps) = XMIN3 - eps*v, with v_2 = 0
        # and (I - R'_FF) v_F = d_F on F = {1, 3}, in exact rationals.  The
        # worst of 505 directions at these epsilons was 2 ulp of |w|_inf = 6
        # from the exact x and 1.5 ulp/eps between the slopes (x - XMAX3)/eps;
        # the bounds are 8 and 6
        d = np.array(d)
        q = [Fraction(v) for v in d.tolist()]
        r13, r31 = Fraction(1, 4), Fraction(3, 10)  # R3[0, 2] and R3[2, 0]
        det = 1 - r13 * r31
        v = [(q[0] + r31 * q[2]) / det, Fraction(0), (q[2] + r13 * q[0]) / det]
        x_min = [Fraction(12, 37), Fraction(0), Fraction(40, 37)]
        x_max = [Fraction(60, 37), Fraction(4), Fraction(200, 37)]
        ulp = np.spacing(W3.max())
        lim = directional_limits(R3, W3, C3, d, epsilons=(1e-3, 1e-5, 1e-7))
        slopes = {1: [], 2: []}
        for eps, below, above in lim.table:
            e = Fraction(eps)
            for side, x, ends, sign in ((1, below, x_min, -1), (2, above, x_max, 1)):
                exact = np.array([float(end + sign * e * vi) for end, vi in zip(ends, v)])
                assert np.abs(x - exact).max() <= 8 * ulp
                slopes[side].append(((x - np.array([float(end) for end in ends])) / eps, eps))
        for side in slopes:
            first = slopes[side][0][0]
            for slope, eps in slopes[side][1:]:
                assert np.abs(slope - first).max() <= 6 * ulp / eps
        # at eps = 1e-7 the limits are 1e-7 of the jump 356/37 from the ends
        assert np.abs(lim.from_above - np.array([float(e) for e in x_max])).sum() < 1e-6
        assert np.abs(lim.from_below - np.array([float(e) for e in x_min])).sum() < 1e-6

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
        # off the zero-sum hyperplane the message names sum(c*) and its tolerance
        with pytest.raises(PreconditionError, match=r"^c_star is not on the critical set: sum\(c_star\) = -1, "
                                                    r"not within its zero-sum tolerance 1e-12$"):
            directional_limits(R3, W3, np.array([0.0, -1.0, 0.0]), np.ones(3))

    def test_zero_sum_demand_off_the_critical_set_names_its_condition_value(self):
        # 10*C3 is zero-sum with condition value 534/40 - 890/37 = -10.7
        with pytest.raises(PreconditionError, match=r"^c_star is not on the critical set: its condition value -10\.7 "
                                                    r"is not positive$"):
            directional_limits(R3, W3, 10 * C3, np.ones(3))

    @pytest.mark.parametrize("c_star, solves", [(10 * C3, 1), (np.array([0.0, -1.0, 0.0]), 0)],
                             ids=["zero_sum", "off_the_hyperplane"])
    def test_refusal_solves_the_line_at_most_once(self, monkeypatch, c_star, solves):
        # the zero-sum test comes first, and the one line solve both decides
        # that c_star is not critical and names its condition value
        calls, real = [], model._pi_and_h
        monkeypatch.setattr(equilibria, "_pi_and_h", lambda R, v: calls.append(1) or real(R, v))
        with pytest.raises(PreconditionError, match="^c_star is not on the critical set: "):
            directional_limits(R3, W3, c_star, np.ones(3))
        assert len(calls) == solves

    def test_rejects_bad_direction(self):
        with pytest.raises(PreconditionError, match="direction"):
            directional_limits(R3, W3, C_STAR, np.zeros(3))
        with pytest.raises(PreconditionError, match="direction"):
            directional_limits(R3, W3, C_STAR, np.array([1.0, 0.0, -2.0]))

    # a length-1 direction would broadcast to (1, 1, 1), other shapes would
    # raise numpy's errors, and NaN or inf would end in a solver's error
    @pytest.mark.parametrize("direction", [[1.0], [1.0, 2.0], [[1.0, 0.0, 2.0]], [np.nan, 0.0, 1.0], [np.inf, 0.0, 1.0]],
                             ids=["length_1", "length_2", "shape_1x3", "nan", "inf"])
    def test_rejects_direction_that_is_not_a_finite_n_vector(self, direction):
        with pytest.raises(PreconditionError, match="finite vector of length 3"):
            directional_limits(R3, W3, C_STAR, np.array(direction))


    # NaN once ended in NumericalError ("x_min residual nan") and inf in
    # numpy's RuntimeWarning
    @pytest.mark.parametrize("epsilons", [(), (0.0,), (-1e-3,), (np.nan,), (np.inf,), (1e-2, np.nan), (1e-2, np.inf)],
                             ids=["empty", "zero", "negative", "nan", "inf", "with_nan", "with_inf"])
    def test_rejects_epsilons_that_are_not_positive_and_finite(self, epsilons):
        with pytest.raises(PreconditionError, match="epsilons must be positive and finite"):
            directional_limits(R3, W3, C_STAR, np.ones(3), epsilons=epsilons)

    def test_rejects_an_epsilon_too_small_to_leave_the_hyperplane(self):
        # eps*sum(d) = 3e-20 is below 1e-12*|c_star +/- eps*d|_1: still zero-sum
        with pytest.raises(PreconditionError, match="at eps=1e-20 is unexpectedly zero-sum"):
            directional_limits(R3, W3, C_STAR, np.ones(3), epsilons=(1e-2, 1e-20, 1e-3))


# a leaky cell sending 0.3 of its flow into each of two closed 2-cycles
_TWO_CLASSES = np.array([[0.0, 0.3, 0.0, 0.3, 0.0], [0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0, 0.0],
                         [0.0, 0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 0.0, 1.0, 0.0]])
# two closed 2-cycles, {1, 2} and {3, 4}, and no leaky cell
_TWO_CYCLES = np.array([[0.0, 1.0, 0.0, 0.0], [1.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]])


def _reducible_routing():
    # a leaky 2-cycle (0.9) beside a closed stochastic 2-cycle: MinMaxOnly
    R = np.zeros((4, 4))
    R[0, 1] = R[1, 0] = 0.9
    R[2, 3] = R[3, 2] = 1.0
    return R


# two cells feeding each other half their mass: x = min(2a, 1) on both at demand [a, a]
_R2, _W2 = np.array([[0.0, 0.5], [0.5, 0.0]]), np.ones(2)


def _reducible_inputs(seed):
    """Reducible routing, capacities, three demands and a sweep path."""
    rng = np.random.default_rng(seed)
    R, unfed = random_reducible(rng)
    w = rng.uniform(0.5, 5.0, R.shape[0])
    demands = [reducible_demand(rng, R, w, unfed) for _ in range(5)]
    return R, w, demands[:3], DemandPath(demands[3], demands[4], int(rng.integers(2, 30)))


def _stochastic_inputs(seed):
    """Stochastic irreducible routing, capacities, three demands (two
    critical, with a segment through an interior point, and one off the
    zero-sum hyperplane) and a sweep path between the critical two."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 12))
    R = random_stochastic_irreducible(rng, n)
    w = rng.uniform(0.5, 5.0, n)
    critical = [x - R.T @ x for x in (w * rng.uniform(0.2, 0.8, n) for _ in range(2))]
    return R, w, critical + [rng.uniform(-1.5, 1.5, n)], DemandPath(*critical, int(rng.integers(2, 30)))


def _longest_piece_but_its_first(ts, k):
    out = np.zeros(ts.size, dtype=bool)
    out[np.flatnonzero(k == np.argmax(np.bincount(k)))[1:]] = True
    return out


#: the samples (ts of a certificate pass, on pieces k) that a test refuses
_REFUSED = {
    "all": lambda ts, k: np.ones(ts.size, dtype=bool),
    "longest": _longest_piece_but_its_first,
    "before_crossing": lambda ts, k: ts < 1 / 3,
    "breakpoint": lambda ts, k: ts == 0.5,
}


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

    def test_sweep_rows_match_equilibrium_set(self, monkeypatch, calls):
        rng = np.random.default_rng(67)
        certified, counts = [], Counter()
        real_certify = equilibria._certify

        def counted_certify(*args, **kwargs):
            out = real_certify(*args, **kwargs)
            certified.append(int(out[0].sum()))
            return out

        monkeypatch.setattr(equilibria, "_certify", counted_certify)
        calls.watch("_pattern_piece", "_point", "_solve_free")
        crossing = 0
        for trial in range(200):
            R, w, path = _random_path(rng, trial)
            tol = 1e-10 * max(1.0, w.max())
            del calls[:]
            result = sweep(R, w, path)
            counts.update(calls.names)
            if trial % 6 in (2, 3) and result.jumps:
                # a path that crosses the critical set runs no cold solver:
                # it is walked outward from the crossing, both ways, from
                # the segment endpoints
                crossing += 1
                assert "_point" not in calls.names
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
                m.setattr(equilibria, "_pattern_piece", lambda *args, **kwargs: (None, 0, None))
                cold_sweep = sweep(R, w, path)
            assert result.jumps == cold_sweep.jumps
            assert result.unresolved == cold_sweep.unresolved
            for jump in result.jumps:
                eq = equilibrium_set(validate(NetworkSpec(routing=R, capacity=w, demand=path.c_at(jump["s"]))))
                size = np.abs(eq.x_max - eq.x_min).sum()
                if trial % 6 == 4 and 0.0 < jump["s"] < 1.0:
                    # an edge of the critical set, inside the hyperplane:
                    # the segment has shrunk to a point
                    assert jump["magnitude"] == 0.0 and size <= 1e-12 * w.sum()
                else:
                    assert jump["magnitude"] == size
        assert crossing > 30
        # one pattern solve usually certifies several samples
        assert sum(certified) > 1.5 * counts["_pattern_piece"] > 1000
        # free-cell solves and _point calls of these 200 sweeps when each
        # piece was certified as it was walked: walking first costs no more
        assert counts["_solve_free"] <= 2961
        assert counts["_point"] <= 1543

    def test_sweep_rows_lie_in_the_box(self):
        # a Segment's ends hc + alpha*pi can round past [0, w], by up to
        # 8.9e-16 on these 600 sweeps; its rows are clamped onto [0, w], as
        # walked Point rows are, and every row lies there exactly
        segments = 0
        for seed in (67, 68, 69):
            rng = np.random.default_rng(seed)
            for trial in range(200):
                R, w, path = _random_path(rng, trial)
                for row in sweep(R, w, path).rows:
                    segments += row.kind == SEGMENT
                    for x in (row.x_min, row.x_max):
                        assert np.all((0.0 <= x) & (x <= w))
        assert segments > 100

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
    def test_reference_crossing_runs_no_cold_solve(self, monkeypatch, rising):
        # the paper's path crosses its critical demand at a = 1; the walk
        # leaves it both ways, toward x_max where the total demand rises and
        # toward x_min where it falls
        cold = []
        real = equilibria._point
        monkeypatch.setattr(equilibria, "_point", lambda net, c, *a, **k: cold.append(c) or real(net, c, *a, **k))
        ends = [[0.0, -1.0, 0.0], [3.0, -1.0, 6.0]]
        path = DemandPath(*(ends if rising else ends[::-1]), 91)
        result = sweep(R3, W3, path)
        assert len(result.jumps) == 1
        assert len(cold) == 0

    # the reference path with every sample refused; the longest piece
    # refused but its first sample, as a piece whose extrapolation lost
    # accuracy would be, alone (a = 2.2 -> 8) and before a piece of another
    # pattern (a = 8 -> 1.1); the ten samples before the crossing of
    # a = 0.5 -> 2 at s* = 1/3, the last piece of the backward walk; and the
    # sample on the breakpoint a = 0.5 of the two-cell network
    @pytest.mark.parametrize("R, w, ends, samples, refuse, refused", [
        (R3, W3, ([0.0, -1.0, 0.0], [3.0, -1.0, 6.0]), 31, "all", 31),
        (R3, W3, ([2.2 / 3, -1.0, 4.4 / 3], [8 / 3, -1.0, 16 / 3]), 25, "longest", 23),
        (R3, W3, ([8 / 3, -1.0, 16 / 3], [1.1 / 3, -1.0, 2.2 / 3]), 31, "longest", 24),
        (R3, W3, ([0.5 / 3, -1.0, 1 / 3], [2 / 3, -1.0, 4 / 3]), 30, "before_crossing", 10),
        (_R2, _W2, ([0.25, 0.25], [0.75, 0.75]), 5, "breakpoint", 1),
    ], ids=["every_sample", "one_piece", "two_pieces", "before_the_crossing", "on_a_breakpoint"])
    def test_walk_that_certifies_nothing_answers_every_sample_cold(self, monkeypatch, calls, R, w, ends, samples,
                                                                    refuse, refused):
        # the walk is certified in one pass, and each sample it refuses is
        # answered by one _point, which may make and certify a piece of its
        # own: those rows are equilibrium_set's, bit for bit.  The stretch
        # before a crossing is walked in descending s, so cold answers are
        # matched by demand
        path = DemandPath(*ends, samples)
        calls.watch("_pattern_piece", "_point")
        expected = sweep(R, w, path).rows
        walked = calls.outer
        del calls[:]
        real_certify, passes, demands = equilibria._certify, [], set()

        def certify(net, c0, dc, ts, pieces, k, back=0):
            ok, X = real_certify(net, c0, dc, ts, pieces, k, back)
            if calls.depth:
                return ok, X  # a cold _point's own piece, not the walk's pass
            out = _REFUSED[refuse](ts, k)
            passes.append(ts.size)
            demands.update(c.tobytes() for c in c0 + ts[out, None] * dc)
            ok[out] = False
            return ok, X

        monkeypatch.setattr(equilibria, "_certify", certify)
        rows = sweep(R, w, path).rows
        monkeypatch.undo()
        assert len(passes) == 1 and len(demands) == refused
        assert calls.outer == walked + ["_point"] * refused
        answered = [args[1].tobytes() for args in calls.args("_point")[walked.count("_point"):]]
        assert set(answered) == demands
        tol = 1e-10 * max(1.0, w.max())
        for row, want in zip(rows, expected):
            assert np.abs(row.x_min - want.x_min).sum() <= tol
            assert np.abs(row.x_max - want.x_max).sum() <= tol
            if row.c.tobytes() in demands:
                eq = equilibrium_set(validate(NetworkSpec(routing=R, capacity=w, demand=row.c)))
                assert np.array_equal(row.x_min, eq.x_min) and np.array_equal(row.x_max, eq.x_max)

    # the paper's path c(a) = [a/3, -1, 2a/3] between a = 0.5, 9 and the
    # critical a = 1: s* midway between samples, on a sample (whose demand
    # is zero-sum up to rounding), at the start and at the end
    _A, _B = [0.5 / 3, -1.0, 1 / 3], [3.0, -1.0, 6.0]

    @pytest.mark.parametrize("rising", [True, False], ids=["rising", "falling"])
    @pytest.mark.parametrize("up, down, samples", [
        ((_A, _B), (_B, _A), 31),
        ((_A, _B), (_B, _A), 35),
        ((C_STAR, _B), (C_STAR, _A), 21),
        ((_A, C_STAR), (_B, C_STAR), 21),
    ], ids=["between_samples", "on_a_sample", "at_the_start", "at_the_end"])
    def test_crossing_is_walked_outward_without_a_cold_solve(self, monkeypatch, rising, up, down, samples):
        cold = []
        real = equilibria._point
        monkeypatch.setattr(equilibria, "_point", lambda net, c, *a, **k: cold.append(c) or real(net, c, *a, **k))
        path = DemandPath(*(up if rising else down), samples)
        result = sweep(R3, W3, path)
        monkeypatch.undo()
        assert len(result.jumps) == 1 and len(cold) == 0
        for row in result.rows:
            assert row.c.tobytes() == path.c_at(row.s).tobytes()
            eq = equilibrium_set(validate(NetworkSpec(routing=R3, capacity=W3, demand=row.c)))
            assert row.kind == eq.kind
            assert np.abs(row.x_min - eq.x_min).sum() <= 1e-10 * W3.max()
            assert np.abs(row.x_max - eq.x_max).sum() <= 1e-10 * W3.max()

    @pytest.mark.parametrize("d", [[1 / 3, 0.0, 2 / 3], [1.0, 1.0, 1.0], [0.5, -0.2, 1.0]])
    def test_directional_limits_keep_the_bits_of_one_sided_walks(self, d):
        # both sides are walked outward from c* as one line and certified in
        # one pass; the table is that of a walk along -d and one along d,
        # each from its segment endpoint and certified alone, bit for bit
        d, eps = np.array(d), (1e-1, 1e-2, 1e-4, 1e-8)
        lim = directional_limits(R3, W3, C_STAR, d, epsilons=eps)
        net = equilibria._network(R3, W3)
        line = transitions._critical_line(net, C_STAR)
        for side, sign in ((1, -1.0), (2, 1.0)):
            # every sample past the crossing at t = 0: one walk, forward from its endpoint
            lows, _ = equilibria._points(net, C_STAR, sign * d, sorted(eps), (0.0, line))
            for row, x_min in zip(lim.table, lows[::-1]):
                assert row[side].tobytes() == x_min.tobytes()

    @pytest.mark.parametrize("c_end, samples, walk", [
        (0.75, 3, ["_point", "_pattern_piece", "_pattern_piece"]),
        (0.5, 2, ["_point", "_pattern_piece"]),
    ], ids=["middle", "last"])
    def test_sample_on_a_breakpoint_is_certified_on_its_own_piece(self, calls, c_end, samples, walk):
        # two cells feeding each other half their mass, x = min(2a, 1) on
        # both, saturate at a = 0.5, a sample: R'x + c = w there lies in the
        # closed region of its own piece (both free), which certifies it
        # without the cold solver
        calls.watch("_pattern_piece", "_point")
        rows = sweep(_R2, _W2, DemandPath([0.25, 0.25], [c_end, c_end], samples)).rows
        assert calls.outer == walk  # the cold first sample's own piece is inside its _point
        assert np.array_equal(rows[0].x_min, [0.5, 0.5])
        for row in rows[1:]:
            assert np.array_equal(row.x_min, _W2) and np.array_equal(row.x_max, _W2)

    @pytest.mark.parametrize("samples", [3, 41, 91])
    def test_breakpoint_at_the_end_of_a_crossing_path_runs_no_cold_solve(self, calls, samples):
        # the falling reference path a = 2 -> 0 crosses c* at s* = 1/2 and
        # ends at [0, -1, 0], whose equilibrium 0 has R'x + c exactly 0 on
        # cells 1 and 3: a breakpoint that the walk's last piece reaches and
        # fits, so no sample needs the cold solver
        path = DemandPath([2 / 3, -1.0, 4 / 3], [0.0, -1.0, 0.0], samples)
        calls.watch("_point")
        result = sweep(R3, W3, path)
        assert len(result.jumps) == 1 and calls == []
        for row in result.rows:
            eq = equilibrium_set(validate(NetworkSpec(routing=R3, capacity=W3, demand=row.c)))
            assert row.kind == eq.kind
            assert np.abs(row.x_min - eq.x_min).sum() <= 1e-10 * W3.max()
            assert np.abs(row.x_max - eq.x_max).sum() <= 1e-10 * W3.max()

    def test_held_cell_rounded_past_its_bound_covers_the_samples(self, monkeypatch):
        # the falling reference path leaves c* at s* = 8/9 from x_min with
        # cell 2 held at 0; after the solve R'x + c puts it at 2.2e-16, just
        # past its bound, and the path brings it back at once, so the piece
        # from s* covers both samples after it instead of restarting
        pieces = []
        real = equilibria._pattern_piece
        monkeypatch.setattr(equilibria, "_pattern_piece", lambda *a: pieces.append((a[3], real(*a))) or pieces[-1][1])
        result = sweep(R3, W3, DemandPath([3.0, -1.0, 6.0], [0.0, -1.0, 0.0], 11))
        (piece, covered, _), = [out for t0, out in pieces if t0 == result.jumps[0]["s"]]
        assert (piece.hi == 0.0).tolist() == [False, True, False]  # the region of cell 2 held at 0 is y <= 0
        assert covered == 2

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
        # a chain fed at its head: the pattern of the guess 0 holds the head
        # at w and the rest at 0, and its one solve frees the next cell, so
        # the guess's own sample is not certified and is not re-read
        n = 6
        R = np.zeros((n, n))
        R[np.arange(n - 1), np.arange(1, n)] = 0.99
        w = np.ones(n)
        c = np.zeros(n)
        c[0] = 2.0
        spec = validate(NetworkSpec(routing=R, capacity=w, demand=c))
        guess = np.zeros(n)
        y = R.T @ guess + c
        solves = []
        real_solve = np.linalg.solve
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "solve", lambda *a, **k: solves.append(1) or real_solve(*a, **k))
            piece = equilibria._pattern_piece(equilibria._network(R, w), c, np.zeros(n), 0.0, y, np.zeros(1))
        assert piece == (None, 0, None)
        assert solves == [1]
        cold = []
        real = equilibria._point
        monkeypatch.setattr(equilibria, "_point", lambda *a, **k: cold.append(1) or real(*a, **k))
        walk = equilibria._walk(equilibria._network(R, w), c, np.zeros(n), [0.0], (0.0, y))
        assert cold == [1]
        assert walk.pieces == [] and walk.owner.tolist() == [-1]
        eq, = walk.out
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
        assert equilibria._pattern_piece(equilibria._network(R3, W3), spec.demand, np.zeros(3), 0.0, y,
                                         np.zeros(1)) == (None, 0, None)
        assert solves == []
        monkeypatch.undo()
        walk = equilibria._walk(equilibria._network(R3, W3), spec.demand, np.zeros(3), [0.0], (0.0, y))
        assert walk.pieces == [] and walk.owner.tolist() == [-1]  # answered cold
        eq, = walk.out
        ref = equilibrium_set(spec)
        assert eq.kind == POINT
        assert np.array_equal(eq.x_min, ref.x_min) and np.array_equal(eq.x_max, ref.x_max)


_LEAKY = np.array([[0.0, 0.5], [0.5, 0.0]])
_CLASSIFIED_CALLS = {
    "equilibrium_set": lambda: equilibrium_set(validate(NetworkSpec(routing=R3, capacity=W3, demand=C3))),
    "equilibrium_set_min_max_only": lambda: equilibrium_set(
        validate(NetworkSpec(routing=_reducible_routing(), capacity=np.ones(4), demand=np.zeros(4)))),
    "multiplicity_test": lambda: satflow.multiplicity_test(validate(NetworkSpec(routing=R3, capacity=W3, demand=C3))),
    "sweep_crossing": lambda: sweep(R3, W3, DemandPath([0.0, -1.0, 0.0], [3.0, -1.0, 6.0], 31)),
    "sweep_in_hyperplane": lambda: sweep(R3, W3, DemandPath([0.0, -1.0, 1.0], [0.0, -6.0, 6.0], 31)),
    "sweep_leaky": lambda: sweep(_LEAKY, np.ones(2), DemandPath([0.0, 0.0], [1.0, 1.0], 11)),
    "sweep_reducible": lambda: sweep(_TWO_CLASSES, np.ones(5), DemandPath([1, -0.8, 0, -1, 0], [1, 0.2, 0, -1, 0], 10)),
    "directional_limits": lambda: directional_limits(R3, W3, C_STAR, np.ones(3)),
    "on_critical_manifold": lambda: on_critical_manifold(R3, W3, C3),
    "invariant_vector": lambda: satflow.invariant_vector(R3),
    "h_operator": lambda: satflow.h_operator(R3, C3),
    "check": lambda: cli.main(["check", str(Path(__file__).resolve().parents[1] / "demos" / "three_cell.json")]),
}


#: the calls that keep no network: they classify R on every call
_CLASSIFIED_PER_CALL = {"invariant_vector", "h_operator", "check"}


@pytest.mark.parametrize("name", list(_CLASSIFIED_CALLS))
def test_routing_is_classified_once_per_call(monkeypatch, name):
    # classify_routing is wrapped wherever a satflow module holds it; the
    # entry points of equilibria and transitions keep the network they
    # classified, so the same call again classifies R no more
    real, calls = model.classify_routing, []
    wrapped = [module for module in (satflow, cli, dynamics, equilibria, model, transitions)
               if getattr(module, "classify_routing", None) is real]
    assert model in wrapped and equilibria in wrapped
    for module in wrapped:
        monkeypatch.setattr(module, "classify_routing", lambda R: calls.append(1) or real(R))
    _CLASSIFIED_CALLS[name]()
    assert len(calls) == 1
    _CLASSIFIED_CALLS[name]()
    assert len(calls) == (2 if name in _CLASSIFIED_PER_CALL else 1)
