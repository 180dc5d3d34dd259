import re
import threading

import numpy as np
import pytest

from satflow import (
    DemandPath,
    IntegratorConfig,
    NetworkSpec,
    NumericalError,
    PreconditionError,
    directional_limits,
    equilibrium_set,
    integrate,
    multiplicity_test,
    on_critical_manifold,
    sweep,
    validate,
)
from satflow import equilibria
from satflow.equilibria import MINMAX_ONLY, POINT, SEGMENT, EquilibriumSet, picard_max, picard_min

from conftest import (
    C3,
    C_STAR,
    COND3,
    PI3,
    R3,
    W3,
    XMAX3,
    XMIN3,
    bits,
    random_reducible,
    random_spec,
    random_substochastic,
)
from oracles import pattern_leave, pattern_outside

TWO_CYCLES = np.array([
    [0, 1, 0, 0],
    [1, 0, 0, 0],
    [0, 0, 0, 1],
    [0, 0, 1, 0],
], dtype=float)


def residual(spec, x):
    return np.abs(np.clip(spec.routing.T @ x + spec.demand, 0, spec.capacity) - x).sum()


class TestPicard:
    def test_min_is_zero_without_demand(self):
        spec = validate(NetworkSpec(routing=R3, capacity=W3, demand=np.zeros(3)))
        res = picard_min(spec)
        assert res.converged
        assert np.array_equal(res.x, np.zeros(3))

    def test_min_reference_network(self, spec3):
        res = picard_min(spec3)
        assert res.converged
        assert np.abs(res.x - XMIN3).sum() < 1e-10

    def test_max_reference_network(self, spec3):
        res = picard_max(spec3)
        assert res.converged
        assert np.abs(res.x - XMAX3).sum() < 1e-10

    def test_max_zero_demand_hits_capacity_ray(self):
        # with c = 0 the maximal equilibrium is the largest multiple of pi
        # fitting in the box: (min_i w_i/pi_i) * pi = (356/37) * pi
        spec = validate(NetworkSpec(routing=R3, capacity=W3, demand=np.zeros(3)))
        res = picard_max(spec)
        assert np.abs(res.x - (356 / 37) * PI3).sum() < 1e-9

    def test_interior_fixed_point(self, spec2_leaky):
        lo = picard_min(spec2_leaky)
        hi = picard_max(spec2_leaky)
        assert np.abs(lo.x - [0.6, 0.6]).max() < 1e-11
        assert np.abs(hi.x - lo.x).sum() < 1e-10

    def test_limits_are_fixed_points(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            spec = random_spec(rng, int(rng.integers(2, 7)), stochastic=bool(rng.integers(2)))
            assert residual(spec, picard_min(spec).x) < 1e-10
            assert residual(spec, picard_max(spec).x) < 1e-10


class TestMultiplicity:
    def test_reference_network(self, spec3):
        value, multiple = multiplicity_test(spec3)
        assert multiple
        assert abs(value - COND3) < 1e-10

    def test_nonzero_sum_demand(self):
        spec = validate(NetworkSpec(routing=R3, capacity=W3, demand=[0.0, -1.0, 0.0]))
        value, multiple = multiplicity_test(spec)
        assert value is None and not multiple

    def test_scaled_demand_negative_condition(self):
        spec = validate(NetworkSpec(routing=R3, capacity=W3, demand=10 * C3))
        value, multiple = multiplicity_test(spec)
        # min_i 10*(Hc)_i/pi_i = -520/37, min_i (w_i - 10*(Hc)_i)/pi_i = 134/40
        assert not multiple
        assert abs(value - (-520 / 37 + 134 / 40)) < 1e-9

    def test_requires_stochastic_irreducible(self, spec2_leaky):
        with pytest.raises(PreconditionError):
            multiplicity_test(spec2_leaky)


class TestEquilibriumSet:
    def test_reference_segment(self, spec3):
        eq = equilibrium_set(spec3)
        assert eq.kind == SEGMENT
        assert np.abs(eq.x_min - XMIN3).sum() < 1e-8
        assert np.abs(eq.x_max - XMAX3).sum() < 1e-8
        assert abs(eq.alpha_min - 52 / 37) < 1e-10
        assert abs(eq.alpha_max - 408 / 37) < 1e-10
        assert abs(eq.condition_value - COND3) < 1e-10
        # l1 length of the segment equals the condition value (pi sums to 1)
        assert abs(np.abs(eq.x_max - eq.x_min).sum() - eq.condition_value) < 1e-8

    def test_segment_endpoints_on_boundary(self, spec3):
        eq = equilibrium_set(spec3)
        for x in (eq.x_min, eq.x_max):
            assert np.any(np.abs(x) <= 1e-9) or np.any(np.abs(x - W3) <= 1e-9)

    def test_zero_demand_segment_from_origin(self):
        spec = validate(NetworkSpec(routing=R3, capacity=W3, demand=np.zeros(3)))
        eq = equilibrium_set(spec)
        assert eq.kind == SEGMENT
        assert eq.alpha_min == 0.0
        assert np.abs(eq.x_min).max() < 1e-12
        assert np.abs(eq.x_max - (356 / 37) * PI3).max() < 1e-10

    def test_out_connected_point(self, spec2_leaky):
        eq = equilibrium_set(spec2_leaky)
        assert eq.kind == POINT
        assert np.abs(eq.x_min - [0.6, 0.6]).max() < 1e-10

    def test_stochastic_nonzero_sum_point(self):
        spec = validate(NetworkSpec(routing=R3, capacity=W3, demand=[0.0, -1.0, 0.0]))
        eq = equilibrium_set(spec)
        assert eq.kind == POINT
        assert np.abs(eq.x_max - eq.x_min).sum() < 1e-8

    def test_reducible_min_max_only(self):
        spec = validate(NetworkSpec(routing=TWO_CYCLES, capacity=np.ones(4),
                                    demand=np.zeros(4)))
        eq = equilibrium_set(spec)
        assert eq.kind == MINMAX_ONLY
        assert np.all(eq.x_min <= eq.x_max + 1e-12)

    def test_reducible_routing_runs_no_picard_iteration(self, monkeypatch):
        # leaky, stranded and stochastic cells beside one or two closed classes
        def refuse(*args, **kwargs):
            raise AssertionError("Picard iteration on a library path")

        monkeypatch.setattr(equilibria, "picard_min", refuse)
        monkeypatch.setattr(equilibria, "picard_max", refuse)
        rng = np.random.default_rng(79)
        for classes in (1, 2, 1, 2):
            R, _ = random_reducible(rng, classes)
            eq = equilibrium_set(validate(NetworkSpec(routing=R, capacity=np.ones(len(R)), demand=np.zeros(len(R)))))
            assert eq.kind == MINMAX_ONLY

    def test_segment_strictly_increasing(self, spec3):
        eq = equilibrium_set(spec3)
        assert np.all(eq.x_max - eq.x_min > 1e-10)

    def test_segment_midpoint_solves_linear_equation(self, spec3):
        eq = equilibrium_set(spec3)
        z = 0.5 * (eq.x_min + eq.x_max)
        assert np.abs(z - (R3.T @ z + C3)).max() < 1e-8

    def test_returned_points_are_equilibria(self, spec3):
        eq = equilibrium_set(spec3)
        assert residual(spec3, eq.x_min) < 1e-10
        assert residual(spec3, eq.x_max) < 1e-10

    def test_distance_l1(self, spec3):
        eq = equilibrium_set(spec3)
        mid = 0.5 * (eq.x_min + eq.x_max)
        assert eq.distance_l1(mid) < 1e-9
        assert abs(eq.distance_l1(eq.x_min + np.array([0.0, -0.0, 0.0]))) < 1e-9
        off = mid + np.array([0.5, 0.0, 0.0])
        assert 0.4 < eq.distance_l1(off) <= 0.5 + 1e-9

    def test_distance_l1_rejects_a_state_of_another_shape(self, spec3):
        # [0.0] would broadcast against the segment and give 1.405
        eq = equilibrium_set(spec3)
        for x in ([0.0], np.zeros(4), np.zeros((1, 3))):
            with pytest.raises(PreconditionError, match="shape"):
                eq.distance_l1(x)

    def test_distance_l1_on_min_max_only(self):
        # a leaky 2-cycle (0.9) beside a closed stochastic 2-cycle
        R = np.zeros((4, 4))
        R[0, 1] = R[1, 0] = 0.9
        R[2, 3] = R[3, 2] = 1.0
        w = np.array([2.0, 3.0, 4.0, 5.0])
        # positive total demand on the closed cycle: x_min and x_max agree,
        # and the set is measured as that point
        eq = equilibrium_set(validate(NetworkSpec(routing=R, capacity=w, demand=np.array([0.1, 0.05, -0.2, 0.3]))))
        assert eq.kind == MINMAX_ONLY
        assert eq.distance_l1(eq.x_min) == 0.0
        assert eq.distance_l1(eq.x_max) < 1e-9
        # zero total demand on it: x_min and x_max are 8 apart, and the set
        # is the draining cells' point times the closed cycle's segment, the
        # segment from x_min to x_max; the distance to it is exact
        eq = equilibrium_set(validate(NetworkSpec(routing=R, capacity=w, demand=np.array([0.1, 0.05, -0.5, 0.5]))))
        assert eq.kind == MINMAX_ONLY and eq.unknown_between
        assert abs(np.abs(eq.x_max - eq.x_min).sum() - 8.0) < 1e-9
        assert eq.distance_l1(eq.x_min) == 0.0
        assert eq.distance_l1(eq.x_max) == 0.0
        grid = eq.x_min + np.linspace(0.0, 1.0, 20001)[:, None] * (eq.x_max - eq.x_min)
        step = 8.0 / 20000
        rng = np.random.default_rng(53)
        for x in [0.5 * (eq.x_min + eq.x_max), np.zeros(4), w] + [rng.random(4) * w for _ in range(20)]:
            dense = np.abs(x - grid).sum(axis=1).min()
            # 1-Lipschitz along the grid, which moves 8 in l1 over [0, 1]
            assert dense - 0.5 * step - 1e-12 <= eq.distance_l1(x) <= dense + 1e-12

    def test_distance_l1_on_two_closed_segments(self):
        # two copies of the reference network as two closed classes, both at
        # C3: the set is the product of two segments, so the state with the
        # first class at its x_min and the second at its x_max is in it,
        # though it is not between x_min and x_max on one line
        R = np.zeros((6, 6))
        R[:3, :3] = R[3:, 3:] = R3
        w = np.r_[W3, W3]
        eq = equilibrium_set(validate(NetworkSpec(routing=R, capacity=w, demand=np.r_[C3, C3])))
        assert eq.kind == MINMAX_ONLY and eq.unknown_between
        mixed = np.r_[eq.x_min[:3], eq.x_max[3:]]
        for x in (eq.x_min, eq.x_max, mixed):
            assert eq.distance_l1(x) <= 1e-12 * w.sum()
        s = np.linspace(0.0, 1.0, 4001)[:, None]
        segment = XMIN3 + s * (XMAX3 - XMIN3)  # each class's own segment
        step = np.abs(XMAX3 - XMIN3).sum() / 4000
        rng = np.random.default_rng(59)
        for x in [np.zeros(6), w] + [rng.random(6) * w for _ in range(20)]:
            dense = sum(np.abs(part - segment).sum(axis=1).min() for part in (x[:3], x[3:]))
            assert dense - step - 1e-12 <= eq.distance_l1(x) <= dense + 1e-12

    def test_distance_l1_on_min_max_only_with_large_capacities(self):
        # a 0.99 leaky 2-cycle fed at one cell beside a drained closed
        # 2-cycle, all w = 1e6: a single equilibrium of size 0.05; the
        # draining cells have one state and the drained class is 0 from
        # both ends, so the ends agree exactly and it is measured as a point
        R = np.zeros((4, 4))
        R[0, 1] = R[1, 0] = 0.99
        R[2, 3] = R[3, 2] = 1.0
        w = np.full(4, 1e6)
        eq = equilibrium_set(validate(NetworkSpec(routing=R, capacity=w, demand=np.array([1e-3, 0.0, -1e5, 0.0]))))
        assert eq.kind == MINMAX_ONLY
        gap = np.abs(eq.x_max - eq.x_min).sum()
        assert gap == 0.0
        assert eq.distance_l1(eq.x_min) == 0.0
        assert eq.distance_l1(eq.x_max) == gap

    def test_distance_l1_matches_dense_grid(self):
        rng = np.random.default_rng(47)
        for _ in range(40):
            n = int(rng.integers(1, 7))
            pi = rng.random(n) + 0.05
            pi /= pi.sum()
            hc = rng.standard_normal(n)
            alpha_min = float(rng.uniform(-3, 1))
            alpha_max = alpha_min + float(rng.uniform(0.1, 4))
            eq = EquilibriumSet(kind=SEGMENT, x_min=hc + alpha_min * pi, x_max=hc + alpha_max * pi,
                                hc=hc, pi=pi, alpha_min=alpha_min, alpha_max=alpha_max)
            grid = np.linspace(alpha_min, alpha_max, 20001)
            step = grid[1] - grid[0]
            for x in (hc + rng.uniform(-6, 6) * pi + rng.standard_normal(n), rng.uniform(-5, 5, n)):
                dense = np.abs(x[None, :] - (hc[None, :] + grid[:, None] * pi[None, :])).sum(axis=1).min()
                exact = eq.distance_l1(x)
                # the distance is 1-Lipschitz in a (pi sums to 1), so the grid is within half a step
                assert dense - 0.5 * step - 1e-12 <= exact <= dense + 1e-12

    def test_segment_endpoint_off_the_boundary_names_its_distance_and_bound(self):
        # alpha_min 1e-3 above its root puts x_min's cell 2, at 0 on the
        # segment, pi_2 * 1e-3 = 37/89e3 inside the lattice
        net = equilibria._network(R3, 2 * W3)
        pi, hc, alpha_min, alpha_max = equilibria._line(net, C3)
        with pytest.raises(NumericalError, match="segment endpoint x_min") as info:
            equilibria._segment(net, pi, hc, alpha_min + 1e-3, alpha_max)
        gap, bound = re.search(r"x_min (\S+) off the lattice boundary, not within (\S+)$", str(info.value)).groups()
        assert float(gap) == pytest.approx(37 / 89e3, rel=1e-3)
        assert float(bound) == pytest.approx(equilibria.BOUNDARY_TOL * 12.0, rel=1e-3)

    def test_point_disagreement_names_its_gap_and_bound(self, monkeypatch):
        # x_max moved up by 1e-3 per cell on two cells with capacities 10,
        # with no pattern piece to answer before both ends are certified
        real = equilibria._end
        monkeypatch.setattr(equilibria, "_pattern_piece", lambda *args: (None, 0, None))
        monkeypatch.setattr(equilibria, "_end",
                            lambda net, c, side, *args: real(net, c, side, *args) + (1e-3 if side == 1 else 0.0))
        spec = validate(NetworkSpec(routing=np.array([[0.0, 0.5], [0.5, 0.0]]), capacity=np.array([10.0, 10.0]),
                                    demand=np.array([0.3, 0.3])))
        with pytest.raises(NumericalError, match="unique equilibrium: x_min and x_max disagree by") as info:
            equilibrium_set(spec)
        gap, bound = re.search(r"disagree by (\S+), not within (\S+)$", str(info.value)).groups()
        assert float(gap) == pytest.approx(2e-3, rel=1e-3)
        assert float(bound) == pytest.approx(equilibria.POINT_AGREEMENT_TOL * 10.0, rel=1e-3)

    @pytest.mark.parametrize("k", [1e-6, 1e6, 1e9, 1e12])
    def test_scaled_reference_network(self, spec3, k):
        # (kw, kc) has k times the equilibria of (w, c)
        base = equilibrium_set(spec3)
        eq = equilibrium_set(validate(NetworkSpec(routing=R3, capacity=k * W3, demand=k * C3)))
        assert eq.kind == SEGMENT
        assert np.abs(eq.x_min - k * base.x_min).max() <= 1e-12 * k
        assert np.abs(eq.x_max - k * base.x_max).max() <= 1e-12 * k
        assert abs(eq.condition_value - k * base.condition_value) <= 1e-12 * k


class TestPointFromBothEnds:
    """A unique equilibrium from the Picard iterations from 0 and from w in
    lockstep: one pattern solve once both show the same saturation pattern,
    the climb of the side still moving after n steps where they never do."""

    def test_tie_that_never_agrees_keeps_its_bits(self, calls):
        # x* = (0, 0.5) has R'x* + c = 0 exactly on cell 1: the lower
        # iterate has it at 0 (in Z), the upper one above 0 (free), so no
        # pattern piece is built and the upper side climbs
        spec = validate(NetworkSpec(routing=np.array([[0.0, 0.5], [0.5, 0.0]]), capacity=np.ones(2),
                                    demand=np.array([-0.25, 0.5])))
        calls.watch("_pattern_piece", "_climb")
        eq = equilibrium_set(spec)
        assert calls.names == ["_climb"]
        assert eq.kind == POINT
        assert eq.x_min.tolist() == [0.0, 0.5] and eq.x_max.tolist() == [0.0, 0.5]

    def test_near_critical_point_climbs_with_its_bits(self, calls):
        # 1e-6 past the reference critical demand neither side converges in
        # n = 3 steps nor do their patterns agree: both climb, to these bits
        spec = validate(NetworkSpec(routing=R3, capacity=W3, demand=C_STAR + 1e-6 * np.array([1 / 3, 0.0, 2 / 3])))
        calls.watch("_pattern_piece", "_climb")
        eq = equilibrium_set(spec)
        assert calls.names == ["_climb", "_climb"]
        assert [v.hex() for v in eq.x_min.tolist()] == ["0x1.dfb63c697ea1dp+0", "0x1.0000000000000p+2",
                                                         "0x1.48a6113d1684ep+2"]
        assert [v.hex() for v in eq.x_max.tolist()] == ["0x1.dfb63c697ea1cp+0", "0x1.0000000000000p+2",
                                                         "0x1.48a6113d1684ep+2"]

    def test_generic_point_is_one_pattern_solve(self, calls):
        # a leaky network at n = 50: the patterns agree long before either
        # side converges, one free-cell solve answers, nothing climbs, and
        # every product with R (the steps, the piece and its certificate)
        # takes fewer than n passes over it
        n = 50
        spec = random_spec(np.random.default_rng(50), n)
        products = []

        class Counted(np.ndarray):
            def __array_ufunc__(self, ufunc, method, *inputs, out=None, **kwargs):
                if ufunc is np.matmul:
                    products.append(1)
                if out is not None:
                    kwargs["out"] = tuple(x.view(np.ndarray) for x in out)
                return getattr(ufunc, method)(*(x.view(np.ndarray) if isinstance(x, Counted) else x
                                                for x in inputs), **kwargs)

        net = equilibria._network(spec.routing.view(Counted), spec.capacity)
        calls.watch("_solve_free", "_climb")
        eq = equilibria._point(net, spec.demand)
        assert calls.names == ["_solve_free"]
        assert 0 < len(products) < n, len(products)
        ref = equilibrium_set(spec)
        assert bits(eq) == bits(ref)


_PAST = {0.0: np.nextafter(0.0, -1.0), 3.0: np.nextafter(3.0, 4.0)}  # one ulp outside [0, 3]


# y = R'x + c on one cell with w = 3, in the pattern that frees it or
# holds it at 0 or at w: a bound is inside its closed region
@pytest.mark.parametrize("y, held, outside", [
    (0.0, None, False), (0.0, "zero", False), (3.0, None, False), (3.0, "cap", False),
    (_PAST[0.0], None, True), (_PAST[3.0], None, True),
    (np.nextafter(0.0, 1.0), "zero", True), (np.nextafter(3.0, 0.0), "cap", True),
    (_PAST[0.0], "zero", False), (_PAST[3.0], "cap", False),
])
def test_closed_region_of_a_pattern(y, held, outside):
    zero, cap = np.array([held == "zero"]), np.array([held == "cap"])
    lo, hi = equilibria._region(zero, cap, np.array([3.0]))
    assert equilibria._outside(np.array([y]), lo, hi).tolist() == [outside]
    # rows of y take rows of the region: 1.5 is outside a cell held at 0
    held_lo, held_hi = equilibria._region(np.array([True]), np.array([False]), np.array([3.0]))
    rows = equilibria._outside(np.array([[y], [1.5]]), np.array([lo, held_lo]), np.array([hi, held_hi]))
    assert rows.tolist() == [[outside], [True]]


def _pattern_cases(case, rng, n=7):
    """(y, slope, zero, cap, w) of a random pattern on n cells, with the
    feature that names the case: random draws; y exactly 0 or w; slope
    exactly 0 (either sign of zero); y outside its region; every cell held
    at 0 or w; every cell free."""
    w = rng.uniform(0.5, 5.0, n)
    pattern = rng.integers(1, 3, n) if case == "all_held" else np.zeros(n, int) if case == "all_free" else (
        rng.integers(0, 3, n))
    zero, cap = pattern == 1, pattern == 2
    y, slope = w * rng.uniform(-1.5, 2.5, n), rng.normal(size=n)
    if case == "on_bounds":
        y = np.where(rng.random(n) < 0.5, rng.choice([0.0, -0.0], n), w)
    elif case == "flat":
        slope[rng.random(n) < 0.5] = rng.choice([0.0, -0.0])
    elif case == "outside":
        # above 0 held at 0, below w held at w, off [0, w] free
        off = np.where(rng.random(n) < 0.5, -rng.uniform(0.01, 1.0, n) * w, w + rng.uniform(0.01, 1.0, n) * w)
        y = np.where(zero, rng.uniform(0.01, 2.0, n) * w, np.where(cap, rng.uniform(-1.0, 0.99, n) * w, off))
    return y, slope, zero, cap, w


@pytest.mark.parametrize("case", ["random", "on_bounds", "flat", "outside", "all_held", "all_free"])
def test_region_bounds_match_the_pattern_masks(case):
    # the walk's ratio test and region check, on the bounds lo <= y <= hi of
    # the pattern, give the bits of the same tests stated on its masks
    rng = np.random.default_rng(list(map(ord, case)))
    for _ in range(200):
        y, slope, zero, cap, w = _pattern_cases(case, rng)
        lo, hi = equilibria._region(zero, cap, w)
        assert equilibria._leave(y, slope, lo, hi).tobytes() == pattern_leave(y, slope, zero, cap, w).tobytes()
        assert np.array_equal(equilibria._outside(y, lo, hi), pattern_outside(y, zero, cap, w))
        if case == "outside":
            assert equilibria._outside(y, lo, hi).all()


def _kept_results(R, w, cold=False):
    """The result of each entry point that keeps its network, on copies of
    R and w (so the key is their bits, not the objects); cold empties the
    kept network before each call."""
    calls = (
        lambda R, w: equilibrium_set(validate(NetworkSpec(routing=R, capacity=w, demand=C3))),
        lambda R, w: multiplicity_test(validate(NetworkSpec(routing=R, capacity=w, demand=C3))),
        lambda R, w: sweep(R, w, DemandPath([0.0, -1.0, 0.0], [3.0, -1.0, 6.0], 31)),
        lambda R, w: directional_limits(R, w, C_STAR, np.ones(3)),
        lambda R, w: on_critical_manifold(R, w, C3),
    )
    results = []
    for call in calls:
        if cold:
            vars(equilibria._last).clear()
        results.append(call(R.copy(), w.copy()))
    return results


class TestKeptNetwork:
    """The classified network each thread keeps (equilibria._network); the
    slot is emptied before every test (conftest)."""

    def test_calls_on_one_network_classify_it_once(self, calls):
        calls.watch("classify_routing")
        warm = _kept_results(R3, W3)
        assert calls.names == ["classify_routing"]
        assert bits(warm) == bits(_kept_results(R3, W3, cold=True))

    @pytest.mark.parametrize("change", ["other_R", "other_w", "R_in_place"])
    def test_each_change_of_the_network_classifies_it_once(self, calls, change):
        R, w = R3.copy(), W3.copy()
        calls.watch("classify_routing")
        equilibrium_set(validate(NetworkSpec(routing=R, capacity=w, demand=C3)))
        if change == "other_R":
            R = R3.copy()
            R[0] = [0.0, 0.25, 0.75]
        elif change == "other_w":
            w = 2.0 * W3
        else:
            R[0] = [0.0, 0.25, 0.75]  # the same array, its first row changed
        spec = validate(NetworkSpec(routing=R, capacity=w, demand=C3))
        warm = [equilibrium_set(spec), equilibrium_set(spec)]
        assert len(calls) == 2
        vars(equilibria._last).clear()
        assert bits(warm) == bits([equilibrium_set(spec)] * 2)

    def test_the_layout_of_R_is_part_of_the_key(self, calls):
        # the same values in Fortran order: a product's rounding may differ
        calls.watch("classify_routing")
        spec = validate(NetworkSpec(routing=R3, capacity=W3, demand=C3 + 0.1))
        fortran = validate(NetworkSpec(routing=np.asfortranarray(R3), capacity=W3, demand=C3 + 0.1))
        warm = [equilibrium_set(spec), equilibrium_set(fortran), equilibrium_set(fortran)]
        assert len(calls) == 2
        vars(equilibria._last).clear()
        assert bits(warm[1:]) == bits([equilibrium_set(fortran)] * 2)

    def test_threads_do_not_see_each_other_s_network(self, calls):
        calls.watch("classify_routing")
        equilibrium_set(validate(NetworkSpec(routing=R3, capacity=W3, demand=C3)))
        seen = []

        def other():
            seen.append(getattr(equilibria._last, "net", None))
            equilibrium_set(validate(NetworkSpec(routing=R3, capacity=W3, demand=C3)))
            equilibrium_set(validate(NetworkSpec(routing=TWO_CYCLES, capacity=np.ones(4), demand=np.zeros(4))))

        thread = threading.Thread(target=other)
        thread.start()
        thread.join()
        assert seen == [None] and len(calls) == 3
        # the other thread's last network, TWO_CYCLES, did not take this thread's place
        equilibrium_set(validate(NetworkSpec(routing=R3, capacity=W3, demand=C3)))
        assert len(calls) == 3

    @pytest.mark.parametrize("spare", [0, -1])
    def test_a_network_over_the_budget_is_not_kept(self, calls, monkeypatch, spare):
        # the copy of R and the parts of reducible R may take twice R's bytes
        kept = _kept_results(R3, W3)
        vars(equilibria._last).clear()
        monkeypatch.setattr(equilibria, "_KEPT_BYTES", 2 * R3.nbytes + spare)
        calls.watch("classify_routing")
        assert bits(_kept_results(R3, W3)) == bits(kept)
        assert len(calls) == (1 if spare == 0 else 5)
        assert (getattr(equilibria._last, "net", None) is None) == (spare < 0)

    def test_the_limits_at_a_sweep_s_jump_take_its_line_data(self, calls):
        # the paper's path c(a) = [a/3, -1, 2a/3]: its jump at s = 1/3 falls between samples
        path = DemandPath([0.0, -1.0, 0.0], [3.0, -1.0, 6.0], 41)
        calls.watch("_pi_and_h")
        result = sweep(R3, W3, path)
        c_star = path.c_at(result.jumps[0]["s"])
        warm = directional_limits(R3, W3, c_star, np.ones(3))
        assert len(calls) == 1
        vars(equilibria._last).clear()
        assert bits(warm) == bits(directional_limits(R3, W3, c_star, np.ones(3)))
        assert len(calls) == 2

    def test_a_result_changed_in_place_does_not_change_a_later_call(self, calls):
        spec = validate(NetworkSpec(routing=R3, capacity=W3, demand=C3))
        calls.watch("_pi_and_h")
        first = equilibrium_set(spec)
        cold = bits(first)
        for eq in (first, equilibrium_set(spec)):
            for x in (eq.pi, eq.hc, eq.x_min, eq.x_max):
                x[:] = -1.0
            assert bits(equilibrium_set(spec)) == cold
        assert multiplicity_test(spec) == (first.condition_value, True)
        assert len(calls) == 1  # the line data of C3, kept with the network

    @pytest.mark.parametrize("op", ["multiplicity_test", "directional_limits", "on_critical_manifold"])
    @pytest.mark.parametrize("R", [np.array([[0.0, 0.5], [0.5, 0.0]]), TWO_CYCLES], ids=["leaky", "reducible"])
    def test_refusals_come_from_the_kept_class(self, calls, op, R):
        n = R.shape[0]
        spec = validate(NetworkSpec(routing=R, capacity=np.ones(n), demand=np.zeros(n)))
        call = {"multiplicity_test": lambda: multiplicity_test(spec),
                "directional_limits": lambda: directional_limits(R, np.ones(n), np.zeros(n), np.ones(n)),
                "on_critical_manifold": lambda: on_critical_manifold(R, np.ones(n), np.zeros(n))}[op]
        equilibrium_set(spec)
        calls.watch("classify_routing")
        with pytest.raises(PreconditionError) as warm:
            call()
        assert calls == []
        vars(equilibria._last).clear()
        with pytest.raises(PreconditionError) as cold:
            call()
        assert calls.names == ["classify_routing"]
        assert str(warm.value) == str(cold.value)
        tag = "SubStochasticOutConnected" if n == 2 else "Other"
        assert str(warm.value).startswith(f"{op} requires a stochastic irreducible routing matrix ({tag}: ")


class TestProperties:
    def test_picard_matches_ode_limits(self):
        rng = np.random.default_rng(37)
        cfg = IntegratorConfig(dt=0.02, t_end=500.0)
        for _ in range(20):  # the 100-spec version runs in the acceptance suite
            spec = random_spec(rng, int(rng.integers(2, 7)))
            lo = picard_min(spec).x
            hi = picard_max(spec).x
            assert np.abs(integrate(spec, np.zeros(spec.n), cfg).final_state - lo).sum() < 1e-6
            assert np.abs(integrate(spec, spec.capacity, cfg).final_state - hi).sum() < 1e-6

    def test_monotone_demand_dependence(self):
        rng = np.random.default_rng(41)
        for _ in range(40):
            n = int(rng.integers(2, 7))
            R = random_substochastic(rng, n)
            w = rng.uniform(0.5, 4.0, n)
            c1 = rng.uniform(-1.5, 1.5, n)
            c2 = c1 + rng.random(n)
            s1 = validate(NetworkSpec(routing=R, capacity=w, demand=c1))
            s2 = validate(NetworkSpec(routing=R, capacity=w, demand=c2))
            assert np.all(picard_min(s1).x <= picard_min(s2).x + 1e-8)
            assert np.all(picard_max(s1).x <= picard_max(s2).x + 1e-8)

    def test_out_connected_equilibrium_unique(self):
        rng = np.random.default_rng(43)
        for _ in range(40):
            spec = random_spec(rng, int(rng.integers(2, 7)))
            assert np.abs(picard_max(spec).x - picard_min(spec).x).sum() < 1e-8
