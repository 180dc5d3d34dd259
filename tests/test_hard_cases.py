"""Equilibria where Picard iteration crawls: next to the critical set, with
a nearly stochastic leaky routing, and at extreme scales.  The exact
pattern iteration behind equilibrium_set must return a certified Point
there with no iteration budget involved; Picard serves as the oracle
wherever it converges.  The smallest networks, the periodic 2-cycle and a
single cell, are checked against closed forms through every entry point."""

import json

import numpy as np
import pytest

from satflow import (
    DemandPath,
    NetworkSpec,
    directional_limits,
    equilibrium_set,
    integrate,
    sweep,
    validate,
)
from satflow.cli import main
from satflow.equilibria import MINMAX_ONLY, POINT, SEGMENT, picard_max, picard_min
from satflow.model import STOCHASTIC_IRREDUCIBLE, SUBSTOCHASTIC_OUT_CONNECTED

from conftest import (
    C3,
    C_STAR,
    COND3,
    R3,
    W3,
    XMAX3,
    XMIN3,
    random_reducible,
    random_spec,
    random_stochastic_irreducible,
    random_substochastic,
    reducible_demand,
)

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
    # reducible routing, solved class by class, against Picard from both
    # ends; a class that nothing feeds gets a critical demand half the time
    segments = 0
    for _ in range(150):
        R, unfed = random_reducible(rng)
        w = rng.uniform(0.5, 5.0, R.shape[0])
        spec = validate(NetworkSpec(routing=R, capacity=w, demand=reducible_demand(rng, R, w, unfed)))
        eq = equilibrium_set(spec)
        assert eq.kind == MINMAX_ONLY
        segments += eq.unknown_between
        lo, hi = picard_min(spec, 1e-13), picard_max(spec, 1e-13)
        assert lo.converged and hi.converged
        assert np.abs(eq.x_min - lo.x).sum() < 1e-9 * max(1.0, w.max())
        assert np.abs(eq.x_max - hi.x).sum() < 1e-9 * max(1.0, w.max())
    assert segments >= 30


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


@pytest.mark.parametrize("k", [1e-12, 1e-11, 1e-10])
def test_off_critical_demand_at_tiny_scale_is_a_point(k):
    # sum(c) = 1e-2: an absolute floor in the zero-sum tolerance,
    # 1e-12 (1 + |kc|_1), once called k*c zero-sum and returned a segment
    c = C3 + 1e-2 * D
    base = equilibrium_set(spec_at(c))
    eq = equilibrium_set(spec_at(k * c, w=k * W3))
    assert base.kind == eq.kind == POINT
    assert eq.condition_value is None
    for x, x_base in ((eq.x_min, base.x_min), (eq.x_max, base.x_max)):
        assert np.abs(x - k * x_base).sum() <= 1e-12 * k * np.abs(x_base).sum()


def _reducible_pair(c_closed):
    # a leaky 2-cycle (0.9) beside a closed stochastic 2-cycle: the leaky
    # block has the unique equilibrium [0.145, 0.14] / 0.19; the closed one
    # holds x4 = x3 + 0.5 for every x3 in [0, 4] when c_closed = [-0.5, 0.5]
    # and only [4, 4.6] when c_closed = [-0.5, 0.6] has a surplus
    R = np.zeros((4, 4))
    R[0, 1] = R[1, 0] = 0.9
    R[2, 3] = R[3, 2] = 1.0
    return R, np.array([2.0, 3.0, 4.0, 5.0]), np.array([0.1, 0.05, *c_closed])


@pytest.mark.parametrize("k", [1e-9, 1e-6])
def test_reducible_routing_at_small_scale(k):
    # MinMaxOnly: Picard iteration, which once solved this class, stopped
    # x_max 9e-4 (relative) short of k times the unscaled answer at
    # k = 1e-9 while its increment did not scale with w
    R, w, c = _reducible_pair([-0.2, 0.3])
    base = equilibrium_set(spec_at(c, R=R, w=w))
    eq = equilibrium_set(spec_at(k * c, R=R, w=k * w))
    assert base.kind == eq.kind == MINMAX_ONLY
    for x, x_base in ((eq.x_min, base.x_min), (eq.x_max, base.x_max)):
        assert np.abs(x - k * x_base).sum() <= 1e-12 * k * np.abs(x_base).sum()


@pytest.mark.parametrize("k", [1e-9, 1e-7, 1e-6, 1.0, 1e6])
def test_reducible_unknown_between_does_not_depend_on_units(k):
    # the flag once compared the gap with 1e-6 max(1, |w|_inf), so this
    # gap of 8k read as a point at k = 1e-7 and below
    leaky = np.array([0.145, 0.14]) / 0.19
    R, w, c = _reducible_pair([-0.5, 0.5])
    eq = equilibrium_set(spec_at(k * c, R=R, w=k * w))
    assert eq.kind == MINMAX_ONLY
    assert eq.unknown_between
    for x, closed in ((eq.x_min, [0.0, 0.5]), (eq.x_max, [4.0, 4.5])):
        assert np.abs(x - k * np.array([*leaky, *closed])).sum() <= 1e-9 * k
    assert abs(np.abs(eq.x_max - eq.x_min).sum() - 8 * k) <= 1e-9 * k

    R, w, c = _reducible_pair([-0.5, 0.6])
    eq = equilibrium_set(spec_at(k * c, R=R, w=k * w))
    assert eq.kind == MINMAX_ONLY
    assert not eq.unknown_between
    for x in (eq.x_min, eq.x_max):
        assert np.abs(x - k * np.array([*leaky, 4.0, 4.6])).sum() <= 1e-9 * k
    assert abs(eq.distance_l1(np.zeros(4)) - k * (leaky.sum() + 8.6)) <= 1e-9 * k


@pytest.mark.parametrize("eps", [1e-3, 1e-5, 1e-8, 0.0])
def test_two_closed_classes_next_to_the_critical_set(eps):
    # two copies of the reference network as two closed classes, the first
    # at C3 (the segment from XMIN3 to XMAX3) and the second at
    # c* + eps*d: each class gets the answer of the reference network
    # alone, a point next to the upper end of c*'s segment for eps > 0 and
    # that segment at eps = 0; Picard from both ends took ~8 s at eps = 1e-5
    R = np.zeros((6, 6))
    R[:3, :3] = R[3:, 3:] = R3
    c = C_STAR + eps * D
    eq = equilibrium_set(spec_at(np.r_[C3, c], R=R, w=np.r_[W3, W3]))
    second = equilibrium_set(spec_at(c))
    assert eq.kind == MINMAX_ONLY and eq.unknown_between
    assert np.abs(eq.x_min[:3] - XMIN3).max() <= 1e-12
    assert np.abs(eq.x_max[:3] - XMAX3).max() <= 1e-12
    assert np.array_equal(eq.x_min[3:], second.x_min) and np.array_equal(eq.x_max[3:], second.x_max)
    gap = np.abs(eq.x_max - eq.x_min).sum()
    if eps:
        assert second.kind == POINT
        assert np.abs(second.x_min - equilibrium_set(spec_at(C_STAR)).x_max).sum() <= 10 * eps * W3.sum()
        assert abs(gap - COND3) <= 1e-12 * COND3
    else:
        assert second.kind == SEGMENT and abs(second.condition_value - COND3) <= 1e-12 * COND3
        assert abs(gap - 2 * COND3) <= 1e-12 * COND3


@pytest.fixture(scope="module")
def sparse_critical_network():
    """n = 2000: a random Hamiltonian cycle plus 7 random out-edges per
    cell, each row divided by its sum, so the row sums miss 1 by rounding;
    the demand c = (I - R')x of an interior x is critical, and the
    equilibria form a segment through x.  Returns the spec, x and the
    equilibrium set."""
    rng = np.random.default_rng(2000)
    n = 2000
    order = rng.permutation(n)
    R = np.zeros((n, n))
    R[order, np.roll(order, -1)] = rng.random(n) + 0.1
    rows = np.arange(n)
    for _ in range(7):
        np.add.at(R, (rows, (rows + 1 + rng.integers(0, n - 1, n)) % n), rng.random(n) + 0.1)
    R /= R.sum(axis=1)[:, None]
    assert 0 < np.abs(R.sum(axis=1) - 1).max() <= 8 * np.finfo(float).eps  # a few ulps
    w = rng.uniform(1.0, 5.0, n)
    x = w * rng.uniform(0.25, 0.75, n)
    spec = spec_at(x - R.T @ x, R=R, w=w)
    return spec, x, equilibrium_set(spec)


def test_large_sparse_network_with_rounded_row_sums(sparse_critical_network):
    spec, x, eq = sparse_critical_network
    assert residual(spec, x) < 1e-10 * spec.capacity.max()
    assert eq.kind == SEGMENT and eq.condition_value > 0
    assert eq.distance_l1(x) <= 1e-9 * spec.capacity.sum()


@pytest.mark.xfail(strict=True, reason=(
    "the endpoints hc + alpha*pi carry alpha times the roundoff of pi, about n eps ||x||_1: "
    "residuals 1.1e-9 and 1.4e-9 at alpha = 2.7e3 and 3.4e3, above the 1e-10 |w|_inf "
    "certificate of every Point; the segment path checks only that its ends touch the boundary"))
def test_large_sparse_network_segment_ends_are_certified(sparse_critical_network):
    spec, _, eq = sparse_critical_network
    for end in (eq.x_min, eq.x_max):
        assert residual(spec, end) < 1e-10 * spec.capacity.max()


# The periodic 2-cycle R = [[0, 1], [1, 0]] (stochastic irreducible with
# period 2, pi = [1/2, 1/2]) and the single cell R = [[0]] (leaky), each
# checked against closed-form answers.
CYCLE = np.array([[0.0, 1.0], [1.0, 0.0]])
W_CYCLE = np.array([2.0, 3.0])
ONE = np.array([[0.0]])
W_ONE = np.array([2.0])


def run_cli(capsys, argv):
    code = main(argv)
    return code, capsys.readouterr().out


def write_scenario(tmp_path, R, w, c):
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps({"routing": R.tolist(), "capacity": w.tolist(), "demand": c.tolist()}))
    return str(path)


@pytest.mark.parametrize("c, x_min, x_max", [
    # zero-sum: x1 = x2 + 1/2 with x2 in [0, 3/2]; Hc = [1/4, -1/4], alpha in [1/2, 7/2]
    ([0.5, -0.5], [0.5, 0.0], [2.0, 1.5]),
    # a surplus fills cell 1 and leaves x2 = 2 - 0.3; a deficit empties cell 2
    ([0.5, -0.3], [2.0, 1.7], [2.0, 1.7]),
    ([0.3, -0.5], [0.3, 0.0], [0.3, 0.0]),
])
def test_periodic_two_cycle_equilibrium_set(c, x_min, x_max):
    eq = equilibrium_set(spec_at(np.array(c), R=CYCLE, w=W_CYCLE))
    assert np.abs(eq.x_min - x_min).sum() <= 1e-12
    assert np.abs(eq.x_max - x_max).sum() <= 1e-12
    if c[0] + c[1] == 0:
        assert eq.kind == SEGMENT
        assert np.abs(eq.pi - 0.5).max() <= 1e-15
        assert np.abs(eq.hc - [0.25, -0.25]).max() <= 1e-15
        assert abs(eq.alpha_min - 0.5) <= 1e-12 and abs(eq.alpha_max - 3.5) <= 1e-12
        assert abs(eq.condition_value - 3.0) <= 1e-12
    else:
        assert eq.kind == POINT
        assert eq.condition_value is None


@pytest.mark.parametrize("x0, closed_form", [
    # from 0 cell 2 stays empty: x = [(1 - e^-t)/2, 0]
    ([0.0, 0.0], lambda t: np.stack([0.5 * (1 - np.exp(-t)), 0 * t], axis=1)),
    # from w cell 1 stays full: x = [2, 3/2 (1 + e^-t)]
    ([2.0, 3.0], lambda t: np.stack([2 + 0 * t, 1.5 * (1 + np.exp(-t))], axis=1)),
    # inside the lattice x1 + x2 = 2 is conserved and x1 - x2 = (1 - e^-2t)/2
    ([1.0, 1.0], lambda t: np.stack([1 + 0.25 * (1 - np.exp(-2 * t)), 1 - 0.25 * (1 - np.exp(-2 * t))], axis=1)),
])
def test_periodic_two_cycle_trajectories(x0, closed_form):
    spec = spec_at(np.array([0.5, -0.5]), R=CYCLE, w=W_CYCLE)
    traj = integrate(spec, np.array(x0))
    assert traj.converged
    assert np.abs(traj.states - closed_form(traj.times)).max() <= 1e-9
    assert np.abs(spec.routing.T @ traj.states[-1] + spec.demand - traj.states[-1]).sum() <= 1e-9


def test_periodic_two_cycle_sweep():
    # c(s) = [1/2, s - 1]: the total demand s - 1/2 crosses zero at s = 1/2,
    # where the equilibrium jumps from [1/2, 0] to [2, 1 + s] by 3
    ss = np.linspace(0.0, 1.0, 10)
    result = sweep(CYCLE, W_CYCLE, DemandPath([0.5, -1.0], [0.5, 0.0], 10))
    assert not result.unresolved
    assert len(result.jumps) == 1
    assert abs(result.jumps[0]["s"] - 0.5) <= 1e-12
    assert abs(result.jumps[0]["magnitude"] - 3.0) <= 1e-12
    for s, row in zip(ss, result.rows):
        x = [0.5, 0.0] if s < 0.5 else [2.0, 1.0 + s]
        assert row.kind == POINT and not row.on_manifold
        assert np.abs(row.x_min - x).sum() <= 1e-12
        assert np.abs(row.x_max - x).sum() <= 1e-12


def test_periodic_two_cycle_cli(capsys, tmp_path):
    path = write_scenario(tmp_path, CYCLE, W_CYCLE, np.array([0.5, -0.5]))
    code, out = run_cli(capsys, ["check", path])
    assert code == 0
    report = json.loads(out)
    assert report["class"] == STOCHASTIC_IRREDUCIBLE
    assert report["row_sums"] == [1.0, 1.0]
    assert "leaky_nodes" not in report
    assert np.abs(np.array(report["pi"]) - 0.5).max() <= 1e-15
    code, out = run_cli(capsys, ["equilibria", path])
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == SEGMENT
    assert np.abs(np.array(report["x_min"]) - [0.5, 0.0]).sum() <= 1e-12
    assert np.abs(np.array(report["x_max"]) - [2.0, 1.5]).sum() <= 1e-12
    assert abs(report["condition_value"] - 3.0) <= 1e-12


@pytest.mark.parametrize("c", [-1.0, 0.0, 0.5, 2.0, 3.0])
def test_single_cell_equilibrium_and_trajectory(c):
    # x' = clip(c, 0, w) - x: the equilibrium is clip(c, 0, w), reached as
    # x(t) = x* + (x0 - x*) e^-t from every start
    spec = spec_at(np.array([c]), R=ONE, w=W_ONE)
    x_star = min(max(c, 0.0), 2.0)
    eq = equilibrium_set(spec)
    assert eq.kind == POINT
    assert eq.x_min.tolist() == eq.x_max.tolist() == [x_star]
    for x0 in (0.0, 1.0, 2.0):
        traj = integrate(spec, np.array([x0]))
        assert traj.converged
        closed_form = x_star + (x0 - x_star) * np.exp(-traj.times)
        assert np.abs(traj.states[:, 0] - closed_form).max() <= 1e-9


def test_single_cell_sweep():
    # c(s) = 4s - 1: the equilibrium clip(4s - 1, 0, 2) has no jump
    ss = np.linspace(0.0, 1.0, 9)
    result = sweep(ONE, W_ONE, DemandPath([-1.0], [3.0], 9))
    assert result.jumps == [] and result.unresolved == []
    for s, row in zip(ss, result.rows):
        assert row.kind == POINT and row.condition_value is None and not row.on_manifold
        assert abs(row.x_min[0] - min(max(4 * s - 1, 0.0), 2.0)) <= 1e-12
        assert abs(row.x_max[0] - row.x_min[0]) <= 1e-12


def test_single_cell_cli(capsys, tmp_path):
    path = write_scenario(tmp_path, ONE, W_ONE, np.array([0.5]))
    code, out = run_cli(capsys, ["check", path])
    assert code == 0
    report = json.loads(out)
    assert report["class"] == SUBSTOCHASTIC_OUT_CONNECTED
    assert report["row_sums"] == [0.0]
    assert report["leaky_nodes"] == [1]
    assert "pi" not in report
    code, out = run_cli(capsys, ["equilibria", path])
    assert code == 0
    assert json.loads(out) == {"kind": POINT, "x_min": [0.5], "x_max": [0.5]}
