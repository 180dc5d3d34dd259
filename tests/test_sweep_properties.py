"""Invariance of demand-path sweeps under a change of units and of cell
labels, and the walk of paths that cross the critical set.

(kw, kc) has k times the equilibria of (w, c), and relabelling the cells
relabels the equilibria, so a sweep of the scaled or permuted path must
give the same rows, scaled or permuted, and the same jumps, for paths
that cross the zero-sum hyperplane, for paths inside it, and for paths
on reducible routing, whose unresolved brackets stay where they are.  A
path that crosses the critical set is walked from the crossing without the
cold solver, and its rows are those of equilibrium_set, as are the rows of
paths between rational demands, whose breakpoints fall on samples.  The examples come
from the loaded Hypothesis profile (see conftest.py).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

import pytest

from satflow import DemandPath, NetworkSpec, equilibria, equilibrium_set, on_critical_manifold, sweep, validate

from conftest import R3, W3, random_reducible, random_stochastic_irreducible, random_substochastic, reducible_demand


@st.composite
def crossing_sweeps(draw, stochastic_routing=st.booleans()):
    """A random network with n <= 8 cells, sub-stochastic out-connected or
    stochastic irreducible (as stochastic_routing draws), and a path through
    c* = (I - R')x for an interior x: for stochastic routing c* is on the
    critical set, with a segment through x, and the total demand rises or
    falls across it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stochastic = draw(stochastic_routing)
    n = draw(st.integers(2 if stochastic else 1, 8))
    R = random_stochastic_irreducible(rng, n) if stochastic else random_substochastic(rng, n, 0.05, 1.0)
    w = rng.uniform(0.5, 5.0, n)
    x = w * rng.uniform(0.2, 0.8, n)
    c_star = x - R.T @ x
    d = rng.uniform(-0.3, 1.0, n)
    d[0] += abs(d.sum()) + 0.1
    if draw(st.booleans()):
        d = -d
    span = rng.uniform(0.5, 4.0)
    s_star = rng.uniform(0.2, 0.8)
    path = DemandPath(c_star - s_star * span * d, c_star + (1 - s_star) * span * d, draw(st.integers(5, 25)))
    return R, w, path


@st.composite
def in_hyperplane_sweeps(draw):
    """A random stochastic irreducible network with n <= 8 cells and a path
    inside the zero-sum hyperplane through the critical c* = (I - R')x for
    an interior x, long enough that both ends are off the critical set: the
    condition value is concave along the path, so the path enters and
    leaves the critical set once each, at edges where the segment has
    shrunk to a point."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 8))
    R = random_stochastic_irreducible(rng, n)
    w = rng.uniform(0.5, 5.0, n)
    x = w * rng.uniform(0.2, 0.8, n)
    c_star = x - R.T @ x
    d = rng.standard_normal(n)
    d -= d.mean()
    span, s_star = w.sum() / np.abs(d).sum(), rng.uniform(0.2, 0.8)
    while any(on_critical_manifold(R, w, c_star + t * span * d) for t in (-s_star, 1 - s_star)):
        span *= 2
    path = DemandPath(c_star - s_star * span * d, c_star + (1 - s_star) * span * d, draw(st.integers(5, 25)))
    return R, w, path


@st.composite
def reducible_sweeps(draw):
    """Random reducible routing (conftest.random_reducible: 1-2 closed
    classes beside 0-5 draining cells, labels permuted) and a path between
    two of its random demands (conftest.reducible_demand, some with a
    segment in a class that nothing feeds).  Every row is MinMaxOnly, and a
    pair of samples between which a closed class's total demand changes
    sign is reported unresolved."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    R, unfed = random_reducible(rng)
    w = rng.uniform(0.5, 5.0, R.shape[0])
    c_start, c_end = (reducible_demand(rng, R, w, unfed) for _ in range(2))
    return R, w, DemandPath(c_start, c_end, draw(st.integers(2, 25)))


def _assert_same_jumps(jumps, ref, k, edges_below=None):
    """Same positions, and magnitudes scaled by k; with edges_below (paths
    inside the hyperplane) both edges of the critical set are there, and
    each magnitude is below that bound, since the state does not jump."""
    assert len(jumps) == len(ref)
    if edges_below is not None:
        assert len(ref) == 2
    for jump, base in zip(jumps, ref):
        assert abs(jump["s"] - base["s"]) <= 1e-12
        if edges_below is None:
            assert abs(jump["magnitude"] - k * base["magnitude"]) <= 1e-10 * k * base["magnitude"]
        else:
            assert jump["magnitude"] <= k * edges_below and base["magnitude"] <= edges_below


def _check_scaling(case, log_k, edges):
    R, w, path = case
    k = 10.0**log_k
    base = sweep(R, w, path)
    scaled = sweep(R, k * w, DemandPath(k * path.c_start, k * path.c_end, path.samples))
    tol = 1e-10 * k * w.sum()
    assert [row.kind for row in scaled.rows] == [row.kind for row in base.rows]
    for row, ref in zip(scaled.rows, base.rows):
        assert row.s == ref.s
        assert np.abs(row.x_min - k * ref.x_min).sum() <= tol
        assert np.abs(row.x_max - k * ref.x_max).sum() <= tol
    _assert_same_jumps(scaled.jumps, base.jumps, k, 1e-12 * w.sum() if edges else None)
    assert scaled.unresolved == base.unresolved


def _check_permutation(case, random, edges):
    R, w, path = case
    perm = np.array(random.sample(range(w.size), w.size))
    base = sweep(R, w, path)
    permuted = sweep(R[np.ix_(perm, perm)], w[perm], DemandPath(path.c_start[perm], path.c_end[perm], path.samples))
    tol = 1e-10 * w.sum()
    assert [row.kind for row in permuted.rows] == [row.kind for row in base.rows]
    for row, ref in zip(permuted.rows, base.rows):
        assert np.abs(row.x_min - ref.x_min[perm]).sum() <= tol
        assert np.abs(row.x_max - ref.x_max[perm]).sum() <= tol
    _assert_same_jumps(permuted.jumps, base.jumps, 1.0, 1e-12 * w.sum() if edges else None)
    assert permuted.unresolved == base.unresolved


@given(crossing_sweeps(), st.floats(-9.0, 9.0))
def test_scaling_scales_every_row_and_jump(case, log_k):
    _check_scaling(case, log_k, edges=False)


@given(in_hyperplane_sweeps(), st.floats(-9.0, 9.0))
def test_scaling_keeps_the_edges_of_an_in_hyperplane_path(case, log_k):
    _check_scaling(case, log_k, edges=True)


@given(crossing_sweeps(), st.randoms(use_true_random=False))
def test_permuting_cells_permutes_rows(case, random):
    _check_permutation(case, random, edges=False)


@given(in_hyperplane_sweeps(), st.randoms(use_true_random=False))
def test_permuting_cells_keeps_the_edges_of_an_in_hyperplane_path(case, random):
    _check_permutation(case, random, edges=True)


@given(reducible_sweeps(), st.floats(-9.0, 9.0))
def test_scaling_scales_every_row_of_a_reducible_path(case, log_k):
    _check_scaling(case, log_k, edges=False)


@given(reducible_sweeps(), st.randoms(use_true_random=False))
def test_permuting_cells_permutes_rows_of_a_reducible_path(case, random):
    _check_permutation(case, random, edges=False)


def _check_walkable_rows(R, w, path):
    """sweep decides which samples to walk in one pass over its (samples, n)
    demands: each row must have path.c_at's bits and get the decision of
    _Network.walkable on it (its one-row case, so that one rule decides)."""
    seen, real = [], equilibria._Network.walkable_rows
    with pytest.MonkeyPatch.context() as m:
        m.setattr(equilibria._Network, "walkable_rows",
                  lambda net, C: seen.append((net, C.copy(), real(net, C))) or seen[-1][2])
        sweep(R, w, path)
    # the one pass over every sample, not _Network.walkable's one-row calls
    (net, C, walkable), = [call for call in seen if len(call[1]) > 1]
    assert C.shape == (path.samples, w.size)
    for s, c, walk in zip(path.grid, C, walkable):
        assert np.array_equal(c, path.c_at(s))
        assert walk == net.walkable(path.c_at(s))


@given(crossing_sweeps())
def test_walkable_rows_decide_as_walkable_on_crossing_paths(case):
    _check_walkable_rows(*case)


@given(in_hyperplane_sweeps())
def test_walkable_rows_decide_as_walkable_in_the_hyperplane(case):
    _check_walkable_rows(*case)


@given(crossing_sweeps(stochastic_routing=st.just(True)))
def test_crossing_paths_are_walked_without_a_cold_solve(case):
    # the walk leaves the crossing both ways from the segment endpoints, so
    # no sample needs the cold solver, and every row is equilibrium_set's
    R, w, path = case
    cold, real = [], equilibria._point
    with pytest.MonkeyPatch.context() as m:
        m.setattr(equilibria, "_point", lambda net, c, *a, **k: cold.append(c) or real(net, c, *a, **k))
        result = sweep(R, w, path)
    assert len(result.jumps) == 1 and len(cold) == 0
    tol = 1e-10 * max(1.0, w.max())
    for row in result.rows:
        eq = equilibrium_set(validate(NetworkSpec(routing=R, capacity=w, demand=row.c)))
        assert row.kind == eq.kind
        assert np.abs(row.x_min - eq.x_min).sum() <= tol
        assert np.abs(row.x_max - eq.x_max).sum() <= tol


_R2 = np.array([[0.0, 0.5], [0.5, 0.0]])


@st.composite
def rational_sweeps(draw):
    """The reference network, or two cells feeding each other half their
    mass with w = 1, and a path between demands in multiples of 1/6 with
    2-41 samples: breakpoints of the walk, and crossings of the zero-sum
    hyperplane, fall exactly on samples."""
    R, w = draw(st.sampled_from([(R3, W3), (_R2, np.ones(2))]))
    sixths = st.lists(st.integers(-18, 36), min_size=w.size, max_size=w.size)
    c_start, c_end = np.array(draw(sixths)) / 6, np.array(draw(sixths)) / 6
    return R, w, DemandPath(c_start, c_end, draw(st.integers(2, 41)))


@given(rational_sweeps())
def test_paths_between_rational_demands_match_equilibrium_set(case):
    # a sample on a breakpoint is certified on either piece that meets there
    R, w, path = case
    tol = 1e-10 * max(1.0, w.max())
    for row in sweep(R, w, path).rows:
        eq = equilibrium_set(validate(NetworkSpec(routing=R, capacity=w, demand=row.c)))
        assert row.kind == eq.kind
        assert np.abs(row.x_min - eq.x_min).sum() <= tol
        assert np.abs(row.x_max - eq.x_max).sum() <= tol


_REDUCIBLE = np.array([[0.0, 0.9, 0.0, 0.0], [0.9, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0], [0.0, 0.0, 1.0, 0.0]])


@pytest.mark.parametrize("R, w, path", [
    # s* = 1/2 falls on the middle sample, whose demand sums to 0 only up to rounding
    (R3, W3, DemandPath([0.0, -1.0, 0.0], [2 / 3, -1.0, 4 / 3], 3)),
    (R3, W3, DemandPath([0.0, -1.0, 0.0], [3.0, -1.0, 6.0], 91)),
    (_REDUCIBLE, np.ones(4), DemandPath([0.0, 0.0, -0.5, 0.5], [1.0, 1.0, 0.5, -0.5], 7)),
], ids=["s_star_on_a_sample", "reference", "reducible"])
def test_walkable_rows_decide_as_walkable(R, w, path):
    _check_walkable_rows(R, w, path)
