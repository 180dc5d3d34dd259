"""Invariance of demand-path sweeps under a change of units and of cell labels.

(kw, kc) has k times the equilibria of (w, c), and relabelling the cells
relabels the equilibria, so a sweep of the scaled or permuted path must
give the same rows, scaled or permuted, and the same jumps.  The examples
come from the loaded Hypothesis profile (see conftest.py).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from satflow import DemandPath, sweep

from conftest import random_stochastic_irreducible, random_substochastic


@st.composite
def crossing_sweeps(draw):
    """A random network with n <= 8 cells, sub-stochastic out-connected or
    stochastic irreducible, and a path through c* = (I - R')x for an
    interior x: for stochastic routing c* is on the critical set, with a
    segment through x, and the total demand rises or falls across it."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stochastic = draw(st.booleans())
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


def _assert_same_jumps(jumps, ref, k):
    assert len(jumps) == len(ref)
    for jump, base in zip(jumps, ref):
        assert abs(jump["s"] - base["s"]) <= 1e-12
        assert abs(jump["magnitude"] - k * base["magnitude"]) <= 1e-10 * k * base["magnitude"]


@given(crossing_sweeps(), st.floats(-9.0, 9.0))
def test_scaling_scales_every_row_and_jump(case, log_k):
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
    _assert_same_jumps(scaled.jumps, base.jumps, k)
    assert len(scaled.unresolved) == len(base.unresolved)


@given(crossing_sweeps(), st.randoms(use_true_random=False))
def test_permuting_cells_permutes_rows(case, random):
    R, w, path = case
    perm = np.array(random.sample(range(w.size), w.size))
    base = sweep(R, w, path)
    permuted = sweep(R[np.ix_(perm, perm)], w[perm], DemandPath(path.c_start[perm], path.c_end[perm], path.samples))
    tol = 1e-10 * w.sum()
    assert [row.kind for row in permuted.rows] == [row.kind for row in base.rows]
    for row, ref in zip(permuted.rows, base.rows):
        assert np.abs(row.x_min - ref.x_min[perm]).sum() <= tol
        assert np.abs(row.x_max - ref.x_max[perm]).sum() <= tol
    _assert_same_jumps(permuted.jumps, base.jumps, 1.0)
    assert len(permuted.unresolved) == len(base.unresolved)
