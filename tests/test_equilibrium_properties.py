"""Invariance of the equilibrium set under a change of units and of cell labels.

(kw, kc) has k times the equilibria of (w, c), and relabelling the cells
relabels them, so equilibrium_set must return the same kind, k times (or
the permutation of) x_min and x_max, and k times the condition value, on
every routing class; scaling also keeps the unknown_between flag.  A
unique equilibrium must also match Picard iteration to convergence from 0
and from w.  The examples come from the loaded Hypothesis profile (see
conftest.py).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from satflow import NetworkSpec, equilibria, equilibrium_set, validate
from satflow.equilibria import POINT, picard_max, picard_min
from satflow.model import tolerance_scale

from conftest import networks

def _assert_same_set(eq, ref, k, perm, tol):
    assert eq.kind == ref.kind
    assert np.abs(eq.x_min - k * ref.x_min[perm]).sum() <= tol
    assert np.abs(eq.x_max - k * ref.x_max[perm]).sum() <= tol
    assert (eq.condition_value is None) == (ref.condition_value is None)
    if ref.condition_value is not None:
        assert abs(eq.condition_value - k * ref.condition_value) <= tol


@given(networks(), st.floats(-12.0, 12.0))
def test_scaling_scales_the_equilibrium_set(spec, log_k):
    _check_scaling(spec, log_k)


@given(networks(("ties",)), st.floats(-12.0, 12.0))
def test_scaling_scales_the_equilibrium_set_at_ties(spec, log_k):
    _check_scaling(spec, log_k)


def _check_scaling(spec, log_k):
    k = 10.0**log_k
    base = equilibrium_set(spec)
    scaled = equilibrium_set(validate(NetworkSpec(routing=spec.routing, capacity=k * spec.capacity,
                                                  demand=k * spec.demand)))
    _assert_same_set(scaled, base, k, slice(None), 1e-10 * k * spec.capacity.sum())
    # whether a MinMaxOnly set is known between its ends is no matter of units
    assert scaled.unknown_between == base.unknown_between


@given(networks(), st.randoms(use_true_random=False))
def test_permuting_cells_permutes_the_equilibrium_set(spec, random):
    perm = np.array(random.sample(range(spec.n), spec.n))
    base = equilibrium_set(spec)
    permuted = equilibrium_set(validate(NetworkSpec(routing=spec.routing[np.ix_(perm, perm)],
                                                    capacity=spec.capacity[perm], demand=spec.demand[perm])))
    _assert_same_set(permuted, base, 1.0, perm, 1e-10 * spec.capacity.sum())


@given(networks(("out_connected", "stochastic")))
def test_unique_equilibrium_matches_the_picard_oracles(spec):
    # out-connected routing, and stochastic routing off the zero-sum
    # hyperplane: each end within the residual bound that certifies it
    _check_picard(spec)


@given(networks(("ties",)))
def test_unique_equilibrium_at_ties_matches_the_picard_oracles(spec):
    # cells at exactly 0 or w, where the two ends may never agree on a
    # pattern and one of them may climb
    _check_picard(spec)


def _check_picard(spec):
    eq = equilibrium_set(spec)
    assert eq.kind == POINT
    tol = equilibria._FIXED_POINT_TOL * tolerance_scale(spec.capacity)
    assert np.abs(eq.x_min - picard_min(spec).x).sum() <= tol
    assert np.abs(eq.x_max - picard_max(spec).x).sum() <= tol
