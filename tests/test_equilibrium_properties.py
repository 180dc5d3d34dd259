"""Invariance of the equilibrium set under a change of units and of cell labels.

(kw, kc) has k times the equilibria of (w, c), and relabelling the cells
relabels them, so equilibrium_set must return the same kind, k times (or
the permutation of) x_min and x_max, and k times the condition value, on
every routing class.  The examples come from the loaded Hypothesis profile
(see conftest.py).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from satflow import NetworkSpec, equilibrium_set, validate
from satflow.model import OTHER, STOCHASTIC_IRREDUCIBLE, SUBSTOCHASTIC_OUT_CONNECTED, classify_routing

from conftest import random_stochastic_irreducible, random_substochastic, random_zero_sum

CASES = ("out_connected", "stochastic", "zero_sum", "critical", "reducible")
TAGS = {"out_connected": SUBSTOCHASTIC_OUT_CONNECTED, "reducible": OTHER}


@st.composite
def networks(draw):
    """A random network with n <= 8 cells of one routing class:
    sub-stochastic out-connected; stochastic irreducible with a demand off
    the zero-sum hyperplane, with a random zero-sum one, or with
    c = (I - R')x for an interior x (a segment through x); or reducible, a
    leaky block beside a closed stochastic one that it may feed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    case = draw(st.sampled_from(CASES))
    if case == "out_connected":
        n = draw(st.integers(1, 8))
        R = random_substochastic(rng, n, 0.05, 1.0)
    elif case == "reducible":
        leaky, closed = draw(st.integers(1, 4)), draw(st.integers(2, 4))
        n = leaky + closed
        R = np.zeros((n, n))
        R[:leaky, :leaky] = random_substochastic(rng, leaky, 0.05, 0.8)
        R[:leaky, leaky:] = rng.random((leaky, closed)) * (0.95 - R[:leaky, :leaky].sum(axis=1))[:, None] / closed
        R[leaky:, leaky:] = random_stochastic_irreducible(rng, closed)
    else:
        n = draw(st.integers(2, 8))
        R = random_stochastic_irreducible(rng, n)
    w = rng.uniform(0.5, 5.0, n)
    if case == "zero_sum":
        c = random_zero_sum(rng, n)
    elif case == "critical":
        x = w * rng.uniform(0.2, 0.8, n)
        c = x - R.T @ x
    else:
        c = rng.uniform(-1.5, 1.5, n)
    spec = validate(NetworkSpec(routing=R, capacity=w, demand=c))
    assert classify_routing(R).tag == TAGS.get(case, STOCHASTIC_IRREDUCIBLE)
    return spec


def _assert_same_set(eq, ref, k, perm, tol):
    assert eq.kind == ref.kind
    assert np.abs(eq.x_min - k * ref.x_min[perm]).sum() <= tol
    assert np.abs(eq.x_max - k * ref.x_max[perm]).sum() <= tol
    assert (eq.condition_value is None) == (ref.condition_value is None)
    if ref.condition_value is not None:
        assert abs(eq.condition_value - k * ref.condition_value) <= tol


@given(networks(), st.floats(-12.0, 12.0))
def test_scaling_scales_the_equilibrium_set(spec, log_k):
    k = 10.0**log_k
    base = equilibrium_set(spec)
    scaled = equilibrium_set(validate(NetworkSpec(routing=spec.routing, capacity=k * spec.capacity,
                                                  demand=k * spec.demand)))
    _assert_same_set(scaled, base, k, slice(None), 1e-10 * k * spec.capacity.sum())


@given(networks(), st.randoms(use_true_random=False))
def test_permuting_cells_permutes_the_equilibrium_set(spec, random):
    perm = np.array(random.sample(range(spec.n), spec.n))
    base = equilibrium_set(spec)
    permuted = equilibrium_set(validate(NetworkSpec(routing=spec.routing[np.ix_(perm, perm)],
                                                    capacity=spec.capacity[perm], demand=spec.demand[perm])))
    _assert_same_set(permuted, base, 1.0, perm, 1e-10 * spec.capacity.sum())
