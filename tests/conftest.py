import os

import numpy as np
import pytest
from hypothesis import settings

from satflow import NetworkSpec, validate

# Hypothesis profiles of the property tests.  tier1, the default, is
# derandomized: the same 25 examples on every run, so a failure is never
# intermittent.  wide draws 1,000 fresh random examples per property
# (HYPOTHESIS_PROFILE=wide).
settings.register_profile("tier1", max_examples=25, deadline=None, derandomize=True)
settings.register_profile("wide", max_examples=1000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))

# the three-cell reference network used throughout the tests
R3 = np.array([
    [0.0, 0.75, 0.25],
    [0.0, 0.00, 1.00],
    [0.3, 0.70, 0.00],
])
W3 = np.array([5.0, 4.0, 6.0])
C3 = np.array([0.0, -1.0, 1.0])

PI3 = np.array([12 / 89, 37 / 89, 40 / 89])
HC3 = np.array([12 / 89, -52 / 89, 40 / 89])
XMIN3 = np.array([12 / 37, 0.0, 40 / 37])
XMAX3 = np.array([60 / 37, 4.0, 200 / 37])
COND3 = 356 / 37  # = alpha_max - alpha_min = 408/37 - 52/37

# the critical demand of the reference sweep c(a) = [a/3, -1, 2a/3], a = 1
C_STAR = np.array([1 / 3, -1.0, 2 / 3])


@pytest.fixture
def spec3():
    return validate(NetworkSpec(routing=R3, capacity=W3, demand=C3))


@pytest.fixture
def spec2_leaky():
    # both rows leak half their mass; unique interior equilibrium [0.6, 0.6]
    return validate(NetworkSpec(
        routing=np.array([[0.0, 0.5], [0.5, 0.0]]),
        capacity=np.array([1.0, 1.0]),
        demand=np.array([0.3, 0.3]),
    ))


def random_substochastic(rng, n, min_scale=0.2, max_scale=0.8):
    """Random out-connected routing: every row strictly leaky."""
    R = rng.random((n, n))
    np.fill_diagonal(R, 0.0)
    sums = R.sum(axis=1)
    sums[sums == 0] = 1.0
    scale = rng.uniform(min_scale, max_scale, n)
    return R / sums[:, None] * scale[:, None]


def random_stochastic_irreducible(rng, n):
    """Random stochastic matrix with full off-diagonal support (irreducible)."""
    R = rng.random((n, n)) + 0.05
    np.fill_diagonal(R, 0.0)
    return R / R.sum(axis=1)[:, None]


def random_spec(rng, n, stochastic=False):
    R = random_stochastic_irreducible(rng, n) if stochastic else random_substochastic(rng, n)
    w = rng.uniform(0.5, 5.0, n)
    c = rng.uniform(-1.5, 1.5, n)
    return validate(NetworkSpec(routing=R, capacity=w, demand=c))


def random_zero_sum(rng, n):
    v = rng.standard_normal(n)
    return v - v.mean()
