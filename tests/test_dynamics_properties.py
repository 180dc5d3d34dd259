"""Properties of integrate: stability, kept interval maps, units and cell
labels.

The equilibrium set is globally asymptotically stable (the paper's first
result), so a trajectory from any start in [0, w] must converge, and end
next to the set that equilibrium_set computes by its own solvers.
integrate keeps the interval maps of the last network it integrated, and
a call that finds them built must return the bits of a call that builds
them, whatever start came before.  (kw, kc) has k times the trajectories
of (w, c), and relabelling the cells relabels the trajectory, so a run of
the scaled or permuted network from the scaled or permuted start must
give the same sample times and the scaled or permuted states, up to
roundoff.  The examples come from the loaded Hypothesis profile (see
conftest.py).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from satflow import NetworkSpec, dynamics, equilibrium_set, validate
from satflow.dynamics import IntegratorConfig, integrate
from satflow.model import tolerance_scale

from conftest import networks, random_stochastic_irreducible, random_substochastic

#: l1 distance from a converged trajectory's end to the equilibrium set,
#: times max(1, |w|_inf): the worst of 23,000 random cases of the property
#: below was 4.4e-10, so this leaves a margin of 23
STABLE_TOL = 1e-8


@st.composite
def runs(draw):
    """A random network with n <= 8 cells, sub-stochastic out-connected or
    stochastic irreducible, with a random demand or c = (I - R')x for an
    interior x; two starts, each at 0, at w, inside the box or on its
    saturated faces; and a short run of dt = 0.02-0.2, with 1-10 steps per
    sample."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    stochastic = draw(st.booleans())
    n = draw(st.integers(2 if stochastic else 1, 8))
    R = random_stochastic_irreducible(rng, n) if stochastic else random_substochastic(rng, n, 0.05, 1.0)
    w = rng.uniform(0.5, 5.0, n)
    if draw(st.booleans()):
        x = w * rng.uniform(0.2, 0.8, n)
        c = x - R.T @ x
    else:
        c = rng.uniform(-1.5, 1.5, n)
    spec = validate(NetworkSpec(routing=R, capacity=w, demand=c))
    starts = {"zero": np.zeros(n), "capacity": w.copy(), "inside": rng.random(n) * w,
              "faces": np.choose(rng.integers(0, 3, n), [np.zeros(n), w, rng.random(n) * w])}
    x0, x1 = (starts[draw(st.sampled_from(sorted(starts)))] for _ in range(2))
    dt = draw(st.sampled_from([0.02, 0.05, 0.2]))
    cfg = IntegratorConfig(dt=dt, t_end=draw(st.integers(5, 150)) * dt, sample_every=draw(st.integers(1, 10)),
                           residual_tol=draw(st.sampled_from([1e-300, 1e-10, 1e-4])))
    return spec, x0, x1, cfg


def _start(spec, seed, kind):
    """A start in [0, w]: 0, w, inside the box or on its saturated faces."""
    rng = np.random.default_rng(seed)
    n, w = spec.n, spec.capacity
    return {"zero": np.zeros(n), "capacity": w.copy(), "inside": rng.random(n) * w,
            "faces": np.choose(rng.integers(0, 3, n), [np.zeros(n), w, rng.random(n) * w])}[kind]


def _cold(spec, x0, cfg):
    """integrate with no interval maps kept from an earlier call."""
    vars(dynamics._last).clear()
    return integrate(spec, x0, cfg)


def _assert_close(traj, base, scale, tol, perm=slice(None)):
    """The same times over the samples both runs share, and states within
    tol of scale times base's, relabelled by perm."""
    m = min(len(traj.times), len(base.times))
    assert np.array_equal(traj.times[:m], base.times[:m])
    assert np.abs(traj.states[:m] - scale * base.states[:m][:, perm]).max() <= tol


@given(networks(("out_connected", "stochastic", "critical", "reducible")), st.integers(0, 2**32 - 1),
       st.sampled_from(["zero", "capacity", "inside", "faces"]))
def test_trajectories_end_in_the_equilibrium_set(spec, seed, kind):
    # every routing class, critical demands (a segment) included; off the
    # zero-sum hyperplane the total mass of a closed class moves at its
    # total demand until cells saturate, which can take thousands of time
    # units where that demand is small, hence the long horizon
    traj = integrate(spec, _start(spec, seed, kind), IntegratorConfig(dt=0.05, t_end=1e5))
    assert traj.converged
    assert equilibrium_set(spec).distance_l1(traj.final_state) <= STABLE_TOL * tolerance_scale(spec.capacity)


@given(runs())
def test_warm_call_has_the_bits_of_a_cold_call(run):
    spec, x0, x1, cfg = run
    cold = _cold(spec, x1, cfg)
    _cold(spec, x0, cfg)  # another start leaves its maps
    warm = integrate(spec, x1, cfg)
    assert np.array_equal(warm.times, cold.times)
    assert np.array_equal(warm.states, cold.states)
    assert np.array_equal(warm.residuals, cold.residuals)
    assert warm.affine_steps == cold.affine_steps
    assert warm.converged == cold.converged and warm.final_residual == cold.final_residual


@given(runs(), st.sampled_from([1e-6, 1e-3, 0.3, 7.0, 1e3, 1e6]))
def test_scaled_units_scale_the_trajectory(run, k):
    spec, x0, _, cfg = run
    scaled = validate(NetworkSpec(routing=spec.routing, capacity=k * spec.capacity, demand=k * spec.demand))
    _assert_close(_cold(scaled, k * x0, cfg), _cold(spec, x0, cfg), k, 1e-12 * k)


@given(runs(), st.randoms(use_true_random=False))
def test_relabelled_cells_relabel_the_trajectory(run, random):
    spec, x0, _, cfg = run
    perm = np.array(random.sample(range(spec.n), spec.n))
    relabelled = validate(NetworkSpec(routing=spec.routing[np.ix_(perm, perm)], capacity=spec.capacity[perm],
                                      demand=spec.demand[perm]))
    tol = 1e-12 * max(1.0, float(spec.capacity.max()))
    _assert_close(_cold(relabelled, x0[perm], cfg), _cold(spec, x0, cfg), 1.0, tol, perm)
