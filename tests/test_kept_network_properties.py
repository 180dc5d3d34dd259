"""A kept network gives the bits of a new one.

The entry points of equilibria and transitions keep the last network that
each thread classified (equilibria._network), so a call can find the
network of an earlier one.  Any sequence of calls over a few networks,
with routing matrices that are copies, Fortran-ordered copies or changed
in place, must give each call the bits, or the refusal, that the same call
gives from an empty slot.  w - R'w is built on a kept network's first use
of it and kept, so a call that needs none builds none.  The examples come
from the loaded Hypothesis profile (see conftest.py).
"""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from satflow import (
    DemandPath,
    NetworkSpec,
    SatflowError,
    directional_limits,
    equilibrium_set,
    multiplicity_test,
    on_critical_manifold,
    sweep,
    validate,
)
from satflow import equilibria
from satflow.equilibria import SEGMENT

from conftest import R3, W3, bits, random_reducible, random_stochastic_irreducible, random_substochastic

ENTRY_POINTS = ("equilibrium_set", "multiplicity_test", "sweep", "directional_limits", "on_critical_manifold")

#: what a step does to the routing matrix of its network before the call
CHANGES = ("same", "copy", "fortran", "in_place")


def _networks(rng):
    """Four networks: the reference one, the same R with other capacities,
    a random stochastic irreducible or sub-stochastic one, and a reducible one."""
    R = random_stochastic_irreducible(rng, 4) if rng.random() < 0.5 else random_substochastic(rng, 4)
    reducible, _ = random_reducible(rng)
    return [[R3.copy(), W3.copy()], [R3.copy(), 2.0 * W3], [R, rng.uniform(0.5, 5.0, 4)],
            [reducible, rng.uniform(0.5, 5.0, reducible.shape[0])]]


def _call(name, R, w, rng):
    """The result of entry point name on (R, w) with arguments drawn from
    rng, or the class and message of its refusal."""
    n = w.size
    c = rng.uniform(-1.5, 1.5, n)
    if rng.random() < 0.5:
        c -= c.mean()  # zero-sum: a segment or a critical point when the routing allows
    d = rng.random(n) + 0.1
    try:
        if name == "equilibrium_set":
            return equilibrium_set(validate(NetworkSpec(routing=R, capacity=w, demand=c)))
        if name == "multiplicity_test":
            return multiplicity_test(validate(NetworkSpec(routing=R, capacity=w, demand=c)))
        if name == "sweep":
            return sweep(R, w, DemandPath(c - d, c + d, int(rng.integers(2, 12))))
        if name == "directional_limits":
            return directional_limits(R, w, c, d)
        return on_critical_manifold(R, w, c)
    except SatflowError as exc:
        return type(exc).__name__, str(exc)


steps = st.lists(st.tuples(st.sampled_from(ENTRY_POINTS), st.integers(0, 3), st.sampled_from(CHANGES),
                           st.integers(0, 2**32 - 1)), min_size=1, max_size=8)


@given(st.integers(0, 2**32 - 1), steps)
def test_each_call_gives_the_bits_of_an_empty_slot(seed, steps):
    vars(equilibria._last).clear()
    networks = _networks(np.random.default_rng(seed))
    for name, k, change, call_seed in steps:
        R, w = networks[k]
        if change == "copy":
            R = R.copy()
        elif change == "fortran":
            R = np.asfortranarray(R)
        elif change == "in_place":
            perm = np.random.default_rng(call_seed).permutation(w.size)
            R[:] = R[np.ix_(perm, perm)]  # relabel the cells, in the array the slot may have seen
        warm = _call(name, R, w, np.random.default_rng(call_seed))
        vars(equilibria._last).clear()
        assert bits(warm) == bits(_call(name, R, w, np.random.default_rng(call_seed))), (name, k, change)


@given(st.integers(0, 2**32 - 1), st.integers(2, 12))
def test_mirror_is_built_on_first_use(seed, n):
    # a segment takes no w - R'w; the point after it on the kept network
    # builds it and has the bits of the same point on a new network
    rng = np.random.default_rng(seed)
    R, w = random_stochastic_irreducible(rng, n), rng.uniform(0.5, 5.0, n)
    x = w * rng.uniform(0.2, 0.8, n)
    vars(equilibria._last).clear()
    segment = equilibrium_set(validate(NetworkSpec(routing=R, capacity=w, demand=x - R.T @ x)))
    assert segment.kind == SEGMENT
    assert "mirror" not in equilibria._last.net.memo
    spec = validate(NetworkSpec(routing=R, capacity=w, demand=x - R.T @ x + rng.uniform(0.01, 0.1, n)))
    warm = equilibrium_set(spec)
    assert "mirror" in equilibria._last.net.memo
    vars(equilibria._last).clear()
    assert bits(warm) == bits(equilibrium_set(spec))
