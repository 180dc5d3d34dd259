import dataclasses
import os
import struct

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st

from satflow import NetworkSpec, dynamics, equilibria, validate
from satflow.model import OTHER, STOCHASTIC_IRREDUCIBLE, SUBSTOCHASTIC_OUT_CONNECTED, classify_routing

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


@pytest.fixture(autouse=True)
def cold_slots():
    """Every test starts without the interval maps that integrate keeps
    from the last network it integrated on this thread, and without the
    classified network that the equilibria entry points keep."""
    vars(dynamics._last).clear()
    vars(equilibria._last).clear()


class _Inner(tuple):
    """A (name, args) pair of a call that another watched call made."""


class Calls(list):
    """The calls to the functions named in watch(), of satflow.equilibria
    unless another module is given, in order, one (name, args) pair each;
    each call goes on to the function.  depth is the number of watched
    calls in progress."""

    def __init__(self, monkeypatch):
        super().__init__()
        self._monkeypatch = monkeypatch
        self.depth = 0

    def watch(self, *names: str, module=equilibria) -> None:
        for name in names:
            def recorded(*args, _name=name, _real=getattr(module, name), **kwargs):
                self.append(_Inner((_name, args)) if self.depth else (_name, args))
                self.depth += 1
                try:
                    return _real(*args, **kwargs)
                finally:
                    self.depth -= 1

            self._monkeypatch.setattr(module, name, recorded)

    @property
    def names(self) -> list[str]:
        return [name for name, _ in self]

    @property
    def outer(self) -> list[str]:
        """The names of the calls that no other watched call made."""
        return [call[0] for call in self if not isinstance(call, _Inner)]

    def args(self, name: str) -> list[tuple]:
        """The arguments of each call to name, in order."""
        return [args for called, args in self if called == name]


@pytest.fixture
def calls(monkeypatch):
    """A :class:`Calls` record; monkeypatch.undo() stops it."""
    return Calls(monkeypatch)


def bits(x):
    """The exact bits of a result, for ==: arrays as their dtype, shape and
    bytes, floats as their 8 bytes (so -0.0 is not 0.0), dataclasses field
    by field, private fields included, and containers item by item."""
    if isinstance(x, np.ndarray):
        return "array", x.dtype.str, x.shape, x.tobytes()
    if isinstance(x, float):
        return "float", struct.pack("d", x)
    if dataclasses.is_dataclass(x):
        return tuple((f.name, bits(getattr(x, f.name))) for f in dataclasses.fields(x))
    if isinstance(x, (list, tuple)):
        return tuple(map(bits, x))
    if isinstance(x, dict):
        return tuple((k, bits(v)) for k, v in x.items())
    return x


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


def random_reducible(rng, classes=None):
    """Random reducible routing with labels permuted: 1-2 closed classes
    (``classes`` of them if given) of 2-4 cells, each stochastic
    irreducible, and 0-5 transient cells (at least 1 beside one class).
    Each class is fed by the transient cells or not; each transient row
    leaks, or is stochastic and stranded when some class is fed (it feeds
    a class, and no leaky cell need be in its reach).  Returns R and the
    cells of every class that is not fed, whose demand alone decides its
    equilibria."""
    sizes = rng.integers(2, 5, classes or int(rng.integers(1, 3)))
    t = int(rng.integers(1 if sizes.size == 1 else 0, 6))
    n = t + int(sizes.sum())
    starts = t + np.concatenate([[0], np.cumsum(sizes)])
    fed = rng.random(sizes.size) < 0.5
    into = np.zeros(n, dtype=bool)  # the cells a transient row may feed
    into[:t] = True
    R = np.zeros((n, n))
    for k, (a, b) in enumerate(zip(starts, starts[1:])):
        R[a:b, a:b] = random_stochastic_irreducible(rng, b - a)
        into[a:b] = fed[k]
    for i in range(t):
        row = rng.random(n) * (rng.random(n) < 0.5) * into
        row[i] = 0.0
        stochastic = fed.any() and rng.random() < 0.5
        if stochastic and not row[t:].any():
            row[rng.choice(np.flatnonzero(into[t:])) + t] = 1.0  # it must reach a class
        if row.any():
            row *= (1.0 if stochastic else rng.uniform(0.05, 0.95)) / row.sum()
        R[i] = row
    perm = rng.permutation(n)
    where = np.argsort(perm)  # the new label of each old cell
    unfed = [np.sort(where[a:b]) for k, (a, b) in enumerate(zip(starts, starts[1:])) if not fed[k]]
    return R[np.ix_(perm, perm)], unfed


def reducible_demand(rng, R, w, unfed):
    """A random demand on reducible routing, with c_C = (I - R_CC')x for an
    interior x (a segment through x) on half the classes that nothing feeds."""
    c = rng.uniform(-1.5, 1.5, R.shape[0])
    for C in unfed:
        if rng.random() < 0.5:
            x = w[C] * rng.uniform(0.2, 0.8, C.size)
            c[C] = x - R[np.ix_(C, C)].T @ x
    return c


CASES = ("out_connected", "stochastic", "zero_sum", "critical", "reducible")
TAGS = {"out_connected": SUBSTOCHASTIC_OUT_CONNECTED, "ties": SUBSTOCHASTIC_OUT_CONNECTED, "reducible": OTHER}


@st.composite
def networks(draw, cases=CASES):
    """A random network of one of the routing classes of cases, n <= 8
    cells (13 reducible):
    sub-stochastic out-connected; stochastic irreducible with a demand off
    the zero-sum hyperplane, with a random zero-sum one, or with
    c = (I - R')x for an interior x (a segment through x); or reducible,
    one or two closed classes beside leaky or stranded cells (see
    random_reducible), each class that nothing feeds with such a c half
    the time.  cases may also name "ties", which CASES leaves out:
    sub-stochastic out-connected routing whose equilibrium x has cells at
    exactly 0 and at exactly w, where R'x + c is 0 or w up to rounding, so
    that the iterations from 0 and from w need not agree on its pattern."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    case = draw(st.sampled_from(cases))
    if case in ("out_connected", "ties"):
        n = draw(st.integers(1, 8))
        R = random_substochastic(rng, n, 0.05, 1.0)
    elif case == "reducible":
        R, unfed = random_reducible(rng, draw(st.integers(1, 2)))
        n = R.shape[0]
    else:
        n = draw(st.integers(2, 8))
        R = random_stochastic_irreducible(rng, n)
    w = rng.uniform(0.5, 5.0, n)
    if case == "zero_sum":
        c = random_zero_sum(rng, n)
    elif case == "critical":
        x = w * rng.uniform(0.2, 0.8, n)
        c = x - R.T @ x
    elif case == "reducible":
        c = reducible_demand(rng, R, w, unfed)
    elif case == "ties":
        # each cell free, at 0 or at w; c = x - R'x on the free cells, -R'x
        # on those at 0 and w - R'x on those at w
        held = rng.integers(0, 3, n)
        x = np.where(held == 1, 0.0, np.where(held == 2, w, w * rng.uniform(0.2, 0.8, n)))
        y = R.T @ x
        c = np.where(held == 1, -y, np.where(held == 2, w - y, x - y))
    else:
        c = rng.uniform(-1.5, 1.5, n)
    spec = validate(NetworkSpec(routing=R, capacity=w, demand=c))
    assert classify_routing(R).tag == TAGS.get(case, STOCHASTIC_IRREDUCIBLE)
    return spec
