"""The pattern walk keeps the bits of its formula.

equilibria._pattern_piece fills its three demands into one array, reads
its region bounds off the held columns before the solve and runs its
ratio test into an array it fills itself; equilibria._points certifies
the backward walk's pieces by negating their t0 and direction on the
stacked arrays, and hands back two arrays of rows.  oracles.pattern_piece
and oracles.walked_points state the same walk plainly: the demands by
np.array, the region by nested np.where on the masks, the ratio test into
np.full, and each backward piece reversed on its own.  Every piece, every
covered count, every next seed and every row must agree bit for bit, on
random patterns and on the ones that end a piece early: a stochastic
pattern with every cell free, a guess that does not fit its own sample,
cells outside their region, a singular free block, and cells exactly on
their bounds; and on walks whose certificate refuses samples or whose
pieces give up, so that samples are answered cold.  The examples come from the loaded Hypothesis profile (see
conftest.py).
"""

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from satflow import equilibria
from satflow.errors import NumericalError

from conftest import random_stochastic_irreducible, random_substochastic

PIECE_CASES = ("random", "all_free", "guess_fails", "outside", "singular", "on_bounds")


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def _piece_case(case, rng):
    """(net, c0, dc, t0, y, ts) of one pattern piece with the feature that
    names the case: a random pattern; a stochastic network with y strictly
    inside (0, w), every cell free; every cell held at 0 against a demand
    of 2w, at the guess's own sample, so that the solve puts every cell
    outside its region; the same from a sample just past t0; two cells
    that route all their mass to each other, free, so that I - R'_FF is
    singular, with a leaky cell besides them so that the network is not
    stochastic; y with cells exactly on 0 (either sign) and on w, and flat
    directions."""
    n = int(rng.integers(3 if case == "singular" else 2, 9))  # a leaky cell besides the two
    stochastic = case == "all_free" or (case in ("random", "on_bounds") and rng.random() < 0.5)
    R = random_stochastic_irreducible(rng, n) if stochastic else random_substochastic(rng, n, 0.05, 1.0)
    w = rng.uniform(0.5, 5.0, n)
    c0, dc = rng.normal(size=n), rng.normal(size=n)
    t0 = float(rng.uniform(-1.0, 1.0))
    if rng.random() < 0.5:
        t0 = np.float64(t0)  # the walk hands on numpy scalars as well as floats
    y = w * rng.uniform(-0.5, 1.5, n)
    if case == "all_free":
        y = w * rng.uniform(0.05, 0.95, n)
    elif case in ("guess_fails", "outside"):
        y = -w * rng.uniform(0.1, 1.0, n)
        c0 = 2.0 * w - t0 * dc
    elif case == "singular":
        R[:2] = 0.0
        R[0, 1] = R[1, 0] = 1.0
        y[:2] = w[:2] * rng.uniform(0.1, 0.9, 2)
    elif case == "on_bounds":
        bound = rng.integers(0, 4, n)
        bound[0] = rng.integers(0, 2)
        y = np.where(bound == 0, rng.choice([0.0, -0.0], n), np.where(bound == 1, w, y))
        dc[rng.random(n) < 0.3] = rng.choice([0.0, -0.0])
    ts = np.sort(t0 + rng.uniform(0.0, 2.0, int(rng.integers(1, 13))))
    if case == "guess_fails" or (case != "outside" and rng.random() < 0.5):
        ts[0] = t0
    elif case == "outside":
        ts[0] = t0 + 1e-3
    return equilibria._network(R, w), c0, dc, t0, y, ts


@given(st.sampled_from(PIECE_CASES), st.integers(0, 2**32 - 1))
def test_pattern_piece_keeps_the_bits_of_its_formula(case, seed):
    args = _piece_case(case, np.random.default_rng(seed))
    piece, covered, next_seed = equilibria._pattern_piece(*args)
    want, want_covered, want_seed = oracles.pattern_piece(*args)
    assert (piece is None) == (want is None)
    assert covered == want_covered
    assert (next_seed is None) == (want_seed is None)
    if piece is not None:
        assert _same_bits(piece.t0, want.t0)
        for got, ref in zip(piece[1:], want[1:]):
            assert _same_bits(got, ref)
    if next_seed is not None:
        assert _same_bits(next_seed[0], want_seed[0]) and _same_bits(next_seed[1], want_seed[1])


@pytest.mark.parametrize("case", PIECE_CASES)
def test_each_piece_case_has_its_feature(monkeypatch, case):
    # the cases of the property above are not vacuous: each ends its piece
    # as its name says, every time
    solves = []
    real = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda *a, **k: solves.append(1) or real(*a, **k))
    rng = np.random.default_rng(list(map(ord, case)))
    pieces = 0
    for _ in range(100):
        net, c0, dc, t0, y, ts = _piece_case(case, rng)
        del solves[:]
        piece, covered, _ = equilibria._pattern_piece(net, c0, dc, t0, y, ts)
        pieces += piece is not None
        if case == "all_free":
            assert piece is None and solves == []
        elif case in ("guess_fails", "singular"):
            assert piece is None and solves == [1]
        elif case == "outside":
            assert covered == 0 and np.all(_y_at(net, c0, dc, t0, piece) > piece.hi)
        elif case == "on_bounds":
            assert np.count_nonzero((y == 0.0) | (y == net.w))
    if case in ("random", "on_bounds"):
        assert 0 < pieces < 100


def _y_at(net, c0, dc, t, piece):
    """R'x + c at t on a piece, as its columns give it."""
    x = piece.held[:, 0] + (t - piece.t0) * piece.held[:, 2]
    return net.R.T @ x + (c0 + t * dc)


def _walk_case(rng, crossing):
    """(net, c0, dc, ts, crossing) of one call of _points: with crossing, a
    stochastic irreducible network with a line through a critical
    c* = (I - R')x, walked outward from it (t_star = 0 between or beside
    the samples); else any network with unique equilibria, walked from its
    first sample, answered cold."""
    stochastic = crossing or rng.random() < 0.5
    n = int(rng.integers(2 if stochastic else 1, 9))
    R = random_stochastic_irreducible(rng, n) if stochastic else random_substochastic(rng, n, 0.05, 1.0)
    w = rng.uniform(0.5, 5.0, n)
    net = equilibria._network(R, w)
    m = int(rng.integers(1, 26))
    if crossing:
        x = w * rng.uniform(0.2, 0.8, n)
        c_star = x - R.T @ x
        dc = rng.uniform(-0.3, 1.0, n)
        dc[0] += abs(dc.sum()) + 0.1
        if rng.random() < 0.5:
            dc = -dc
        ts = np.sort(rng.uniform(-2.0, 2.0, m) * rng.choice([1e-6, 1e-2, 1.0]))
        ts = ts[ts != 0.0]  # c* itself is zero-sum, not walkable
        return net, c_star, dc, ts, (0.0, equilibria._line(net, c_star))
    c0 = rng.uniform(-1.5, 1.5, n)
    if stochastic:
        c0[0] += abs(c0.sum()) + 0.1  # off the zero-sum hyperplane all along the path
    dc = rng.uniform(-1.0, 1.0, n)
    dc[0] = abs(dc[0]) + abs(dc.sum())
    return net, c0, dc, np.linspace(0.0, rng.choice([0.5, 2.0, 8.0]), m), None


def _refusing(certify, every):
    """certify, refusing the samples at positions 0, every, 2*every, ... of
    each pass (none for every = 0)."""
    def refused(*args):
        ok, *rows = certify(*args)
        if every:
            ok[::every] = False
        return (ok, *rows)
    return refused


def _giving_up(every):
    """A wrapper for pattern-piece functions that share one count of calls:
    each wrapped function gives up, as a piece whose pattern gives nothing
    does, on the calls numbered every, 2*every, ... (none for every = 0),
    so that its walk answers that sample cold and goes on."""
    calls = itertools.count(1)

    def wrap(piece):
        def gave_up(*args):
            if every and next(calls) % every == 0:
                return None, 0, None
            return piece(*args)
        return gave_up
    return wrap


def _outcome(points, *args):
    """What points(*args) returns, or the message of its NumericalError."""
    try:
        return points(*args)
    except NumericalError as error:
        return str(error)


def _assert_points_keep_their_bits(walk, every, give_up):
    """_points and oracles.walked_points give the same rows bit for bit, or
    the same NumericalError, with the certificate refusing samples and the
    pieces giving up as _refusing and _giving_up say.  The pieces give up
    on the same calls in both, counted over the walks and the cold answers
    alike, and every such sample is answered cold by the same _point."""
    net, c0, dc, ts, crossing = walk
    piece = equilibria._pattern_piece
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(equilibria, "_certify", _refusing(equilibria._certify, every))
        mp.setattr(oracles, "certify", _refusing(oracles.certify, every))
        mp.setattr(equilibria, "_pattern_piece", _giving_up(give_up)(piece))
        got = _outcome(equilibria._points, net, c0, dc, ts, crossing)
        wrap = _giving_up(give_up)
        mp.setattr(equilibria, "_pattern_piece", wrap(piece))
        mp.setattr(oracles, "pattern_piece", wrap(oracles.pattern_piece))
        want = _outcome(oracles.walked_points, net, c0, dc, ts, crossing)
    if isinstance(got, str) or isinstance(want, str):
        assert got == want
        return
    lows, highs = got
    assert lows.shape == highs.shape == (ts.size, net.w.size)
    for x_min, x_max, (want_min, want_max) in zip(lows, highs, want):
        assert _same_bits(x_min, want_min) and _same_bits(x_max, want_max)


@given(st.booleans(), st.integers(0, 2**32 - 1), st.sampled_from([0, 0, 3]), st.sampled_from([0, 0, 2]))
def test_points_keep_the_bits_of_the_walk_as_stated(crossing, seed, every, give_up):
    _assert_points_keep_their_bits(_walk_case(np.random.default_rng(seed), crossing), every, give_up)


def test_crossing_walks_with_cold_samples_keep_their_bits(monkeypatch):
    # a crossing walk whose pieces give up answers samples cold on both
    # sides of the crossing, so its certificate takes the walked samples
    # alone, the backward walk's pieces among them
    cold = []
    real = equilibria._point
    monkeypatch.setattr(equilibria, "_point", lambda *a, **k: cold.append(1) or real(*a, **k))
    rng = np.random.default_rng(31)
    for _ in range(30):
        _assert_points_keep_their_bits(_walk_case(rng, True), 0, 2)
    assert len(cold) > 30
