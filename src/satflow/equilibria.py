"""Equilibrium computation and classification.

Equilibria of the saturated flow dynamics are exactly the fixed points of
the monotone map T(x) = clip(R'x + c, 0, w).  The least one, x_min, and the
greatest one, x_max, bound every other.

When the equilibrium is unique (a Point) both are computed exactly from
both ends at once (:func:`_point`).  The Picard iterations from 0 and from
w run in lockstep, one (2, n) @ R product per step.  The lower iterate
stays below every fixed point and the upper one above, and R' >= 0, so
R'x + c at every fixed point lies between their two values.  Once these
show the same saturation pattern (Z = {R'x + c <= 0} at 0,
U = {R'x + c >= w} at w, the rest free), every equilibrium has it, and one
solve of the free cells gives it exactly: a pattern piece, certified as a
walked sample is (below).  A pattern that fails its solve or its
certificate is not tried again.  Where the patterns never agree, as where
R'x + c is exactly 0 or w on a cell at the equilibrium, a side stops when
its increment does; if it converges, that is the answer.  A side still
moving after n steps holds at a subsolution x <= T(x), from which it
climbs: the cells with (R'x + c)_i <= 0 are held at 0 and Howard's policy
iteration solves the one-obstacle problem v = min(w, R'v + c) on the rest:
a policy is the set of cells at w, and the free cells F solve one linear
system with the M-matrix I - R'_FF.  The solution is again a subsolution
below every fixed point, so the cells held at 0 only ever leave, and when
none leaves the iterate is x_min.  x_max is the same climb in the mirrored
coordinates y = w - x.  Every result is certified by its residual
||T(x) - x||_1.
Reducible routing is solved class by class by the same solvers; Picard
iteration to convergence (picard_min, picard_max) is only a test oracle.

R is classified into a private network object that every solver below
takes with the demand c: R, w, the routing class, w - R'w (computed on
first use, so a segment never computes it) and, for reducible R, its
draining cells and the closed classes that the
classification found, with their sub-networks and one rule for the demand
of each (:func:`_class_demands`).  These depend on (R, w) alone, so each
thread keeps the last network it classified (:func:`_network`), and every
public entry point here and in :mod:`satflow.transitions` on the same
(R, w) takes it: a sweep, the one-sided limits after it and an
equilibrium_set of one of its demands classify R once between them.  The
network also keeps the line data of the last zero-sum demand solved on it
(:func:`_line`), so the limits at a sweep's jump solve no line of their own.
Where the class makes the equilibrium unique, sub-stochastic out-connected
routing or stochastic irreducible routing off the zero-sum hyperplane (one
rule, :meth:`_Network.walkable`), such a caller walks an affine demand
path c0 + t*dc first, one saturation pattern at a time, and then certifies
it once (:func:`_points`).  The equilibrium is affine in t while its
pattern (Z = {R'x + c <= 0} at 0, U = {R'x + c >= w} at w, the rest free)
holds, so one linear solve of the free cells, with the mirrored system and
the direction as further right-hand sides, gives x_min(t) and x_max(t) on
a whole piece (:func:`_pattern_piece`).  The piece keeps its pattern as
the bounds lo <= R'x + c <= hi of its closed region (:func:`_region`),
-inf and inf on the open sides.  A ratio test of R'x(t) + c(t), affine on
the piece, against those bounds finds where the path leaves the pattern,
and the next piece starts just past it: the continuation of parametric LCP (Murty 1988,
ch. 5) and of homotopy paths (Efron et al., Ann. Statist. 32(2), 2004).
Only then is every sample of the walk checked, in one vectorised pass with
the tests a cold answer meets (:func:`_certify`), where a sample on a
breakpoint fits the closed regions of the pieces on both sides of it
(:func:`_outside`).  Both run on arrays of at most a few dozen numbers,
where numpy's Python-level dispatch costs more than the arithmetic, so
they call the ufunc reductions and np.count_nonzero directly: the same
bits as .any(), .min() or .sum(), with less dispatch.  For the same
reason a piece fills its three demands into one array, reads its region
off the held values before the solve and fills its ratio test's array
itself, and the walk hands back its answers as two arrays of rows, x_min
and x_max, with no EquilibriumSet per sample; every step keeps its
operands and their order, so every bit is kept.  The cold pattern
iteration above answers each sample that fails.  A path that crosses
the critical set is walked outward from the crossing both ways, each way
from the segment endpoint that its equilibria approach, with the cell
that bounds the segment held, so it needs no cold answer to start: the
way back runs along -dc at -t, which gives the same demands to the bit.
Its pieces enter the one certificate pass as they are, and the pass
negates their t0 and direction once on its stacked arrays, which is
exact.  Only a path that does not cross starts from a cold answer.

For stochastic irreducible routing with zero-sum demand the full set of
equilibria is known analytically: it is the line {Hc + a*pi} intersected
with the lattice, a segment with positive length iff

    min_i (Hc)_i/pi_i + min_i (w_i - (Hc)_i)/pi_i > 0.

That left-hand side (the "condition value") also equals the l1 length of
the segment, since pi is a probability vector.

Every answer lies on [0, w]: :func:`_segment`, :func:`_point` and
:func:`_points` clamp x_min and x_max onto it after their own checks.

Tolerances on equilibria scale with max(1, |w|_inf), because (kw, kc) has
k times the equilibria of (w, c); at unit scale they are the bare
constants.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

import numpy as np

from .errors import NumericalError, PreconditionError
from .model import (
    OTHER,
    STOCHASTIC_IRREDUCIBLE,
    SUBSTOCHASTIC_OUT_CONNECTED,
    _ZERO_SUM_RTOL,
    NetworkSpec,
    RoutingClass,
    _pi_and_h,
    _require_stochastic_irreducible,
    _zero_sum_rows,
    classify_routing,
    is_zero_sum,
    tolerance_scale,
)

POINT = "Point"
SEGMENT = "Segment"
MINMAX_ONLY = "MinMaxOnly"

#: endpoints of a segment must touch the lattice boundary within this slack,
#: times max(1, |w|_inf)
BOUNDARY_TOL = 1e-9

#: max allowed l1 disagreement between x_min and x_max in a Point case,
#: times max(1, |w|_inf)
POINT_AGREEMENT_TOL = 1e-6

# a returned equilibrium x has ||T(x) - x||_1 below this, times max(1, |w|_inf)
_FIXED_POINT_TOL = 1e-10

#: bytes the network kept by one thread may hold: its copy of R and, for
#: reducible R, the blocks of parts, disjoint blocks of R that take at most
#: R's bytes together (see _network)
_KEPT_BYTES = 32 * 2**20

#: the last network classified on this thread, with its own copy of R
_last = threading.local()


class PicardResult(NamedTuple):
    x: np.ndarray
    converged: bool
    iterations: int
    residual: float


@dataclass
class EquilibriumSet:
    """Either a unique equilibrium, an analytic segment, or a min/max pair.

    kind == SEGMENT carries the line data with their bits, and its ends
    hc + alpha*pi at alpha_min and alpha_max clamped onto [0, w].  kind ==
    MINMAX_ONLY (reducible routing) has the exact x_min and x_max, and
    unknown_between says whether they differ by more than
    POINT_AGREEMENT_TOL * |w|_inf, relative with no floor so that scaling
    (w, c) does not change it.  The set between them is the product of
    one point on the draining cells and a point or a segment per closed
    class; the line data of each class with a segment is kept privately,
    for distance_l1.  condition_value is present whenever the demand is
    zero-sum on a stochastic irreducible network.
    """

    kind: str
    x_min: np.ndarray
    x_max: np.ndarray
    hc: np.ndarray | None = None
    pi: np.ndarray | None = None
    alpha_min: float | None = None
    alpha_max: float | None = None
    condition_value: float | None = None
    unknown_between: bool = False
    #: MinMaxOnly: (cells, pi, hc, alpha_min, alpha_max) of each closed class with a segment
    _segments: tuple = field(default=(), repr=False, compare=False)

    def distance_l1(self, x: np.ndarray) -> float:
        """l1 distance from x to the equilibrium set.

        On a segment the distance at line parameter a is
        sum_i pi_i |(x_i - hc_i)/pi_i - a|, a convex function minimised by
        the pi-weighted median of (x_i - hc_i)/pi_i; clamped to
        [alpha_min, alpha_max] it gives the nearest point of the segment.
        A MinMaxOnly set is a product, so its distance is the sum of the
        distances of x's parts: to the point x_min on the draining cells
        and the classes with a point, and to each class's segment by the
        median above.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != self.x_min.shape:
            raise PreconditionError(f"distance_l1 needs a state of shape {self.x_min.shape}, got {x.shape}")
        if self.kind == SEGMENT:
            return _segment_distance(x, self.pi, self.hc, self.alpha_min, self.alpha_max)
        point = np.ones(x.size, dtype=bool)  # the cells on no segment
        along = 0.0
        for cells, *line in self._segments:
            point[cells] = False
            along += _segment_distance(x[cells], *line)
        return float(np.abs(x - self.x_min)[point].sum()) + along


def _segment_distance(x: np.ndarray, pi: np.ndarray, hc: np.ndarray, alpha_min: float, alpha_max: float) -> float:
    """l1 distance from x to {hc + a*pi : alpha_min <= a <= alpha_max}, by
    the weighted median of :meth:`EquilibriumSet.distance_l1`."""
    t = (x - hc) / pi
    order = np.argsort(t)
    weight = np.cumsum(pi[order])
    median = t[order[np.searchsorted(weight, 0.5 * weight[-1])]]
    a = min(max(median, alpha_min), alpha_max)
    return float(np.abs(x - (hc + a * pi)).sum())


class _Network(NamedTuple):
    """Routing R, capacities w and the class of R, decided once per routing
    matrix (:func:`_network`); the private solvers take it with the demand
    c.  memo holds what is solved on the network once a call needs it,
    shared by every network built from a kept one: "mirror" (see
    :attr:`mirror`) and "line", the key and line data of the last demand
    :func:`_line` solved.  parts is () unless R is of class Other, whose
    decomposition it holds: the mask T of the cells that drain, their
    network, and (C, the network of C, R[np.ix_(T, C)]) for the mask C of
    each closed class."""

    R: np.ndarray
    w: np.ndarray
    routing_class: RoutingClass
    memo: dict
    parts: tuple = ()

    @property
    def stochastic(self) -> bool:
        return self.routing_class.tag == STOCHASTIC_IRREDUCIBLE

    @property
    def mirror(self) -> np.ndarray:
        """w - R'w, so that the mirrored system of y = w - x has the demand
        mirror - c, computed on first use and kept in memo.  Every network
        that shares memo holds R and w with the same bits and strides
        (:func:`_network`), so whichever computes it gives the same bits."""
        mirror = self.memo.get("mirror")
        if mirror is None:
            mirror = self.memo["mirror"] = self.w - self.R.T @ self.w
        return mirror

    def walkable(self, c: np.ndarray) -> bool:
        """True iff the equilibrium at c is unique and walkable: the one-row
        case of :meth:`walkable_rows`, so that both always decide alike."""
        return bool(self.walkable_rows(c[None])[0])

    def walkable_rows(self, C: np.ndarray) -> np.ndarray:
        """Whether the equilibrium at each row c of C is unique and walkable,
        in one pass: sub-stochastic out-connected routing, or stochastic
        irreducible with c off the zero-sum hyperplane."""
        if self.routing_class.tag == SUBSTOCHASTIC_OUT_CONNECTED:
            return np.ones(len(C), dtype=bool)
        return ~_zero_sum_rows(C) if self.stochastic else np.zeros(len(C), dtype=bool)


def _network(R: np.ndarray, w: np.ndarray, op: str | None = None) -> _Network:
    """The classified network of R and w, the one this thread keeps if it
    is of the same (R, w), else a new one that it keeps in its place.

    The key is the strides of R and w, since a product's rounding can
    depend on them, and their bits: those of w first, those of R only where
    w's match.  The thread keeps its own copy of R, in the buffer of the
    last copy where the shapes match.  A network whose R takes more than
    half of _KEPT_BYTES is built on every call.  The network returned holds
    the caller's R and w, so a kept one gives the bits of a new one.  op
    names a caller that requires stochastic irreducible R, else
    PreconditionError with the class and its detail, kept or not."""
    key = R.strides, w.strides, w.tobytes()
    kept = getattr(_last, "net", None)
    # the bits of R, not its values: -0.0 and 0.0 are equal values that a product can tell apart
    if (kept is not None and _last.key == key and kept.R.shape == R.shape
            and not np.count_nonzero(kept.R.view(np.uint64) != R.view(np.uint64))):
        net = _Network(R, w, *kept[2:])
    else:
        net = _classified(R, w)
        _last.net = None
        if 2 * R.nbytes <= _KEPT_BYTES:
            copy = kept.R if kept is not None and kept.R.shape == R.shape else np.empty(R.shape)
            np.copyto(copy, R)
            _last.net, _last.key = net._replace(R=copy, w=w.copy()), key
    if op is not None:
        _require_stochastic_irreducible(net.routing_class, op)
    return net


def _classified(R: np.ndarray, w: np.ndarray) -> _Network:
    """R, w, the class of R and its parts, built from the closed classes
    that :func:`satflow.model.classify_routing` found, with no search of
    its own."""
    routing_class = classify_routing(R)
    if routing_class.tag != OTHER:
        return _Network(R, w, routing_class, {})
    classes = routing_class._classes
    T = ~np.logical_or.reduce(classes)
    return _Network(R, w, routing_class, {}, (T, _part(R, w, T, SUBSTOCHASTIC_OUT_CONNECTED), tuple(
        (C, _part(R, w, C, STOCHASTIC_IRREDUCIBLE), R[np.ix_(T, C)]) for C in classes)))


def _part(R: np.ndarray, w: np.ndarray, cells: np.ndarray, tag: str) -> _Network:
    """The network of the cells of a mask, known to be of class tag."""
    return _Network(R[np.ix_(cells, cells)], w[cells], RoutingClass(tag), {})


def _picard(R_t: np.ndarray, w: np.ndarray, c: np.ndarray, x0: np.ndarray, increment_tol: float,
            max_iter: int = 10**6) -> PicardResult:
    x = x0.astype(float).copy()
    for k in range(1, max_iter + 1):
        x_new = np.minimum(np.maximum(R_t @ x + c, 0.0), w)  # np.clip, without its dispatch cost
        increment = float(np.abs(x_new - x).sum())
        x = x_new
        if increment < increment_tol:
            return PicardResult(x, True, k, increment)
    return PicardResult(x, False, max_iter, increment)


def picard_min(spec: NetworkSpec, increment_tol: float = 1e-12) -> PicardResult:
    """Minimal equilibrium via the nondecreasing iteration from x = 0.

    The increment of the monotone iteration is exactly the fixed-point
    residual ||T(x) - x||_1, so the stopping rule doubles as the residual
    certificate.  After 10^6 iterations the last iterate is returned with
    converged=False.
    """
    return _picard(spec.routing.T, spec.capacity, spec.demand, np.zeros(spec.n), increment_tol)


def picard_max(spec: NetworkSpec, increment_tol: float = 1e-12) -> PicardResult:
    """Maximal equilibrium via the nonincreasing iteration from x = w."""
    return _picard(spec.routing.T, spec.capacity, spec.demand, spec.capacity, increment_tol)


def _line(net: _Network, c: np.ndarray) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(pi, Hc, alpha_min, alpha_max) of the zero-sum projection c - mean(c)
    of the demand, for stochastic irreducible routing.

    The line {Hc + a*pi} meets the lattice for a in [alpha_min, alpha_max];
    the condition value is alpha_max - alpha_min.  Callers decide whether
    the demand is zero-sum.  The network keeps the line data of the last c
    it solved (net.memo["line"]), keyed on the strides and the bits of c, so
    a second call at the same demand makes no solve.  Every call hands out
    pi and Hc of its own, since an EquilibriumSet returned to a caller
    holds them and may be changed in place.
    """
    key = c.strides, c.tobytes()
    kept = net.memo.get("line")
    if kept is not None and kept[0] == key:
        pi, hc, alpha_min, alpha_max = kept[1]
        return pi.copy(), hc.copy(), alpha_min, alpha_max
    pi, hc = _pi_and_h(net.R, c - np.add.reduce(c) / c.size)
    alpha_min, alpha_max = float(-np.minimum.reduce(hc / pi)), float(np.minimum.reduce((net.w - hc) / pi))
    net.memo["line"] = key, (pi.copy(), hc.copy(), alpha_min, alpha_max)
    return pi, hc, alpha_min, alpha_max


def multiplicity_test(spec: NetworkSpec) -> tuple[float | None, bool]:
    """Evaluate the segment-length condition for stochastic irreducible routing.

    Returns (value, value > 0) where value is
    min_i (Hc)_i/pi_i + min_i (w_i - (Hc)_i)/pi_i, or (None, False) when
    the demand is not zero-sum (interior equilibria require sum(c) = 0, so
    the condition is undefined off the hyperplane).  Other routing raises
    PreconditionError with the class and its detail.
    """
    net = _network(spec.routing, spec.capacity, "multiplicity_test")
    if not is_zero_sum(spec.demand):
        return None, False
    line = _line(net, spec.demand)
    value = line[3] - line[2]
    return value, value > 0


def equilibrium_set(spec: NetworkSpec) -> EquilibriumSet:
    """Compute and classify the full equilibrium set of a validated spec.

    * stochastic irreducible, zero-sum demand, positive condition value ->
      the analytic segment;
    * stochastic irreducible otherwise, or sub-stochastic out-connected ->
      a unique point: x_min and x_max from both ends at once by the exact
      pattern iteration of the module docstring, certified by their
      residuals and cross-checked against each other;
    * reducible routing -> the min/max pair, from a point on the draining
      cells and a point or segment on each closed class.

    The routing matrix is classified once per thread and network
    (:func:`_network`).  On zero-sum demand pi and Hc come from one square
    solve with M = I - R' + 1 1' and two right-hand sides, and feed both
    the condition value and the segment.
    """
    return _equilibrium(_network(spec.routing, spec.capacity), spec.demand)


def _equilibrium(net: _Network, c: np.ndarray) -> EquilibriumSet:
    """:func:`equilibrium_set` at demand c on a classified network."""
    if net.walkable(c):
        return _point(net, c)
    return _on_hyperplane(net, c) if net.stochastic else _decomposed(net, c)


def _on_hyperplane(net: _Network, c: np.ndarray) -> EquilibriumSet:
    """:func:`equilibrium_set` at a demand c taken as zero-sum on a stochastic
    irreducible network: the segment of its line, or a point where that has no length."""
    pi, hc, alpha_min, alpha_max = _line(net, c)
    value = alpha_max - alpha_min
    if value > 0:
        return _segment(net, pi, hc, alpha_min, alpha_max)
    return _point(net, c, condition_value=value)


def _segment(net: _Network, pi: np.ndarray, hc: np.ndarray, alpha_min: float, alpha_max: float) -> EquilibriumSet:
    """The segment of the line data, its ends checked against the lattice boundary, then clamped onto [0, w]."""
    x_min = hc + alpha_min * pi
    x_max = hc + alpha_max * pi
    tol = BOUNDARY_TOL * tolerance_scale(net.w)
    for name, x in (("x_min", x_min), ("x_max", x_max)):
        # to the nearest bound, 0 or w
        gap = float(min(np.minimum.reduce(np.abs(x)), np.minimum.reduce(np.abs(x - net.w))))
        if not gap <= tol:
            raise NumericalError(f"segment endpoint {name} {gap:.3g} off the lattice boundary, not within {tol:.3g}")
        np.minimum(np.maximum(x, 0.0, out=x), net.w, out=x)
    return EquilibriumSet(
        kind=SEGMENT,
        x_min=x_min,
        x_max=x_max,
        hc=hc,
        pi=pi,
        alpha_min=alpha_min,
        alpha_max=alpha_max,
        condition_value=alpha_max - alpha_min,
    )


def _decomposed(net: _Network, c: np.ndarray) -> EquilibriumSet:
    """Reducible routing class by class on net.parts (Kemeny & Snell, Finite
    Markov Chains, 1960): the cells T in no closed class drain, into a leaky
    cell or a class, so x_T is unique; each closed class C is then a
    stochastic irreducible network with demand c_C + R_TC' x_T
    (:func:`_class_demands`), a point or a segment, whose line data the
    result keeps."""
    T, drain, classes = net.parts
    x_min, x_max = np.zeros(net.w.size), np.zeros(net.w.size)
    if T.any():  # x_T is unique: x_min, which _point cross-checks with x_max, serves both
        x_min[T] = x_max[T] = _point(drain, c[T]).x_min
    segments = []
    for (C, part, _), (e, zero) in zip(classes, _class_demands(net, c[None], x_min[None])):
        eq = _on_hyperplane(part, e[0]) if zero[0] else _point(part, e[0])
        x_min[C], x_max[C] = eq.x_min, eq.x_max
        if eq.kind == SEGMENT:
            segments.append((np.flatnonzero(C), eq.pi, eq.hc, eq.alpha_min, eq.alpha_max))
    # relative with no floor at 1, so that units do not decide the flag
    gap = float(np.abs(x_max - x_min).sum())
    unknown = gap > POINT_AGREEMENT_TOL * float(net.w.max())
    return EquilibriumSet(kind=MINMAX_ONLY, x_min=x_min, x_max=x_max, unknown_between=unknown,
                          _segments=tuple(segments))


def _class_demands(net: _Network, cs: np.ndarray, xs: np.ndarray) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The demand e_C = c_C + R_TC' x_T of each closed class C of net.parts
    at each row of the demands cs and states xs, x_T on the draining cells
    T, and whether each row is zero-sum: |sum(e_C)| within _ZERO_SUM_RTOL
    of |c_C|_1 + |R_TC' x_T|_1, the size of its terms, not of e_C, which
    is only rounding where they cancel."""
    T, _, classes = net.parts
    for C, _, R_TC in classes:
        c, inflow = cs[:, C], xs[:, T] @ R_TC
        E, size = c + inflow, np.abs(c).sum(axis=1) + np.abs(inflow).sum(axis=1)
        yield E, np.abs(E.sum(axis=1)) <= _ZERO_SUM_RTOL * size


def _point(net: _Network, c: np.ndarray, condition_value: float | None = None) -> EquilibriumSet:
    """The unique equilibrium at c, from both ends at once, on stochastic
    irreducible or sub-stochastic out-connected routing.

    y = w - x turns T into clip(R'y + w - R'w - c, 0, w) and reverses the
    order, so x_max is w minus the least fixed point of the map with the
    mirrored demand w - R'w - c.  Row 0 of X is the Picard iteration from 0
    toward x_min, row 1 the mirrored one from 0 toward w - x_max, and each
    step takes one (2, n) @ R product for both.  Row 0 of Y = X @ R + B
    is R'x + c at a state below every equilibrium, w minus row 1 at one
    above, and R' >= 0, so R'x + c at every equilibrium lies between them
    (:func:`_agreement`).  Where they show the same saturation pattern,
    every equilibrium has it, and one pattern solve gives it exactly: the
    piece of a walk with dc = 0 at its one sample t = 0
    (:func:`_pattern_piece`), certified as a walked sample is
    (:func:`_certify`), whose clamped rows answer.  A pattern whose solve or
    certificate fails is not tried again, and the steps go on.  A side
    whose increment falls below 1e-12 |w|_inf stops there, and a side still
    moving after n steps climbs from its iterate (:func:`_end`).  The two
    ends must then agree within POINT_AGREEMENT_TOL before they are
    clamped onto [0, w].
    """
    R, w, n = net.R, net.w, net.w.size
    B = np.array((c, net.mirror - c))
    X, Y = np.zeros(B.shape), np.empty(B.shape)
    # relative to |w|_inf with no floor: an absolute increment would stop
    # the warm-up of a network with small capacities far from its limit
    tol = 1e-12 * float(w.max())
    steps, moving, tried = [n, n], [True, True], set()
    rows = slice(0, 2)  # the sides still moving, as one block of rows
    for step in range(1, n + 1):
        np.matmul(X[rows], R, out=Y[rows])
        Y[rows] += B[rows]
        pattern = _agreement(Y, w)
        if pattern is not None and pattern not in tried:
            tried.add(pattern)
            dc, at = np.zeros(n), np.zeros(1)
            piece = _pattern_piece(net, c, dc, 0.0, Y[0], at)[0]
            if piece is not None:
                ok, X = _certify(net, c, dc, at, [piece], np.zeros(1, dtype=int))
                if ok[0]:
                    return EquilibriumSet(POINT, X[0], X[1], condition_value=condition_value)
        x = np.minimum(np.maximum(Y[rows], 0.0), w)  # np.clip, without its dispatch cost
        increments = np.add.reduce(np.abs(x - X[rows]), axis=1).tolist()
        X[rows] = x
        for side, increment in zip(range(rows.start, rows.stop), increments):
            if increment < tol:
                steps[side], moving[side] = step, False
        live = [side for side in (0, 1) if moving[side]]
        if not live:
            break
        rows = slice(live[0], live[-1] + 1)
    x_min = _end(net, c, 0, X[0], steps[0], moving[0])
    x_max = _end(net, c, 1, X[1], steps[1], moving[1])
    gap = float(np.abs(x_max - x_min).sum())
    bound = POINT_AGREEMENT_TOL * tolerance_scale(net.w)
    if gap > bound:
        raise NumericalError(f"unique equilibrium: x_min and x_max disagree by {gap:.3g}, not within {bound:.3g}")
    for x in (x_min, x_max):
        np.minimum(np.maximum(x, 0.0, out=x), net.w, out=x)
    return EquilibriumSet(kind=POINT, x_min=x_min, x_max=x_max, condition_value=condition_value)


class _Piece(NamedTuple):
    """One saturation pattern's stretch of a walk: the closed region
    lo <= R'x + c <= hi of the pattern (:func:`_region`), and the columns of
    :func:`_pattern_piece`'s solve at t0 (x, the mirrored w - x and the
    direction dir), so that x_min(t) = held[:, 0] + (t - t0)*dir and
    x_max(t) = (w - held[:, 1]) + (t - t0)*dir."""

    t0: float
    lo: np.ndarray
    hi: np.ndarray
    held: np.ndarray


class _Walk(NamedTuple):
    """A walk c0 + t*dc over ascending samples ts before its certificate:
    owner is the piece that covers each sample (-1 where answered cold),
    and out the cold answers (None where a piece covers the sample)."""

    ts: np.ndarray
    pieces: list[_Piece]
    owner: np.ndarray
    out: list[EquilibriumSet | None]


def _points(net: _Network, c0: np.ndarray, dc: np.ndarray, ts, crossing=None) -> tuple[np.ndarray, np.ndarray]:
    """x_min and x_max of the unique equilibria at the demands c0 + t*dc
    for ascending ts, all of them walkable (:meth:`_Network.walkable`), as
    two (len(ts), n) arrays with one row per sample: walk the path first
    (:func:`_walk`), then certify every walked sample in one pass
    (:func:`_certify`), and answer each sample it refuses cold (:func:`_point`).

    Without crossing the walk starts from a cold answer at the first
    sample.  crossing = (t_star, line) says the line crosses the critical
    set at t_star, with line data (pi, Hc, alpha_min, alpha_max) there: it
    is walked outward from t_star both ways, each way from the segment
    endpoint that its equilibria approach (:func:`_endpoint_seed`), so
    neither walk needs the cold solver to start.  The samples up to t_star
    go backward, along -dc at -t (c0 + (-t)*(-dc) has the bits of
    c0 + t*dc), and the certificate negates the t0 and the direction of
    that walk's pieces on its stacked arrays, which changes no bit.  The
    certified rows come clamped onto [0, w], as the cold answers do, whose
    rows are copied in among them.
    """
    ts = np.asarray(ts, dtype=float)
    m, n = ts.size, net.w.size
    if not m:
        return np.empty((0, n)), np.empty((0, n))
    split, walks = 0, []
    if crossing is not None:
        t_star, line = crossing
        split = int(ts.searchsorted(t_star, side="right"))
    for sign, part in ((-1.0, ts[:split][::-1]), (1.0, ts[split:])):
        seed = None if crossing is None else (sign * t_star, _endpoint_seed(line, net.w, sign * dc))
        walks.append(_walk(net, c0, sign * dc, sign * part, seed))
    back, ahead = walks
    # the samples of both walks in walk order, in the line's own t and on the line's pieces;
    # rows j and m + j of X are x_min and x_max at walk sample j
    line_ts = np.concatenate((-back.ts, ahead.ts))
    owner = np.concatenate((back.owner, np.where(ahead.owner >= 0, ahead.owner + len(back.pieces), -1)))
    walked = (owner >= 0).nonzero()[0]
    pieces = back.pieces + ahead.pieces
    if walked.size == m:  # no cold answer yet: the certified rows are all the rows
        ok, X = _certify(net, c0, dc, line_ts, pieces, owner, len(back.pieces))
    else:
        X, ok = np.empty((2 * m, n)), np.zeros(0, dtype=bool)
        for j, eq in enumerate(back.out + ahead.out):
            if eq is not None:
                X[j], X[m + j] = eq.x_min, eq.x_max
        if walked.size:
            ok, rows = _certify(net, c0, dc, line_ts[walked], pieces, owner[walked], len(back.pieces))
            X[np.concatenate((walked, walked + m))] = rows
    for j in walked[~ok].tolist():
        eq = _point(net, c0 + line_ts[j] * dc)
        X[j], X[m + j] = eq.x_min, eq.x_max
    if split:  # the backward walk took the samples up to t_star in descending t
        X = np.concatenate((X[:split][::-1], X[split:m], X[m:m + split][::-1], X[m + split:]))
    return X[:m], X[m:]


def _walk(net: _Network, c0: np.ndarray, dc: np.ndarray, ts, seed: tuple[float, np.ndarray] | None) -> _Walk:
    """Walk c0 + t*dc over the ascending samples ts piece by piece
    (:func:`_pattern_piece`), checking nothing yet.

    seed is None or (t, y): a vector y = R'x + c whose saturation pattern
    the first piece takes as given from the path parameter t <= ts[0].
    Each piece makes one linear solve and a ratio test, which give its
    affine data, the samples it covers (those up to its first breakpoint)
    and where the next piece starts.  Where a piece gives up, more than 2n
    pieces in a row cover no sample, or there is no seed, :func:`_point`
    answers the sample cold and the next piece starts from that answer's
    own pattern.
    """
    ts = np.asarray(ts, dtype=float)
    pieces: list[_Piece] = []
    owner = np.empty(ts.size, dtype=int)
    owner.fill(-1)
    out: list[EquilibriumSet | None] = [None] * ts.size
    i = restarts = 0
    while i < ts.size:
        if seed is not None and restarts <= 2 * net.w.size:
            piece, covered, seed = _pattern_piece(net, c0, dc, *seed, ts[i:])
            if piece is not None:
                owner[i:i + covered] = len(pieces)
                pieces.append(piece)
                i += covered
                restarts = 0 if covered else restarts + 1
            continue
        c = c0 + ts[i] * dc
        out[i] = _point(net, c)
        seed, restarts = (ts[i], net.R.T @ out[i].x_min + c), 0
        i += 1
    return _Walk(ts, pieces, owner, out)


def _pattern_piece(net: _Network, c0: np.ndarray, dc: np.ndarray, t0: float, y: np.ndarray,
                   ts: np.ndarray) -> tuple[_Piece | None, int, tuple[float, np.ndarray] | None]:
    """The piece of the walk c0 + t*dc that the saturation pattern of y at
    t0 gives, the number of leading samples of ts it covers, and where the
    next piece starts (None where the walk goes on from a cold answer or
    has covered ts).  The piece is None when the pattern gives nothing.

    The pattern (Z = {y <= 0} at 0, U = {y >= w} at w, F the rest) gives
    x_F from (I - R'_FF) x_F = c_F + R'_FU w_U at t0; the same solve takes
    the mirrored system of w - x (Z at w, U at 0) and the direction dc_F
    as further columns.  The three demands are the rows of one (3, n)
    array, c = c0 + t0*dc, mirror - c and dc, whose transpose the solve
    takes.  The pattern is taken as given, from a guess or a
    known point (a segment endpoint, the last piece, a cold answer); a
    guess it does not fit at its own sample gives nothing, and the caller
    answers that sample cold.  On the piece x(t) = x(t0) + (t - t0)*dir on both
    sides (the mirrored direction is -dir exactly, so it needs no column).
    With stochastic R and Z, U both empty, I - R' is singular and the
    piece is skipped.

    y(t) = R'x(t) + c(t) is affine on the piece and must stay in the
    pattern's closed region lo <= y <= hi (:func:`_region`, read off the
    held columns before the solve fills the free cells), whose open
    sides are -inf and inf.  A ratio test on it (that of parametric LCP and
    homotopy methods) gives the parameter at which each cell reaches the
    bound it moves toward (:func:`_leave`); a cell already outside the
    region (:func:`_outside`) leaves at t0 unless it is back inside by
    ts[0].  The piece covers the samples up to the first crossing, and the
    next piece starts midway between that crossing and the next one (or
    the next sample), where y shows the pattern past the breakpoint.
    """
    R_t, w = net.R.T, net.w
    zero, cap = y <= 0.0, y >= w
    free = ~(zero | cap)
    # the ufunc reductions that .min() and .sum() call, and np.count_nonzero
    # for .any() and .all() of a mask, without their dispatch cost
    if net.stochastic and np.count_nonzero(free) == free.size:
        return None, 0, None
    # row 0 is the demand of the system for x, row 1 the mirrored one for w - x, row 2 the direction
    demands = np.empty((3, w.size))
    c = np.multiply(dc, t0, out=demands[0])
    c += c0  # the bits of c0 + t0*dc
    np.subtract(net.mirror, c, out=demands[1])
    demands[2] = dc
    held = np.zeros((w.size, 3))
    np.multiply(w, cap, out=held[:, 0])
    np.multiply(w, zero, out=held[:, 1])
    lo, hi = _region(zero, cap, w, held)
    if not _solve_free(R_t, free, demands.T, held):
        return None, 0, None
    y = R_t @ held[:, 0] + c
    slope = R_t @ held[:, 2] + dc
    leave = _leave(y, slope, lo, hi)
    leave += t0
    # a cell outside its region (the seed's pattern is not re-read) leaves
    # at t0, unless the line brings it back by ts[0], as it does a held
    # cell that rounding puts just past its bound
    outside = _outside(y, lo, hi)
    if np.count_nonzero(outside):
        if ts[0] == t0:
            return None, 0, None  # the guess does not fit its own sample
        leave[outside & _outside(y + (ts[0] - t0) * slope, lo, hi)] = t0
    first = np.minimum.reduce(leave)
    piece = _Piece(t0, lo, hi, held)
    covered = int(ts.searchsorted(first, side="right"))
    if covered == ts.size:
        return piece, covered, None
    t_next = 0.5 * (first + min(np.minimum.reduce(leave[leave > first], initial=np.inf), ts[covered]))
    return piece, covered, (t_next, y + (t_next - t0) * slope)


def _region(zero: np.ndarray, cap: np.ndarray, w: np.ndarray,
            held: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """The bounds lo <= y <= hi of the closed region of y = R'x + c in the
    pattern that holds zero at 0, cap at w and frees the rest: y <= 0 held
    at 0, y >= w held at w, 0 <= y <= w free, with -inf and inf on the
    open sides.  For x that solves the pattern, y in it is exactly x = T(x).
    held holds the pattern's held values in its first two columns, w*cap
    for x and w*zero for the mirrored w - x, as :func:`_pattern_piece`
    fills them before its solve; lo is w*cap off zero and hi is
    w - w*zero off cap, the bits of w or 0.0 (w > 0)."""
    if held is None:
        held = np.stack((w * cap, w * zero), axis=1)
    return np.where(zero, -np.inf, held[:, 0]), np.where(cap, np.inf, w - held[:, 1])


def _outside(y: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The cells where y leaves its closed region [lo, hi]; rows of y may take rows of lo and hi."""
    return (y < lo) | (y > hi)


def _leave(y: np.ndarray, slope: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """dt at which each cell of the line y + dt*slope reaches the bound of
    [lo, hi] that it moves toward, hi where it rises and lo where it falls,
    and inf where that bound is open or the cell does not move.  From y
    outside the region the bound it moves toward may lie behind it, at a
    negative dt."""
    leave = np.empty(y.shape)
    leave.fill(np.inf)  # np.full, without its dispatch cost
    return np.divide(np.where(slope > 0.0, hi, lo) - y, slope, out=leave, where=slope != 0.0)


def _certify(net: _Network, c0: np.ndarray, dc: np.ndarray, ts: np.ndarray, pieces: list[_Piece],
             k: np.ndarray, back: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Whether sample ts[j] on piece pieces[k[j]] is certified, and x_min,
    x_max there clamped onto [0, w]: rows j and m + j of one (2m, n) array
    for m samples, in one vectorised pass.

    The first back pieces were walked backward, along -dc at -t: their t0
    and direction are negated on the stacked arrays before the samples
    take them, which is exact, so each gives the same x at its demand to
    the bit as the line's own piece would.  A sample is accepted only if
    R'x_min + c is in the closed region of the piece's pattern, both
    residuals ||T(x) - x||_1 are below _FIXED_POINT_TOL and x_min, x_max
    agree within POINT_AGREEMENT_TOL, each times max(1, |w|_inf).  Each
    step of the pass works in place on the array of x_min and x_max or on
    R'x + c, and the clamp comes last, after every check.
    """
    R, w = net.R, net.w
    t0, lo, hi, held = (np.array(column) for column in zip(*pieces))
    if back:
        np.negative(t0[:back], out=t0[:back])
        np.negative(held[:back, :, 2], out=held[:back, :, 2])
    t0, lo, hi, held = t0[k], lo[k], hi[k], held[k]
    m = ts.size
    step = (ts - t0)[:, None] * held[:, :, 2]
    X = np.empty((2 * m, w.size))
    np.add(held[:, :, 0], step, out=X[:m])
    np.subtract(w, held[:, :, 1], out=X[m:])
    X[m:] += step
    C = c0 + ts[:, None] * dc  # the same bits as c0 + t*dc per sample
    Y = X @ R  # R'x of each row
    Y[:m] += C
    Y[m:] += C
    ok = ~np.logical_or.reduce(_outside(Y[:m], lo, hi), axis=1)
    scale = tolerance_scale(w)
    tol = _FIXED_POINT_TOL * scale
    # the residual |clip(R'x + c, 0, w) - x| of each row, in Y
    np.maximum(Y, 0.0, out=Y)
    np.minimum(Y, w, out=Y)
    Y -= X
    np.abs(Y, out=Y)
    residual = np.add.reduce(Y, axis=1)
    ok &= (residual[:m] < tol) & (residual[m:] < tol)
    ok &= np.add.reduce(np.abs(X[m:] - X[:m]), axis=1) <= POINT_AGREEMENT_TOL * scale
    np.maximum(X, 0.0, out=X)
    np.minimum(X, w, out=X)
    return ok, X


def _endpoint_seed(line, w: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """A seed for a walk c* + t*dc that leaves a critical demand c*
    (:func:`_points`): R'x + c* = x at the segment endpoint the walk
    leaves, x_max when the total demand rises (sum(dc) > 0) and x_min when
    it falls, from the line data (pi, Hc, alpha_min, alpha_max) of c*, with
    the cell that bounds alpha put exactly on its bound.  Its pattern holds
    that cell at w or at 0 and frees the rest, the pattern the unique
    equilibrium has next to the endpoint when no other cell is on a bound.
    """
    pi, hc, alpha_min, alpha_max = line
    if np.add.reduce(dc) > 0:
        y = hc + alpha_max * pi
        cell = ((w - hc) / pi).argmin()
        y[cell] = w[cell]
    else:
        y = hc + alpha_min * pi
        cell = (hc / pi).argmin()
        y[cell] = 0.0
    return y


def _agreement(Y: np.ndarray, w: np.ndarray) -> bytes | None:
    """The saturation pattern that both rows of :func:`_point`'s Y show, as
    the bytes of its masks Z and U, or None where they differ.

    Row 0 is R'x + c of the lower iterate, and R'x + c of the upper one is
    w minus row 1, so the upper one has Z where row 1 is >= w and U where it
    is <= 0.  Both bound R'x + c at every equilibrium, entry by entry, so a
    cell in the same one of Z, U and the free cells on both sides is there
    at every equilibrium too."""
    zero = Y[0] <= 0.0
    if np.count_nonzero(zero != (Y[1] >= w)):
        return None
    cap = Y[0] >= w
    if np.count_nonzero(cap != (Y[1] <= 0.0)):
        return None
    return zero.tobytes() + cap.tobytes()


def _end(net: _Network, c: np.ndarray, side: int, y: np.ndarray, steps: int, moving: bool) -> np.ndarray:
    """x_min (side 0) or x_max (side 1) at demand c from its side's last
    warm-up iterate y, mirrored to w - x for side 1, after steps Picard
    steps of :func:`_point`: y itself where the warm-up stopped, else the
    least fixed point that :func:`_climb` reaches from it, certified by its
    residual ||T(x) - x||_1."""
    R_t, w = net.R.T, net.w
    b = c if side == 0 else net.mirror - c
    rounds = solves = 0
    if moving:
        y, rounds, solves = _climb(net, b, y)
    x = y if side == 0 else w - y
    residual = float(np.abs(np.clip(R_t @ x + c, 0.0, w) - x).sum())
    bound = _FIXED_POINT_TOL * tolerance_scale(w)
    if not residual < bound:
        raise NumericalError(
            f"x_{('min', 'max')[side]} residual {residual:.3g} not within {bound:.3g} after {steps} "
            f"Picard steps, {rounds} pattern rounds and {solves} linear solves"
        )
    return x


def _climb(net: _Network, c: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Least fixed point of T(x) = clip(R'x + c, 0, w) from a subsolution
    0 <= x <= T(x), with the number of rounds and of linear solves.

    Each round holds the cells Z = {(R'x + c)_i <= 0} at 0 and solves
    v = min(w, R'v + c) on the others by Howard's iteration: the policy U
    is the set of cells at w, v_U = w_U and (I - R'_FF) v_F = c_F + R'_FU w_U
    on the free cells F, and U <- {(R'v + c)_i >= w_i} until U repeats.
    v is a subsolution below every fixed point and above x, so Z only
    shrinks, and when it stays the same v is the least fixed point.  With
    stochastic R and Z empty, U empty would make I - R'_FF singular; the
    cell with the largest (R'x + c)_i - w_i is held at w instead.
    """
    R_t, w, n = net.R.T, net.w, net.w.size
    y = R_t @ x + c
    zero = y <= 0
    solves = 0
    for rounds in range(1, n + 2):
        live = ~zero
        cap = _cap_policy(net, live, y)
        for _ in range(n + 1):
            solves += 1
            free = live & ~cap
            x = np.where(cap, w, 0.0)
            if not _solve_free(R_t, free, c, x):
                raise NumericalError(f"pattern solve on {np.count_nonzero(free)} free cells failed: singular matrix")
            y = R_t @ x + c
            new_cap = _cap_policy(net, live, y)
            if np.array_equal(new_cap, cap):
                break
            cap = new_cap
        kept = zero & (y <= 0)
        if np.array_equal(kept, zero):
            break
        zero = kept
    return x, rounds, solves


def _solve_free(R_t: np.ndarray, free: np.ndarray, b: np.ndarray, x: np.ndarray) -> bool:
    """Solve (I - R'_FF) x_F = b_F + R'_FH x_H into the free cells of x
    (0 on entry), each column of b and x one system, the held cells H
    taken from x; False, x unchanged, if I - R'_FF is singular."""
    cells = free.nonzero()[0]  # one index for the four gathers, not a mask read four times
    rows = R_t[cells]
    A = rows[:, cells]
    np.negative(A, out=A)  # in place: no second block of |F| x |F|
    A.flat[:: cells.size + 1] += 1.0
    try:
        x[cells] = np.linalg.solve(A, b[cells] + rows @ x)
    except np.linalg.LinAlgError:
        return False
    return True


def _cap_policy(net: _Network, live: np.ndarray, y: np.ndarray) -> np.ndarray:
    cap = live & (y >= net.w)
    if net.stochastic and live.all() and not cap.any():
        cap[np.argmax(y - net.w)] = True
    return cap
