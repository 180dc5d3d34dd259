"""Demand-path sweeps and phase-transition detection.

The demand vectors with multiple equilibria (the critical set) are, for
stochastic irreducible routing, exactly those that are zero-sum and have a
positive segment-length condition value.  Crossing that set along a demand
path produces a jump discontinuity in the asymptotic state: the unique
equilibrium approaches the segment's lower endpoint from one side and its
upper endpoint from the other.

Away from the critical set the unique equilibrium moves piecewise
affinely in c, with a fixed saturation pattern on each piece.  Each entry
point builds the classified network of :mod:`satflow.equilibria` once,
and its rule decides which samples are walked one piece at a time: the
cold solver answers the first, one checked linear solve gives every
sample of a piece, and a breakpoint between samples starts the next
piece.  The other samples take the cold solver.  Past a jump the walk
starts again from the segment endpoint the path leaves.  The answers are
those of :func:`satflow.equilibria.equilibrium_set` at each demand, up to
rounding.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .equilibria import (
    SEGMENT,
    EquilibriumSet,
    _endpoint_seed,
    _equilibrium,
    _line,
    _Network,
    _network,
    _points_along,
    _segment,
)
from .model import NetworkSpec, is_zero_sum, validate, zero_sum_tol

#: condition values at most this times |w|_1 are flagged marginal, not
#: classified; the condition value is the l1 length of the segment, so the
#: flag does not depend on units
MARGINAL_TOL = 1e-10

#: bisection refinement for critical-point location in path parameter s
BISECT_TOL = 1e-9


@dataclass
class DemandPath:
    """Affine demand path c(s) = c_start + s*(c_end - c_start), s in [0, 1],
    evaluated on a uniform grid of ``samples`` points."""

    c_start: np.ndarray
    c_end: np.ndarray
    samples: int

    def __post_init__(self):
        self.c_start = np.asarray(self.c_start, dtype=float)
        self.c_end = np.asarray(self.c_end, dtype=float)
        if self.c_start.shape != self.c_end.shape or self.c_start.ndim != 1:
            raise ValueError("c_start and c_end must be 1-d vectors of equal length")
        if self.samples < 2:
            raise ValueError("samples must be at least 2")

    def c_at(self, s: float) -> np.ndarray:
        return self.c_start + s * (self.c_end - self.c_start)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(0.0, 1.0, self.samples)


@dataclass
class SweepRow:
    s: float
    c: np.ndarray
    kind: str
    x_min: np.ndarray
    x_max: np.ndarray
    condition_value: float | None
    on_manifold: bool
    marginal: bool = False


@dataclass
class SweepResult:
    rows: list[SweepRow]
    critical_points: list[dict] = field(default_factory=list)  # {"s_lo", "s_hi"}
    jumps: list[dict] = field(default_factory=list)  # {"s", "magnitude"}
    unresolved: list[dict] = field(default_factory=list)  # brackets we could not attribute


def on_critical_manifold(R: np.ndarray, w: np.ndarray, c: np.ndarray) -> bool:
    """True iff c is zero-sum (within :func:`satflow.model.zero_sum_tol`)
    and the condition value is positive.

    The routing matrix is classified once; the condition value of the
    zero-sum projection c - mean(c) comes from the same line data as in
    :func:`satflow.equilibria.equilibrium_set`.
    """
    spec = validate(NetworkSpec(routing=R, capacity=w, demand=c))
    return _critical_line(_network(spec.routing, spec.capacity, "on_critical_manifold"), spec.demand) is not None


def _critical_line(net: _Network, c: np.ndarray):
    """The line data (pi, Hc, alpha_min, alpha_max) of the zero-sum
    projection of c when c is on the critical set of a stochastic net, else None."""
    if not is_zero_sum(c):
        return None
    line = _line(net, c)
    return line if line[3] - line[2] > 0 else None


def _jump(net: _Network, line) -> float:
    """l1 length of the segment at a demand on the critical set, from the
    line data of :func:`_critical_line`."""
    seg = _segment(net, *line)
    return float(np.abs(seg.x_max - seg.x_min).sum())


def _row(s, c, eq: EquilibriumSet, marginal_tol: float) -> SweepRow:
    value = eq.condition_value
    return SweepRow(
        s=float(s),
        c=c,
        kind=eq.kind,
        x_min=eq.x_min,
        x_max=eq.x_max,
        condition_value=value,
        on_manifold=eq.kind == SEGMENT,
        marginal=value is not None and abs(value) <= marginal_tol,
    )


def sweep(R: np.ndarray, w: np.ndarray, path: DemandPath) -> SweepResult:
    """Classify the equilibrium set along a demand path and locate crossings.

    The routing matrix is classified once for the whole path, and each grid
    sample gets the equilibrium set
    :func:`satflow.equilibria.equilibrium_set` would give.  The samples
    with a unique equilibrium off the zero-sum hyperplane are walked one
    saturation pattern at a time from the first of them, which the cold
    solver answers (see :mod:`satflow.equilibria`).  Where the path
    crosses the critical set, at s*, the walk stops and starts again past
    the jump from the segment endpoint the path leaves: x_max when the
    total demand rises, x_min when it falls.  Zero-sum samples and
    reducible routing take the cold path one sample at a time.

    On an affine path the total demand sum(c(s)) is affine in s, so the
    only codimension-1 event is its zero crossing, located by one exact
    linear solve and confirmed by the condition-value test, whose line
    data also give the jump size and the far side's seed.
    Flips of the manifold indicator not attributable to a zero-sum crossing
    are bisected on the indicator itself (paths inside the zero-sum
    hyperplane); anything else is reported unresolved, never guessed.
    """
    spec = validate(NetworkSpec(routing=R, capacity=w, demand=path.c_start))
    validate(NetworkSpec(routing=spec.routing, capacity=spec.capacity, demand=path.c_end))
    net = _network(spec.routing, spec.capacity)
    grid = path.grid
    sig0 = float(path.c_start.sum())
    sig1 = float(path.c_end.sum())
    slope = sig1 - sig0
    scale_tol = zero_sum_tol(path.c_start) + zero_sum_tol(path.c_end)
    s_star = line = None
    if net.stochastic and abs(slope) > scale_tol and -BISECT_TOL <= -sig0 / slope <= 1 + BISECT_TOL:
        s_star = min(max(-sig0 / slope, 0.0), 1.0)
        line = _critical_line(net, path.c_at(s_star))

    cs = [path.c_at(s) for s in grid]
    eqs: list[EquilibriumSet | None] = [None] * grid.size
    walked = []  # the samples with a unique equilibrium off the zero-sum hyperplane
    for i, c in enumerate(cs):
        if net.walkable(c):
            walked.append(i)
        else:
            eqs[i] = _equilibrium(net, c)
    runs = [(walked, None)]
    if line is not None:
        # past the jump the equilibrium leaves the segment's upper end when
        # the total demand rises and its lower end when it falls
        split = sum(1 for i in walked if grid[i] <= s_star)
        runs = [(walked[:split], None), (walked[split:], (s_star, _endpoint_seed(line, net.w, upper=slope > 0)))]
    for run, seed in runs:
        points = _points_along(net, path.c_start, path.c_end - path.c_start, grid[run], seed)
        for i, eq in zip(run, points):
            eqs[i] = eq
    marginal_tol = MARGINAL_TOL * float(net.w.sum())
    rows = [_row(s, c, eq, marginal_tol) for s, c, eq in zip(grid, cs, eqs)]
    result = SweepResult(rows=rows)
    if not net.stochastic:
        return result  # no critical set for these routing classes

    ds = grid[1] - grid[0]
    handled: list[float] = []

    if s_star is not None:
        result.critical_points.append({"s_lo": max(0.0, s_star - ds), "s_hi": min(1.0, s_star + ds)})
        if line is not None:
            result.jumps.append({"s": s_star, "magnitude": _jump(net, line)})
        handled.append(s_star)
    elif abs(slope) <= scale_tol:
        # path parallel to the zero-sum hyperplane
        if abs(sig0) <= scale_tol and np.allclose(path.c_start, path.c_end) and rows[0].on_manifold:
            # degenerate constant path sitting on the critical set
            result.critical_points.append({"s_lo": 0.0, "s_hi": 0.0})
            result.jumps.append({"s": 0.0, "magnitude": _jump(net, _critical_line(net, path.c_at(0.0)))})
            handled.append(0.0)

    for i in range(len(grid) - 1):
        changed = (rows[i].kind != rows[i + 1].kind) or (rows[i].on_manifold != rows[i + 1].on_manifold)
        if not changed:
            continue
        if any(grid[i] - BISECT_TOL <= s <= grid[i + 1] + BISECT_TOL for s in handled):
            continue
        bracket = {"s_lo": float(grid[i]), "s_hi": float(grid[i + 1])}
        if abs(slope) <= scale_tol and abs(sig0) <= scale_tol:
            # within the hyperplane: bisect the manifold indicator itself
            lo, hi = float(grid[i]), float(grid[i + 1])
            flag_lo = rows[i].on_manifold
            while hi - lo > BISECT_TOL:
                mid = 0.5 * (lo + hi)
                if (_critical_line(net, path.c_at(mid)) is not None) == flag_lo:
                    lo = mid
                else:
                    hi = mid
            s_star = hi if not flag_lo else lo
            result.critical_points.append(bracket)
            result.jumps.append({"s": s_star, "magnitude": _jump(net, _critical_line(net, path.c_at(s_star)))})
        else:
            # a kind flip with no zero-sum crossing in the bracket: refuse to guess
            result.unresolved.append(bracket)
    return result


@dataclass
class DirectionalLimits:
    """One-sided equilibrium limits at a critical demand vector.

    from_below / from_above are the unique equilibria at the smallest
    probed offset; table keeps every (epsilon, x_below, x_above) triple for
    convergence diagnostics.
    """

    from_below: np.ndarray
    from_above: np.ndarray
    table: list[tuple[float, np.ndarray, np.ndarray]]


def directional_limits(
    R: np.ndarray,
    w: np.ndarray,
    c_star: np.ndarray,
    direction: np.ndarray,
    epsilons: tuple[float, ...] = (1e-2, 1e-3, 1e-4),
) -> DirectionalLimits:
    """Probe the jump at a critical demand vector from both sides.

    The direction must have positive total sum so that c_star +/- eps*d
    leaves the zero-sum hyperplane, where the equilibrium is unique.  As
    eps shrinks, the equilibrium below approaches the segment's lower
    endpoint and the one above its upper endpoint.

    The routing matrix is classified once.  Each side is one walk along
    c_star +/- t*d with t rising through the epsilons, from the smallest up
    (see :mod:`satflow.equilibria`): its first pattern is that of the
    segment endpoint it approaches (x_min below, x_max above, from the line
    data of c_star), so for small epsilons one linear solve certifies them
    all; a breakpoint between two epsilons starts a new piece, and a piece
    that does not certify falls back to the cold solver.
    """
    d = np.asarray(direction, dtype=float)
    spec = validate(NetworkSpec(routing=R, capacity=w, demand=c_star))
    net = _network(spec.routing, spec.capacity, "directional_limits")
    line = _critical_line(net, spec.demand)
    if line is None:
        raise PreconditionError("c_star is not on the critical set")
    if d.shape != (spec.n,) or not np.all(np.isfinite(d)) or d.sum() <= 0:
        raise PreconditionError(f"direction must be a finite vector of length {spec.n} with positive total sum")
    eps_list = sorted(set(float(e) for e in epsilons), reverse=True)
    if not eps_list or eps_list[-1] <= 0:
        raise PreconditionError("epsilons must be positive")

    for eps in eps_list:
        for sign in (-1.0, 1.0):
            if is_zero_sum(spec.demand + sign * eps * d):
                raise PreconditionError(f"perturbed demand at eps={eps:g} is unexpectedly zero-sum")
    ts = eps_list[::-1]
    below = _points_along(net, spec.demand, -d, ts, (0.0, _endpoint_seed(line, net.w, upper=False)))
    above = _points_along(net, spec.demand, d, ts, (0.0, _endpoint_seed(line, net.w, upper=True)))
    table = [(eps, lo.x_min, hi.x_min) for eps, lo, hi in zip(eps_list, below[::-1], above[::-1])]
    return DirectionalLimits(from_below=table[-1][1], from_above=table[-1][2], table=table)
