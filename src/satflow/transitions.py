"""Demand-path sweeps and phase-transition detection.

The demand vectors with multiple equilibria (the critical set) are, for
stochastic irreducible routing, exactly those that are zero-sum and have a
positive segment-length condition value.  Crossing that set along a demand
path produces a jump discontinuity in the asymptotic state: the unique
equilibrium approaches the segment's lower endpoint from one side and its
upper endpoint from the other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import PreconditionError
from .equilibria import POINT, SEGMENT, EquilibriumSet, _line, equilibrium_set
from .model import (
    STOCHASTIC_IRREDUCIBLE,
    NetworkSpec,
    classify_routing,
    is_zero_sum,
    validate,
    zero_sum_tol,
)

#: condition values this close to zero are flagged marginal, not classified
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


def on_critical_manifold(R: np.ndarray, w: np.ndarray, c: np.ndarray, tol: float | None = None) -> bool:
    """True iff c is zero-sum (within tol) and the condition value is positive.

    The routing matrix is classified once; the condition value of the
    zero-sum projection c - mean(c) comes from the same line data as in
    :func:`satflow.equilibria.equilibrium_set`.
    """
    c = np.asarray(c, dtype=float)
    spec = validate(NetworkSpec(routing=R, capacity=w, demand=c))
    cls = classify_routing(spec.routing)
    if cls.tag != STOCHASTIC_IRREDUCIBLE:
        raise PreconditionError(f"on_critical_manifold requires stochastic irreducible routing ({cls.tag})")
    if tol is None:
        tol = zero_sum_tol(c)
    if abs(c.sum()) > tol:
        return False
    line = _line(NetworkSpec(routing=spec.routing, capacity=spec.capacity, demand=c - c.sum() / c.size))
    return line is not None and line[3] - line[2] > 0


def _eval_sample(R, w, s, c) -> SweepRow:
    eq = equilibrium_set(NetworkSpec(routing=R, capacity=w, demand=c))
    value = eq.condition_value
    return SweepRow(
        s=float(s),
        c=c,
        kind=eq.kind,
        x_min=eq.x_min,
        x_max=eq.x_max,
        condition_value=value,
        on_manifold=eq.kind == SEGMENT,
        marginal=value is not None and abs(value) <= MARGINAL_TOL,
    )


def _jump_at(R, w, c_star) -> float:
    eq = equilibrium_set(NetworkSpec(routing=R, capacity=w, demand=c_star))
    return float(np.abs(eq.x_max - eq.x_min).sum())


def sweep(R: np.ndarray, w: np.ndarray, path: DemandPath) -> SweepResult:
    """Classify the equilibrium set along a demand path and locate crossings.

    Every grid sample is evaluated with :func:`equilibrium_set`.  On an
    affine path the total demand sum(c(s)) is affine in s, so the only
    codimension-1 event is its zero crossing, located by one exact linear
    solve and confirmed by the condition-value test.  Flips of the manifold
    indicator not attributable to a zero-sum crossing are bisected on the
    indicator itself (paths inside the zero-sum hyperplane); anything else
    is reported unresolved, never guessed.
    """
    R = np.asarray(R, dtype=float)
    w = np.asarray(w, dtype=float)
    validate(NetworkSpec(routing=R, capacity=w, demand=path.c_start))
    validate(NetworkSpec(routing=R, capacity=w, demand=path.c_end))

    grid = path.grid
    rows = [_eval_sample(R, w, s, path.c_at(s)) for s in grid]
    result = SweepResult(rows=rows)
    if classify_routing(R).tag != STOCHASTIC_IRREDUCIBLE:
        return result  # no critical set for these routing classes

    sig0 = float(path.c_start.sum())
    sig1 = float(path.c_end.sum())
    slope = sig1 - sig0
    scale_tol = zero_sum_tol(path.c_start) + zero_sum_tol(path.c_end)
    ds = grid[1] - grid[0]
    handled: list[float] = []

    if abs(slope) > scale_tol:
        s_star = -sig0 / slope
        if -BISECT_TOL <= s_star <= 1 + BISECT_TOL:
            s_star = min(max(s_star, 0.0), 1.0)
            c_star = path.c_at(s_star)
            result.critical_points.append(
                {"s_lo": max(0.0, s_star - ds), "s_hi": min(1.0, s_star + ds)}
            )
            if on_critical_manifold(R, w, c_star):
                result.jumps.append({"s": s_star, "magnitude": _jump_at(R, w, c_star)})
            handled.append(s_star)
    else:
        # path parallel to the zero-sum hyperplane
        if abs(sig0) <= scale_tol and np.allclose(path.c_start, path.c_end) and rows[0].on_manifold:
            # degenerate constant path sitting on the critical set
            result.critical_points.append({"s_lo": 0.0, "s_hi": 0.0})
            result.jumps.append({"s": 0.0, "magnitude": _jump_at(R, w, path.c_at(0.0))})
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
                if on_critical_manifold(R, w, path.c_at(mid)) == flag_lo:
                    lo = mid
                else:
                    hi = mid
            s_star = hi if not flag_lo else lo
            result.critical_points.append(bracket)
            result.jumps.append({"s": s_star, "magnitude": _jump_at(R, w, path.c_at(s_star))})
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
    """
    R = np.asarray(R, dtype=float)
    w = np.asarray(w, dtype=float)
    c_star = np.asarray(c_star, dtype=float)
    d = np.asarray(direction, dtype=float)
    if not on_critical_manifold(R, w, c_star):
        raise PreconditionError("c_star is not on the critical set")
    if np.all(d == 0) or d.sum() <= 0:
        raise PreconditionError("direction must be nonzero with positive total sum")
    eps_list = sorted(set(float(e) for e in epsilons), reverse=True)
    if not eps_list or eps_list[-1] <= 0:
        raise PreconditionError("epsilons must be positive")

    table = []
    for eps in eps_list:
        pair = []
        for sign in (-1.0, 1.0):
            c = c_star + sign * eps * d
            if is_zero_sum(c):
                raise PreconditionError(f"perturbed demand at eps={eps:g} is unexpectedly zero-sum")
            eq = equilibrium_set(NetworkSpec(routing=R, capacity=w, demand=c))
            if eq.kind != POINT:
                raise PreconditionError(f"perturbed demand at eps={eps:g} does not have a unique equilibrium")
            pair.append(eq.x_min)
        table.append((eps, pair[0], pair[1]))
    return DirectionalLimits(from_below=table[-1][1], from_above=table[-1][2], table=table)
