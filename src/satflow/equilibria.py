"""Equilibrium computation and classification.

Equilibria of the saturated flow dynamics are exactly the fixed points of
the monotone map T(x) = clip(R'x + c, 0, w).  The least one, x_min, and the
greatest one, x_max, bound every other.

When the equilibrium is unique (a Point) both are computed exactly by a
finite pattern iteration.  Up to n Picard steps from 0 give a subsolution
x <= T(x); if they converge, that is the answer.  Otherwise the cells with
(R'x + c)_i <= 0 are held at 0 and Howard's policy iteration solves the
one-obstacle problem v = min(w, R'v + c) on the rest: a policy is the set
of cells at w, and the free cells F solve one linear system with the
M-matrix I - R'_FF.  The solution is again a subsolution below every fixed
point, so the cells held at 0 only ever leave, and when none leaves the
iterate is x_min.  x_max is the same climb in the mirrored coordinates
y = w - x.  Every result is certified by its residual ||T(x) - x||_1.
Picard iteration to convergence (picard_min, picard_max) is kept for the
reducible MinMaxOnly class and as a test oracle.

A caller that solves many demands on one routing matrix (a demand sweep)
classifies it once and may pass a guess, usually the equilibrium at a
nearby demand.  The guess is used only where the class guarantees a
unique equilibrium: sub-stochastic out-connected routing, or stochastic
irreducible routing with a demand that is not zero-sum.  Its pattern
(Z = {R'x + c <= 0} at 0, U = {R'x + c >= w} at w, the rest free) gives
one linear solve of the free cells, with the mirrored system as a second
right-hand side, re-read from the new iterate a few times if it moved.
The answer is accepted only if its own pattern reproduces Z and U, its
residual certifies, and the mirrored solution agrees with it; otherwise
the cold pattern iteration above runs unchanged.

For stochastic irreducible routing with zero-sum demand the full set of
equilibria is known analytically: it is the line {Hc + a*pi} intersected
with the lattice, a segment with positive length iff

    min_i (Hc)_i/pi_i + min_i (w_i - (Hc)_i)/pi_i > 0.

That left-hand side (the "condition value") also equals the l1 length of
the segment, since pi is a probability vector.

Tolerances on equilibria scale with max(1, |w|_inf), because (kw, kc) has
k times the equilibria of (w, c); at unit scale they are the bare
constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, PreconditionError
from .model import (
    ROW_SUM_TOL,
    STOCHASTIC_IRREDUCIBLE,
    SUBSTOCHASTIC_OUT_CONNECTED,
    NetworkSpec,
    _pi_and_h,
    classify_routing,
    is_zero_sum,
    row_sums,
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

# pattern solves a guess may take before _pattern_point gives up
_GUESS_ROUNDS = 3


class PicardResult(NamedTuple):
    x: np.ndarray
    converged: bool
    iterations: int
    residual: float


@dataclass
class EquilibriumSet:
    """Either a unique equilibrium, an analytic segment, or a min/max pair.

    kind == SEGMENT carries the line data: x_min = hc + alpha_min*pi and
    x_max = hc + alpha_max*pi.  kind == MINMAX_ONLY (reducible stochastic
    routing) makes no claim about the set between x_min and x_max.
    condition_value is present whenever the demand is zero-sum on a
    stochastic irreducible network.
    """

    kind: str
    x_min: np.ndarray
    x_max: np.ndarray
    hc: np.ndarray | None = None
    pi: np.ndarray | None = None
    alpha_min: float | None = None
    alpha_max: float | None = None
    condition_value: float | None = None

    def distance_l1(self, x: np.ndarray) -> float:
        """l1 distance from x to the equilibrium set (segment or point).

        On a segment the distance at line parameter a is
        sum_i pi_i |(x_i - hc_i)/pi_i - a|, a convex function minimised by
        the pi-weighted median of (x_i - hc_i)/pi_i; clamped to
        [alpha_min, alpha_max] it gives the nearest point of the segment.
        """
        x = np.asarray(x, dtype=float)
        if self.kind != SEGMENT:
            return float(np.abs(x - self.x_min).sum())
        t = (x - self.hc) / self.pi
        order = np.argsort(t)
        weight = np.cumsum(self.pi[order])
        median = t[order[np.searchsorted(weight, 0.5 * weight[-1])]]
        a = min(max(median, self.alpha_min), self.alpha_max)
        return float(np.abs(x - (self.hc + a * self.pi)).sum())


def _picard(spec: NetworkSpec, x0: np.ndarray, increment_tol: float = 1e-12,
            max_iter: int = 10**6) -> PicardResult:
    R_t = spec.routing.T
    w, c = spec.capacity, spec.demand
    x = x0.astype(float).copy()
    for k in range(1, max_iter + 1):
        x_new = np.minimum(np.maximum(R_t @ x + c, 0.0), w)  # np.clip, without its dispatch cost
        increment = float(np.abs(x_new - x).sum())
        x = x_new
        if increment < increment_tol:
            return PicardResult(x, True, k, increment)
    return PicardResult(x, False, max_iter, increment)


def picard_min(spec: NetworkSpec, increment_tol: float = 1e-12, max_iter: int = 10**6) -> PicardResult:
    """Minimal equilibrium via the nondecreasing iteration from x = 0.

    The increment of the monotone iteration is exactly the fixed-point
    residual ||T(x) - x||_1, so the stopping rule doubles as the residual
    certificate.  On budget exhaustion the best iterate is returned with
    converged=False.
    """
    return _picard(spec, np.zeros(spec.n), increment_tol, max_iter)


def picard_max(spec: NetworkSpec, increment_tol: float = 1e-12, max_iter: int = 10**6) -> PicardResult:
    """Maximal equilibrium via the nonincreasing iteration from x = w."""
    return _picard(spec, spec.capacity, increment_tol, max_iter)


def _line(spec: NetworkSpec) -> tuple[np.ndarray, np.ndarray, float, float]:
    """(pi, Hc, alpha_min, alpha_max) of the zero-sum projection c - mean(c)
    of the demand, for stochastic irreducible routing.

    The line {Hc + a*pi} meets the lattice for a in [alpha_min, alpha_max];
    the condition value is alpha_max - alpha_min.  Callers decide whether
    the demand is zero-sum.
    """
    c = spec.demand
    pi, hc = _pi_and_h(spec.routing, c - c.sum() / spec.n)
    return pi, hc, float(-np.min(hc / pi)), float(np.min((spec.capacity - hc) / pi))


def multiplicity_test(spec: NetworkSpec) -> tuple[float | None, bool]:
    """Evaluate the segment-length condition for stochastic irreducible routing.

    Returns (value, value > 0) where value is
    min_i (Hc)_i/pi_i + min_i (w_i - (Hc)_i)/pi_i, or (None, False) when
    the demand is not zero-sum (interior equilibria require sum(c) = 0, so
    the condition is undefined off the hyperplane).
    """
    cls = classify_routing(spec.routing)
    if cls.tag != STOCHASTIC_IRREDUCIBLE:
        raise PreconditionError(f"multiplicity_test requires stochastic irreducible routing ({cls.tag})")
    if not is_zero_sum(spec.demand):
        return None, False
    line = _line(spec)
    value = line[3] - line[2]
    return value, value > 0


def equilibrium_set(spec: NetworkSpec) -> EquilibriumSet:
    """Compute and classify the full equilibrium set of a validated spec.

    * stochastic irreducible, zero-sum demand, positive condition value ->
      the analytic segment;
    * stochastic irreducible otherwise, or sub-stochastic out-connected ->
      a unique point: x_min and x_max each by the exact pattern iteration
      of the module docstring, certified by their residuals and
      cross-checked against each other;
    * reducible routing -> only the min/max pair from Picard iteration, no
      claim in between.

    The routing matrix is classified once.  On zero-sum demand pi and Hc
    come from one square solve with M = I - R' + 1 1' and two right-hand
    sides, and feed both the condition value and the segment.
    """
    return _equilibrium(spec, classify_routing(spec.routing).tag)


def _equilibrium(spec: NetworkSpec, tag: str, guess: np.ndarray | None = None) -> EquilibriumSet:
    """:func:`equilibrium_set` for routing already classified as ``tag``.

    A guess is tried by :func:`_pattern_point` only where the equilibrium
    is unique and not zero-sum (see the module docstring); everywhere
    else, and whenever the guess does not certify, the cold path runs.
    """
    if tag == STOCHASTIC_IRREDUCIBLE:
        if is_zero_sum(spec.demand):
            pi, hc, alpha_min, alpha_max = _line(spec)
            value = alpha_max - alpha_min
            if value > 0:
                return _segment(spec, pi, hc, alpha_min, alpha_max)
            return _point(spec, condition_value=value)
    elif tag != SUBSTOCHASTIC_OUT_CONNECTED:
        return _min_max_only(spec)
    if guess is not None:
        found = _pattern_point(spec, guess, stochastic=tag == STOCHASTIC_IRREDUCIBLE)
        if found is not None:
            return found
    return _point(spec)


def _segment(spec: NetworkSpec, pi: np.ndarray, hc: np.ndarray, alpha_min: float, alpha_max: float) -> EquilibriumSet:
    x_min = hc + alpha_min * pi
    x_max = hc + alpha_max * pi
    tol = BOUNDARY_TOL * tolerance_scale(spec.capacity)
    for name, x in (("x_min", x_min), ("x_max", x_max)):
        on_boundary = np.any(np.abs(x) <= tol) or np.any(np.abs(x - spec.capacity) <= tol)
        if not on_boundary:
            raise NumericalError(f"segment endpoint {name} not on the lattice boundary")
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


def _min_max_only(spec: NetworkSpec) -> EquilibriumSet:
    bound = _FIXED_POINT_TOL * tolerance_scale(spec.capacity)
    # relative to |w|_inf, as in _extreme's warm-up: an absolute increment
    # stops networks with small capacities far from their limit
    increment_tol = 1e-12 * float(spec.capacity.max())
    lo = picard_min(spec, increment_tol)
    hi = picard_max(spec, increment_tol)
    for name, res in (("picard_min", lo), ("picard_max", hi)):
        if not res.converged or res.residual >= bound:
            raise NumericalError(f"{name} residual {res.residual:.3g} after {res.iterations} iterations")
    return EquilibriumSet(kind=MINMAX_ONLY, x_min=lo.x, x_max=hi.x)


def _point(spec: NetworkSpec, condition_value: float | None = None) -> EquilibriumSet:
    x_min = _extreme(spec, "min")
    x_max = _extreme(spec, "max")
    gap = float(np.abs(x_max - x_min).sum())
    if gap > POINT_AGREEMENT_TOL * tolerance_scale(spec.capacity):
        raise NumericalError(f"x_min and x_max disagree by {gap:.3g} in a unique-equilibrium case")
    return EquilibriumSet(kind=POINT, x_min=x_min, x_max=x_max, condition_value=condition_value)


def _pattern_point(spec: NetworkSpec, guess: np.ndarray, stochastic: bool) -> EquilibriumSet | None:
    """The unique equilibrium of ``spec`` from the saturation pattern of a
    guess, or None when it cannot be certified.

    The pattern of y = R'x + c (Z = {y <= 0} at 0, U = {y >= w} at w, F
    the rest) gives x_F from (I - R'_FF) x_F = c_F + R'_FU w_U; the same
    solve takes the mirrored system of y = w - x (Z at w, U at 0) as a
    second column.  A pattern that moves is re-read from the new x up to
    _GUESS_ROUNDS times.  x is accepted only if its own pattern
    reproduces Z and U, both solutions have residual ||T(x) - x||_1 below
    _FIXED_POINT_TOL and they agree within POINT_AGREEMENT_TOL, each times
    max(1, |w|_inf).  With stochastic R and Z, U both empty, I - R' is
    singular and the guess is skipped.
    """
    R_t, w, c = spec.routing.T, spec.capacity, spec.demand
    # column 0 is the system for x, column 1 the mirrored one for w - x
    demands = np.stack([c, w - R_t @ w - c], axis=1)
    y = R_t @ guess + c
    zero, cap = y <= 0, y >= w
    for _ in range(_GUESS_ROUNDS):
        if stochastic and not (zero.any() or cap.any()):
            return None
        free = ~(zero | cap)
        rows = R_t[free]
        A = -rows[:, free]
        A.flat[:: A.shape[0] + 1] += 1.0
        held = w[:, None] * np.stack([cap, zero], axis=1)
        try:
            held[free] = np.linalg.solve(A, demands[free] + rows @ held)
        except np.linalg.LinAlgError:
            return None
        x_min = held[:, 0]
        y = R_t @ x_min + c
        kept_zero, kept_cap = y <= 0, y >= w
        if not ((kept_zero ^ zero).any() or (kept_cap ^ cap).any()):
            break
        zero, cap = kept_zero, kept_cap
    else:
        return None
    x_max = w - held[:, 1]
    X = np.stack([x_min, x_max], axis=1)
    residuals = np.abs(np.minimum(np.maximum(R_t @ X + c[:, None], 0.0), w[:, None]) - X).sum(axis=0)
    scale = tolerance_scale(w)
    if not (np.all(residuals < _FIXED_POINT_TOL * scale)
            and float(np.abs(x_max - x_min).sum()) <= POINT_AGREEMENT_TOL * scale):
        return None
    return EquilibriumSet(kind=POINT, x_min=x_min, x_max=x_max)


def _extreme(spec: NetworkSpec, side: str) -> np.ndarray:
    """x_min (side "min") or x_max (side "max") of a spec whose routing is
    stochastic irreducible or sub-stochastic out-connected, exactly.

    y = w - x turns T into clip(R'y + w - R'w - c, 0, w) and reverses the
    order, so x_max is w minus the least fixed point of the mirrored map
    and both sides are one climb: at most n Picard steps from 0, then
    :func:`_climb` from where they stopped.  n Picard steps cost about as
    much as one dense factorization, so networks that contract fast never
    reach a solve.
    """
    R_t, w = spec.routing.T, spec.capacity
    if side == "min":
        climb = spec
    else:
        climb = NetworkSpec(routing=spec.routing, capacity=w, demand=w - R_t @ w - spec.demand)
    # relative to |w|_inf with no floor: an absolute increment would stop
    # the warm-up of a network with small capacities far from its limit
    warm = _picard(climb, np.zeros(spec.n), increment_tol=1e-12 * float(w.max()), max_iter=spec.n)
    y, rounds, solves = warm.x, 0, 0
    if not warm.converged:
        # I - R'_FF is singular only for F = every cell of a stochastic R
        stochastic = not np.any(row_sums(spec.routing) < 1 - ROW_SUM_TOL)
        y, rounds, solves = _climb(R_t, w, climb.demand, warm.x, stochastic)
    x = y if side == "min" else w - y
    residual = float(np.abs(np.clip(R_t @ x + spec.demand, 0.0, w) - x).sum())
    bound = _FIXED_POINT_TOL * tolerance_scale(spec.capacity)
    if not residual < bound:
        raise NumericalError(
            f"x_{side} residual {residual:.3g} not within {bound:.3g} after {warm.iterations} "
            f"Picard steps, {rounds} pattern rounds and {solves} linear solves"
        )
    return x


def _climb(R_t: np.ndarray, w: np.ndarray, c: np.ndarray, x: np.ndarray,
           stochastic: bool) -> tuple[np.ndarray, int, int]:
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
    n = w.size
    y = R_t @ x + c
    zero = y <= 0
    solves = 0
    for rounds in range(1, n + 2):
        live = ~zero
        cap = _cap_policy(live, y, w, stochastic)
        for _ in range(n + 1):
            solves += 1
            free = live & ~cap
            rows = R_t[free]
            A = -rows[:, free]
            A.flat[:: A.shape[0] + 1] += 1.0
            x = np.where(cap, w, 0.0)
            try:
                x[free] = np.linalg.solve(A, c[free] + rows[:, cap] @ w[cap])
            except np.linalg.LinAlgError as exc:
                raise NumericalError(f"pattern solve on {A.shape[0]} free cells failed: {exc}") from exc
            y = R_t @ x + c
            new_cap = _cap_policy(live, y, w, stochastic)
            if np.array_equal(new_cap, cap):
                break
            cap = new_cap
        kept = zero & (y <= 0)
        if np.array_equal(kept, zero):
            break
        zero = kept
    return x, rounds, solves


def _cap_policy(live: np.ndarray, y: np.ndarray, w: np.ndarray, stochastic: bool) -> np.ndarray:
    cap = live & (y >= w)
    if stochastic and live.all() and not cap.any():
        cap[np.argmax(y - w)] = True
    return cap
