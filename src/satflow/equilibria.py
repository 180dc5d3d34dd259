"""Equilibrium computation and classification.

Equilibria of the saturated flow dynamics are exactly the fixed points of
the monotone map T(x) = clamp(R'x + c, 0, w).  Iterating T from 0 climbs
to the minimal equilibrium; iterating from w descends to the maximal one.

For stochastic irreducible routing with zero-sum demand the full set of
equilibria is known analytically: it is the line {Hc + a*pi} intersected
with the lattice, a segment with positive length iff

    min_i (Hc)_i/pi_i + min_i (w_i - (Hc)_i)/pi_i > 0.

That left-hand side (the "condition value") also equals the l1 length of
the segment, since pi is a probability vector.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import NumericalError, PreconditionError
from .model import (
    OTHER,
    STOCHASTIC_IRREDUCIBLE,
    SUBSTOCHASTIC_OUT_CONNECTED,
    NetworkSpec,
    _pi_and_h,
    classify_routing,
    is_zero_sum,
)

POINT = "Point"
SEGMENT = "Segment"
MINMAX_ONLY = "MinMaxOnly"

#: endpoints of a segment must touch the lattice boundary within this slack
BOUNDARY_TOL = 1e-9

#: max allowed disagreement between the two Picard limits in a Point case
POINT_AGREEMENT_TOL = 1e-6


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
        x_new = np.clip(R_t @ x + c, 0.0, w)
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


def _line(spec: NetworkSpec) -> tuple[np.ndarray, np.ndarray, float, float] | None:
    """(pi, Hc, alpha_min, alpha_max) of a spec whose routing is stochastic
    irreducible, or None when the demand is not zero-sum.

    The line {Hc + a*pi} meets the lattice for a in [alpha_min, alpha_max];
    the condition value is alpha_max - alpha_min.
    """
    c = spec.demand
    if not is_zero_sum(c):
        return None
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
    line = _line(spec)
    if line is None:
        return None, False
    value = line[3] - line[2]
    return value, value > 0


def equilibrium_set(spec: NetworkSpec) -> EquilibriumSet:
    """Compute and classify the full equilibrium set of a validated spec.

    * stochastic irreducible, zero-sum demand, positive condition value ->
      the analytic segment;
    * stochastic irreducible otherwise, or sub-stochastic out-connected ->
      a unique point, computed by Picard from both ends and cross-checked;
    * reducible routing -> only the min/max pair, no claim in between.

    The routing matrix is classified once.  On zero-sum demand pi and Hc
    come from one square solve with M = I - R' + 1 1' and two right-hand
    sides, and feed both the condition value and the segment.
    """
    cls = classify_routing(spec.routing)
    if cls.tag == STOCHASTIC_IRREDUCIBLE:
        line = _line(spec)
        if line is None:
            return _point(spec, POINT)
        pi, hc, alpha_min, alpha_max = line
        value = alpha_max - alpha_min
        if value > 0:
            return _segment(spec, pi, hc, alpha_min, alpha_max)
        return _point(spec, POINT, condition_value=value)
    if cls.tag == SUBSTOCHASTIC_OUT_CONNECTED:
        return _point(spec, POINT)
    lo = picard_min(spec)
    hi = picard_max(spec)
    _check_picard(lo, "picard_min")
    _check_picard(hi, "picard_max")
    return EquilibriumSet(kind=MINMAX_ONLY, x_min=lo.x, x_max=hi.x)


def _segment(spec: NetworkSpec, pi: np.ndarray, hc: np.ndarray, alpha_min: float, alpha_max: float) -> EquilibriumSet:
    x_min = hc + alpha_min * pi
    x_max = hc + alpha_max * pi
    for name, x in (("x_min", x_min), ("x_max", x_max)):
        on_boundary = np.any(np.abs(x) <= BOUNDARY_TOL) or np.any(np.abs(x - spec.capacity) <= BOUNDARY_TOL)
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


def _check_picard(res: PicardResult, name: str) -> None:
    if not res.converged or res.residual >= 1e-10:
        raise NumericalError(f"{name} residual {res.residual:.3g} after {res.iterations} iterations")


def _point(spec: NetworkSpec, kind: str, condition_value: float | None = None) -> EquilibriumSet:
    lo = picard_min(spec)
    hi = picard_max(spec)
    _check_picard(lo, "picard_min")
    _check_picard(hi, "picard_max")
    gap = float(np.abs(hi.x - lo.x).sum())
    if gap > POINT_AGREEMENT_TOL:
        raise NumericalError(f"Picard min/max disagree by {gap:.3g} in a unique-equilibrium case")
    return EquilibriumSet(kind=kind, x_min=lo.x, x_max=hi.x, condition_value=condition_value)
