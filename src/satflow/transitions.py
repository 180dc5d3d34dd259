"""Demand-path sweeps and phase-transition detection.

The demand vectors with multiple equilibria (the critical set) are, for
stochastic irreducible routing, exactly those that are zero-sum and have a
positive segment-length condition value.  Crossing that set along a demand
path produces a jump discontinuity in the asymptotic state: the unique
equilibrium approaches the segment's lower endpoint from one side and its
upper endpoint from the other.  An affine path meets that set at points
known exactly: off the hyperplane the total demand has one zero, and
inside it Hc is affine along the path, so the condition value is concave
and piecewise affine and the stretch where it is positive ends at roots of
affine functions.  Such an end is an edge of the critical set, where the
segment has shrunk to a point and the state does not jump.

Away from the critical set the unique equilibrium moves piecewise
affinely in c, with a fixed saturation pattern on each piece.  Each entry
point takes the classified network of :mod:`satflow.equilibria`, which
each thread keeps for the last (R, w) it classified, so a sweep and the
limits at its jump classify R once between them, and the limits take the
line data that the sweep solved at the jump.  A sweep validates the
network once, and c_end with the same checks.  A sweep builds its sample
demands as one array, and the network's rule decides in one pass which
samples are walked.  A path that crosses the critical set is walked
outward from the crossing, both ways, each way from the segment endpoint
that its equilibria approach, so no sample needs the cold solver; any
other path is walked from its first sample, which the cold solver
answers.  One linear solve gives a whole piece, and a breakpoint between
samples starts the next piece.  The walks come first and their samples
are certified after them, all in one vectorised pass per call, where a
sample on a breakpoint fits the pieces on both sides of it.  The cold
solver answers a sample that fails there, and the samples that are not
walked.  The answers are those of
:func:`satflow.equilibria.equilibrium_set` at each demand, up to rounding;
they come on [0, w] from its builders, and this module clamps nothing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral

import numpy as np

from .errors import PreconditionError
from .equilibria import (
    POINT,
    SEGMENT,
    _class_demands,
    _equilibrium,
    _line,
    _Network,
    _network,
    _points,
    _segment,
)
from .model import NetworkSpec, _check_vector, _zero_sum_rows, is_zero_sum, validate, zero_sum_tol

#: slack in the path parameter s when a zero-sum root is matched to [0, 1]
#: and a change of kind between two samples to a critical point
MATCH_TOL = 1e-9


@dataclass(frozen=True)
class DemandPath:
    """Affine demand path c(s) = c_start + s*(c_end - c_start), s in [0, 1],
    evaluated on a uniform grid of ``samples`` points."""

    c_start: np.ndarray
    c_end: np.ndarray
    samples: int

    def __post_init__(self):
        object.__setattr__(self, "c_start", np.asarray(self.c_start, dtype=float))
        object.__setattr__(self, "c_end", np.asarray(self.c_end, dtype=float))
        if self.c_start.shape != self.c_end.shape or self.c_start.ndim != 1:
            raise ValueError("c_start and c_end must be 1-d vectors of equal length")
        if not isinstance(self.samples, Integral) or isinstance(self.samples, bool) or self.samples < 2:
            raise ValueError(f"samples must be an integer of at least 2, got {self.samples!r}")

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


@dataclass
class SweepResult:
    rows: list[SweepRow]
    jumps: list[dict] = field(default_factory=list)  # {"s", "magnitude"} per critical point, 0 at an edge
    #: {"s_lo", "s_hi"}: kind changes no critical point explains, and sign
    #: changes of a closed class's total demand on reducible routing
    unresolved: list[dict] = field(default_factory=list)


def on_critical_manifold(R: np.ndarray, w: np.ndarray, c: np.ndarray) -> bool:
    """True iff c is zero-sum (within :func:`satflow.model.zero_sum_tol`)
    and the condition value is positive.

    The routing matrix is classified once per thread and network; the
    condition value of the zero-sum projection c - mean(c) comes from the
    same line data as in :func:`satflow.equilibria.equilibrium_set`.
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


def _critical_stretch(net: _Network, c0: np.ndarray, c1: np.ndarray) -> tuple[float, float, tuple]:
    """The open interval (lo, hi), empty if lo >= hi, of s where the path
    c0 + s*(c1 - c0) inside the zero-sum hyperplane is critical, and the
    line data of c0.

    Hc is linear there, so a = Hc/pi is affine in s, from the line data of
    the two ends, and the condition value min_i a_i + min_j (w_j/pi_j - a_j)
    is positive iff all n^2 affine a_i + w_j/pi_j - a_j are: each root
    bounds s below (rising) or above (falling), and a flat one must be > 0.
    """
    line0 = pi, hc0, _, _ = _line(net, c0)
    hc1 = _line(net, c1)[1]
    a0, da = hc0 / pi, (hc1 - hc0) / pi
    p = a0[:, None] + (net.w / pi - a0)[None, :]
    q = da[:, None] - da[None, :]
    rising, falling = q > 0, q < 0
    if np.any(p[~(rising | falling)] <= 0):
        return 0.0, 0.0, line0
    lo = np.max(-p[rising] / q[rising], initial=-np.inf)
    hi = np.min(-p[falling] / q[falling], initial=np.inf)
    return float(lo), float(hi), line0


def _jump(net: _Network, line) -> float:
    """l1 size of the equilibrium set at a critical point: the length of
    the segment of its line data, or 0.0 at an edge of the critical set
    (line None), where the segment has shrunk to a point."""
    if line is None:
        return 0.0
    eq = _segment(net, *line)
    return float(np.add.reduce(np.abs(eq.x_max - eq.x_min)))


def sweep(R: np.ndarray, w: np.ndarray, path: DemandPath) -> SweepResult:
    """Classify the equilibrium set along a demand path and locate crossings.

    The routing matrix is classified once for the whole path, or not at
    all where this thread kept its network from an earlier call, and each
    grid sample gets the equilibrium set
    :func:`satflow.equilibria.equilibrium_set` would give.  The sample
    demands are one (samples, n) array with the bits of path.c_at, and one
    pass over it picks the samples with a unique equilibrium off the
    zero-sum hyperplane.  Those are walked one saturation pattern at a time
    and certified once the walk is done, in one pass; the cold solver
    answers a sample that the certificate refuses.  Each row is its answer
    as :mod:`satflow.equilibria` builds it, on [0, w].  Where the path
    crosses the critical set, at s*, the walk goes outward from s*: the
    samples up to s* in descending s from the segment endpoint that the
    path approaches, and those past it in ascending s from the endpoint
    that the path leaves, with no cold solve.  A path that does not cross
    is walked from its first walkable sample, which the cold solver
    answers.  Zero-sum samples and reducible routing take the cold path
    one sample at a time.

    The critical points come from the path's ends, not from its samples.
    Off the hyperplane the total demand is affine in s, and its zero s*
    is one if the condition value there is positive; s* is 0 or 1 exactly
    when that end of the path is zero-sum.  Inside it, they are
    the ends in (0, 1) of the stretch where the path is critical
    (:func:`_critical_stretch`), or s = 0 if that is the whole path; such
    an end is an edge of the critical set, where the segment shrinks to a
    point, so its jump is exactly 0.0.  Every other jump is the l1 length
    of the segment of the line data that found s* or the critical start,
    so no jump takes a solve of its own.  A change
    of kind between two samples that no critical point explains is
    reported unresolved, never guessed.  On reducible routing every row is
    MinMaxOnly, and a pair of samples between which a closed class's
    total demand changes sign (:func:`satflow.equilibria._class_demands`)
    is reported unresolved: that class meets its critical set there.
    """
    spec = validate(NetworkSpec(routing=R, capacity=w, demand=path.c_start))
    _check_vector("demand", path.c_end, spec.n)
    net = _network(spec.routing, spec.capacity)
    grid = path.grid
    dc = path.c_end - path.c_start
    sig0 = float(np.add.reduce(path.c_start))
    slope = float(np.add.reduce(path.c_end)) - sig0
    scale_tol = zero_sum_tol(path.c_start) + zero_sum_tol(path.c_end)
    # the critical points with their line data where already solved (None
    # at an edge), and (s*, line data) where the path crosses the critical
    # set off the zero-sum hyperplane, at its one critical point s*
    critical, crossing = [], None
    if net.stochastic and abs(slope) > scale_tol and -MATCH_TOL <= -sig0 / slope <= 1 + MATCH_TOL:
        # an end that is zero-sum is s* itself, not the root's rounding of it
        s_star = 0.0 if is_zero_sum(path.c_start) else 1.0 if is_zero_sum(path.c_end) else (
            min(max(-sig0 / slope, 0.0), 1.0))
        line = _critical_line(net, path.c_at(s_star))
        if line is not None:
            crossing = (s_star, line)
            critical = [crossing]
    elif net.stochastic and max(abs(slope), abs(sig0)) <= scale_tol:
        lo, hi, line = _critical_stretch(net, path.c_start, path.c_end)
        if lo < hi:  # an empty stretch meets nothing
            critical = [(s, None) for s in (lo, hi) if 0.0 < s < 1.0] or (
                [(0.0, line)] if lo <= 0.0 and hi >= 1.0 else [])

    cs = path.c_start + grid[:, None] * dc  # one row per sample, the bits of path.c_at
    ss = grid.tolist()
    rows: list[SweepRow | None] = [None] * grid.size
    walkable = net.walkable_rows(cs)  # the samples with a unique equilibrium off the zero-sum hyperplane
    for i in (~walkable).nonzero()[0].tolist():
        eq = _equilibrium(net, cs[i])
        rows[i] = SweepRow(ss[i], cs[i], eq.kind, eq.x_min, eq.x_max, eq.condition_value, eq.kind == SEGMENT)
    walked = walkable.nonzero()[0]
    # a crossing path is walked outward from s*, both ways; any other from its first sample, answered cold
    lows, highs = _points(net, path.c_start, dc, grid[walked], crossing)
    for i, x_min, x_max in zip(walked.tolist(), lows, highs):
        rows[i] = SweepRow(ss[i], cs[i], POINT, x_min, x_max, None, False)
    # one mask over the sample pairs: kind changes that no critical point explains and,
    # on reducible routing (every row MinMaxOnly), sign changes of a closed class's total demand
    unresolved = np.array([row.kind != nxt.kind for row, nxt in zip(rows, rows[1:])])
    for s, _ in critical:
        unresolved &= ~((grid[:-1] - MATCH_TOL <= s) & (s <= grid[1:] + MATCH_TOL))
    if net.parts:  # x_T is unique, so x_min gives each class's demand
        for E, zero in _class_demands(net, cs, np.array([row.x_min for row in rows])):
            sign = np.where(zero, 0.0, np.sign(E.sum(axis=1)))
            unresolved |= sign[1:] != sign[:-1]
    return SweepResult(rows=rows, jumps=[{"s": s, "magnitude": _jump(net, line)} for s, line in critical],
                       unresolved=[{"s_lo": float(grid[i]), "s_hi": float(grid[i + 1])}
                                   for i in unresolved.nonzero()[0]])


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
    leaves the zero-sum hyperplane, where the equilibrium is unique, and
    the epsilons must be positive and finite (else PreconditionError).  As
    eps shrinks, the equilibrium below approaches the segment's lower
    endpoint and the one above its upper endpoint.

    The routing matrix is classified once, or not at all where this thread
    kept its network from an earlier call (a sweep of the same network),
    and the line data of c_star are solved once, or not at all where the
    last line solved on the kept network was at the same c_star (the jump
    of that sweep).
    The line c_star + t*d is walked outward from t = 0 both ways, as a
    sweep walks a crossing (see :mod:`satflow.equilibria`): each side goes
    through the epsilons from the smallest up, and its first pattern is
    that of the segment endpoint it approaches (x_min below, x_max above, from the line data of
    c_star), so for small epsilons one linear solve gives them all; a
    breakpoint between two epsilons starts a new piece.  Both sides are
    certified in one pass once they are walked, and the cold solver
    answers an epsilon that fails there.  A c_star off the critical set is
    refused with the number that puts it off: sum(c_star) and its zero-sum
    tolerance, or the condition value when c_star is zero-sum.
    """
    d = np.asarray(direction, dtype=float)
    spec = validate(NetworkSpec(routing=R, capacity=w, demand=c_star))
    net = _network(spec.routing, spec.capacity, "directional_limits")
    c = spec.demand
    if not is_zero_sum(c):
        raise PreconditionError(f"c_star is not on the critical set: sum(c_star) = {c.sum():.3g}, "
                                f"not within its zero-sum tolerance {zero_sum_tol(c):.3g}")
    line = _line(net, c)
    if not line[3] - line[2] > 0:
        raise PreconditionError(
            f"c_star is not on the critical set: its condition value {line[3] - line[2]:.3g} is not positive")
    if d.shape != (spec.n,) or np.count_nonzero(np.isfinite(d)) < d.size or np.add.reduce(d) <= 0:
        raise PreconditionError(f"direction must be a finite vector of length {spec.n} with positive total sum")
    eps_list = sorted(set(float(e) for e in epsilons), reverse=True)
    if not eps_list or not all(0 < e < np.inf for e in eps_list):
        raise PreconditionError("epsilons must be positive and finite")

    # c_star - eps*d and c_star + eps*d for each eps in turn, one row each
    offsets = np.multiply.outer([sign * eps for eps in eps_list for sign in (-1.0, 1.0)], d)
    zero_sum = _zero_sum_rows(c + offsets)
    if np.count_nonzero(zero_sum):
        raise PreconditionError(f"perturbed demand at eps={eps_list[int(np.argmax(zero_sum)) // 2]:g} "
                                "is unexpectedly zero-sum")
    # t = -eps below c_star and +eps above it, ascending: c_star + (-eps)*d
    # has the bits of c_star - eps*d
    m = len(eps_list)
    lows, _ = _points(net, c, d, [-eps for eps in eps_list] + eps_list[::-1], (0.0, line))
    table = list(zip(eps_list, lows[:m], lows[m:][::-1]))
    return DirectionalLimits(from_below=table[-1][1], from_above=table[-1][2], table=table)
