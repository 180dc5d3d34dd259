"""Network model representation and structural analysis of the routing matrix.

A flow network is a set of n cells with finite buffer capacities w > 0,
exchanging commodity according to a sub-stochastic routing matrix R
(entry R[i, j] is the fraction of cell i's outflow sent to cell j) and
subject to a constant exogenous net demand c = inflow - outflow.

The structural dichotomy that drives everything downstream:

* R stochastic and irreducible   -> unique invariant probability vector pi,
  and the operator H mapping zero-sum v to the zero-sum solution of
  Hv = R' Hv + v;
* R sub-stochastic out-connected -> every cell can route its mass to a
  leaky cell, so the network drains and equilibria are unique;
* anything else                  -> only min/max equilibria are claimed.

Classes are decided by frontier searches on the support digraph of R; pi
and H come from one square solve with M = I - R' + 1 1', each certified by
its residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, PreconditionError, ScenarioError

# A row is stochastic iff its sum is within this band of 1, leaky iff the
# sum is below 1 minus the band.  The theory dichotomy is exact; floats
# need the band.
ROW_SUM_TOL = 1e-12

#: residual required of the invariant vector and of the H operator output
RESIDUAL_TOL = 1e-10

STOCHASTIC_IRREDUCIBLE = "StochasticIrreducible"
SUBSTOCHASTIC_OUT_CONNECTED = "SubStochasticOutConnected"
OTHER = "Other"


@dataclass(frozen=True)
class RoutingClass:
    """Structural classification of a routing matrix.

    tag is one of STOCHASTIC_IRREDUCIBLE, SUBSTOCHASTIC_OUT_CONNECTED or
    OTHER; detail carries a human-readable reason (e.g. which subset of
    cells makes a stochastic matrix reducible).
    """

    tag: str
    detail: str = ""


@dataclass
class NetworkSpec:
    """A complete model instance: routing R, capacities w, net demand c.

    Arrays are coerced to float ndarrays at construction; call
    :func:`validate` (or build through :meth:`from_dict`) to enforce the
    model invariants.
    """

    routing: np.ndarray
    capacity: np.ndarray
    demand: np.ndarray
    inflow: np.ndarray | None = None
    outflow: np.ndarray | None = None

    def __post_init__(self):
        self.routing = np.asarray(self.routing, dtype=float)
        self.capacity = np.asarray(self.capacity, dtype=float)
        self.demand = np.asarray(self.demand, dtype=float)
        if self.inflow is not None:
            self.inflow = np.asarray(self.inflow, dtype=float)
        if self.outflow is not None:
            self.outflow = np.asarray(self.outflow, dtype=float)

    @property
    def n(self) -> int:
        return self.capacity.shape[0]

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkSpec":
        """Build and validate a spec from a parsed scenario document."""
        required = {"routing", "capacity", "demand"}
        allowed = required | {"inflow", "outflow"}
        missing = required - data.keys()
        if missing:
            raise ScenarioError(f"missing keys: {sorted(missing)}")
        unknown = data.keys() - allowed
        if unknown:
            raise ScenarioError(f"unknown keys: {sorted(unknown)}")
        spec = cls(
            routing=data["routing"],
            capacity=data["capacity"],
            demand=data["demand"],
            inflow=data.get("inflow"),
            outflow=data.get("outflow"),
        )
        return validate(spec)


def validate(spec: NetworkSpec) -> NetworkSpec:
    """Check all model invariants on ``spec`` and return it unchanged.

    Raises ScenarioError on: dimension mismatch, non-finite or negative
    entries, row sum above 1 + ROW_SUM_TOL, nonzero diagonal, nonpositive
    capacity, or demand differing from inflow - outflow by more than a few
    ulps of the larger flow.
    """
    R, w, c = spec.routing, spec.capacity, spec.demand
    if R.ndim != 2 or R.shape[0] != R.shape[1]:
        raise ScenarioError(f"routing must be a square matrix, got shape {R.shape}")
    n = R.shape[0]
    if n == 0:
        raise ScenarioError("network must have at least one cell")
    for name, vec in (("capacity", w), ("demand", c)):
        if vec.shape != (n,):
            raise ScenarioError(f"{name} must have length {n}, got shape {vec.shape}")
    for name, arr in (("routing", R), ("capacity", w), ("demand", c)):
        if not np.all(np.isfinite(arr)):
            raise ScenarioError(f"{name} contains non-finite entries")
    if np.any(R < 0):
        i, j = np.argwhere(R < 0)[0]
        raise ScenarioError(f"routing entry ({i + 1},{j + 1}) is negative")
    if np.any(np.abs(np.diag(R)) > 0):
        i = int(np.argmax(np.abs(np.diag(R)) > 0))
        raise ScenarioError(f"routing diagonal entry {i + 1} must be zero")
    sums = R.sum(axis=1)
    if np.any(sums > 1 + ROW_SUM_TOL):
        i = int(np.argmax(sums > 1 + ROW_SUM_TOL))
        raise ScenarioError(f"row {i + 1} sum exceeds 1 ({sums[i]:.17g})")
    if np.any(w <= 0):
        raise ScenarioError("capacity must be positive")
    if (spec.inflow is None) != (spec.outflow is None):
        raise ScenarioError("inflow and outflow must be given together")
    if spec.inflow is not None:
        lam, mu = spec.inflow, spec.outflow
        if lam.shape != (n,) or mu.shape != (n,):
            raise ScenarioError("inflow/outflow must have length n")
        if not (np.all(np.isfinite(lam)) and np.all(np.isfinite(mu))):
            raise ScenarioError("inflow/outflow contain non-finite entries")
        if np.any(lam < 0) or np.any(mu < 0):
            raise ScenarioError("inflow and outflow must be nonnegative")
        # 0.3 - 0.1 is not 0.2 in floats: allow a few ulps of the flows
        mismatch = np.abs(lam - mu - c) > 4 * np.finfo(float).eps * np.maximum(lam, mu)
        if np.any(mismatch):
            i = int(np.argmax(mismatch))
            raise ScenarioError(
                f"demand of cell {i + 1} ({c[i]:.17g}) must equal inflow - outflow ({lam[i] - mu[i]:.17g})"
            )
    return spec


def row_sums(R: np.ndarray) -> np.ndarray:
    return np.asarray(R, dtype=float).sum(axis=1)


def _leaky_mask(R: np.ndarray) -> np.ndarray:
    return row_sums(R) < 1 - ROW_SUM_TOL


def leaky_nodes(R: np.ndarray) -> list[int]:
    """0-based indices of rows with sum strictly below 1 - ROW_SUM_TOL."""
    return [int(i) for i in np.flatnonzero(_leaky_mask(R))]


def _reached(adj: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Mask of the cells reachable from the cells of mask ``start`` along
    the edges of the boolean adjacency matrix ``adj``, ``start`` included.

    Each round ORs the rows of the cells first reached in the round
    before, so every row is read once: at most n^2 boolean operations.
    Pass ``adj.T`` to get the cells that reach ``start``.
    """
    reached = start.copy()
    front = start
    while front.any():
        front = adj[front].any(axis=0) & ~reached
        reached |= front
    return reached


def is_out_connected(R: np.ndarray) -> bool:
    """True iff from every cell some leaky cell is reachable.

    A cell with row sum strictly below 1 counts as reaching itself
    (zero-length path), so e.g. the all-zero matrix is out-connected.
    One backward search from the leaky cells decides it.
    """
    R = np.asarray(R, dtype=float)
    return bool(np.all(_reached((R > 0).T, _leaky_mask(R))))


def is_irreducible(R: np.ndarray) -> bool:
    """True iff the stochastic matrix R has no closed proper subset of cells.

    For stochastic R this is equivalent to strong connectivity of the
    support digraph: a closed subset is exactly a subset with no outgoing
    edge and full internal row mass.  Strong connectivity holds iff cell 1
    reaches every cell and every cell reaches cell 1 (a forward and a
    backward search).  Raises PreconditionError if some row leaks (the
    subset condition is defined only for stochastic matrices).
    """
    R = np.asarray(R, dtype=float)
    sums = row_sums(R)
    if np.any(sums < 1 - ROW_SUM_TOL):
        i = int(np.argmax(sums < 1 - ROW_SUM_TOL))
        raise PreconditionError(
            f"is_irreducible requires a stochastic matrix; row {i + 1} "
            f"sums to {sums[i]:.17g}"
        )
    adj = R > 0
    first = np.arange(R.shape[0]) == 0
    return bool(np.all(_reached(adj, first)) and np.all(_reached(adj.T, first)))


def _closed_subset(R: np.ndarray) -> list[int]:
    """A closed subset of a reducible stochastic matrix: the members of a
    sink strongly-connected component (0-based, sorted).

    From cell 1, move to a reachable cell that does not reach back until
    every reachable cell reaches back; each move shrinks the reachable set.
    """
    adj = np.asarray(R) > 0
    cells = np.arange(adj.shape[0])
    i = 0
    while True:
        reached = _reached(adj, cells == i)
        escape = reached & ~_reached(adj.T, cells == i)
        if not escape.any():
            return [int(j) for j in np.flatnonzero(reached)]
        i = int(np.argmax(escape))


def classify_routing(R: np.ndarray) -> RoutingClass:
    """Classify a validated sub-stochastic routing matrix.

    Returns StochasticIrreducible, SubStochasticOutConnected, or Other
    with a reason.  The first two tags are mutually exclusive: a
    stochastic matrix has no leaky row, hence cannot be out-connected.
    """
    R = np.asarray(R, dtype=float)
    sums = row_sums(R)
    if np.all(np.abs(sums - 1) <= ROW_SUM_TOL):
        if is_irreducible(R):
            return RoutingClass(STOCHASTIC_IRREDUCIBLE, "all rows stochastic, support digraph strongly connected")
        closed = [j + 1 for j in _closed_subset(R)]
        return RoutingClass(OTHER, f"stochastic but reducible: closed subset {{{', '.join(map(str, closed))}}}")
    draining = _reached((R > 0).T, _leaky_mask(R))
    if np.all(draining):
        return RoutingClass(SUBSTOCHASTIC_OUT_CONNECTED, f"leaky rows {[i + 1 for i in leaky_nodes(R)]} reachable from every cell")
    stranded = [int(i) + 1 for i in np.flatnonzero(~draining)]
    return RoutingClass(OTHER, f"cells {stranded} cannot reach a leaky cell")


def _require_stochastic_irreducible(R: np.ndarray, op: str) -> None:
    cls = classify_routing(R)
    if cls.tag != STOCHASTIC_IRREDUCIBLE:
        raise PreconditionError(f"{op} requires a stochastic irreducible routing matrix ({cls.tag}: {cls.detail})")


def _pi_and_h(R: np.ndarray, v: np.ndarray, residual_tol: float = RESIDUAL_TOL) -> tuple[np.ndarray, np.ndarray]:
    """pi and the zero-sum Hv of a routing matrix known to be stochastic
    irreducible, from one solve of M X = [1, v], M = I - R' + 1 1'.

    1'(I - R') = 0, so 1'M = n 1': a solution of M x = b has 1'x = 1'b / n
    and solves x = R'x + b - 1'b / n.  M is therefore nonsingular (its null
    vectors would be zero-sum multiples of pi), periodic R included.  The H
    residual bound scales with max(1, |v|_inf), so rescaling the data does
    not decide whether the solve passes.
    """
    n = R.shape[0]
    M = np.ones((n, n)) - R.T
    M.flat[:: n + 1] += 1.0
    sol = np.linalg.solve(M, np.column_stack([np.ones(n), v]))
    pi = sol[:, 0] / sol[:, 0].sum()
    hv = sol[:, 1]
    residual = np.abs(pi - R.T @ pi).sum()
    if residual >= residual_tol or np.any(pi <= 0):
        raise NumericalError(f"invariant vector residual {residual:.3g} not within {residual_tol:.3g}")
    residual = max(np.abs(hv - R.T @ hv - v).max(), abs(hv.sum()))
    bound = residual_tol * max(1.0, np.abs(v).max())
    if residual >= bound:
        raise NumericalError(f"H solve residual {residual:.3g} not within {bound:.3g}")
    return pi, hv


def invariant_vector(R: np.ndarray, residual_tol: float = RESIDUAL_TOL) -> np.ndarray:
    """The unique probability vector pi with pi = R' pi, strictly positive.

    Solved as M pi = 1 with M = I - R' + 1 1' (see :func:`_pi_and_h`) and
    certified: pi > 0 and |pi - R' pi|_1 below ``residual_tol``.
    """
    R = np.asarray(R, dtype=float)
    _require_stochastic_irreducible(R, "invariant_vector")
    return _pi_and_h(R, np.zeros(R.shape[0]), residual_tol)[0]


def tolerance_scale(w: np.ndarray) -> float:
    """max(1, |w|_inf), the factor on every tolerance for states and
    equilibria: (kw, kc) has k times the trajectories and equilibria of
    (w, c), so their errors scale with w; at unit scale and below the
    tolerances are the bare constants."""
    return max(1.0, float(np.max(w)))


def zero_sum_tol(v: np.ndarray) -> float:
    """Tolerance on the zero-sum condition sum(v) = 0, relative to |v|_1
    with no floor, so that scaling v does not decide the answer."""
    return 1e-12 * np.abs(v).sum()


def is_zero_sum(v: np.ndarray) -> bool:
    v = np.asarray(v, dtype=float)
    return abs(v.sum()) <= zero_sum_tol(v)


def h_operator(R: np.ndarray, v: np.ndarray, residual_tol: float = RESIDUAL_TOL) -> np.ndarray:
    """The zero-sum solution Hv of Hv = R' Hv + v.

    Solved as M x = v with M = I - R' + 1 1' (see :func:`_pi_and_h`) and
    certified: the defining equation and sum(x) = 0 both hold within
    ``residual_tol`` times max(1, |v|_inf).
    """
    R = np.asarray(R, dtype=float)
    v = np.asarray(v, dtype=float)
    _require_stochastic_irreducible(R, "h_operator")
    if not is_zero_sum(v):
        raise PreconditionError(f"h_operator requires a zero-sum vector, got sum {v.sum():.3g}")
    return _pi_and_h(R, v, residual_tol)[1]
