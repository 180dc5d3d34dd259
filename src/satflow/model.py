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
* anything else (reducible)      -> draining cells and closed classes.

classify_routing finds the closed classes of R once, by frontier searches
on its support digraph, and the class follows from them; pi and H come
from one square solve with M = I - R' + 1 1', each certified by its residual.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from numbers import Real

import numpy as np

from .errors import NumericalError, PreconditionError, ScenarioError

# A row is stochastic iff its sum is within this band of 1, leaky iff the
# sum is below 1 minus the band.  The theory dichotomy is exact; floats
# need the band.  It stays absolute, unlike the tolerances on states and
# demands: a row sum is a fraction of a cell's outflow and has no units,
# so scaling (w, c) does not touch it.
ROW_SUM_TOL = 1e-12

# sum(v) = 0 within this much of |v|_1 (see zero_sum_tol)
_ZERO_SUM_RTOL = 1e-12

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
    #: Other: the mask of each closed class, in the order classify_routing finds them
    _classes: tuple = field(default=(), repr=False, compare=False)


def _floats(value) -> np.ndarray:
    """value as a writable float array, bit-identical to np.asarray(value, dtype=float).

    A list of numbers, or a list of lists of numbers (each row as long as
    the first), is packed by struct, one row at a time: that reads JSON
    numbers only (bools as 0/1) and raises struct.error on a string, a
    null, a nested list or a row of another length.  ndarrays and every
    other input go through np.asarray.
    """
    if type(value) is not list:
        return np.asarray(value, dtype=float)
    if value and type(value[0]) is list:
        m = len(value[0])
        out = np.empty((len(value), m))
        pack = struct.Struct(f"{m}d").pack_into
        for i, row in enumerate(value):
            pack(out, 8 * m * i, *row)
        return out
    out = np.empty(len(value))
    struct.Struct(f"{len(value)}d").pack_into(out, 0, *value)
    return out


#: what _floats raises on input that is not numbers of the right shape
_NOT_NUMBERS = (TypeError, ValueError, OverflowError, struct.error)


def _vector(name: str, value) -> np.ndarray:
    """value as a float array; ScenarioError naming the field, and the first
    entry that is not a number, if it is not a vector of numbers."""
    try:
        return _floats(value)
    except _NOT_NUMBERS as exc:
        bad = next((k + 1 for k, v in enumerate(value) if not isinstance(v, Real)), None) if type(value) is list else None
        raise ScenarioError(f"{name} is not a vector of numbers: "
                            + (f"entry {bad} is not a number" if bad else str(exc))) from exc


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
        try:
            self.routing = _floats(self.routing)
        except _NOT_NUMBERS as exc:
            # name the first ragged row or entry that is not a number, 1-based, rather than numpy's shape
            rows = self.routing if isinstance(self.routing, (list, tuple)) else ()
            lengths = [len(row) if hasattr(row, "__len__") else None for row in rows]
            ragged = next((i + 1 for i, k in enumerate(lengths) if k != lengths[0]), None)
            entry = None if ragged else next(((i + 1, j + 1) for i, row in enumerate(rows)
                                              for j, v in enumerate(row) if not isinstance(v, Real)), None)
            raise ScenarioError(f"routing row {ragged} does not have the length of row 1" if ragged
                                else f"routing entry ({entry[0]},{entry[1]}) is not a number" if entry
                                else f"routing is not a matrix of numbers: {exc}") from exc
        self.capacity = _vector("capacity", self.capacity)
        self.demand = _vector("demand", self.demand)
        if self.inflow is not None:
            self.inflow = _vector("inflow", self.inflow)
        if self.outflow is not None:
            self.outflow = _vector("outflow", self.outflow)

    @property
    def n(self) -> int:
        return self.capacity.shape[0]

    @classmethod
    def from_dict(cls, data: dict) -> "NetworkSpec":
        """Build and validate a spec from a parsed scenario document; unknown
        keys are refused before missing ones."""
        required = {"routing", "capacity", "demand"}
        unknown = data.keys() - required - {"inflow", "outflow"}
        if unknown:
            raise ScenarioError(f"unknown keys: {sorted(unknown)}")
        missing = required - data.keys()
        if missing:
            raise ScenarioError(f"missing keys: {sorted(missing)}")
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
    # np.count_nonzero for any() and all() of a mask, without their dispatch cost
    if np.count_nonzero(np.isfinite(R)) < R.size:
        raise ScenarioError("routing contains non-finite entries")
    _check_vector("capacity", w, n)
    _check_vector("demand", c, n)
    negative = R < 0
    if np.count_nonzero(negative):
        i, j = np.argwhere(negative)[0]
        raise ScenarioError(f"routing entry ({i + 1},{j + 1}) is negative")
    diagonal = R.diagonal()  # finite, so nonzero is |R_ii| > 0
    if np.count_nonzero(diagonal):
        i = int(np.argmax(diagonal != 0))
        raise ScenarioError(f"routing diagonal entry {i + 1} must be zero")
    sums = np.add.reduce(R, axis=1)
    over = sums > 1 + ROW_SUM_TOL
    if np.count_nonzero(over):
        i = int(np.argmax(over))
        raise ScenarioError(f"row {i + 1} sum exceeds 1 ({sums[i]:.17g})")
    if np.count_nonzero(w <= 0):
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


def _check_vector(name: str, vec: np.ndarray, n: int) -> None:
    """validate's checks of a vector on n cells: its length, then its entries finite."""
    if vec.shape != (n,):
        raise ScenarioError(f"{name} must have length {n}, got shape {vec.shape}")
    if np.count_nonzero(np.isfinite(vec)) < vec.size:
        raise ScenarioError(f"{name} contains non-finite entries")


def row_sums(R: np.ndarray) -> np.ndarray:
    return np.add.reduce(np.asarray(R, dtype=float), axis=1)


def leaky_nodes(R: np.ndarray) -> list[int]:
    """0-based indices of rows with sum strictly below 1 - ROW_SUM_TOL."""
    return [int(i) for i in np.flatnonzero(row_sums(R) < 1 - ROW_SUM_TOL)]


def _reached(adj: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Mask of the cells reachable from the cells of mask ``start`` along
    the edges of the boolean adjacency matrix ``adj``, ``start`` included.

    Each round ORs the rows of the cells first reached in the round
    before, so every row is read once: at most n^2 boolean operations.
    Pass ``adj.T`` to get the cells that reach ``start``.
    """
    reached = start.copy()
    front = start
    while np.count_nonzero(front):
        front = np.logical_or.reduce(adj[front], axis=0) & ~reached
        reached |= front
    return reached


def is_out_connected(R: np.ndarray) -> bool:
    """True iff from every cell some leaky cell is reachable.

    A cell with row sum strictly below 1 counts as reaching itself
    (zero-length path), so e.g. the all-zero matrix is out-connected.
    Read from :func:`classify_routing`: R has no closed class.
    """
    return classify_routing(R).tag == SUBSTOCHASTIC_OUT_CONNECTED


def is_irreducible(R: np.ndarray) -> bool:
    """True iff the stochastic matrix R has no closed proper subset of cells.

    For stochastic R this is equivalent to strong connectivity of the
    support digraph: a closed subset is exactly a subset with no outgoing
    edge and full internal row mass.  Read from :func:`classify_routing`:
    one closed class holds every cell.  Raises PreconditionError if some
    row leaks (the subset condition is defined only for stochastic matrices).
    """
    sums = row_sums(R)
    if np.any(sums < 1 - ROW_SUM_TOL):
        i = int(np.argmax(sums < 1 - ROW_SUM_TOL))
        raise PreconditionError(
            f"is_irreducible requires a stochastic matrix; row {i + 1} "
            f"sums to {sums[i]:.17g}"
        )
    return classify_routing(R).tag == STOCHASTIC_IRREDUCIBLE


def _closed_subset(adj: np.ndarray, start: int) -> tuple[np.ndarray, np.ndarray]:
    """Masks of a closed subset reachable from cell ``start`` (0-based)
    along the boolean adjacency ``adj``, when no cell reachable from it
    leaks: a sink strongly-connected component; and of the cells that reach it.

    From ``start``, move to a reachable cell that does not reach back until
    every reachable cell reaches back; each move shrinks the reachable set.
    """
    i = start
    while True:
        cell = np.zeros(adj.shape[0], dtype=bool)
        cell[i] = True
        reached, reaching = _reached(adj, cell), _reached(adj.T, cell)
        escape = reached & ~reaching
        if not np.count_nonzero(escape):
            return reached, reaching
        i = int(np.argmax(escape))


def classify_routing(R: np.ndarray) -> RoutingClass:
    """Classify a validated sub-stochastic routing matrix by its closed classes.

    A backward search from the leaky cells finds the stranded cells; the
    closed class that the lowest of them reaches (:func:`_closed_subset`)
    and the cells that reach it leave them, until none is left.  No class
    is SubStochasticOutConnected, one of every cell with stochastic rows
    StochasticIrreducible, and anything else Other, which keeps the masks.
    """
    R = np.asarray(R, dtype=float)
    adj, sums = R > 0, row_sums(R)
    leaky, stochastic = sums < 1 - ROW_SUM_TOL, np.count_nonzero(np.abs(sums - 1) <= ROW_SUM_TOL) == sums.size
    stranded = ~_reached(adj.T, leaky)
    classes, left = [], stranded
    while np.count_nonzero(left):
        closed, reaching = _closed_subset(adj, int(np.argmax(left)))
        classes.append(closed)
        left = left & ~reaching
    if not classes:
        return RoutingClass(SUBSTOCHASTIC_OUT_CONNECTED, f"leaky rows {(np.flatnonzero(leaky) + 1).tolist()} reachable from every cell")
    if stochastic and np.count_nonzero(classes[0]) == classes[0].size:
        return RoutingClass(STOCHASTIC_IRREDUCIBLE, "all rows stochastic, support digraph strongly connected")
    cells = np.flatnonzero(classes[0] if stochastic else stranded) + 1
    return RoutingClass(OTHER, f"stochastic but reducible: closed subset {{{', '.join(map(str, cells))}}}" if stochastic
                        else f"cells {cells.tolist()} cannot reach a leaky cell", tuple(classes))


def _require_stochastic_irreducible(cls: RoutingClass, op: str) -> None:
    """PreconditionError naming op, the class and its detail, unless cls is StochasticIrreducible."""
    if cls.tag != STOCHASTIC_IRREDUCIBLE:
        raise PreconditionError(f"{op} requires a stochastic irreducible routing matrix ({cls.tag}: {cls.detail})")


def _pi_and_h(R: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """pi and the zero-sum Hv of a routing matrix known to be stochastic
    irreducible, from one solve of M X = [1, v], M = I - R' + 1 1'.

    1'(I - R') = 0, so 1'M = n 1': a solution of M x = b has 1'x = 1'b / n
    and solves x = R'x + b - 1'b / n.  M is therefore nonsingular (its null
    vectors would be zero-sum multiples of pi), periodic R included.  Both
    residuals must be below RESIDUAL_TOL; the H bound scales with
    max(1, |v|_inf), so rescaling the data does not decide whether the
    solve passes.
    """
    n = R.shape[0]
    # (1 - R) with its diagonal bumped, transposed: F-contiguous, as LAPACK takes it
    M = 1.0 - R
    M.flat[:: n + 1] += 1.0
    M = M.T
    b = np.empty((n, 2))  # the right-hand sides [1, v]
    b[:, 0] = 1.0
    b[:, 1] = v
    sol = np.linalg.solve(M, b)
    pi = sol[:, 0] / np.add.reduce(sol[:, 0])
    hv = sol[:, 1]
    residual = np.add.reduce(np.abs(pi - R.T @ pi))
    if residual >= RESIDUAL_TOL or np.count_nonzero(pi <= 0):
        raise NumericalError(f"invariant vector residual {residual:.3g} not within {RESIDUAL_TOL:.3g}")
    residual = max(np.maximum.reduce(np.abs(hv - R.T @ hv - v)), abs(np.add.reduce(hv)))
    bound = RESIDUAL_TOL * max(1.0, np.maximum.reduce(np.abs(v)))
    if residual >= bound:
        raise NumericalError(f"H solve residual {residual:.3g} not within {bound:.3g}")
    return pi, hv


def invariant_vector(R: np.ndarray) -> np.ndarray:
    """The unique probability vector pi with pi = R' pi, strictly positive.

    Solved as M pi = 1 with M = I - R' + 1 1' (see :func:`_pi_and_h`) and
    certified: pi > 0 and |pi - R' pi|_1 below RESIDUAL_TOL.
    """
    R = np.asarray(R, dtype=float)
    _require_stochastic_irreducible(classify_routing(R), "invariant_vector")
    return _pi_and_h(R, np.zeros(R.shape[0]))[0]


def tolerance_scale(w: np.ndarray) -> float:
    """max(1, |w|_inf), the factor on every tolerance for states and
    equilibria: (kw, kc) has k times the trajectories and equilibria of
    (w, c), so their errors scale with w; at unit scale and below the
    tolerances are the bare constants."""
    return max(1.0, float(np.maximum.reduce(w, axis=None)))


def zero_sum_tol(v: np.ndarray) -> float:
    """Tolerance on the zero-sum condition sum(v) = 0, relative to |v|_1
    with no floor, so that scaling v does not decide the answer."""
    return _ZERO_SUM_RTOL * np.add.reduce(np.abs(v), axis=None)


def is_zero_sum(v: np.ndarray) -> bool:
    """Whether sum(v) = 0 within :func:`zero_sum_tol`: the one-row case of
    :func:`_zero_sum_rows`, so that both always decide alike."""
    return bool(_zero_sum_rows(np.asarray(v, dtype=float)[None])[0])


def _zero_sum_rows(V: np.ndarray) -> np.ndarray:
    """Whether sum(v) = 0 within :func:`zero_sum_tol` for each row v of a
    2-d V, in one pass; the one rule behind :func:`is_zero_sum`."""
    return np.abs(np.add.reduce(V, axis=1)) <= _ZERO_SUM_RTOL * np.add.reduce(np.abs(V), axis=1)


def h_operator(R: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The zero-sum solution Hv of Hv = R' Hv + v.

    Solved as M x = v with M = I - R' + 1 1' (see :func:`_pi_and_h`) and
    certified: the defining equation and sum(x) = 0 both hold within
    RESIDUAL_TOL times max(1, |v|_inf).
    """
    R = np.asarray(R, dtype=float)
    v = np.asarray(v, dtype=float)
    _require_stochastic_irreducible(classify_routing(R), "h_operator")
    if not is_zero_sum(v):
        raise PreconditionError(f"h_operator requires a zero-sum vector, got sum {v.sum():.3g}")
    return _pi_and_h(R, v)[1]
