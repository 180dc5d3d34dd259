"""The saturated flow vector field and a fixed-step RK4 integrator.

The state x lives on the box lattice {0 <= x <= w} and evolves by

    dx/dt = clamp(R' x + c, 0, w) - x

which keeps the lattice invariant: the net flow f satisfies
-x <= f(x) <= w - x entrywise by construction.

The field is affine on each saturation pattern of the pre-activation
z = R'x + c: a cell with z_i < 0 receives 0, one with z_i > w_i receives
w_i and any other z_i.  While the pattern holds, one RK4 step is an affine
map of the state, so is a whole sample interval of steps, and so is a run
of many intervals: the sample states are the powers of the interval map
applied to the run's first state.  integrate takes a run of intervals at a
time.  The powers, built by doubling (Higham, Functions of Matrices, SIAM
2008, sec. 4) in one stack with the map, give every sample state of the
run in one product, and one vectorised pass certifies each interval as if
it were taken alone.  An interval whose stages leave the pattern runs
stage by stage.

The maps and their stacks depend on the network, dt and the guard floor
alone, so they are kept between calls: each thread keeps those of the last
network it integrated, and the next call on the same network (another
start, say) reuses them.  A run's length depends on its map and on the
intervals left, not on what earlier calls did, so a call that finds the
maps built returns the same bits as one that builds them.  After a call
returns the maps hold at most _MAP_BYTES.

Tolerances on states scale with max(1, |w|_inf) (model.tolerance_scale),
because (kw, kc) has k times the trajectories of (w, c).  So does the
residual tolerance below unit scale, and it is raised to the roundoff
level of the residual where it is below it, so networks in small and in
large units stop at the same relative distance from equilibrium.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .errors import NumericalError, PreconditionError
from .model import NetworkSpec, tolerance_scale

#: membership slack for "x is on the lattice"; integrate multiplies it by
#: max(1, |w|_inf) for the initial state
LATTICE_TOL = 1e-9

#: roundoff floor of the lattice clamp guard, times max(1, |w|_inf)
_GUARD_FLOOR = 1e-12

#: least residual tolerance, times n |w|_inf: near a fixed point the l1
#: residual is a sum of n roundoff errors of about eps |w|_inf each; with
#: dt = 0.01-0.2 on random networks (n = 3-50) and on the reference network
#: scaled by 1e6-1e12 it settled at 2e-15 n |w|_inf at most
_RESIDUAL_ROUNDOFF = 1e-14

#: largest n advanced by affine interval maps: a map of s steps has
#: 5 n s rows of n + 1 entries, and from n = 80 on building and applying the
#: maps of a saturating start costs more than stepping (see integrate)
_AFFINE_MAX_N = 64

#: memory held by the maps of one network, their stacks of powers and a
#: run's temporaries included; intervals whose single map would exceed it
#: run stage by stage
_MAP_BYTES = 32 * 2**20

#: bytes of one map's stack of powers with the temporaries of a run through
#: it, at most: 87 sample intervals at n = 6, 12 at n = 30 and 4 at n = 64
#: with sample_every = 10.  Larger stacks cost more in fresh pages and in
#: samples past convergence than their longer runs save: with 1 MB the
#: transient benchmark's integrate calls took 1.2x as long
_RUN_BYTES = 2**18

#: bound on the entries of a map's powers, so that the product of two stays
#: finite; the powers of an expanding map (RK4 with too long a step) pass
#: it, and its stack ends before the first that does, or its intervals run
#: stage by stage
_POWER_MAX = 1e100

#: the _IntervalMaps of the last network integrated, one slot per thread
_last = threading.local()


def in_lattice(x: np.ndarray, w: np.ndarray, tol: float = LATTICE_TOL) -> bool:
    x = np.asarray(x, dtype=float)
    inside = (x >= -tol) & (x <= np.asarray(w) + tol)
    return np.count_nonzero(inside) == inside.size


def net_flow(spec: NetworkSpec, x: np.ndarray) -> np.ndarray:
    """Net flow f(x) = clamp(R'x + c, 0, w) - x.

    x must be a finite state of length n (PreconditionError otherwise).
    The flow constraints -x <= f <= w - x then hold exactly (the clamp
    output lies in [0, w]); asserted here so debug runs catch any
    regression.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != spec.capacity.shape:
        raise PreconditionError(f"state must have length {spec.n}, got shape {x.shape}")
    finite = np.isfinite(x)
    if np.count_nonzero(finite) < x.size:
        i = int(np.argmin(finite))
        raise PreconditionError(f"state must be finite: cell {i + 1} is {x[i]}")
    f = np.clip(spec.routing.T @ x + spec.demand, 0.0, spec.capacity) - x
    assert np.all(f >= -x) and np.all(f <= spec.capacity - x)
    return f


@dataclass(frozen=True)
class IntegratorConfig:
    dt: float = 0.01
    t_end: float = 200.0
    sample_every: int = 10
    residual_tol: float = 1e-10

    def __post_init__(self):
        # bool is an Integral, but True is no step length or count
        for name in ("dt", "t_end", "residual_tol"):
            value = getattr(self, name)
            if isinstance(value, bool) or not (isinstance(value, Real) and 0 < value < math.inf):
                raise ValueError(f"{name} must be a positive finite number, got {value!r}")
        if isinstance(self.sample_every, bool) or not isinstance(self.sample_every, Integral) or self.sample_every < 1:
            raise ValueError(f"sample_every must be a positive integer, got {self.sample_every!r}")
        if self.dt > self.t_end:
            raise ValueError("dt must not exceed t_end")
        if not math.isfinite(self.t_end / self.dt):
            raise ValueError(f"t_end / dt must be finite, got {self.t_end!r} / {self.dt!r}")


@dataclass
class Trajectory:
    """Time-sampled solution of the flow dynamics.

    residuals holds the l1 residual ||f(x)||_1 of every sampled state.
    converged is true iff one of them dropped below the residual
    tolerance (see integrate), at which point integration stopped early.
    affine_steps counts the RK4 steps taken by affine interval maps; the
    others ran stage by stage.
    """

    times: np.ndarray
    states: np.ndarray  # shape (len(times), n)
    converged: bool
    final_residual: float
    residuals: np.ndarray
    affine_steps: int

    @property
    def final_state(self) -> np.ndarray:
        return self.states[-1]


def integrate(spec: NetworkSpec, x0: np.ndarray, cfg: IntegratorConfig | None = None) -> Trajectory:
    """Fixed-step RK4 on the saturated flow field, sampled every
    cfg.sample_every steps.

    States are clamped back onto the lattice after each step; since the
    exact flow never leaves the lattice, any clamp is integration error and
    its magnitude is guarded by 10*dt^2*max|f| (plus a roundoff floor).
    Integration stops early once a sampled residual drops below
    cfg.residual_tol * min(1, |w|_inf), or below 1e-14 n |w|_inf where that
    is larger (the residual cannot get much below the roundoff of its n
    terms); at |w|_inf >= 1 the first bound is cfg.residual_tol itself.  The
    guard's roundoff floor and the lattice slack of x0 are multiplied by
    max(1, |w|_inf).

    Sample intervals are taken in runs that share the saturation pattern of
    R'x + c at the run's start.  Per pattern and interval length one affine
    map is built on first use: it gives every RK4 stage pre-activation and
    every state of the interval from the state at its start.  Its powers,
    stacked by doubling when the map is built, give the state after each
    interval of a run in one product; a run tries as many intervals as are
    left, up to the stack's length.  A run ends at the first sample
    that converges or shows another pattern; each of its intervals is kept
    only if each pre-activation lies in the pattern's closed region, each
    state within the roundoff floor of [0, w], and the sample within that
    floor of the map applied to the previous sample.  Then the stages equal
    the stage-by-stage ones up to roundoff and no clamp can reach the guard.
    The first interval that fails runs stage by stage, and a map whose
    first interval fails is dropped at once.  A single interval is a run
    of length 1.  Each run and each interval stage by stage adds one block
    of states and one of residuals, joined once when the call returns.

    The maps are kept after the call, per thread for the last network
    integrated, keyed by the exact bytes of R, c and w with dt and the
    guard floor; they hold at most _MAP_BYTES when the call returns.  A
    later call on the same network, from any start, reuses them and
    returns the same bits as a call that builds them anew: a stack's
    length depends on its map alone.

    Above n = 64 (_AFFINE_MAX_N) every interval runs stage by stage.
    Measured with dt = 0.05, sample_every = 10, t_end = 40 on random leaky
    networks, one thread of a 2-CPU Xeon VM (numpy 2.4.6, OpenBLAS), the
    maps made integrate 13-22x faster than stepping at n = 3-6, 7.8-12x at
    n = 24, 2.3-6.5x at n = 50, 1.5-4.4x at n = 64, 1.2-3.1x at n = 72,
    0.9-2.2x at n = 80 and 0.65-2.5x at n = 100; the lower figure starts at
    0 or w with saturating demands, whose early patterns are often left
    within an interval, so their maps are built and rejected; the higher
    one starts inside the box with an interior equilibrium.  Those figures
    are for one map per interval; runs, measured the same way from 0 and
    w, made integrate another 1.04-1.45x faster at n = 30, 50 and 64, and
    2.2x on the transient benchmark's n = 2-6 networks.  There (seed 61,
    fastest of 40 rounds of its 120 calls, same VM) a call takes ~155 us:
    0.45 map builds ~23 us and their stacks ~12 us, 1.1 runs ~72 us, 0.12
    intervals stage by stage ~20 us, and the call's own entry and blocks
    ~30 us.  A run that accepts 75 intervals at n = 5 takes ~64 us, of
    which its certificate is ~31 us: the product with A' ~9 us, the
    column extremes ~15 us and the floor check ~7 us.  A stack is one
    small matmul per doubling, its overflow settled by one norm bound.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    x = np.array(x0, dtype=float)
    w = spec.capacity
    if x.shape != w.shape:
        raise PreconditionError(f"initial state must have length {spec.n}")
    scale = tolerance_scale(w)
    slack = LATTICE_TOL * scale
    if not in_lattice(x, w, slack):
        past = np.maximum(-x, x - w)  # how far each cell is past its nearer bound
        i = int(np.argmax(~(past <= slack)))  # NaN counts as outside
        raise PreconditionError(f"initial state outside the lattice [0, w]: cell {i + 1} is {past[i]:.3g} "
                                f"outside, beyond the slack {slack:.3g}")

    dt = cfg.dt
    n_steps = max(1, int(round(cfg.t_end / dt)))
    w_max = float(np.maximum.reduce(w))
    residual_tol = max(cfg.residual_tol * min(1.0, w_max), _RESIDUAL_ROUNDOFF * spec.n * w_max)
    floor = _GUARD_FLOOR * scale
    c = spec.demand
    maps = None
    if spec.n <= _AFFINE_MAX_N and _IntervalMaps.nbytes(spec.n, cfg.sample_every) <= _MAP_BYTES:
        maps = _IntervalMaps.kept(spec.routing, c, w, dt, floor)
    R_t = np.ascontiguousarray(spec.routing.T) if maps is None else maps.R_t

    z = R_t @ x + c
    residual = _residual(z, x, w)
    # the step index of each sample, and one block of states and one of
    # residuals per run or stage-by-stage interval
    ks, xs, rs = [0], [x[None]], [(residual,)]
    converged = residual < residual_tol
    k = affine_steps = 0
    while not converged and k < n_steps:
        full = (n_steps - k) // cfg.sample_every
        steps, count = (cfg.sample_every, full) if full else (n_steps - k, 1)
        rejected = maps is None
        if not rejected:
            X, Z, res, rejected = maps.run(x, z, steps, count, residual_tol)
            r = len(res)
            if r:
                ks.extend(range(k + steps, k + steps * r + 1, steps))
                xs.append(X)
                rs.append(res)
                k += steps * r
                affine_steps += steps * r
                x, z, residual = X[-1], Z[-1], float(res[-1])
                converged = residual < residual_tol
        if rejected:
            x = _rk4_steps(R_t, c, w, dt, floor, x, k, steps)
            k += steps
            z = R_t @ x + c
            residual = _residual(z, x, w)
            ks.append(k)
            xs.append(x[None])
            rs.append((residual,))
            converged = residual < residual_tol

    return Trajectory(
        times=np.array(ks) * dt,
        states=np.concatenate(xs),
        converged=converged,
        final_residual=residual,
        residuals=np.concatenate(rs),
        affine_steps=affine_steps,
    )


def _residual(z: np.ndarray, x: np.ndarray, w: np.ndarray) -> float:
    """||clamp(z, 0, w) - x||_1 for z = R'x + c, i.e. ||f(x)||_1."""
    return float(np.add.reduce(np.abs(np.minimum(np.maximum(z, 0.0), w) - x)))


def _rk4_steps(R_t: np.ndarray, c: np.ndarray, w: np.ndarray, dt: float, floor: float,
               x: np.ndarray, k0: int, steps: int) -> np.ndarray:
    """The state after RK4 steps k0 + 1 .. k0 + steps from x, stage by
    stage, each clamped back onto the lattice within the guard."""

    half, sixth, guard_factor = 0.5 * dt, dt / 6.0, 10.0 * dt * dt

    def rhs(y):
        return np.minimum(np.maximum(R_t @ y + c, 0.0), w) - y  # np.clip, without its dispatch cost

    for k in range(k0 + 1, k0 + steps + 1):
        k1 = rhs(x)
        k2 = rhs(x + half * k1)
        k3 = rhs(x + half * k2)
        k4 = rhs(x + dt * k3)
        x_new = x + sixth * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        clamped = np.minimum(np.maximum(x_new, 0.0), w)
        clamp_mag = float(np.maximum.reduce(np.abs(clamped - x_new)))
        if not clamp_mag <= floor:  # the guard is at least the floor; a non-finite x_new gives inf or NaN
            if not np.isfinite(x_new).all():
                raise NumericalError(f"non-finite state at t={k * dt:.6g}")
            guard = guard_factor * float(np.abs(k1).max()) + floor
            if clamp_mag > guard:
                raise NumericalError(f"lattice clamp {clamp_mag:.3g} exceeds guard {guard:.3g} at t={k * dt:.6g}")
        x = clamped
    return x


class _Map:
    """One interval map (A', b, lo, hi) of _IntervalMaps._build and the
    stack T of its powers (_IntervalMaps._stack): T[j] maps [x; 1] to
    [state after j + 1 intervals; 1]."""

    __slots__ = ("At", "b", "lo", "hi", "T", "nbytes", "fresh")

    def __init__(self, built: tuple[np.ndarray, ...], T: np.ndarray, nbytes: int):
        self.At, self.b, self.lo, self.hi = built
        self.T = T
        self.nbytes = nbytes
        self.fresh = True  # no interval accepted yet


class _IntervalMaps:
    """RK4 sample intervals of one network as affine maps of the state, one
    per saturation pattern and interval length, each built on first use
    together with its whole stack of powers.

    A stack holds max(1, _most) powers, fewer only where a power passes
    _POWER_MAX, and a run through it tries min(intervals left, stack
    length) intervals, so what a run does depends on its map, not on the
    calls before it.  A map evicted or dropped is rebuilt with the same
    bits."""

    def __init__(self, R_t: np.ndarray, c: np.ndarray, w: np.ndarray, dt: float, floor: float):
        self.R_t, self.c, self.w, self.dt, self.floor = R_t, c, w, dt, floor
        self.key = (R_t.tobytes(), c.tobytes(), w.tobytes(), dt, floor)
        self.G = np.hstack([R_t, c[:, None]])  # z = G [y; 1]
        self.maps: dict[tuple, _Map | None] = {}  # None: the map's powers overflow
        self.held = 0  # bytes in self.maps

    @classmethod
    def kept(cls, R: np.ndarray, c: np.ndarray, w: np.ndarray, dt: float, floor: float) -> _IntervalMaps:
        """The maps this thread keeps if they are of this network (routing
        R), dt and floor, else new ones (on copies of the arrays) that it
        keeps in their place."""
        maps = getattr(_last, "maps", None)
        if maps is None or maps.key != (R.T.tobytes(), c.tobytes(), w.tobytes(), dt, floor):
            maps = _last.maps = cls(np.array(R.T, order="C"), c.copy(), w.copy(), dt, floor)
        return maps

    @staticmethod
    def nbytes(n: int, steps: int, intervals: int = 1) -> int:
        """Memory of one map with a stack of `intervals` powers: A, b, lo
        and hi for 5 n steps rows, and per interval a power of (n + 1)^2
        entries and a run's temporaries (certificate rows, states,
        pre-activations) of 5 n steps + 4 n floats."""
        return 8 * (5 * n * steps * (n + 3) + intervals * ((n + 1) ** 2 + 5 * n * steps + 4 * n))

    @classmethod
    def _most(cls, n: int, steps: int) -> int:
        """The most powers a stack may hold: within _RUN_BYTES, and within
        _MAP_BYTES for the map alone; 0 where one power's run would pass
        _RUN_BYTES."""
        base = cls.nbytes(n, steps, 0)
        return min(_RUN_BYTES, _MAP_BYTES - base) // (cls.nbytes(n, steps, 1) - base)

    def run(self, x: np.ndarray, z: np.ndarray, steps: int, count: int, tol: float):
        """Up to `count` sample intervals of `steps` RK4 steps from x, whose
        pre-activation is z, taken together while z's saturation pattern
        holds: (states, pre-activations, residuals, rejected).

        One product with the stack of powers gives every sample state.  The
        run ends at the first sample whose residual is below tol or whose
        pattern differs from z's, or where the stack ends, and one pass
        certifies the intervals up to there, each as the stage-by-stage
        certificate of its start would: every stage pre-activation in the
        pattern's closed region, every state within the guard's roundoff
        floor of [0, w], and the sample state within that floor of the
        interval map of the previous one.  The run keeps the intervals
        before the first that fails, their states clamped onto [0, w] as a
        step would clamp them; rejected says that one failed and must run
        stage by stage.

        The region is decided for all intervals at once, from the column
        extremes of Y = S A', S the starts.  Rounding is monotone, so
        fl(min_j Y_j + b) = min_j fl(Y_j + b), and likewise for the max:
        every row of Y + b lies in [lo, hi] exactly when both extremes do,
        and a NaN fails both.  Only where an extreme fails are the rows
        tested one by one, to find the first interval that fails.  The
        floor check, on the n state rows, is made row by row.
        """
        n, w = x.size, self.w
        low, high = z < 0.0, z > w
        key = (steps, low.tobytes(), high.tobytes())
        entry = self._entry(key, low, high, steps)
        if entry is None:
            return np.empty((0, n)), np.empty((0, n)), np.empty(0), True
        J = min(count, len(entry.T))
        xe = np.empty(n + 1)  # [x; 1]
        xe[:n] = x
        xe[n] = 1.0
        X = (entry.T[:J].reshape(J * (n + 1), n + 1) @ xe).reshape(J, n + 1)[:, :n]
        Xc = np.minimum(np.maximum(X, 0.0), w)
        Z = Xc @ self.R_t.T + self.c
        res = np.add.reduce(np.abs(np.minimum(np.maximum(Z, 0.0), w) - Xc), axis=1)
        stop = np.logical_or.reduce(((Z < 0.0) != low) | ((Z > w) != high), axis=1) | (res < tol)
        m = int(stop.argmax()) + 1
        if not stop[m - 1]:
            m = J
        starts = np.empty((m, n))  # row j: the state at the start of interval j
        starts[0] = x
        starts[1:] = Xc[:m - 1]
        Y = starts @ entry.At  # row j, plus b: interval j's certificate
        b, lo, hi = entry.b, entry.lo, entry.hi
        ok = np.ones(m, dtype=bool)
        if m > 1:  # interval 0 starts at x, where Y[0] and X[0] are one map
            ok[1:] = np.logical_and.reduce(np.abs(Y[1:, -n:] + b[-n:] - X[1:m]) <= self.floor, axis=1)
        if not (np.logical_and.reduce(lo <= np.minimum.reduce(Y) + b)
                and np.logical_and.reduce(np.maximum.reduce(Y) + b <= hi)):  # then find the rows that fail
            Y += b
            ok &= np.logical_and.reduce((Y >= lo) & (Y <= hi), axis=1)
        r = int(ok.argmin())
        if ok[r]:
            r = m
        if r == 0 and entry.fresh:
            # the pattern was left within its first interval: the trajectory
            # has moved on, and the next map can reuse this one's pages
            del self.maps[key]
            self.held -= entry.nbytes
        entry.fresh = entry.fresh and r == 0
        return Xc[:r], Z[:r], res[:r], r < m

    def _entry(self, key: tuple, low: np.ndarray, high: np.ndarray, steps: int) -> _Map | None:
        """The map of this pattern and interval length with its stack of
        max(1, _most) powers, built together on first use; the cache is
        cleared first if they would take it past _MAP_BYTES."""
        if key not in self.maps:
            n = low.size
            most = max(1, self._most(n, steps))
            if self.held + self.nbytes(n, steps, most) > _MAP_BYTES:
                self.maps.clear()
                self.held = 0
            built = self._build(low, high, steps)
            entry = None
            if built is not None:
                T = self._stack(built[0], built[1], most)
                entry = _Map(built, T, self.nbytes(n, steps, len(T)))
                self.held += entry.nbytes
            self.maps[key] = entry
        return self.maps[key]

    @staticmethod
    def _stack(At: np.ndarray, b: np.ndarray, most: int) -> np.ndarray:
        """The first `most` powers of the interval map whose state rows are
        the last n of A' and b, each a map of [x; 1].  Power p is power
        p - P times power P, P the largest power of two below p: one matmul
        per doubling, T[P:2P] = T[:P] T[P - 1], checked against _POWER_MAX
        by one max, and power by power only where that fails.  The stack ends
        before the first power past _POWER_MAX, and holds the map itself
        whatever its entries.

        No entry of power p exceeds |T[0]|_inf^p.  A computed product has
        an inf-norm within a factor 1 + (n + 1) eps of the product of its
        factors' norms, and a power takes at most log2(most) + 1 products
        in turn, so where |T[0]|_inf^most <= _POWER_MAX / 2 no check could
        fail: none is made, and the stack has the same bits and length.
        """
        n = At.shape[0]
        T = np.empty((most, n + 1, n + 1))
        T[0] = np.eye(n + 1)
        T[0, :n, :n] = At[:, -n:].T
        T[0, :n, n] = b[-n:]
        norm = float(np.maximum.reduce(np.add.reduce(np.abs(T[0]), axis=1)))  # >= 1, from the row [0, 1]
        checked = not most * math.log(norm) <= math.log(0.5 * _POWER_MAX)  # NaN or inf: checked
        end = most if not checked or np.maximum.reduce(np.abs(T[0]), axis=None) <= _POWER_MAX else 1
        P = 1
        while P < end:
            top = min(2 * P, end)
            np.matmul(T[:top - P], T[P - 1], out=T[P:top])
            if checked and not np.maximum.reduce(np.abs(T[P:top]), axis=None) <= _POWER_MAX:
                # then find the first power past it
                end = P + int((~(np.maximum.reduce(np.abs(T[P:top]), axis=(1, 2)) <= _POWER_MAX)).argmax())
            P = top
        return T if end == most else T[:end].copy()

    def _build(self, low: np.ndarray, high: np.ndarray, steps: int) -> tuple[np.ndarray, ...] | None:
        """(A', b, lo, hi), A' the transpose of A: A x + b stacks, for each
        step of the interval, the pre-activations of its four stages and the
        state after it; the state rows come last.  lo <= A x + b <= hi is
        the closed region of the pattern, and the lattice widened by the
        roundoff floor.  None if the powers of the step map pass _POWER_MAX
        within the interval."""
        R_t, c, w, dt, floor = self.R_t, self.c, self.w, self.dt, self.floor
        n = w.size
        free = ~(low | high)
        capped = np.where(high, w, 0.0)

        # every map below takes [x; 1] for x the state at the start of a step;
        # the square ones give [y; 1], or [f(y); 0] for the stage slopes
        E = np.eye(n + 1)
        F = np.zeros((n + 1, n + 1))  # f(y) = F [y; 1] on this pattern
        F[:n, :n] = R_t * free[:, None] - E[:n, :n]
        F[:n, n] = np.where(free, c, capped)
        Y = np.empty((4, n + 1, n + 1))  # the stage inputs [y; 1] of a step
        Y[0] = E
        K1 = F
        np.add(E, 0.5 * dt * K1, out=Y[1])
        K2 = F @ Y[1]
        np.add(E, 0.5 * dt * K2, out=Y[2])
        K3 = F @ Y[2]
        np.add(E, dt * K3, out=Y[3])
        K4 = F @ Y[3]
        S = E + (dt / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
        step = np.empty((5 * n, n + 1))
        step[:4 * n] = (self.G @ Y).reshape(4 * n, n + 1)
        step[4 * n:] = S[:n]

        # powers[j] maps [x; 1] at the start of the interval to [x; 1] after
        # j steps; their entries are at most |S|_inf^j, checked only where
        # that bound passes _POWER_MAX
        check = (steps - 1) * math.log(np.maximum.reduce(np.add.reduce(np.abs(S), axis=1))) > math.log(_POWER_MAX)
        powers = np.empty((steps, n + 1, n + 1))
        powers[0] = E
        for j in range(1, steps):
            np.matmul(S, powers[j - 1], out=powers[j])
            if check and not np.abs(powers[j]).max() <= _POWER_MAX:
                return None
        M = step @ powers  # M[j] maps [x; 1] to the rows of step j

        # the closed region of the pattern for the stage rows, [0, w] widened
        # by the floor for the state rows, in the row order of M
        lo = np.empty((steps, 5, n))
        hi = np.empty((steps, 5, n))
        lo[:, :4] = np.where(low, -np.inf, capped)
        hi[:, :4] = np.where(low, 0.0, np.where(high, np.inf, w))
        lo[:, 4] = -floor
        hi[:, 4] = w + floor
        return M[:, :, :n].transpose(2, 0, 1).reshape(n, -1), M[:, :, n].reshape(-1), lo.reshape(-1), hi.reshape(-1)
