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
2008, sec. 4), give every sample state of the run in one product, and one
vectorised pass certifies each interval as if it were taken alone.  An
interval whose stages leave the pattern runs stage by stage.

Tolerances on states scale with max(1, |w|_inf) (model.tolerance_scale),
because (kw, kc) has k times the trajectories of (w, c).  So does the
residual tolerance below unit scale, and it is raised to the roundoff
level of the residual where it is below it, so networks in small and in
large units stop at the same relative distance from equilibrium.
"""

from __future__ import annotations

from dataclasses import dataclass

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

#: memory held by the maps of one integrate call, their stacks of powers and
#: a run's temporaries included; intervals whose single map would exceed it
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
#: it, and its stack stops growing or its intervals run stage by stage
_POWER_MAX = 1e100


def in_lattice(x: np.ndarray, w: np.ndarray, tol: float = LATTICE_TOL) -> bool:
    x = np.asarray(x, dtype=float)
    return bool(np.all(x >= -tol) and np.all(x <= np.asarray(w) + tol))


def net_flow(spec: NetworkSpec, x: np.ndarray) -> np.ndarray:
    """Net flow f(x) = clamp(R'x + c, 0, w) - x.

    The flow constraints -x <= f <= w - x hold exactly (the clamp output
    lies in [0, w]); asserted here so debug runs catch any regression.
    """
    x = np.asarray(x, dtype=float)
    f = np.clip(spec.routing.T @ x + spec.demand, 0.0, spec.capacity) - x
    assert np.all(f >= -x) and np.all(f <= spec.capacity - x)
    return f


@dataclass
class IntegratorConfig:
    dt: float = 0.01
    t_end: float = 200.0
    sample_every: int = 10
    residual_tol: float = 1e-10

    def __post_init__(self):
        if self.dt <= 0 or self.t_end <= 0 or self.residual_tol <= 0:
            raise ValueError("dt, t_end and residual_tol must be positive")
        if self.sample_every < 1:
            raise ValueError("sample_every must be a positive integer")
        if self.dt > self.t_end:
            raise ValueError("dt must not exceed t_end")


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
    stacked by doubling while runs take all of them, give the state after
    each interval of a run in one product.  A run ends at the first sample
    that converges or shows another pattern; each of its intervals is kept
    only if each pre-activation lies in the pattern's closed region, each
    state within the roundoff floor of [0, w], and the sample within that
    floor of the map applied to the previous sample.  Then the stages equal
    the stage-by-stage ones up to roundoff and no clamp can reach the guard.
    The first interval that fails runs stage by stage, and a map whose
    first interval fails is dropped at once.  A single interval is a run
    of length 1.

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
    2.2x on the transient benchmark's n = 2-6 networks.
    """
    if cfg is None:
        cfg = IntegratorConfig()
    x = np.asarray(x0, dtype=float).copy()
    w = spec.capacity
    if x.shape != w.shape:
        raise PreconditionError(f"initial state must have length {spec.n}")
    scale = tolerance_scale(w)
    if not in_lattice(x, w, LATTICE_TOL * scale):
        raise PreconditionError("initial state outside the lattice [0, w]")

    dt = cfg.dt
    n_steps = max(1, int(round(cfg.t_end / dt)))
    w_max = float(w.max())
    residual_tol = max(cfg.residual_tol * min(1.0, w_max), _RESIDUAL_ROUNDOFF * spec.n * w_max)
    floor = _GUARD_FLOOR * scale
    R_t = np.ascontiguousarray(spec.routing.T)
    c = spec.demand
    maps = None
    if spec.n <= _AFFINE_MAX_N and _IntervalMaps.nbytes(spec.n, cfg.sample_every) <= _MAP_BYTES:
        maps = _IntervalMaps(R_t, c, w, dt, floor)

    z = R_t @ x + c
    residual = _residual(z, x, w)
    times, states, residuals = [0.0], [x], [residual]
    converged = residual < residual_tol
    k = affine_steps = 0
    while not converged and k < n_steps:
        full = (n_steps - k) // cfg.sample_every
        steps, count = (cfg.sample_every, full) if full else (n_steps - k, 1)
        rejected = maps is None
        if not rejected:
            xs, zs, rs, rejected = maps.run(x, z, steps, count, residual_tol)
            if len(rs):
                times.extend((k + steps * np.arange(1, len(rs) + 1)) * dt)
                states.extend(xs)
                residuals.extend(rs)
                k += steps * len(rs)
                affine_steps += steps * len(rs)
                x, z, residual = xs[-1], zs[-1], float(rs[-1])
                converged = residual < residual_tol
        if rejected:
            x = _rk4_steps(R_t, c, w, dt, floor, x, k, steps)
            k += steps
            z = R_t @ x + c
            residual = _residual(z, x, w)
            times.append(k * dt)
            states.append(x)
            residuals.append(residual)
            converged = residual < residual_tol

    return Trajectory(
        times=np.asarray(times),
        states=np.asarray(states),
        converged=converged,
        final_residual=residual,
        residuals=np.asarray(residuals),
        affine_steps=affine_steps,
    )


def _residual(z: np.ndarray, x: np.ndarray, w: np.ndarray) -> float:
    """||clamp(z, 0, w) - x||_1 for z = R'x + c, i.e. ||f(x)||_1."""
    return float(np.abs(np.minimum(np.maximum(z, 0.0), w) - x).sum())


def _rk4_steps(R_t: np.ndarray, c: np.ndarray, w: np.ndarray, dt: float, floor: float,
               x: np.ndarray, k0: int, steps: int) -> np.ndarray:
    """The state after RK4 steps k0 + 1 .. k0 + steps from x, stage by
    stage, each clamped back onto the lattice within the guard."""

    def rhs(y):
        return np.clip(R_t @ y + c, 0.0, w) - y

    for k in range(k0 + 1, k0 + steps + 1):
        k1 = rhs(x)
        k2 = rhs(x + 0.5 * dt * k1)
        k3 = rhs(x + 0.5 * dt * k2)
        k4 = rhs(x + dt * k3)
        x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x_new)):
            raise NumericalError(f"non-finite state at t={k * dt:.6g}")
        clamped = np.clip(x_new, 0.0, w)
        clamp_mag = float(np.abs(clamped - x_new).max())
        guard = 10.0 * dt * dt * float(np.abs(k1).max()) + floor
        if clamp_mag > guard:
            raise NumericalError(f"lattice clamp {clamp_mag:.3g} exceeds guard {guard:.3g} at t={k * dt:.6g}")
        x = clamped
    return x


class _Map:
    """One interval map (A', b, lo, hi) of _IntervalMaps._build and the
    stack T of its powers: block j of T, rows j (n + 1) .. j (n + 1) + n,
    maps [x; 1] to [state after j + 1 intervals; 1]."""

    __slots__ = ("At", "b", "lo", "hi", "T", "nbytes", "fresh", "grow", "capped")

    def __init__(self, built: tuple[np.ndarray, ...], nbytes: int):
        self.At, self.b, self.lo, self.hi = built
        n = self.At.shape[0]
        self.T = np.eye(n + 1)
        self.T[:n, :n] = self.At[:, -n:].T
        self.T[:n, n] = self.b[-n:]
        self.nbytes = nbytes
        self.fresh = True  # no interval accepted yet
        self.grow = False  # the last run took the whole stack
        self.capped = not np.abs(self.T).max() <= _POWER_MAX


class _IntervalMaps:
    """RK4 sample intervals as affine maps of the state, one per saturation
    pattern and interval length, built on first use, each with a stack of
    its powers that grows once a run takes all of it."""

    def __init__(self, R_t: np.ndarray, c: np.ndarray, w: np.ndarray, dt: float, floor: float):
        self.R_t, self.c, self.w, self.dt, self.floor = R_t, c, w, dt, floor
        self.maps: dict[tuple, _Map | None] = {}  # None: the map's powers overflow
        self.held = 0  # bytes in self.maps

    @staticmethod
    def nbytes(n: int, steps: int, intervals: int = 1) -> int:
        """Memory of one map with a stack of `intervals` powers: A, b, lo
        and hi for 5 n steps rows, and per interval a power of (n + 1)^2
        entries and a run's temporaries (certificate rows, states,
        pre-activations) of 5 n steps + 4 n floats."""
        return 8 * (5 * n * steps * (n + 3) + intervals * ((n + 1) ** 2 + 5 * n * steps + 4 * n))

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
        """
        n, w = x.size, self.w
        low, high = z < 0.0, z > w
        key = (steps, low.tobytes(), high.tobytes())
        entry = self._entry(key, low, high, steps)
        if entry is None:
            return np.empty((0, n)), np.empty((0, n)), np.empty(0), True
        if entry.grow and not entry.capped:
            self._grow(key, entry, steps, count)
        T = entry.T[:count * (n + 1)]
        J = T.shape[0] // (n + 1)
        X = (T @ np.append(x, 1.0)).reshape(J, n + 1)[:, :n]
        Xc = np.minimum(np.maximum(X, 0.0), w)
        Z = Xc @ self.R_t.T + self.c
        res = np.abs(np.minimum(np.maximum(Z, 0.0), w) - Xc).sum(axis=1)
        stop = (((Z < 0.0) != low) | ((Z > w) != high)).any(axis=1) | (res < tol)
        m = int(stop.argmax()) + 1 if stop.any() else J
        Y = np.vstack([x, Xc[:m - 1]]) @ entry.At  # row j: interval j's certificate
        Y += entry.b
        ok = ((Y >= entry.lo) & (Y <= entry.hi)).all(axis=1)
        if m > 1:  # interval 0 starts at x, where Y[0] and X[0] are one map
            ok[1:] &= (np.abs(Y[1:, -n:] - X[1:m]) <= self.floor).all(axis=1)
        r = m if ok.all() else int(ok.argmin())
        if r == 0 and entry.fresh:
            # the pattern was left within its first interval: the trajectory
            # has moved on, and the next map can reuse this one's pages
            del self.maps[key]
            self.held -= entry.nbytes
        entry.fresh = entry.fresh and r == 0
        entry.grow = r == J == entry.T.shape[0] // (n + 1) and not stop[-1]
        return Xc[:r], Z[:r], res[:r], r < m

    def _entry(self, key: tuple, low: np.ndarray, high: np.ndarray, steps: int) -> _Map | None:
        """The map of this pattern and interval length, built on first use;
        the cache is cleared first if it would exceed _MAP_BYTES."""
        if key not in self.maps:
            size = self.nbytes(low.size, steps)
            if self.held + size > _MAP_BYTES:
                self.maps.clear()
                self.held = 0
            built = self._build(low, high, steps)
            self.maps[key] = None if built is None else _Map(built, size)
            if built is not None:
                self.held += size
        return self.maps[key]

    def _grow(self, key: tuple, entry: _Map, steps: int, count: int) -> None:
        """Extend entry's stack to `count` powers by doubling, one product
        per doubling, T[j + L] = T[j] M^L, within _RUN_BYTES and, after
        evicting the other maps if need be, _MAP_BYTES.  A stack that
        reaches a bound, or whose new powers pass _POWER_MAX, stops
        growing."""
        n1 = self.w.size + 1
        base = self.nbytes(n1 - 1, steps, 0)
        per = self.nbytes(n1 - 1, steps, 1) - base
        most = min(_RUN_BYTES, _MAP_BYTES - base) // per
        target = min(count, most)
        entry.capped = target == most
        L = entry.T.shape[0] // n1
        if target <= L:
            return
        if self.held + (target - L) * per > _MAP_BYTES:
            self.maps = {key: entry}
            self.held = entry.nbytes
        while L < target:
            new = entry.T[:min(L, target - L) * n1] @ entry.T[-n1:]
            if not np.abs(new).max() <= _POWER_MAX:
                entry.capped = True
                break
            entry.T = np.vstack([entry.T, new])
            L = entry.T.shape[0] // n1
        self.held += base + L * per - entry.nbytes
        entry.nbytes = base + L * per

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

        # every map below takes [x; 1] for x the state at the start of a step;
        # the square ones give [y; 1], or [f(y); 0] for the stage slopes
        E = np.eye(n + 1)
        F = np.zeros((n + 1, n + 1))  # f(y) = F [y; 1] on this pattern
        F[:n, :n] = R_t * free[:, None] - np.eye(n)
        F[:n, n] = np.where(free, c, np.where(high, w, 0.0))
        K1 = F
        Y2 = E + 0.5 * dt * K1
        K2 = F @ Y2
        Y3 = E + 0.5 * dt * K2
        K3 = F @ Y3
        Y4 = E + dt * K3
        K4 = F @ Y4
        S = E + (dt / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
        G = np.hstack([R_t, c[:, None]])  # z = G [y; 1]
        step = np.vstack([(G @ np.stack([E, Y2, Y3, Y4])).reshape(4 * n, n + 1), S[:n]])

        # powers[j] maps [x; 1] at the start of the interval to [x; 1] after
        # j steps; their entries are at most |S|_inf^j, checked only where
        # that bound passes _POWER_MAX
        check = (steps - 1) * np.log(np.abs(S).sum(axis=1).max()) > np.log(_POWER_MAX)
        powers = [E]
        for _ in range(steps - 1):
            powers.append(S @ powers[-1])
            if check and not np.abs(powers[-1]).max() <= _POWER_MAX:
                return None
        M = step @ np.stack(powers)  # M[j] maps [x; 1] to the rows of step j

        lo_z = np.where(low, -np.inf, np.where(high, w, 0.0))
        hi_z = np.where(low, 0.0, np.where(high, np.inf, w))
        lo = np.tile(np.concatenate([lo_z, lo_z, lo_z, lo_z, np.full(n, -floor)]), steps)
        hi = np.tile(np.concatenate([hi_z, hi_z, hi_z, hi_z, w + floor]), steps)
        return M[:, :, :n].transpose(2, 0, 1).reshape(n, -1), M[:, :, n].reshape(-1), lo, hi
