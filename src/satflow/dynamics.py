"""The saturated flow vector field and a fixed-step RK4 integrator.

The state x lives on the box lattice {0 <= x <= w} and evolves by

    dx/dt = clamp(R' x + c, 0, w) - x

which keeps the lattice invariant: the net flow f satisfies
-x <= f(x) <= w - x entrywise by construction.

The field is affine on each saturation pattern of the pre-activation
z = R'x + c: a cell with z_i < 0 receives 0, one with z_i > w_i receives
w_i and any other z_i.  While the pattern holds, one RK4 step is an affine
map of the state, and so is a whole sample interval of steps.  integrate
advances an interval by one such map when every RK4 stage stays in the
pattern, and stage by stage otherwise.

Tolerances on states scale with max(1, |w|_inf) (model.tolerance_scale),
because (kw, kc) has k times the trajectories of (w, c).  The residual
tolerance is raised to the roundoff level of the residual where it is
below it, so networks in large units still converge.
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

#: memory held by the maps of one integrate call; intervals whose single map
#: would exceed it run stage by stage
_MAP_BYTES = 32 * 2**20


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
    cfg.residual_tol, or below 1e-14 n |w|_inf where that is larger (the
    residual cannot get much below the roundoff of its n terms).  The
    guard's roundoff floor and the lattice slack of x0 are multiplied by
    max(1, |w|_inf).

    Each sample interval is first tried as one affine map of the state,
    built once per saturation pattern of R'x + c at its start and interval
    length.  The map gives every RK4 stage pre-activation and every state
    of the interval; the result is kept only if each pre-activation lies in
    its pattern's closed region and each state within the roundoff floor of
    [0, w].  Then the stages equal the stage-by-stage ones up to roundoff
    and no clamp can reach the guard.  Otherwise the interval runs stage by
    stage.

    Above n = 64 (_AFFINE_MAX_N) every interval runs stage by stage.
    Measured with dt = 0.05, sample_every = 10, t_end = 40 on random leaky
    networks, one thread of a 2-CPU Xeon VM (numpy 2.4.6, OpenBLAS), the
    maps made integrate 13-22x faster than stepping at n = 3-6, 7.8-12x at
    n = 24, 2.3-6.5x at n = 50, 1.5-4.4x at n = 64, 1.2-3.1x at n = 72,
    0.9-2.2x at n = 80 and 0.65-2.5x at n = 100; the lower figure starts at
    0 or w with saturating demands, whose early patterns are often left
    within an interval, so their maps are built and rejected; the higher
    one starts inside the box with an interior equilibrium.
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
    residual_tol = max(cfg.residual_tol, _RESIDUAL_ROUNDOFF * spec.n * float(w.max()))
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
        steps = min(cfg.sample_every, n_steps - k)
        x_next = None if maps is None else maps.advance(x, z, steps)
        if x_next is None:
            x_next = _rk4_steps(R_t, c, w, dt, floor, x, k, steps)
        else:
            affine_steps += steps
        x = x_next
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


class _IntervalMaps:
    """RK4 sample intervals as affine maps of the state, one per saturation
    pattern and interval length, built on first use."""

    def __init__(self, R_t: np.ndarray, c: np.ndarray, w: np.ndarray, dt: float, floor: float):
        self.R_t, self.c, self.w, self.dt, self.floor = R_t, c, w, dt, floor
        self.maps: dict[tuple, tuple[np.ndarray, ...]] = {}
        self.held = 0  # bytes in self.maps

    @staticmethod
    def nbytes(n: int, steps: int) -> int:
        """Memory of one map: A, b, lo and hi for 5 n steps rows."""
        return 8 * 5 * n * steps * (n + 3)

    def advance(self, x: np.ndarray, z: np.ndarray, steps: int) -> np.ndarray | None:
        """The state after `steps` RK4 steps from x, whose pre-activation
        is z, or None unless every stage stays in z's saturation pattern
        and every state within the guard's roundoff floor of [0, w].

        The final state is clamped onto [0, w] as a step would clamp it; a
        cell held on a face of the lattice lands within roundoff of it.
        """
        low, high = z < 0.0, z > self.w
        key = (steps, low.tobytes(), high.tobytes())
        entry = self.maps.get(key)
        if entry is None:
            size = self.nbytes(x.size, steps)
            if self.held + size > _MAP_BYTES:
                self.maps.clear()
                self.held = 0
            entry = self.maps[key] = self._build(low, high, steps)
            self.held += size
        A, b, lo, hi = entry
        out = A @ x + b
        if (out >= lo).all() and (out <= hi).all():
            return np.minimum(np.maximum(out[-x.size:], 0.0), self.w)
        return None

    def _build(self, low: np.ndarray, high: np.ndarray, steps: int) -> tuple[np.ndarray, ...]:
        """(A, b, lo, hi): A x + b stacks, for each step of the interval,
        the pre-activations of its four stages and the state after it; the
        state rows come last.  lo <= A x + b <= hi is the closed region of
        the pattern, and the lattice widened by the roundoff floor."""
        R_t, c, w, dt, floor = self.R_t, self.c, self.w, self.dt, self.floor
        n = w.size
        free = ~(low | high)

        def after(L, Y):
            # the affine map L of [y; 1] composed with y = Y [x; 1]
            out = L[:, :n] @ Y
            out[:, n] += L[:, n]
            return out

        # every map below takes [x; 1] for x the state at the start of a step
        E = np.eye(n, n + 1)
        F = np.zeros((n, n + 1))  # f(y) = F [y; 1] on this pattern
        F[free, :n] = R_t[free]
        F[:, :n] -= np.eye(n)
        F[:, n] = np.where(free, c, 0.0) + np.where(high, w, 0.0)
        G = np.hstack([R_t, c[:, None]])  # z = G [y; 1]
        K1 = F
        Y2 = E + 0.5 * dt * K1
        K2 = after(F, Y2)
        Y3 = E + 0.5 * dt * K2
        K3 = after(F, Y3)
        Y4 = E + dt * K3
        K4 = after(F, Y4)
        S = E + (dt / 6.0) * (K1 + 2.0 * K2 + 2.0 * K3 + K4)
        step = np.vstack([G, after(G, Y2), after(G, Y3), after(G, Y4), S])

        # powers[j] maps [x; 1] at the start of the interval to [x; 1] after j steps
        S_aug = np.vstack([S, np.eye(1, n + 1, n)])
        powers = [np.eye(n + 1)]
        for _ in range(steps - 1):
            powers.append(S_aug @ powers[-1])
        M = (step @ np.stack(powers)).reshape(-1, n + 1)

        lo_z = np.where(low, -np.inf, np.where(high, w, 0.0))
        hi_z = np.where(low, 0.0, np.where(high, np.inf, w))
        lo = np.tile(np.concatenate([lo_z, lo_z, lo_z, lo_z, np.full(n, -floor)]), steps)
        hi = np.tile(np.concatenate([hi_z, hi_z, hi_z, hi_z, w + floor]), steps)
        return np.ascontiguousarray(M[:, :n]), M[:, n].copy(), lo, hi
