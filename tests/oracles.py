"""Independent reference implementations used only by the tests: an
entrywise clamp, the unsaturated field, the averaged power series of H, a
stage-by-stage RK4 integrator, a run of interval maps certified row by
row and a stack of powers checked at every doubling, and the ratio test
and region check of a saturation pattern stated on its masks."""

import numpy as np

from satflow import dynamics
from satflow.errors import NumericalError


def saturate(y, lo, hi):
    """Entrywise clamp of y to [lo, hi]; idempotent, monotone in y."""
    y = np.asarray(y, dtype=float)
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    if np.any(lo > hi):
        i = int(np.argmax(lo > hi))
        raise ValueError(f"saturation bounds inverted at index {i}: lo={lo.flat[i]} > hi={hi.flat[i]}")
    return np.minimum(np.maximum(y, lo), hi)


def linear_rhs(spec, x):
    """Unsaturated field (R' - I)x + c.

    Coincides with net_flow wherever R'x + c lies strictly inside (0, w),
    i.e. wherever no clamp is active.
    """
    x = np.asarray(x, dtype=float)
    return spec.routing.T @ x + spec.demand - x


def h_series(R, v, max_terms=10**4, increment_tol=1e-12):
    """Truncated averaged series (1/2) sum_k ((I + R')/2)^k v.

    Each term is zero-sum, so the limit is the zero-sum solution of
    Hv = R' Hv + v.
    """
    R = np.asarray(R, dtype=float)
    v = np.asarray(v, dtype=float)
    M = 0.5 * (np.eye(R.shape[0]) + R.T)
    term = 0.5 * v.copy()
    total = term.copy()
    for _ in range(max_terms - 1):
        term = M @ term
        total += term
        if np.abs(term).max() < increment_tol:
            break
    return total


def rk4(spec, x0, cfg):
    """Stage-by-stage RK4 with the contract of satflow.integrate.

    Every step clamps the state onto [0, w] and raises if the clamp exceeds
    10*dt^2*max|f| plus 1e-12*max(1, |w|_inf); every sample_every steps,
    and after the last, the state is sampled and integration stops once
    ||f(x)||_1 < max(residual_tol*min(1, |w|_inf), 1e-14*n*|w|_inf).  Returns
    (times, states, converged, residuals).
    """
    R, w, c = spec.routing, spec.capacity, spec.demand
    scale = max(1.0, float(w.max()))
    tol = max(cfg.residual_tol * min(1.0, float(w.max())), 1e-14 * w.size * float(w.max()))
    dt = cfg.dt

    def f(y):
        return np.clip(R.T @ y + c, 0.0, w) - y

    x = np.asarray(x0, dtype=float).copy()
    n_steps = max(1, int(round(cfg.t_end / dt)))
    times, states, residuals = [0.0], [x.copy()], [float(np.abs(f(x)).sum())]
    converged = residuals[0] < tol
    for k in range(1, 0 if converged else n_steps + 1):
        k1 = f(x)
        k2 = f(x + 0.5 * dt * k1)
        k3 = f(x + 0.5 * dt * k2)
        k4 = f(x + dt * k3)
        x_new = x + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(x_new)):
            raise NumericalError(f"non-finite state at t={k * dt:.6g}")
        clamped = np.clip(x_new, 0.0, w)
        clamp_mag = float(np.abs(clamped - x_new).max())
        guard = 10.0 * dt * dt * float(np.abs(k1).max()) + 1e-12 * scale
        if clamp_mag > guard:
            raise NumericalError(f"lattice clamp {clamp_mag:.3g} exceeds guard {guard:.3g} at t={k * dt:.6g}")
        x = clamped
        if k % cfg.sample_every == 0 or k == n_steps:
            times.append(k * dt)
            states.append(x.copy())
            residuals.append(float(np.abs(f(x)).sum()))
            if residuals[-1] < tol:
                converged = True
                break
    return np.asarray(times), np.asarray(states), converged, np.asarray(residuals)


def run_rows(maps, entry, x, z, count, tol):
    """What satflow.dynamics._IntervalMaps.run returns for a run from x
    (pre-activation z) through entry, a map of maps, with the same
    products, and each interval's certificate tested on its own row:
    every entry of A' s + b, s the interval's start, within [lo, hi], and
    its state rows within the guard floor of the sample.  Leaves the maps
    and the entry as they are."""
    n, w = x.size, maps.w
    low, high = z < 0.0, z > w
    J = min(count, len(entry.T))
    X = (entry.T[:J].reshape(J * (n + 1), n + 1) @ np.append(x, 1.0)).reshape(J, n + 1)[:, :n]
    Xc = np.minimum(np.maximum(X, 0.0), w)
    Z = Xc @ maps.R_t.T + maps.c
    res = np.abs(np.minimum(np.maximum(Z, 0.0), w) - Xc).sum(axis=1)
    m = J
    for j in range(J):
        if np.any((Z[j] < 0.0) != low) or np.any((Z[j] > w) != high) or res[j] < tol:
            m = j + 1
            break
    Y = np.vstack([x, Xc[:m - 1]]) @ entry.At + entry.b  # row j: interval j's certificate
    r = m
    for j in range(m):
        inside = np.all((Y[j] >= entry.lo) & (Y[j] <= entry.hi))
        if not inside or (j > 0 and not np.all(np.abs(Y[j, -n:] - X[j]) <= maps.floor)):
            r = j
            break
    return Xc[:r], Z[:r], res[:r], r < m


def stack_checked(At, b, most):
    """The stack of satflow.dynamics._IntervalMaps._stack with every
    doubling checked against _POWER_MAX: the first `most` powers of the
    map whose state rows are the last n of A' and b, power P + j the
    product of power j + 1 and power P (P a power of two), ending before
    the first power past _POWER_MAX and holding the map itself whatever
    its entries."""
    n = At.shape[0]
    T = np.empty((most, n + 1, n + 1))
    T[0] = np.eye(n + 1)
    T[0, :n, :n] = At[:, -n:].T
    T[0, :n, n] = b[-n:]
    end = most if np.abs(T[0]).max() <= dynamics._POWER_MAX else 1
    P = 1
    while P < end:
        top = min(2 * P, end)
        for p in range(P, top):
            T[p] = T[p - P] @ T[P - 1]
            if not np.abs(T[p]).max() <= dynamics._POWER_MAX:
                end = p
                break
        P = top
    return T[:end].copy()


def pattern_leave(y, slope, zero, cap, w):
    """dt at which each cell of the line y + dt*slope leaves the closed
    region of the pattern that holds zero at 0, cap at w and frees the
    rest, inf where it never does, from the masks: cells held at 0 cross 0
    upward, cells held at w cross w downward, free cells reach 0 or w."""
    falling = slope < 0
    moving = np.where(falling, ~zero, ~cap & (slope > 0))
    bound = np.where(zero | (falling & ~cap), 0.0, w)
    return np.divide(bound - y, slope, out=np.full_like(w, np.inf), where=moving)


def pattern_outside(y, zero, cap, w):
    """The cells where y = R'x + c leaves the closed region of the pattern
    that holds zero at 0, cap at w and frees the rest: y > 0 held at 0,
    y < w held at w, y outside [0, w] free.  Rows of y may take rows of
    zero and cap."""
    return np.where(zero, y > 0, y < 0) | np.where(cap, y < w, y > w)
