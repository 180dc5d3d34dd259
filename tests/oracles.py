"""Independent reference implementations used only by the tests: an
entrywise clamp, the unsaturated field, the averaged power series of H, a
stage-by-stage RK4 integrator, a run of interval maps certified row by
row and a stack of powers checked at every doubling, the ratio test
and region check of a saturation pattern stated on its masks, the region
bounds of a pattern from its masks alone, and the
pattern walk of a demand path stated plainly: one pattern piece built as
its formula reads and one certificate pass over pieces reversed one by
one."""

from typing import NamedTuple

import numpy as np

from satflow import dynamics, equilibria
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


def pattern_region(zero, cap, w):
    """equilibria._region of the pattern that holds zero at 0, cap at w and
    frees the rest, given the held values that equilibria._pattern_piece
    fills in before its solve: w*cap for x and w*zero for w - x."""
    return equilibria._region(zero, cap, w, np.stack((w * cap, w * zero), axis=1))


class Piece(NamedTuple):
    """t0, the region bounds lo <= R'x + c <= hi and the solve's columns
    held (x, the mirrored w - x, the direction), as equilibria._Piece."""

    t0: float
    lo: np.ndarray
    hi: np.ndarray
    held: np.ndarray

    def reversed(self):
        """The piece on the same line walked the other way, t -> -t."""
        return Piece(-self.t0, self.lo, self.hi, self.held * np.array([1.0, 1.0, -1.0]))


def pattern_piece(net, c0, dc, t0, y, ts):
    """equilibria._pattern_piece as its formula reads: the three demands
    stacked by np.array, the region by nested np.where on the masks, the
    ratio test into np.full, the same free-cell solve."""
    R_t, w = net.R.T, net.w
    zero, cap = y <= 0.0, y >= w
    free = ~(zero | cap)
    if net.stochastic and free.all():
        return None, 0, None
    c = c0 + t0 * dc
    demands = np.array((c, net.mirror - c, dc)).T
    held = np.zeros((w.size, 3))
    held[:, 0] = w * cap
    held[:, 1] = w * zero
    if not equilibria._solve_free(R_t, free, demands, held):
        return None, 0, None
    y = R_t @ held[:, 0] + c
    slope = R_t @ held[:, 2] + dc
    lo = np.where(zero, -np.inf, np.where(cap, w, 0.0))
    hi = np.where(cap, np.inf, np.where(zero, 0.0, w))
    leave = np.divide(np.where(slope > 0.0, hi, lo) - y, slope, out=np.full(y.shape, np.inf), where=slope != 0.0)
    leave += t0
    outside = (y < lo) | (y > hi)
    if outside.any():
        if ts[0] == t0:
            return None, 0, None
        later = y + (ts[0] - t0) * slope
        leave[outside & ((later < lo) | (later > hi))] = t0
    first = leave.min()
    piece = Piece(t0, lo, hi, held)
    covered = int(ts.searchsorted(first, side="right"))
    if covered == ts.size:
        return piece, covered, None
    t_next = 0.5 * (first + min(leave[leave > first].min(initial=np.inf), ts[covered]))
    return piece, covered, (t_next, y + (t_next - t0) * slope)


def walk(net, c0, dc, ts, seed):
    """equilibria._walk on pattern_piece: (pieces, owner, cold answers)."""
    ts = np.asarray(ts, dtype=float)
    pieces, owner, out = [], np.full(ts.size, -1), [None] * ts.size
    i = restarts = 0
    while i < ts.size:
        if seed is not None and restarts <= 2 * net.w.size:
            piece, covered, seed = pattern_piece(net, c0, dc, *seed, ts[i:])
            if piece is not None:
                owner[i:i + covered] = len(pieces)
                pieces.append(piece)
                i += covered
                restarts = 0 if covered else restarts + 1
            continue
        c = c0 + ts[i] * dc
        out[i] = equilibria._point(net, c)
        seed, restarts = (ts[i], net.R.T @ out[i].x_min + c), 0
        i += 1
    return pieces, owner, out


def certify(net, c0, dc, ts, pieces, k):
    """equilibria._certify on pieces already on the line's own t: whether
    each sample is certified, and its x_min and x_max clamped onto [0, w]."""
    R, w = net.R, net.w
    t0, lo, hi, held = (np.array(column)[k] for column in zip(*pieces))
    m = ts.size
    step = (ts - t0)[:, None] * held[:, :, 2]
    X = np.concatenate((held[:, :, 0] + step, (w - held[:, :, 1]) + step))
    C = c0 + ts[:, None] * dc
    Y = X @ R
    Y[:m] += C
    Y[m:] += C
    ok = ~((Y[:m] < lo) | (Y[:m] > hi)).any(axis=1)
    scale = max(1.0, float(w.max()))
    residual = np.abs(np.minimum(np.maximum(Y, 0.0), w) - X).sum(axis=1)
    tol = equilibria._FIXED_POINT_TOL * scale
    ok &= (residual[:m] < tol) & (residual[m:] < tol)
    ok &= np.abs(X[m:] - X[:m]).sum(axis=1) <= equilibria.POINT_AGREEMENT_TOL * scale
    X = np.minimum(np.maximum(X, 0.0), w)
    return ok, X[:m], X[m:]


def walked_points(net, c0, dc, ts, crossing=None):
    """equilibria._points as (x_min, x_max) pairs, one per sample of the
    ascending ts: the backward walk's pieces reversed one by one before
    the one certificate pass, and each refused sample answered cold."""
    ts = np.asarray(ts, dtype=float)
    split, walks = 0, []
    if crossing is not None:
        t_star, line = crossing
        split = int(ts.searchsorted(t_star, side="right"))
    for sign, part in ((-1.0, ts[:split][::-1]), (1.0, ts[split:])):
        seed = None if crossing is None else (sign * t_star, equilibria._endpoint_seed(line, net.w, sign * dc))
        walks.append(walk(net, c0, sign * dc, sign * part, seed))
    (back, back_owner, back_out), (ahead, ahead_owner, ahead_out) = walks
    out = [None if eq is None else (eq.x_min, eq.x_max) for eq in back_out + ahead_out]
    line_ts = np.concatenate((ts[:split][::-1], ts[split:]))  # -(-t) is t, to the bit
    owner = np.concatenate((back_owner, np.where(ahead_owner >= 0, ahead_owner + len(back), -1)))
    walked = np.flatnonzero(owner >= 0)
    if walked.size:
        pieces = [piece.reversed() for piece in back] + ahead
        ok, lows, highs = certify(net, c0, dc, line_ts[walked], pieces, owner[walked])
        for j, good, lo, hi in zip(walked, ok, lows, highs):
            eq = None if good else equilibria._point(net, c0 + line_ts[j] * dc)
            out[j] = (lo, hi) if good else (eq.x_min, eq.x_max)
    return out[:split][::-1] + out[split:]
