"""Independent reference implementations used only by the tests: an
entrywise clamp, the unsaturated field, the averaged power series of H and
a stage-by-stage RK4 integrator."""

import numpy as np

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
