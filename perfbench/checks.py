"""Output checks, computed without satflow.

Each check takes plain arrays (or the parsed CLI JSON) and raises
CheckFailed when the result is wrong.  The references come from
scipy.linalg, from exact rational arithmetic, or from properties the
answer must have whatever method produced it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import scipy.linalg

#: fixed-point residual allowed, relative to ||w||_1
RESIDUAL_REL = 1e-9
#: agreement with the scipy reference, relative to ||w||_1
REFERENCE_REL = 1e-8
#: slack on the box [0, w], relative to max(w)
BOX_REL = 1e-12
#: agreement with the exact rationals of the reference network
EXACT_ABS = 1e-12
#: agreement of a critical location found by a sweep with the constructed one
JUMP_S_ABS = 1e-9
#: a one-sided limit closes at least this share of its distance to the
#: endpoint while eps shrinks fourfold (the distance falls like sqrt(eps)
#: or faster on the workloads' networks)
LIMIT_SHRINK = 0.8


class CheckFailed(Exception):
    """An output disagrees with its independent reference."""


def _fail_unless(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


def in_box(w: np.ndarray, x: np.ndarray, what: str = "state") -> None:
    x = np.asarray(x, dtype=float)
    slack = BOX_REL * float(np.max(w))
    _fail_unless(x.shape == w.shape, f"{what} has shape {x.shape}, expected {w.shape}")
    _fail_unless(bool(np.all(np.isfinite(x))), f"{what} is not finite")
    _fail_unless(bool(np.all(x >= -slack) and np.all(x <= w + slack)), f"{what} leaves the box [0, w]")


def fixed_point(R: np.ndarray, w: np.ndarray, c: np.ndarray, x: np.ndarray, what: str = "equilibrium") -> None:
    """x lies in [0, w] and ||clip(R'x + c, 0, w) - x||_1 <= RESIDUAL_REL * ||w||_1."""
    in_box(w, x, what)
    x = np.asarray(x, dtype=float)
    residual = float(np.abs(np.clip(R.T @ x + c, 0.0, w) - x).sum()) / float(w.sum())
    _fail_unless(residual <= RESIDUAL_REL, f"{what} fixed-point residual {residual:.3g} relative to ||w||_1")


@dataclass(frozen=True)
class Segment:
    """The equilibrium line {hc + a*pi} cut to the box, from a direct solve."""

    pi: np.ndarray
    hc: np.ndarray
    alpha_min: float
    alpha_max: float

    @property
    def x_min(self) -> np.ndarray:
        return self.hc + self.alpha_min * self.pi

    @property
    def x_max(self) -> np.ndarray:
        return self.hc + self.alpha_max * self.pi

    @property
    def condition_value(self) -> float:
        return self.alpha_max - self.alpha_min


def reference_segment(R: np.ndarray, w: np.ndarray, c: np.ndarray) -> Segment:
    """pi and Hc of a stochastic irreducible R from two square LU solves.

    pi solves (I - R')pi = 0 with one equation replaced by sum(pi) = 1; Hc
    solves the bordered system [[I - R', 1], [1', 0]] [h; m] = [c; 0].
    """
    n = R.shape[0]
    A = np.eye(n) - R.T
    P = A.copy()
    P[-1, :] = 1.0
    rhs = np.zeros(n)
    rhs[-1] = 1.0
    pi = scipy.linalg.solve(P, rhs)
    B = np.zeros((n + 1, n + 1))
    B[:n, :n] = A
    B[:n, n] = 1.0
    B[n, :n] = 1.0
    hc = scipy.linalg.solve(B, np.concatenate([c - c.sum() / n, [0.0]]))[:n]
    return Segment(pi=pi, hc=hc, alpha_min=float(-np.min(hc / pi)), alpha_max=float(np.min((w - hc) / pi)))


def _close(a: np.ndarray, b: np.ndarray, scale: float, rel: float) -> bool:
    a = np.asarray(a, dtype=float)
    return a.shape == b.shape and bool(np.all(np.isfinite(a))) and float(np.abs(a - b).sum()) <= rel * scale


def segment(ref: Segment, w: np.ndarray, out: dict) -> None:
    """A Segment answer from `satflow equilibria` matches the reference line."""
    scale = float(w.sum())
    _fail_unless(out.get("kind") == "Segment", f"kind {out.get('kind')!r}, expected 'Segment'")
    _fail_unless(_close(out["pi"], ref.pi, 1.0, REFERENCE_REL), "pi differs from the reference")
    _fail_unless(_close(out["hc"], ref.hc, scale, REFERENCE_REL), "Hc differs from the reference")
    _fail_unless(_close(out["x_min"], ref.x_min, scale, REFERENCE_REL), "x_min differs from the reference")
    _fail_unless(_close(out["x_max"], ref.x_max, scale, REFERENCE_REL), "x_max differs from the reference")
    cond = out.get("condition_value")
    _fail_unless(cond is not None and abs(cond - ref.condition_value) <= REFERENCE_REL * scale,
                 f"condition value {cond} differs from the reference {ref.condition_value}")
    length = float(np.abs(np.asarray(out["x_max"]) - np.asarray(out["x_min"])).sum())
    _fail_unless(abs(length - cond) <= REFERENCE_REL * scale, "condition value is not ||x_max - x_min||_1")


def point(R: np.ndarray, w: np.ndarray, c: np.ndarray, out: dict) -> None:
    """A Point answer from `satflow equilibria` is one fixed point of T."""
    _fail_unless(out.get("kind") == "Point", f"kind {out.get('kind')!r}, expected 'Point'")
    x_min, x_max = np.asarray(out["x_min"], dtype=float), np.asarray(out["x_max"], dtype=float)
    _fail_unless(x_min.shape == w.shape and float(np.abs(x_max - x_min).sum()) <= REFERENCE_REL * float(w.sum()),
                 "a Point answer has distinct x_min and x_max")
    fixed_point(R, w, c, x_min)


def scaled(out: dict, unscaled: dict, k: float, w: np.ndarray) -> None:
    """An answer for (k*w, k*c) is k times the answer for (w, c)."""
    _fail_unless(out.get("kind") == unscaled.get("kind"), "scaling changed the kind of the equilibrium set")
    scale = k * float(w.sum())
    for key in ("x_min", "x_max"):
        _fail_unless(_close(out[key], k * np.asarray(unscaled[key]), scale, REFERENCE_REL),
                     f"{key} is not {k:g} times the unscaled {key}")


# --- the three-cell reference network, in exact rationals ----------------

R3 = [[Fraction(0), Fraction(3, 4), Fraction(1, 4)],
      [Fraction(0), Fraction(0), Fraction(1)],
      [Fraction(3, 10), Fraction(7, 10), Fraction(0)]]
W3 = [Fraction(5), Fraction(4), Fraction(6)]
C3 = [Fraction(0), Fraction(-1), Fraction(1)]
COND3 = Fraction(356, 37)


def _solve_exact(A: list[list[Fraction]], b: list[Fraction]) -> list[Fraction]:
    """Gauss-Jordan elimination in exact rationals (A square, nonsingular)."""
    n = len(A)
    M = [row[:] + [b[i]] for i, row in enumerate(A)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if M[r][col] != 0)
        M[col], M[pivot] = M[pivot], M[col]
        for r in range(n):
            if r != col and M[r][col] != 0:
                f = M[r][col] / M[col][col]
                M[r] = [a - f * p for a, p in zip(M[r], M[col])]
    return [M[i][n] / M[i][i] for i in range(n)]


def exact_segment(R: list[list[Fraction]], w: list[Fraction], c: list[Fraction]) -> tuple[list[Fraction], list[Fraction], Fraction]:
    """Exact (x_min, x_max, condition value) of a stochastic irreducible network."""
    n = len(R)
    A = [[(1 if i == j else 0) - R[j][i] for j in range(n)] for i in range(n)]
    pi = _solve_exact(A[:-1] + [[Fraction(1)] * n], [Fraction(0)] * (n - 1) + [Fraction(1)])
    mean = sum(c) / n
    B = [A[i] + [Fraction(1)] for i in range(n)] + [[Fraction(1)] * n + [Fraction(0)]]
    hc = _solve_exact(B, [ci - mean for ci in c] + [Fraction(0)])[:n]
    a_min = -min(h / p for h, p in zip(hc, pi))
    a_max = min((wi - h) / p for wi, h, p in zip(w, hc, pi))
    return ([h + a_min * p for h, p in zip(hc, pi)], [h + a_max * p for h, p in zip(hc, pi)], a_max - a_min)


def exact_reference() -> tuple[np.ndarray, np.ndarray, float]:
    """x_min, x_max and condition value of the paper's network, c = [0, -1, 1]."""
    x_min, x_max, cond = exact_segment(R3, W3, C3)
    if cond != COND3:
        raise CheckFailed(f"exact condition value {cond} is not {COND3}")
    return np.array([float(v) for v in x_min]), np.array([float(v) for v in x_max]), float(cond)


def exact_segment_member(x_min: np.ndarray, x_max: np.ndarray, x: np.ndarray, tol: float) -> None:
    """x lies on the segment [x_min, x_max] within tol (l1)."""
    d = x_max - x_min
    a = float(np.clip(np.dot(x - x_min, d) / np.dot(d, d), 0.0, 1.0))
    dist = float(np.abs(x - (x_min + a * d)).sum())
    _fail_unless(dist <= tol, f"final state is {dist:.3g} away from the exact equilibrium segment")


# --- demand-path sweeps and one-sided limits -----------------------------

def jump(jumps: list[dict], unresolved: list, s_star: float, condition_value: float, tol: float) -> None:
    """Exactly one jump, at the constructed critical s, of the reference
    size within tol."""
    _fail_unless(not unresolved, f"sweep left brackets unresolved: {unresolved}")
    _fail_unless(len(jumps) == 1, f"sweep found {len(jumps)} jumps, expected 1")
    _fail_unless(abs(jumps[0]["s"] - s_star) <= JUMP_S_ABS, f"jump at s={jumps[0]['s']!r}, constructed at {s_star!r}")
    _fail_unless(abs(jumps[0]["magnitude"] - condition_value) <= tol,
                 f"jump magnitude {jumps[0]['magnitude']!r}, reference {condition_value!r}")


def monotone(x_rows: np.ndarray, w: np.ndarray, what: str) -> None:
    """Rows taken along a nondecreasing demand path do not decrease."""
    drop = float(np.max(x_rows[:-1] - x_rows[1:], initial=0.0))
    _fail_unless(drop <= RESIDUAL_REL * float(w.sum()), f"{what} decreases by {drop:.3g} along a nondecreasing demand path")


def limits(below: list[np.ndarray], above: list[np.ndarray], x_min: np.ndarray, x_max: np.ndarray) -> None:
    """One-sided equilibria approach x_min from below and x_max from above.

    below and above are ordered by decreasing eps; the distance to the
    matching endpoint must shrink at every step, and by LIMIT_SHRINK
    between the largest and the smallest eps.
    """
    for side, xs, end in (("below", below, x_min), ("above", above, x_max)):
        dist = [float(np.abs(np.asarray(x) - end).sum()) for x in xs]
        shrinking = all(b < a for a, b in zip(dist, dist[1:]))
        _fail_unless(shrinking and dist[-1] <= LIMIT_SHRINK * dist[0],
                     f"limit from {side} does not approach its endpoint: distances {dist}")
