"""Inputs and job lists of the three workloads.

`build(workload, seed, workdir)` makes one round: a fixed list of jobs, each
a call into satflow's public API plus the check of its output.  Every
random input is drawn from ``numpy.random.default_rng([seed, tag])``, so a
seed fixes the inputs.  The four networks behind the scaled large_network
jobs come from a constant seed instead: those jobs fail today, and they
must fail on every run.

Import this module only after the BLAS thread count is set (see run.py).
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import satflow as sf
from satflow import cli

import checks

WORKLOADS = ("transient", "phase_sweep", "large_network")
JOBS_PER_ROUND = 40

# transient: small networks integrated from several random starts
TRANSIENT_STARTS = 3
TRANSIENT_CONFIG = dict(dt=0.05, t_end=200.0, sample_every=10, residual_tol=1e-10)
#: decay rate band of the slowest linear mode, stochastic (True) or leaky
TRANSIENT_GAP = {True: (1.05, 1.15), False: (0.58, 0.62)}

# phase_sweep: moderate stochastic irreducible networks, one crossing per path
#: network sizes of the 38 random jobs; the p50 and tail ranks of a round
#: both fall inside the n = 16 block
SWEEP_SIZES = (12,) * 8 + (16,) * 26 + (24,) * 4
SWEEP_SAMPLES = 41
SWEEP_SPAN = 4.0  # total-demand change over the path, in units of sum(d) = 1
LIMIT_EPS = (0.4, 0.2, 0.1)

# large_network: `satflow equilibria` on n = 500 scenario files
LARGE_N = 500
LARGE_DEGREE = 32
SCALE = 1e6
FIXED_SEED = 20191204  # networks of the scaled jobs, whatever --seed is


class JobFailed(Exception):
    """`satflow equilibria` exited with a nonzero code."""


@dataclass
class Job:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


def build(workload: str, seed: int, workdir: str, quick: bool = False) -> list[Job]:
    """The job list of one round; quick keeps the first job of each label."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    jobs = {"transient": _transient, "phase_sweep": _phase_sweep, "large_network": _large_network}[workload](rng, workdir)
    if quick:
        seen: set[str] = set()
        jobs = [j for j in jobs if not (j.label in seen or seen.add(j.label))]
    return jobs


# --- generators -----------------------------------------------------------

def dense_stochastic(rng: np.random.Generator, n: int) -> np.ndarray:
    R = rng.random((n, n)) + 0.05
    np.fill_diagonal(R, 0.0)
    return R / R.sum(axis=1)[:, None]


def sparse_stochastic(rng: np.random.Generator, n: int, degree: int) -> np.ndarray:
    """Stochastic routing over a random Hamiltonian cycle plus degree-1
    random out-edges per cell, so irreducible by construction."""
    order = rng.permutation(n)
    successor = np.empty(n, dtype=int)
    successor[order] = np.roll(order, -1)
    R = np.zeros((n, n))
    rows = np.arange(n)
    R[rows, successor] = rng.random(n) + 0.1
    for _ in range(degree - 1):
        cols = (rows + 1 + rng.integers(0, n - 1, n)) % n  # never the diagonal
        np.add.at(R, (rows, cols), rng.random(n) + 0.1)
    return R / R.sum(axis=1)[:, None]


def interior_demand(rng: np.random.Generator, R: np.ndarray, w: np.ndarray) -> np.ndarray:
    """c = (I - R')x for an x inside the box, so x is an equilibrium.  For
    stochastic R this c is zero-sum and critical: the equilibria form a
    segment of positive length through x."""
    x = w * rng.uniform(0.25, 0.75, w.size)
    return x - R.T @ x


def slowest_rate(R: np.ndarray) -> float:
    """Decay rate 1 - Re(lambda) of the slowest non-conserved linear mode."""
    lam = np.linalg.eigvals(R)
    if abs(R.sum(axis=1) - 1).max() < 1e-12:
        lam = np.delete(lam, np.argmin(np.abs(lam - 1)))
    return float(1.0 - lam.real.max())


# --- transient --------------------------------------------------------------

def _transient(rng: np.random.Generator, workdir: str) -> list[Job]:
    cfg = sf.IntegratorConfig(**TRANSIENT_CONFIG)
    x_min3, x_max3, _ = checks.exact_reference()
    ref3 = sf.validate(sf.NetworkSpec(routing=_r3(), capacity=_w3(), demand=_c3()))
    jobs = []
    for i in range(JOBS_PER_ROUND):
        if i % 10 == 0:
            jobs.append(_integrate_job("reference", ref3, rng, cfg, (x_min3, x_max3)))
            continue
        # 8 stochastic and 28 leaky jobs: the leaky ones take about twice the
        # RK4 steps, so the p50 and tail ranks of a round fall among them
        stochastic = i % 10 in (3, 7)
        n = 3 + (i // 5) % 4 if stochastic else 2 + i % 5  # n = 2 stochastic is the 2-cycle, rate 2
        while True:
            if stochastic:
                R = dense_stochastic(rng, n)
            else:
                R = dense_stochastic(rng, n) * rng.uniform(0.3, 0.6, n)[:, None]
            lo, hi = TRANSIENT_GAP[stochastic]
            if lo <= slowest_rate(R) <= hi:
                break
        w = rng.uniform(1.0, 5.0, n)
        c = interior_demand(rng, R, w)
        spec = sf.validate(sf.NetworkSpec(routing=R, capacity=w, demand=c))
        jobs.append(_integrate_job("stochastic" if stochastic else "leaky", spec, rng, cfg, None))
    return jobs


def _integrate_job(label, spec, rng, cfg, exact_segment) -> Job:
    starts = [spec.capacity * rng.random(spec.n) for _ in range(TRANSIENT_STARTS)]

    def call():
        return [sf.integrate(spec, x0, cfg) for x0 in starts]

    def check(trajectories):
        R, w, c = spec.routing, spec.capacity, spec.demand
        for traj in trajectories:
            if not traj.converged:
                raise checks.CheckFailed(f"trajectory did not converge (residual {traj.final_residual:.3g})")
            for x in traj.states:
                checks.in_box(w, x, "trajectory state")
            checks.fixed_point(R, w, c, traj.final_state, "final state")
            if exact_segment is not None:
                checks.exact_segment_member(*exact_segment, traj.final_state, checks.REFERENCE_REL * float(w.sum()))

    return Job(label, call, check)


# --- phase_sweep -------------------------------------------------------------

def _phase_sweep(rng: np.random.Generator, workdir: str) -> list[Job]:
    R3, w3 = _r3(), _w3()
    x_min3, x_max3, cond3 = checks.exact_reference()
    paper_star = [checks.Fraction(1, 3), checks.Fraction(-1), checks.Fraction(2, 3)]
    paper_exact = checks.exact_segment(checks.R3, checks.W3, paper_star)
    sizes = iter(np.random.default_rng(0).permutation(SWEEP_SIZES))  # same order for every seed
    jobs = []
    for i in range(JOBS_PER_ROUND):
        if i == 0:
            # the paper's path c(a) = [a/3, -1, 2a/3], a in [0, 9]; critical at a = 1
            path = sf.DemandPath([0.0, -1.0, 0.0], [3.0, -1.0, 6.0], SWEEP_SAMPLES)
            d = np.array([1 / 3, 0.0, 2 / 3])
            exact = tuple(np.array([float(v) for v in a]) for a in paper_exact[:2]) + (float(paper_exact[2]),)
            jobs.append(_sweep_job("paper", R3, w3, path, 1 / 9, d, exact))
            continue
        if i == 20:
            # a path through the reference demand [0, -1, 1], condition value 356/37
            d = np.array([0.5, 0.0, 0.5])
            path = _path_through(_c3(), d, 0.5)
            jobs.append(_sweep_job("reference", R3, w3, path, 0.5, d, (x_min3, x_max3, cond3)))
            continue
        n = int(next(sizes))
        R = sparse_stochastic(rng, n, 3)
        w = rng.uniform(1.0, 5.0, n)
        w *= 3.0 * n / w.sum()
        c_star = interior_demand(rng, R, w)
        d = rng.random(n)
        d /= d.sum()
        k = int(rng.integers(SWEEP_SAMPLES // 4, 3 * SWEEP_SAMPLES // 4))
        s_star = k / (SWEEP_SAMPLES - 1) + 0.5 / (SWEEP_SAMPLES - 1)  # midway between two samples
        jobs.append(_sweep_job(f"n{n}", R, w, _path_through(c_star, d, s_star), s_star, d, None))
    return jobs


def _path_through(c_star: np.ndarray, d: np.ndarray, s_star: float) -> "sf.DemandPath":
    return sf.DemandPath(c_star - s_star * SWEEP_SPAN * d, c_star + (1.0 - s_star) * SWEEP_SPAN * d, SWEEP_SAMPLES)


def _sweep_job(label, R, w, path, s_star, d, exact) -> Job:
    """exact is (x_min, x_max, condition value) at the critical demand in
    exact rationals, or None to take them from the scipy reference."""
    c_star = path.c_at(s_star)
    reference: dict = {}

    def call():
        result = sf.sweep(R, w, path)
        s = result.jumps[0]["s"] if result.jumps else s_star
        lim = sf.directional_limits(R, w, path.c_at(s), d, epsilons=LIMIT_EPS)
        return result, lim

    def check(output):
        result, lim = output
        if exact is not None:
            x_min, x_max, cond = exact
            tol = checks.EXACT_ABS
        else:
            if not reference:
                reference["segment"] = checks.reference_segment(R, w, c_star)
            seg = reference["segment"]
            x_min, x_max, cond = seg.x_min, seg.x_max, seg.condition_value
            tol = checks.REFERENCE_REL * float(w.sum())
        checks.jump(result.jumps, result.unresolved, s_star, cond, tol)
        for row in result.rows:
            checks.fixed_point(R, w, row.c, row.x_min, "sweep x_min")
            checks.fixed_point(R, w, row.c, row.x_max, "sweep x_max")
        checks.monotone(np.array([row.x_min for row in result.rows]), w, "x_min")
        checks.monotone(np.array([row.x_max for row in result.rows]), w, "x_max")
        for eps, below, above in lim.table:
            checks.fixed_point(R, w, c_star - eps * d, below, "limit from below")
            checks.fixed_point(R, w, c_star + eps * d, above, "limit from above")
        checks.limits([t[1] for t in lim.table], [t[2] for t in lim.table], x_min, x_max)

    return Job(label, call, check)


# --- large_network ---------------------------------------------------------------

#: one tenth of a round; "fixed" is a seed-independent segment scenario and
#: "scaled" the same scenario with (w, c) multiplied by SCALE.  A round has
#: 8 point, 4 scaled and 28 segment jobs, and the point and scaled jobs are
#: the fastest, so the p50 and tail ranks fall among the segment jobs.
LARGE_PATTERN = ("fixed", "scaled", "segment", "leaky", "segment", "segment", "excess", "segment", "segment", "segment")


def _large_network(rng: np.random.Generator, workdir: str) -> list[Job]:
    fixed = np.random.default_rng(FIXED_SEED)
    outputs: dict[str, dict] = {}  # last parsed output of each unscaled fixed job
    jobs = []
    for i in range(JOBS_PER_ROUND):
        kind = LARGE_PATTERN[i % len(LARGE_PATTERN)]
        name = f"{kind}{i}"
        if kind == "scaled":
            continue  # written together with the fixed scenario before it
        if kind == "fixed":
            R = sparse_stochastic(fixed, LARGE_N, LARGE_DEGREE)
            w = fixed.uniform(1.0, 10.0, LARGE_N)
            c = interior_demand(fixed, R, w)
            jobs.append(_cli_job("segment", workdir, name, R, w, c, outputs))
            jobs.append(_cli_job("scaled", workdir, f"{name}-x1e6", R, SCALE * w, SCALE * c, outputs))
        elif kind == "segment":
            R = sparse_stochastic(rng, LARGE_N, LARGE_DEGREE)
            w = rng.uniform(1.0, 10.0, LARGE_N)
            jobs.append(_cli_job("segment", workdir, name, R, w, interior_demand(rng, R, w)))
        elif kind == "leaky":
            R = sparse_stochastic(rng, LARGE_N, LARGE_DEGREE) * rng.uniform(0.8, 0.95, LARGE_N)[:, None]
            w = rng.uniform(1.0, 10.0, LARGE_N)
            jobs.append(_cli_job("point", workdir, name, R, w, w * rng.uniform(-0.5, 0.5, LARGE_N)))
        else:
            # stochastic routing with a total demand surplus: a unique equilibrium
            R = sparse_stochastic(rng, LARGE_N, LARGE_DEGREE)
            w = rng.uniform(1.0, 10.0, LARGE_N)
            d = rng.random(LARGE_N)
            c = interior_demand(rng, R, w) + 0.02 * w.sum() * d / d.sum()
            jobs.append(_cli_job("point", workdir, name, R, w, c))
    return jobs


def _cli_job(label, workdir, name, R, w, c, outputs: dict | None = None) -> Job:
    path = os.path.join(workdir, f"{name}.json")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"name": name, "routing": R.tolist(), "capacity": w.tolist(), "demand": c.tolist()}))
    reference: dict = {}

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = sf.cli.main(["equilibria", path])
        if code != cli.EXIT_OK:
            raise JobFailed(f"exit {code}: {err.getvalue().strip()}")
        return out.getvalue()

    def check(stdout):
        out = json.loads(stdout)
        if outputs is not None and label != "scaled":
            outputs[name] = out
        if label == "point":
            checks.point(R, w, c, out)
            return
        if "segment" not in reference:
            reference["segment"] = checks.reference_segment(R, w, c)
        checks.segment(reference["segment"], w, out)
        if label == "scaled":
            checks.scaled(out, outputs[name.removesuffix("-x1e6")], SCALE, w / SCALE)

    return Job(label, call, check)


# --- the paper's three-cell network ------------------------------------------------

def _r3() -> np.ndarray:
    return np.array([[float(v) for v in row] for row in checks.R3])


def _w3() -> np.ndarray:
    return np.array([float(v) for v in checks.W3])


def _c3() -> np.ndarray:
    return np.array([float(v) for v in checks.C3])
