"""satflow benchmark: one workload per run, or every workload in quick mode.

    python3 perfbench/run.py --workload transient --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick

A run sets up SETUP_REPS times (satflow's import in a fresh interpreter,
then the inputs), runs whole rounds of the workload's fixed job list for
--seconds seconds, give or take half a round, checks every output outside
the timed calls, and prints one JSON object as its last line.  With
--trace 0 it reports the end-to-end metrics; with --trace 1 the per-layer
metrics of the tracing module, and it writes the spans to
perfbench/_out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"
OUT = ROOT / "perfbench" / "_out"

SETUP_REPS = 3
#: jobs beyond the reported tail percentile in each round
TAIL_JOBS = 10

END_TO_END = (
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)


def single_thread_blas() -> None:
    """Pin BLAS to one thread; it must run before numpy is first imported.

    With two OpenBLAS threads, np.linalg.lstsq at n = 100-200 stalls now
    and then for ~150 ms, far above its ~2-8 ms cost on one thread.
    """
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"


def import_satflow() -> None:
    """Import satflow from this checkout's src/, and from nowhere else."""
    if not (SRC / "satflow" / "__init__.py").is_file():
        raise SystemExit(f"error: no satflow package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import satflow
    import satflow.cli  # noqa: F401

    if Path(satflow.__file__).resolve().parent != SRC / "satflow":
        raise SystemExit(f"error: imported satflow from {satflow.__file__}, not from {SRC}")


class Calibration:
    """Fixed kernels that never touch satflow, timed between jobs.

    The host's speed wanders by tens of percent within seconds, and not by
    the same factor for every kind of code.  Each workload therefore gets a
    kernel doing what its jobs spend their time on, written with numpy
    alone: RK4 steps on a 4-cell network (transient), Picard iterations on a
    16-cell network (phase_sweep), and boolean matrix products, a
    least-squares solve and a JSON parse at n = 120 (large_network).  A
    job's wall time divided by the kernel's time just before and after it
    holds still where the wall time does not; see README.md.
    """

    #: median time of each kernel on the reference host, where scaled
    #: times equal wall times
    REFERENCE_S = {"transient": 1.3e-3, "phase_sweep": 1.3e-3, "large_network": 5.0e-3}

    def __init__(self, workload: str):
        import numpy as np

        rng = np.random.default_rng(0)

        def routing(n):
            R = rng.random((n, n))
            np.fill_diagonal(R, 0.0)
            return np.ascontiguousarray((R / R.sum(axis=1)[:, None]).T)

        self.np = np
        self.reference_s = self.REFERENCE_S[workload]
        self.kernel = {"transient": self._rk4, "phase_sweep": self._picard, "large_network": self._large}[workload]
        self.Rt4, self.w4, self.c4 = 0.6 * routing(4), np.full(4, 2.0), np.full(4, 0.5)
        self.Rt16, self.w16 = routing(16), rng.uniform(1.0, 5.0, 16)
        self.c16 = 0.5 * self.w16 - self.Rt16 @ (0.5 * self.w16) + 0.01
        self.adj = (rng.random((120, 120)) < 0.1) | np.eye(120, dtype=bool)
        self.A, self.b = rng.random((121, 120)), rng.random(121)
        self.doc = json.dumps((self.adj[:60] * rng.random((60, 120))).tolist())  # sparse rows, as in a scenario

    def __call__(self, repeats: int = 1) -> float:
        """Seconds taken by the kernel; the median of `repeats` runs."""
        times = []
        for _ in range(repeats):
            start = perf_counter()
            self.kernel()
            times.append(perf_counter() - start)
        return statistics.median(times)

    def scale(self, seconds: float, *kernel_seconds: float) -> float:
        """seconds at the reference host's speed, given kernel times taken
        around them."""
        return seconds * self.reference_s * len(kernel_seconds) / sum(kernel_seconds)

    def _rk4(self):
        np, Rt, c, w = self.np, self.Rt4, self.c4, self.w4
        y, h = w / 2, 0.05
        for _ in range(30):
            k1 = np.clip(Rt @ y + c, 0.0, w) - y
            k2 = np.clip(Rt @ (y + 0.5 * h * k1) + c, 0.0, w) - (y + 0.5 * h * k1)
            k3 = np.clip(Rt @ (y + 0.5 * h * k2) + c, 0.0, w) - (y + 0.5 * h * k2)
            k4 = np.clip(Rt @ (y + h * k3) + c, 0.0, w) - (y + h * k3)
            y = np.clip(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 0.0, w)
            float(np.abs(k1).max())

    def _picard(self):
        np, Rt, c, w = self.np, self.Rt16, self.c16, self.w16
        x = np.zeros(16)
        for _ in range(150):
            x_new = np.clip(Rt @ x + c, 0.0, w)
            float(np.abs(x_new - x).sum())
            x = x_new

    def _large(self):
        np = self.np
        closure = self.adj @ self.adj
        closure @ closure
        np.linalg.lstsq(self.A, self.b, rcond=None)
        np.asarray(json.loads(self.doc), dtype=float)


def run_round(jobs, calibrate, tracer=None) -> dict:
    """Run every job once, timing only the call into satflow, with a
    calibration run before the first job and after every job."""
    import satflow
    import checks
    from workloads import JobFailed

    gc.collect()
    durations, speeds, failures, wrong = [], [calibrate()], [], []
    for job in jobs:
        span = tracer.begin("job." + job.label) if tracer else None
        start = perf_counter()
        try:
            out, failure = job.call(), None
        except (satflow.SatflowError, JobFailed) as exc:
            out, failure = None, exc
        durations.append(perf_counter() - start)
        if tracer:
            tracer.end(span)
        speeds.append(calibrate())
        if failure is not None:
            failures.append(f"{job.label}: {failure}")
            continue
        try:
            job.check(out)
        except checks.CheckFailed as exc:
            wrong.append(f"{job.label}: {exc}")
    scaled = [calibrate.scale(d, a, b) for d, a, b in zip(durations, speeds, speeds[1:])]
    return {"durations": durations, "scaled": scaled, "failures": failures, "wrong": wrong}


def tail_value(durations: list[float]) -> float:
    """The highest order statistic with TAIL_JOBS values above it."""
    return sorted(durations)[len(durations) - 1 - TAIL_JOBS]


def end_to_end(rounds: list[dict], key: str, setup_s: float) -> dict[str, float]:
    """Medians over rounds of the per-round throughput, p50 and tail of
    the job times under key ("scaled" or "durations")."""
    return {
        "jobs_per_s": statistics.median(len(r[key]) / sum(r[key]) for r in rounds),
        "job_p50_ms": statistics.median(statistics.median(r[key]) for r in rounds) * 1e3,
        "job_tail_ms": statistics.median(tail_value(r[key]) for r in rounds) * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }


def set_up(workload: str, seed: int, workdir: Path, calibrate) -> tuple[list, list[float]]:
    """Set up SETUP_REPS times: import satflow in a fresh interpreter, then
    build the job list in this one.  Returns the jobs and each set-up's
    time, scaled like a job's by the calibration runs around it."""
    import workloads

    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    before = calibrate(3)
    for _ in range(SETUP_REPS):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", "import satflow.cli"], env=env, check=True, timeout=60)
        jobs = workloads.build(workload, seed, str(workdir))
        elapsed = perf_counter() - start
        after = calibrate(3)
        times.append(calibrate.scale(elapsed, before, after))
        before = after
    return jobs, times


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import_satflow()
    calibrate = Calibration(workload)
    import tracing

    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        jobs, setup_times = set_up(workload, seed, workdir, calibrate)
        setup_s = statistics.median(setup_times)
        tracer = tracing.Tracer() if trace else None
        if tracer:
            tracer.install()
        rounds = []
        start = perf_counter()
        try:
            while True:
                rounds.append(run_round(jobs, calibrate, tracer))
                elapsed = perf_counter() - start
                if elapsed + 0.5 * elapsed / len(rounds) > seconds:
                    break  # another round would end further from `seconds` than stopping now
        finally:
            if tracer:
                tracer.uninstall()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(len(r["durations"]) for r in rounds)
    failures = [f for r in rounds for f in r["failures"]]
    wrong = [f for r in rounds for f in r["wrong"]]
    timed = end_to_end(rounds, "scaled", setup_s)
    wall = end_to_end(rounds, "durations", setup_s)
    print(f"{workload} seed {seed}: {len(rounds)} rounds of {len(jobs)} jobs in {elapsed:.1f} s, "
          f"{len(failures)} failed, {len(wrong)} wrong; scaled: {timed['jobs_per_s']:.4g} jobs/s, "
          f"p50 {timed['job_p50_ms']:.4g} ms, tail {timed['job_tail_ms']:.4g} ms; wall clock: "
          f"{wall['jobs_per_s']:.4g} jobs/s, p50 {wall['job_p50_ms']:.4g} ms, tail {wall['job_tail_ms']:.4g} ms; "
          f"setup {setup_s:.4g} s (each {[round(t, 4) for t in setup_times]})", file=sys.stderr)
    for line in sorted(set(failures)) + sorted(set(wrong)):
        print(f"  {line}", file=sys.stderr)
    if tracer:
        OUT.mkdir(parents=True, exist_ok=True)
        tracer.write(str(OUT / f"trace-{workload}-seed{seed}.json"))
        values = tracer.per_layer(attempted)
        units = dict(tracing.PER_LAYER)
    else:
        values = timed
        units = dict(END_TO_END)
    return {
        "correct": not wrong,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def quick() -> dict:
    """Every workload, one job of each label, one round."""
    import_satflow()
    import workloads

    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads.WORKLOADS:
        workdir = WORK / f"quick-{workload}-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        try:
            jobs = workloads.build(workload, 0, str(workdir), quick=True)
            r = run_round(jobs, Calibration(workload))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        print(json.dumps({"workload": workload, "jobs": [j.label for j in jobs], "failures": r["failures"], "wrong": r["wrong"]}))
        result["correct"] = result["correct"] and not r["wrong"]
        result["attempted"] += len(jobs)
        result["failed"] += len(r["failures"])
        result["metrics"][f"{workload}/job_p50_ms"] = {"value": statistics.median(r["durations"]) * 1e3, "unit": "ms"}
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("transient", "phase_sweep", "large_network"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="run every workload with a few jobs")
    args = parser.parse_args(argv)
    if not args.quick and args.workload is None:
        parser.error("--workload is required unless --quick is given")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    single_thread_blas()
    result = quick() if args.quick else measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if (result["correct"] or not args.quick) else 1


if __name__ == "__main__":
    sys.exit(main())
