"""Tests of the benchmark itself: its quick mode runs, it refuses to run
without satflow's sources, and every output check rejects a wrong result.

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "perfbench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

R3 = np.array([[0.0, 0.75, 0.25], [0.0, 0.0, 1.0], [0.3, 0.7, 0.0]])
W3 = np.array([5.0, 4.0, 6.0])
C3 = np.array([0.0, -1.0, 1.0])


def _run(args, cwd):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170)


def test_quick_mode_checks_every_workload():
    proc = _run(["--quick"], ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.strip().splitlines()]
    assert [line["workload"] for line in lines[:-1]] == list(workloads.WORKLOADS)
    assert all(not line["wrong"] for line in lines[:-1])
    result = lines[-1]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    # the only failure is the scaled large_network job (absolute H residual tolerance)
    assert result["failed"] == 1 and lines[2]["failures"][0].startswith("scaled: exit 3")


def test_timed_run_prints_every_metric():
    proc = _run(["--workload", "transient", "--seed", "7", "--seconds", "0.1", "--trace", "0"], ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert result["correct"] and result["attempted"] == workloads.JOBS_PER_ROUND and result["failed"] == 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "_out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(["--workload", "transient", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


# --- each check rejects a deliberately wrong result ----------------------------

def test_fixed_point_check():
    x = np.array([12 / 37, 0.0, 40 / 37])
    checks.fixed_point(R3, W3, C3, x)
    with pytest.raises(CheckFailed):
        checks.fixed_point(R3, W3, C3, x + np.array([1e-3, 0.0, 0.0]))
    with pytest.raises(CheckFailed):
        checks.fixed_point(R3, W3, C3, np.array([12 / 37, -1e-6, 40 / 37]))


def test_exact_reference_network():
    x_min, x_max, cond = checks.exact_reference()
    assert cond == 356 / 37
    np.testing.assert_allclose(x_min, [12 / 37, 0.0, 40 / 37], rtol=0, atol=1e-15)
    checks.exact_segment_member(x_min, x_max, 0.5 * (x_min + x_max), 1e-12)
    with pytest.raises(CheckFailed):
        checks.exact_segment_member(x_min, x_max, 0.5 * (x_min + x_max) + np.array([1e-6, 0.0, 0.0]), 1e-12)


def _segment_output(ref):
    return {"kind": "Segment", "pi": ref.pi.tolist(), "hc": ref.hc.tolist(), "x_min": ref.x_min.tolist(),
            "x_max": ref.x_max.tolist(), "condition_value": ref.condition_value}


def test_reference_segment_and_segment_check():
    ref = checks.reference_segment(R3, W3, C3)
    assert abs(ref.condition_value - 356 / 37) < 1e-12
    out = _segment_output(ref)
    checks.segment(ref, W3, out)
    for key, bad in (("kind", "Point"), ("condition_value", ref.condition_value * (1 + 1e-6)),
                     ("x_max", (ref.x_max + [0.0, 0.0, 1e-6]).tolist()), ("pi", (ref.pi[::-1]).tolist()),
                     ("hc", (ref.hc * 1.001).tolist())):
        with pytest.raises(CheckFailed):
            checks.segment(ref, W3, dict(out, **{key: bad}))


def test_point_check():
    R = np.array([[0.0, 0.5], [0.5, 0.0]])
    w, c = np.array([1.0, 1.0]), np.array([0.3, 0.3])
    good = {"kind": "Point", "x_min": [0.6, 0.6], "x_max": [0.6, 0.6]}
    checks.point(R, w, c, good)
    with pytest.raises(CheckFailed):
        checks.point(R, w, c, dict(good, x_max=[0.6, 0.7]))
    with pytest.raises(CheckFailed):
        checks.point(R, w, c, {"kind": "Point", "x_min": [0.6, 0.61], "x_max": [0.6, 0.61]})


def test_scaled_check():
    ref = checks.reference_segment(R3, W3, C3)
    unscaled = _segment_output(ref)
    scaled = {k: (np.asarray(v) * 1e6).tolist() if k in ("x_min", "x_max") else v for k, v in unscaled.items()}
    checks.scaled(scaled, unscaled, 1e6, W3)
    with pytest.raises(CheckFailed):
        checks.scaled(dict(scaled, x_min=unscaled["x_min"]), unscaled, 1e6, W3)


def test_jump_check():
    good = [{"s": 0.5, "magnitude": 356 / 37}]
    checks.jump(good, [], 0.5, 356 / 37, 1e-12)
    with pytest.raises(CheckFailed):
        checks.jump([{"s": 0.5 + 1e-6, "magnitude": 356 / 37}], [], 0.5, 356 / 37, 1e-12)
    with pytest.raises(CheckFailed):
        checks.jump([{"s": 0.5, "magnitude": 356 / 37 + 1e-9}], [], 0.5, 356 / 37, 1e-12)
    with pytest.raises(CheckFailed):
        checks.jump(good * 2, [], 0.5, 356 / 37, 1e-12)
    with pytest.raises(CheckFailed):
        checks.jump(good, [{"s_lo": 0.1, "s_hi": 0.2}], 0.5, 356 / 37, 1e-12)


def test_monotone_check():
    rows = np.array([[0.0, 1.0], [0.5, 1.0], [0.5, 2.0]])
    checks.monotone(rows, W3[:2], "x")
    with pytest.raises(CheckFailed):
        checks.monotone(rows[::-1], W3[:2], "x")


def test_limits_check():
    x_min, x_max, _ = checks.exact_reference()
    below = [x_min + e for e in (0.4, 0.2, 0.1)]
    above = [x_max - e for e in (0.4, 0.2, 0.1)]
    checks.limits(below, above, x_min, x_max)
    with pytest.raises(CheckFailed):
        checks.limits(below[::-1], above, x_min, x_max)
    with pytest.raises(CheckFailed):
        checks.limits(below, [x_max - e for e in (0.4, 0.39, 0.38)], x_min, x_max)


# --- each workload's job check rejects a corrupted satflow output ----------------

def _quick_jobs(workload, tmp_path):
    return workloads.build(workload, 0, str(tmp_path), quick=True)


def test_transient_job_rejects_a_wrong_final_state(tmp_path):
    job = _quick_jobs("transient", tmp_path)[0]
    trajectories = job.call()
    job.check(trajectories)
    trajectories[-1].states[-1] = trajectories[-1].states[-1] * 0.9
    with pytest.raises(CheckFailed):
        job.check(trajectories)


def test_phase_sweep_job_rejects_a_wrong_jump(tmp_path):
    job = _quick_jobs("phase_sweep", tmp_path)[0]
    result, lim = job.call()
    job.check((result, lim))
    result.jumps[0]["s"] += 1e-3
    with pytest.raises(CheckFailed):
        job.check((result, lim))


def test_phase_sweep_job_rejects_wrong_limits(tmp_path):
    job = _quick_jobs("phase_sweep", tmp_path)[1]
    result, lim = job.call()
    lim.table.reverse()
    with pytest.raises(CheckFailed):
        job.check((result, lim))


def test_large_network_jobs_reject_wrong_output(tmp_path):
    segment, scaled, point = _quick_jobs("large_network", tmp_path)
    for job in (segment, point):
        out = json.loads(job.call())
        job.check(json.dumps(out))
        out["x_max"][0] += 1e-3
        with pytest.raises(CheckFailed):
            job.check(json.dumps(out))
    with pytest.raises(workloads.JobFailed, match="exit 3"):
        scaled.call()
    # were the scaled job to succeed, its output must be 1e6 times the unscaled one
    unscaled = json.loads(segment.call())
    segment.check(json.dumps(unscaled))
    good = dict(unscaled, **{k: (np.asarray(unscaled[k]) * 1e6).tolist() for k in ("x_min", "x_max", "hc")},
                condition_value=unscaled["condition_value"] * 1e6)
    scaled.check(json.dumps(good))
    with pytest.raises(CheckFailed):
        scaled.check(json.dumps(dict(good, x_min=unscaled["x_min"])))


def test_traced_runs_repeat_their_counts():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runs = []
    for _ in range(2):
        proc = _run(["--workload", "phase_sweep", "--seed", "3", "--seconds", "0.1", "--trace", "1"], ROOT)
        assert proc.returncode == 0, proc.stderr
        runs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    assert set(runs[0]["metrics"]) == {m["name"] for m in spec["per_layer"]}
    counts = [name for name, m in runs[0]["metrics"].items() if m["unit"] == "count"]
    assert counts and all(runs[0]["metrics"][n] == runs[1]["metrics"][n] for n in counts)
    assert runs[0]["metrics"]["model.classify_calls"]["value"] > 1
    assert (ROOT / "perfbench" / "_out" / "trace-phase_sweep-seed3.json").is_file()
