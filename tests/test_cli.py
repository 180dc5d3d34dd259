import gc
import json
from pathlib import Path

import numpy as np
import pytest

from satflow import cli, equilibria
from satflow.cli import _json_text, load_scenario, main, sidecar_path_for
from satflow.errors import ScenarioError

from conftest import C3, PI3, R3, W3, XMAX3, XMIN3


@pytest.fixture
def scenario3(tmp_path):
    path = tmp_path / "three_cell.json"
    path.write_text(json.dumps({
        "name": "three-cell reference network",
        "routing": R3.tolist(),
        "capacity": W3.tolist(),
        "demand": C3.tolist(),
    }))
    return str(path)


@pytest.fixture
def scenario2(tmp_path):
    path = tmp_path / "two_cell.json"
    path.write_text(json.dumps({
        "routing": [[0.0, 0.5], [0.5, 0.0]],
        "capacity": [1.0, 1.0],
        "demand": [0.3, 0.3],
    }))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


DEMOS = Path(__file__).resolve().parents[1] / "demos"
# demos/two_classes.json: a leaky cell 1 that sends 0.3 of its flow to
# each of two closed 2-cycles {2, 3} and {4, 5}; at its demand the first
# class sees zero total demand and has a segment, the second a point at 0
TWO_CLASSES = str(DEMOS / "two_classes.json")


class TestCheck:
    def test_reference_network(self, capsys, scenario3):
        code, out = run(capsys, ["check", scenario3])
        assert code == 0
        report = json.loads(out)
        assert report["class"] == "StochasticIrreducible"
        assert np.abs(np.array(report["pi"]) - PI3).max() < 1e-10
        assert "leaky_nodes" not in report

    def test_out_connected_network(self, capsys, scenario2):
        code, out = run(capsys, ["check", scenario2])
        assert code == 0
        report = json.loads(out)
        assert report["class"] == "SubStochasticOutConnected"
        assert report["leaky_nodes"] == [1, 2]
        assert "pi" not in report

    def test_reducible_demo(self, capsys):
        code, out = run(capsys, ["check", TWO_CLASSES])
        assert code == 0
        report = json.loads(out)
        assert report["class"] == "Other"
        assert report["detail"] == "cells [2, 3, 4, 5] cannot reach a leaky cell"
        assert report["leaky_nodes"] == [1]
        assert "pi" not in report

    def test_pi_round_trips(self, capsys, scenario3):
        _, out = run(capsys, ["check", scenario3])
        pi = np.array(json.loads(out)["pi"])
        assert np.abs(pi - R3.T @ pi).sum() < 1e-10

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _ = run(capsys, ["check", str(bad)])
        assert code == 2

    def test_unknown_key(self, capsys, tmp_path):
        path = tmp_path / "extra.json"
        path.write_text(json.dumps({"routing": [[0.0]], "capacity": [1], "demand": [0], "plot": True}))
        code, _ = run(capsys, ["check", str(path)])
        assert code == 2

    def test_invalid_row_sum(self, capsys, tmp_path):
        path = tmp_path / "rowsum.json"
        path.write_text(json.dumps({"routing": [[0.0, 1.2], [0.5, 0.0]],
                                    "capacity": [1, 1], "demand": [0, 0]}))
        code, _ = run(capsys, ["check", str(path)])
        assert code == 2


# a valid scenario with awkward number spellings: exponents, a negative
# zero, 17- and 30-digit decimals, plain integers and an integer beyond 64 bits
AWKWARD = """{
  "routing": [[0, 1E-3, 0.12345678901234567],
              [-0.0, 0, 0.333333333333333333333333333333],
              [1, 0, 0]],
  "capacity": [100000000000000000000000, 2, 0.100000000000000005551115123125783],
  "demand": [-0.0, 1E-3, -1.2345678901234567e-7]
}"""


def _scenario_text(**fields):
    doc = {"routing": "[[0, 0.5], [0.5, 0]]", "capacity": "[1, 1]", "demand": "[0.3, 0.3]"}
    doc.update(fields)
    return "{" + ", ".join(f'"{key}": {value}' for key, value in doc.items()) + "}"


class TestLoadScenario:
    """The parsed arrays and the refusals of the scenario loader, pinned to
    what Python's own json module reads from the same text."""

    def test_numbers_load_bit_identical(self, tmp_path):
        path = tmp_path / "awkward.json"
        path.write_text(AWKWARD)
        spec, _, _ = load_scenario(str(path))
        reference = json.loads(AWKWARD)
        for key in ("routing", "capacity", "demand"):
            expected = np.asarray(reference[key], dtype=float)
            assert getattr(spec, key).tobytes() == expected.tobytes()
        assert np.signbit(spec.routing[1, 0]) and np.signbit(spec.demand[0])

    @pytest.mark.parametrize("field", ["routing", "capacity", "demand"])
    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_numbers_rejected(self, capsys, tmp_path, field, literal):
        value = {"routing": f"[[0, {literal}], [0.5, 0]]", "capacity": f"[1, {literal}]",
                 "demand": f"[0.3, {literal}]"}[field]
        path = tmp_path / "nonfinite.json"
        path.write_text(_scenario_text(**{field: value}))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize("content", [
        _scenario_text(name='"\xff"').encode("latin-1"),  # a lone 0xff byte: not UTF-8
        b"\xef\xbb\xbf" + _scenario_text().encode(),  # a UTF-8 byte order mark
        _scenario_text(routing="[[0, 0.5], [0.5]]").encode(),  # ragged routing rows
        # inflow and outflow do not stand in for the required demand
        b'{"routing": [[0, 0.5], [0.5, 0]], "capacity": [1, 1], "inflow": [0.3, 0.3], "outflow": [0, 0]}',
    ], ids=["invalid_utf8", "bom", "ragged_routing", "inflow_outflow_without_demand"])
    def test_unreadable_documents_rejected(self, capsys, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_bytes(content)
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_key_is_named_before_a_missing_one(self, capsys, tmp_path):
        path = tmp_path / "both.json"
        path.write_text('{"routing": [[0, 0.5], [0.5, 0]], "capacity": [1, 1], "plot": true}')
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "error: unknown keys: ['plot']\n"

    def test_ragged_routing_names_the_row(self, capsys, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text(_scenario_text(routing="[[0, 0.5], [0.5]]"))
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "routing" in err and "row 2" in err

    def test_routing_entry_that_is_a_list_is_named(self, capsys, tmp_path):
        path = tmp_path / "nested.json"
        path.write_text(_scenario_text(routing="[[0, [1]], [0, 0]]"))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "error: routing entry (1,2) is not a number\n"


    @pytest.mark.parametrize("field", ["routing", "capacity", "demand", "inflow", "outflow"])
    def test_object_in_a_numeric_field_is_named(self, capsys, tmp_path, field):
        fields = {"inflow": "[0.3, 0.3]", "outflow": "[0, 0]"} if field in ("inflow", "outflow") else {}
        fields[field] = '{"a": 1}'
        path = tmp_path / "object.json"
        path.write_text(_scenario_text(**fields))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {field} is not a ")

    def test_ragged_capacity_is_named(self, capsys, tmp_path):
        path = tmp_path / "ragged.json"
        path.write_text(_scenario_text(capacity="[[1], [1, 2]]"))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err.startswith("error: capacity is not a vector of numbers")

    @pytest.mark.parametrize("field", ["routing", "capacity", "demand", "inflow", "outflow"])
    @pytest.mark.parametrize("literal", ['"0.5"', "null"])
    def test_string_or_null_in_a_numeric_field_is_named(self, capsys, tmp_path, field, literal):
        fields = {"inflow": "[0.3, 0.3]", "outflow": "[0, 0]"} if field in ("inflow", "outflow") else {}
        fields[field] = f"[[0, {literal}], [0.5, 0]]" if field == "routing" else f"[0.3, {literal}]"
        path = tmp_path / "strict.json"
        path.write_text(_scenario_text(**fields))
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        if field == "routing":
            assert err == "error: routing entry (1,2) is not a number\n"
        else:
            assert err == f"error: {field} is not a vector of numbers: entry 2 is not a number\n"

    def test_booleans_read_as_zero_and_one(self, tmp_path):
        path = tmp_path / "bools.json"
        path.write_text(_scenario_text(routing="[[false, true], [true, false]]", capacity="[true, 2]",
                                       demand="[false, 0]"))
        spec, _, _ = load_scenario(str(path))
        assert spec.routing.tolist() == [[0.0, 1.0], [1.0, 0.0]]
        assert spec.capacity.tolist() == [1.0, 2.0] and spec.demand.tolist() == [0.0, 0.0]

    def test_three_dimensional_routing_is_named(self, capsys, tmp_path):
        path = tmp_path / "cube.json"
        path.write_text(_scenario_text(routing="[[[0], [0.5]], [[0.5], [0]]]"))
        assert main(["check", str(path)]) == 2
        assert capsys.readouterr().err == "error: routing entry (1,1) is not a number\n"


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The cyclic garbage collector enabled or disabled, as the test's
    caller would leave it; restored afterwards."""
    was = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    yield request.param
    (gc.enable if was else gc.disable)()


class TestCollector:
    """load_scenario keeps the cyclic garbage collector off while it parses
    and leaves it as the caller left it, also when the load fails."""

    def test_a_load_leaves_the_collector_as_it_was(self, collector):
        load_scenario(str(DEMOS / "three_cell.json"))
        assert gc.isenabled() == collector

    @pytest.mark.parametrize("content", [
        "{", _scenario_text(colour='"red"'), _scenario_text(routing='[[0, "0.5"], [0.5, 0]]'),
    ], ids=["malformed_json", "unknown_key", "string_in_routing"])
    def test_a_failed_load_leaves_the_collector_as_it_was(self, collector, tmp_path, content):
        path = tmp_path / "bad.json"
        path.write_text(content)
        with pytest.raises(ScenarioError):
            load_scenario(str(path))
        assert gc.isenabled() == collector

    def test_no_collection_runs_while_a_large_file_loads(self, tmp_path):
        path = _sparse_segment_scenario(tmp_path / "n500.json")
        starts = []
        callback = lambda phase, info: phase == "start" and starts.append(info["generation"])
        threshold = gc.get_threshold()
        # the allocations earlier tests left pending would set off a
        # collection before the load turns the collector off
        gc.collect()
        gc.callbacks.append(callback)
        gc.set_threshold(100)  # 500 routing rows would set off several collections
        try:
            spec, _, _ = load_scenario(path)
            during = len(starts)
        finally:
            gc.set_threshold(*threshold)
            gc.callbacks.remove(callback)
        assert spec.n == 500 and during == 0


class TestSimulate:
    def test_from_zero(self, capsys, scenario3, tmp_path):
        out_csv = tmp_path / "traj.csv"
        code, out = run(capsys, ["simulate", scenario3, "--x0", "zero", "--out", str(out_csv)])
        assert code == 0
        assert json.loads(out)["converged"] is True
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "t,x1,x2,x3,residual_l1"
        final = np.array([float(v) for v in lines[-1].split(",")][1:4])
        assert np.abs(final - XMIN3).sum() < 1e-6

    def test_from_capacity(self, capsys, scenario3, tmp_path):
        out_csv = tmp_path / "traj.csv"
        code, out = run(capsys, ["simulate", scenario3, "--x0", "cap", "--out", str(out_csv)])
        assert code == 0
        final = np.array([float(v) for v in out_csv.read_text().strip().splitlines()[-1].split(",")][1:4])
        assert np.abs(final - XMAX3).sum() < 1e-6

    def test_x0_outside_lattice(self, capsys, scenario3, tmp_path):
        code, _ = run(capsys, ["simulate", scenario3, "--x0", "9,9,9",
                               "--out", str(tmp_path / "t.csv")])
        assert code == 4

    def test_bad_x0_length(self, capsys, scenario3, tmp_path):
        code, _ = run(capsys, ["simulate", scenario3, "--x0", "0,0",
                               "--out", str(tmp_path / "t.csv")])
        assert code == 2

    def test_dt_above_t_end_rejected(self, capsys, scenario3, tmp_path):
        code = main(["simulate", scenario3, "--t-end", "1", "--dt", "2",
                     "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert capsys.readouterr().err == "error: dt must not exceed t_end\n"
        assert not (tmp_path / "t.csv").exists()

    # each once ended in a traceback (OverflowError, exit 1) or in numpy's
    # "cannot convert float NaN to integer"
    @pytest.mark.parametrize("option, field", [
        (["--t-end", "inf"], "t_end"),
        (["--dt", "nan"], "dt"),
        (["--dt", "inf"], "dt"),
        (["--t-end", "1e308"], "t_end / dt"),
        (["--dt", "1e-320"], "t_end / dt"),
    ], ids=["t_end_inf", "dt_nan", "dt_inf", "t_end_1e308", "dt_1e-320"])
    def test_bad_integrator_option_names_the_field(self, capsys, scenario3, tmp_path, option, field):
        code = main(["simulate", scenario3, *option, "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {field} must be ")
        assert not (tmp_path / "t.csv").exists()

    @pytest.mark.parametrize("settings, field", [
        ({"t_end": 1e308}, "t_end / dt"),
        ({"sample_every": 2.5}, "sample_every"),
        ({"sample_every": 10.0}, "sample_every"),
        ({"residual_tol": "1e-10"}, "residual_tol"),
        ({"sample_every": True}, "sample_every"),
        ({"dt": True}, "dt"),
    ], ids=["t_end_1e308", "sample_every_2.5", "sample_every_10.0", "residual_tol_string", "sample_every_true",
            "dt_true"])
    def test_bad_integrator_setting_names_the_field(self, capsys, tmp_path, settings, field):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps({"routing": R3.tolist(), "capacity": W3.tolist(), "demand": C3.tolist(),
                                    "integrator": settings}))
        code = main(["simulate", str(path), "--out", str(tmp_path / "t.csv")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: invalid integrator settings: {field} must be ")

    def test_deterministic_output(self, capsys, scenario3, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, ["simulate", scenario3, "--x0", "zero", "--out", str(a)])
        run(capsys, ["simulate", scenario3, "--x0", "zero", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_residual_column(self, capsys, scenario3, tmp_path):
        out_csv = tmp_path / "traj.csv"
        run(capsys, ["simulate", scenario3, "--x0", "cap", "--out", str(out_csv)])
        rows = np.loadtxt(out_csv, delimiter=",", skiprows=1)
        for x, res in zip(rows[:, 1:4], rows[:, 4]):
            assert abs(np.abs(np.clip(R3.T @ x + C3, 0, W3) - x).sum() - res) <= 1e-14

    @pytest.mark.parametrize("k", [1e6, 1e9, 1e12])
    def test_scaled_reference_converges(self, capsys, tmp_path, k):
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps({"routing": R3.tolist(), "capacity": (k * W3).tolist(),
                                    "demand": (k * C3).tolist()}))
        out_csv = tmp_path / "traj.csv"
        code, out = run(capsys, ["simulate", str(path), "--x0", "zero", "--out", str(out_csv)])
        assert code == 0
        assert json.loads(out)["converged"] is True
        final = np.array([float(v) for v in out_csv.read_text().strip().splitlines()[-1].split(",")][1:4])
        assert np.abs(final - k * XMIN3).sum() < 1e-6 * k


class TestEquilibria:
    def test_reference_segment(self, capsys, scenario3):
        code, out = run(capsys, ["equilibria", scenario3])
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "Segment"
        assert abs(report["condition_value"] - 356 / 37) < 1e-8
        assert np.abs(np.array(report["x_min"]) - XMIN3).sum() < 1e-8
        assert np.abs(np.array(report["x_max"]) - XMAX3).sum() < 1e-8

    def test_point_network(self, capsys, scenario2):
        code, out = run(capsys, ["equilibria", scenario2])
        assert code == 0
        report = json.loads(out)
        assert report["kind"] == "Point"
        assert np.abs(np.array(report["x_min"]) - 0.6).max() < 1e-10

    def test_reducible_demo(self, capsys):
        code, out = run(capsys, ["equilibria", TWO_CLASSES])
        assert code == 0
        report = json.loads(out)
        # MinMaxOnly carries no line data: the segment of class {2, 3} is the gap between the ends
        assert report == {"kind": "MinMaxOnly", "x_min": [1.0, 0.0, 0.0, 0.0, 0.0],
                          "x_max": [1.0, 1.0, 1.0, 0.0, 0.0]}

    @pytest.mark.parametrize("kept", [False, True], ids=["nothing_kept", "another_network_kept"])
    def test_leaves_the_kept_network_as_it_found_it(self, capsys, scenario2, scenario3, kept):
        # the command answers without keeping its network: the thread's slot
        # holds what it held before, here nothing or the two-cell network
        if kept:
            equilibria.equilibrium_set(load_scenario(scenario2)[0])
        before = dict(vars(equilibria._last))
        code, out = run(capsys, ["equilibria", scenario3])
        assert code == 0 and json.loads(out)["kind"] == "Segment"
        assert vars(equilibria._last).keys() == before.keys()
        assert all(vars(equilibria._last)[key] is value for key, value in before.items())


class TestSweep:
    def test_reference_sweep(self, capsys, scenario3, tmp_path):
        out_csv = tmp_path / "sweep.csv"
        code, out = run(capsys, ["sweep", scenario3, "--c-start", "0,-1,0",
                                 "--c-end", "3,-1,6", "--samples", "91",
                                 "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == ("s,c1,c2,c3,kind,cond_value,"
                            "xmin1,xmin2,xmin3,xmax1,xmax2,xmax3,on_manifold")
        assert len(lines) == 92  # header + one row per sample
        sidecar = json.loads(open(sidecar_path_for(str(out_csv))).read())
        assert len(sidecar["critical"]) == 1
        assert abs(9 * sidecar["critical"][0]["s"] - 1.0) < 1e-6
        assert abs(sidecar["critical"][0]["jump"] - 356 / 37) < 1e-6

    def test_demo_sidecar_is_golden(self, capsys, tmp_path):
        # demos/three_cell.critical.json is this command's sidecar, kept byte
        # for byte (the CSV beside it is golden too: TestOutputBytes)
        demos = Path(__file__).resolve().parents[1] / "demos"
        code, out = run(capsys, ["sweep", str(demos / "three_cell.json"), "--c-start", "0,-1,0",
                                 "--c-end", "3,-1,6", "--samples", "91",
                                 "--out", str(tmp_path / "three_cell.csv")])
        assert code == 0
        assert json.loads(out)["rows"] == 91
        golden = (demos / "three_cell.critical.json").read_bytes()
        assert (tmp_path / "three_cell.critical.json").read_bytes() == golden

    def test_reducible_demo_sidecar_is_golden(self, capsys, tmp_path):
        # class {2, 3} sees the total demand c2 + c3 + 0.3 go from -0.5 to
        # 0.5, through 0 at s = 1/2, between the samples 4/9 and 5/9:
        # demos/two_classes.critical.json brackets it as unresolved
        code, out = run(capsys, ["sweep", TWO_CLASSES, "--c-start", "1,-0.8,0,-1,0",
                                 "--c-end", "1,0.2,0,-1,0", "--samples", "10",
                                 "--out", str(tmp_path / "two_classes.csv")])
        assert code == 0
        assert json.loads(out)["rows"] == 10 and json.loads(out)["critical_points"] == 0
        golden = (DEMOS / "two_classes.critical.json").read_bytes()
        assert (tmp_path / "two_classes.critical.json").read_bytes() == golden
        assert json.loads(golden) == {"critical": [], "unresolved": [{"s_lo": 4 / 9, "s_hi": 5 / 9}]}

    @pytest.mark.parametrize("start_critical", [True, False])
    def test_sidecar_puts_a_critical_end_at_its_s(self, capsys, scenario3, tmp_path, start_critical):
        # c* = [1/3, -1, 2/3] at one end: the jump is at s = 0 or 1 exactly
        ends = [",".join(repr(v) for v in (1 / 3, -1.0, 2 / 3)), "3,-1,6"]
        c_start, c_end = ends if start_critical else ends[::-1]
        out_csv = tmp_path / "edge.csv"
        code, _ = run(capsys, ["sweep", scenario3, "--c-start", c_start, "--c-end", c_end,
                               "--samples", "11", "--out", str(out_csv)])
        assert code == 0
        sidecar = json.loads(open(sidecar_path_for(str(out_csv))).read())
        assert [point["s"] for point in sidecar["critical"]] == [0.0 if start_critical else 1.0]

    def test_no_crossing_empty_sidecar(self, capsys, scenario3, tmp_path):
        out_csv = tmp_path / "flat.csv"
        code, _ = run(capsys, ["sweep", scenario3, "--c-start", "0,-1,0",
                               "--c-end", "0,-2,0", "--samples", "5",
                               "--out", str(out_csv)])
        assert code == 0
        sidecar = json.loads(open(sidecar_path_for(str(out_csv))).read())
        assert sidecar["critical"] == []

    def test_mismatched_vector_length(self, capsys, scenario3, tmp_path):
        code, _ = run(capsys, ["sweep", scenario3, "--c-start", "0,-1",
                               "--c-end", "3,-1,6", "--out", str(tmp_path / "s.csv")])
        assert code == 2

    def test_deterministic_output(self, capsys, scenario3, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for target in (a, b):
            run(capsys, ["sweep", scenario3, "--c-start", "0,-1,0",
                         "--c-end", "3,-1,6", "--samples", "11", "--out", str(target)])
        assert a.read_bytes() == b.read_bytes()


class TestJsonText:
    """_json_text writes json.dumps(obj, indent=2)'s bytes, one flat list
    of numbers at a time through a C encoder: orjson for floats alone,
    with json's spelling put back where the two differ."""

    @pytest.mark.parametrize("obj", [
        [float("nan"), float("inf"), -float("inf"), -0.0, 1e-05, 5e-324, 1.7976931348623157e308, 0.1],
        [3.358e-05, -2.7e-09, 9.999999999999999e-05, 1e-4, 0.5, 9999999999999998.0, 1e16, -1.5e17],
        [1, 2**60, -3, True, False],
        [1.5, None, 2.5],
        None, True, 0, -0.0, 1e-05, float("nan"), "text",
        [], {}, [[]], {"a": {}}, {"a": []},
        {"critical": [{"s": 0.1111111111111111, "jump": 9.621621621621623}], "unresolved": [0.5, 0.75]},
        {"critical": [{"s": 0.5, "jump": 0.0}, {"s": 0.75, "jump": 1e-15}]},
        [[1.0, 2.0], [3.0, [4.0, 5.0]], {"x": [6.0]}],
        ["a, b", "c, d"],
        [1.0, "x, y", 2.0],
        {"naïve, café": ["ü, ß", 1.0], "x, y": "z, \u2603", "": [0.25]},
        (1.0, 2.0),
    ], ids=repr)
    def test_matches_json_dumps_indent_2(self, obj):
        assert _json_text(obj) == json.dumps(obj, indent=2)


def _sparse_segment_scenario(path, n=500):
    """A stochastic irreducible network of n cells (a random Hamiltonian
    cycle plus 4 random out-edges per cell) with the critical demand
    c = (I - R')x of an interior x: its equilibria form a segment."""
    rng = np.random.default_rng(n)
    order = rng.permutation(n)
    R = np.zeros((n, n))
    R[order, np.roll(order, -1)] = rng.random(n) + 0.1
    rows = np.arange(n)
    for _ in range(4):
        np.add.at(R, (rows, (rows + 1 + rng.integers(0, n - 1, n)) % n), rng.random(n) + 0.1)
    R /= R.sum(axis=1)[:, None]
    w = rng.uniform(1.0, 5.0, n)
    x = w * rng.uniform(0.25, 0.75, n)
    path.write_text(json.dumps({"routing": R.tolist(), "capacity": w.tolist(), "demand": (x - R.T @ x).tolist()}))
    return str(path)


class TestOutputBytes:
    """check and equilibria print json.dumps(result, indent=2) and a newline."""

    @pytest.fixture(params=["demo", "n500", 1e-6, 1e17])
    def scenario(self, request, tmp_path):
        if request.param == "demo":
            return str(DEMOS / "three_cell.json")
        if request.param == "n500":
            return _sparse_segment_scenario(tmp_path / "n500.json")
        # the demo with (w, c) scaled by k has k times its segment, whose
        # nonzero entries (0.32 to 6 at k = 1) then lie below 1e-4 or from
        # 1e16, where json and orjson spell floats differently
        k = request.param
        doc = json.loads((DEMOS / "three_cell.json").read_text())
        doc["capacity"] = [k * v for v in doc["capacity"]]
        doc["demand"] = [k * v for v in doc["demand"]]
        path = tmp_path / "scaled.json"
        path.write_text(json.dumps(doc))
        return str(path)

    @pytest.mark.parametrize("command", ["check", "equilibria"])
    def test_stdout_is_json_dumps_indent_2(self, capsys, scenario, command):
        code, out = run(capsys, [command, scenario])
        assert code == 0
        result = json.loads(out)  # floats round-trip, so this is the dict that was written
        assert out == json.dumps(result, indent=2) + "\n"
        assert result["class" if command == "check" else "kind"] == (
            "StochasticIrreducible" if command == "check" else "Segment")

    def test_demo_stdout_is_golden(self, capsys):
        # demos/three_cell.equilibria.json is this command's stdout, kept byte for byte
        code, out = run(capsys, ["equilibria", str(DEMOS / "three_cell.json")])
        assert code == 0
        assert out == (DEMOS / "three_cell.equilibria.json").read_text()

    def test_demo_trajectory_csv_is_golden(self, capsys, tmp_path):
        # demos/three_cell.trajectory.csv is the demo's trajectory from w, kept
        # byte for byte: the interval maps take 3310 of its 3320 steps, in
        # runs, and one interval runs stage by stage
        out = tmp_path / "three_cell.trajectory.csv"
        code, _ = run(capsys, ["simulate", str(DEMOS / "three_cell.json"), "--x0", "cap", "--out", str(out)])
        assert code == 0
        assert out.read_bytes() == (DEMOS / "three_cell.trajectory.csv").read_bytes()

    def test_reducible_demo_stdout_is_golden(self, capsys):
        # demos/two_classes.equilibria.json is this command's stdout, kept
        # byte for byte: its draining cell and its class with a nonzero total
        # demand are unique points, the other class a segment
        code, out = run(capsys, ["equilibria", TWO_CLASSES])
        assert code == 0
        assert out == (DEMOS / "two_classes.equilibria.json").read_text()

    def test_demo_sweep_csv_is_golden(self, capsys, tmp_path):
        # demos/three_cell.sweep.csv is the 91-sample sweep of the demo across
        # its critical point, kept byte for byte: every row's bits, walked or cold
        code, out = run(capsys, ["sweep", str(DEMOS / "three_cell.json"), "--c-start", "0,-1,0",
                                 "--c-end", "3,-1,6", "--samples", "91",
                                 "--out", str(tmp_path / "three_cell.csv")])
        assert code == 0
        assert (tmp_path / "three_cell.csv").read_bytes() == (DEMOS / "three_cell.sweep.csv").read_bytes()

    def test_reducible_demo_sweep_csv_is_golden(self, capsys, tmp_path):
        # demos/two_classes.sweep.csv is the 10-sample sweep of the reducible
        # demo, kept byte for byte: every sample is answered class by class
        # with 30 unique points, 10 from an agreed pattern and 20 whose ends
        # never agree on one, where one end converges and the other climbs
        code, _ = run(capsys, ["sweep", TWO_CLASSES, "--c-start", "1,-0.8,0,-1,0", "--c-end", "1,0.2,0,-1,0",
                               "--samples", "10", "--out", str(tmp_path / "two_classes.csv")])
        assert code == 0
        assert (tmp_path / "two_classes.csv").read_bytes() == (DEMOS / "two_classes.sweep.csv").read_bytes()


class TestParserReuse:
    """main parses with one parser built on first use; build_parser still
    returns a new one on each call."""

    @staticmethod
    def _calls(capsys, scenario):
        outputs = []
        for argv in (["equilibria", scenario], ["check", scenario], ["equilibria", scenario, "--bogus"],
                     ["equilibria", scenario]):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            captured = capsys.readouterr()
            outputs.append((code, captured.out, captured.err))
        return outputs

    def test_calls_in_one_process_match_fresh_parsers(self, capsys, monkeypatch, scenario3):
        built, real = [], cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
        cli._parser.cache_clear()
        kept = self._calls(capsys, scenario3)
        assert len(built) == 1
        monkeypatch.setattr(cli, "_parser", real)
        fresh = self._calls(capsys, scenario3)
        assert kept == fresh
        assert [code for code, _, _ in kept] == [0, 0, 2, 0]
        assert "unrecognized arguments: --bogus" in kept[2][2]

    def test_build_parser_returns_a_new_parser(self):
        assert cli.build_parser() is not cli.build_parser()
