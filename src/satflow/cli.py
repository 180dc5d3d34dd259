"""Command-line interface: check | simulate | equilibria | sweep.

Scenario files are JSON documents with keys "routing", "capacity",
"demand", optional "inflow"/"outflow", an optional "name" string, and an
optional "integrator" object overriding the integrator defaults.  Unknown
keys are rejected.  The JSON is strict (RFC 8259, UTF-8 without a byte
order mark): NaN and Infinity literals and numbers that overflow a double
are malformed JSON.  The numeric fields take JSON numbers only: a string
or a null in routing, capacity, demand, inflow or outflow is an invalid
scenario naming the field (and, in routing, the entry); true and false
read as 1 and 0.  Scenarios are parsed with orjson, with the cyclic
garbage collector off (see load_scenario).  The JSON that check,
equilibria and the sweep sidecar write has the bytes of the standard json
module's json.dump(..., indent=2), whose float spellings (1e-05, not
orjson's 0.00001) it keeps; its lists of floats go through orjson, with
the few spellings that differ written again by json, and its other lists
of numbers through json's C encoder (see _json_text).

Exit codes: 0 success, 2 invalid scenario, 3 numerical failure,
4 precondition violation.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import gc
import json
import sys

import numpy as np
import orjson

from . import dynamics, equilibria, model, transitions
from .errors import NumericalError, PreconditionError, ScenarioError

EXIT_OK = 0
EXIT_SCENARIO = 2
EXIT_NUMERICAL = 3
EXIT_PRECONDITION = 4

_INTEGRATOR_KEYS = {f.name for f in dataclasses.fields(dynamics.IntegratorConfig)}


def load_scenario(path: str) -> tuple[model.NetworkSpec, dynamics.IntegratorConfig, str]:
    """Parse and validate a scenario file; returns (spec, integrator, name).

    The cyclic garbage collector is off from the parse until the parsed
    document is freed, and is then put back as the caller left it, also
    when the load raises.  The document is a tree of lists, which a
    collection cannot free, but the parse of an n = 500 routing matrix
    builds enough lists to set one off, and each walks the routing lists
    built so far.  The collector's state is the process's, so a thread that
    changes it while another loads may find it changed back.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _read_scenario(path)  # the document is freed when it returns
    finally:
        if enabled:
            gc.enable()


def _read_scenario(path: str) -> tuple[model.NetworkSpec, dynamics.IntegratorConfig, str]:
    """:func:`load_scenario` with the collector as it finds it."""
    try:
        with open(path, "rb") as fh:
            doc = orjson.loads(fh.read())
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario: {exc}") from exc
    except orjson.JSONDecodeError as exc:
        raise ScenarioError(f"malformed JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    spec = model.NetworkSpec.from_dict({k: v for k, v in doc.items() if k not in ("name", "integrator")})
    integrator = doc.get("integrator", {})
    if not isinstance(integrator, dict):
        raise ScenarioError("integrator must be an object")
    unknown = integrator.keys() - _INTEGRATOR_KEYS
    if unknown:
        raise ScenarioError(f"unknown integrator keys: {sorted(unknown)}")
    try:
        cfg = dynamics.IntegratorConfig(**integrator)
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"invalid integrator settings: {exc}") from exc
    return spec, cfg, str(doc.get("name", ""))


#: the types of the lists that _json_text spells whole, in one encoder call
_NUMBER_TYPES = frozenset((float, int, bool))


def _json_text(obj, pad: str = "\n") -> str:
    """json.dumps(obj, indent=2), with each flat list of numbers spelled
    whole by a C encoder: orjson for a list of floats (:func:`_floats_text`),
    json's for any other list of numbers.

    With an indent, json falls back to its pure-Python encoder, which costs
    about a microsecond more per float.  A list of numbers holds no ","
    but its separators, so the one-line text only needs its separators
    broken onto indented lines.  pad is the newline and the indent of the
    line obj starts on; dict keys are strings.
    """
    inner = pad + "  "
    if isinstance(obj, (list, tuple)) and obj:
        types = set(map(type, obj))
        if types == {float}:
            items = _floats_text(obj, "," + inner)
        elif types <= _NUMBER_TYPES:
            items = json.dumps(obj)[1:-1].replace(", ", "," + inner)
        else:
            items = ("," + inner).join(_json_text(v, inner) for v in obj)
        return "[" + inner + items + pad + "]"
    if isinstance(obj, dict) and obj:
        items = ("," + inner).join(json.dumps(k) + ": " + _json_text(v, inner) for k, v in obj.items())
        return "{" + inner + items + pad + "}"
    # a scalar or an empty container
    return json.dumps(obj, indent=2).replace("\n", pad)


def _floats_text(values, sep: str) -> str:
    """The floats of a list as json spells them, joined by sep.

    orjson writes the shortest digits that round-trip, as float.__repr__
    and so json do, an order of magnitude faster than json.  The two spell
    the same digits alike except at 0 < |v| < 1e-4 (json 3.358e-05, orjson
    0.00003358), at |v| >= 1e16 (json 1e+16, orjson 1e16) and for NaN and
    +-inf (json NaN and Infinity, orjson null); json writes those again.
    """
    text = orjson.dumps(values).decode()[1:-1]
    a = np.abs(np.array(values))
    respelled = np.flatnonzero((a != 0) & ~((a >= 1e-4) & (a < 1e16)))  # NaN compares False
    if not respelled.size:
        return text.replace(",", sep)
    tokens = text.split(",")
    for i in respelled.tolist():
        tokens[i] = json.dumps(values[i])
    return sep.join(tokens)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _vector_arg(text: str, n: int, what: str) -> np.ndarray:
    try:
        vec = np.array([float(t) for t in text.split(",")], dtype=float)
    except ValueError as exc:
        raise ScenarioError(f"{what} must be a comma-separated list of numbers") from exc
    if vec.shape != (n,):
        raise ScenarioError(f"{what} must have length {n}, got {vec.size}")
    return vec


def cmd_check(args) -> int:
    spec, _, _ = load_scenario(args.scenario)
    cls = model.classify_routing(spec.routing)
    report = {
        "class": cls.tag,
        "detail": cls.detail,
        "row_sums": model.row_sums(spec.routing).tolist(),
    }
    leaky = model.leaky_nodes(spec.routing)
    if leaky:
        report["leaky_nodes"] = [i + 1 for i in leaky]
    if cls.tag == model.STOCHASTIC_IRREDUCIBLE:
        # R is classified above: invariant_vector would classify it again
        report["pi"] = model._pi_and_h(spec.routing, np.zeros(spec.n))[0].tolist()
    sys.stdout.write(_json_text(report) + "\n")
    return EXIT_OK


def _initial_state(arg: str, spec: model.NetworkSpec) -> np.ndarray:
    if arg == "zero":
        return np.zeros(spec.n)
    if arg == "cap":
        return spec.capacity.copy()
    return _vector_arg(arg, spec.n, "--x0")


def cmd_simulate(args) -> int:
    spec, cfg, _ = load_scenario(args.scenario)
    overrides = {k: v for k, v in (("t_end", args.t_end), ("dt", args.dt)) if v is not None}
    # replace() re-runs IntegratorConfig's checks on the overridden values
    cfg = dataclasses.replace(cfg, **overrides)
    x0 = _initial_state(args.x0, spec)
    traj = dynamics.integrate(spec, x0, cfg)
    header = "t," + ",".join(f"x{i + 1}" for i in range(spec.n)) + ",residual_l1"
    lines = [header]
    for t, x, res in zip(traj.times, traj.states, traj.residuals):
        lines.append(",".join([_fmt(t)] + [_fmt(v) for v in x] + [_fmt(res)]))
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    json.dump({"converged": traj.converged, "final_residual": traj.final_residual}, sys.stdout)
    sys.stdout.write("\n")
    return EXIT_OK if traj.converged else EXIT_NUMERICAL


def _equilibrium_json(eq: equilibria.EquilibriumSet) -> dict:
    out = {
        "kind": eq.kind,
        "x_min": eq.x_min.tolist(),
        "x_max": eq.x_max.tolist(),
    }
    if eq.alpha_min is not None:
        out["alpha_min"] = eq.alpha_min
        out["alpha_max"] = eq.alpha_max
        out["hc"] = eq.hc.tolist()
        out["pi"] = eq.pi.tolist()
    if eq.condition_value is not None:
        out["condition_value"] = eq.condition_value
    return out


def cmd_equilibria(args) -> int:
    spec, _, _ = load_scenario(args.scenario)
    # equilibrium_set's solver path on a network this thread does not keep: no later call here reads it
    eq = equilibria._equilibrium(equilibria._classified(spec.routing, spec.capacity), spec.demand)
    sys.stdout.write(_json_text(_equilibrium_json(eq)) + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    spec, _, _ = load_scenario(args.scenario)
    c_start = _vector_arg(args.c_start, spec.n, "--c-start")
    c_end = _vector_arg(args.c_end, spec.n, "--c-end")
    path = transitions.DemandPath(c_start=c_start, c_end=c_end, samples=args.samples)
    result = transitions.sweep(spec.routing, spec.capacity, path)
    n = spec.n
    header = (
        "s,"
        + ",".join(f"c{i + 1}" for i in range(n))
        + ",kind,cond_value,"
        + ",".join(f"xmin{i + 1}" for i in range(n))
        + ","
        + ",".join(f"xmax{i + 1}" for i in range(n))
        + ",on_manifold"
    )
    lines = [header]
    for row in result.rows:
        cond = "" if row.condition_value is None else _fmt(row.condition_value)
        lines.append(
            ",".join(
                [_fmt(row.s)]
                + [_fmt(v) for v in row.c]
                + [row.kind, cond]
                + [_fmt(v) for v in row.x_min]
                + [_fmt(v) for v in row.x_max]
                + [str(bool(row.on_manifold)).lower()]
            )
        )
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
    sidecar = {"critical": [{"s": j["s"], "jump": j["magnitude"]} for j in result.jumps]}
    if result.unresolved:
        sidecar["unresolved"] = result.unresolved
    sidecar_path = sidecar_path_for(args.out)
    with open(sidecar_path, "w", encoding="utf-8") as fh:
        fh.write(_json_text(sidecar) + "\n")
    json.dump({"rows": len(result.rows), "critical_points": len(result.jumps), "sidecar": sidecar_path}, sys.stdout)
    sys.stdout.write("\n")
    return EXIT_OK


def sidecar_path_for(out_path: str) -> str:
    base = out_path[:-4] if out_path.endswith(".csv") else out_path
    return base + ".critical.json"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="satflow", description="Saturated flow network analysis")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="validate a scenario and classify its routing matrix")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("simulate", help="integrate the flow dynamics and write a trajectory CSV")
    p.add_argument("scenario")
    p.add_argument("--x0", default="zero", help='"zero", "cap", or a comma-separated state')
    p.add_argument("--t-end", type=float, default=None)
    p.add_argument("--dt", type=float, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("equilibria", help="compute and classify the equilibrium set")
    p.add_argument("scenario")
    p.set_defaults(func=cmd_equilibria)

    p = sub.add_parser("sweep", help="sweep an affine demand path and report critical points")
    p.add_argument("scenario")
    p.add_argument("--c-start", required=True)
    p.add_argument("--c-end", required=True)
    p.add_argument("--samples", type=int, default=101)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sweep)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built on first use and kept for the
    process: in-process callers run main many times, and building it takes
    longer than parsing with it."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SCENARIO


if __name__ == "__main__":
    sys.exit(main())
