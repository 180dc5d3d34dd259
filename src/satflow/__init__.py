"""Saturated dynamical flow networks with finite capacities.

Library layout:

* :mod:`satflow.model`       -- network spec, validation, routing-matrix
  classification, invariant vector pi, H operator
* :mod:`satflow.dynamics`    -- saturated vector field and RK4 integration
* :mod:`satflow.equilibria`  -- exact least and greatest equilibria by
  pattern iteration, the analytic equilibrium segment, the multiplicity
  condition, and reducible routing class by class
* :mod:`satflow.transitions` -- demand-path sweeps and jump detection
* :mod:`satflow.cli`         -- ``satflow`` command (check | simulate |
  equilibria | sweep)
"""

from .dynamics import IntegratorConfig, Trajectory, integrate, net_flow
from .equilibria import EquilibriumSet, equilibrium_set, multiplicity_test
from .errors import NumericalError, PreconditionError, SatflowError, ScenarioError
from .model import (
    NetworkSpec,
    RoutingClass,
    classify_routing,
    h_operator,
    invariant_vector,
    is_irreducible,
    is_out_connected,
    validate,
)
from .transitions import DemandPath, DirectionalLimits, SweepResult, directional_limits, on_critical_manifold, sweep

__version__ = "0.1.0"

__all__ = [
    "DemandPath",
    "DirectionalLimits",
    "EquilibriumSet",
    "IntegratorConfig",
    "NetworkSpec",
    "NumericalError",
    "PreconditionError",
    "RoutingClass",
    "SatflowError",
    "ScenarioError",
    "SweepResult",
    "Trajectory",
    "classify_routing",
    "directional_limits",
    "equilibrium_set",
    "h_operator",
    "integrate",
    "invariant_vector",
    "is_irreducible",
    "is_out_connected",
    "multiplicity_test",
    "net_flow",
    "on_critical_manifold",
    "sweep",
    "validate",
]
