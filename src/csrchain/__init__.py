"""Dynamic Stackelberg solver for CSR investment in a three-tier supply chain."""

from .errors import (
    CsrChainError,
    ParamsError,
    ScenarioError,
    SingularSystemError,
    SweepSingularError,
    TrajectoryConsistencyError,
    UndeterminedControlsError,
)
from .model import (
    Controls,
    ModelParams,
    Trajectory,
    inverse_demand,
    optimal_quantity,
    rollout,
    social_benefit,
    stage_payoff,
    state_transition,
    tax_return,
    total_objective,
    trajectory_max_delta,
)
from .oracle import (
    dense_solve,
    follower_stationarity_check,
    grid_scan_supplier,
    leader_stationarity_check,
)
from .output import emit_csv, emit_report, parse_csv
from .scenario import Scenario, load_scenario
from .stationarity import (
    StationaritySystem,
    assemble_system,
    residual_norms,
)
from .sweep import (
    AugmentedSystem,
    SolveReport,
    assemble_augmented,
    backward_sweep,
    forward_pass,
    solve_game,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedSystem",
    "Controls",
    "CsrChainError",
    "ModelParams",
    "ParamsError",
    "Scenario",
    "ScenarioError",
    "SingularSystemError",
    "SolveReport",
    "StationaritySystem",
    "SweepSingularError",
    "Trajectory",
    "TrajectoryConsistencyError",
    "UndeterminedControlsError",
    "assemble_augmented",
    "assemble_system",
    "backward_sweep",
    "dense_solve",
    "emit_csv",
    "emit_report",
    "follower_stationarity_check",
    "forward_pass",
    "grid_scan_supplier",
    "inverse_demand",
    "leader_stationarity_check",
    "load_scenario",
    "optimal_quantity",
    "parse_csv",
    "residual_norms",
    "rollout",
    "social_benefit",
    "solve_game",
    "stage_payoff",
    "state_transition",
    "tax_return",
    "total_objective",
    "trajectory_max_delta",
]
