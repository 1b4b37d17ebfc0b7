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
    total_objective,
    trajectory_max_delta,
)
from .oracle import (
    dense_solve,
    follower_stationarity_check,
    leader_stationarity_check,
)
from .output import emit_csv, emit_report, parse_csv
from .scenario import Scenario, load_scenario
from .stationarity import residual_norms
from .sweep import SolveReport, solve_game

__version__ = "0.1.0"

__all__ = [
    "Controls",
    "CsrChainError",
    "ModelParams",
    "ParamsError",
    "Scenario",
    "ScenarioError",
    "SingularSystemError",
    "SolveReport",
    "SweepSingularError",
    "Trajectory",
    "TrajectoryConsistencyError",
    "UndeterminedControlsError",
    "dense_solve",
    "emit_csv",
    "emit_report",
    "follower_stationarity_check",
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
    "total_objective",
    "trajectory_max_delta",
]
