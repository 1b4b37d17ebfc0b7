"""Every csrchain error is its arguments: ``args`` holds what it was raised
with, its message is the class's template over them, and it crosses a
pickle (a process boundary) with its message, type and data intact."""
import pickle

import numpy as np
import pytest

from csrchain import (
    CsrChainError,
    ParamsError,
    ScenarioError,
    SingularSystemError,
    SweepSingularError,
    TrajectoryConsistencyError,
    UndeterminedControlsError,
    dense_solve,
    load_scenario,
    solve_game,
    stationarity,
    total_objective,
)

from conftest import make_params, patch_bindings


def raised(action):
    """The csrchain error that ``action()`` raises."""
    with pytest.raises(CsrChainError) as info:
        action()
    return info.value


def inconsistent_objective():
    trajectory, _ = solve_game(make_params())
    trajectory.x[2] += 0.5
    total_objective("S", trajectory, make_params())


def overflowed_solve():
    with np.errstate(over="ignore", invalid="ignore"):
        solve_game(make_params(x1=1e308))


def failed_factorization(monkeypatch):
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    patch_bindings(monkeypatch, stationarity.qr_complete, singular)
    return raised(lambda: dense_solve(make_params()))


@pytest.fixture
def raised_errors(tmp_path, monkeypatch):
    """Each class as its own raise site raises it: the base class with its
    text, and each subclass with its data."""
    errors = {
        "CsrChainError": raised(lambda: solve_game(make_params(delta_r=1e308))),
        "ParamsError": raised(lambda: make_params(beta_s=1.5, b=-2.0)),
        "ScenarioError": raised(lambda: load_scenario(tmp_path / "missing.scenario")),
        "UndeterminedControlsError": raised(lambda: solve_game(make_params(theta=0.0))),
        "SweepSingularError": raised(overflowed_solve),
        "SingularSystemError-finite": raised(lambda: dense_solve(make_params(tau=1e-7,
                                                                              theta=1e-7))),
        "TrajectoryConsistencyError": raised(inconsistent_objective),
        "SingularSystemError-infinite": failed_factorization(monkeypatch),
    }
    for name, error in errors.items():
        assert type(error).__name__ == name.split("-")[0]
    return errors


def test_every_error_pickles(raised_errors):
    for error in raised_errors.values():
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is type(error)
        assert str(back) == str(error)
        assert back.args == error.args
        for name in ("violations", "level", "cond_estimate"):
            assert getattr(back, name, None) == getattr(error, name, None)


def test_args_hold_the_raise_sites_data(raised_errors):
    assert raised_errors["ParamsError"].args == (["beta_s must lie in (0, 1), got 1.5",
                                                "b must be positive, got -2.0"],)
    assert raised_errors["ParamsError"].violations is raised_errors["ParamsError"].args[0]
    assert raised_errors["UndeterminedControlsError"].args == ()
    assert raised_errors["SweepSingularError"].args == ("outer",)
    assert raised_errors["SweepSingularError"].level == "outer"
    assert raised_errors["SingularSystemError-finite"].cond_estimate > 1e12
    assert raised_errors["SingularSystemError-infinite"].args == (float("inf"),)
    gap, tolerance = raised_errors["TrajectoryConsistencyError"].args
    assert gap > tolerance > 0


def test_violations_are_a_list_of_any_iterable():
    error = ScenarioError(problem for problem in ("line 2: no '='", "missing field 'tau'"))
    assert error.violations == ["line 2: no '='", "missing field 'tau'"]
    assert str(pickle.loads(pickle.dumps(error))) == str(error)


@pytest.mark.parametrize("error, message", [
    (CsrChainError("non-finite coefficients in the equation table: costate_r on x[t] (-inf)"),
     "non-finite coefficients in the equation table: costate_r on x[t] (-inf)"),
    (ParamsError(["beta_s must lie in (0, 1), got 1.5", "b must be positive, got -2.0"]),
     "invalid model parameters:\n  beta_s must lie in (0, 1), got 1.5\n"
     "  b must be positive, got -2.0"),
    (ScenarioError(["scenario file not found: missing.scenario"]),
     "invalid scenario:\n  scenario file not found: missing.scenario"),
    (ScenarioError([]), "invalid scenario:\n  "),
    (UndeterminedControlsError(),
     "controls undetermined by FOC: tau*theta = 0 makes every control first-order "
     "condition independent of the investments"),
    (SweepSingularError("retailer"),
     "sweep breakdown: singular or non-finite recovery at the retailer level"),
    (SingularSystemError(8.7e17),
     "stationarity system is numerically singular (1-norm condition estimate 8.700e+17)"),
    (SingularSystemError(float("inf")),
     "stationarity system is numerically singular (1-norm condition estimate inf)"),
    (TrajectoryConsistencyError(0.5, 2.5e-6),
     "state equation violated by 5.000e-01 (tolerance 2.500e-06); objective undefined"),
], ids=["CsrChainError", "ParamsError", "ScenarioError", "ScenarioError-empty",
        "UndeterminedControlsError", "SweepSingularError", "SingularSystemError-finite",
        "SingularSystemError-infinite", "TrajectoryConsistencyError"])
def test_messages_keep_their_bytes(error, message):
    assert str(error) == message
