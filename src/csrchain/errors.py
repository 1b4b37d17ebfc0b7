"""Exception types shared across the solver modules."""


class CsrChainError(Exception):
    """Base class for all csrchain errors."""


class _ViolationsError(CsrChainError):
    """One error for a list of problems: ``violations``, one message each,
    joined in the message under the class's ``header``."""

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__(f"{self.header}:\n  " + "\n  ".join(self.violations))


class ParamsError(_ViolationsError):
    """Model parameters violate their invariants.

    ``violations`` lists every offending field with the bound it breaks.
    """

    header = "invalid model parameters"


class UndeterminedControlsError(CsrChainError):
    """tau*theta == 0: the control first-order conditions lose all dependence
    on the investments, so the period system cannot determine them."""

    def __init__(self):
        super().__init__(
            "controls undetermined by FOC: tau*theta = 0 makes every control "
            "first-order condition independent of the investments"
        )


class SweepSingularError(CsrChainError):
    """Recovering a level's cyclic reduction met a singular or non-finite
    solve; ``level`` names the level: ``outer``, ``inner`` or ``retailer``."""

    def __init__(self, level):
        self.level = level
        super().__init__(
            f"sweep breakdown: singular or non-finite recovery at the {level} level"
        )


class SingularSystemError(CsrChainError):
    """The stacked stationarity system is numerically singular.

    ``cond_estimate`` estimates the 1-norm condition number from below; it is
    infinite when the factorization met an exactly zero pivot.
    """

    def __init__(self, cond_estimate):
        self.cond_estimate = cond_estimate
        super().__init__(
            f"stationarity system is numerically singular "
            f"(1-norm condition estimate {cond_estimate:.3e})"
        )


class TrajectoryConsistencyError(CsrChainError):
    """A trajectory violates the state equation beyond tolerance."""


class ScenarioError(_ViolationsError):
    """Scenario file failed to parse or validate.

    ``violations`` carries one message per problem, each naming the line or
    field involved.
    """

    header = "invalid scenario"
