"""Exception types shared across the solver modules."""


class CsrChainError(Exception):
    """Base class for all csrchain errors.

    ``args`` holds what the error was raised with, as ``Exception`` stores
    it, and the message is the class's ``message`` template formatted with
    ``args``, so every error pickles and reads the same after the trip.
    """

    message = "{}"

    def __str__(self):
        return self.message.format(*self.args)


class _ViolationsError(CsrChainError):
    """One error for a list of problems: ``violations``, one message each,
    joined one per line into the class's ``message``."""

    def __init__(self, violations):
        super().__init__(list(violations))

    violations = property(lambda self: self.args[0])

    def __str__(self):
        return self.message.format("\n  ".join(self.violations))


class ParamsError(_ViolationsError):
    """Model parameters violate their invariants.

    ``violations`` lists every offending field with the bound it breaks.
    """

    message = "invalid model parameters:\n  {}"


class UndeterminedControlsError(CsrChainError):
    """tau*theta == 0: the control first-order conditions lose all dependence
    on the investments, so the period system cannot determine them."""

    message = ("controls undetermined by FOC: tau*theta = 0 makes every control "
               "first-order condition independent of the investments")


class SweepSingularError(CsrChainError):
    """Recovering a level's cyclic reduction met a singular or non-finite
    solve; ``level`` names the level: ``outer``, ``inner`` or ``retailer``."""

    message = "sweep breakdown: singular or non-finite recovery at the {} level"
    level = property(lambda self: self.args[0])


class SingularSystemError(CsrChainError):
    """The stacked stationarity system is numerically singular.

    ``cond_estimate`` estimates the 1-norm condition number from below; it is
    infinite when the factorization met an exactly zero pivot.
    """

    message = "stationarity system is numerically singular (1-norm condition estimate {:.3e})"
    cond_estimate = property(lambda self: self.args[0])


class TrajectoryConsistencyError(CsrChainError):
    """A trajectory violates the state equation beyond tolerance: raised with
    the state equation's gap and the tolerance it exceeds."""

    message = "state equation violated by {:.3e} (tolerance {:.3e}); objective undefined"


class ScenarioError(_ViolationsError):
    """Scenario file failed to parse or validate.

    ``violations`` carries one message per problem, each naming the line or
    field involved.
    """

    message = "invalid scenario:\n  {}"
