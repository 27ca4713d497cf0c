class GaloisKitError(Exception):
    """Base class for toolkit errors."""


class NotSeparableError(GaloisKitError):
    """g lies in the closed class, so no separating object exists."""


DEFAULT_BUDGET = 2_000_000


class BudgetExceededError(GaloisKitError):
    """An enumeration would exceed the configured work budget.

    Raised instead of returning a possibly wrong answer; the message
    reports both the estimated cost and the budget.
    """

    def __init__(self, estimated, budget, what):
        self.estimated = estimated
        self.budget = budget
        self.what = what
        super().__init__(
            f"refusing {what}: estimated {estimated} enumeration steps "
            f"exceeds budget {budget}"
        )
