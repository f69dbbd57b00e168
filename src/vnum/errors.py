"""Exception types shared across the package."""


class VnumError(Exception):
    """Base class for all package-specific errors."""


class GraphInputError(VnumError, ValueError):
    """Malformed graph data: out-of-range vertex, loop edge, bad file syntax."""


class InstanceTooLargeError(VnumError):
    """An exhaustive search was requested beyond its configured vertex budget."""


class BudgetExceededError(VnumError):
    """A Groebner-basis computation or a witness search ran past its budget.

    Budgets are never silently truncated; the failing cap is reported in
    the message.
    """


class NotACutSetError(VnumError, ValueError):
    """The supplied vertex set is not a cut set of the graph."""


class UnsupportedRegimeError(VnumError):
    """The requested value lies outside every regime this package can prove
    or search; the message explains which hypothesis failed."""
