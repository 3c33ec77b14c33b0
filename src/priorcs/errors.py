"""Exception types shared across the package."""


class PriorCSError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(PriorCSError, ValueError):
    """Arguments violate an operation's documented precondition."""


class BudgetExceededError(PriorCSError):
    """Problem size exceeds an exhaustive-enumeration budget."""


class InfeasibleProblemError(PriorCSError):
    """No point satisfies the measurement constraint."""


class ConfigError(PriorCSError, ValueError):
    """Experiment configuration is missing, malformed, or inconsistent."""
