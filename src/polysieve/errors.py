"""Package-wide error types."""


class BudgetExceededError(RuntimeError):
    """An enumeration or transform would exceed the configured operation cap."""
