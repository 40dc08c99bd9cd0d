"""Package-wide error types and the one operation budget of every job."""

DEFAULT_BUDGET = 2_000_000_000


class BudgetExceededError(RuntimeError):
    """An enumeration or transform would exceed the configured operation cap."""


def charge(cost: int, budget: int | None, what: str) -> None:
    """Refuse `what`, before any of its work, if its modelled cost exceeds
    the budget; None is no cap."""
    if budget is not None and cost > budget:
        raise BudgetExceededError(f"{what} costs {cost}, over budget {budget}")
