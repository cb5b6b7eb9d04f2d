"""Exception types shared by all equidim modules, and the budget check
that raises :class:`BudgetError`."""

from __future__ import annotations


class EquidimError(Exception):
    """Base class for all errors raised by this package."""


class GraphError(EquidimError):
    """Invalid graph construction or violated operation precondition."""


class BudgetError(EquidimError):
    """Instance is too large for the exact search budget."""


def check_budget(order: int, max_order: int | None, cap: int) -> None:
    """Raise :class:`BudgetError` when ``order`` exceeds ``cap``, lowered to
    ``max_order`` when given; a caller's ``max_order`` never raises a cap."""
    if max_order is not None:
        cap = min(max_order, cap)
    if order > cap:
        raise BudgetError(f"exact search out of budget: order {order} exceeds cap {cap}")
