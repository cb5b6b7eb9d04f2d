"""Exception types shared by all equidim modules, the budget check that
raises :class:`BudgetError`, and the copy-order check."""

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


def check_copy_order(n_h: int) -> None:
    """Raise :class:`GraphError` unless ``n_h`` is a plain positive ``int``;
    ``True`` and ``2.0`` are rejected, as neither is a plain ``int``."""
    if type(n_h) is not int or n_h < 1:
        raise GraphError(f"copy order must be a positive integer, got {n_h!r}")
