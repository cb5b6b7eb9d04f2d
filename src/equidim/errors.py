"""Exception types shared by all equidim modules, the budget check that
raises :class:`BudgetError`, the copy-order check, and the base classes of
the package's plain records."""

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


class Record:
    """Base of the package's records.  A record's fields are the entries of
    its instance dict, set by its own ``__init__`` in declaration order, so
    ``vars(record)`` holds exactly its fields.  It has the field-wise
    ``repr`` of a dataclass, equality only between records of one type, and
    no hash: a plain record is mutable."""

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)


class FrozenRecord(Record):
    """A read-only :class:`Record` that hashes by its field values.  Since
    assignment raises :class:`AttributeError`, its ``__init__`` sets each
    field with ``object.__setattr__``, which keeps the values inline in the
    instance, as plain assignment does: writing ``self.__dict__`` would
    build a dict per instance."""

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(tuple(vars(self).values()))
