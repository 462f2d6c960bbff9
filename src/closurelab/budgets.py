"""Compute budgets and error types shared across the package.

All desk-scale guards live here.  One :class:`Budget` holds the three
limits a manifest's ``budgets`` section may set; it is the only override.
``closurelab.cli.run`` makes the manifest's budget active for the length
of a command with :func:`using`, and the library reads the active one.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

DEFAULT_ENUMERATION_BUDGET = 2**24


class ClosureLabError(Exception):
    """Base class for all library errors."""


class DimensionMismatch(ClosureLabError):
    """Operands live in different ambient spaces."""


class BudgetExceeded(ClosureLabError):
    """A desk-scale guard refused the computation."""


class DensityTooLow(ClosureLabError):
    """An input set is below the density its caller promised."""


class VerificationFailure(ClosureLabError):
    """A theorem-backed internal check failed; indicates a bug, not data."""


class IntegerOverflowGuard(ClosureLabError):
    """Exact integer arithmetic would not fit the fast signed-64 path."""


@dataclass(frozen=True)
class Budget:
    """The manifest ``budgets`` section, with its defaults."""

    max_group_exponent: int = 24  # largest n for dense 2^n work
    witness_budget: int = 2**24  # largest SumsetReach array, low-rank or degeneracy bitmap
    max_samples: int = 10**8  # most Monte Carlo samples a command may ask for


_ACTIVE: ContextVar[Budget] = ContextVar("closurelab_budget", default=Budget())


def active() -> Budget:
    return _ACTIVE.get()


@contextmanager
def using(budget: Budget) -> Iterator[Budget]:
    """Make ``budget`` the active one; the previous one returns on exit."""
    token = _ACTIVE.set(budget)
    try:
        yield budget
    finally:
        _ACTIVE.reset(token)


def check_group_exponent(n: int) -> None:
    cap = _ACTIVE.get().max_group_exponent
    if n > cap:
        raise BudgetExceeded(f"group exponent {n} exceeds budget {cap}")


def check_enumeration(count: int, limit: int = DEFAULT_ENUMERATION_BUDGET) -> None:
    if count > limit:
        raise BudgetExceeded(f"enumeration of {count} elements exceeds budget {limit}")
