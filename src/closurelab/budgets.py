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


@dataclass(frozen=True)
class Budget:
    """The manifest ``budgets`` section, with its defaults."""

    max_group_exponent: int = 24  # largest n for dense 2^n work
    witness_budget: int = 2**24  # most elements of one subspace, product or bitmap enumeration
    max_samples: int = 10**8  # most Monte Carlo samples one estimate draws


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


def check_enumeration(count: int, limit: int | None = None) -> None:
    """Refuse enumerating ``count`` elements above ``limit``, by default the
    active ``witness_budget``."""
    limit = _ACTIVE.get().witness_budget if limit is None else limit
    if count > limit:
        raise BudgetExceeded(f"enumeration of {count} elements exceeds budget {limit}")
