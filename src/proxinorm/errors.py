"""Exception hierarchy.

Two families matter for the CLI exit codes: hypothesis/precondition/input
problems (exit 1) and budget exhaustion (exit 2).
"""


class ProxinormError(Exception):
    """Base class for all package errors."""


class HypothesisError(ProxinormError):
    """A mathematical hypothesis required by a construction is violated
    (e.g. a probe vector pairs to exactly zero with the base point)."""


class PreconditionError(ProxinormError):
    """An operation was called outside its stated contract."""


class InputFormatError(ProxinormError):
    """Malformed serialized input; the message names the offending field."""


class BudgetError(ProxinormError):
    """Base class for resource-budget exhaustion."""


class DepthBudgetError(BudgetError):
    """The construction table would need to extend past its depth budget."""


class EliminationBudgetError(BudgetError):
    """Fourier-Motzkin elimination exceeded its row budget."""


class PrecisionBudgetError(BudgetError):
    """An interval at its fixed precision contains 0, so no sign is certified."""


class SearchBudgetError(BudgetError):
    """A search (descent direction, line search) exhausted its budget.

    Never interpreted as a disproof of existence."""
