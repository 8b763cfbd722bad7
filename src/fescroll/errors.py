"""Exception hierarchy shared by all engine modules, and the exact division
behind sym_chi's division by 12 and chi_tangent's division by 24.

The CLI maps these to exit codes: invalid parameters exit 1, unsatisfied
theorem hypotheses exit 2, internal consistency failures exit 3.
"""

from __future__ import annotations


class ParameterError(ValueError):
    """A parameter violates one of the validation inequalities.

    ``reason`` is a stable machine-readable tag; the message names the
    violated inequality with the offending values.
    """

    def __init__(self, reason: str, message: str) -> None:
        super().__init__(message)
        self.reason = reason


class HypothesesError(RuntimeError):
    """A theorem-gated operation was called outside its vanishing regime."""

    def __init__(self, failing: list[str]) -> None:
        super().__init__("hypotheses not satisfied: " + ", ".join(failing))
        self.failing = list(failing)


class ConsistencyError(RuntimeError):
    """Two independent computation routes disagreed.

    The message names the violated identity.  Reaching this state means a
    formula was transcribed wrongly somewhere; it is never a user error.
    """


def exact_div(x: int, k: int, what: str) -> int:
    """x / k for an integer quantity ``what``; a remainder raises ConsistencyError."""
    quotient, remainder = divmod(x, k)
    if remainder:
        raise ConsistencyError(f"{what} not an integer: {x}/{k}")
    return quotient
