"""Exception taxonomy shared across the package.

Three kinds of failure, matching the CLI exit-code contract:

* bad input or violated precondition  -> SpecError          (exit 2)
* graph checked and found disconnected -> NotConnectedError (exit 1)
* "cannot happen" contradiction        -> InvariantViolation (exit 3)

Checked-and-false outcomes (a graph that is simply not distance-regular,
a partition that is not a Schur ring, a non-empty classification diff)
are ordinary return values, not exceptions.
"""

from typing import Optional


class SpecError(ValueError):
    """Malformed input or violated operation precondition."""


class NotConnectedError(SpecError):
    """The connection set does not generate the group."""


class PrecisionError(SpecError):
    """Numeric separation below the safety gate; raise precision and retry."""


class InvariantViolation(RuntimeError):
    """An internal invariant failed; indicates a bug, never bad input.

    `witness`, when given, is a JSON-ready dict of the data that shows the
    failure; the CLI puts it into its JSON error payload.
    """

    def __init__(self, message: str, witness: Optional[dict] = None):
        super().__init__(message)
        self.witness = witness
