"""Exception hierarchy shared by all modules.

The CLI exits with each class's exit_status and prefixes its message
with the class's prefix, so raising the right class is part of the
contract, not just diagnostics.
"""


class NCMotivesError(Exception):
    """Base class for all package errors.  The package raises only its
    subclasses; the base carries the internal error's status and prefix."""

    exit_status = 5
    prefix = "internal error"


class ParseInputError(NCMotivesError):
    """An input description file does not parse or is malformed."""

    exit_status = 1
    prefix = "parse error"


class InvariantError(NCMotivesError):
    """Constructor-level invariant violated (bad user data or internal bug)."""

    exit_status = 2
    prefix = "invariant violation"


class CapExceededError(NCMotivesError):
    """A configured size cap (memory guard, enumeration cap) was exceeded."""

    exit_status = 3
    prefix = "cap exceeded"

    def __init__(self, message, needed=None, cap=None):
        super().__init__(message)
        self.needed = needed
        self.cap = cap


class UncertifiedError(NCMotivesError):
    """A result was requested whose soundness certificate is unavailable.

    We refuse rather than emit an uncertified number; the message names
    the missing certificate.
    """

    exit_status = 4
    prefix = "uncertified refusal"
