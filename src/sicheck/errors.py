"""Exception hierarchy shared by all sicheck modules."""


class SicheckError(Exception):
    """Base class for all sicheck-specific errors."""


class FormatError(SicheckError):
    """The history file is syntactically or structurally malformed."""


class ReservedValueError(FormatError):
    """A write carries value 0, which is reserved for the initial state."""


class UniqueValueError(FormatError):
    """Two writes to the same key carry the same value."""


class DanglingReadError(SicheckError):
    """A committed read returns a nonzero value that no write produced.

    This signals a broken trace, not an isolation anomaly.
    """


class LimitExceededError(SicheckError):
    """The instance is too large for an exhaustive procedure."""


class BudgetExceededError(SicheckError):
    """A configured time budget ran out before completion."""


class UnsupportedShapeError(SicheckError):
    """The host history is too small to receive an anomaly template."""


class MissingSupportError(SicheckError):
    """An RW dependency has no supporting writer; internal corruption."""
