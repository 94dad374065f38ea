"""Exception types shared across the toolkit."""


class OmdpError(Exception):
    """Base class for all toolkit errors."""


class ParameterError(OmdpError):
    """A parameter violates its documented domain."""


class SingularSystemError(OmdpError):
    """The response system is numerically singular."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class TransductionAbsentError(OmdpError):
    """No mechanical transduction path: the output carries no signal."""


class StructureViolationError(OmdpError):
    """A quantity expected to follow p/g^2 + q*g^2 + r does not."""


class UsageError(OmdpError):
    """Bad command-line or config input."""
