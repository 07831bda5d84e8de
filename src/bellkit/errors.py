"""Exception types shared across the toolkit."""


class BellKitError(Exception):
    """Base class for all toolkit errors."""


class ValidationError(BellKitError, ValueError):
    """Malformed or inconsistent input."""


class UnknownNameError(ValidationError):
    """Unknown state family or functional name, or a functional that a
    subcommand does not offer."""


class CapacityError(BellKitError):
    """Requested problem size exceeds a configured cap."""


class DegenerateConditionError(BellKitError):
    """Conditioning or normalizing on an (almost) zero probability."""
