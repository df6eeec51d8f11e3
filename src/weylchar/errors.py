"""Exception hierarchy shared across the package.

Exit codes used by the CLI: configuration/parse problems map to 2,
capacity limits to 3, and domain errors (bad inputs, refused operations)
to 4.
"""


class WeylcharError(Exception):
    exit_code = 4


class ConfigError(WeylcharError):
    """Invalid configuration: unknown family, rank out of bounds, bad flags.

    `field` names the offending option (e.g. "weight"), when there is one.
    """

    exit_code = 2

    def __init__(self, message, field=None):
        super().__init__(message)
        self.field = field


class CapacityError(WeylcharError):
    """A hard cap would be exceeded (Weyl group order, word count, ...)."""

    exit_code = 3


class DomainError(WeylcharError):
    """Input outside an operation's domain (non-dominant weight, zero root, ...)."""

    exit_code = 4


class StructureError(DomainError):
    """Structural refusal, e.g. operations requiring a simple root system on D2."""


class SingularPointError(DomainError):
    """Regular-point evaluation requested at a singular torus point."""


class SnapError(DomainError):
    """A floating torus point near a singular stratum could not be rationalized."""


class PrecisionError(DomainError):
    """No value within the precision gate, and the dimension is above the oracle's cap."""
