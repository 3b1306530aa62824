"""Exception types shared across the package."""


class LedasigError(Exception):
    """Base class for all package errors."""


class DimensionError(LedasigError):
    """Operands have incompatible sizes or moduli."""


class NotInvertible(LedasigError):
    """Polynomial has no inverse modulo x^p + 1."""


class Singular(LedasigError):
    """Dense binary matrix is singular."""


class FormatError(LedasigError):
    """Serialized object is malformed or truncated."""


class IntegrityError(FormatError):
    """Stored key material does not match its seed expansion.

    A FormatError, so every decoder fails with FormatError alone.
    """


class RetryExhausted(LedasigError):
    """Random codeword generation failed to reach the weight window."""


class ThetaExhausted(LedasigError):
    """No salt value passed the syndrome kernel test within the cap."""
