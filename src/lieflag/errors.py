"""Domain error hierarchy shared by all modules.

Every error raised on bad mathematical input derives from DomainError so
the CLI can map them to a single exit code; the class name itself is the
stable, user-visible error tag.  Messages quote a caller's value through
``shown``.
"""

from collections.abc import Mapping
from operator import index


class DomainError(Exception):
    pass


class InvalidRank(DomainError):
    pass


class EmptyMarking(DomainError):
    pass


class NodeOutOfRange(DomainError):
    pass


class NotMaximalParabolic(DomainError):
    pass


class NonDominantWeight(DomainError):
    pass


class UnsupportedWeight(DomainError):
    pass


class ArityMismatch(DomainError):
    pass


class ZeroClass(DomainError):
    pass


class InvalidGroup(DomainError):
    pass


class InvalidDimension(DomainError):
    pass


class UnknownVariety(DomainError):
    pass


class ParameterViolation(DomainError):
    pass


class DatabaseFormatError(DomainError):
    pass


class AnswerTooLong(DomainError):
    pass


def shown(value) -> str:
    """repr of a caller's value for an error message.

    An integer with more digits than ``str`` converts (4,300 by default)
    is given by its size instead, so building the message cannot raise.
    """
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            sign = "negative " if value < 0 else ""
            return f"<{sign}integer of ~{value.bit_length() * 30103 // 100000} digits>"
        return f"<{type(value).__name__} holding an over-long integer>"


def integer(value, what: str, error: type[DomainError]) -> int:
    """``operator.index(value)``; anything that is not an integer raises
    ``error("<what> must be an integer, got <value>")``."""
    try:
        return index(value)
    except TypeError:
        raise error(f"{what} must be an integer, got {shown(value)}") from None


def mapping(value, what: str, error: type[DomainError]) -> Mapping:
    """``value`` when it is a mapping; anything else raises
    ``error("<what> must be a mapping, got <type name>")``."""
    if type(value) is dict or isinstance(value, Mapping):
        return value
    raise error(f"{what} must be a mapping, got {type(value).__name__}")
