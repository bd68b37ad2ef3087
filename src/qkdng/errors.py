"""Exception types shared across the package, and the range and choice checks that raise them."""

import math
from enum import Enum


class DomainError(ValueError):
    """An argument lies outside the domain an operation is defined on."""


class ConfigurationError(ValueError):
    """Mutually incompatible or unsupported settings were combined."""


def check_range(
    what: str, value: float, lo: float, hi: float = math.inf, *, open_lo: bool = False
) -> float:
    """Return ``value`` as a float if it is finite and lies in [lo, hi].

    ``open_lo`` excludes ``lo`` itself.  NaN and infinities always fail,
    since every comparison with NaN is False and no physical input here is
    unbounded.

    Raises:
        DomainError: ``value`` is not a number, not finite or outside the range.
    """
    try:
        value = float(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(f"{what} must be a number, got {value!r}") from None
    above_lo = value > lo if open_lo else value >= lo
    if not (math.isfinite(value) and above_lo and value <= hi):
        interval = f"{'(' if open_lo else '['}{lo:g}, {hi:g}{']' if hi < math.inf else ')'}"
        raise DomainError(f"{what} must be finite and lie in {interval}, got {value!r}")
    return value


def check_choice(what: str, choices: type[Enum], value) -> Enum:
    """Return ``value`` as the member of the enum ``choices`` it is or names.

    Raises:
        DomainError: ``value`` is no member's value; the message lists the allowed values.
    """
    try:
        return choices(value)
    except ValueError:
        allowed = ", ".join(member.value for member in choices)
        raise DomainError(f"{what} must be one of {allowed}, got {value!r}") from None
