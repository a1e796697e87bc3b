"""Shared exception types, the immutable value base, the global state-cap setting,
and the input file readers."""

import json
import os
from operator import index

DEFAULT_STATE_CAP = 10**7
_CAP_ENV = "MINUSCULE_STATE_CAP"


class ParameterError(ValueError):
    """A caller-supplied parameter is out of range or inconsistent."""


class UnsupportedPosetError(ValueError):
    """The operation is only defined for the built-in minuscule families."""


class StateCapExceeded(RuntimeError):
    """An exhaustive traversal would exceed the configured state cap."""

    def __init__(self, message: str, cap: int):
        super().__init__(f"{message} (state cap: {cap})")
        self.cap = cap


class ExactnessError(ArithmeticError):
    """An exact polynomial division left a nonzero remainder."""


class _Frozen:
    """Base of the value types whose slots are set once, at construction.

    Assignment raises, so an object shared through a cache cannot be changed
    under its other holders.  Constructors write through `_set`; pickle and
    copy restore the slots through `__setstate__`, since they would
    otherwise call the refusing `__setattr__`.
    """

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} objects are immutable")

    def _set(self, **slots) -> None:
        for name, value in slots.items():
            object.__setattr__(self, name, value)

    def __setstate__(self, state):
        self._set(**state[1])


def _integer(value) -> int:
    # An exact integer or an error: floats and booleans are refused, never converted.
    if type(value) is int:
        return value
    try:
        if not isinstance(value, bool):
            return index(value)
    except TypeError:
        pass
    raise ParameterError(f"expected an integer, got {value!r}")


def state_cap(override: int | None = None) -> int:
    """Effective state cap: explicit override, else the environment, else the default."""
    if override is not None:
        override = _integer(override)
        if override < 1:
            raise ParameterError("state cap must be positive")
        return override
    env = os.environ.get(_CAP_ENV)
    if env:
        try:
            cap = int(env)
        except ValueError as exc:
            raise ParameterError(f"{_CAP_ENV} must be an integer, got {env!r}") from exc
        if cap < 1:
            raise ParameterError(f"{_CAP_ENV} must be positive")
        return cap
    return DEFAULT_STATE_CAP


def read_input(source, convert, what: str):
    """convert(the bytes of source, a path or package resource); a file that cannot be
    read or converted is bad input whose message names it."""
    try:
        return convert(source.read_bytes())
    except KeyError as exc:
        raise ParameterError(f"bad {what} file {source}: no field {exc}") from exc
    except (OSError, ValueError, TypeError, RecursionError) as exc:  # RecursionError: nesting too deep
        raise ParameterError(f"bad {what} file {source}: {exc}") from exc


def read_json(source, convert, what: str):
    """convert(the JSON in source), read through read_input."""
    return read_input(source, lambda data: convert(json.loads(data.decode("utf-8"))), what)
