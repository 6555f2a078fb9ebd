"""Tandem line description shared by every other module.

A line consists of servers 0..K in series. The buffer in front of server 0
is infinite (its content is the unbounded "level" coordinate of the
analysis, not configuration data), so only the K finite buffers between
consecutive servers are stored.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    EmptySystemError,
    InputError,
    LengthMismatchError,
    NegativeBufferError,
    NonPositiveRateError,
)

CONFIG_KEYS = ("service_rates", "buffer_capacities")


@dataclass(frozen=True)
class TandemConfig:
    """A validated tandem line: K+1 service rates and K buffer capacities.

    Immutable after validation; safe to share across threads. Construct via
    :func:`validate_config` rather than directly, so the invariants hold.
    """

    service_rates: tuple[float, ...]
    buffer_capacities: tuple[int, ...]

    @property
    def num_servers(self) -> int:
        return len(self.service_rates)

    @property
    def num_buffers(self) -> int:
        """Number of finite interior buffers (the phase length)."""
        return len(self.buffer_capacities)


def as_float(raw: object, name: str, error: type[InputError] = InputError) -> float:
    """``raw`` as a float: a number that ``float()`` converts. A bool (a
    numpy one too), a string, None and an integer beyond the float range
    raise ``error``."""
    try:
        if isinstance(raw, (bool, np.bool_, str, bytes, bytearray)):
            raise TypeError
        return float(raw)
    except OverflowError:
        raise error(f"{name} is beyond the float range") from None
    except (TypeError, ValueError):
        raise error(f"{name} must be a number, got {raw!r}") from None


def as_int(raw: object, name: str) -> int:
    """``raw`` as an int: an integer, not a bool, a float or a string."""
    try:
        if isinstance(raw, bool):
            raise TypeError
        return operator.index(raw)
    except TypeError:
        raise InputError(f"{name} must be an integer, got {raw!r}") from None


def validate_config(
    raw_rates: Sequence[float], raw_buffers: Sequence[int]
) -> TandemConfig:
    """Check raw rate/buffer sequences and freeze them into a TandemConfig.

    Rejection is total: every violation raises, nothing is clamped or
    parsed. A rate is a number that ``float()`` converts, so a bool (a
    numpy one too), a string, None and an integer beyond the float range
    are refused; a buffer capacity is an integer, not a bool.
    Validating the fields of an already-valid config returns an equal config.
    """
    rates, total = [], 0.0
    for i, raw in enumerate(raw_rates):
        r = as_float(raw, f"service rate {i}", NonPositiveRateError)
        if not (math.isfinite(r) and r > 0.0):
            raise NonPositiveRateError(
                f"service rate {i} must be a positive finite number, got {r!r}"
            )
        rates.append(r)
        total += r
    if not rates:
        raise EmptySystemError("a tandem line needs at least one server")
    # a phase's exit rate sums some of the rates in this order, so it stays
    # finite too
    if math.isinf(total):
        raise NonPositiveRateError("the service rates sum past the largest double")
    buffers = [as_int(raw, f"buffer {i}") for i, raw in enumerate(raw_buffers)]
    if len(rates) != len(buffers) + 1:
        raise LengthMismatchError(
            f"{len(rates)} service rates require {len(rates) - 1} buffer "
            f"capacities, got {len(buffers)}"
        )
    for i, b in enumerate(buffers):
        if b < 0:
            raise NegativeBufferError(f"buffer {i} has negative capacity {b}")
    return TandemConfig(service_rates=tuple(rates), buffer_capacities=tuple(buffers))


def config_from_document(obj: object) -> TandemConfig:
    """Build a config from a parsed JSON document.

    The document is an object with exactly the keys "service_rates" (array
    of numbers, length K+1) and "buffer_capacities" (array of integers,
    length K).
    """
    if not isinstance(obj, dict):
        raise InputError("config document must be a JSON object")
    missing = [k for k in CONFIG_KEYS if k not in obj]
    if missing:
        raise InputError(f"config document missing keys: {', '.join(missing)}")
    unknown = [k for k in obj if k not in CONFIG_KEYS]
    if unknown:
        raise InputError(f"config document has unknown keys: {', '.join(unknown)}")
    rates = obj["service_rates"]
    buffers = obj["buffer_capacities"]
    if not isinstance(rates, list) or not isinstance(buffers, list):
        raise InputError("service_rates and buffer_capacities must be arrays")
    return validate_config(rates, buffers)


def load_config_file(path: str) -> TandemConfig:
    """Read and validate a config document from a JSON file.

    A path that cannot be opened or read, a file that is not UTF-8 and one
    that is not JSON all raise InputError naming the path.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read config file {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"config file {path} is not UTF-8: {exc.reason}") from exc
    except ValueError as exc:  # JSONDecodeError, or an integer too long to parse
        raise InputError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_document(obj)
