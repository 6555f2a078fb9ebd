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


def validate_config(
    raw_rates: Sequence[float], raw_buffers: Sequence[int]
) -> TandemConfig:
    """Check raw rate/buffer sequences and freeze them into a TandemConfig.

    Rejection is total: every violation raises, nothing is clamped.
    Validating the fields of an already-valid config returns an equal config.
    """
    rates = tuple(float(r) for r in raw_rates)
    if not rates:
        raise EmptySystemError("a tandem line needs at least one server")
    total = 0.0
    for i, r in enumerate(rates):
        if not (math.isfinite(r) and r > 0.0):
            raise NonPositiveRateError(
                f"service rate {i} must be a positive finite number, got {r!r}"
            )
        total += r
    # a phase's exit rate sums some of the rates in this order, so it stays
    # finite too
    if math.isinf(total):
        raise NonPositiveRateError("the service rates sum past the largest double")
    try:
        buffers = tuple(operator.index(b) for b in raw_buffers)
    except TypeError:
        raise InputError("buffer capacities must be integers") from None
    if len(rates) != len(buffers) + 1:
        raise LengthMismatchError(
            f"{len(rates)} service rates require {len(rates) - 1} buffer "
            f"capacities, got {len(buffers)}"
        )
    for i, b in enumerate(buffers):
        if b < 0:
            raise NegativeBufferError(f"buffer capacity {i} is negative: {b}")
    return TandemConfig(service_rates=rates, buffer_capacities=buffers)


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
    for b in buffers:
        if isinstance(b, bool) or not isinstance(b, int):
            raise InputError(f"buffer capacities must be integers, got {b!r}")
    return validate_config(rates, buffers)


def load_config_file(path: str) -> TandemConfig:
    """Read and validate a config document from a JSON file."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(f"config file {path} is not valid JSON: {exc}") from exc
    return config_from_document(obj)
