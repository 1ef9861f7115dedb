"""Error types shared across the engines.

Every engine error carries a stable machine-readable ``code``, its class name,
and an optional ``payload`` dict so front ends can serialize failures as JSON.
"""

from __future__ import annotations

import math


def _strict(value):
    """The payload value with every non-finite float, also inside a list,
    replaced by None, which JSON can hold."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


class EngineError(Exception):
    """Base class for all engine failures."""

    code = "EngineError"

    def __init_subclass__(cls):
        cls.code = cls.__name__

    def __init__(self, message: str, **payload):
        super().__init__(message)
        self.message = message
        self.payload = dict(payload)

    def to_json(self) -> dict:
        out = {"error": self.code, "message": self.message}
        if self.payload:
            out["payload"] = {k: _strict(v) for k, v in self.payload.items()}
        return out


class DimensionMismatch(EngineError):
    pass


class AxisOutOfRange(EngineError):
    pass


class DegreeOutOfRange(EngineError):
    pass


class IndexOutOfRange(EngineError):
    pass


class BadTruncation(EngineError):
    pass


class TruncationTooSmall(EngineError):
    pass


class ResonantDivisor(EngineError):
    pass


class DegenerateEigenvalue(EngineError):
    pass


class UnsupportedKappa(EngineError):
    pass


class UnsupportedOrder(EngineError):
    pass


class OrderTooHigh(EngineError):
    pass


class DomainExceeded(EngineError):
    pass


class PoleOnRay(EngineError):
    pass


class InsufficientCoefficients(EngineError):
    pass


class NotConverged(EngineError):
    pass


class NoConvergence(EngineError):
    pass


class HypothesisViolation(EngineError):
    pass


class GradientProviderFailure(EngineError):
    pass


class ModelFormatError(EngineError):
    pass
