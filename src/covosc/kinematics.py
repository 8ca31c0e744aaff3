"""Boost kinematics: the validated rapidity and its velocity.

Natural units throughout (c = 1). Boosts act along the longitudinal axis
only. In the light-cone coordinates u = (z + t)/sqrt(2), v = (z - t)/sqrt(2)
a boost by eta is the squeeze u -> e^{eta} u, v -> e^{-eta} v; the
oscillator and analysis modules apply it to arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError

__all__ = [
    "ETA_MAX",
    "SQRT2",
    "Rapidity",
    "beta_from_rapidity",
    "rapidity_value",
]

# e^{2 eta} stays comfortably inside double range up to this cap; accuracy of
# anything involving the contracted axis is gone long before overflow anyway.
ETA_MAX = 50.0

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class Rapidity:
    """Additive boost parameter; the boost velocity is tanh(eta)."""

    eta: float = 0.0

    def __post_init__(self) -> None:
        eta = float(self.eta)
        if not math.isfinite(eta):
            raise DomainError(f"rapidity must be finite, got {eta!r}")
        if abs(eta) > ETA_MAX:
            raise DomainError(f"|eta| = {abs(eta)} exceeds the cap {ETA_MAX}")
        object.__setattr__(self, "eta", eta)


def rapidity_value(eta: Rapidity | float) -> float:
    """Validated float rapidity from a Rapidity instance or a bare number."""
    if isinstance(eta, Rapidity):
        return eta.eta
    return Rapidity(eta).eta


def beta_from_rapidity(eta: Rapidity | float) -> float:
    """Velocity of a rapidity, beta = tanh(eta), clamped strictly inside (-1, 1).

    tanh rounds to +-1.0 in double precision once |eta| exceeds ~19; the clamp
    keeps the result a representable velocity.
    """
    b = math.tanh(rapidity_value(eta))
    if abs(b) >= 1.0:
        b = math.copysign(math.nextafter(1.0, 0.0), b)
    return b
