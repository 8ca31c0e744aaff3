"""Scalar oracles for boost kinematics on the (z, t) plane.

The library applies a boost only as the squeeze of light-cone arguments,
on arrays (`psi_boosted_lightcone`, `pde_residual`). These scalar forms are
the references the tests hold it to: points and their light-cone map, the
boost by cosh/sinh, the squeeze u -> e^eta u, v -> e^-eta v, and the
rapidity of a velocity.
"""

import math
from dataclasses import dataclass, fields

SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class _Point:
    def __post_init__(self) -> None:
        for field in fields(self):
            value = float(getattr(self, field.name))
            if not math.isfinite(value):
                raise ValueError(f"{field.name} must be finite, got {value!r}")
            object.__setattr__(self, field.name, value)


@dataclass(frozen=True)
class SpacetimePoint(_Point):
    """Longitudinal separation z and time separation t."""

    z: float
    t: float


@dataclass(frozen=True)
class LightconePoint(_Point):
    """Light-cone coordinates u = (z + t)/sqrt(2), v = (z - t)/sqrt(2)."""

    u: float
    v: float


def rapidity_from_beta(beta: float) -> float:
    """Rapidity of a velocity, eta = arctanh(beta), via log1p for precision near +-1."""
    b = float(beta)
    if not abs(b) < 1.0:
        raise ValueError(f"velocity must lie inside (-1, 1), got {b!r}")
    return 0.5 * (math.log1p(b) - math.log1p(-b))


def to_lightcone(p: SpacetimePoint) -> LightconePoint:
    return LightconePoint((p.z + p.t) / SQRT2, (p.z - p.t) / SQRT2)


def from_lightcone(p: LightconePoint) -> SpacetimePoint:
    return SpacetimePoint((p.u + p.v) / SQRT2, (p.u - p.v) / SQRT2)


def boost_point(p: SpacetimePoint, eta: float) -> SpacetimePoint:
    """Boost (z, t) by rapidity eta: z' = z cosh + t sinh, t' = z sinh + t cosh."""
    ch, sh = math.cosh(eta), math.sinh(eta)
    return SpacetimePoint(p.z * ch + p.t * sh, p.z * sh + p.t * ch)


def squeeze_lightcone(p: LightconePoint, eta: float) -> LightconePoint:
    """The same boost in light-cone form: u' = e^eta u, v' = e^-eta v."""
    return LightconePoint(math.exp(eta) * p.u, math.exp(-eta) * p.v)
