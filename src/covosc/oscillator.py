"""Covariant oscillator wave functions of the two-quark separation variable.

A state carries a longitudinal excitation number and a rapidity. The
time-separation coordinate has no excitation number at all:
its factor is frozen in the Gaussian ground state, which is what keeps every
boosted wave function normalizable. Normalization constants are kept
everywhere, so squared wave functions integrate to one in any frame.

A boost along z acts on the wave function's light-cone arguments as
u -> u e^{-eta}, v -> v e^{eta}: one axis stretches while the other
contracts, with unit Jacobian.

The momentum-energy wave function needs no second implementation: the
Fourier kernel q_z z - q_0 t is boost invariant and the transform of h_n is
(-i)^n h_n, so phi(q_z, q_0) = (-i)^{n_z} psi_boosted(state, q_z, q_0) for
every state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import CapabilityError, DomainError
from .hermite import DEGREE_MAX, hermite_function
from .kinematics import SQRT2, rapidity_value

__all__ = [
    "OscillatorState",
    "psi_boosted",
    "psi_boosted_lightcone",
]


@dataclass(frozen=True)
class OscillatorState:
    """Longitudinal excitation n_z and rapidity eta of one bound-state wave function.

    There is deliberately no time-like quantum number: the t factor is the
    fixed Gaussian ground state for every state this type can express.
    """

    n_z: int = 0
    eta: float = 0.0

    def __post_init__(self) -> None:
        n_z = self.n_z
        if n_z != int(n_z):
            raise DomainError(f"n_z must be an integer, got {n_z!r}")
        n_z = int(n_z)
        if n_z < 0:
            raise DomainError(f"n_z must be >= 0, got {n_z}")
        if n_z > DEGREE_MAX:
            raise CapabilityError(f"n_z = {n_z} exceeds the cap {DEGREE_MAX}")
        object.__setattr__(self, "n_z", n_z)
        object.__setattr__(self, "eta", rapidity_value(self.eta))


def psi_boosted(state: OscillatorState, z, t):
    """Boosted wave function: the rest-frame function of the de-squeezed arguments.

    With u = (z + t)/sqrt(2) and v = (z - t)/sqrt(2), the arguments are
    replaced by u e^{-eta} and v e^{eta}. For n_z = 0 this is the closed form

        (1/sqrt(pi)) exp(-(e^{-2 eta}(z + t)^2 + e^{2 eta}(z - t)^2) / 4).
    """
    if state.eta == 0.0:
        # identity boost: same digits as the rest-frame evaluation
        return hermite_function(state.n_z, z) * hermite_function(0, t)
    return psi_boosted_lightcone(state, (z + t) / SQRT2, (z - t) / SQRT2)


def psi_boosted_lightcone(state: OscillatorState, u, v):
    """psi_boosted as a function of the light-cone arguments u, v."""
    a = math.exp(-state.eta) * u
    b = math.exp(state.eta) * v
    z_rest = (a + b) / SQRT2
    t_rest = (a - b) / SQRT2
    return hermite_function(state.n_z, z_rest) * hermite_function(0, t_rest)

