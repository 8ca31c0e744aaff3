"""Wrong boosts of the wave function, for tests that a check catches them.

Each takes the arguments of covosc.oscillator.psi_boosted_lightcone and can
stand in for it where analysis reads the boosted state.
"""

import math

from covosc.hermite import hermite_function
from covosc.kinematics import SQRT2


def _rest_frame(state, a, b):
    return hermite_function(state.n_z, (a + b) / SQRT2) * hermite_function(0, (a - b) / SQRT2)


def squeeze_both_axes(state, u, v):
    """Both light-cone axes scaled by e^{-eta}."""
    scale = math.exp(-state.eta)
    return _rest_frame(state, scale * u, scale * v)


def boost_backwards(state, u, v):
    """The inverse boost: u -> e^{eta} u and v -> e^{-eta} v."""
    return _rest_frame(state, math.exp(state.eta) * u, math.exp(-state.eta) * v)
