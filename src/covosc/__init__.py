"""Covariant harmonic-oscillator bound states under Lorentz boosts.

Validated rapidities, the boosted oscillator wave function (a squeeze of
its light-cone arguments, one function for space-time and
momentum-energy), verification of the defining differential equation and
normalization, the paper's closed forms (closed_forms: overlaps, parton
widths and the thermal spectrum of the reduced density), and the grid
reduced density left by tracing out the time-separation variable.
"""

from .analysis import (
    FieldGrid,
    GridSpec,
    PdeResidualReport,
    marginal,
    norm,
    overlap,
    pde_residual,
    render_grid,
)
from .closed_forms import thermal_row
from .errors import (
    CapabilityError,
    ConfigError,
    CovoscError,
    DomainError,
    NumericIntegrityError,
)
from .hermite import QuadratureRule, gauss_hermite, hermite_function
from .kinematics import ETA_MAX, Rapidity, beta_from_rapidity, rapidity_value
from .oscillator import OscillatorState, psi_boosted, psi_boosted_lightcone
from .rest_of_universe import ReducedDensity, entropy, purity, reduce

__version__ = "0.1.0"

__all__ = [
    "CapabilityError",
    "ConfigError",
    "CovoscError",
    "DomainError",
    "ETA_MAX",
    "FieldGrid",
    "GridSpec",
    "NumericIntegrityError",
    "OscillatorState",
    "PdeResidualReport",
    "QuadratureRule",
    "Rapidity",
    "ReducedDensity",
    "beta_from_rapidity",
    "entropy",
    "gauss_hermite",
    "hermite_function",
    "marginal",
    "norm",
    "overlap",
    "pde_residual",
    "psi_boosted",
    "psi_boosted_lightcone",
    "purity",
    "rapidity_value",
    "reduce",
    "render_grid",
    "thermal_row",
]
