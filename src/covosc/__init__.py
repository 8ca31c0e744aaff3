"""Covariant harmonic-oscillator bound states under Lorentz boosts.

Boost/light-cone kinematics, squeezed oscillator wave functions in
space-time and momentum-energy, verification of the defining differential
equation and normalization, parton-limit observables, and the reduced
density matrix left by tracing out the unobservable time-separation
variable.
"""

from .analysis import (
    FieldGrid,
    GridSpec,
    PartonScanRow,
    PdeResidualReport,
    marginal,
    norm,
    overlap,
    parton_scan,
    pde_residual,
    render_grid,
)
from .errors import (
    CapabilityError,
    ConfigError,
    CovoscError,
    DomainError,
    NumericIntegrityError,
)
from .hermite import QuadratureRule, gauss_hermite, hermite_function
from .kinematics import (
    ETA_MAX,
    Beta,
    LightconePoint,
    Rapidity,
    SpacetimePoint,
    beta_from_rapidity,
    boost_point,
    from_lightcone,
    rapidity_from_beta,
    rapidity_value,
    squeeze_lightcone,
    to_lightcone,
)
from .oscillator import (
    MomentumCoords,
    OscillatorState,
    SeparationCoords,
    momentum_from_constituents,
    psi_boosted,
    psi_boosted_lightcone,
    psi_full,
    separation_from_constituents,
)
from .rest_of_universe import ReducedDensity, entropy, purity, reduce, thermal_row

__version__ = "0.1.0"

__all__ = [
    "Beta",
    "CapabilityError",
    "ConfigError",
    "CovoscError",
    "DomainError",
    "ETA_MAX",
    "FieldGrid",
    "GridSpec",
    "LightconePoint",
    "MomentumCoords",
    "NumericIntegrityError",
    "OscillatorState",
    "PartonScanRow",
    "PdeResidualReport",
    "QuadratureRule",
    "Rapidity",
    "ReducedDensity",
    "SeparationCoords",
    "SpacetimePoint",
    "beta_from_rapidity",
    "boost_point",
    "entropy",
    "from_lightcone",
    "gauss_hermite",
    "hermite_function",
    "marginal",
    "momentum_from_constituents",
    "norm",
    "overlap",
    "parton_scan",
    "pde_residual",
    "psi_boosted",
    "psi_boosted_lightcone",
    "psi_full",
    "purity",
    "rapidity_from_beta",
    "rapidity_value",
    "reduce",
    "render_grid",
    "separation_from_constituents",
    "squeeze_lightcone",
    "thermal_row",
    "to_lightcone",
]
