"""The paper's closed forms of a boost, a squeeze of the light-cone axes; no numpy.

The rows of boost, overlap (sech^{n+1} of the rapidity difference),
parton-scan (the ground-state widths) and entropy-scan (the thermal spectrum
of the rest of the universe; Kim & Wigner, Phys. Lett. A 147, 343 (1990)).
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .kinematics import SQRT2, Rapidity, beta_from_rapidity, rapidity_value

if TYPE_CHECKING:
    from .oscillator import OscillatorState

__all__ = ["boost_row", "frame_overlap", "ground_widths", "parton_row", "thermal_row"]


def boost_row(eta: Rapidity | float) -> tuple[float, float, float, float, float, float]:
    """(eta, beta, cosh eta, sinh eta, e^eta, e^-eta) of one rapidity."""
    e = rapidity_value(eta)
    return e, beta_from_rapidity(e), math.cosh(e), math.sinh(e), math.exp(e), math.exp(-e)


def ground_widths(eta: float) -> dict[str, float]:
    """Standard deviations of the boosted ground state's |psi|^2, per axis.

    sigma_z = sigma_t = sqrt(cosh(2 eta)/2) = sigma_qz, sigma_u = e^eta/sqrt(2)
    and sigma_v = e^-eta/sqrt(2): one covariant state is both the rest-frame
    bound state and, as sigma_z sigma_qz grows without bound, the free-parton limit.
    """
    sigma_z = math.sqrt(0.5 * math.cosh(2.0 * eta))
    return {"z": sigma_z, "t": sigma_z, "u": math.exp(eta) / SQRT2, "v": math.exp(-eta) / SQRT2}


def parton_row(eta: Rapidity | float) -> tuple[float, float, float, float, float, float, float]:
    """(eta, sigma_u, sigma_v, sigma_z, sigma_qz, aspect, time_dilation) of the ground state.

    aspect = sigma_u / sigma_v = e^{2 eta}; time_dilation = sigma_u(eta) / sigma_u(0) = e^eta.
    """
    e = rapidity_value(eta)
    w = ground_widths(e)
    return e, w["u"], w["v"], w["z"], w["z"], math.exp(2.0 * e), math.exp(e)


def frame_overlap(a: OscillatorState, b: OscillatorState) -> float:
    """Inner product of the (z, t) sectors of two states; reads only n_z and eta.

    A boost conserves n_z - n_t, and n_t = 0 in every state, so
    <psi^m_{eta_1}|psi^n_{eta_2}> = delta_mn sech^{n+1}(eta_2 - eta_1). For
    |eta_2 - eta_1| <= 2 ETA_MAX and n <= 64 it underflows to 0.0 where the
    value leaves double range, and never overflows.
    """
    if a.n_z != b.n_z:
        return 0.0
    return (1.0 / math.cosh(b.eta - a.eta)) ** (a.n_z + 1)


def thermal_row(eta: Rapidity | float) -> tuple[float, float, float, float, float, float]:
    """Exact (eta, entropy, purity, lambda_0, lambda_1, trace) of the reduced ground state.

    Tracing t out leaves the spectrum lambda_k = s^k / (1 + s)^(k+1), s = sinh^2 eta:
    entropy = (1 + s) ln(1 + s) - s ln s, purity = 1/(1 + 2s) = 1/cosh(2 eta),
    lambda_0 = 1/(1 + s), lambda_1 = s/(1 + s)^2, trace 1. Entropy is evaluated
    as log1p(s) + s ln(1 + 1/s), which neither cancels nor overflows up to
    |eta| = ETA_MAX; cosh^2 ln cosh^2 - sinh^2 ln sinh^2 loses 0.87 |eta| digits.
    The returned eta keeps its sign; every other column is even in eta.
    """
    e = rapidity_value(eta)
    s = math.sinh(abs(e)) ** 2
    if s == 0.0:
        occupation_term = 0.0
    elif s < 1.0:
        # 1/s can overflow for subnormal s; ln(1 + s) - ln s does not cancel here
        occupation_term = s * (math.log1p(s) - math.log(s))
    else:
        occupation_term = s * math.log1p(1.0 / s)
    return (e, math.log1p(s) + occupation_term, 1.0 / (1.0 + 2.0 * s),
            1.0 / (1.0 + s), s / (1.0 + s) ** 2, 1.0)
