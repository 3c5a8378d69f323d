"""Drive bookkeeping and steady-state cooling dynamics.

Covers the parametric coupling rate, sideband scattering rates, total
mechanical linewidth, the final occupancy to first and second order in
1/omega_m, photon-number/power conversions and the thermal storage time.
A drive is its detuning and its intracavity photon number n_d, as the
paper gives every drive.  Everything is a pure function of immutable
inputs; only the red-detuned steady state is modeled (no transients).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import HBAR
from .device import Cavity, Coupling, DeviceParams, MechanicalMode, bose_occupancy, zero_point_motion
from .errors import ParametricInstabilityError, _require


@dataclass(frozen=True)
class DriveConfig:
    """A coherent microwave drive: its detuning from the cavity and the
    intracavity photon number n_d it holds.

    The drive frequency is omega_d = omega_c + detuning; the functions that
    need it take the cavity and compute it.
    """

    detuning: float  # Delta = omega_d - omega_c (rad/s)
    n_d: float

    def __post_init__(self) -> None:
        _require("detuning", self.detuning)
        _require("n_d", self.n_d, ge=0)

    @classmethod
    def red_detuned(cls, device: DeviceParams, *, n_d: float) -> "DriveConfig":
        """Optimally red-detuned drive, Delta = -omega_m (delta_tilde = 0)."""
        return cls(detuning=-device.mech.omega_m, n_d=n_d)


@dataclass(frozen=True)
class ThermalState:
    """The thermal occupancies of the mechanical mode and the cavity, in
    quanta; `from_temperature` takes the mode's from a bath temperature."""

    n_m_T: float
    n_c: float = 0.0

    def __post_init__(self) -> None:
        _require("n_m_T", self.n_m_T, ge=0)
        _require("n_c", self.n_c, ge=0)

    @classmethod
    def from_temperature(cls, temperature: float, mech: MechanicalMode, n_c: float = 0.0) -> "ThermalState":
        return cls(n_m_T=bose_occupancy(temperature, mech.omega_m), n_c=n_c)


@dataclass(frozen=True)
class CoolingPoint:
    """One operating point of a drive-power sweep."""

    n_d: float
    g: float
    gamma_opt: float
    gamma_total: float
    n_m: float
    n_c: float

    def __post_init__(self) -> None:
        for name in ("n_d", "g", "n_m", "n_c"):
            _require(name, getattr(self, name), ge=0)
        _require("gamma_opt", self.gamma_opt)
        if self.gamma_total <= 0.0:
            raise ParametricInstabilityError("gamma_total must be > 0 in a cooling point")
        _require("gamma_total", self.gamma_total, gt=0)


def coupling_rate(coupling: Coupling, mech: MechanicalMode, n_d: float) -> float:
    """Drive-enhanced coupling g = G * x_zp * sqrt(n_d) in rad/s."""
    _require("n_d", n_d, ge=0)
    return coupling.G * zero_point_motion(mech) * math.sqrt(n_d)


def sideband_rates(g: float, kappa: float, detuning: float, omega_m: float) -> tuple[float, float, float]:
    """Photon scattering rates into the upper/lower sidebands and their difference.

    Gamma_pm = 4 g^2 kappa / (kappa^2 + 4 (Delta +- omega_m)^2); the net
    radiation-pressure damping is Gamma = Gamma_plus - Gamma_minus, positive
    for red detuning.
    """
    _require("g", g, ge=0)
    _require("kappa", kappa, gt=0)
    _require("detuning", detuning)
    _require("omega_m", omega_m, gt=0)
    four_g2_kappa = 4.0 * g * g * kappa
    gamma_plus = four_g2_kappa / (kappa * kappa + 4.0 * (detuning + omega_m) ** 2)
    gamma_minus = four_g2_kappa / (kappa * kappa + 4.0 * (detuning - omega_m) ** 2)
    return gamma_plus, gamma_minus, gamma_plus - gamma_minus


def total_linewidth(gamma_m: float, gamma_opt: float) -> float:
    """Total mechanical dissipation Gamma_m' = Gamma_m + Gamma.

    Raises ParametricInstabilityError when anti-damping cancels or exceeds
    the intrinsic rate (Gamma_m' <= 0).
    """
    _require("gamma_m", gamma_m, gt=0)
    _require("gamma_opt", gamma_opt)
    total = gamma_m + gamma_opt
    if total <= 0.0:
        raise ParametricInstabilityError(
            f"total linewidth {total!r} <= 0: drive anti-damping exceeds intrinsic damping"
        )
    return total


def final_occupancy(state: ThermalState, g: float, kappa: float, gamma_m: float) -> float:
    """Steady-state occupancy of the cooled mode at optimal detuning.

    n_m = n_m^T (Gamma_m/kappa)(4g^2+kappa^2)/(4g^2+kappa Gamma_m)
        + n_c 4g^2/(4g^2+kappa Gamma_m)

    Valid deep in the resolved-sideband regime; returns n_m^T at g=0 and
    approaches n_m^T Gamma_m/kappa + n_c as g -> infinity.
    """
    _require("g", g, ge=0)
    _require("kappa", kappa, gt=0)
    _require("gamma_m", gamma_m, gt=0)
    four_g2 = 4.0 * g * g
    denom = four_g2 + kappa * gamma_m
    mech_term = state.n_m_T * (gamma_m / kappa) * (four_g2 + kappa * kappa) / denom
    cavity_term = state.n_c * four_g2 / denom
    return mech_term + cavity_term


def final_occupancy_gradient(state: ThermalState, g: float, kappa: float, gamma_m: float) -> dict[str, float]:
    """Partial derivatives of `final_occupancy` in n_m_T, n_c, g, kappa and gamma_m.

    With s = 4g^2 and Q = s + kappa Gamma_m:
    d n_m/d g = 8g [n_m^T Gamma_m (Gamma_m - kappa) + n_c kappa Gamma_m] / Q^2.
    """
    _require("g", g, ge=0)
    _require("kappa", kappa, gt=0)
    _require("gamma_m", gamma_m, gt=0)
    s = 4.0 * g * g
    q = s + kappa * gamma_m
    per_bath = gamma_m * (s + kappa * kappa) / (kappa * q)  # n_m per n_m^T
    return {
        "n_m_T": per_bath,
        "n_c": s / q,
        "g": 8.0 * g * (state.n_m_T * gamma_m * (gamma_m - kappa) + state.n_c * kappa * gamma_m) / (q * q),
        "kappa": state.n_m_T * per_bath * (2.0 * kappa / (s + kappa * kappa) - 1.0 / kappa - gamma_m / q)
        - state.n_c * s * gamma_m / (q * q),
        "gamma_m": (state.n_m_T * (s + kappa * kappa) / kappa - state.n_c * kappa) * s / (q * q),
    }


def final_occupancy_2nd_order(
    state: ThermalState, g: float, kappa: float, gamma_m: float, omega_m: float
) -> float:
    """Final occupancy including the second-order sideband-resolution terms.

    Adds the O(g^2/omega_m^2, kappa^2/omega_m^2) corrections to
    `final_occupancy`; the residual-heating term (8g^2+kappa^2)/(16 omega_m^2)
    is always included.  Reduces to the first-order result as omega_m -> inf.
    """
    _require("omega_m", omega_m, gt=0)
    first = final_occupancy(state, g, kappa, gamma_m)
    four_g2 = 4.0 * g * g
    om2 = omega_m * omega_m
    # Bracket corrections, expanded so the n_c term stays finite at g=0.
    mech_corr = state.n_m_T * (gamma_m / kappa) * (g * g / om2)
    cavity_corr = state.n_c * (8.0 * g * g + kappa * kappa) / (8.0 * om2)
    floor_term = (8.0 * g * g + kappa * kappa) / (16.0 * om2)
    return first + mech_corr + cavity_corr + floor_term


def intracavity_photons(power_in: float, drive: DriveConfig, cavity: Cavity) -> float:
    """Photons stored in the cavity by a coherent drive of power `power_in` (W).

    n_d = (2 P_i / hbar omega_d) * kappa_ex / (kappa^2 + 4 Delta^2), with the
    drive at omega_d = omega_c + Delta; the drive's own n_d is not read.
    """
    _require("power_in", power_in, ge=0)
    kappa = cavity.kappa
    return (2.0 * power_in / (HBAR * (cavity.omega_c + drive.detuning))) * cavity.kappa_ex / (
        kappa * kappa + 4.0 * drive.detuning**2
    )


def drive_power_for_photons(n_d: float, drive: DriveConfig, cavity: Cavity) -> float:
    """Input power (W) required to hold `n_d` photons; inverse of intracavity_photons."""
    _require("n_d", n_d, ge=0)
    kappa = cavity.kappa
    omega_d = cavity.omega_c + drive.detuning
    return n_d * HBAR * omega_d * (kappa * kappa + 4.0 * drive.detuning**2) / (2.0 * cavity.kappa_ex)


def transmitted_power(power_in: float, cavity: Cavity, detuning: float) -> float:
    """Power past the cavity, P_o = P_i (kappa_0^2+4 Delta^2)/(kappa^2+4 Delta^2)."""
    _require("power_in", power_in, ge=0)
    _require("detuning", detuning)
    kappa = cavity.kappa
    four_d2 = 4.0 * detuning * detuning
    return power_in * (cavity.kappa_0**2 + four_d2) / (kappa * kappa + four_d2)


def storage_time(state: ThermalState, gamma_m: float) -> float:
    """Thermal decoherence time 1/(n_m^T Gamma_m) in seconds.

    Returns +inf when the bath occupancy is zero (nothing to absorb).
    """
    _require("gamma_m", gamma_m, gt=0)
    if state.n_m_T == 0.0:
        return math.inf
    return 1.0 / (state.n_m_T * gamma_m)


def predict_cooling_point(device: DeviceParams, thermal: ThermalState, n_d: float) -> CoolingPoint:
    """Forward-model one red-detuned operating point from first principles."""
    mech, cavity = device.mech, device.cavity
    g = coupling_rate(device.coupling, mech, n_d)
    _, _, gamma_opt = sideband_rates(g, cavity.kappa, -mech.omega_m, mech.omega_m)
    gamma_total = total_linewidth(mech.gamma_m, gamma_opt)
    n_m = final_occupancy(thermal, g, cavity.kappa, mech.gamma_m)
    return CoolingPoint(
        n_d=n_d, g=g, gamma_opt=gamma_opt, gamma_total=gamma_total, n_m=n_m, n_c=thermal.n_c
    )
