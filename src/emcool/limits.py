"""Measurement-limit algebra: imprecision, backaction, added noise, and the
imprecision-backaction product against the Heisenberg bound."""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import asdict, dataclass

from .constants import HBAR
from .device import MechanicalMode
from .errors import ParameterError


@dataclass(frozen=True)
class MeasurementChain:
    """Detector added noise plus transmission losses between cavity and detector.

    n_add : added noise of the detector itself (quanta); >= 1/2 for any
            phase-preserving amplifier (smaller values raise a warning).
    eta   : power transmission efficiency in (0, 1].
    """

    n_add: float
    eta: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.eta <= 1.0:
            raise ParameterError(f"eta must lie in (0, 1], got {self.eta!r}")
        if self.n_add < 0.0:
            raise ParameterError(f"n_add must be >= 0, got {self.n_add!r}")
        if self.n_add < 0.5:
            warnings.warn(
                f"n_add={self.n_add} below the phase-preserving minimum of 1/2",
                stacklevel=2,
            )

    @classmethod
    def with_loss_db(cls, n_add: float, loss_db: float) -> "MeasurementChain":
        """Build a chain from a loss figure in dB (stored as linear eta)."""
        if loss_db < 0.0:
            raise ParameterError(f"loss_db must be >= 0, got {loss_db!r}")
        return cls(n_add=n_add, eta=10.0 ** (-loss_db / 10.0))

    @property
    def n_add_eff(self) -> float:
        return effective_added_noise(self)


def effective_added_noise(chain: MeasurementChain) -> float:
    """Added noise referred to the cavity output: n_add/eta + (1-eta)/(2 eta).

    Models the loss as a beam splitter that transmits a fraction eta and
    admixes (1-eta) of vacuum.  Equals n_add at eta=1.
    """
    if not 0.0 < chain.eta <= 1.0:
        raise ParameterError(f"eta must lie in (0, 1], got {chain.eta!r}")
    return chain.n_add / chain.eta + (1.0 - chain.eta) / (2.0 * chain.eta)


def imprecision_quanta(s_x_imp: float, gamma_total: float, x_zp: float) -> float:
    """Imprecision floor expressed as equivalent mechanical quanta.

    n_imp = gamma_total * S_x_imp / (8 x_zp^2); identical to the
    m*omega_m*gamma_total/(4 hbar) form since x_zp^2 = hbar/(2 m omega_m).
    """
    if s_x_imp < 0.0:
        raise ParameterError(f"s_x_imp must be >= 0, got {s_x_imp!r}")
    if not (gamma_total > 0.0 and x_zp > 0.0):
        raise ParameterError("gamma_total and x_zp must be > 0")
    return gamma_total * s_x_imp / (8.0 * x_zp * x_zp)


def imprecision_from_chain(
    g: float, kappa: float, kappa_ex: float, gamma_m: float, beta: float, n_add_eff: float
) -> float:
    """Imprecision quanta implied by the detection chain at coupling g.

    n_imp = (1/4 beta)(kappa/kappa_ex)((4g^2 + kappa gamma_m)/4g^2)(1/2 + n_add').
    Pass g=inf for the large-drive asymptote.  g=0 diverges (no measurement).
    """
    if not (kappa > 0.0 and kappa_ex > 0.0 and gamma_m > 0.0):
        raise ParameterError("rates must be > 0")
    if not 0.0 < beta <= 1.0:
        raise ParameterError(f"beta must lie in (0, 1], got {beta!r}")
    if n_add_eff < 0.0:
        raise ParameterError(f"n_add_eff must be >= 0, got {n_add_eff!r}")
    if g == 0.0:
        raise ParameterError("n_imp diverges at g=0: no measurement without coupling")
    prefactor = (kappa / kappa_ex) * (0.5 + n_add_eff) / (4.0 * beta)
    if math.isinf(g):
        return prefactor
    return prefactor * (4.0 * g * g + kappa * gamma_m) / (4.0 * g * g)


def total_force_psd(mech: MechanicalMode, gamma_total: float, n_m: float) -> float:
    """Total force noise 4 hbar omega_m m gamma_total (n_m + 1/2) in N^2/Hz.

    Recovers the classical 4 k_B T m gamma_m for n_m >> 1 at gamma_total =
    gamma_m (relative difference ~ 1/(2 n_m)).
    """
    if not gamma_total > 0.0:
        raise ParameterError(f"gamma_total must be > 0, got {gamma_total!r}")
    if n_m < 0.0:
        raise ParameterError(f"n_m must be >= 0, got {n_m!r}")
    return 4.0 * HBAR * mech.omega_m * mech.mass * gamma_total * (n_m + 0.5)


def backaction_asymptote(mech: MechanicalMode, gamma_total: float) -> tuple[float, float]:
    """Large-drive backaction force PSD and its quanta equivalent.

    Returns (S_F_ba, n_ba) = (2 hbar omega_m m gamma_total, 1/2): the
    red-detuned measurement backaction saturates at half a quantum.
    """
    if not gamma_total > 0.0:
        raise ParameterError(f"gamma_total must be > 0, got {gamma_total!r}")
    return 2.0 * HBAR * mech.omega_m * mech.mass * gamma_total, 0.5


def heisenberg_product(n_imp: float, n_ba: float, red_detuned: bool = True) -> float:
    """Imprecision-backaction product 4 sqrt(n_imp n_ba) in units of hbar.

    Raises on values below the absolute bound of 1 (inconsistent inputs);
    warns below sqrt(2) when the drive is red-detuned, where sqrt(2) is the
    attainable minimum.
    """
    if n_imp < 0.0 or n_ba < 0.0:
        raise ParameterError("n_imp and n_ba must be >= 0")
    product = 4.0 * math.sqrt(n_imp * n_ba)
    if product < 1.0 - 1e-12:
        raise ParameterError(
            f"imprecision-backaction product {product:.4g} below the Heisenberg bound of 1: "
            "inputs are mutually inconsistent"
        )
    if red_detuned and product < math.sqrt(2.0) - 1e-12:
        warnings.warn(
            f"product {product:.4g} below sqrt(2), the minimum attainable with a "
            "red-detuned drive",
            stacklevel=2,
        )
    return product


@dataclass(frozen=True)
class LimitReport:
    """Summary of measurement limits at one operating point."""

    n_imp: float
    n_ba: float
    s_x_imp: float
    s_f_total: float
    product_over_hbar: float

    def __post_init__(self) -> None:
        for name in ("n_imp", "n_ba", "s_x_imp", "s_f_total", "product_over_hbar"):
            if getattr(self, name) < 0.0:
                raise ParameterError(f"{name} must be >= 0")
        expected = 4.0 * math.sqrt(self.n_imp * self.n_ba)
        if abs(self.product_over_hbar - expected) > 1e-9 * max(1.0, expected):
            raise ParameterError("product_over_hbar inconsistent with 4 sqrt(n_imp n_ba)")

    @classmethod
    def build(
        cls, n_imp: float, n_ba: float, s_x_imp: float, s_f_total: float, red_detuned: bool = True
    ) -> "LimitReport":
        return cls(
            n_imp=n_imp,
            n_ba=n_ba,
            s_x_imp=s_x_imp,
            s_f_total=s_f_total,
            product_over_hbar=heisenberg_product(n_imp, n_ba, red_detuned=red_detuned),
        )

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)
