"""Measurement-limit algebra: the imprecision of the detection chain, the
force noise, and the imprecision-backaction product against the Heisenberg
bound."""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

from .constants import HBAR
from .device import MechanicalMode
from .errors import ParameterError, _require


def imprecision_from_chain(
    g: float, kappa: float, kappa_ex: float, gamma_m: float, beta: float, n_add_eff: float
) -> float:
    """Imprecision quanta implied by the detection chain at coupling g.

    n_imp = (1/4 beta)(kappa/kappa_ex)((4g^2 + kappa gamma_m)/4g^2)(1/2 + n_add').
    Pass g=inf for the large-drive asymptote.  g=0 diverges (no measurement).
    """
    _require("kappa", kappa, gt=0)
    _require("kappa_ex", kappa_ex, gt=0)
    _require("gamma_m", gamma_m, gt=0)
    if not g >= 0.0:  # the one input that may be inf
        raise ParameterError(f"g must be a number >= 0 (inf for the asymptote), got {g!r}")
    _require("beta", beta, gt=0, le=1)
    _require("n_add_eff", n_add_eff, ge=0)
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
    _require("gamma_total", gamma_total, gt=0)
    _require("n_m", n_m, ge=0)
    return 4.0 * HBAR * mech.omega_m * mech.mass * gamma_total * (n_m + 0.5)


def heisenberg_product(n_imp: float, n_ba: float) -> float:
    """Imprecision-backaction product 4 sqrt(n_imp n_ba) in units of hbar.

    Raises on values below the absolute bound of 1 (inconsistent inputs);
    warns below sqrt(2), the minimum attainable with the red-detuned drive
    that the package models.
    """
    _require("n_imp", n_imp, ge=0)
    _require("n_ba", n_ba, ge=0)
    product = 4.0 * math.sqrt(n_imp * n_ba)
    if product < 1.0 - 1e-12:
        raise ParameterError(
            f"imprecision-backaction product {product:.4g} below the Heisenberg bound of 1: "
            "inputs are mutually inconsistent"
        )
    if product < math.sqrt(2.0) - 1e-12:
        warnings.warn(
            f"product {product:.4g} below sqrt(2), the minimum attainable with a "
            "red-detuned drive",
            stacklevel=2,
        )
    return product


@dataclass(frozen=True)
class LimitReport:
    """Summary of measurement limits at one operating point.

    `product_over_hbar` is not passed: it is computed from n_imp and n_ba by
    `heisenberg_product`, and `asdict` lists it last.
    """

    n_imp: float
    n_ba: float
    s_x_imp: float
    s_f_total: float
    product_over_hbar: float = field(init=False)

    def __post_init__(self) -> None:
        for name in ("n_imp", "n_ba", "s_x_imp", "s_f_total"):
            _require(name, getattr(self, name), ge=0)
        object.__setattr__(self, "product_over_hbar", heisenberg_product(self.n_imp, self.n_ba))
