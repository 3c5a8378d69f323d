"""Frequency-domain forward models for the driven electromechanical system.

The offset coordinate throughout is delta = omega - omega_m (rad/s), i.e.
Fourier frequency relative to the mechanical resonance in the demodulated
frame; SpectrumTrace axes are absolute frequencies in Hz.  All spectral
densities follow the single-sided convention <A^2> = integral_0^inf S_A
d(omega)/2pi, so areas on a Hz axis are plain integrals over f.
"""
from __future__ import annotations

import enum
import math
import numbers
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .constants import HBAR, TWO_PI
from .device import DeviceParams, MechanicalMode, zero_point_motion
from .dynamics import DriveConfig
from .errors import ParameterError, PeakDetectionError, UnitError

# numpy renamed trapz -> trapezoid in 2.0
_trapezoid = getattr(np, "trapezoid", None) or np.trapz

# Keep default grids inside the narrow band where the quanta unit (constant
# hbar*omega prefactor) is good to <1e-4; see unit notes in convert_trace.
MAX_HALFSPAN_HZ = 2.0e6


class SpectrumUnit(enum.Enum):
    QUANTA = "quanta"            # S / (hbar omega_ref), dimensionless
    WATTS_PER_HZ = "watts_per_hz"
    M2_PER_HZ = "m2_per_hz"


@dataclass(frozen=True)
class SpectrumTrace:
    """A PSD sampled on a strictly increasing absolute frequency grid."""

    freq_hz: np.ndarray
    values: np.ndarray
    unit: SpectrumUnit
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        freq = np.asarray(self.freq_hz, dtype=float)
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "freq_hz", freq)
        object.__setattr__(self, "values", vals)
        if freq.ndim != 1 or vals.ndim != 1 or freq.size != vals.size:
            raise ParameterError("freq_hz and values must be 1-d arrays of equal length")
        if freq.size < 8:
            raise ParameterError(f"need at least 8 samples, got {freq.size}")
        if not np.all(np.diff(freq) > 0.0):
            raise ParameterError("freq_hz must be strictly increasing")
        if self.unit in (SpectrumUnit.QUANTA, SpectrumUnit.WATTS_PER_HZ) and np.any(vals < 0.0):
            raise ParameterError(f"negative PSD values not allowed for unit {self.unit.value}")
        freq.setflags(write=False)
        vals.setflags(write=False)

    @property
    def n_avg(self) -> float:
        """Spectra averaged per bin, from the `n_avg` metadata (1 when absent)."""
        value = self.meta.get("n_avg", 1)
        if not isinstance(value, numbers.Real) or not 1.0 <= value < math.inf:
            raise ParameterError(f"n_avg must be a finite number >= 1, got {value!r}")
        return float(value)

    def with_meta(self, **extra) -> "SpectrumTrace":
        meta = dict(self.meta)
        meta.update(extra)
        return replace(self, meta=meta)


def _sigma_from_model(model: np.ndarray, n_avg: float) -> np.ndarray:
    """Per-bin sigmas of an average of n_avg periodograms: |model| / sqrt(n_avg),
    floored at 1e-12 of the largest."""
    scale = np.abs(model)
    floor = 1e-12 * float(np.max(scale)) if scale.size else 0.0
    np.maximum(scale, max(floor, 1e-300), out=scale)
    scale /= math.sqrt(n_avg)
    return scale


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the output noise spectrum model.

    All rates in rad/s; occupancies and n_add_eff in quanta.  omega_m anchors
    the offset coordinate on absolute-frequency grids and enters the exact
    (non-rotating-wave) self-energy.
    """

    g: float
    kappa: float
    kappa_ex: float
    gamma_m: float
    delta_tilde: float
    n_m_T: float
    n_c: float
    n_add_eff: float
    beta: float
    omega_m: float

    def __post_init__(self) -> None:
        for name in ("kappa", "kappa_ex", "gamma_m", "omega_m"):
            if not getattr(self, name) > 0.0:
                raise ParameterError(f"{name} must be > 0, got {getattr(self, name)!r}")
        if self.g < 0.0:
            raise ParameterError(f"g must be >= 0, got {self.g!r}")
        if self.kappa_ex > self.kappa * (1.0 + 1e-12):
            raise ParameterError("kappa_ex cannot exceed the total kappa")
        if self.n_m_T < 0.0 or self.n_c < 0.0 or self.n_add_eff < 0.0:
            raise ParameterError("occupancies and n_add_eff must be >= 0")
        if not 0.0 < self.beta <= 1.0:
            raise ParameterError(f"beta must lie in (0, 1], got {self.beta!r}")

    @property
    def sub_ideal_added_noise(self) -> bool:
        """True when n_add_eff is below the phase-preserving minimum of 1/2."""
        return self.n_add_eff < 0.5

    @classmethod
    def for_device(
        cls,
        device: DeviceParams,
        *,
        g: float,
        n_m_T: float,
        n_c: float = 0.0,
        n_add_eff: float = 0.5,
        delta_tilde: float = 0.0,
    ) -> "ModelParams":
        return cls(
            g=g,
            kappa=device.cavity.kappa,
            kappa_ex=device.cavity.kappa_ex,
            gamma_m=device.mech.gamma_m,
            delta_tilde=delta_tilde,
            n_m_T=n_m_T,
            n_c=n_c,
            n_add_eff=n_add_eff,
            beta=device.cavity.beta,
            omega_m=device.mech.omega_m,
        )


def noise_floor(params: ModelParams) -> float:
    """White measurement floor 1/2 + n_add_eff in quanta."""
    return 0.5 + params.n_add_eff


# --- susceptibilities and self-energy ----------------------------------------

def cavity_susceptibility(delta, kappa: float, delta_tilde: float):
    """Cavity response 1/(kappa/2 + j(delta + delta_tilde)); |chi| peaks at delta=-delta_tilde."""
    if not kappa > 0.0:
        raise ParameterError(f"kappa must be > 0, got {kappa!r}")
    return 1.0 / (0.5 * kappa + 1j * (np.asarray(delta, dtype=float) + delta_tilde))


def mech_susceptibility(delta, gamma_m: float):
    """Mechanical response 1/(gamma_m/2 + j delta)."""
    if not gamma_m > 0.0:
        raise ParameterError(f"gamma_m must be > 0, got {gamma_m!r}")
    return 1.0 / (0.5 * gamma_m + 1j * np.asarray(delta, dtype=float))


def self_energy(delta, g: float, kappa: float, delta_tilde: float, omega_m: float, approx: bool = False):
    """Optomechanical self-energy Sigma(delta).

    Exact form -j g^2 [chi_c(delta) - chi_c*(delta + 2 omega_m)]; with
    approx=True the counter-rotating chi_c* term is dropped (valid for
    |delta_tilde| << omega_m and omega_m >> kappa).
    """
    if not (kappa > 0.0 and omega_m > 0.0):
        raise ParameterError("kappa and omega_m must be > 0")
    chi = cavity_susceptibility(delta, kappa, delta_tilde)
    if approx:
        return -1j * g * g * chi
    chi_cr = cavity_susceptibility(np.asarray(delta, dtype=float) + 2.0 * omega_m, kappa, delta_tilde)
    return -1j * g * g * (chi - np.conj(chi_cr))


def dressed_mech_susceptibility(delta, params: ModelParams, approx: bool = False):
    """Mechanical response dressed by the drive, chi_m / (1 + j chi_m Sigma).

    With approx=True this equals the closed form
    chi_c^-1 / (g^2 + chi_m^-1 chi_c^-1) identically.
    """
    delta = np.asarray(delta, dtype=float)
    sigma = self_energy(delta, params.g, params.kappa, params.delta_tilde, params.omega_m, approx=approx)
    # chi_m/(1 + j chi_m Sigma) written as 1/(chi_m^-1 + j Sigma)
    return 1.0 / (0.5 * params.gamma_m + 1j * delta + 1j * sigma)


# --- output noise spectrum ----------------------------------------------------

def output_noise_values(delta, params: ModelParams) -> np.ndarray:
    """Output noise in quanta as a function of the offset delta (rad/s).

    S/(hbar omega) = 1/2 + n_add' +
        4 beta kappa_ex [kappa n_c (gamma_m^2 + 4 delta^2) + 4 gamma_m n_m^T g^2]
        / |4 g^2 + (kappa + 2j(delta+delta_tilde))(gamma_m + 2j delta)|^2

    Every `ModelParams` is stable, so no check is made.  The dressed-mode
    poles solve 4 delta^2 - 2j(A+gamma_m) delta - (4g^2 + A gamma_m) = 0 with
    A = kappa + 2j delta_tilde, and stable modes sit in the upper half plane.
    The model is passive: at g = 0 the poles are j gamma_m/2 and j A/2, and
    a pole reaches the real axis only where the real and imaginary parts of
    the equation vanish together, at delta = -delta_tilde gamma_m/(kappa +
    gamma_m) and 4g^2 = -kappa gamma_m (1 + 4 delta_tilde^2/(kappa +
    gamma_m)^2) < 0.  So for kappa, gamma_m > 0 every real g is stable.
    """
    delta = np.asarray(delta, dtype=float)
    g2 = params.g * params.g
    denom = 4.0 * g2 + (params.kappa + 2j * (delta + params.delta_tilde)) * (
        params.gamma_m + 2j * delta
    )
    numer = 4.0 * params.beta * params.kappa_ex * (
        params.kappa * params.n_c * (params.gamma_m**2 + 4.0 * delta * delta)
        + 4.0 * params.gamma_m * params.n_m_T * g2
    )
    return noise_floor(params) + numer / np.abs(denom) ** 2


def output_noise_basis(delta, g, kappa: float, kappa_ex: float, gamma_m: float,
                       delta_tilde: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Terms A, B of S/(hbar omega) = 1/2 + n_add' + n_c A + n_m^T B (`output_noise_values`).

    `g` may broadcast against `delta` (shape (m, 1): a row per coupling);
    complex parameters give complex-step derivatives.
    """
    factors = _basis_factors(np.asarray(delta, dtype=float), kappa, kappa_ex, gamma_m, delta_tilde, beta)
    return _basis_terms(factors, g, _basis_row(factors, g))


def _basis_factors(delta: np.ndarray, kappa: float, kappa_ex: float, gamma_m: float, delta_tilde: float, beta: float):
    """The g-independent factors P, Q^2, K, 4 beta kappa_ex and 4 gamma_m of
    `output_noise_basis`.

    With s = 4 beta kappa_ex / ((4 g^2 + P)^2 + Q^2) the basis is A = s K and
    B = 4 gamma_m g^2 s, where P = kappa gamma_m - 4 delta (delta + delta_tilde),
    Q = 2 (kappa delta + gamma_m (delta + delta_tilde)), K = kappa (gamma_m^2 + 4 delta^2).
    """
    shifted = delta + delta_tilde
    im = 2.0 * (kappa * delta + gamma_m * shifted)
    return (kappa * gamma_m - 4.0 * delta * shifted, im * im, kappa * (gamma_m * gamma_m + 4.0 * delta * delta),
            4.0 * beta * kappa_ex, 4.0 * gamma_m)


def _basis_row(factors: tuple, g) -> np.ndarray:
    """s = 4 beta kappa_ex / ((4 g^2 + P)^2 + Q^2) from `_basis_factors`: a
    row per coupling when g has shape (m, 1), complex for a complex step.
    Every real g gives a finite row: the model has no pole on the real axis
    (see `output_noise_values`)."""
    p, q2, _, numer, _ = factors
    s = np.add(4.0 * np.square(g), p)
    np.square(s, out=s)
    s += q2
    return np.divide(numer, s, out=s)


def _basis_terms(factors: tuple, g, s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The basis A = s K and B = 4 gamma_m g^2 s from the row s at g."""
    return s * factors[2], s * (factors[4] * np.square(g))


def output_noise_spectrum(freq_hz, params: ModelParams, meta: dict | None = None) -> SpectrumTrace:
    """Evaluate the exact output spectrum on an absolute frequency grid (Hz)."""
    freq_hz = np.asarray(freq_hz, dtype=float)
    delta = TWO_PI * freq_hz - params.omega_m
    values = output_noise_values(delta, params)
    out_meta = {"model": "output_noise_spectrum", "center_hz": params.omega_m / TWO_PI}
    if meta:
        out_meta.update(meta)
    return SpectrumTrace(freq_hz=freq_hz, values=values, unit=SpectrumUnit.QUANTA, meta=out_meta)


def weak_coupling_values(delta, params: ModelParams) -> tuple[np.ndarray, list[str]]:
    """Lorentzian weak-coupling limit of the output spectrum, plus validity warnings.

    S/(hbar omega) = 1/2 + n_add' + 4 beta (kappa_ex/kappa) Gamma gamma_m n_m^T
                     / ((gamma_m + Gamma)^2 + 4 delta^2),   Gamma = 4 g^2 / kappa.
    """
    delta = np.asarray(delta, dtype=float)
    warnings_: list[str] = []
    if params.delta_tilde != 0.0:
        warnings_.append("weak-coupling form assumes delta_tilde=0; nonzero value ignored")
    if 4.0 * params.g**2 >= params.kappa * params.gamma_m * 1e3:
        warnings_.append("coupling outside weak regime (4g^2 >= 1e3 kappa gamma_m)")
    if params.n_m_T > 0.0 and params.n_c > 0.01 * params.n_m_T:
        warnings_.append("cavity occupancy not negligible against n_m_T")
    if delta.size and np.max(np.abs(delta)) >= params.kappa / 10.0:
        warnings_.append("grid extends beyond |delta| < kappa/10 validity band")
    gamma_opt = 4.0 * params.g**2 / params.kappa
    lorentz = (
        4.0 * params.beta * (params.kappa_ex / params.kappa) * gamma_opt
        * params.gamma_m * params.n_m_T
        / ((params.gamma_m + gamma_opt) ** 2 + 4.0 * delta * delta)
    )
    return noise_floor(params) + lorentz, warnings_


def weak_coupling_spectrum(freq_hz, params: ModelParams, meta: dict | None = None) -> SpectrumTrace:
    """Weak-coupling Lorentzian spectrum on an absolute grid; warnings land in meta."""
    freq_hz = np.asarray(freq_hz, dtype=float)
    delta = TWO_PI * freq_hz - params.omega_m
    values, warnings_ = weak_coupling_values(delta, params)
    out_meta = {"model": "weak_coupling_spectrum", "center_hz": params.omega_m / TWO_PI}
    if warnings_:
        out_meta["warnings"] = "; ".join(warnings_)
    if meta:
        out_meta.update(meta)
    return SpectrumTrace(freq_hz=freq_hz, values=values, unit=SpectrumUnit.QUANTA, meta=out_meta)


def displacement_conversion_factor(device: DeviceParams, power_out: float) -> float:
    """Scale from detected PSD (W/Hz) to displacement PSD (m^2/Hz).

    S_x = 2 (kappa omega_m / (G kappa_ex))^2 S / P_o; valid in the narrowband
    single-sideband regime (omega_m >> kappa >> gamma_m, optimal red detuning).
    """
    if not power_out > 0.0:
        raise ParameterError(f"power_out must be > 0, got {power_out!r}")
    cavity, mech = device.cavity, device.mech
    ratio = cavity.kappa * mech.omega_m / (device.coupling.G * cavity.kappa_ex)
    return 2.0 * ratio * ratio / power_out


def displacement_from_output(
    trace: SpectrumTrace, device: DeviceParams, drive: DriveConfig, power_out: float
) -> SpectrumTrace:
    """Convert a detected W/Hz trace to displacement units m^2/Hz."""
    if trace.unit is not SpectrumUnit.WATTS_PER_HZ:
        raise UnitError(f"expected watts_per_hz trace, got {trace.unit.value}")
    scale = displacement_conversion_factor(device, power_out)
    meta = dict(trace.meta)
    meta["displacement_scale_m2hz_per_whz"] = scale
    if abs(drive.detuning + device.mech.omega_m) > 0.01 * device.mech.omega_m:
        meta["warnings"] = (
            meta.get("warnings", "") + "; " if meta.get("warnings") else ""
        ) + "conversion assumes optimal red detuning (delta = -omega_m)"
    return SpectrumTrace(
        freq_hz=trace.freq_hz, values=trace.values * scale, unit=SpectrumUnit.M2_PER_HZ, meta=meta
    )


def thermal_displacement_psd(
    freq_hz, mech: MechanicalMode, n_m: float, gamma_total: float, meta: dict | None = None
) -> SpectrumTrace:
    """Thermal displacement PSD: Lorentzian at omega_m with FWHM gamma_total.

    Normalized so integral S_x d(omega)/2pi = x_zp^2 (2 n_m + 1); the peak
    value is 4 x_zp^2 (2 n_m + 1) / gamma_total.
    """
    if not gamma_total > 0.0:
        raise ParameterError(f"gamma_total must be > 0, got {gamma_total!r}")
    if n_m < 0.0:
        raise ParameterError(f"n_m must be >= 0, got {n_m!r}")
    freq_hz = np.asarray(freq_hz, dtype=float)
    delta = TWO_PI * freq_hz - mech.omega_m
    x_zp2 = zero_point_motion(mech) ** 2
    peak = 4.0 * x_zp2 * (2.0 * n_m + 1.0) / gamma_total
    half = 0.5 * gamma_total
    values = peak * half * half / (half * half + delta * delta)
    out_meta = {"model": "thermal_displacement_psd", "center_hz": mech.omega_m / TWO_PI}
    if meta:
        out_meta.update(meta)
    return SpectrumTrace(freq_hz=freq_hz, values=values, unit=SpectrumUnit.M2_PER_HZ, meta=out_meta)


# --- the line fit: floor + Lorentzian -------------------------------------------

LINE_STEP_TOL = 1e-7  # a Gauss-Newton step this small ends a pass (centre in fwhm units, log-fwhm)
LINE_MAX_STEPS = 100


@dataclass(frozen=True)
class PeakSummary:
    """The line fitted by `peak_area`: area in value-unit * Hz, tails beyond the
    grid included, its sigma scaled by the reduced chi^2, snr = area / area_sigma."""

    area: float
    floor: float
    center_hz: float
    fwhm_hz: float
    snr: float
    area_sigma: float


def _line_terms(freq: np.ndarray, center: float, fwhm: float, terms: np.ndarray, resid: np.ndarray):
    """Rows s q, s x q^2, s q^2 of `terms` at one shape (x = 2 (f - center) / fwhm,
    q = 1 / (1 + x^2); row 0 is s = 1/sigma, row 4 the weighted data); they span
    the weighted derivatives s, s q, 4b s x q^2, 2b s (q - q^2) of floor + b q
    in floor, b, center / fwhm, log(fwhm).  Returns the rows' products and the
    exact (floor, b); the weighted residual goes to `resid`."""
    s, sq, sxq2, sq2, sy = terms
    np.subtract(freq, center, out=sxq2)
    sxq2 *= 2.0 / fwhm
    np.square(sxq2, out=sq2)
    sq2 += 1.0
    np.reciprocal(sq2, out=sq2)
    np.multiply(s, sq2, out=sq)
    sq2 *= sq
    sxq2 *= sq2
    products = terms[:4] @ terms.T  # a GEMM: the 4 x 4 product of rows 0-3 alone runs as a slower SYRK
    linear = np.linalg.solve(products[:2, :2], products[:2, 4])
    np.matmul(terms[:2].T, -linear, out=resid)
    resid += sy
    return products, linear


def _fit_line(trace: SpectrumTrace) -> tuple[PeakSummary, np.ndarray, float, int, int]:
    """Separable fit of floor + Lorentzian (README, "Notes on the fits"): the line,
    J^T J in (center, fwhm, area, floor), chi^2, Gauss-Newton steps and IRLS
    passes.  Raises PeakDetectionError when the fit fails or the area is
    not 3 of its chi^2-scaled sigmas."""
    freq, vals = trace.freq_hz, trace.values
    n, n_avg = freq.size, trace.n_avg
    n_edge, win = max(4, n // 10), max(1, n // 256)
    floor = float(np.median(np.concatenate([vals[:n_edge], vals[-n_edge:]])))
    smooth = np.convolve(vals - floor, np.full(win, 1.0 / win), mode="same")
    i_peak = int(np.argmax(smooth))  # the leftmost maximal bin
    height, center = float(smooth[i_peak]), float(freq[i_peak])
    fwhm = 2.0 * float(np.sum(smooth) * (freq[-1] - freq[0])) / ((n - 1) * math.pi * height) if height > 0.0 else 0.0
    del smooth
    if not fwhm > 0.0:
        raise PeakDetectionError(f"no resolved peak: nothing rises above the floor {floor:.3g}")
    sigma = _sigma_from_model(floor + height / (1.0 + np.square(2.0 * (freq - center) / fwhm)), n_avg)
    terms, resid = np.empty((5, n)), np.empty(n)  # from here on the fit's only arrays of n bins
    np.divide(1.0, sigma, out=terms[0])
    del sigma
    steps = 0
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            for passes in range(1, 5):
                np.multiply(terms[0], vals, out=terms[4])
                products, linear = _line_terms(freq, center, fwhm, terms, resid)
                cost, size = float(resid @ resid), math.inf
                while size >= LINE_STEP_TOL:
                    steps += 1
                    if steps > LINE_MAX_STEPS:
                        raise PeakDetectionError(f"no resolved peak: no line fit within {LINE_MAX_STEPS} steps")
                    # the gradient's floor and b rows vanish: this is the Schur-complement step
                    step = np.linalg.solve(products[:, :4], products[:, 4] - products[:, :2] @ linear)[2:]
                    step /= (4.0 * linear[1], -2.0 * linear[1])  # in center / fwhm and log(fwhm)
                    step /= max(float(np.max(np.abs(step))), 1.0)  # at most one fwhm and a factor e
                    while True:  # halved until the cost does not rise; a step below the tolerance is taken
                        size = float(np.max(np.abs(step)))
                        trial = (center + fwhm * float(step[0]), fwhm * math.exp(step[1]))
                        found = _line_terms(freq, *trial, terms, resid)
                        if size < LINE_STEP_TOL or resid @ resid <= cost:
                            break
                        step /= 2.0
                    (center, fwhm), (products, linear) = trial, found
                    cost = float(resid @ resid)
                    if not (freq[-1] - freq[0]) / (n - 1) <= fwhm <= freq[-1] - freq[0]:  # a noise-only trace drifts out
                        raise PeakDetectionError(f"no resolved peak: the line width {fwhm:.3g} Hz is below one bin or wider than the window")
                resid /= -terms[0]  # `terms` and `resid` are those of the last, accepted step
                resid += vals  # the fitted model
                np.multiply(_sigma_from_model(resid, n_avg), terms[0], out=resid)  # new over previous sigma
                terms[0] /= resid  # 1 / new sigma
                if max(resid.max() - 1.0, 1.0 - resid.min()) < 1e-3:
                    break
            np.multiply(terms[0], vals, out=terms[4])
            products, linear = _line_terms(freq, center, fwhm, terms, resid)
            b, h = linear[1] / fwhm, 2.0 / (math.pi * fwhm)
            # weighted derivatives in center, fwhm, area and floor on rows 0-3 of `terms`
            jac = np.array([[0.0, 0.0, 0.0, 1.0], [0.0, b, h, 0.0], [4.0 * b, 0.0, 0.0, 0.0], [0.0, -2.0 * b, 0.0, 0.0]])
            fisher = jac.T @ products[:, :4] @ jac
            area_var = np.linalg.solve(fisher, np.array([0.0, 0.0, 1.0, 0.0]))[2]  # one solve, not the inverse
    except (ArithmeticError, np.linalg.LinAlgError) as exc:
        raise PeakDetectionError(f"no resolved peak: the line fit failed ({exc})") from exc
    area, chi2 = float(linear[1]) / h, float(resid @ resid)
    area_var *= chi2 / (n - 4)  # negative when the fit is degenerate
    area_sigma = math.sqrt(area_var) if area_var >= 0.0 else math.nan
    if not area > 3.0 * area_sigma:
        raise PeakDetectionError(f"no resolved peak: line area {area:.3g} is below 3 of its sigma {area_sigma:.3g}")
    snr = area / area_sigma if area_sigma > 0.0 else math.inf
    return PeakSummary(area, float(linear[0]), center, fwhm, snr, area_sigma), fisher, chi2, steps, passes


def peak_area(trace: SpectrumTrace) -> PeakSummary:
    """Area of the resonance above the background: the whole Lorentzian's of the line
    fit `fit_lorentzian` shares, so a grid that cuts its tails needs no correction.
    Raises PeakDetectionError when it is not 3 of its chi^2-scaled sigmas."""
    return _fit_line(trace)[0]


def integrate_mech_peak(
    trace: SpectrumTrace,
    mech: MechanicalMode,
    convention: str = "thermal",
) -> float:
    """Occupancy of the mechanical mode from the area under its resonance.

    The displacement-trace area is converted with the thermal normalization
    area = x_zp^2 (2 n + 1), i.e. n = area/(2 x_zp^2) - 1/2 ("thermal"
    convention; the -1/2 removes the zero-point contribution).  Detected
    output-spectrum sidebands under a red-detuned drive carry area
    2 x_zp^2 n with no zero-point term; pass convention="sideband" for those.
    """
    if trace.unit is not SpectrumUnit.M2_PER_HZ:
        raise UnitError(f"occupancy extraction needs an m2_per_hz trace, got {trace.unit.value}")
    if convention not in ("thermal", "sideband"):
        raise ParameterError(f"unknown convention {convention!r}")
    summary = peak_area(trace)
    x_zp2 = zero_point_motion(mech) ** 2
    n_plus_half = summary.area / (2.0 * x_zp2)
    return n_plus_half - 0.5 if convention == "thermal" else n_plus_half


# --- grids and unit conversion --------------------------------------------

def sideband_grid(
    omega_m: float,
    gamma_total: float,
    kappa: float,
    points: int = 4096,
    halfspan_hz: float | None = None,
) -> np.ndarray:
    """Uniform absolute-frequency grid (Hz) around the mechanical resonance.

    Default half-span is 20 * max(gamma_total, kappa), capped at 2 MHz to
    stay inside the quanta-unit validity band.
    """
    if points < 32:
        raise ParameterError(f"need at least 32 points, got {points}")
    if halfspan_hz is None:
        halfspan_hz = min(20.0 * max(gamma_total, kappa) / TWO_PI, MAX_HALFSPAN_HZ)
    if not halfspan_hz > 0.0:
        raise ParameterError(f"halfspan_hz must be > 0, got {halfspan_hz!r}")
    center = omega_m / TWO_PI
    return np.linspace(center - halfspan_hz, center + halfspan_hz, points)


def grid_for(params: ModelParams, points: int = 4096, halfspan_hz: float | None = None) -> np.ndarray:
    """Grid sized from the model's own linewidths (weak-coupling Gamma estimate)."""
    gamma_opt = 4.0 * params.g**2 / params.kappa
    return sideband_grid(params.omega_m, params.gamma_m + gamma_opt, params.kappa, points, halfspan_hz)


def convert_trace(trace: SpectrumTrace, unit: SpectrumUnit, carrier_hz: float) -> SpectrumTrace:
    """Convert between quanta and W/Hz using hbar*omega at the carrier.

    The hbar*omega prefactor is frozen at the sideband carrier frequency
    (its variation across a <=2 MHz span at GHz carriers is <1e-4 relative),
    so quanta -> W/Hz -> quanta is an exact round trip.
    """
    if not carrier_hz > 0.0:
        raise ParameterError(f"carrier_hz must be > 0, got {carrier_hz!r}")
    if trace.unit is unit:
        return trace
    scale = HBAR * TWO_PI * carrier_hz
    pair = (trace.unit, unit)
    if pair == (SpectrumUnit.QUANTA, SpectrumUnit.WATTS_PER_HZ):
        values = trace.values * scale
    elif pair == (SpectrumUnit.WATTS_PER_HZ, SpectrumUnit.QUANTA):
        values = trace.values / scale
    else:
        raise UnitError(f"no direct conversion from {trace.unit.value} to {unit.value}")
    meta = dict(trace.meta)
    meta["carrier_hz"] = carrier_hz
    return SpectrumTrace(freq_hz=trace.freq_hz, values=values, unit=unit, meta=meta)


# --- CSV round trip -----------------------------------------------------------

def trace_to_csv(trace: SpectrumTrace) -> str:
    """Serialize to the trace CSV format (decimal text, 17 significant digits).

    The table is formatted by one `%` call on Python floats, which gives the
    same text as formatting each np.float64 on its own.
    """
    lines = [f"# unit={trace.unit.value}"]
    for key, value in trace.meta.items():
        if isinstance(value, float):
            lines.append(f"# {key}={value:.17g}")
        else:
            lines.append(f"# {key}={value}")
    lines.append("freq_hz,value")
    table = np.column_stack((trace.freq_hz, trace.values)).ravel().tolist()
    return "\n".join(lines) + "\n" + ("%.17g,%.17g\n" * trace.freq_hz.size) % tuple(table)


def trace_from_csv(text: str, source: str = "<string>") -> SpectrumTrace:
    """Parse the trace CSV format.

    The preamble (`# key=value` metadata, free-form `#` comments, blank lines
    and the `freq_hz,value` header) is read line by line; the table below it
    is parsed by one `np.loadtxt` call.  Every error names `source`, and the
    line where there is one.
    """
    lines = text.splitlines()
    unit: SpectrumUnit | None = None
    meta: dict = {}
    start = None  # index in `lines` of the first line after the header
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, sep, value = line[1:].strip().partition("=")
            if not sep:
                continue  # free-form comment
            key, value = key.strip(), value.strip()
            if key == "unit":
                try:
                    unit = SpectrumUnit(value)
                except ValueError as exc:
                    raise UnitError(f"{source}:{lineno}: unknown unit {value!r}") from exc
            else:
                meta[key] = _parse_meta_value(value)
            continue
        if line.replace(" ", "") != "freq_hz,value":
            raise ParameterError(f"{source}:{lineno}: expected header 'freq_hz,value'")
        start = lineno
        break
    if unit is None:
        raise UnitError(f"{source}: missing '# unit=...' line")
    if start is None:
        raise ParameterError(f"{source}: missing 'freq_hz,value' header")
    # loadtxt skips empty lines but reads a whitespace-only one as a row
    rows = [row for row in lines[start:] if not row.isspace()]
    if not any(rows):
        raise ParameterError(f"{source}: no rows below the 'freq_hz,value' header")
    try:
        table = np.loadtxt(rows, delimiter=",", ndmin=2, comments=None)
        if table.shape[1] != 2:
            raise ValueError(f"{table.shape[1]} columns")
    except ValueError as exc:
        raise _row_error(lines, start, source, exc) from exc
    freq, vals = np.ascontiguousarray(table.T)
    try:
        return SpectrumTrace(freq_hz=freq, values=vals, unit=unit, meta=meta)
    except ParameterError as exc:
        raise ParameterError(f"{source}: {exc}") from exc


def _row_error(lines: list[str], start: int, source: str, exc: ValueError) -> ParameterError:
    """The error for the first table row that is not two numbers.

    Called only after the bulk parse has failed: each row is parsed again on
    its own by the same parser until the row at fault is found.
    """
    for lineno, raw in enumerate(lines[start:], start=start + 1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            return ParameterError(
                f"{source}:{lineno}: '#' line inside the table; "
                "metadata must come before the 'freq_hz,value' header"
            )
        try:
            ok = np.loadtxt([raw], delimiter=",", ndmin=2, comments=None).shape == (1, 2)
        except ValueError:
            ok = False
        if not ok:
            return ParameterError(f"{source}:{lineno}: expected a 'freq,value' row of two numbers, got {line!r}")
    return ParameterError(f"{source}: {exc}")


def _parse_meta_value(value: str):
    for cast in (int, float):
        try:
            return cast(value)
        except ValueError:
            continue
    return value


def write_trace(trace: SpectrumTrace, path: str | Path) -> None:
    Path(path).write_text(trace_to_csv(trace), encoding="utf-8")


def read_trace(path: str | Path) -> SpectrumTrace:
    path = Path(path)
    return trace_from_csv(path.read_text(encoding="utf-8"), source=str(path))
