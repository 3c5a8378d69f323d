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
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .constants import HBAR, TWO_PI
from .device import DeviceParams, MechanicalMode, zero_point_motion
from ._g17 import format_rows
from .errors import ParameterError, PeakDetectionError, UnitError, _require

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
        if not (np.all(np.isfinite(freq)) and np.all(np.isfinite(vals))):
            raise ParameterError("freq_hz and values must be finite numbers")
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
        _require("n_avg", value, ge=1)
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
    the offset coordinate on absolute-frequency grids.
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
        for name in ("g", "n_m_T", "n_c", "n_add_eff"):
            _require(name, getattr(self, name), ge=0)
        for name in ("kappa", "kappa_ex", "gamma_m", "omega_m"):
            _require(name, getattr(self, name), gt=0)
        _require("delta_tilde", self.delta_tilde)
        _require("beta", self.beta, gt=0, le=1)
        if self.kappa_ex > self.kappa * (1.0 + 1e-12):
            raise ParameterError("kappa_ex cannot exceed the total kappa")

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


# --- susceptibilities ---------------------------------------------------------

def cavity_susceptibility(delta, kappa: float, delta_tilde: float):
    """Cavity response 1/(kappa/2 + j(delta + delta_tilde)); |chi| peaks at delta=-delta_tilde."""
    _require("kappa", kappa, gt=0)
    _require("delta_tilde", delta_tilde)
    return 1.0 / (0.5 * kappa + 1j * (np.asarray(delta, dtype=float) + delta_tilde))


def mech_susceptibility(delta, gamma_m: float):
    """Mechanical response 1/(gamma_m/2 + j delta)."""
    _require("gamma_m", gamma_m, gt=0)
    return 1.0 / (0.5 * gamma_m + 1j * np.asarray(delta, dtype=float))


def dressed_mech_susceptibility(delta, params: ModelParams):
    """Mechanical response dressed by the drive, 1/(chi_m^-1 + g^2 chi_c).

    This is chi_m / (1 + j chi_m Sigma) with the rotating-wave self-energy
    Sigma = -j g^2 chi_c, the approximation `output_noise_values` makes.  With
    `cavity_susceptibility` and `mech_susceptibility` it rebuilds that closed
    form independently (`TestOutputNoiseOracle` in tests/test_spectra.py).
    """
    delta = np.asarray(delta, dtype=float)
    chi_c = cavity_susceptibility(delta, params.kappa, params.delta_tilde)
    return 1.0 / (0.5 * params.gamma_m + 1j * delta + params.g * params.g * chi_c)


# --- output noise spectrum ----------------------------------------------------

def output_noise_values(delta, params: ModelParams) -> np.ndarray:
    """Output noise in quanta as a function of the offset delta (rad/s).

    S/(hbar omega) = 1/2 + n_add' +
        4 beta kappa_ex [kappa n_c (gamma_m^2 + 4 delta^2) + 4 gamma_m n_m^T g^2]
        / |4 g^2 + (kappa + 2j(delta+delta_tilde))(gamma_m + 2j delta)|^2

    This closed form has one implementation, the arithmetic of the
    full-model fit: the factors of `_basis_factors`, the row s of
    `_basis_row` and the sum of `_spectrum`.  `TestOutputNoiseOracle`
    checks it against the spectrum built from the susceptibilities.  A
    scalar delta gives a one-bin array.
    """
    factors = _basis_factors(np.array(delta, dtype=float, ndmin=1), params.kappa, params.kappa_ex, params.gamma_m,
                             params.delta_tilde, params.beta)
    return _spectrum(factors, _basis_row(factors, params.g), params.g, params.n_c, params.n_m_T, params.n_add_eff)


def _basis_factors(delta: np.ndarray, kappa: float, kappa_ex: float, gamma_m: float, delta_tilde: float, beta: float):
    """The g-independent factors P, Q^2, K, 4 beta kappa_ex and 4 gamma_m of
    the basis A, B of S/(hbar omega) = 1/2 + n_add' + n_c A + n_m^T B
    (`output_noise_values`).

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
    row per coupling when g has shape (m, 1).

    Every real g gives a finite row, because the model has no pole on the
    real axis.  Its dressed-mode poles solve 4 delta^2 - 2j(A+gamma_m) delta
    - (4g^2 + A gamma_m) = 0 with A = kappa + 2j delta_tilde, and stable
    modes sit in the upper half plane.  The model is passive: at g = 0 the
    poles are j gamma_m/2 and j A/2, and a pole reaches the real axis only
    where the real and imaginary parts of the equation vanish together, at
    delta = -delta_tilde gamma_m/(kappa + gamma_m) and 4g^2 = -kappa gamma_m
    (1 + 4 delta_tilde^2/(kappa + gamma_m)^2) < 0.  So for kappa, gamma_m > 0
    every real g is stable, and no `ModelParams` needs a check.
    """
    p, q2, _, numer, _ = factors
    s = np.add(4.0 * np.square(g), p)
    np.square(s, out=s)
    s += q2
    return np.divide(numer, s, out=s)


def _spectrum(factors: tuple, s: np.ndarray, g: float, n_c: float, n_m_T: float, n_add_eff: float) -> np.ndarray:
    """1/2 + n_add' + n_c A + n_m^T B = 1/2 + n_add' + s (n_c K + n_m^T 4 gamma_m g^2)
    from the factors of `_basis_factors` and their row s at g (`_basis_row`)."""
    _, _, k, _, mech = factors
    return 0.5 + n_add_eff + s * (n_c * k + n_m_T * (mech * (g * g)))


def output_noise_spectrum(freq_hz, params: ModelParams) -> SpectrumTrace:
    """Evaluate `output_noise_values` on an absolute frequency grid (Hz)."""
    freq_hz = np.asarray(freq_hz, dtype=float)
    delta = TWO_PI * freq_hz - params.omega_m
    values = output_noise_values(delta, params)
    meta = {"model": "output_noise_spectrum", "center_hz": params.omega_m / TWO_PI}
    return SpectrumTrace(freq_hz=freq_hz, values=values, unit=SpectrumUnit.QUANTA, meta=meta)


def thermal_displacement_psd(freq_hz, mech: MechanicalMode, n_m: float, gamma_total: float) -> SpectrumTrace:
    """Thermal displacement PSD: Lorentzian at omega_m with FWHM gamma_total.

    Normalized so integral S_x d(omega)/2pi = x_zp^2 (2 n_m + 1); the peak
    value is 4 x_zp^2 (2 n_m + 1) / gamma_total.
    """
    _require("n_m", n_m, ge=0)
    _require("gamma_total", gamma_total, gt=0)
    freq_hz = np.asarray(freq_hz, dtype=float)
    delta = TWO_PI * freq_hz - mech.omega_m
    x_zp2 = zero_point_motion(mech) ** 2
    peak = 4.0 * x_zp2 * (2.0 * n_m + 1.0) / gamma_total
    half = 0.5 * gamma_total
    values = peak * half * half / (half * half + delta * delta)
    meta = {"model": "thermal_displacement_psd", "center_hz": mech.omega_m / TWO_PI}
    return SpectrumTrace(freq_hz=freq_hz, values=values, unit=SpectrumUnit.M2_PER_HZ, meta=meta)


# --- the line fit: floor + Lorentzian -------------------------------------------

LINE_STEP_TOL = 1e-7  # a Gauss-Newton step this small ends a pass (centre in fwhm units, log-fwhm)
LINE_MAX_STEPS = 100


@dataclass(frozen=True)
class PeakSummary:
    """The line fitted by `peak_area`: area in value-unit * Hz, tails beyond the
    grid included, and its sigma scaled by the reduced chi^2."""

    area: float
    floor: float
    center_hz: float
    fwhm_hz: float
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
    return PeakSummary(area, float(linear[0]), center, fwhm, area_sigma), fisher, chi2, steps, passes


def peak_area(trace: SpectrumTrace) -> PeakSummary:
    """Area of the resonance above the background: the whole Lorentzian's of the line
    fit `fit_lorentzian` shares, so a grid that cuts its tails needs no correction.
    Raises PeakDetectionError when it is not 3 of its chi^2-scaled sigmas."""
    return _fit_line(trace)[0]


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
    _require("omega_m", omega_m, gt=0)
    _require("gamma_total", gamma_total, ge=0)
    _require("kappa", kappa, ge=0)
    _require("points", points, ge=32)
    if halfspan_hz is None:
        halfspan_hz = min(20.0 * max(gamma_total, kappa) / TWO_PI, MAX_HALFSPAN_HZ)
    _require("halfspan_hz", halfspan_hz, gt=0)
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
    _require("carrier_hz", carrier_hz, gt=0)
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

    The table is the text `"%.17g,%.17g\\n"` gives each row, formatted by an
    integer-digit numpy kernel (`emcool._g17`) that falls back to `%` for the
    values whose rounding it cannot prove.  Metadata that its `# key=value`
    line would not give back raises ParameterError naming the key.
    """
    lines = [f"# unit={trace.unit.value}"]
    for key, value in trace.meta.items():
        text = f"{value:.17g}" if isinstance(value, float) else f"{value}"
        if not isinstance(key, str):  # the reader gives back every key as a string
            raise ParameterError(f"trace metadata {key!r} cannot be read back: a key must be a string")
        # the reader splits lines, strips both fields and ends the key at the first "="
        if key == "unit" or "=" in key or any(f != f.strip() or len(f.splitlines()) > 1 for f in (key, text)):
            raise ParameterError(f"trace metadata {key!r} cannot be read back: a key must not be 'unit' or hold '=', "
                                 f"and no key or value may hold a line break or start or end with a blank ({text!r})")
        # the reader gives back an int or a float for a value that parses as one, and the string otherwise
        numeric_str = isinstance(value, str) and not isinstance(_parse_meta_value(value), str)
        if isinstance(value, bool) or not isinstance(value, (str, int, float)) or numeric_str:
            raise ParameterError(f"trace metadata {key!r} cannot be read back: a value must be an int, a float or a "
                                 f"string that does not read as a number, got {value!r}")
        lines.append(f"# {key}={text}")
    lines.append("freq_hz,value")
    return "\n".join(lines) + "\n" + format_rows((trace.freq_hz, trace.values)).decode("ascii")


def _read_preamble(lines, source: str) -> tuple[SpectrumUnit, dict, int]:
    """The unit, the metadata and the line number of the `freq_hz,value`
    header, read from the lines of a trace CSV up to the header; an iterator
    of lines is left on the line below it.  Errors name `source` and the
    line where there is one."""
    unit: SpectrumUnit | None = None
    meta: dict = {}
    start = None
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
    return unit, meta, start


def _table_trace(table: np.ndarray, unit: SpectrumUnit, meta: dict, source: str) -> SpectrumTrace:
    """The trace of a parsed (rows, 2) table; a `SpectrumTrace` check that
    fails names `source`."""
    freq, vals = np.ascontiguousarray(table.T)
    try:
        return SpectrumTrace(freq_hz=freq, values=vals, unit=unit, meta=meta)
    except ParameterError as exc:
        raise ParameterError(f"{source}: {exc}") from exc


def trace_from_csv(text: str, source: str = "<string>") -> SpectrumTrace:
    """Parse the trace CSV format.

    Lines end at `\\n`, `\\r\\n` and `\\r` only, as in a file read as
    text, so a form feed, U+0085 or U+2028 is a character of its line.  The
    preamble (`# key=value` metadata, free-form `#` comments, blank lines
    and the `freq_hz,value` header) is read line by line; the table below it
    is parsed by one `np.loadtxt` call.  Every error names `source`, and the
    line where there is one.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    unit, meta, start = _read_preamble(lines, source)
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
    return _table_trace(table, unit, meta, source)


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
    """Write `trace` as a trace CSV file: the UTF-8 bytes of
    `trace_to_csv(trace)`, written as they are (`\\n` line ends on every
    platform)."""
    Path(path).write_bytes(trace_to_csv(trace).encode("utf-8"))


# numpy's reader opens a path through `np.lib._datasource`, which decompresses
# these suffixes; such a file is left to the text parse
_COMPRESSED_SUFFIXES = (".gz", ".bz2", ".xz", ".lzma")


def read_trace(path: str | Path) -> SpectrumTrace:
    """Read a trace CSV file; it gives what `trace_from_csv` gives on the
    file's UTF-8 text, the same arrays bit for bit or the same error.

    The preamble is read line by line from the file, by the code
    `trace_from_csv` uses, and numpy's file reader parses the table below
    it straight from the path (`np.loadtxt` with `skiprows`), with no
    Python string per row.  Both end lines at `\\n`, `\\r\\n` and `\\r`
    only.  A path that is not a regular file (a pipe, a FIFO, `/dev/stdin`)
    is read once, as text, by `trace_from_csv`, since opening it again would
    not start over; so is a name with a suffix numpy would decompress.  When
    the file reader cannot take a file (text that is not UTF-8, a bad
    preamble, a whitespace-only row, a `#` line or a row that is not two
    numbers inside the table, or no rows), the file's text goes to
    `trace_from_csv`, which accepts it or reports `<file>:<line>: ...`.
    Bytes that are not UTF-8 (a compressed trace under a `.csv` name) raise
    ParameterError naming the file.
    """
    path = Path(path)
    source, table = str(path), None
    if path.is_file() and path.suffix not in _COMPRESSED_SUFFIXES:
        try:
            with path.open(encoding="utf-8") as lines:
                unit, meta, start = _read_preamble(lines, source)
                has_rows = any(not line.isspace() for line in lines)  # numpy warns on a table of no rows
            if has_rows:
                table = np.loadtxt(path, delimiter=",", ndmin=2, comments=None, skiprows=start, encoding="utf-8")
        except ValueError:  # UnicodeDecodeError, ParameterError and UnitError among them
            table = None
    if table is None or table.shape[1] != 2:
        try:
            text = path.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise ParameterError(
                f"{source}: not UTF-8 text (byte {exc.object[exc.start]:#04x} at offset {exc.start}); "
                "a compressed trace must be decompressed first"
            ) from None
        return trace_from_csv(text, source=source)
    return _table_trace(table, unit, meta, source)
