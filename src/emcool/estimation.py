"""Inverse problems: spectral fits, coupling calibration, cooling-sweep analysis.

The full-model fit is separable (variable projection, Golub & Pereyra 1973):
the spectrum is linear in n_add_eff, n_c and n_m_T, which are solved exactly
by weighted NNLS for every trial shape; g is profiled on a log scan from
4g^2/kappa = 1e-3 gamma_m to 10 kappa, and a freed kappa, gamma_m or
delta_tilde goes to the damped Gauss-Newton engine in `leastsq` on the
projected model.  An outer IRLS loop refreshes the sigmas model/sqrt(n_avg);
the covariance is inv(J^T J) in the natural parameters.  kappa and
delta_tilde stay fixed by default because they are measured independently
with a probe tone at each drive power, but any subset of
{g, kappa, delta_tilde, gamma_m, n_m_T, n_c, n_add_eff} may be freed.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import Mapping, Sequence

import numpy as np

from .constants import TWO_PI
from .device import DeviceParams, bose_occupancy, zero_point_motion
from .dynamics import (
    DriveConfig,
    CoolingPoint,
    ThermalState,
    coupling_rate,
    drive_power_for_photons,
    final_occupancy,
    final_occupancy_gradient,
    sideband_rates,
    total_linewidth,
    transmitted_power,
)
from .errors import ParameterError, UnitError
from .leastsq import (
    LeastSquaresResult,
    _check_degenerate,
    _covariance,
    _sigma_from_model,
    fit_weighted,
)
from .limits import imprecision_from_chain
from .spectra import (
    ModelParams,
    SpectrumTrace,
    SpectrumUnit,
    _pole_margin,
    _trapezoid,
    output_noise_basis,
    output_noise_values,
    peak_area,
)

FULL_MODEL_PARAMS = (
    "g",
    "kappa",
    "kappa_ex",
    "gamma_m",
    "delta_tilde",
    "n_m_T",
    "n_c",
    "n_add_eff",
    "beta",
    "omega_m",
)
FREEABLE_PARAMS = frozenset(
    {"g", "kappa", "delta_tilde", "gamma_m", "n_m_T", "n_c", "n_add_eff"}
)
DEFAULT_FREE = ("n_m_T", "n_c", "g", "n_add_eff")


@dataclass(frozen=True)
class FitResult:
    """Estimates, 1-sigma errors and diagnostics of one spectral fit.

    sigmas and covariance are present only for converged fits; covariance is
    ordered like param_names.
    """

    params: dict[str, float]
    sigmas: dict[str, float] | None
    residual_rms: float
    converged: bool
    n_iter: int
    param_names: tuple[str, ...]
    covariance: np.ndarray | None = None
    at_bound: tuple[str, ...] = ()
    step_costs: tuple[tuple[float, float], ...] = ()
    message: str = ""

    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "params": self.params,
            "sigmas": self.sigmas,
            "residual_rms": self.residual_rms,
            "converged": self.converged,
            "n_iter": self.n_iter,
            "at_bound": list(self.at_bound),
            "message": self.message,
        }
        return json.dumps(payload, indent=indent)


def _wrap_result(res: LeastSquaresResult, names: Sequence[str]) -> FitResult:
    params = {name: float(v) for name, v in zip(names, res.params)}
    sigmas = None
    if res.converged and res.sigmas is not None:
        sigmas = {name: float(s) for name, s in zip(names, res.sigmas)}
    at_bound = tuple(n for n, flag in zip(names, res.at_bound) if flag) if res.at_bound is not None else ()
    return FitResult(
        params=params,
        sigmas=sigmas,
        residual_rms=res.residual_rms,
        converged=res.converged,
        n_iter=res.n_iter,
        param_names=tuple(names),
        covariance=res.covariance if res.converged else None,
        at_bound=at_bound,
        step_costs=tuple(res.step_costs),
        message=res.message,
    )


# --- Lorentzian peak fit -------------------------------------------------------

def lorentzian_model(freq_hz: np.ndarray, center: float, fwhm: float, area: float, floor: float) -> np.ndarray:
    """floor + Lorentzian with unit-normalized area (peak height 2 area/(pi fwhm))."""
    x = 2.0 * (freq_hz - center) / fwhm
    return floor + (2.0 * area / (math.pi * fwhm)) / (1.0 + x * x)


def fit_lorentzian(trace: SpectrumTrace, n_avg: float | None = None) -> FitResult:
    """Weighted least-squares fit of floor + Lorentzian to a single peak.

    Initialization: center at the (leftmost) maximal bin, floor at the trace
    median, width from the half-max crossings, area from the trapezoid.
    Raises PeakDetectionError when no peak clears 3 noise sigmas.
    """
    summary = peak_area(trace)  # also enforces the SNR >= 3 precondition
    freq = trace.freq_hz
    vals = trace.values
    floor0 = float(np.median(vals))
    center0 = float(freq[int(np.argmax(vals))])
    fwhm0 = summary.fwhm_hz
    area0 = max(float(_trapezoid(vals - floor0, freq)), 1e-300)
    if n_avg is None:
        n_avg = float(trace.meta.get("n_avg", 1))

    names = ("center_hz", "fwhm_hz", "area", "floor")
    p0 = np.array([center0, fwhm0, area0, floor0])
    log_scale = (False, True, True, False)
    height0 = float(np.max(vals)) - floor0
    scales = (fwhm0, 1.0, 1.0, max(abs(floor0), 0.01 * height0, 1e-300))

    def model(p: np.ndarray) -> np.ndarray:
        return lorentzian_model(freq, *p)

    res = fit_weighted(model, vals, p0, log_scale, names, n_avg=n_avg, scales=scales)
    return _wrap_result(res, names)


# --- full output-spectrum fit ----------------------------------------------

_AMPLITUDES = ("n_add_eff", "n_c", "n_m_T")  # the model is linear in these
_BASIS_ARGS = ("g", "kappa", "kappa_ex", "gamma_m", "delta_tilde", "beta")  # of output_noise_basis
_SUPPORTS = [np.array(list(itertools.product((False, True), repeat=k)), dtype=bool) for k in range(4)]
# couplings solved together: 4 rows of 4096 bins keep each temporary within
# the 128 KiB above which glibc malloc maps fresh pages for every array
_SCAN_BLOCK = 4


def _nnls(gram: np.ndarray, rhs: np.ndarray, yy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched non-negative least squares from the normal equations.

    gram (m, k, k), rhs (m, k), yy (m,) the weighted data norm.  Every
    support is solved by Cramer's rule, embedded in a k x k system with
    identity off the support; each amplitude in a support must buy more than
    1e-12 yy of cost, so one that is zero within rounding comes out exactly
    zero.  Returns the amplitudes (m, k) and the costs (m,).
    """
    k = rhs.shape[1]
    masks = _SUPPORTS[k]
    systems = np.where(masks[:, :, None] & masks[:, None, :], gram[:, None], np.eye(k) * ~masks[:, :, None])
    sub_rhs = np.where(masks, rhs[:, None], 0.0)
    mats = np.repeat(systems[:, :, None], k + 1, axis=2)
    for i in range(k):
        mats[:, :, i + 1, :, i] = sub_rhs
    with np.errstate(all="ignore"):
        dets = np.linalg.det(mats)
        sol = dets[..., 1:] / dets[..., :1]
        gain = np.sum(sol * sub_rhs, axis=-1)
        feasible = np.isfinite(gain) & np.all(sol >= 0.0, axis=-1)
        score = np.where(feasible, gain - 1e-12 * np.abs(yy)[:, None] * masks.sum(axis=1), -np.inf)
    best = np.argmax(score, axis=1)
    rows = np.arange(rhs.shape[0])
    return sol[rows, best], 0.5 * (yy - gain[rows, best])


def _profile_g(cost, log_g: np.ndarray, step_costs: list) -> float:
    """Coupling minimizing cost(g): scan the log-spaced nodes, then rescan
    8 nodes between the best node's neighbours until they are 1e-5 apart."""
    best, g_best = math.inf, math.exp(log_g[0])
    while True:
        g = np.exp(log_g)
        costs = np.concatenate([cost(g[i : i + _SCAN_BLOCK]) for i in range(0, g.size, _SCAN_BLOCK)])
        i = int(np.argmin(costs))
        if costs[i] < best:
            if math.isfinite(best):
                step_costs.append((best, float(costs[i])))
            best, g_best = float(costs[i]), float(g[i])
        if log_g[1] - log_g[0] < 1e-5:
            return g_best
        log_g = np.linspace(log_g[max(i - 1, 0)], log_g[min(i + 1, log_g.size - 1)], 8)


def fit_full_model(
    trace: SpectrumTrace,
    fixed: Mapping[str, float],
    free: Sequence[str] = DEFAULT_FREE,
    init: Mapping[str, float] | None = None,
    n_avg: float | None = None,
) -> FitResult:
    """Fit the exact output-spectrum model to a quanta-unit trace.

    `fixed` holds the pinned parameter values; `free` (default
    {n_m_T, n_c, g, n_add_eff}) are estimated.  Together they must cover the
    full parameter set of the model.  Free amplitudes are solved exactly, a
    free g is profiled, and freed kappa, gamma_m or delta_tilde go to
    `fit_weighted` starting from `init` (else 1.5 kappa_ex, 2 pi 10 Hz, 0).
    `at_bound` names the amplitudes held at zero by their non-negativity
    constraint and a g at or past an end of its scan.
    """
    if trace.unit is not SpectrumUnit.QUANTA:
        raise UnitError(f"full-model fit needs a quanta trace, got {trace.unit.value}")
    free = tuple(free)
    bad = set(free) - FREEABLE_PARAMS
    if bad:
        raise ParameterError(f"cannot free parameters: {sorted(bad)}")
    if len(set(free)) != len(free):
        raise ParameterError("duplicate names in free")
    overlap = set(free) & set(fixed)
    if overlap:
        raise ParameterError(f"parameters both fixed and free: {sorted(overlap)}")
    covered = set(free) | set(fixed)
    missing = set(FULL_MODEL_PARAMS) - covered
    if missing:
        raise ParameterError(f"model parameters neither fixed nor free: {sorted(missing)}")
    if n_avg is None:
        n_avg = float(trace.meta.get("n_avg", 1))
    if n_avg < 1.0:
        raise ParameterError(f"n_avg must be >= 1, got {n_avg!r}")

    delta = TWO_PI * trace.freq_hz - fixed["omega_m"]
    data = trace.values
    amps = tuple(name for name in free if name in _AMPLITUDES)
    shapes = tuple(name for name in free if name not in _AMPLITUDES)
    values = {"kappa": 1.5 * fixed["kappa_ex"], "gamma_m": TWO_PI * 10.0, "delta_tilde": 0.0,
              **{k: v for k, v in (init or {}).items() if k in shapes}, **fixed}
    # normal equations = coef (weighted Gram matrix of 1, A, B, data) coef^T:
    # one row per free amplitude, then data minus the fixed part of the model
    k = len(amps)
    coef = np.zeros((k + 1, 4))
    coef[-1] = [-0.5, 0.0, 0.0, 1.0]
    for j, name in enumerate(_AMPLITUDES):
        if name in amps:
            coef[amps.index(name), j] = 1.0
        else:
            coef[-1, j] -= values[name]

    def solve(vals: Mapping[str, float], g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Exact amplitudes (m, k) and costs (m,) under the weights 1/sigma^2, per coupling in g."""
        w = sigma**-2
        weighted = np.stack([w, w * data], axis=1)
        cav, mech = output_noise_basis(delta, g[:, None], *(vals[name] for name in _BASIS_ARGS[1:]))
        gram = np.empty((g.size, 4, 4))
        gram[:, 0, 0], gram[:, 0, 3] = weighted.sum(axis=0)
        gram[:, 3, 0], gram[:, 3, 3] = gram[:, 0, 3], weighted[:, 1] @ data
        gram[:, 1, ::3] = gram[:, ::3, 1] = cav @ weighted
        gram[:, 2, ::3] = gram[:, ::3, 2] = mech @ weighted
        gram[:, 1, 1] = np.einsum("ij,ij->i", cav * w, cav)
        gram[:, 1, 2] = gram[:, 2, 1] = np.einsum("ij,ij->i", cav * w, mech)
        gram[:, 2, 2] = np.einsum("ij,ij->i", mech * w, mech)
        normal = coef @ gram @ coef.T
        return _nnls(normal[:, :k, :k], normal[:, :k, k], normal[:, k, k])

    def solved(vals: dict) -> ModelParams:
        """Solve the free amplitudes into `vals` at its shape; the full parameter set."""
        vals.update(zip(amps, solve(vals, np.array([vals["g"]]))[0][0].tolist()))
        return ModelParams(**vals)

    def profile_cost(g: np.ndarray) -> np.ndarray:
        shape = (values["kappa"], values["gamma_m"], values["delta_tilde"])
        return np.where([_pole_margin(gi, *shape) > 0.0 for gi in g], solve(values, g)[1], np.inf)

    if "g" in free:  # 16 nodes per decade of g, from optical damping 4g^2/kappa = 1e-3 gamma_m to g = 10 kappa
        lo = math.log10(0.5 * math.sqrt(1e-3 * values["kappa"] * values["gamma_m"]))
        hi = math.log10(10.0 * values["kappa"])
        grid = nodes = np.log(np.logspace(lo, hi, int(math.ceil(16.0 * (hi - lo))) + 1))
    step_costs: list[tuple[float, float]] = []
    sigma = _sigma_from_model(data, n_avg)
    for passes in range(1, 5):  # IRLS: refresh the weights from the fitted model
        if "g" in free:
            values["g"] = _profile_g(profile_cost, grid, step_costs)
            # later passes rescan one node spacing either side of this optimum
            grid = math.log(values["g"]) + (nodes[1] - nodes[0]) * np.linspace(-1.0, 1.0, 8)
        model = output_noise_values(delta, solved(values))
        sigma, previous = _sigma_from_model(model, n_avg), sigma
        if np.max(np.abs(sigma - previous) / previous) < 1e-3:
            break
    res = None
    if set(shapes) - {"g"}:  # Gauss-Newton over the shape parameters of the projected model
        res = fit_weighted(
            lambda p: output_noise_values(delta, solved({**values, **dict(zip(shapes, p))})),
            data,
            [values[name] for name in shapes],
            [name != "delta_tilde" for name in shapes],
            shapes,
            n_avg=n_avg,
            scales=[values["kappa"] if name == "delta_tilde" else 1.0 for name in shapes],
        )
        values.update(zip(shapes, res.params.tolist()))
        model = output_noise_values(delta, solved(values))
        sigma = _sigma_from_model(model, n_avg)

    # Jacobian in the natural parameters: the amplitude columns are the
    # basis, shape columns its complex-step derivatives (exact to rounding)
    cav, mech = output_noise_basis(delta, *(values[name] for name in _BASIS_ARGS))
    columns = {"n_add_eff": np.ones_like(delta), "n_c": cav, "n_m_T": mech}
    for name in shapes:
        stepped = {**values, name: values[name] + 1e-20j}
        cav, mech = output_noise_basis(delta, *(stepped[arg] for arg in _BASIS_ARGS))
        columns[name] = (values["n_c"] * cav + values["n_m_T"] * mech).imag / 1e-20
    jac = np.column_stack([columns[name] for name in free]) / sigma[:, None]
    _check_degenerate(jac[:, [free.index(name) for name in amps]], amps)
    converged = res is None or res.converged
    covariance, sigmas, note = _covariance(jac, np.ones(len(free))) if converged else (None, None, "")
    flagged = {name for name in amps if values[name] == 0.0}
    if res is not None:
        flagged |= {name for name, hit in zip(shapes, res.at_bound) if hit}
    if "g" in free and not math.exp(nodes[0]) < values["g"] < math.exp(nodes[-1]):
        flagged.add("g")
    resid = (data - model) / sigma
    return FitResult(
        params={name: values[name] for name in free},
        sigmas=None if sigmas is None else dict(zip(free, sigmas.tolist())),
        residual_rms=math.sqrt(float(resid @ resid) / data.size),
        converged=converged,
        n_iter=len(step_costs) + (res.n_iter if res else 0),
        param_names=free,
        covariance=covariance,
        at_bound=tuple(name for name in free if name in flagged),
        step_costs=tuple(step_costs) + (tuple(res.step_costs) if res else ()),
        message=f"separable fit: {passes} IRLS passes" + (f"; {res.message}" if res else "") + note,
    )


# --- temperature-sweep calibration of G ------------------------------------

@dataclass(frozen=True)
class CalibrationPoint:
    temperature: float
    occupancy: float
    area: float
    area_sigma: float
    excluded: bool = False


@dataclass(frozen=True)
class CalibrationResult:
    """Coupling strength from the thermal-noise area vs occupancy regression."""

    G: float
    G_sigma: float
    linearity_r2: float
    intercept_quanta: float
    slope: float
    slope_sigma: float
    points: tuple[CalibrationPoint, ...]
    warnings: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.G_sigma > 0.0:
            raise ParameterError("G_sigma must be > 0")
        if not -1e-12 <= self.linearity_r2 <= 1.0 + 1e-12:
            raise ParameterError(f"r^2 out of [0, 1]: {self.linearity_r2!r}")

    def to_json(self, indent: int | None = 2) -> str:
        payload = asdict(self)
        payload["points"] = [asdict(p) for p in self.points]
        payload["warnings"] = list(self.warnings)
        return json.dumps(payload, indent=indent)


def _weighted_line(x: np.ndarray, y: np.ndarray, w: np.ndarray):
    """Weighted straight-line fit; returns slope, intercept, their sigmas, r^2."""
    sw = float(np.sum(w))
    xm = float(np.sum(w * x)) / sw
    ym = float(np.sum(w * y)) / sw
    sxx = float(np.sum(w * (x - xm) ** 2))
    if sxx <= 0.0:
        raise ParameterError("calibration abscissa is degenerate")
    slope = float(np.sum(w * (x - xm) * (y - ym))) / sxx
    intercept = ym - slope * xm
    resid = y - (slope * x + intercept)
    dof = max(x.size - 2, 1)
    chi2 = float(np.sum(w * resid * resid))
    # scale parameter errors by sqrt(chi2/dof) so under/over-stated point
    # sigmas do not distort the quoted uncertainty
    scale2 = chi2 / dof
    slope_sigma = math.sqrt(scale2 / sxx)
    intercept_sigma = math.sqrt(scale2 * (1.0 / sw + xm * xm / sxx))
    ss_tot = float(np.sum(w * (y - ym) ** 2))
    r2 = 1.0 - chi2 / ss_tot if ss_tot > 0.0 else 1.0
    return slope, intercept, slope_sigma, intercept_sigma, r2, resid


def calibrate_coupling(
    sweep: Sequence[tuple[float, SpectrumTrace]],
    device: DeviceParams,
    drive: DriveConfig,
) -> CalibrationResult:
    """Extract G from thermal-noise areas measured across bath temperatures.

    Per-trace sideband areas (raw power units) regress linearly on the Bose
    occupancy at each cryostat temperature; the slope equals the
    detected-power equivalent of the equipartition area x_zp^2(2n+1), which
    pins G given the drive power reaching the output.  Points more than 5
    sigma off the line are excluded and the regression repeated.
    """
    if len(sweep) < 4:
        raise ParameterError(f"need at least 4 temperatures, got {len(sweep)}")
    warnings_: list[str] = []

    n_d = drive.photons(device)
    g = coupling_rate(device.coupling, device.mech, n_d)
    _, _, gamma_opt = sideband_rates(
        g, device.cavity.kappa, drive.detuning, device.mech.omega_m
    )
    if gamma_opt > 0.1 * device.mech.gamma_m:
        warnings_.append(
            "calibration drive is not weak: radiation-pressure damping alters the areas"
        )

    temps = []
    occup = []
    areas = []
    area_sigmas = []
    for temperature, trace in sweep:
        summary = peak_area(trace)
        temps.append(temperature)
        occup.append(bose_occupancy(temperature, device.mech.omega_m))
        areas.append(summary.area)
        area_sigmas.append(summary.area_sigma)

    x = np.asarray(occup)
    y = np.asarray(areas)
    s = np.asarray(area_sigmas)
    weights = 1.0 / (s * s) if np.all(s > 0.0) else np.ones_like(y)

    include = np.ones(x.size, dtype=bool)
    while True:
        slope, intercept, slope_sigma, intercept_sigma, r2, resid = _weighted_line(
            x[include], y[include], weights[include]
        )
        # robust (median-based) residual scale so one wild point cannot
        # widen its own exclusion fence
        resid_scale = 1.4826 * float(np.median(np.abs(resid - np.median(resid))))
        if resid_scale <= 0.0 or np.sum(include) <= 4:
            break
        full_resid = y - (slope * x + intercept)
        outliers = include & (np.abs(full_resid) > 5.0 * resid_scale)
        if not np.any(outliers):
            break
        worst = int(np.argmax(np.where(outliers, np.abs(full_resid), -np.inf)))
        include[worst] = False
        warnings_.append(f"excluded >5 sigma outlier at T={temps[worst]:.4g} K")

    if slope <= 0.0:
        raise ParameterError("no thermal response: regression slope is not positive")
    if r2 < 0.99:
        warnings_.append(f"r^2={r2:.4f} < 0.99: mechanical mode may not thermalize")
    if intercept < -2.0 * intercept_sigma:
        warnings_.append("fitted intercept negative beyond 2 sigma")

    power_in = drive.power_in if drive.power_in is not None else drive_power_for_photons(
        n_d, drive, device.cavity
    )
    power_out = transmitted_power(power_in, device.cavity, drive.detuning)
    x_zp = zero_point_motion(device.mech)
    kappa = device.cavity.kappa
    # slope = (G kappa_ex / (kappa omega_m))^2 * P_o * x_zp^2, reduced by the
    # residual radiation-pressure cooling factor gamma_m/gamma_m'; undo that
    # factor with a short fixed-point pass (G enters it only through g0)
    G = (kappa * device.mech.omega_m / device.cavity.kappa_ex) * math.sqrt(
        slope / (power_out * x_zp * x_zp)
    )
    for _ in range(3):
        g_cal = G * x_zp * math.sqrt(n_d)
        _, _, gamma_opt_cal = sideband_rates(
            g_cal, kappa, drive.detuning, device.mech.omega_m
        )
        cooling_factor = device.mech.gamma_m / (device.mech.gamma_m + gamma_opt_cal)
        G = (kappa * device.mech.omega_m / device.cavity.kappa_ex) * math.sqrt(
            slope / (cooling_factor * power_out * x_zp * x_zp)
        )
    G_sigma = G * slope_sigma / (2.0 * slope)

    points = tuple(
        CalibrationPoint(
            temperature=t, occupancy=o, area=a, area_sigma=asig, excluded=not inc
        )
        for t, o, a, asig, inc in zip(temps, occup, areas, area_sigmas, include)
    )
    return CalibrationResult(
        G=G,
        G_sigma=G_sigma,
        linearity_r2=r2,
        intercept_quanta=intercept / slope,
        slope=slope,
        slope_sigma=slope_sigma,
        points=points,
        warnings=tuple(warnings_),
    )


# --- cooling-sweep analysis --------------------------------------------------

@dataclass(frozen=True)
class SweepPoint:
    """One converged sweep point: physics summary plus fit provenance."""

    point: CoolingPoint
    n_m_sigma: float
    n_c_sigma: float
    n_imp: float
    g_rel_deviation: float
    fit: FitResult


@dataclass(frozen=True)
class CoolingCurve:
    """Occupancy vs drive strength assembled from per-power spectral fits.

    `product_bound` is the running minimum of 4 sqrt(n_imp (n_m + 1/2)) in
    units of hbar; it is an upper bound on the imprecision-backaction
    product, not a backaction measurement.
    """

    points: tuple[SweepPoint, ...]
    excluded: tuple[tuple[float, str], ...] = ()

    def __post_init__(self) -> None:
        n_ds = [sp.point.n_d for sp in self.points]
        if any(b <= a for a, b in zip(n_ds, n_ds[1:])):
            raise ParameterError("sweep points must have strictly increasing n_d")
        if any(not sp.fit.converged for sp in self.points):
            raise ParameterError("cooling curves carry converged fits only")

    @property
    def product_bound(self) -> float:
        products = [
            4.0 * math.sqrt(sp.n_imp * (sp.point.n_m + 0.5)) for sp in self.points
        ]
        return min(products) if products else math.nan

    def csv(self) -> str:
        lines = ["n_d,g_hz,gamma_total_hz,n_m,n_m_sigma,n_c,n_c_sigma,n_imp"]
        for sp in self.points:
            pt = sp.point
            row = (
                pt.n_d,
                pt.g / TWO_PI,
                pt.gamma_total / TWO_PI,
                pt.n_m,
                sp.n_m_sigma,
                pt.n_c,
                sp.n_c_sigma,
                sp.n_imp,
            )
            lines.append(",".join(f"{v:.17g}" for v in row))
        return "\n".join(lines) + "\n"

    def to_json(self, indent: int | None = 2) -> str:
        payload = {
            "points": [
                {
                    "n_d": sp.point.n_d,
                    "g": sp.point.g,
                    "gamma_opt": sp.point.gamma_opt,
                    "gamma_total": sp.point.gamma_total,
                    "n_m": sp.point.n_m,
                    "n_m_sigma": sp.n_m_sigma,
                    "n_c": sp.point.n_c,
                    "n_c_sigma": sp.n_c_sigma,
                    "n_imp": sp.n_imp,
                    "g_rel_deviation": sp.g_rel_deviation,
                    "fit_converged": sp.fit.converged,
                    "fit_residual_rms": sp.fit.residual_rms,
                }
                for sp in self.points
            ],
            "excluded": [{"n_d": nd, "reason": reason} for nd, reason in self.excluded],
            "product_bound": self.product_bound,
        }
        return json.dumps(payload, indent=indent)


def analyze_cooling_sweep(
    sweep: Sequence[tuple[float, SpectrumTrace]],
    device: DeviceParams,
    thermal: ThermalState,
    free: Sequence[str] = DEFAULT_FREE,
) -> CoolingCurve:
    """Fit every drive power of a cooling sweep and assemble the curve.

    Per point: full-model fit (kappa, delta_tilde etc. pinned from the
    device), cooled occupancy from the fitted bath parameters, imprecision
    quanta from the fitted chain noise, and the relative deviation of the
    fitted g from the sqrt(n_d) prediction.  Two per-point identifiability
    guards adapt the free set: n_c is pinned to the thermal state when the
    trace window cannot resolve the cavity mode, and g is pinned to the
    calibrated sqrt(n_d) value when the predicted radiation-pressure
    broadening is below 10% of gamma_m (only the product g^2 n_m_T is
    measurable there).  A point whose fit raises, does not converge, or
    whose derived quantities fail is excluded with a diagnostic; the rest
    of the curve is still returned.  n_m_sigma propagates the fit
    covariance through the analytic gradient of `final_occupancy`.
    """
    cavity, mech = device.cavity, device.mech
    # device values and thermal occupancies: pinned, or the start when freed
    pinned = asdict(ModelParams.for_device(device, g=0.0, n_m_T=thermal.n_m_T, n_c=thermal.n_c))
    del pinned["g"], pinned["n_add_eff"]
    fixed = {k: v for k, v in pinned.items() if k not in free}
    init = {k: v for k, v in pinned.items() if k in free}

    entries = sorted(sweep, key=lambda item: item[0])
    points: list[SweepPoint] = []
    excluded: list[tuple[float, str]] = []
    for n_d, trace in entries:
        g_pred = coupling_rate(device.coupling, mech, n_d)
        point_free = tuple(free)
        point_fixed = dict(fixed)
        # n_c rides on the kappa-wide cavity mode; a window that does not
        # resolve it leaves n_c degenerate with n_add_eff, so pin it there
        halfspan_rad = math.pi * (trace.freq_hz[-1] - trace.freq_hz[0])
        if "n_c" in point_free and halfspan_rad < 0.5 * cavity.kappa:
            point_free = tuple(name for name in point_free if name != "n_c")
            point_fixed["n_c"] = thermal.n_c
        # below ~10% linewidth broadening the spectrum only constrains the
        # product g^2 n_m_T; pin g to the calibrated sqrt(n_d) prediction
        _, _, gamma_opt_pred = sideband_rates(g_pred, cavity.kappa, -mech.omega_m, mech.omega_m)
        g_was_fitted = "g" in point_free
        if g_was_fitted and gamma_opt_pred < 0.1 * mech.gamma_m:
            point_free = tuple(name for name in point_free if name != "g")
            point_fixed["g"] = g_pred
            g_was_fitted = False
        try:  # per-point failures must not kill the sweep
            fit = fit_full_model(trace, point_fixed, free=point_free, init=init)
            if not fit.converged:
                excluded.append((n_d, f"fit did not converge: {fit.message}"))
                continue
            full = dict(point_fixed)
            full.update(fit.params)
            g_fit, kappa, gamma_m = full["g"], full["kappa"], full["gamma_m"]
            _, _, gamma_opt = sideband_rates(g_fit, kappa, -mech.omega_m, mech.omega_m)
            state = ThermalState(n_m_T=full["n_m_T"], n_c=full["n_c"])
            grad = final_occupancy_gradient(state, g_fit, kappa, gamma_m)
            vec = np.array([grad.get(name, 0.0) for name in fit.param_names])  # delta method
            n_m_sigma = math.nan if fit.covariance is None else math.sqrt(max(vec @ fit.covariance @ vec, 0.0))
            points.append(
                SweepPoint(
                    point=CoolingPoint(
                        n_d=n_d,
                        g=g_fit,
                        gamma_opt=gamma_opt,
                        gamma_total=total_linewidth(gamma_m, gamma_opt),
                        n_m=final_occupancy(state, g_fit, kappa, gamma_m),
                        n_c=full["n_c"],
                    ),
                    n_m_sigma=n_m_sigma,
                    n_c_sigma=fit.sigmas.get("n_c", math.nan) if fit.sigmas is not None else math.nan,
                    n_imp=imprecision_from_chain(
                        g_fit, kappa, full["kappa_ex"], gamma_m, full["beta"], full["n_add_eff"]
                    ),
                    g_rel_deviation=(g_fit - g_pred) / g_pred if g_was_fitted and g_pred > 0.0 else math.nan,
                    fit=fit,
                )
            )
        except Exception as exc:
            excluded.append((n_d, f"{type(exc).__name__}: {exc}"))
    return CoolingCurve(points=tuple(points), excluded=tuple(excluded))
