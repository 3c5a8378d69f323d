"""Inverse problems: spectral fits, coupling calibration, cooling-sweep analysis.

The full-model fit is separable (variable projection, Golub & Pereyra 1973):
the spectrum is linear in n_add_eff, n_c and n_m_T, which are solved exactly
by weighted NNLS for every trial shape; g is profiled on a log scan from
4g^2/kappa = 1e-3 gamma_m to 10 kappa, refined by bracketed parabolic steps
of three-node stencils until the parabola predicts a gain below 1e-5 in
cost (chi^2 / 2).  One IRLS loop refreshes the sigmas
model/sqrt(n_avg) and profiles g again from its last optimum.  Each pass
solves its amplitudes from its normal equations at its fitted g and forms
the basis row s there once (`spectra._basis_row`, the arithmetic of the
normal equations): it gives the pass's model and, after the last pass, J's
amplitude columns, so the fit never evaluates `output_noise_values`.  A freed
kappa, gamma_m or delta_tilde is profiled the same way one level out: each
pass scans it afresh, every node of that scan profiling g at its own shape,
so each nonlinear parameter has a profile, and a shape whose 95% set
reaches an end of its scan is flagged.  The covariance is inv(J^T J) in the
natural parameters, the columns of g and a shape complex steps of the
basis; one J^T J serves it and the degeneracy check.  One
`ModelParams` carries the pinned values and the shape starts.  kappa,
delta_tilde and gamma_m stay fixed by default because they are measured
independently (a probe tone at each drive power, the low-drive line width),
but any subset of {g, n_m_T, n_c, n_add_eff} and at most one of the three
may be freed.
"""
from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass
from typing import NamedTuple, Sequence

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
from .errors import DegenerateFitError, ParameterError, UnitError
from .limits import imprecision_from_chain
from .spectra import (
    ModelParams,
    SpectrumTrace,
    SpectrumUnit,
    _basis_factors,
    _basis_row,
    _basis_terms,
    _fit_line,
    _sigma_from_model,
    noise_floor,
    output_noise_values,  # uncalled; benchmarks/tracing.py wraps this name until ROADMAP item 6 moves it
    peak_area,
)

_AMPLITUDES = ("n_add_eff", "n_c", "n_m_T")  # the model is linear in these
_SHAPES = ("kappa", "gamma_m", "delta_tilde")  # at most one of these is freed
FREEABLE_PARAMS = frozenset(("g",) + _AMPLITUDES + _SHAPES)
DEFAULT_FREE = ("n_m_T", "n_c", "g", "n_add_eff")


@dataclass(frozen=True)
class FitResult:
    """Estimates, 1-sigma errors and diagnostics of one spectral fit.

    sigmas and covariance are None when J^T J is singular or a sigma is not
    finite; covariance is ordered like params.
    """

    params: dict[str, float]
    sigmas: dict[str, float] | None
    residual_rms: float
    n_iter: int
    covariance: np.ndarray | None = None
    at_bound: tuple[str, ...] = ()
    step_costs: tuple[tuple[float, float], ...] = ()
    message: str = ""

    def to_json(self) -> str:
        payload = {
            "params": self.params,
            "sigmas": self.sigmas,
            "residual_rms": self.residual_rms,
            "n_iter": self.n_iter,
            "at_bound": list(self.at_bound),
            "message": self.message,
        }
        return json.dumps(payload, indent=2)


# --- Lorentzian peak fit -------------------------------------------------------

def lorentzian_model(freq_hz: np.ndarray, center: float, fwhm: float, area: float, floor: float) -> np.ndarray:
    """floor + Lorentzian with unit-normalized area (peak height 2 area/(pi fwhm))."""
    x = 2.0 * (freq_hz - center) / fwhm
    return floor + (2.0 * area / (math.pi * fwhm)) / (1.0 + x * x)


def fit_lorentzian(trace: SpectrumTrace) -> FitResult:
    """Fit floor + Lorentzian to a single peak: the line fit of `peak_area`, with
    the covariance inv(J^T J) under the sigmas model/sqrt(n_avg), not rescaled
    by chi^2.  Raises PeakDetectionError as `peak_area` does."""
    peak, fisher, chi2, steps, passes = _fit_line(trace)
    covariance = np.linalg.inv(fisher)
    names = ("center_hz", "fwhm_hz", "area", "floor")
    return FitResult(
        params=dict(zip(names, (peak.center_hz, peak.fwhm_hz, peak.area, peak.floor))),
        sigmas=dict(zip(names, np.sqrt(np.diag(covariance)).tolist())),
        residual_rms=math.sqrt(chi2 / trace.freq_hz.size),
        n_iter=steps,
        covariance=covariance,
        message=f"line fit: {passes} IRLS passes, {steps} Gauss-Newton steps",
    )


# --- full output-spectrum fit ----------------------------------------------

_BASIS_ARGS = ("g", "kappa", "kappa_ex", "gamma_m", "delta_tilde", "beta")  # of output_noise_basis
# couplings solved together: on a 2-core Xeon the solve takes 17-29 us per
# coupling at 16 rows of 4096 bins against 44-53 us at 4 rows (best of 30),
# and no less at 32 or 64 rows, whose larger s only raises the peak memory
_SCAN_BLOCK = 16


def _supports(k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every support of k <= 3 amplitudes: its 1e-12 cost margin per
    amplitude, (2^k, 1), and the indices into [normal ((k + 1)^2), 0, 1] of
    the entries of Cramer's k + 1 matrices per support, (3, 3, 2^k, k + 1):
    the system, embedded with identity off the support, then that system
    with column i replaced by the support's right-hand side, each padded to
    3 x 3 with identity."""
    masks = list(itertools.product((False, True), repeat=k))
    size = k + 1  # of the normal equations: k amplitudes, then the data
    zero, one = size * size, size * size + 1

    def entry(mask, c, r, j):  # of row r, column j of Cramer matrix c
        if r < k and j < k and c == j + 1:
            return r * size + k if mask[r] else zero
        if r < k and j < k and mask[r] and mask[j]:
            return r * size + j
        return one if r == j else zero

    index = [[[[entry(mask, c, r, j) for c in range(k + 1)] for mask in masks] for j in range(3)] for r in range(3)]
    return 1e-12 * np.array([[sum(mask)] for mask in masks], dtype=float), np.array(index, dtype=np.intp)


_SUPPORTS = [_supports(k) for k in range(4)]
# where each Gram entry of 1, A, B, d sits in the row of Gram entries:
# the sums of w, w d and w d^2, then s @ lin, then s^2 @ quad
_GRAM_ENTRY = np.array([[0, 3, 4, 1], [3, 7, 8, 5], [4, 8, 9, 6], [1, 5, 6, 2]])
# the power of c = 4 gamma_m g^2 that scales each product of s @ lin, s^2 @ quad
_C_POWER = np.array([0.0, 1.0, 0.0, 1.0, 0.0, 1.0, 2.0])


def _nnls(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched non-negative least squares from the normal equations.

    normal (m, k + 1, k + 1): the weighted Gram matrices of the k amplitude
    columns and the data column, whose last entry is the weighted data norm
    yy.  Every support is solved by Cramer's rule, embedded in a k x k
    system with identity off the support; the determinants of its 3 x 3
    padded matrices are their cofactor expansions along the first row.
    Each amplitude in a support must buy more than 1e-12 yy of cost, so one
    that is zero within rounding comes out exactly zero.  Returns the
    amplitudes (m, k) and the costs (m,).
    """
    m, size = normal.shape[:2]
    k = size - 1
    margin, index = _SUPPORTS[k]
    flat = np.empty((size * size + 2, m))  # (entries, m), like every array below
    flat[:-2] = normal.reshape(m, -1).T
    flat[-2:] = ((0.0,), (1.0,))
    yy = flat[size * size - 1]
    (p00, p01, p02), (p10, p11, p12), (p20, p21, p22) = flat[index]
    with np.errstate(all="ignore"):
        dets = p00 * (p11 * p22 - p12 * p21) - p01 * (p10 * p22 - p12 * p20) + p02 * (p10 * p21 - p11 * p20)
        sol = dets[:, 1:] / dets[:, :1]  # exactly 0 off the support, whose Cramer matrices have a zero row
        gain = np.add.reduce(sol * flat[k : k * size : size], axis=1)
        feasible = np.isfinite(gain) & (sol >= 0.0).all(axis=1)
        score = np.where(feasible, gain - margin * np.abs(yy), -np.inf)
    best = np.argmax(score, axis=0)
    rows = np.arange(m)
    return sol[best, :, rows], 0.5 * (yy - gain[best, rows])


def _fold(coef: np.ndarray) -> np.ndarray:
    """The map from the 10 Gram entries of 1, A, B, d to the normal equations
    coef (Gram matrix) coef^T, (10, (k + 1)^2): fold[e] sums coef[:, i]
    coef[:, j]^T over the positions (i, j) of entry e."""
    return np.einsum("pi,qj,ije->epq", coef, coef, _GRAM_ENTRY[:, :, None] == np.arange(10)).reshape(10, -1)


class _Pass:
    """Normal equations of the free amplitudes at one shape under one set of
    IRLS weights w; each coupling adds two products over the bins.  `shape`
    holds the g-independent factors P, Q^2, K, 4 beta kappa_ex and 4 gamma_m
    of `spectra._basis_factors`, so that A = s K and B = 4 gamma_m g^2 s.
    `fold` is `_fold(coef)`, which depends only on the fit's free set and
    pinned amplitudes, so that a fit builds it once."""

    def __init__(self, shape: tuple, w: np.ndarray, data: np.ndarray, fold: np.ndarray) -> None:
        self.shape, k, self.mech = shape, shape[2], shape[4]
        # with c = 4 gamma_m g^2: s @ lin = sums of w A, w B / c, w A d, w B d / c
        # and s^2 @ quad = sums of w A^2, w A B / c, w B^2 / c^2; the seven
        # weighted columns are written as rows of one array, so that each
        # column of its transpose is contiguous, which BLAS reads twice as fast
        cols = np.empty((7, w.size))
        wk, wd = np.multiply(w, k, out=cols[0]), np.multiply(w, data, out=cols[3])
        np.multiply(wd, k, out=cols[2])
        np.multiply(wk, k, out=cols[4])
        cols[1] = cols[6] = w
        cols[5] = wk
        self.lin, self.quad = cols[:4].T, cols[4:].T
        # normal equations = entries @ fold
        self.base = np.array([np.sum(w), np.sum(wd), wd @ data]) @ fold[:3]  # the constant entries
        self.fold, self.size = fold[3:], math.isqrt(fold.shape[1])

    def gram(self, g: np.ndarray) -> np.ndarray:
        """Normal equations (m, k + 1, k + 1) per coupling in g: the weighted
        Gram matrices of 1, A, B and the data, mapped by coef."""
        g2 = g * g
        s = _basis_row(self.shape, g[:, None])
        lin = s @ self.lin
        entries = np.concatenate((lin, np.square(s, out=s) @ self.quad), axis=1)
        entries *= (self.mech * g2)[:, None] ** _C_POWER
        return (self.base + entries @ self.fold).reshape(g.size, self.size, self.size)

    def cost(self, g: np.ndarray) -> np.ndarray:
        """Profile cost per coupling in g: the normal equations in blocks of
        `_SCAN_BLOCK` couplings, which bounds their memory, then one NNLS
        over all of them; every g >= 0 gives finite rows (see
        `spectra._basis_row`)."""
        return _nnls(np.concatenate([self.gram(g[i : i + _SCAN_BLOCK]) for i in range(0, g.size, _SCAN_BLOCK)]))[1]


# a stencil's minimum half-width, and the width of a one-sided bracket at
# which a best node on a scan end stays there, in the scan's coordinate:
# ln g, ln kappa, ln gamma_m or delta_tilde / kappa
_PROFILE_TOL = 1e-5
# a bracketed refinement ends once the parabola about the best node predicts
# a gain below this, in cost units (chi^2 / 2 under the pass's weights): on a
# quadratic profile, a step of sqrt(2e-5) = 4.5e-3 sigma.  An outer shape
# profile's node costs are inner g profiles' ends, each within about this of
# its own minimum, so the outer stop sits at the inner profiles' own error
_GAIN_TOL = 1e-5
# half-width of a warm start's first call, in ln g: between IRLS passes the
# optimum moves 4e-4 at the median and 2.3e-3 at p90 of the cooling-sweep fits
_WARM_STEP = 1e-3


def _vertex(x: list, f: list) -> tuple[float, float]:
    """Minimum u of the parabola through three nodes x0 < x1 < x2 and the
    gain it predicts, min(f) - parabola(u); both nan when there are fewer
    nodes or the parabola is not convex."""
    if len(x) < 3:
        return math.nan, math.nan
    (x0, x1, x2), (f0, f1, f2) = x, f
    p = (x1 - x0) ** 2 * (f1 - f2) - (x1 - x2) ** 2 * (f1 - f0)
    q = (x1 - x0) * (f1 - f2) - (x1 - x2) * (f1 - f0)  # < 0 when convex
    if not q < 0.0:
        return math.nan, math.nan
    u = x1 - 0.5 * p / q
    curvature = -q / ((x1 - x0) * (x2 - x1) * (x2 - x0))  # half the second derivative
    return u, min(f) - f1 + curvature * (u - x1) ** 2


def _profile_g(cost, scan: np.ndarray, step_costs: list, start: float | None = None) -> tuple[float, float, int, int]:
    """The node x minimizing cost(x) over the range of `scan`, its cost, and
    the numbers of nodes costed and of cost calls.  `cost` receives nodes
    of the scan's own coordinate: ln g for g, or a freed shape's.

    The first call costs the scan's nodes or, warm-started from the node
    `start` of an earlier IRLS pass, start and start +- 1e-3.  Every later
    call costs a stencil u, u +- d around a vertex u of the parabola through
    the best costed node b and its two nearest costed nodes.  While b is the
    lowest or highest costed node but not a scan end, the minimum is not
    bracketed and u steps outward: to the vertex, at most 10 times those
    three nodes' span from b, or twice that span when the parabola is not
    convex, with d = |u - b|/2.  Once b's neighbours bracket the minimum,
    parabolic steps (Brent 1973) take d = max(|u - b|/4, 1e-5) until the
    parabola predicts a gain below `_GAIN_TOL` in cost units.  When the
    vertex is not strictly inside the bracket, or moves at least half as far
    from b as the step before last did (Brent's progress test: parabolas
    creep on lopsided profiles), the step costs the quarter points of the
    bracket's larger side instead.  No node leaves the scan's range: a best
    node at a scan end stays there unless a node inside costs less.  The
    gain stop does not apply there; the refinement ends on a scan end once
    the parabola, with three nodes, puts no minimum strictly inside the
    scan, or once the one-sided bracket is at most 2e-5 wide.
    """
    lo, hi = float(scan[0]), float(scan[-1])
    if start is None:
        xs = scan.tolist()
    else:
        xs = sorted({min(max(x, lo), hi) for x in (start - _WARM_STEP, start, start + _WARM_STEP)})
    fs = cost(np.array(xs)).tolist()
    nodes, calls, moves = len(xs), 1, [math.inf, math.inf]  # |u - b| of every bracketed step
    while True:
        i = fs.index(min(fs))
        k = max(i - 2, 0)  # nodes more than two places from b take no further part
        xs, fs, i = xs[k : i + 3], fs[k : i + 3], i - k
        b, fb = xs[i], fs[i]
        a, c = xs[max(i - 1, 0)], xs[min(i + 1, len(xs) - 1)]  # at a scan end the bracket has one side
        near = sorted(sorted(range(len(xs)), key=lambda j: abs(xs[j] - b))[:3])  # b and its two nearest costed nodes
        (u, gain), span = _vertex([xs[j] for j in near], [fs[j] for j in near]), xs[near[-1]] - xs[near[0]]
        if a == b > lo or b == c < hi:  # not bracketed: step outward, up to a scan end
            side = 1.0 if b == c else -1.0
            out = side * (u - b)  # nan when not convex
            u = b + side * (min(out, 10.0 * span) if out > 0.0 else 2.0 * span)
            d = max(abs(u - b) / 2.0, _PROFILE_TOL)  # a profile that keeps falling doubles the step
            trial = {min(max(x, lo), hi) for x in (u - d, u, u + d)}
        elif a < b < c and gain < _GAIN_TOL:  # bracketed, and a further step gains too little
            break
        elif (a == b or b == c) and (c - a <= 2.0 * _PROFILE_TOL or len(near) == 3 and not a < u < c):
            break  # on a scan end, with no minimum strictly inside the scan or none resolved
        else:
            if a < u < c and abs(u - b) < 0.5 * moves[-2]:
                moves.append(abs(u - b))
                d = max(abs(u - b) / 4.0, _PROFILE_TOL)
            else:  # the quarter points of the larger side
                u = 0.5 * (a + b) if b - a > c - b else 0.5 * (b + c)
                moves.append(abs(u - b))
                d = 0.5 * abs(u - b)
            trial = {x for x in (u - d, u, u + d) if a < x < c}
        trial = sorted(trial - set(xs))
        if not trial:
            break
        f_trial = cost(np.array(trial)).tolist()
        nodes, calls = nodes + len(trial), calls + 1
        if min(f_trial) < fb:
            step_costs.append((fb, min(f_trial)))
        xs, fs = (list(v) for v in zip(*sorted(zip(xs + trial, fs + f_trial))))
    return b, fb, nodes, calls


def _log_scan(lo: float, hi: float) -> np.ndarray:
    """ln of a scan from lo to hi at 16 nodes per decade."""
    lo, hi = math.log10(lo), math.log10(hi)
    return np.log(np.logspace(lo, hi, int(math.ceil(16.0 * (hi - lo))) + 1))


def _check_free(free: Sequence[str]) -> tuple[str, ...]:
    """`free` as a tuple of distinct freeable names with at most one shape."""
    free = tuple(free)
    bad = set(free) - FREEABLE_PARAMS
    if bad:
        raise ParameterError(f"cannot free parameters: {sorted(bad)}")
    if len(set(free)) != len(free):
        raise ParameterError("duplicate names in free")
    shapes = [name for name in free if name in _SHAPES]
    if len(shapes) > 1:
        raise ParameterError(
            f"cannot free {' and '.join(shapes)} together: pin kappa and delta_tilde to the probe-tone "
            "measurement at each drive power and gamma_m to the low-drive line width, and free at most one"
        )
    return free


COMPLEX_STEP = 1e-20  # of the covariance's shape column (Squire & Trapp, SIAM Rev. 40, 110 (1998))
_DELTA_95 = 1.92  # half the 95% quantile of chi^2 with one degree of freedom, in cost (chi^2 / 2)


def _check_degenerate(jtj: np.ndarray, names: Sequence[str]) -> None:
    """Reject exactly zero columns of J and (scale-invariant) collinear
    pairs, read from J^T J."""
    norms = np.sqrt(np.diag(jtj))
    zero = [name for name, nrm in zip(names, norms) if nrm == 0.0]
    if zero:
        raise DegenerateFitError((zero[0], zero[0]), f"parameter {zero[0]!r} has no measurable effect on the model here")
    for i, j in itertools.combinations(range(len(names)), 2):
        if abs(float(jtj[i, j]) / (norms[i] * norms[j])) > 1.0 - 1e-8:
            raise DegenerateFitError((names[i], names[j]))


def _covariance(jtj: np.ndarray):
    """inv(J^T J) and its sigmas; both None when J^T J is singular or a
    sigma is not finite."""
    try:
        cov = np.linalg.inv(jtj)
    except np.linalg.LinAlgError:
        return None, None
    with np.errstate(invalid="ignore"):
        sigmas = np.sqrt(np.diag(cov))
    return (cov, sigmas) if np.all(np.isfinite(sigmas)) else (None, None)


class ShapeProfile(NamedTuple):
    """The outer profile of one freed shape at one IRLS pass's weights."""

    params: tuple[float, float]  # the scan node x at the outer minimum, and g there
    n_iter: int  # accepted outer steps, appended to the caller's step_costs
    bounded: bool  # the 95% set {cost - min <= 1.92} reaches neither end of the scan
    counts: tuple[int, int, int, int]  # the g profiles' nodes and cost calls, then the outer profile's


def fit_weighted(pass_at, scan: np.ndarray, g_scan: np.ndarray | None, g: float, step_costs: list) -> ShapeProfile:
    """Minimize the cost over one freed shape at one IRLS pass's weights.

    The outer profile is `_profile_g` over `scan`: `pass_at(x)` builds the
    normal equations at the shape of scan node x, and the node's cost is
    the minimum over g there, by `_profile_g` over `g_scan` warm-started
    from the ln g of the nearest node costed so far (the first node scans
    cold), or the cost at the pinned g when `g_scan` is None.
    """
    costed: dict[float, tuple[float | None, float]] = {}  # ln g and cost per outer node
    g_counts = [0, 0]

    def cost(xs: np.ndarray) -> np.ndarray:
        for x in xs.tolist():
            normal = pass_at(x)
            if g_scan is None:
                costed[x] = None, float(normal.cost(np.array([g]))[0])
                continue
            start = costed[min(costed, key=lambda node: abs(node - x))][0] if costed else None
            log_g, f, nodes, calls = _profile_g(lambda ln_g: normal.cost(np.exp(ln_g)), g_scan, [], start)
            g_counts[0], g_counts[1] = g_counts[0] + nodes, g_counts[1] + calls
            costed[x] = log_g, f
        return np.array([costed[x][1] for x in xs.tolist()])

    n_steps = len(step_costs)
    x, best, nodes, calls = _profile_g(cost, scan, step_costs)
    log_g = costed[x][0]
    ends = (costed[min(costed)][1], costed[max(costed)][1])  # the scan's end nodes
    return ShapeProfile(
        params=(x, g if log_g is None else math.exp(log_g)),
        n_iter=len(step_costs) - n_steps,
        bounded=min(ends) - best > _DELTA_95,
        counts=(*g_counts, nodes, calls),
    )


def fit_full_model(
    trace: SpectrumTrace,
    params: ModelParams,
    free: Sequence[str] = DEFAULT_FREE,
) -> FitResult:
    """Fit the exact output-spectrum model to a quanta-unit trace.

    `free` (default {n_m_T, n_c, g, n_add_eff}; at most one of kappa,
    gamma_m and delta_tilde) are estimated; `params` holds every other
    value, pinned, and the start of a freed shape, about which its outer
    scan is laid.  The values it holds for a free amplitude or a free g
    are not read: free amplitudes are solved exactly and a free g is
    profiled on its fixed scan.  With a shape freed, each IRLS pass
    profiles it by `fit_weighted`, g nested inside.
    `at_bound` names the amplitudes held at zero by their non-negativity
    constraint, a g at or past an end of its scan or with both amplitudes
    that carry it (n_c and n_m_T, free or pinned) at zero, and a freed
    shape whose 95% set {cost - min <= 1.92} on its scan reaches a scan
    end.  `n_iter` counts the accepted profile steps in `step_costs`: of
    the g profile, or of the outer profile when a shape is freed.
    `message` gives the IRLS passes and the numbers of couplings the g
    profiles costed and of their cost calls, then the same for a freed
    shape's outer profile and whether its last pass's 95% set is open.
    """
    if trace.unit is not SpectrumUnit.QUANTA:
        raise UnitError(f"full-model fit needs a quanta trace, got {trace.unit.value}")
    free = _check_free(free)
    n_avg = trace.n_avg
    delta = TWO_PI * trace.freq_hz - params.omega_m
    data = trace.values
    amps = tuple(name for name in free if name in _AMPLITUDES)
    freed = next((name for name in free if name in _SHAPES), None)
    values = dict(vars(params))
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
    fold = _fold(coef)

    scan = None
    if "g" in free:  # 16 nodes per decade of g, from optical damping 4g^2/kappa = 1e-3 gamma_m to g = 10 kappa
        scan = _log_scan(0.5 * math.sqrt(1e-3 * values["kappa"] * values["gamma_m"]), 10.0 * values["kappa"])
    if freed == "delta_tilde":  # delta_tilde / kappa on [-1, 1]
        outer, value_of = np.linspace(-1.0, 1.0, 33), lambda x: params.kappa * x
    elif freed is not None:  # ln kappa on [ln kappa_ex, ln 10 kappa], ln gamma_m over six decades
        lo, hi = (params.kappa_ex, 10.0 * params.kappa) if freed == "kappa" else (1e-3 * params.gamma_m, 1e3 * params.gamma_m)
        outer, value_of = _log_scan(lo, hi), math.exp
    step_costs: list[tuple[float, float]] = []
    counts = [0, 0, 0, 0]  # nodes and cost calls of the g profiles, then of a freed shape's
    start = None  # later passes warm-start the profile from the last g
    sigma = _sigma_from_model(data, n_avg)
    shape_of = lambda vals: _basis_factors(delta, *(vals[name] for name in _BASIS_ARGS[1:]))
    shape = shape_of(values)
    for passes in range(1, 5):  # IRLS: refresh the weights from the fitted model
        w = 1.0 / (sigma * sigma)
        if freed is not None:
            res = fit_weighted(
                lambda x: _Pass(shape_of({**values, freed: value_of(x)}), w, data, fold),
                outer, scan, values["g"], step_costs,
            )
            x, values["g"] = res.params
            values[freed] = value_of(x)
            counts = [n + m for n, m in zip(counts, res.counts)]
            shape = shape_of(values)
        normal = _Pass(shape, w, data, fold)
        if freed is None and scan is not None:
            start, _, costed, calls = _profile_g(lambda ln_g: normal.cost(np.exp(ln_g)), scan, step_costs, start)
            values["g"], counts[0], counts[1] = math.exp(start), counts[0] + costed, counts[1] + calls
        g = values["g"]
        values.update(zip(amps, _nnls(normal.gram(np.array([g])))[0][0].tolist()))
        s = _basis_row(shape, g)  # the row at the pass's g, as in gram: the model's and J's
        fitted = ModelParams(**values)  # validates the pass's values
        # 1/2 + n_add_eff + n_c A + n_m_T B with A = s K and B = 4 gamma_m g^2 s
        model = noise_floor(fitted) + s * (fitted.n_c * shape[2] + fitted.n_m_T * (shape[4] * (g * g)))
        sigma, previous = _sigma_from_model(model, n_avg), sigma
        if np.max(np.abs(sigma - previous) / previous) < 1e-3:
            break
    del normal  # the per-pass columns are not needed past the loop

    # Jacobian in the natural parameters: the amplitude columns are the
    # basis at the last pass's row s, the columns of g and a shape its
    # complex-step derivatives (exact to rounding)
    cav, mech = _basis_terms(shape, g, s)
    columns = {"n_add_eff": np.ones_like(delta), "n_c": cav, "n_m_T": mech}
    for name in (name for name in free if name not in _AMPLITUDES):
        stepped = {**values, name: values[name] + COMPLEX_STEP * 1j}
        factors = shape if name == "g" else shape_of(stepped)  # the shape's factors do not move with g
        cav, mech = _basis_terms(factors, stepped["g"], _basis_row(factors, stepped["g"]))
        columns[name] = (values["n_c"] * cav + values["n_m_T"] * mech).imag / COMPLEX_STEP
    jac = np.column_stack([columns[name] for name in free]) / sigma[:, None]
    jtj = jac.T @ jac
    amp = [free.index(name) for name in amps]
    _check_degenerate(jtj[np.ix_(amp, amp)], amps)
    covariance, sigmas = _covariance(jtj)
    flagged = {name for name in amps if values[name] == 0.0}
    # g is not identified at a scan end, nor when both amplitudes that carry it are zero
    if "g" in free and (not math.exp(scan[0]) < values["g"] < math.exp(scan[-1]) or values["n_c"] == values["n_m_T"] == 0.0):
        flagged.add("g")
    note = ""
    if freed is not None:
        if not res.bounded:
            flagged.add(freed)
        note = f"; {freed} profile: {counts[2]} nodes in {counts[3]} calls, 95% set {'bounded' if res.bounded else 'open'}"
    resid = (data - model) / sigma
    return FitResult(
        params={name: values[name] for name in free},
        sigmas=None if sigmas is None else dict(zip(free, sigmas.tolist())),
        residual_rms=math.sqrt(float(resid @ resid) / data.size),
        n_iter=len(step_costs),
        covariance=covariance,
        at_bound=tuple(name for name in free if name in flagged),
        step_costs=tuple(step_costs),
        message=f"separable fit: {passes} IRLS passes, {counts[0]} profile nodes in {counts[1]} calls" + note,
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

    def to_json(self) -> str:
        payload = asdict(self)
        payload["points"] = [asdict(p) for p in self.points]
        payload["warnings"] = list(self.warnings)
        return json.dumps(payload, indent=2)


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
    pins G given the drive power reaching the output.  The residual
    radiation-pressure cooling by the calibration drive, which itself grows
    with G, is undone in closed form.  Points more than 5 sigma off the line,
    in units of their own area_sigma on a robust (MAD) scale, are excluded one
    at a time and the regression repeated.
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
    if not np.all(s > 0.0):
        s = np.ones_like(y)
    weights = 1.0 / (s * s)

    include = np.ones(x.size, dtype=bool)
    while True:
        slope, intercept, slope_sigma, intercept_sigma, r2, resid = _weighted_line(
            x[include], y[include], weights[include]
        )
        # residuals in units of each point's sigma, on a robust (median-based)
        # scale so one wild point cannot widen its own exclusion fence
        z = resid / s[include]
        z_scale = 1.4826 * float(np.median(np.abs(z - np.median(z))))
        if z_scale <= 0.0 or np.sum(include) <= 4:
            break
        full_z = np.abs(y - (slope * x + intercept)) / s
        outliers = include & (full_z > 5.0 * z_scale)
        if not np.any(outliers):
            break
        worst = int(np.argmax(np.where(outliers, full_z, -np.inf)))
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
    # slope = c G^2 * gamma_m / (gamma_m + a G^2): the equipartition area
    # c G^2 with c = (kappa_ex / (kappa omega_m))^2 * P_o * x_zp^2, reduced by
    # the residual radiation-pressure cooling factor, whose optical damping is
    # r g^2 = a G^2 with g = G x_zp sqrt(n_d); solved for G^2 in closed form
    gamma_m = device.mech.gamma_m
    c = (device.cavity.kappa_ex / (kappa * device.mech.omega_m)) ** 2 * power_out * x_zp * x_zp
    _, _, r = sideband_rates(1.0, kappa, drive.detuning, device.mech.omega_m)
    a = r * x_zp * x_zp * n_d
    denom = c * gamma_m - a * slope
    if denom <= 0.0:
        raise ParameterError(
            "thermal areas exceed what any coupling gives at this drive: "
            "the radiation-pressure cooling correction has no solution"
        )
    G = math.sqrt(slope * gamma_m / denom)
    # d ln G / d ln slope = c gamma_m / (2 denom) = (gamma_m + gamma_opt) / (2 gamma_m)
    G_sigma = G * slope_sigma * c * gamma_m / (2.0 * slope * denom)

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
    """One sweep point: physics summary plus fit provenance."""

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

    def to_json(self) -> str:
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
                    "fit_residual_rms": sp.fit.residual_rms,
                }
                for sp in self.points
            ],
            "excluded": [{"n_d": nd, "reason": reason} for nd, reason in self.excluded],
            "product_bound": self.product_bound,
        }
        return json.dumps(payload, indent=2)


def analyze_cooling_sweep(
    sweep: Sequence[tuple[float, SpectrumTrace]],
    device: DeviceParams,
    thermal: ThermalState,
    free: Sequence[str] = DEFAULT_FREE,
) -> CoolingCurve:
    """Fit every drive power of a cooling sweep and assemble the curve.

    Per point: full-model fit of one `ModelParams.for_device` at the
    calibrated sqrt(n_d) coupling and the thermal occupancies, which pins
    every parameter not in `free` (kappa, delta_tilde etc. from the device;
    g to the sqrt(n_d) value), cooled occupancy from the fitted bath
    parameters, imprecision quanta from the fitted chain noise, and the
    relative deviation of a fitted g from the sqrt(n_d) prediction.
    A `free` that `fit_full_model` refuses raises ParameterError before
    any fit, and so does one without n_add_eff, which has no device
    value.  Two per-point identifiability guards drop names from the free
    set: n_c, pinned to the thermal state, when the trace window
    cannot resolve the cavity mode, and g, pinned to the sqrt(n_d) value,
    when the predicted radiation-pressure broadening is below 10% of
    gamma_m (only the product g^2 n_m_T is measurable there).  A point
    whose fit or derived quantities raise is excluded with a diagnostic;
    the rest of the curve is still returned.
    n_m_sigma propagates the fit covariance through the analytic gradient
    of `final_occupancy`.
    """
    cavity, mech = device.cavity, device.mech
    free = _check_free(free)  # once, so that a bad set raises instead of failing every point
    if "n_add_eff" not in free:
        raise ParameterError("the sweep has no value to pin n_add_eff to: it must be free")
    entries = sorted(sweep, key=lambda item: item[0])
    points: list[SweepPoint] = []
    excluded: list[tuple[float, str]] = []
    for n_d, trace in entries:
        g_pred = coupling_rate(device.coupling, mech, n_d)
        # device values, thermal occupancies and the sqrt(n_d) coupling:
        # pinned, or the start when freed
        point_params = ModelParams.for_device(device, g=g_pred, n_m_T=thermal.n_m_T, n_c=thermal.n_c)
        point_free = free
        # n_c rides on the kappa-wide cavity mode; a window that does not
        # resolve it leaves n_c degenerate with n_add_eff, so pin it there
        halfspan_rad = math.pi * (trace.freq_hz[-1] - trace.freq_hz[0])
        if halfspan_rad < 0.5 * cavity.kappa:
            point_free = tuple(name for name in point_free if name != "n_c")
        # below ~10% linewidth broadening the spectrum only constrains the
        # product g^2 n_m_T; pin g to the calibrated sqrt(n_d) prediction
        _, _, gamma_opt_pred = sideband_rates(g_pred, cavity.kappa, -mech.omega_m, mech.omega_m)
        if gamma_opt_pred < 0.1 * mech.gamma_m:
            point_free = tuple(name for name in point_free if name != "g")
        try:  # per-point failures must not kill the sweep
            fit = fit_full_model(trace, point_params, free=point_free)
            full = {**vars(point_params), **fit.params}
            g_fit, kappa, gamma_m = full["g"], full["kappa"], full["gamma_m"]
            _, _, gamma_opt = sideband_rates(g_fit, kappa, -mech.omega_m, mech.omega_m)
            state = ThermalState(n_m_T=full["n_m_T"], n_c=full["n_c"])
            grad = final_occupancy_gradient(state, g_fit, kappa, gamma_m)
            vec = np.array([grad.get(name, 0.0) for name in fit.params])  # delta method
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
                    g_rel_deviation=(g_fit - g_pred) / g_pred if "g" in point_free and g_pred > 0.0 else math.nan,
                    fit=fit,
                )
            )
        except Exception as exc:
            excluded.append((n_d, f"{type(exc).__name__}: {exc}"))
    return CoolingCurve(points=tuple(points), excluded=tuple(excluded))
