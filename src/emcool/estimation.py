"""Inverse problems: spectral fits, coupling calibration, cooling-sweep analysis.

The full-model fit is separable (variable projection, Golub & Pereyra 1973):
the spectrum is linear in n_add_eff, n_c and n_m_T, which are solved exactly
by weighted NNLS at every trial g; g is profiled on a log scan from
4g^2/kappa = 1e-3 gamma_m to 10 kappa, refined by bracketed parabolic steps
of three-node stencils until the parabola predicts a gain below 1e-5 in
cost (chi^2 / 2).  A per-trace object, `_TraceFit`, owns a trace's set-up
(free set, g scan, shape factors, the map to the normal equations) and its
IRLS state.  Each IRLS pass profiles g at the pass's weights, warm-started
from the last pass's node, and solves the amplitudes at that g.  The basis
row s there (`spectra._basis_row`, the arithmetic of the normal equations)
gives, through `spectra._spectrum` as in `output_noise_values`, the pass's
model, whose sigmas model/sqrt(n_avg) weight the next pass, and, after the
last pass, J in closed form: the basis, and g's column from ds/dg.  One
J^T J serves the covariance inv(J^T J) and the degeneracy check.
The IRLS loop (`_TraceFit.passes`), its pass (`_weighted_steps`) and the
pass's g profile (`_profile_steps`) are generators, which yield what they
need answered (nodes to cost; couplings g at which to solve the pass's
normal equations), and one driver, `_lockstep`, answers them: each batched
step answers the next request of every fit it runs with one `_basis_row`
call per block of couplings and one `_nnls` call.  `fit_full_model` runs
its fit there as a chunk of one.  `analyze_cooling_sweep` builds every
point's object where it checks the point, groups the objects by grid alone
(every point's shape values are the device's), and runs a grid's points,
which share their shape factors, up to `_SHARED_SCANS` at once; a point's
result equals its `fit_full_model` bit for bit.  kappa, delta_tilde and
gamma_m are never fitted: they are measured independently, kappa and
delta_tilde by a probe tone at each drive power and gamma_m from the
low-drive line width.  Any subset of {g, n_m_T, n_c, n_add_eff} may be freed.
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
from .errors import DegenerateFitError, ParameterError, UnitError, _require
from .limits import imprecision_from_chain
from .spectra import (
    ModelParams,
    SpectrumTrace,
    SpectrumUnit,
    _basis_factors,
    _basis_row,
    _fit_line,
    _sigma_from_model,
    _spectrum,
    output_noise_values,  # uncalled; benchmarks/tracing.py wraps this name until ROADMAP item 6 moves it
    peak_area,
)

_AMPLITUDES = ("n_add_eff", "n_c", "n_m_T")  # the model is linear in these
FREEABLE_PARAMS = frozenset(("g",) + _AMPLITUDES)
# measured independently, never fitted (Teufel et al., Nature 475, 359 (2011))
_PROBE_TONE = "the probe-tone measurement at each drive power"
_MEASURED = {"kappa": _PROBE_TONE, "delta_tilde": _PROBE_TONE, "gamma_m": "the low-drive line width"}
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

def fit_lorentzian(trace: SpectrumTrace) -> FitResult:
    """Fit floor + Lorentzian to a single peak: the line fit of `peak_area`, with
    the covariance inv(J^T J) under the sigmas model/sqrt(n_avg), not rescaled
    by chi^2, from `_covariance` as in the full-model fit.  Raises
    PeakDetectionError as `peak_area` does."""
    peak, fisher, chi2, steps, passes = _fit_line(trace)
    covariance, sigmas = _covariance(fisher)
    names = ("center_hz", "fwhm_hz", "area", "floor")
    return FitResult(
        params=dict(zip(names, (peak.center_hz, peak.fwhm_hz, peak.area, peak.floor))),
        sigmas=None if sigmas is None else dict(zip(names, sigmas.tolist())),
        residual_rms=math.sqrt(chi2 / trace.freq_hz.size),
        n_iter=steps,
        covariance=covariance,
        message=f"line fit: {passes} IRLS passes, {steps} Gauss-Newton steps",
    )


# --- full output-spectrum fit ----------------------------------------------

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


# normal equations solved at once by `_nnls`: its gathered Cramer entries
# take 2.3 kB per row at three amplitudes, so that 256 rows stay near the
# 512 kB of a block of basis rows s.  A sweep step's cold scans (7 x 77
# rows on the benchmark's grid) are solved in slices: on cooling_sweep
# (2-core Xeon), unsliced they took 668-714 minor page faults per op
# against 414-638 sliced, fewer sliced in each of 12 alternating pairs
_NNLS_BLOCK = 256


def _nnls(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched non-negative least squares from the normal equations.

    normal (m, k + 1, k + 1): the weighted Gram matrices of the k amplitude
    columns and the data column, whose last entry is the weighted data norm
    yy.  Every support is solved by Cramer's rule, embedded in a k x k
    system with identity off the support; the determinants of its 3 x 3
    padded matrices are their cofactor expansions along the first row.
    Each amplitude in a support must buy more than 1e-12 yy of cost, so one
    that is zero within rounding comes out exactly zero.  Returns the
    amplitudes (m, k) and the costs (m,).  A row's results do not depend on
    the other rows, bit for bit, so that the rows are solved in slices of
    `_NNLS_BLOCK`, which bounds the memory.
    """
    if normal.shape[0] <= _NNLS_BLOCK:
        return _nnls_rows(normal)
    parts = [_nnls_rows(normal[i : i + _NNLS_BLOCK]) for i in range(0, normal.shape[0], _NNLS_BLOCK)]
    return np.concatenate([amplitudes for amplitudes, _ in parts]), np.concatenate([costs for _, costs in parts])


def _nnls_rows(normal: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """`_nnls` of one slice of rows."""
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
        # and s^2 @ quad = sums of w A^2, w A B / c, w B^2 / c^2; the five
        # weighted columns w K^2, w K, w, w K d, w d are written as rows of one
        # array, so that each column of its transpose is contiguous, which BLAS
        # reads twice as fast, and quad and lin are its first three and last four
        cols = np.empty((5, w.size))
        wk, wd = np.multiply(w, k, out=cols[1]), np.multiply(w, data, out=cols[4])
        np.multiply(wk, k, out=cols[0])
        cols[2] = w
        np.multiply(wd, k, out=cols[3])
        self.quad, self.lin = cols[:3].T, cols[1:].T
        # normal equations = entries @ fold
        self.base = np.array([np.sum(w), np.sum(wd), wd @ data]) @ fold[:3]  # the constant entries
        self.fold, self.size = fold[3:], math.isqrt(fold.shape[1])

    def gram(self, g: np.ndarray) -> np.ndarray:
        """Normal equations (m, k + 1, k + 1) per coupling in g: the weighted
        Gram matrices of 1, A, B and the data, mapped by coef, built in
        blocks of `_SCAN_BLOCK` couplings, which bounds their memory."""
        whole = [(slice(None), self)]
        grams = [_block_grams(self.shape, self.mech, g[i : i + _SCAN_BLOCK], whole)[0] for i in range(0, g.size, _SCAN_BLOCK)]
        return grams[0] if len(grams) == 1 else np.concatenate(grams)


def _block_grams(shape: tuple, mech: np.ndarray, g: np.ndarray, jobs: list) -> list[np.ndarray]:
    """`_Pass.gram` of every job (rows, pass) at its rows of one block of
    couplings g, the passes' shapes equal by value: the block's rows s and
    s^2 are formed once, by one `_basis_row` call, and each pass forms its
    products over its own rows only, with the row count it has alone, so
    that its normal equations do not depend on the other jobs, bit for bit."""
    s = _basis_row(shape, g[:, None])
    lins = [s[rows] @ normal.lin for rows, normal in jobs]
    np.square(s, out=s)
    scale = (mech * (g * g))[:, None] ** _C_POWER
    grams = []
    for (rows, normal), lin in zip(jobs, lins):
        entries = np.concatenate((lin, s[rows] @ normal.quad), axis=1)
        entries *= scale[rows]
        grams.append((normal.base + entries @ normal.fold).reshape(-1, normal.size, normal.size))
    return grams


def _solve(requests: Sequence[tuple[_Pass, np.ndarray]]) -> list[tuple[np.ndarray, np.ndarray]]:
    """One batched step: the `_nnls` amplitudes and costs of every request
    (pass, couplings g), the passes' shapes equal by value and their free
    amplitudes alike in number.  Requests of equal g share their rows.
    Each g is cut every `_SCAN_BLOCK` couplings, as `_Pass.gram` cuts it,
    and the pieces are packed in order into blocks of at most `_SCAN_BLOCK`
    rows, which bounds their memory, never splitting a piece; each block
    takes one `_block_grams`, and one `_nnls` call solves every request's
    normal equations.  So a request's results do not depend on the other
    requests, bit for bit.  A single request (a chunk of one fit, or the
    last fit of a chunk still running) skips the packing."""
    if len(requests) == 1:
        normal, g = requests[0]
        return [_nnls(normal.gram(g))]
    shared: dict[bytes, tuple[np.ndarray, list[int]]] = {}  # per g, the places of its requests
    for place, (_, g) in enumerate(requests):
        shared.setdefault(g.tobytes(), (g, []))[1].append(place)
    blocks: list[tuple[list, list]] = []  # per block, its pieces of g and its (rows, place) per request
    rows = _SCAN_BLOCK  # taken in the last block
    for g, places in shared.values():
        for i in range(0, g.size, _SCAN_BLOCK):
            n = min(_SCAN_BLOCK, g.size - i)
            if rows + n > _SCAN_BLOCK:
                pieces, jobs = [], []
                blocks.append((pieces, jobs))
                rows = 0
            pieces.append(g[i : i + n])
            span = slice(rows, rows + n)
            jobs += [(span, place) for place in places]
            rows += n
    shape, mech = requests[0][0].shape, requests[0][0].mech
    grams: list[list[np.ndarray]] = [[] for _ in requests]
    for pieces, jobs in blocks:
        g_block = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
        block = _block_grams(shape, mech, g_block, [(span, requests[place][0]) for span, place in jobs])
        for (_, place), gram in zip(jobs, block):
            grams[place].append(gram)
    normal = np.concatenate([gram for parts in grams for gram in parts])
    amplitudes, costs = _nnls(normal)
    ends = np.cumsum([g.size for _, g in requests]).tolist()
    return [(amplitudes[end - g.size : end], costs[end - g.size : end]) for end, (_, g) in zip(ends, requests)]


def _lockstep(fits: Sequence) -> list:
    """The one driver: run every request generator in `fits` (a
    `_TraceFit.passes` or a `_weighted_steps`) in lockstep.  Each batched
    step answers the next request (pass, couplings g) of every generator
    still running by one `_solve`.  The passes' shapes must be equal by
    value and their free amplitudes alike in number.  Returns what each
    generator returned, or the exception it raised, whereupon the others
    go on; each equals, bit for bit, the generator's run alone (`_alone`)."""
    outcomes: list = [None] * len(fits)
    running = [((place, steps), None) for place, steps in enumerate(fits)]
    while running:
        live, requests = [], []  # frees the last step's requests, and finished passes, before new ones are built
        for (place, steps), answer in running:
            try:
                requests.append(steps.send(answer))
            except StopIteration as stop:
                outcomes[place] = stop.value
            except Exception as exc:
                outcomes[place] = exc
            else:
                live.append((place, steps))
        running = list(zip(live, _solve(requests))) if live else []
    return outcomes


def _alone(steps):
    """The return value of the request generator `steps` run by `_lockstep`
    as a chunk of one; what it raised is raised."""
    (outcome,) = _lockstep([steps])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


# a stencil's minimum half-width, and the width of a one-sided bracket at
# which a best node on a scan end stays there, in ln g
_PROFILE_TOL = 1e-5
# a bracketed refinement ends once the parabola about the best node predicts
# a gain below this, in cost units (chi^2 / 2 under the pass's weights): on a
# quadratic profile, a step of sqrt(2e-5) = 4.5e-3 sigma
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


def _profile_steps(scan: np.ndarray, step_costs: list, start: float | None = None):
    """The g-profile rule, as a generator: it yields the nodes (ln g, an
    array) whose costs it wants, receives those costs, and returns the node
    x of least cost over the range of `scan`, its cost, and the numbers of
    nodes costed and of cost calls.

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
    fs = (yield np.array(xs)).tolist()
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
        f_trial = (yield np.array(trial)).tolist()
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
    """`free` as a tuple of distinct freeable names: the library's and the CLI's one check."""
    free = tuple(free)
    bad = sorted(set(free) - FREEABLE_PARAMS)
    if bad:
        pins = [f"{name} is pinned to {_MEASURED[name]}" for name in bad if name in _MEASURED]
        raise ParameterError("; ".join([f"cannot free parameters: {bad}", *pins]))
    if len(set(free)) != len(free):
        raise ParameterError("duplicate names in free")
    return free


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


class WeightedFit(NamedTuple):
    """One IRLS pass's fit at fixed weights."""

    params: tuple[float, ...]  # g, then the free amplitudes in the fit's order
    n_iter: int  # accepted profile steps, appended to the caller's step_costs
    node: float | None  # ln g at the profile's minimum, the next pass's warm start; None when g is pinned
    counts: tuple[int, int]  # the g profile's nodes and cost calls


def _weighted_steps(normal: _Pass, scan: np.ndarray | None, g: float, start: float | None, step_costs: list):
    """Fit g and the free amplitudes at one IRLS pass's weights, as a
    generator of requests (normal, couplings g), each answered with
    `_nnls`'s amplitudes and costs from `normal`'s normal equations there.

    g is profiled by `_profile_steps` over `scan`, warm-started from the
    node `start` of the last pass (a cold scan when None), or stays the
    pinned `g` when `scan` is None: the requests are the nodes of every
    profile call, then that g, where the amplitudes are solved.  Returns
    the WeightedFit.
    """
    n_steps, node, counts = len(step_costs), start, (0, 0)
    if scan is not None:
        profile, costs = _profile_steps(scan, step_costs, start), None
        while True:
            try:
                ln_g = profile.send(costs)
            except StopIteration as stop:
                node, _, *counts = stop.value
                break
            costs = (yield normal, np.exp(ln_g))[1]
        g = math.exp(node)
    amplitudes = (yield normal, np.array([g]))[0][0].tolist()
    return WeightedFit((g, *amplitudes), len(step_costs) - n_steps, node, tuple(counts))


def fit_weighted(normal: _Pass, scan: np.ndarray | None, g: float, start: float | None, step_costs: list) -> WeightedFit:
    """One IRLS pass's `_weighted_steps` run alone.  No fit calls it: the
    benchmark's tracer wraps this name until ROADMAP item 6 moves it."""
    return _alone(_weighted_steps(normal, scan, g, start, step_costs))


class _TraceFit:
    """One trace's separable fit: its set-up, built once, and its IRLS state,
    the values and the sigmas that weight the next pass (from the data at
    first).  `passes` alternates `normal` and `update`, then takes `result`;
    `_lockstep` runs it.  `shape`, when given, is the `_basis_factors` of
    the trace's grid and of params' values, shared with other traces on
    that grid."""

    def __init__(self, trace: SpectrumTrace, params: ModelParams, free: Sequence[str], shape: tuple | None = None) -> None:
        if trace.unit is not SpectrumUnit.QUANTA:
            raise UnitError(f"full-model fit needs a quanta trace, got {trace.unit.value}")
        self.free = _check_free(free)
        self.data, self.n_avg = trace.values, trace.n_avg
        self.amps = amps = tuple(name for name in self.free if name in _AMPLITUDES)
        self.values = dict(vars(params))
        # normal equations = coef (weighted Gram matrix of 1, A, B, data) coef^T:
        # one row per free amplitude, then data minus the fixed part of the model
        coef = np.zeros((len(amps) + 1, 4))
        coef[-1] = [-0.5, 0.0, 0.0, 1.0]
        for j, name in enumerate(_AMPLITUDES):
            if name in amps:
                coef[amps.index(name), j] = 1.0
            else:
                coef[-1, j] -= self.values[name]
        self.fold = _fold(coef)
        self.scan = None
        if "g" in self.free:  # 16 nodes per decade of g, from optical damping 4g^2/kappa = 1e-3 gamma_m to g = 10 kappa
            self.scan = _log_scan(0.5 * math.sqrt(1e-3 * params.kappa * params.gamma_m), 10.0 * params.kappa)
        if shape is None:
            delta = TWO_PI * trace.freq_hz - params.omega_m
            shape = _basis_factors(delta, params.kappa, params.kappa_ex, params.gamma_m, params.delta_tilde, params.beta)
        self.shape = shape
        self.sigma = _sigma_from_model(self.data, self.n_avg)

    def normal(self) -> _Pass:
        """The normal equations under the weights of the current sigmas."""
        return _Pass(self.shape, 1.0 / (self.sigma * self.sigma), self.data, self.fold)

    def update(self, fitted: Sequence[float]) -> float:
        """Take a pass's g and free amplitudes; the row s at that g gives the
        model and the next sigmas.  Returns the sigmas' largest relative move."""
        values = self.values
        values.update(zip(("g", *self.amps), fitted))
        g, self.s = values["g"], _basis_row(self.shape, values["g"])  # as in `_Pass.gram`
        self.model = _spectrum(self.shape, self.s, g, values["n_c"], values["n_m_T"], values["n_add_eff"])
        previous, self.sigma = self.sigma, _sigma_from_model(self.model, self.n_avg)
        return float(np.max(np.abs(self.sigma - previous) / previous))

    def passes(self):
        """The IRLS loop, as one generator of `_weighted_steps`' requests,
        pass after pass, each profile warm-started from the last pass's
        node; each pass's generator, and with it its normal equations, ends
        before the next pass's are built.  It stops once the sigmas move by
        less than 1e-3 (at most 4 passes), returning `result`."""
        step_costs: list[tuple[float, float]] = []
        nodes = calls = 0  # of the g profiles
        node = None
        for passes in range(1, 5):
            res = yield from _weighted_steps(self.normal(), self.scan, self.values["g"], node, step_costs)
            node, nodes, calls = res.node, nodes + res.counts[0], calls + res.counts[1]
            if self.update(res.params) < 1e-3:
                break
        return self.result(step_costs, f"separable fit: {passes} IRLS passes, {nodes} profile nodes in {calls} calls")

    def result(self, step_costs: list, message: str) -> FitResult:
        """The fit at the last pass: covariance, flags and residual."""
        free, values, s = self.free, self.values, self.s
        g, (p, _, k, numer, mech) = values["g"], self.shape
        # Jacobian in the natural parameters at the last pass's row s: the
        # amplitude columns are the basis A = s K, B = 4 gamma_m g^2 s, and
        # g's column its closed-form derivative n_c K s' + n_m_T 4 gamma_m (2 g s + g^2 s')
        columns = {"n_add_eff": np.ones_like(s), "n_c": s * k, "n_m_T": s * (mech * (g * g))}
        if "g" in free:
            ds = -16.0 * g * (4.0 * g * g + p) / numer * (s * s)  # s' = ds/dg
            columns["g"] = values["n_c"] * k * ds + values["n_m_T"] * mech * (2.0 * g * s + g * g * ds)
        jac = np.column_stack([columns[name] for name in free]) / self.sigma[:, None]
        jtj = jac.T @ jac
        amp = [free.index(name) for name in self.amps]
        _check_degenerate(jtj[np.ix_(amp, amp)], self.amps)
        covariance, sigmas = _covariance(jtj)
        flagged = {name for name in self.amps if values[name] == 0.0}
        # g is not identified at a scan end, nor when both amplitudes that carry it are zero
        if "g" in free and (not math.exp(self.scan[0]) < g < math.exp(self.scan[-1]) or values["n_c"] == values["n_m_T"] == 0.0):
            flagged.add("g")
        resid = (self.data - self.model) / self.sigma
        return FitResult(
            params={name: values[name] for name in free},
            sigmas=None if sigmas is None else dict(zip(free, sigmas.tolist())),
            residual_rms=math.sqrt(float(resid @ resid) / self.data.size),
            n_iter=len(step_costs),
            covariance=covariance,
            at_bound=tuple(name for name in free if name in flagged),
            step_costs=tuple(step_costs),
            message=message,
        )


def fit_full_model(
    trace: SpectrumTrace,
    params: ModelParams,
    free: Sequence[str] = DEFAULT_FREE,
) -> FitResult:
    """Fit the exact output-spectrum model to a quanta-unit trace.

    `free` (default {n_m_T, n_c, g, n_add_eff}) are estimated; `params`
    holds every other value, pinned.  The values it holds for a free
    parameter are not read: free amplitudes are solved exactly and a free g
    is profiled on its fixed scan, each IRLS pass by one `_weighted_steps`,
    run by `_lockstep` as a chunk of one fit, as a sweep runs its points.
    `at_bound` names the amplitudes held at zero by their non-negativity
    constraint, and a g at or past an end of its scan or with both
    amplitudes that carry it (n_c and n_m_T, free or pinned) at zero.
    `n_iter` counts the accepted g-profile steps in `step_costs`.
    `message` gives the IRLS passes and the numbers of couplings the g
    profiles costed and of their cost calls.
    """
    return _alone(_TraceFit(trace, params, free).passes())


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
        _require("G", self.G, gt=0)
        _require("G_sigma", self.G_sigma, gt=0)
        _require("linearity_r2", self.linearity_r2, ge=-1e-12, le=1 + 1e-12)

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

    n_d = drive.n_d
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

    power_in = drive_power_for_photons(n_d, drive, device.cavity)
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


# at most this many cooling-sweep points on one grid are fitted in lockstep
# (`_lockstep`); this bounds the IRLS passes a sweep holds at once, and the
# normal equations of one batched step
_SHARED_SCANS = 8


def _sweep_point(n_d: float, g_pred: float, fit: _TraceFit, result: FitResult) -> SweepPoint:
    """A cooling-sweep point from its solved fit: the cooled occupancy from
    the fitted bath parameters and its delta-method sigma, the imprecision
    quanta from the fitted chain noise, and the relative deviation of a
    fitted g from the sqrt(n_d) prediction g_pred; the fit's omega_m is the
    device's, which sets the red-detuned drive."""
    values = fit.values  # pinned and fitted
    g_fit, kappa, gamma_m, omega_m = values["g"], values["kappa"], values["gamma_m"], values["omega_m"]
    _, _, gamma_opt = sideband_rates(g_fit, kappa, -omega_m, omega_m)
    state = ThermalState(n_m_T=values["n_m_T"], n_c=values["n_c"])
    grad = final_occupancy_gradient(state, g_fit, kappa, gamma_m)
    vec = np.array([grad.get(name, 0.0) for name in fit.free])  # delta method
    n_m_sigma = math.nan if result.covariance is None else math.sqrt(max(vec @ result.covariance @ vec, 0.0))
    return SweepPoint(
        point=CoolingPoint(
            n_d=n_d,
            g=g_fit,
            gamma_opt=gamma_opt,
            gamma_total=total_linewidth(gamma_m, gamma_opt),
            n_m=final_occupancy(state, g_fit, kappa, gamma_m),
            n_c=values["n_c"],
        ),
        n_m_sigma=n_m_sigma,
        n_c_sigma=result.sigmas.get("n_c", math.nan) if result.sigmas is not None else math.nan,
        n_imp=imprecision_from_chain(g_fit, kappa, values["kappa_ex"], gamma_m, values["beta"], values["n_add_eff"]),
        g_rel_deviation=(g_fit - g_pred) / g_pred if "g" in fit.free else math.nan,
        fit=result,
    )


def analyze_cooling_sweep(
    sweep: Sequence[tuple[float, SpectrumTrace]],
    device: DeviceParams,
    thermal: ThermalState,
) -> CoolingCurve:
    """Fit every drive power of a cooling sweep and assemble the curve.

    Per point: full-model fit of one `ModelParams.for_device` at the
    calibrated sqrt(n_d) coupling, which pins every parameter outside
    `DEFAULT_FREE` (kappa, delta_tilde etc. from the device) and any that a
    guard pins, cooled occupancy from the fitted bath parameters,
    imprecision quanta from the fitted chain noise, and the relative
    deviation of a fitted g from the sqrt(n_d) prediction.  Two per-point
    identifiability guards drop names from the free set: n_c, pinned to
    `thermal.n_c`, when the trace window cannot resolve the cavity mode,
    and g, pinned to the sqrt(n_d) value, when the predicted
    radiation-pressure broadening is below 10% of gamma_m (only the
    product g^2 n_m_T is measurable there).  Of `thermal` only n_c is
    read, for the window guard: n_m_T is free at every point.  A point
    that raises anywhere, from its coupling and its fit's set-up to its
    derived quantities, is excluded with a diagnostic, and so are a point
    whose n_d is not finite and a later point at the n_d of an earlier one;
    the rest of the curve, in increasing n_d, is still returned.
    n_m_sigma propagates the fit covariance through the analytic gradient
    of `final_occupancy`.

    Every point's fit object (`_TraceFit`) is built where the point is
    checked.  The good points are grouped by grid alone, since their shape
    values (which also set the g scan) are the device's, and a grid's
    points share their shape factors.  They are solved in chunks of at most
    `_SHARED_SCANS` in increasing n_d, whose IRLS passes run in lockstep
    (`_lockstep`): each batched step costs the next g-profile call or
    amplitude solve of every fit still running with one `_basis_row` call
    per block of at most `_SCAN_BLOCK` couplings and one `_nnls` call, the
    first step the chunk's cold g scans, whose rows they share.  So a
    chunk takes as many steps as its longest fit, and each fit is, bit for
    bit, `fit_full_model` on its trace alone, a chunk of one; a fit that
    raises leaves the chunk, and the others run on.  Each point holds its sigma
    column from its set-up on, and at most `_SHARED_SCANS` passes (five
    weighted columns of the grid each) are held at once.
    """
    cavity, mech = device.cavity, device.mech
    # a nan n_d would leave the sort's order undefined
    excluded = [(n_d, f"ParameterError: n_d must be finite, got {n_d!r}") for n_d, _ in sweep if not math.isfinite(n_d)]
    seen: set[float] = set()
    # per point in increasing n_d: its SweepPoint, or the reason it is excluded
    outcomes: list = []
    # per grid's bytes: its good points' places in outcomes, n_d, g_pred and fit
    groups: dict[bytes, list[tuple[int, float, float, _TraceFit]]] = {}
    for n_d, trace in sorted((item for item in sweep if math.isfinite(item[0])), key=lambda item: item[0]):
        try:  # per-point failures must not kill the sweep
            if n_d in seen:
                raise ParameterError(f"duplicate n_d: an earlier entry has n_d = {n_d!r}")
            seen.add(n_d)
            g_pred = coupling_rate(device.coupling, mech, n_d)
            # device values, thermal.n_c and the sqrt(n_d) coupling, where pinned
            params = ModelParams.for_device(device, g=g_pred, n_m_T=0.0, n_c=thermal.n_c)
            free = DEFAULT_FREE
            # n_c rides on the kappa-wide cavity mode; a window that does not
            # resolve it leaves n_c degenerate with n_add_eff, so pin it there
            halfspan_rad = math.pi * (trace.freq_hz[-1] - trace.freq_hz[0])
            if halfspan_rad < 0.5 * cavity.kappa:
                free = tuple(name for name in free if name != "n_c")
            # below ~10% linewidth broadening the spectrum only constrains the
            # product g^2 n_m_T; pin g to the calibrated sqrt(n_d) prediction
            _, _, gamma_opt_pred = sideband_rates(g_pred, cavity.kappa, -mech.omega_m, mech.omega_m)
            if gamma_opt_pred < 0.1 * mech.gamma_m:
                free = tuple(name for name in free if name != "g")
            group = groups.setdefault(trace.freq_hz.tobytes(), [])
            fit = _TraceFit(trace, params, free, group[0][3].shape if group else None)
        except Exception as exc:
            outcomes.append((n_d, f"{type(exc).__name__}: {exc}"))
            continue
        group.append((len(outcomes), n_d, g_pred, fit))
        outcomes.append(None)
    for group in groups.values():
        for i in range(0, len(group), _SHARED_SCANS):
            chunk = group[i : i + _SHARED_SCANS]
            for (place, n_d, g_pred, fit), result in zip(chunk, _lockstep([fit.passes() for *_, fit in chunk])):
                try:
                    if isinstance(result, Exception):
                        raise result
                    outcomes[place] = _sweep_point(n_d, g_pred, fit, result)
                except Exception as exc:
                    outcomes[place] = (n_d, f"{type(exc).__name__}: {exc}")
    points = [item for item in outcomes if isinstance(item, SweepPoint)]
    excluded += [item for item in outcomes if not isinstance(item, SweepPoint)]
    return CoolingCurve(points=tuple(points), excluded=tuple(excluded))
