"""Damped Gauss-Newton (Levenberg-Marquardt style) weighted least squares.

One minimization of 0.5 ||(data - model(p)) / sigma||^2 at per-bin sigmas
the caller passes and this module never changes; reweighting, if any, is
the caller's.  The update rule: solve (J^T J + lam * diag(J^T J)) step =
J^T r in internal coordinates, accept the step only if it strictly lowers
the cost, then lam /= 3; on rejection lam *= 10 and the solve is retried.
Internal coordinates are log(p) for positive parameters (so positivity
cannot be violated) and p/scale for the rest; the convergence test is the
gradient infinity norm in these scaled coordinates against
1e-8 * max(1, cost).
Jacobians are complex steps (Squire & Trapp, SIAM Rev. 40, 110 (1998)): one model call per column
at p + 1e-20 i (dp/du)_j e_j, exact to rounding, so the model must be
analytic in its parameters (numpy arithmetic on a complex p).
Everything is deterministic: same inputs, bit-identical result.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import DegenerateFitError, ParameterError

_MODEL_ERRORS = (ValueError, ArithmeticError, FloatingPointError)

MAX_LAMBDA = 1e14
LAMBDA_UP = 10.0
LAMBDA_DOWN = 3.0
MAX_ITER = 200
GTOL = 1e-8
COMPLEX_STEP = 1e-20


@dataclass
class LeastSquaresResult:
    params: np.ndarray
    cost: float
    converged: bool
    n_iter: int
    step_costs: list[tuple[float, float]] = field(default_factory=list)
    message: str = ""


def _eval_model(model_fn, p: np.ndarray) -> np.ndarray | None:
    """Model evaluation that converts domain violations into a rejected trial."""
    try:
        with np.errstate(all="ignore"):
            out = np.asarray(model_fn(p), dtype=float)
    except _MODEL_ERRORS:
        return None
    if not np.all(np.isfinite(out)):
        return None
    return out


def _jacobian(model_fn, p: np.ndarray, dp_du: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Weighted-residual Jacobian d r / d u by complex steps.

    Column j is imag(model_fn(p + h i (dp/du)_j e_j)) / h with h = 1e-20,
    where dp/du is p for log parameters (u = log p) and the scale for the
    rest (u = p/scale).
    """
    jac = np.empty((sigma.size, p.size))
    for j in range(p.size):
        stepped = p.astype(complex)
        stepped[j] += COMPLEX_STEP * 1j * dp_du[j]
        jac[:, j] = np.imag(model_fn(stepped)) / COMPLEX_STEP
    # residual r = (data - model)/sigma, so d r/d u = -(d model/d u)/sigma
    return -jac / sigma[:, None]


def _stationary(
    grad: np.ndarray,
    jac: np.ndarray,
    resid: np.ndarray,
    cost: float,
    relax: float = 1.0,
) -> bool:
    """Gradient-based convergence test.

    Either the raw gradient infinity norm falls below GTOL * max(1, cost)
    (reachable for near-exact fits), or every gradient component is below
    relax * 1e-6 of its own scale |J_col| * |r| (a cosine criterion; its
    floating-point floor is sqrt(2 eps) ~ 2e-8, so statistical fits stop at
    the rounding-limited stationary point).
    """
    if float(np.max(np.abs(grad))) < GTOL * max(1.0, cost):
        return True
    rnorm = float(np.linalg.norm(resid))
    if rnorm == 0.0:
        return True
    norms = np.sqrt(np.sum(jac * jac, axis=0))
    if np.any(norms == 0.0):
        return False
    return float(np.max(np.abs(grad) / (norms * rnorm))) < relax * 1e-6


def _check_degenerate(jac: np.ndarray, names: Sequence[str]) -> None:
    """Reject exactly zero columns and (scale-invariant) collinear pairs."""
    norms = np.sqrt(np.sum(jac * jac, axis=0))
    for j, nrm in enumerate(norms):
        if nrm == 0.0:
            raise DegenerateFitError(
                (names[j], names[j]),
                f"parameter {names[j]!r} has no measurable effect on the model here",
            )
    n_p = len(names)
    for i in range(n_p):
        for j in range(i + 1, n_p):
            corr = float(jac[:, i] @ jac[:, j]) / (norms[i] * norms[j])
            if abs(corr) > 1.0 - 1e-8:
                raise DegenerateFitError((names[i], names[j]))


def _covariance(jac: np.ndarray):
    """inv(J^T J) (pseudo-inverse, noted, if singular) and its sigmas; both
    None unless every sigma is finite."""
    gram = jac.T @ jac
    note = ""
    try:
        cov = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(gram, rcond=1e-12)
        note = "; covariance from pseudo-inverse (near-degenerate)"
    with np.errstate(invalid="ignore"):
        sigmas = np.sqrt(np.diag(cov))
    if not np.all(np.isfinite(sigmas)):
        return None, None, note
    return cov, sigmas, note


def fit_weighted(
    model_fn: Callable[[np.ndarray], np.ndarray],
    data: np.ndarray,
    p0: Sequence[float],
    log_scale: Sequence[bool],
    names: Sequence[str],
    sigma: np.ndarray,
    scales: Sequence[float] | None = None,
) -> LeastSquaresResult:
    """Minimize 0.5 ||(data - model_fn(p)) / sigma||^2 at the given sigmas.

    `scales` sets the characteristic magnitude of non-log parameters
    (defaults to max(|p0|, 1)); log parameters are scale-free already.
    The first Jacobian is checked for zero and collinear columns
    (DegenerateFitError).  Convergence is the dual gradient test in
    _stationary: raw norm below GTOL * max(1, cost) or every gradient cosine
    below 1e-6.  Non-convergence within MAX_ITER iterations is reported via
    the `converged` flag, never an exception.
    """
    data = np.asarray(data, dtype=float)
    p = np.asarray(p0, dtype=float).copy()
    log_scale = np.asarray(log_scale, dtype=bool)
    if p.size != log_scale.size or p.size != len(names):
        raise ParameterError("p0, log_scale and names must have equal length")
    if np.any(log_scale & (p <= 0.0)):
        raise ParameterError("log-scaled parameters need positive initial values")
    if scales is None:
        lin_scale = np.maximum(np.abs(p), 1.0)
    else:
        lin_scale = np.asarray(scales, dtype=float).copy()
        if lin_scale.size != p.size or np.any(lin_scale <= 0.0):
            raise ParameterError("scales must be positive and match p0 in length")

    model = _eval_model(model_fn, p)
    if model is None:
        raise ParameterError("model is not finite at the initial point")

    step_costs: list[tuple[float, float]] = []
    converged = False
    message = "iteration limit reached"
    n_iter = 0
    resid = (data - model) / sigma
    cost = 0.5 * float(resid @ resid)
    lam = 1e-3
    jac = _jacobian(model_fn, p, np.where(log_scale, p, lin_scale), sigma)
    _check_degenerate(jac, names)
    while n_iter < MAX_ITER:
        grad = jac.T @ resid
        if _stationary(grad, jac, resid, cost):
            converged = True
            message = "gradient criterion satisfied"
            break

        gram = jac.T @ jac
        diag = np.diag(gram).copy()
        diag[diag <= 0.0] = max(float(np.max(diag)), 1.0) * 1e-12

        n_iter += 1
        accepted = False
        while lam <= MAX_LAMBDA:
            try:
                step = np.linalg.solve(gram + lam * np.diag(diag), -grad)
            except np.linalg.LinAlgError:
                lam *= LAMBDA_UP
                continue
            p_trial = p.copy()
            p_trial[log_scale] = p[log_scale] * np.exp(np.clip(step[log_scale], -60.0, 60.0))
            p_trial[~log_scale] = p[~log_scale] + lin_scale[~log_scale] * step[~log_scale]
            model_trial = _eval_model(model_fn, p_trial)
            if model_trial is not None:
                resid_trial = (data - model_trial) / sigma
                cost_trial = 0.5 * float(resid_trial @ resid_trial)
                if cost_trial < cost:
                    step_costs.append((cost, cost_trial))
                    p, resid, cost = p_trial, resid_trial, cost_trial
                    lam = max(lam / LAMBDA_DOWN, 1e-12)
                    accepted = True
                    break
            lam *= LAMBDA_UP
        if not accepted:
            # no lambda admits a lower cost: at the floating-point minimum if
            # the residual is (loosely) orthogonal to the model tangent space
            converged = _stationary(grad, jac, resid, cost, relax=100.0)
            message = (
                "trust parameter exhausted at a stationary point"
                if converged
                else "trust parameter exhausted without improvement"
            )
            break
        jac = _jacobian(model_fn, p, np.where(log_scale, p, lin_scale), sigma)

    return LeastSquaresResult(
        params=p,
        cost=cost,
        converged=converged,
        n_iter=n_iter,
        step_costs=step_costs,
        message=message,
    )
