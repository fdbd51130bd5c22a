"""Conditional maximum likelihood estimation, gated by the existence check.

The conditional log-likelihood is globally concave, so a damped Newton
iteration from beta = 0 converges whenever a finite maximizer exists. The
value and score use the denominator recursion; the Hessian enumerates each
individual's alternative set to form the softmax covariance of attribute
vectors, and so refuses C(T,k) above 10**6.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._kernels import logdenom_batch
from .altsets import attribute_batches, _validate_beta
from .detector import (
    STATUS_EXISTS,
    STATUS_SEPARATED,
    DEFAULT_QP_TOL,
    ExistenceReport,
    detect_panel_separation,
)
from .errors import NonexistenceError
from .panel import PanelDataset

DEFAULT_GRAD_TOL = 1e-8
DEFAULT_NEWTON_MAX_ITER = 100
_ARMIJO = 1e-4
_SHRINK = 0.5
# predicted gains below this many ulps of |loglik| are lost in its round-off
_FLAT_ULPS = 16.0


@dataclass(frozen=True)
class NewtonStep:
    iteration: int
    loglik: float
    score_sup: float
    step_size: float
    beta_norm: float


@dataclass
class CmleFit:
    """A fitted conditional logit.

    ``converged`` certifies the first-order condition at ``gradient_norm``
    below the tolerance, except under ``force`` on a gated dataset, where it
    is always False because any finite point reached there is spurious.
    """

    beta_hat: np.ndarray
    std_errors: np.ndarray
    loglik: float
    gradient_norm: float
    iterations: int
    converged: bool
    gate: ExistenceReport
    trace: list[NewtonStep] = field(default_factory=list)
    diagnostic: str | None = None


def conditional_loglik(data: PanelDataset, beta) -> float:
    """Log-likelihood of the outcome sequences given their choice totals.

    Sums, over informative individuals, the observed score minus the log
    denominator; individuals with constant outcomes contribute exactly zero.
    """
    beta = _validate_beta(beta, data.p)
    mask = data.informative_mask
    if not mask.any():
        return 0.0
    X = data.covariates[mask]
    Y = data.outcomes[mask].astype(np.float64)
    S = X @ beta
    logden, _ = logdenom_batch(S, X, data.choice_totals[mask])
    return float(((Y * S).sum(axis=1) - logden).sum())


def conditional_score_and_hessian(data: PanelDataset, beta):
    """Score vector and Hessian matrix of the conditional log-likelihood.

    The score subtracts each individual's softmax-mean attribute vector
    (from the recursion) from the observed one; the Hessian is minus the sum
    of softmax covariances of attribute vectors, computed by enumeration,
    which raises :class:`~felogit.errors.AlternativeSetTooLargeError` when
    some C(T,k) exceeds 10**6.
    """
    beta = _validate_beta(beta, data.p)
    p = data.p
    mask = data.informative_mask
    score = np.zeros(p)
    hessian = np.zeros((p, p))
    if not mask.any():
        return score, hessian

    sub_idx = np.flatnonzero(mask)
    X = data.covariates[sub_idx]
    Y = data.outcomes[sub_idx].astype(np.float64)
    S = X @ beta
    _, mean = logdenom_batch(S, X, data.choice_totals[sub_idx])
    obs = np.einsum("it,itp->ip", Y, X)
    score = (obs - mean).sum(axis=0)

    for idx, _alts, attrs, _obs_index in attribute_batches(data):
        e = attrs @ beta
        e -= e.max(axis=1, keepdims=True)
        w = np.exp(e)
        w /= w.sum(axis=1, keepdims=True)
        mu = np.einsum("ir,irp->ip", w, attrs)
        second = np.einsum("ir,irp,irq->pq", w, attrs, attrs)
        hessian -= second - np.einsum("ip,iq->pq", mu, mu)
    hessian = 0.5 * (hessian + hessian.T)
    return score, hessian


def _solve_spd(neg_hessian: np.ndarray, rhs: np.ndarray):
    """Solve (-H) x = rhs, adding a small ridge when -H is numerically singular."""
    p = neg_hessian.shape[0]
    try:
        np.linalg.cholesky(neg_hessian)
        return np.linalg.solve(neg_hessian, rhs), 0.0
    except np.linalg.LinAlgError:
        scale = float(np.trace(neg_hessian)) / p
        ridge = 1e-8 * scale if scale > 0 else 1e-8
        return np.linalg.solve(neg_hessian + ridge * np.eye(p), rhs), ridge


def fit(data: PanelDataset, force: bool = False, *,
        max_iter: int = DEFAULT_NEWTON_MAX_ITER,
        tol: float = DEFAULT_QP_TOL) -> CmleFit:
    """Compute the conditional ML estimate, refusing when it does not exist.

    Runs the existence check first. If it reports anything other than
    ``exists_unique`` and ``force`` is False, raises
    :class:`~felogit.errors.NonexistenceError` carrying the report. With
    ``force`` the Newton iteration runs anyway, but the result is flagged
    ``converged = False`` with a diagnostic, since on separated data the
    iterates drift along the separating direction and any stopping point is
    an artifact.

    Newton's method starts at beta = 0 with Armijo backtracking on the
    log-likelihood and stops when the sup-norm of the score drops below
    ``DEFAULT_GRAD_TOL`` (1e-8). When the predicted gain of a step is within
    the round-off of the log-likelihood, the Armijo test cannot see it, and
    the full step is taken untested. Standard errors come from the inverse
    observed information at the estimate, where the last Newton iterate's
    score and Hessian are reused.
    """
    gate = detect_panel_separation(data, tol=tol)
    if gate.status != STATUS_EXISTS and not force:
        if gate.status == STATUS_SEPARATED:
            raise NonexistenceError("estimate does not exist (separated)", report=gate)
        raise NonexistenceError("rank condition failed", report=gate)

    beta = np.zeros(data.p)
    ll = conditional_loglik(data, beta)
    score, hessian = conditional_score_and_hessian(data, beta)
    trace: list[NewtonStep] = []

    for it in range(1, max_iter + 1):
        score_sup = float(np.abs(score).max())
        if score_sup <= DEFAULT_GRAD_TOL:
            trace.append(NewtonStep(it, ll, score_sup, 0.0, float(np.linalg.norm(beta))))
            break
        delta, _ = _solve_spd(-hessian, score)
        slope = float(score @ delta)
        if slope <= 0.0:
            delta = score.copy()  # fall back to steepest ascent
            slope = float(score @ score)
        flat = slope <= _FLAT_ULPS * np.finfo(np.float64).eps * max(1.0, abs(ll))
        alpha = 1.0
        while True:
            cand = beta + alpha * delta
            ll_c = conditional_loglik(data, cand)
            if flat or ll_c >= ll + _ARMIJO * alpha * slope:
                break
            alpha *= _SHRINK
            if alpha < 1e-16:
                break
        if alpha < 1e-16 and ll_c < ll:
            trace.append(NewtonStep(it, ll, score_sup, 0.0, float(np.linalg.norm(beta))))
            break  # line search stalled; report non-convergence honestly
        beta, ll = cand, ll_c
        trace.append(NewtonStep(it, ll, score_sup, alpha, float(np.linalg.norm(beta))))
        score, hessian = conditional_score_and_hessian(data, beta)

    score_sup = float(np.abs(score).max())
    converged = score_sup <= DEFAULT_GRAD_TOL

    cov, ridge = _solve_spd(-hessian, np.eye(data.p))
    std_errors = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    diagnostic = None
    if gate.status != STATUS_EXISTS:
        converged = False
        diagnostic = (
            f"existence gate reported {gate.status}; |beta| reached "
            f"{np.linalg.norm(beta):.6g} and any finite stopping point is spurious"
        )
        if ridge > 0.0:
            diagnostic += "; observed information was singular, standard errors are ridged"
    return CmleFit(
        beta_hat=beta,
        std_errors=std_errors,
        loglik=ll,
        gradient_norm=score_sup,
        iterations=len(trace),
        converged=converged,
        gate=gate,
        trace=trace,
        diagnostic=diagnostic,
    )
