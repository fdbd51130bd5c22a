"""Conditional maximum likelihood estimation, gated by the existence check.

The conditional log-likelihood is globally concave, so a damped Newton
iteration from beta = 0 converges whenever a finite maximizer exists. The
value comes from the denominator recursion in :mod:`felogit._kernels`. Score
and Hessian need the softmax mean and covariance of the attribute vectors
over each individual's alternative sequences: the small alternative sets
that :mod:`felogit.altsets` enumerates faster take them from the
enumeration, every other set from the same recursion, which carries them
next to log D without enumerating, so no C(T, k) is too large.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from ._kernels import logdenom_batch
from .altsets import attribute_batches
from .detector import (
    STATUS_EXISTS,
    STATUS_SEPARATED,
    DEFAULT_QP_TOL,
    ExistenceReport,
    detect_panel_separation,
)
from .errors import NonexistenceError
from .panel import IndividualSlice, PanelDataset

DEFAULT_GRAD_TOL = 1e-8
DEFAULT_NEWTON_MAX_ITER = 100
_ARMIJO = 1e-4
_SHRINK = 0.5
# predicted gains below this many ulps of |loglik| are lost in its round-off
_FLAT_ULPS = 16.0
_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)


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


def _validate_beta(beta, p: int) -> np.ndarray:
    beta = np.asarray(beta, dtype=np.float64).reshape(-1)
    if beta.shape != (p,):
        raise ValueError(f"beta has length {beta.shape[0]}, expected {p}")
    if not np.isfinite(beta).all():
        raise ValueError("beta must be finite")
    return beta


def denominator_dp(slc: IndividualSlice, beta) -> tuple[float, np.ndarray]:
    """Conditional-likelihood denominator and its gradient for one individual.

    Computes sum over the alternative set of exp(sum_t d_t x_t'beta) and the
    gradient of that sum, via the log-scaled recursion. At beta = 0 the value
    is exactly C(T, k). Requires an informative slice and finite beta, and
    raises ``ValueError`` when the value or its gradient overflows float64.
    """
    if not slc.informative:
        raise ValueError("denominator_dp requires an informative slice")
    beta = _validate_beta(beta, slc.p)
    scores = slc.covariates @ beta
    k = slc.choice_total
    ld, mean = logdenom_batch(scores[None, :], slc.covariates[None], np.array([k]))
    if ld[0] + math.log(max(1.0, float(np.abs(mean).max()))) > _LOG_FLOAT_MAX:
        raise ValueError(f"denominator or its gradient overflows float64: log D = {ld[0]:.6g}")
    if np.all(scores == scores[0]):
        # equal scores: D = C(T,k) * exp(k * s); exact at beta = 0
        value = float(math.comb(slc.T, k)) * math.exp(k * scores[0])
    else:
        value = math.exp(ld[0])
    return value, value * mean[0]


def conditional_loglik(data: PanelDataset, beta) -> float:
    """Log-likelihood of the outcome sequences given their choice totals.

    Sums, over informative individuals, the observed score minus the log
    denominator; individuals with constant outcomes contribute exactly zero.
    """
    beta = _validate_beta(beta, data.p)
    mask = data.informative_mask
    X = data.covariates[mask]
    Y = data.outcomes[mask].astype(np.float64)
    S = X @ beta
    logden, = logdenom_batch(S, X, data.choice_totals[mask], order=0)
    return float(((Y * S).sum(axis=1) - logden).sum())


def conditional_score_and_hessian(data: PanelDataset, beta):
    """Score vector and Hessian matrix of the conditional log-likelihood.

    Each informative individual contributes the softmax mean and covariance
    of its attribute vectors over its alternative sequences: enumerated for
    the small sets of :func:`~felogit.altsets.attribute_batches`, from one
    pass of the recursion for the others. The score is the sum of observed
    minus mean attribute vectors, the Hessian minus the sum of the
    covariances.
    """
    beta = _validate_beta(beta, data.p)
    n, p = data.n, data.p
    scores = data.covariates @ beta
    gap = np.zeros((n, p))  # softmax mean minus observed attribute vector
    cov = np.zeros((n, p, p))
    rest = data.informative_mask.copy()
    for idx, alts, attrs, obs_index in attribute_batches(data):
        alt_scores = np.einsum("it,rt->ir", scores[idx], alts)  # the same bits in any chunk
        gap[idx], cov[idx] = _enumerated_moments(alt_scores, attrs, obs_index)
        rest[idx] = False
    X = data.covariates[rest]
    _, mean, cov[rest] = logdenom_batch(scores[rest], X, data.choice_totals[rest], order=2)
    gap[rest] = mean - np.einsum("it,itp->ip", data.outcomes[rest].astype(np.float64), X)
    return -gap.sum(axis=0), -cov.sum(axis=0)


def _enumerated_moments(alt_scores: np.ndarray, attrs: np.ndarray, obs_index: np.ndarray):
    """Softmax mean minus the observed attribute vector, and covariance.

    ``alt_scores`` (m, r) and ``attrs`` (m, r, p) hold each alternative's
    score and attribute vector, ``obs_index`` (m,) the observed one. The
    covariance sums w (a - mu)(a - mu)', so nothing cancels, formed from
    sqrt(w) (a - mu) so that it comes out exactly symmetric.
    """
    w = np.exp(alt_scores - alt_scores.max(axis=1, keepdims=True))
    w /= w.sum(axis=1, keepdims=True)
    diff = attrs - attrs[np.arange(attrs.shape[0]), obs_index][:, None, :]
    gap = np.einsum("ir,irp->ip", w, diff)
    dev = np.sqrt(w)[:, :, None] * (diff - gap[:, None, :])
    return gap, np.einsum("irp,irq->ipq", dev, dev)


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

    Raises ``ValueError`` unless ``tol`` (the existence check's QP tolerance)
    is in (0, 1) and ``max_iter`` (the cap on Newton iterations) is an
    integer >= 0.
    """
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")
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
