"""Conditional maximum likelihood estimation, gated by the existence check.

The conditional log-likelihood is globally concave, so a damped Newton
iteration from beta = 0 converges whenever a finite maximizer exists. Value,
score and Hessian need the log denominator and the softmax mean and
covariance of the attribute vectors over each individual's alternative
sequences. The small alternative sets that :mod:`felogit.altsets` enumerates
faster take them from the enumeration, every other set from the denominator
recursion in :mod:`felogit._kernels`, which carries them next to log D
without enumerating, so no C(T, k) is too large. What does not depend on
beta (the enumerated attribute differences, the other rows' covariates and
observed attribute sums) is built once per panel, on first use, and kept
for as long as the panel lives. It is built from the panel's complemented
form, in which every row with 2k > T is (-x, 1 - y, T - k): that row has
the same log-likelihood, score and Hessian, since choosing the k ones is
choosing the T - k zeros, D_k(s) = exp(sum_t s_t) D_{T-k}(-s). So every
total is at most floor(T/2), where the recursion stops. Each evaluation
does only the work at beta, and gives value, score and Hessian from one
enumerated pass per alternative-set size and one recursion pass, so Newton
pays one pass per line-search trial.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field

import numpy as np

from ._kernels import logdenom_batch
from .altsets import attribute_batches
from .detector import (
    STATUS_EXISTS,
    STATUS_SEPARATED,
    ExistenceReport,
    _reject_overflowing_spans,
    detect_panel_separation,
)
from .errors import NonexistenceError, PanelDataError
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


@dataclass(kw_only=True)
class CmleFit:
    """A fitted conditional logit.

    ``converged`` certifies the first-order condition at ``gradient_norm``
    below the tolerance, except under ``force`` on a gated dataset, where it
    is always False because any finite point reached there is ``spurious``:
    the existence gate reported anything other than ``exists_unique``.
    ``diagnostic`` names, on any fit, what makes the numbers suspect: a
    failed gate, and an observed information at the estimate that was
    singular, so that the standard errors come from a ridged solve.
    """

    beta_hat: np.ndarray
    std_errors: np.ndarray
    loglik: float
    gradient_norm: float
    iterations: int
    converged: bool
    spurious: bool
    diagnostic: str | None = None
    trace: list[NewtonStep] = field(default_factory=list)
    gate: ExistenceReport


def _validate_beta(beta, p: int) -> np.ndarray:
    beta = np.asarray(beta, dtype=np.float64).reshape(-1)
    if beta.shape != (p,):
        raise ValueError(f"beta has length {beta.shape[0]}, expected {p}")
    if not np.isfinite(beta).all():
        raise ValueError("beta must be finite")
    return beta


@dataclass(frozen=True)
class _Layout:
    """The beta-free part of one panel's conditional likelihood, read from
    its complemented form, in which each row with 2k > T is
    (-x, 1 - y, T - k); the values at beta are the row's own, since the
    complement's observed score and log D both differ from the row's by
    -sum_t x_t'beta.

    ``enumerated`` holds, per chunk of :func:`~felogit.altsets.attribute_batches`
    (rows of one total), the row positions and the differences a_r - a_obs
    of each alternative's attribute vector from the observed one's, so the
    observed alternative scores exactly 0. They are stored alternative-major,
    (C(T, k), p, m) for m rows, so that every sum over the alternatives adds
    whole rows of individuals; the batch's attribute vectors already come in
    that order, and the observed one's are subtracted from them in place,
    with no transposed copy. ``rest`` holds the positions of the other
    informative rows, with their covariates, choice totals and observed
    attribute sums sum_t y_t x_t.
    """

    enumerated: list[tuple[np.ndarray, np.ndarray]]
    rest: np.ndarray
    covariates: np.ndarray
    totals: np.ndarray
    observed: np.ndarray


# keyed by the panel itself, so a layout lives exactly as long as its panel
_LAYOUTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _layout(data: PanelDataset) -> _Layout:
    """The panel's :class:`_Layout`, built on first use from one enumeration."""
    layout = _LAYOUTS.get(data)
    if layout is None:
        # below 2^1022 in magnitude no difference x_s - x_t overflows
        if max(data.covariates.max(initial=0.0), -data.covariates.min(initial=0.0)) >= 2.0 ** 1022:
            _reject_overflowing_spans(data)
        flip = 2 * data.choice_totals > data.T
        panel = PanelDataset._unchecked(  # the complemented form: negation and ^ are exact
            data.ids, data.periods, data.covariates * np.where(flip, -1.0, 1.0)[:, None, None],
            data.outcomes ^ flip[:, None])
        enumerated = []
        rest = data.informative_mask.copy()
        for idx, _, attrs, obs_index in attribute_batches(panel):
            diff = attrs.transpose(1, 2, 0)  # the (C(T, k), p, m) array the batch owns
            diff -= diff[obs_index, :, np.arange(idx.size)].T
            rest[idx] = False
            enumerated.append((idx, diff))
        rows = np.flatnonzero(rest)
        X = panel.covariates[rows]
        observed = np.einsum("it,itp->ip", panel.outcomes[rows].astype(np.float64), X)
        layout = _LAYOUTS[data] = _Layout(enumerated, rows, X, panel.choice_totals[rows], observed)
    return layout


def _alternative_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the leading (alternative) axis, one alternative at a time, so
    each individual's bits do not depend on how many share its chunk."""
    out = x[0].copy()
    for row in x[1:]:
        out += row
    return out


def _alternative_scores(diff: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """(a_r - a_obs)'beta, (C(T, k), m), summed over the coefficients in order."""
    s = diff[:, 0] * beta[0]
    for j in range(1, beta.size):
        s += diff[:, j] * beta[j]
    return s


def _evaluate(data: PanelDataset, beta, order: int):
    """``(loglik,)`` at ``order`` 0 and ``(loglik, score, hessian)`` at 2, at
    beta, from one pass over the enumerated sets and one recursion pass.

    An enumerated set contributes -log sum_r exp((a_r - a_obs)'beta), every
    other set its observed score minus the recursion's log D, and each its
    observed minus its softmax mean attribute vector to the score and minus
    its softmax covariance to the Hessian. An enumerated covariance sums
    w (a - mu)(a - mu)', so nothing cancels, formed from sqrt(w) (a - mu) so
    that it comes out exactly symmetric.
    """
    beta = _validate_beta(beta, data.p)
    n, p = data.n, data.p
    layout = _layout(data)
    ll = np.zeros(n)
    # rows on the last, contiguous axis, along which the sums below run
    gap = np.zeros((p, n))  # softmax mean minus observed attribute vector
    cov = np.zeros((p, p, n))
    for idx, diff in layout.enumerated:
        s = _alternative_scores(diff, beta)
        top = s.max(axis=0)  # >= 0: the observed alternative scores 0
        w = np.exp(s - top)
        total = _alternative_sum(w)
        ll[idx] = -(top + np.log(total))
        if order:
            w /= total
            mu = _alternative_sum(w[:, None, :] * diff)
            gap[:, idx] = mu
            dev = np.sqrt(w)[:, None, :] * (diff - mu)
            block = np.empty((p, p, idx.size))
            with np.errstate(over="ignore"):  # an overflow leaves inf, which _solve_spd reports
                for j in range(p):
                    block[j, j:] = block[j:, j] = _alternative_sum(dev[:, j:j + 1] * dev[:, j:])
            cov[:, :, idx] = block
    X = layout.covariates
    moments = logdenom_batch(X @ beta, X, layout.totals, order=order)
    ll[layout.rest] = layout.observed @ beta - moments[0]
    if not order:
        return float(ll.sum()),
    gap[:, layout.rest] = (moments[1] - layout.observed).T
    cov[:, :, layout.rest] = moments[2].transpose(1, 2, 0)
    return float(ll.sum()), -gap.sum(axis=-1), -cov.sum(axis=-1)


def _finite(what: str, *values):
    """``values``; raises :class:`~felogit.errors.PanelDataError` naming
    ``what`` unless every entry of every value is finite."""
    for v in values:
        if not np.isfinite(v).all():
            raise PanelDataError(f"the {what} is not finite: the covariates are"
                                 " too large to evaluate the likelihood; rescale them")
    return values


def conditional_loglik(data: PanelDataset, beta) -> float:
    """Log-likelihood of the outcome sequences given their choice totals.

    Sums, over informative individuals, the observed score minus the log
    denominator; individuals with constant outcomes contribute exactly zero.
    Raises :class:`~felogit.errors.PanelDataError` when the value overflows,
    as sums of large covariates can even where each difference is finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        ll, = _evaluate(data, beta, 0)
    return _finite("log-likelihood", ll)[0]


def conditional_score_and_hessian(data: PanelDataset, beta):
    """Score vector and Hessian matrix of the conditional log-likelihood,
    from the softmax mean and covariance of each informative individual's
    attribute vectors over its alternative sequences. Raises
    :class:`~felogit.errors.PanelDataError` when either overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        _, score, hessian = _evaluate(data, beta, 2)
    return _finite("score or Hessian", score, hessian)


def _solve_spd(neg_hessian: np.ndarray, rhs: np.ndarray):
    """Solve (-H) x = rhs, adding a small ridge when -H is numerically singular.

    Raises :class:`~felogit.errors.PanelDataError` when -H or rhs (the score
    of a Newton step) is not finite."""
    _finite("score or Hessian", neg_hessian, rhs)
    p = neg_hessian.shape[0]
    try:
        np.linalg.cholesky(neg_hessian)
        return np.linalg.solve(neg_hessian, rhs), 0.0
    except np.linalg.LinAlgError:
        scale = float(np.trace(neg_hessian)) / p
        ridge = 1e-8 * scale if scale > 0 else 1e-8
        return np.linalg.solve(neg_hessian + ridge * np.eye(p), rhs), ridge


def fit(data: PanelDataset, force: bool = False) -> CmleFit:
    """Compute the conditional ML estimate, refusing when it does not exist.

    Runs the existence check first (:func:`~felogit.detector.detect_panel_separation`,
    with its fixed QP threshold and step cap). If it reports anything other
    than ``exists_unique`` and ``force`` is False, raises
    :class:`~felogit.errors.NonexistenceError` carrying the report. With
    ``force`` the Newton iteration runs anyway, but the result is flagged
    ``converged = False`` with a diagnostic, since on separated data the
    iterates drift along the separating direction and any stopping point is
    an artifact.

    Newton's method starts at beta = 0 with Armijo backtracking on the
    log-likelihood and stops when the sup-norm of the score drops below
    ``DEFAULT_GRAD_TOL`` (1e-8). The round-off of the log-likelihood,
    ``_FLAT_ULPS`` ulps of max(1, |loglik|), is allowed for in the Armijo
    test, so a trial that falls short of it by round-off alone is accepted.
    When the predicted gain of a step is within that round-off, the test
    cannot see it, and the full step is taken untested. Each line-search
    trial is evaluated in one pass that gives its log-likelihood, score and
    Hessian, so an accepted trial is never evaluated again. Standard errors
    come from the inverse observed information at the estimate, where the
    last Newton iterate's score and Hessian are reused.

    Newton stops after ``DEFAULT_NEWTON_MAX_ITER`` (100) iterations, and an
    estimate left there is reported with ``converged = False``. The cap is
    fixed: where the estimate exists, Newton converges in a few steps, and on
    a panel where it does not (covariates scaled by 2**500) a cap of 1 000
    ends at the same beta as 100.

    Raises :class:`~felogit.errors.PanelDataError` when the log-likelihood,
    score or Hessian overflows.
    """
    gate = detect_panel_separation(data)
    spurious = gate.status != STATUS_EXISTS
    if spurious and not force:
        if gate.status == STATUS_SEPARATED:
            raise NonexistenceError("estimate does not exist (separated)", report=gate)
        raise NonexistenceError("rank condition failed", report=gate)

    # the start goes through the public views, which perfbench's tracer wraps;
    # at beta = 0 every recursed row takes the closed form, so this costs little
    beta = np.zeros(data.p)
    ll = conditional_loglik(data, beta)
    score, hessian = conditional_score_and_hessian(data, beta)
    trace: list[NewtonStep] = []

    for it in range(1, DEFAULT_NEWTON_MAX_ITER + 1):
        score_sup = float(np.abs(score).max())
        if score_sup <= DEFAULT_GRAD_TOL:
            trace.append(NewtonStep(it, ll, score_sup, 0.0, float(np.linalg.norm(beta))))
            break
        delta, _ = _solve_spd(-hessian, score)
        slope = float(score @ delta)
        if slope <= 0.0:
            delta = score.copy()  # fall back to steepest ascent
            slope = float(score @ score)
        roundoff = _FLAT_ULPS * np.finfo(np.float64).eps * max(1.0, abs(ll))
        flat = slope <= roundoff
        alpha = 1.0
        while True:
            cand = beta + alpha * delta
            ll_c, score_c, hessian_c = _evaluate(data, cand, 2)
            if flat or ll_c >= ll + _ARMIJO * alpha * slope - roundoff:
                break
            alpha *= _SHRINK
            if alpha < 1e-16:
                break
        if alpha < 1e-16 and ll_c < ll:
            trace.append(NewtonStep(it, ll, score_sup, 0.0, float(np.linalg.norm(beta))))
            break  # line search stalled; report non-convergence honestly
        beta, ll, score, hessian = cand, ll_c, score_c, hessian_c
        trace.append(NewtonStep(it, ll, score_sup, alpha, float(np.linalg.norm(beta))))

    score_sup = float(np.abs(score).max())
    converged = score_sup <= DEFAULT_GRAD_TOL

    cov, ridge = _solve_spd(-hessian, np.eye(data.p))
    std_errors = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    notes = []
    if spurious:
        converged = False
        notes.append(f"existence gate reported {gate.status}; |beta| reached "
                     f"{np.linalg.norm(beta):.6g} and any finite stopping point is spurious")
    if ridge > 0.0:
        notes.append("observed information was singular, standard errors are ridged")
    diagnostic = "; ".join(notes) or None
    return CmleFit(
        beta_hat=beta,
        std_errors=std_errors,
        loglik=ll,
        gradient_norm=score_sup,
        iterations=len(trace),
        converged=converged,
        spurious=spurious,
        diagnostic=diagnostic,
        trace=trace,
        gate=gate,
    )
