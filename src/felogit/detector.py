"""Existence and uniqueness checks for the conditional ML estimate.

Two conditions are checked before estimation, both over the informative
individuals. First, a rank condition: the covariates must vary within
individuals in every direction, i.e. the stacked period differences
x_it - x_i1 must have full column rank. At any finite beta the
softmax-centered alternative attribute vectors span exactly this space, so
the condition does not depend on beta and one SVD decides it. Second, a
separation condition: the estimate exists if and only if no nonzero
direction weakly dominates every attribute difference sum_t (d_t - y_t) x_t.
Each difference is a sum of single swaps x_s - x_t (y_s = 0, y_t = 1), and
each swap is itself a difference, so the k(T - k) swaps per individual
generate the same cone as the C(T, k) - 1 differences. The test reduces to a
box-constrained quadratic program over the swaps reaching a zero minimum,
which the Lawson-Hanson nonnegative least-squares method solves exactly.
Each constraint vector is unit-normalized so the decision threshold is
scale-free.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from ._kernels import QP_MAXITER, QP_ZERO, qp_minimize
from .errors import QpConvergenceError
from .panel import PanelDataset, informative_subset

STATUS_EXISTS = "exists_unique"
STATUS_SEPARATED = "separated"
STATUS_RANK_DEFICIENT = "rank_deficient"

DEFAULT_QP_TOL = 1e-8
DEFAULT_KKT_TOL = 1e-6
DEFAULT_QP_MAX_ITER = 100_000


@dataclass(frozen=True)
class ProbeRank:
    """Singular values and numerical rank of the rank test at one beta value."""

    beta: np.ndarray
    singular_values: np.ndarray
    rank: int


@dataclass(frozen=True)
class RankCheckResult:
    """Outcome of the rank condition.

    ``probes`` holds a single entry at beta = 0. Its rank is the exact rank
    of the within-individual covariate variation, which is the rank of the
    softmax-centered attribute matrix at every beta, so ``rank_ok`` decides
    the condition for all beta at once.
    """

    p: int
    probes: tuple[ProbeRank, ...]

    @property
    def rank_ok(self) -> bool:
        return all(pr.rank == self.p for pr in self.probes)


@dataclass(frozen=True)
class QpProblem:
    """Stacked nonzero attribute-difference vectors and their unit copies."""

    vectors: np.ndarray     # (m, p) deduplicated, zero rows removed
    normalized: np.ndarray  # (m, p) unit rows

    @property
    def size(self) -> int:
        return self.vectors.shape[0]

    @property
    def p(self) -> int:
        return self.vectors.shape[1]


@dataclass
class ExistenceReport:
    """Decision record produced by the separation detectors.

    ``status`` is one of ``exists_unique``, ``separated``,
    ``rank_deficient``; the last overrides the QP verdict whenever the rank
    condition fails. ``direction`` is the unit-normalized optimal combination
    u* when separated; its inner product with every constraint vector is at
    least ``-kkt_tolerance`` (the optimality certificate, reported as
    ``kkt_margin``).
    """

    status: str
    qp_min: float | None
    direction: np.ndarray | None
    iterations: int
    n_constraints: int
    tolerance: float
    kkt_tolerance: float = DEFAULT_KKT_TOL
    dropped_noninformative: int = 0
    kkt_margin: float | None = None
    rank: RankCheckResult | None = None
    message: str | None = None

    @property
    def rank_ok(self) -> bool | None:
        return None if self.rank is None else self.rank.rank_ok


def _dedup_nonzero(rows: np.ndarray) -> QpProblem:
    """The QP problem over the distinct nonzero ``rows``.

    Merging duplicates is not just a speed-up: every row carries a weight
    lam >= 1, so a repeated row would change the QP minimum and, for p >= 2,
    the direction (never the verdict), e.g. for a copied individual. The rows
    come out in lexicographic order, from one lexsort and a comparison of
    neighbours.
    """
    rows = rows[np.linalg.norm(rows, axis=1) > 0.0]
    if rows.size:
        rows = rows[np.lexsort(rows.T[::-1])]
        rows = rows[np.r_[True, (rows[1:] != rows[:-1]).any(axis=1)]]
    return QpProblem(vectors=rows, normalized=rows / np.linalg.norm(rows, axis=1)[:, None])


def qp_problem_from_panel(data: PanelDataset) -> QpProblem:
    """Constraint vectors of the panel separation test.

    One row per (informative individual, single swap) pair holding
    x_s - x_t for a period s with y_s = 0 and a period t with y_t = 1: the
    difference vector of the alternative that moves one choice from t to s.
    Individuals are grouped by choice total k; a stable argsort of each
    outcome row lists the T - k zero periods before the k one periods.
    Individuals with constant outcomes have no swaps. Exact zeros (a
    covariate equal in both periods) are dropped and duplicates merged.
    """
    T, p = data.T, data.p
    totals = data.choice_totals
    blocks = []
    for k in np.unique(totals):
        if not 0 < k < T:
            continue
        members = totals == k
        X = data.covariates[members]
        order = np.argsort(data.outcomes[members], axis=1, kind="stable")[:, :, None]
        zeros = np.take_along_axis(X, order[:, :T - k], axis=1)  # (n_k, T - k, p)
        ones = np.take_along_axis(X, order[:, T - k:], axis=1)   # (n_k, k, p)
        blocks.append((zeros[:, :, None, :] - ones[:, None, :, :]).reshape(-1, p))
    rows = np.concatenate(blocks, axis=0) if blocks else np.zeros((0, p))
    return _dedup_nonzero(rows)


def qp_problem_from_pooled(data: PanelDataset) -> QpProblem:
    """Constraint vectors of the pooled (cross-sectional) separation test.

    Observations are stacked and each contributes (2y - 1) * (1, x'), the
    intercept-augmented covariate vector signed by its outcome.
    """
    n, T, p = data.n, data.T, data.p
    x = data.covariates.reshape(n * T, p)
    y = data.outcomes.reshape(n * T).astype(np.float64)
    signs = 2.0 * y - 1.0
    rows = signs[:, None] * np.column_stack([np.ones(n * T), x])
    return _dedup_nonzero(rows)


def rank_check(data: PanelDataset) -> RankCheckResult:
    """Decide the rank condition exactly from the within-individual variation.

    The rank is that of the stacked period differences x_it - x_i1 of the
    informative individuals, from singular values with threshold
    sigma_max * max(rows, p) * machine epsilon. Differences keep a covariate
    that never changes within an individual exactly zero, where demeaning
    would leave round-off that the threshold counts as rank.

    The reported singular values are those of the attribute vectors of all
    alternatives centered at their beta = 0 (uniform) mean, in closed form:
    sqrt(eig(sum_i C(T, k_i) k_i (T - k_i) / (T (T - 1)) Xc_i' Xc_i)), with
    Xc_i individual i's demeaned covariate matrix; the weight is the integer
    C(T - 2, k_i - 1). They are computed as the singular values of the
    stacked weighted rows sqrt(C(T - 2, k_i - 1)) Xc_i.
    """
    T, p = data.T, data.p
    mask = data.informative_mask
    X = data.covariates[mask]
    rank = 0
    singular_values = np.zeros(p)
    if X.size:
        diffs = (X[:, 1:, :] - X[:, :1, :]).reshape(-1, p)
        sv = np.linalg.svd(diffs, compute_uv=False)
        if sv[0] > 0:
            rank = int((sv > sv[0] * max(diffs.shape) * np.finfo(np.float64).eps).sum())

        # log C(T - 2, k - 1), shifted by its maximum so that large T cannot
        # overflow; one SVD of the weighted demeaned rows avoids squaring them
        log_w = np.array([math.log(math.comb(T - 2, k - 1)) if 0 < k < T else -np.inf
                          for k in range(T + 1)])[data.choice_totals[mask]]
        top = log_w.max()
        centered = (X - X.mean(axis=1, keepdims=True)) * np.exp(0.5 * (log_w - top))[:, None, None]
        sv = np.linalg.svd(centered.reshape(-1, p), compute_uv=False)
        singular_values[:sv.size] = math.exp(0.5 * top) * sv
    probe = ProbeRank(beta=np.zeros(p), singular_values=singular_values, rank=rank)
    return RankCheckResult(p=p, probes=(probe,))


def _check_options(tol, max_iter) -> None:
    """Raise ``ValueError`` unless ``tol`` is a number in (0, 1) and
    ``max_iter`` an integer >= 0.

    The rows are unit vectors and every weight is at least 1, so a panel
    separated by a single swap has a QP minimum of exactly 1: a tolerance of
    1 or more would pass it as existing.
    """
    if not (isinstance(tol, numbers.Real) and 0.0 < tol < 1.0):
        raise ValueError(f"tol must be a number in (0, 1), got {tol!r}")
    if isinstance(max_iter, bool) or not isinstance(max_iter, numbers.Integral) or max_iter < 0:
        raise ValueError(f"max_iter must be an integer >= 0, got {max_iter!r}")


def _qp_report(problem: QpProblem, tol: float, max_iter: int, **fields) -> ExistenceReport:
    """Solve the QP over ``problem`` and assemble the report of its verdict.

    A separated report carries the unit direction u*/|u*| and its KKT margin
    min_k w_k'u*/|u*|. Raises :class:`QpConvergenceError` when the solver
    hits its cap on active-set steps.
    """
    _, q, u, iters, flag, viol = qp_minimize(problem.normalized, tol, DEFAULT_KKT_TOL, max_iter)
    if flag == QP_MAXITER:
        raise QpConvergenceError(
            f"QP did not converge; raise iteration cap: q={q:.6g}, KKT violation"
            f" {viol:.3g} after {iters} active-set steps",
            flag=flag, q=q, kkt_violation=viol, iterations=iters,
        )
    report = ExistenceReport(
        status=STATUS_EXISTS if flag == QP_ZERO else STATUS_SEPARATED,
        qp_min=q,
        direction=None,
        iterations=iters,
        n_constraints=problem.size,
        tolerance=tol,
        **fields,
    )
    if report.status == STATUS_SEPARATED:
        report.direction = u / np.linalg.norm(u)
        report.kkt_margin = float((problem.normalized @ report.direction).min())
    return report


def detect_panel_separation(data: PanelDataset, tol: float = DEFAULT_QP_TOL, *,
                            max_iter: int = DEFAULT_QP_MAX_ITER) -> ExistenceReport:
    """Decide whether the conditional ML estimate exists and is unique.

    Builds the single-swap QP over all informative individuals and
    minimizes |sum_k lam_k w_k|^2 over lam_k >= 1 exactly, by nonnegative
    least squares in lam - 1. A minimum at most ``tol`` means a finite unique
    estimate exists; otherwise the data are separated and the optimal
    combination (unit-normalized) is reported as the separating direction.
    ``max_iter`` caps the solver's active-set steps. The rank condition is
    decided as well and, when it fails, overrides the QP verdict with
    ``rank_deficient``. Deterministic given inputs. Raises ``ValueError``
    unless ``tol`` is in (0, 1) and ``max_iter`` an integer >= 0.
    """
    _check_options(tol, max_iter)
    sub, dropped = informative_subset(data)
    rank = rank_check(sub)
    problem = qp_problem_from_panel(sub)
    if problem.size == 0:
        return ExistenceReport(
            status=STATUS_RANK_DEFICIENT,
            qp_min=None,
            direction=None,
            iterations=0,
            n_constraints=0,
            tolerance=tol,
            dropped_noninformative=dropped,
            rank=rank,
            message="no within-individual covariate variation; every swap vector is zero",
        )
    report = _qp_report(problem, tol, max_iter, dropped_noninformative=dropped, rank=rank)
    if not rank.rank_ok:
        report.status = STATUS_RANK_DEFICIENT
        report.message = (f"covariates vary within individuals in only"
                          f" {rank.probes[0].rank} of {rank.p} directions")
    return report


def detect_pooled_separation(data: PanelDataset, tol: float = DEFAULT_QP_TOL, *,
                             max_iter: int = DEFAULT_QP_MAX_ITER) -> ExistenceReport:
    """Cross-sectional separation check on the stacked observations.

    Ignores the panel structure: a weak linear classifier (with intercept)
    that predicts every outcome correctly exists if and only if the QP
    minimum stays away from zero, in which case the pooled logit ML estimate
    does not exist. Uses the same QP machinery as the panel check on vectors
    (2y - 1) * (1, x'), and validates ``tol`` and ``max_iter`` as
    :func:`detect_panel_separation` does.
    """
    _check_options(tol, max_iter)
    problem = qp_problem_from_pooled(data)
    classes = np.unique(data.outcomes)
    message = "degenerate: one outcome class" if classes.size < 2 else None
    return _qp_report(problem, tol, max_iter, message=message)
