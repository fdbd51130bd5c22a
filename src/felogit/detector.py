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

import numbers
from dataclasses import dataclass

import numpy as np

from ._kernels import QP_MAXITER, QP_ZERO, qp_minimize
from .errors import PanelDataError, QpConvergenceError
from .panel import PanelDataset, informative_subset

STATUS_EXISTS = "exists_unique"
STATUS_SEPARATED = "separated"
STATUS_RANK_DEFICIENT = "rank_deficient"

DEFAULT_QP_TOL = 1e-8
DEFAULT_KKT_TOL = 1e-6
DEFAULT_QP_MAX_ITER = 100_000


@dataclass(frozen=True)
class ProbeRank:
    """Singular values and numerical rank of the stacked period differences.

    ``beta`` is always zero: the differences, and so the spectrum, do not
    depend on beta.
    """

    beta: np.ndarray
    singular_values: np.ndarray
    rank: int


@dataclass(frozen=True)
class RankCheckResult:
    """Outcome of the rank condition.

    ``probes`` holds a single entry. Its rank is the exact rank of the
    within-individual covariate variation, which is the rank of the
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

    vectors: np.ndarray     # (m, p) zero rows removed, in builder order
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
    condition fails, and keeps its ``qp_min``, ``direction`` and
    ``kkt_margin``. ``direction`` is the unit-normalized optimal combination
    u* when the QP separates; its inner product with every constraint vector
    is at least ``-kkt_tolerance`` (the optimality certificate, ``kkt_margin``).
    """

    status: str
    qp_min: float
    direction: np.ndarray | None
    iterations: int
    n_constraints: int
    tolerance: float
    kkt_tolerance: float = DEFAULT_KKT_TOL
    kkt_margin: float | None = None
    dropped_noninformative: int = 0
    rank: RankCheckResult | None = None
    message: str | None = None


def _dedup_nonzero(rows: np.ndarray) -> QpProblem:
    """The QP problem over the nonzero ``rows`` (m, p), unit rows in input order.

    Nothing is merged or sorted: repeated or reordered rows span the same
    cone. The name stays until the benchmark's tracer, which hooks it by
    name, is renamed with it. Each row is scaled by the power of two that
    brings its largest |entry| into [0.5, 1) (exact), so its norm neither
    overflows nor underflows; the norm sums over C-ordered rows, as a
    column-by-column sum can round differently for p >= 8.
    """
    cols = np.ascontiguousarray(rows.T)
    nonzero = (cols != 0).any(axis=0)
    if not nonzero.all():
        cols = cols.compress(nonzero, axis=1)
    exps = np.frexp(np.abs(cols).max(axis=0, initial=0.0))[1]
    rows = cols.T.copy()  # C order, and never a view of the caller's rows
    normalized = np.ldexp(rows, -exps[:, None])
    del cols, exps  # freed before the norm allocates its temporaries: a lower peak
    normalized /= np.linalg.norm(normalized, axis=1)[:, None]
    return QpProblem(vectors=rows, normalized=normalized)


def qp_problem_from_panel(data: PanelDataset) -> QpProblem:
    """Constraint vectors of the panel separation test.

    One row per (informative individual, single swap) pair holding
    x_s - x_t for a period s with y_s = 0 and a period t with y_t = 1: the
    difference vector of the alternative that moves one choice from t to s,
    listed by individual, then s, then t. All swaps come from one
    ``np.nonzero`` over the (n, T, T) mask y_s < y_t (n T^2 bytes) and two
    gathers of the covariate columns. Individuals with constant outcomes
    have no swaps; exact zeros (a covariate equal in both periods) are dropped.
    """
    T, p = data.T, data.p
    y = data.outcomes
    i, s, t = np.nonzero(y[:, :, None] < y[:, None, :])
    first = i * T  # row of period 0 of the swap's individual
    X = data.covariates.reshape(-1, p).T  # (p, n T) view: gathers come out column-major
    cols = X.take(first + s, axis=1)
    cols -= X.take(first + t, axis=1)
    del i, s, t, first  # freed before the dedup allocates: a lower peak
    return _dedup_nonzero(cols.T)


def qp_problem_from_pooled(data: PanelDataset) -> QpProblem:
    """Constraint vectors of the pooled (cross-sectional) separation test.

    Observations are stacked and each contributes (2y - 1) * (1, x'), the
    intercept-augmented covariate vector signed by its outcome.
    """
    n, T, p = data.n, data.T, data.p
    cols = np.empty((p + 1, n * T))  # the rows, built column-major as the dedup reads them
    np.multiply(data.outcomes.reshape(n * T), 2.0, out=cols[0])
    cols[0] -= 1.0
    np.multiply(data.covariates.reshape(n * T, p).T, cols[0], out=cols[1:])
    return _dedup_nonzero(cols.T)


def rank_check(data: PanelDataset) -> RankCheckResult:
    """Decide the rank condition exactly from the within-individual variation.

    The rank is that of the stacked period differences x_it - x_i1 of the
    informative individuals, from their singular values with threshold
    sigma_max * max(rows, p) * machine epsilon. Differences keep a covariate
    that never changes within an individual exactly zero, where demeaning
    would leave round-off that the threshold counts as rank. The reported
    singular values are these, zero-padded to length p, so the rank is the
    number of them above the threshold.
    """
    p = data.p
    mask = data.informative_mask
    X = data.covariates if mask.all() else data.covariates[mask]
    rank = 0
    singular_values = np.zeros(p)
    if X.size:
        with np.errstate(over="ignore"):  # an infinite difference leaves sigma_max NaN
            diffs = (X[:, 1:, :] - X[:, :1, :]).reshape(-1, p)
        sv = np.linalg.svd(diffs, compute_uv=False)
        singular_values[:sv.size] = sv
        # eps first: sigma_max times the row count can overflow
        rank = int((sv > sv[0] * (max(diffs.shape) * np.finfo(np.float64).eps)).sum())
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


def _reject_overflowing_spans(data: PanelDataset) -> None:
    """Raise :class:`PanelDataError` if an informative individual's x_s - x_t overflows."""
    with np.errstate(over="ignore"):
        spans = data.covariates.max(axis=1) - data.covariates.min(axis=1)
    bad = np.flatnonzero(~np.isfinite(spans).all(axis=1) & data.informative_mask)
    if bad.size:
        raise PanelDataError(f"covariates of individual {data.ids[bad[0]]} differ by more than"
                             " the largest float between two periods; rescale them")


def _qp_report(problem: QpProblem, tol: float, max_iter: int,
               rank: RankCheckResult | None = None, **fields) -> ExistenceReport:
    """Solve the QP over ``problem`` and build the report of its verdict.

    A separated report carries the unit direction u*/|u*| and its KKT margin
    min_k w_k'u*/|u*|. A failed ``rank`` condition overrides the status with
    ``rank_deficient`` and keeps them. Raises :class:`QpConvergenceError`
    when the solver hits its cap on active-set steps.
    """
    _, q, u, iters, flag, viol = qp_minimize(problem.normalized, tol, DEFAULT_KKT_TOL, max_iter)
    if flag == QP_MAXITER:
        raise QpConvergenceError(
            f"QP did not converge; raise iteration cap: q={q:.6g}, KKT violation"
            f" {viol:.3g} after {iters} active-set steps",
            flag=flag, q=q, kkt_violation=viol, iterations=iters,
        )
    status, direction, margin = STATUS_EXISTS, None, None
    if flag != QP_ZERO:
        status, direction = STATUS_SEPARATED, u / np.linalg.norm(u)
        margin = float((problem.normalized @ direction).min())
    if rank is not None and not rank.rank_ok:
        status = STATUS_RANK_DEFICIENT
        fields["message"] = (f"covariates vary within individuals in only"
                             f" {rank.probes[0].rank} of {rank.p} directions")
    return ExistenceReport(status=status, qp_min=q, direction=direction, iterations=iters,
                           n_constraints=problem.size, tolerance=tol, kkt_margin=margin,
                           rank=rank, **fields)


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
    ``rank_deficient``, as for every panel with no nonzero swap (its QP has
    no row and the minimum 0). Deterministic given inputs. Raises
    ``ValueError`` unless ``tol`` is in (0, 1) and ``max_iter`` an integer >= 0.
    """
    _check_options(tol, max_iter)
    sub, dropped = informative_subset(data)
    rank = rank_check(sub)
    sigma_max = rank.probes[0].singular_values[0]
    # sigma_max bounds every |x_t - x_1|, so below 2^1022 every swap is finite
    if not sigma_max < 2.0 ** 1022:
        _reject_overflowing_spans(sub)
        if not np.isfinite(sigma_max):
            raise PanelDataError("the period differences of the covariates are too large"
                                 " to decide their rank; rescale them")
    return _qp_report(qp_problem_from_panel(sub), tol, max_iter, rank,
                      dropped_noninformative=dropped)


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
    message = "degenerate: one outcome class" if np.unique(data.outcomes).size < 2 else None
    return _qp_report(qp_problem_from_pooled(data), tol, max_iter, message=message)
