"""Independent oracles used to pin expected values in the tests.

Everything here deliberately avoids the production code paths it is used to
check: denominators and the softmax covariance of attribute vectors come
from explicit subset enumeration, derivatives from
central finite differences, separation verdicts from sign inspection or a
direction grid or an exact LP feasibility problem, constraint sets and the
rank at beta = 0 from enumerating every alternative. The exceptions are
frozen copies of earlier production code against which the current code is
pinned: :func:`recursion_reference`, the denominator recursion in its
rows-first layout, and :func:`swaps_reference`, the panel constraint builder
with one block per choice total, both bit for bit, and :func:`qp_reference`,
the Lawson-Hanson solver with a fresh least-squares solve per step, which
the updated QR factor of the current solver must agree with in flags and
steps and up to round-off in values. :func:`dedup_reference` restates the
unit constraint rows row by row, to pin them bit for bit too.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from felogit import (
    STATUS_EXISTS,
    STATUS_RANK_DEFICIENT,
    STATUS_SEPARATED,
    PanelDataset,
    QpProblem,
)
from felogit._kernels import QP_MAXITER, QP_STATIONARY, QP_ZERO
from felogit.detector import _dedup_nonzero


def enum_denominator(covariates, outcomes, beta):
    """Brute-force sum of exp(subset score) over all sequences with the
    observed choice total."""
    covariates = np.asarray(covariates, dtype=np.float64)
    outcomes = np.asarray(outcomes)
    beta = np.asarray(beta, dtype=np.float64)
    T = outcomes.shape[0]
    k = int(outcomes.sum())
    s = covariates @ beta
    total = 0.0
    for ones in itertools.combinations(range(T), k):
        total += math.exp(sum(s[t] for t in ones))
    return total


def enum_log_denominator(covariates, outcomes, beta):
    """Stable log of :func:`enum_denominator` via an explicit max shift."""
    covariates = np.asarray(covariates, dtype=np.float64)
    outcomes = np.asarray(outcomes)
    beta = np.asarray(beta, dtype=np.float64)
    T = outcomes.shape[0]
    k = int(outcomes.sum())
    s = covariates @ beta
    sums = np.array([
        sum(s[t] for t in ones) for ones in itertools.combinations(range(T), k)
    ])
    m = sums.max()
    return float(m + np.log(np.exp(sums - m).sum()))


def _enum_softmax(covariates, outcomes, beta):
    """Every attribute vector sum_t d_t x_t over the sequences d with the
    observed choice total, and its probability, proportional to
    exp(sum_t d_t x_t'beta)."""
    covariates = np.asarray(covariates, dtype=np.float64)
    outcomes = np.asarray(outcomes)
    beta = np.asarray(beta, dtype=np.float64)
    T = outcomes.shape[0]
    k = int(outcomes.sum())
    attrs = np.array([covariates[list(ones)].sum(axis=0)
                      for ones in itertools.combinations(range(T), k)])
    e = attrs @ beta
    w = np.exp(e - e.max())
    w /= w.sum()
    return attrs, w


def enum_softmax_mean(covariates, outcomes, beta):
    """Mean of the attribute vector under :func:`_enum_softmax`: the
    gradient of the log denominator."""
    attrs, w = _enum_softmax(covariates, outcomes, beta)
    return w @ attrs


def enum_softmax_covariance(covariates, outcomes, beta):
    """Covariance of the attribute vector under :func:`_enum_softmax`: minus
    the Hessian of the log denominator. Sums w (a - mu)(a - mu)' over every
    sequence, so nothing cancels."""
    attrs, w = _enum_softmax(covariates, outcomes, beta)
    centered = attrs - w @ attrs
    return (w[:, None] * centered).T @ centered


def _logadd(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log(e^a + e^b) as the kernel writes it: logaddexp's algorithm in ufuncs."""
    c = np.maximum(a, b)
    c += np.log1p(np.exp(-np.abs(b - a)))
    return c


# The kernel's recursion as it was with rows on the first axis and the full
# (p, p) covariance per cell, kept as the bit-for-bit reference; only its
# log-add step follows the kernel's.
def recursion_reference(S: np.ndarray, X: np.ndarray, ks: np.ndarray, order: int,
                        logadd=_logadd):
    """The log-scaled recursion over rows with 0 <= k <= T; returns the first
    ``order + 1`` accumulators at each row's own k. ``logadd`` is the log-add
    step; ``np.logaddexp`` gives the recursion as numpy's scalar loop does it."""
    nr, T = S.shape
    p = X.shape[2]
    kmax = int(ks.max())
    lf = np.full((nr, kmax + 1), -np.inf)
    lf[:, 0] = 0.0
    h = np.zeros((nr, kmax + 1, p)) if order >= 1 else None
    C = np.zeros((nr, kmax + 1, p, p)) if order >= 2 else None
    for t in range(T):
        st = S[:, t]
        xt = X[:, t, :]
        for m in range(min(t + 1, kmax), 0, -1):
            a = lf[:, m]
            b = lf[:, m - 1] + st
            c = logadd(a, b)
            if order >= 1:
                w1 = np.exp(a - c)  # a = -inf gives 0; c is finite for m <= t+1
                w2 = np.exp(b - c)
                if order >= 2:
                    d = h[:, m, :] - h[:, m - 1, :] - xt
                    C[:, m] = (w1[:, None, None] * C[:, m] + w2[:, None, None] * C[:, m - 1]
                               + (w1 * w2)[:, None, None] * (d[:, :, None] * d[:, None, :]))
                h[:, m, :] = w1[:, None] * h[:, m, :] + w2[:, None] * (h[:, m - 1, :] + xt)
            lf[:, m] = c
    rows = np.arange(nr)
    return tuple(acc[rows, ks] for acc in (lf, h, C)[:order + 1])


def dedup_reference(rows: np.ndarray) -> QpProblem:
    """The QP problem over the nonzero ``rows`` in input order, nothing merged:
    each row scaled by a power of two, then by its norm, row-major."""
    rows = np.ascontiguousarray(rows[(rows != 0).any(axis=1)])
    scaled = np.ldexp(rows, -np.frexp(np.abs(rows).max(axis=1, initial=0.0))[1][:, None])
    return QpProblem(normalized=scaled / np.linalg.norm(scaled, axis=1)[:, None])


# detector.qp_problem_from_panel as it was with one block of swaps per choice
# total, kept verbatim as the bit-for-bit reference.
def swaps_reference(data: PanelDataset) -> QpProblem:
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


# _kernels.qp_minimize as it was with the free set and lam kept in arrays and
# np.linalg.lstsq solving each step's least squares afresh, kept verbatim as
# the reference that the updated QR factor must agree with: the same flags and
# step counts, and the same q and u up to round-off.
def qp_reference(W: np.ndarray, tol: float, kkt_tol: float, max_iter: int):
    """Lawson-Hanson solve. Returns (lam, q, u, iters, flag, viol)."""
    W = np.ascontiguousarray(W, dtype=np.float64)
    m = W.shape[0]
    b = W.sum(axis=0)
    free = np.zeros(0, dtype=np.intp)
    mu = np.zeros(0)
    it = 0
    while True:
        u = b + mu @ W[free]
        q = float(u @ u)
        lam = np.ones(m)
        lam[free] += mu
        if q <= tol:
            return lam, q, u, it, QP_ZERO, 0.0
        wu = (W @ u) / math.sqrt(q)
        j = int(np.argmin(wu))
        viol = max(-float(wu[j]), 0.0)
        if viol <= 0.5 * kkt_tol:
            return lam, q, u, it, QP_STATIONARY, viol
        if it >= max_iter:
            return lam, q, u, it, QP_MAXITER, viol
        it += 1
        free = np.append(free, j)
        mu = np.append(mu, 0.0)
        while True:
            s = np.linalg.lstsq(W[free].T, -b, rcond=None)[0]
            if (s > 0.0).all():
                mu = s
                break
            neg = np.flatnonzero(s <= 0.0)
            ratio = mu[neg] / np.maximum(mu[neg] - s[neg], np.finfo(np.float64).tiny)
            k = int(np.argmin(ratio))
            mu = mu + ratio[k] * (s - mu)
            mu[neg[k]] = 0.0
            keep = mu > 0.0
            free, mu = free[keep], mu[keep]


def central_diff_gradient(f, x, h=1e-6):
    x = np.asarray(x, dtype=np.float64)
    g = np.zeros_like(x)
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2.0 * h)
    return g


def central_diff_jacobian(f, x, h=1e-6):
    x = np.asarray(x, dtype=np.float64)
    cols = []
    for j in range(x.shape[0]):
        e = np.zeros_like(x)
        e[j] = h
        cols.append((f(x + e) - f(x - e)) / (2.0 * h))
    return np.column_stack(cols)


def sign_oracle_p1(data: PanelDataset) -> bool:
    """Scalar-covariate separation rule: separated iff every nonzero
    difference vector shares a weak sign."""
    assert data.p == 1
    values = enum_differences(data)[:, 0]
    values = values[values != 0.0]
    if values.size == 0:
        return True  # no constraints at all: any direction separates weakly
    return bool((values >= 0.0).all() or (values <= 0.0).all())


def enum_differences(data: PanelDataset) -> np.ndarray:
    """Every enumerated difference vector sum_t (d_t - y_t) x_t, one row per
    (informative individual, alternative d with sum d = sum y), zeros kept."""
    rows = []
    for i in range(data.n):
        x, y = data.covariates[i], data.outcomes[i]
        k = int(y.sum())
        if not 0 < k < data.T:
            continue
        for ones in itertools.combinations(range(data.T), k):
            d = np.zeros(data.T)
            d[list(ones)] = 1.0
            rows.append((d - y) @ x)
    return np.array(rows).reshape(-1, data.p)


def enum_centered_attributes(data: PanelDataset) -> np.ndarray:
    """The enumerated attribute vectors sum_t d_t x_t of the informative
    individuals, each centered at its individual's beta = 0 (uniform) mean."""
    blocks = []
    for i in range(data.n):
        x, y = data.covariates[i], data.outcomes[i]
        k = int(y.sum())
        if not 0 < k < data.T:
            continue
        attrs = np.array([x[list(ones)].sum(axis=0)
                          for ones in itertools.combinations(range(data.T), k)])
        blocks.append(attrs - attrs.mean(axis=0))
    return np.vstack(blocks)


def lp_verdict(data: PanelDataset) -> str:
    """Verdict from the enumerated differences and a linear program.

    Rank-deficient when the nonzero differences span fewer than p
    dimensions. Otherwise the estimate exists iff some lam >= 1 gives
    W' lam = 0 over the unit-normalized differences W, i.e. their cone is a
    linear subspace (Konis 2007); scipy's HiGHS solver decides feasibility.
    Raises ImportError without scipy.
    """
    from scipy.optimize import linprog

    rows = enum_differences(data)
    norms = np.linalg.norm(rows, axis=1)
    rows = rows[norms > 0]
    if rows.shape[0] == 0 or np.linalg.matrix_rank(rows) < data.p:
        return STATUS_RANK_DEFICIENT
    unit = rows / norms[norms > 0][:, None]
    res = linprog(np.zeros(unit.shape[0]), A_eq=unit.T, b_eq=np.zeros(data.p),
                  bounds=(1, None), method="highs")
    if res.status not in (0, 2):  # 0 feasible, 2 infeasible
        raise RuntimeError(f"LP oracle undecided: {res.message}")
    return STATUS_EXISTS if res.status == 0 else STATUS_SEPARATED


def pooled_lp_verdict(data: PanelDataset) -> str:
    """Pooled verdict from a linear program over the stacked observations.

    The pooled logit ML estimate exists iff some lam >= 1 gives W' lam = 0
    over the unit rows W of (2y - 1) (1, x'), none of which is zero; scipy's
    HiGHS solver decides feasibility. Raises ImportError without scipy.
    """
    from scipy.optimize import linprog

    signs = 2.0 * data.outcomes.reshape(-1).astype(np.float64) - 1.0
    X = data.covariates.reshape(signs.size, -1)
    rows = signs[:, None] * np.column_stack([np.ones(signs.size), X])
    unit = rows / np.linalg.norm(rows, axis=1)[:, None]
    res = linprog(np.zeros(unit.shape[0]), A_eq=unit.T, b_eq=np.zeros(unit.shape[1]),
                  bounds=(1, None), method="highs")
    if res.status not in (0, 2):  # 0 feasible, 2 infeasible
        raise RuntimeError(f"LP oracle undecided: {res.message}")
    return STATUS_EXISTS if res.status == 0 else STATUS_SEPARATED


def integer_panel(rng) -> PanelDataset:
    """Random panel (n 1-6, T 2-8, p 1-3) with covariates in {-2, ..., 2},
    whose differences and sums are exact in floating point, and fair-coin
    outcomes, redrawn until at least one individual is informative."""
    n = int(rng.integers(1, 7))
    T = int(rng.integers(2, 9))
    p = int(rng.integers(1, 4))
    x = rng.integers(-2, 3, size=(n, T, p)).astype(np.float64)
    while True:
        y = (rng.random((n, T)) < 0.5).astype(np.int8)
        k = y.sum(axis=1)
        if ((k > 0) & (k < T)).any():
            return PanelDataset.from_arrays(x, y)


def every_total_panel(rng, T, p, signed_zeros, per_total=2) -> PanelDataset:
    """Panel with ``per_total`` individuals for every choice total 0..T, in
    shuffled order, with random outcome sequences. Covariates are standard
    normal, or with ``signed_zeros`` drawn from {-1, -0.0, 0.0, 1}, whose
    swaps mix -0.0 and 0.0 and repeat."""
    y = np.zeros(((T + 1) * per_total, T), dtype=np.int8)
    for i, k in enumerate(np.repeat(np.arange(T + 1), per_total)):
        y[i, rng.permutation(T)[:k]] = 1
    y = y[rng.permutation(y.shape[0])]
    shape = (y.shape[0], T, p)
    x = rng.choice([-1.0, -0.0, 0.0, 1.0], size=shape) if signed_zeros else rng.standard_normal(shape)
    return PanelDataset.from_arrays(x, y)


def pooled_separable_grid(xs, ys, n_angles=7200) -> bool:
    """Scalar-covariate pooled oracle: scan unit directions (b0, b) for a
    weak separator of (2y-1)(b0 + b*x)."""
    xs = np.asarray(xs, dtype=np.float64)
    signs = 2.0 * np.asarray(ys, dtype=np.float64) - 1.0
    for theta in np.linspace(0.0, 2.0 * np.pi, n_angles, endpoint=False):
        margins = signs * (math.cos(theta) + math.sin(theta) * xs)
        if (margins >= -1e-12).all():
            return True
    return False


def random_panel(rng, n=None, T=None, p=None, n_max=20, T_max=5, p_max=3) -> PanelDataset:
    """Random panel with standard-normal covariates and fair-coin outcomes,
    redrawn until at least one individual is informative."""
    n = int(rng.integers(1, n_max + 1)) if n is None else n
    T = int(rng.integers(2, T_max + 1)) if T is None else T
    p = int(rng.integers(1, p_max + 1)) if p is None else p
    x = rng.standard_normal((n, T, p))
    while True:
        y = (rng.random((n, T)) < 0.5).astype(np.int8)
        k = y.sum(axis=1)
        if ((k > 0) & (k < T)).any():
            return PanelDataset.from_arrays(x, y)
