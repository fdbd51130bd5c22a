"""Hot numeric kernels, in numpy.

Two computations dominate runtime: the per-individual recursion that
evaluates the conditional-likelihood denominator with its gradient and
Hessian, and the nonnegative least-squares solve behind the separation QP.
Both are deterministic given their inputs.
"""

from __future__ import annotations

import math

import numpy as np

# QP solver exit flags
QP_ZERO = 0         # objective reached the decision tolerance
QP_STATIONARY = 1   # KKT-stationary at a positive minimum
QP_MAXITER = 2      # cap on active-set steps hit


def active_backend() -> str:
    """Name of the kernel backend: always ``"numpy"``."""
    return "numpy"


# ---------------------------------------------------------------------------
# Batched log-denominator of the conditional likelihood, with the first two
# moments of the attribute vector.
#
# For individual i with scores s_t = x_it'beta and choice total k, the
# denominator is D = sum over binary d with sum(d)=k of exp(sum_t d_t s_t).
# The recursion f(t,m) = f(t-1,m) + f(t-1,m-1)*exp(s_t) (Gail, Lubin &
# Rubinstein 1981) is carried on log-scaled accumulators so nothing overflows
# for |s_t| <= 700. It splits the sequences of f(t,m) into two branches,
# d_t = 0 with weight w1 = f(t-1,m)/f(t,m) and d_t = 1 with weight w2 = 1 - w1.
# The companion accumulator h(t,m) carries the softmax-weighted mean attribute
# vector sum_t d_t x_t, the gradient of log D in beta, and C(t,m) its
# covariance, minus the Hessian of log D. Both mix the two branches:
#   h(t,m) = w1 h(t-1,m) + w2 (h(t-1,m-1) + x_t)
#   C(t,m) = w1 C(t-1,m) + w2 C(t-1,m-1) + w1 w2 d d',
#   d = h(t-1,m) - h(t-1,m-1) - x_t,
# the law of total variance, which never subtracts E[aa'] - mu mu'.
#
# The accumulators keep rows (individuals) on their last, contiguous axis:
# f is (k_max+1, rows), h is (k_max+1, p, rows) and C is stored as its upper
# triangle, (k_max+1, p(p+1)/2, rows), since d_i d_j = d_j d_i exactly. Each
# period t updates its cells m = 1..min(t+1, k_max) at once, with slices over
# m and whole contiguous rows per operation; every step-(t-1) value it needs
# is read before any cell is written, so each cell sees the same operands in
# the same order as a cell-by-cell update. The triangle of d d' is built by p
# slice multiplies. At the end every row's k-th cell is gathered and the
# triangle mirrored to (rows, p, p), so the covariance is exactly symmetric.
#
# Rows with k = 0 or k = T need no case of their own. At k = 0 the answer
# is the start value f(t,0) = 1 with h = C = 0. At k = T each step has
# f(t-1,m) = 0, so logaddexp(-inf, b) = b gives w1 = 0 and w2 = 1 exactly:
# the mean is sum_t x_t and the covariance stays exactly 0. Rows with
# identical scores (in particular beta = 0) take the uniform closed form,
# which keeps D = C(T,k) exact at beta = 0 and gives exactly zero covariance
# for a covariate that is constant over time.
# ---------------------------------------------------------------------------

_BATCH_CELL_BUDGET = 150_000  # cells per chunk, so that a recursion step stays in cache


def logdenom_batch(scores: np.ndarray, covariates: np.ndarray, totals: np.ndarray,
                   order: int = 1):
    """Vectorized recursion. scores (n,T), covariates (n,T,p), totals (n,).

    Returns the first ``order + 1`` of ``(logden, mean, cov)``: ``logden[i]``
    is log D_i, ``mean[i]`` is d(log D_i)/d(beta) and ``cov[i]`` the (p, p)
    second derivative, exactly symmetric. The recursion carries no
    accumulator beyond ``order``, and the values returned are the same bits
    whatever ``order`` is. It runs over chunks of rows whose accumulators,
    counted twice for the per-step temporaries of the update over m, hold at
    most ``_BATCH_CELL_BUDGET`` cells: per row, k_max + 1 for log f, plus
    (k_max + 1) p for the mean from order 1 and (k_max + 1) p(p+1)/2 for the
    covariance triangle at order 2.
    """
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    covariates = np.ascontiguousarray(covariates, dtype=np.float64)
    totals = np.asarray(totals, dtype=np.int64)
    n, T = scores.shape
    p = covariates.shape[2]
    out = (np.zeros(n), np.zeros((n, p)), np.zeros((n, p, p)))[:order + 1]
    if n == 0:
        return out

    eq = np.all(scores == scores[:, :1], axis=1)
    if eq.any():
        k = totals[eq]
        Tf = float(T)
        lfact = np.array([math.lgamma(j + 1.0) for j in range(T + 1)])  # log j!
        out[0][eq] = lfact[T] - lfact[k] - lfact[T - k] + k * scores[eq, 0]
        if order >= 1:
            out[1][eq] = (k / Tf)[:, None] * covariates[eq].sum(axis=1)
        if order >= 2:
            # uniform over the C(T,k) sequences: k(T-k)/(T(T-1)) Xc'Xc, with Xc
            # demeaned from differences, so a covariate constant over time
            # gives exactly zero instead of demeaning round-off (at T = 1,
            # k(T-k) = 0 and the max only avoids 0/0)
            diffs = covariates[eq] - covariates[eq, :1]
            Xc = diffs - diffs.mean(axis=1, keepdims=True)
            weight = k * (Tf - k) / (Tf * max(Tf - 1.0, 1.0))
            out[2][eq] = weight[:, None, None] * np.einsum("itp,itq->ipq", Xc, Xc)

    rest = np.flatnonzero(~eq)
    if rest.size:
        kmax = int(totals[rest].max())
        cells = 2 * (kmax + 1) * (1, 1 + p, 1 + p + p * (p + 1) // 2)[order]
        chunk = max(1, _BATCH_CELL_BUDGET // cells)
        for start in range(0, rest.size, chunk):
            part = rest[start:start + chunk]
            moments = _recursion(scores[part], covariates[part], totals[part], order)
            for target, value in zip(out, moments):
                target[part] = value
    return out


def _recursion(S: np.ndarray, X: np.ndarray, ks: np.ndarray, order: int):
    """The log-scaled recursion over rows with 0 <= k <= T; returns the first
    ``order + 1`` accumulators at each row's own k, the covariance mirrored
    from its upper triangle to (rows, p, p)."""
    nr, T = S.shape
    p = X.shape[2]
    kmax = int(ks.max())
    St = np.ascontiguousarray(S.T)                   # (T, rows)
    lf = np.full((kmax + 1, nr), -np.inf)
    lf[0] = 0.0
    Xt = np.ascontiguousarray(X.transpose(1, 2, 0)) if order >= 1 else None  # (T, p, rows)
    h = np.zeros((kmax + 1, p, nr)) if order >= 1 else None
    iu, ju = np.triu_indices(p)
    starts = np.flatnonzero(iu == ju)  # row i of the triangle starts at (i, i)
    C = np.zeros((kmax + 1, iu.size, nr)) if order >= 2 else None
    for t in range(T):
        M = min(t + 1, kmax)  # cells m = 1..M; m - 1 reads the step-(t-1) values
        a = lf[1:M + 1]
        b = lf[:M] + St[t]
        c = np.logaddexp(a, b)
        if order >= 1:
            w1 = np.exp(a - c)[:, None]  # a = -inf gives 0; c is finite for m <= t+1
            w2 = np.exp(b - c)[:, None]
            xt = Xt[t]
            if order >= 2:
                d = h[1:M + 1] - h[:M] - xt
                step = w2 * C[:M]
                Cm = C[1:M + 1]
                Cm *= w1
                Cm += step
                for i, j in enumerate(starts):
                    np.multiply(d[:, i:i + 1], d[:, i:], out=step[:, j:j + p - i])
                step *= w1 * w2
                Cm += step
            step = w2 * (h[:M] + xt)
            h[1:M + 1] *= w1
            h[1:M + 1] += step
        lf[1:M + 1] = c
    rows = np.arange(nr)
    out = [lf[ks, rows]]
    if order >= 1:
        out.append(h[ks, :, rows])
    if order >= 2:
        tri = C[ks, :, rows]
        cov = np.empty((nr, p, p))
        cov[:, iu, ju] = tri
        cov[:, ju, iu] = tri
        out.append(cov)
    return tuple(out)


# ---------------------------------------------------------------------------
# Separation QP: minimize |W' lam|^2 over lam >= 1, W holding unit constraint
# vectors as rows. With lam = 1 + mu it is nonnegative least squares,
# minimize |W' mu + W' 1|^2 over mu >= 0, which the Lawson-Hanson active-set
# method (Lawson & Hanson 1974, ch. 23) solves exactly in finitely many steps.
# ---------------------------------------------------------------------------

_TINY = np.finfo(np.float64).tiny


def qp_minimize(W: np.ndarray, tol: float, kkt_tol: float, max_iter: int):
    """Lawson-Hanson solve. Returns (lam, q, u, iters, flag, viol).

    ``u = W' lam`` and ``q = |u|^2``. Each outer step frees the bound column
    whose w'u/|u| is most negative; the inner loop then solves least squares
    on the free columns and, while a free coefficient comes out nonpositive,
    steps back to the boundary and returns that column to its bound.
    ``iters`` counts outer steps and ``viol`` is the largest -w'u/|u| (the
    free columns sit at w'u = 0 up to round-off). The flag is ``QP_ZERO``
    once q <= tol, ``QP_STATIONARY`` once viol <= kkt_tol / 2, and
    ``QP_MAXITER`` when ``max_iter`` outer steps decided neither.
    """
    W = np.ascontiguousarray(W, dtype=np.float64)
    b = W.sum(axis=0)
    neg_b = -b
    free = []  # indices of the free columns, in the order of mu
    mu = np.zeros(0)
    it = 0
    while True:
        u = b + mu @ W.take(free, axis=0)  # kept with no free column: b + 0.0 is not b at b = -0.0
        q = float(u @ u)
        if q <= tol:
            return _lam(W.shape[0], free, mu), q, u, it, QP_ZERO, 0.0
        wu = (W @ u) / math.sqrt(q)
        j = int(wu.argmin())
        viol = max(-float(wu[j]), 0.0)
        if viol <= 0.5 * kkt_tol:
            return _lam(W.shape[0], free, mu), q, u, it, QP_STATIONARY, viol
        if it >= max_iter:
            return _lam(W.shape[0], free, mu), q, u, it, QP_MAXITER, viol
        it += 1
        free.append(j)
        mu = np.concatenate((mu, (0.0,)))
        while True:
            s = np.linalg.lstsq(W.take(free, axis=0).T, neg_b, rcond=None)[0]
            if (s > 0.0).all():
                mu = s
                break
            neg = np.flatnonzero(s <= 0.0)
            ratio = mu[neg] / np.maximum(mu[neg] - s[neg], _TINY)
            k = int(np.argmin(ratio))
            mu = mu + ratio[k] * (s - mu)
            mu[neg[k]] = 0.0
            keep = mu > 0.0
            free = [f for f, kept in zip(free, keep) if kept]
            mu = mu[keep]


def _lam(m: int, free: list, mu: np.ndarray) -> np.ndarray:
    """The (m,) weights: 1 on every bound column, 1 + mu on the free ones."""
    lam = np.ones(m)
    lam[free] += mu
    return lam
