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
# Any 0 <= k <= T is accepted, but the estimator hands it only
# k <= floor(T/2): it stores a row with 2k > T as its complement
# (-x, 1 - y, T - k), since D_k(s) = exp(sum_t s_t) D_{T-k}(-s), so the
# accumulators there are at most floor(T/2) + 1 cells deep.
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
# The log-add step c = log(e^a + e^b) is numpy's own logaddexp algorithm,
# max(a, b) + log1p(exp(-|b - a|)), written out in ufuncs. numpy runs
# logaddexp as a scalar loop over libm's exp; on a CPU with AVX-512 that is
# about 20 times slower per element than its SIMD exp, and it took a third
# of the recursion. With libm's exp the expression gives logaddexp's bits.
#
# Rows with k = 0 or k = T need no case of their own. At k = 0 the answer
# is the start value f(t,0) = 1 with h = C = 0. At k = T each step has
# f(t-1,m) = 0, so a = -inf, exp(-|b - a|) = 0 and c = b exactly, which
# gives w1 = 0 and w2 = 1: the mean is sum_t x_t and the covariance stays
# exactly 0. Equal arguments give a + log1p(1) = a + log 2. Rows with
# identical scores (in particular beta = 0) take the uniform closed form,
# which keeps D = C(T,k) exact at beta = 0 and gives exactly zero covariance
# for a covariate that is constant over time.
# ---------------------------------------------------------------------------

_BATCH_CELL_BUDGET = 150_000  # cells per chunk, so that a recursion step stays in cache


def logdenom_batch(scores: np.ndarray, covariates: np.ndarray, totals: np.ndarray,
                   order: int = 2):
    """Vectorized recursion. scores (n,T), covariates (n,T,p), totals (n,).

    ``order`` is 0 or 2. Order 2 returns ``(logden, mean, cov)``:
    ``logden[i]`` is log D_i, ``mean[i]`` is d(log D_i)/d(beta) and
    ``cov[i]`` the (p, p) second derivative, exactly symmetric. Order 0
    returns ``(logden,)`` alone and carries no other accumulator; its log D
    is the same bits as order 2's. The recursion runs over chunks of rows
    whose accumulators, counted twice for the per-step temporaries of the
    update over m, hold at most ``_BATCH_CELL_BUDGET`` cells: per row,
    k_max + 1 for log f, plus (k_max + 1) p for the mean and
    (k_max + 1) p(p+1)/2 for the covariance triangle at order 2.
    """
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    covariates = np.ascontiguousarray(covariates, dtype=np.float64)
    totals = np.asarray(totals, dtype=np.int64)
    n, T = scores.shape
    p = covariates.shape[2]
    out = (np.zeros(n), np.zeros((n, p)), np.zeros((n, p, p))) if order else (np.zeros(n),)
    if n == 0:
        return out

    eq = np.all(scores == scores[:, :1], axis=1)
    if eq.any():
        k = totals[eq]
        Tf = float(T)
        lfact = np.array([math.lgamma(j + 1.0) for j in range(T + 1)])  # log j!
        out[0][eq] = lfact[T] - lfact[k] - lfact[T - k] + k * scores[eq, 0]
        if order:
            out[1][eq] = (k / Tf)[:, None] * covariates[eq].sum(axis=1)
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
        cells = 2 * (kmax + 1) * (1 + p + p * (p + 1) // 2 if order else 1)
        chunk = max(1, _BATCH_CELL_BUDGET // cells)
        for start in range(0, rest.size, chunk):
            part = rest[start:start + chunk]
            moments = _recursion(scores[part], covariates[part], totals[part], order)
            for target, value in zip(out, moments):
                target[part] = value
    return out


def _recursion(S: np.ndarray, X: np.ndarray, ks: np.ndarray, order: int):
    """The log-scaled recursion over rows with 0 <= k <= T; returns log f at
    each row's own k and, when ``order`` is nonzero, the mean and the
    covariance there, mirrored from its upper triangle to (rows, p, p)."""
    nr, T = S.shape
    p = X.shape[2]
    kmax = int(ks.max())
    St = np.ascontiguousarray(S.T)                   # (T, rows)
    lf = np.full((kmax + 1, nr), -np.inf)
    lf[0] = 0.0
    if order:
        Xt = np.ascontiguousarray(X.transpose(1, 2, 0))  # (T, p, rows)
        h = np.zeros((kmax + 1, p, nr))
        iu, ju = np.triu_indices(p)
        starts = np.flatnonzero(iu == ju)  # row i of the triangle starts at (i, i)
        C = np.zeros((kmax + 1, iu.size, nr))
    for t in range(T):
        M = min(t + 1, kmax)  # cells m = 1..M; m - 1 reads the step-(t-1) values
        a = lf[1:M + 1]
        b = lf[:M] + St[t]
        c = np.maximum(a, b)  # logaddexp(a, b), from ufuncs that have SIMD loops
        c += np.log1p(np.exp(-np.abs(b - a)))
        if order:
            w1 = np.exp(a - c)[:, None]  # a = -inf gives 0; c is finite for m <= t+1
            w2 = np.exp(b - c)[:, None]
            xt = Xt[t]
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
    if not order:
        return (lf[ks, rows],)
    tri = C[ks, :, rows]
    cov = np.empty((nr, p, p))
    cov[:, iu, ju] = tri
    cov[:, ju, iu] = tri
    return lf[ks, rows], h[ks, :, rows], cov


# ---------------------------------------------------------------------------
# Separation QP: minimize |W' lam|^2 over lam >= 1, W holding unit constraint
# vectors as rows. With lam = 1 + mu it is nonnegative least squares,
# minimize |W' mu + W' 1|^2 over mu >= 0, which the Lawson-Hanson active-set
# method (Lawson & Hanson 1974, ch. 23) solves exactly in finitely many steps.
#
# Each step solves least squares on the f free columns, A s = -b with the
# free rows of W as the columns of A and b = W' 1, from a thin QR factor
# A = Q R kept up to date rather than from a fresh solve. The orthonormal
# rows Q[:f] live in one preallocated (p, p) array and c = Q[:f] (-b) in a
# (p,) one; R's columns are lists of Python floats, so s comes from a
# back substitution in plain Python, and the free-set residual is
# u = b + c Q[:f], which is b + A s up to round-off and orthogonal to the
# free span. A row that enters the free set is appended by classical
# Gram-Schmidt against Q[:f], and orthogonalized a second time only when
# the norm left falls below half its own: by Kahan's "twice is enough"
# (Parlett 1980) that leaves it orthogonal to working precision. When
# the inner loop returns a column to its bound, the factor is rebuilt from
# the columns still free, in their order.
#
# No rank guard is needed. A row enters only with w'u / |u| < -kkt_tol / 2,
# and u is orthogonal to the free span, so w'u is the inner product of u
# with the part of w outside that span, whose norm is then above
# kkt_tol / 2 = 5e-7 for a unit row. The free columns therefore stay
# independent, at most p of them, and R's diagonal stays away from zero;
# after a return the columns still free are a subset of independent ones,
# no worse conditioned.
# ---------------------------------------------------------------------------

_TINY = np.finfo(np.float64).tiny


def qp_minimize(W: np.ndarray, tol: float, kkt_tol: float, max_iter: int):
    """Lawson-Hanson solve. Returns (lam, q, u, iters, flag, viol).

    ``u = W' lam`` up to round-off (it is the least-squares residual of the
    free set) and ``q = |u|^2``. Each outer step frees the bound column
    whose w'u/|u| is most negative and appends it to the QR factor of the
    free columns; the inner loop then solves least squares on the free
    columns by back substitution and, while a free coefficient comes out
    nonpositive, steps back to the boundary, returns that column to its
    bound and rebuilds the factor. ``iters`` counts outer steps and
    ``viol`` is the largest -w'u/|u| (the free columns sit at w'u = 0 up to
    round-off). The flag is ``QP_ZERO`` once q <= tol, ``QP_STATIONARY``
    once viol <= kkt_tol / 2, and ``QP_MAXITER`` when ``max_iter`` outer
    steps decided neither.
    """
    W = np.ascontiguousarray(W, dtype=np.float64)
    m, p = W.shape
    b = np.ones(m) @ W  # a BLAS product: W.sum(axis=0) is slow down a C-ordered (m, p)
    neg_b = -b
    Q = np.empty((p, p))
    c = np.empty(p)
    R = []     # R[j]: column j of the triangle, its entries 0..j
    free = []  # indices of the free columns, in the order of R and mu
    mu = []
    it = 0
    while True:
        f = len(R)
        u = b + c[:f] @ Q[:f]
        q = float(u @ u)
        if q <= tol:
            return _lam(m, free, mu), q, u, it, QP_ZERO, 0.0
        wu = W @ (u / math.sqrt(q))
        j = int(wu.argmin())
        viol = max(-float(wu[j]), 0.0)
        if viol <= 0.5 * kkt_tol:
            return _lam(m, free, mu), q, u, it, QP_STATIONARY, viol
        if it >= max_iter:
            return _lam(m, free, mu), q, u, it, QP_MAXITER, viol
        it += 1
        free.append(j)
        mu.append(0.0)
        _qr_append(Q, R, c, W[j], neg_b)
        while True:
            s = _back_substitute(R, c)
            if min(s) > 0.0:
                mu = s
                break
            neg = [i for i, si in enumerate(s) if si <= 0.0]
            ratio = [mu[i] / max(mu[i] - s[i], _TINY) for i in neg]
            alpha = min(ratio)
            mu = [mi + alpha * (si - mi) for mi, si in zip(mu, s)]
            mu[neg[ratio.index(alpha)]] = 0.0
            free = [col for col, mi in zip(free, mu) if mi > 0.0]
            mu = [mi for mi in mu if mi > 0.0]
            R.clear()
            for col in free:
                _qr_append(Q, R, c, W[col], neg_b)


def _qr_append(Q: np.ndarray, R: list, c: np.ndarray, w: np.ndarray,
               neg_b: np.ndarray) -> None:
    """Append the column ``w`` to the thin QR factor held in the rows of
    ``Q``, the triangle's columns ``R`` and ``c``, in place."""
    f = len(R)
    v, head = w, []
    if f:
        basis = Q[:f]
        r = basis @ w
        v = w - r @ basis
        if v @ v < 0.25 * (w @ w):  # |v| < |w| / 2: orthogonalize once more
            again = basis @ v
            v -= again @ basis
            r += again
        head = r.tolist()
    norm = math.sqrt(float(v @ v))
    Q[f] = v / norm
    R.append(head + [norm])
    c[f] = Q[f] @ neg_b


def _back_substitute(R: list, c: np.ndarray) -> list:
    """The solution s of R s = c[:f], R upper triangular given by its f columns."""
    s = c[:len(R)].tolist()
    for j in range(len(s) - 1, -1, -1):
        column = R[j]
        sj = s[j] = s[j] / column[j]
        for i in range(j):
            s[i] -= column[i] * sj
    return s


def _lam(m: int, free: list, mu: list) -> np.ndarray:
    """The (m,) weights: 1 on every bound column, 1 + mu on the free ones."""
    lam = np.ones(m)
    lam[free] += mu
    return lam
