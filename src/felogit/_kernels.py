"""Hot numeric kernels, in numpy.

Two computations dominate runtime: the per-individual recursion that
evaluates the conditional-likelihood denominator (and its gradient), and the
nonnegative least-squares solve behind the separation QP. Both are
deterministic given their inputs.
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
# Batched log-denominator of the conditional likelihood, with beta-gradient.
#
# For individual i with scores s_t = x_it'beta and choice total k, the
# denominator is D = sum over binary d with sum(d)=k of exp(sum_t d_t s_t).
# The recursion f(t,m) = f(t-1,m) + f(t-1,m-1)*exp(s_t) is carried on
# log-scaled accumulators so nothing overflows for |s_t| <= 700. The
# companion accumulator h(t,m) carries the softmax-weighted mean attribute
# vector, which is the gradient of log D in beta.
#
# Slices with identical scores (in particular beta = 0) take a closed form,
# which keeps D = C(T,k) exact at beta = 0.
# ---------------------------------------------------------------------------


def logdenom_batch(scores: np.ndarray, covariates: np.ndarray, totals: np.ndarray):
    """Vectorized recursion. scores (n,T), covariates (n,T,p), totals (n,).

    Returns ``(logden, mean)`` where ``logden[i]`` is log D_i and
    ``mean[i]`` is d(log D_i)/d(beta).
    """
    scores = np.ascontiguousarray(scores, dtype=np.float64)
    covariates = np.ascontiguousarray(covariates, dtype=np.float64)
    totals = np.asarray(totals, dtype=np.int64)
    n, T = scores.shape
    p = covariates.shape[2]
    logden = np.zeros(n)
    mean = np.zeros((n, p))
    if n == 0:
        return logden, mean

    k0 = totals == 0
    kT = totals == T
    eq = np.all(scores == scores[:, :1], axis=1) & ~k0 & ~kT
    if kT.any():
        logden[kT] = scores[kT].sum(axis=1)
        mean[kT] = covariates[kT].sum(axis=1)
    if eq.any():
        ke = totals[eq].astype(np.float64)
        Tf = float(T)
        lcomb = (
            math.lgamma(Tf + 1.0)
            - np.array([math.lgamma(v + 1.0) for v in ke])
            - np.array([math.lgamma(Tf - v + 1.0) for v in ke])
        )
        logden[eq] = lcomb + ke * scores[eq, 0]
        mean[eq] = (ke / Tf)[:, None] * covariates[eq].sum(axis=1)

    rest = ~(k0 | kT | eq)
    if rest.any():
        S = scores[rest]
        X = covariates[rest]
        ks = totals[rest]
        nr = S.shape[0]
        kmax = int(ks.max())
        lf = np.full((nr, kmax + 1), -np.inf)
        lf[:, 0] = 0.0
        h = np.zeros((nr, kmax + 1, p))
        for t in range(T):
            st = S[:, t]
            xt = X[:, t, :]
            for m in range(min(t + 1, kmax), 0, -1):
                a = lf[:, m]
                b = lf[:, m - 1] + st
                c = np.logaddexp(a, b)
                w1 = np.exp(a - c)  # a = -inf gives 0; c is finite for m <= t+1
                w2 = np.exp(b - c)
                h[:, m, :] = w1[:, None] * h[:, m, :] + w2[:, None] * (h[:, m - 1, :] + xt)
                lf[:, m] = c
        rows = np.arange(nr)
        logden[rest] = lf[rows, ks]
        mean[rest] = h[rows, ks, :]
    return logden, mean


# ---------------------------------------------------------------------------
# Separation QP: minimize |W' lam|^2 over lam >= 1, W holding unit constraint
# vectors as rows. With lam = 1 + mu it is nonnegative least squares,
# minimize |W' mu + W' 1|^2 over mu >= 0, which the Lawson-Hanson active-set
# method (Lawson & Hanson 1974, ch. 23) solves exactly in finitely many steps.
# ---------------------------------------------------------------------------


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
