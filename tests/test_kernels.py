import functools
import tracemalloc

import numpy as np
import pytest

from felogit import _kernels
from oracles import recursion_reference


def _random_batch(rng, n=40, T=8, p=3):
    scores = rng.standard_normal((n, T))
    covariates = rng.standard_normal((n, T, p))
    totals = rng.integers(0, T + 1, size=n)
    return scores, covariates, totals.astype(np.int64)


def test_logdenom_deterministic():
    rng = np.random.default_rng(107)
    scores, covariates, totals = _random_batch(rng)
    a = _kernels.logdenom_batch(scores, covariates, totals)
    b = _kernels.logdenom_batch(scores, covariates, totals)
    assert len(a) == len(b) == 3
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_logdenom_orders_return_the_same_bits():
    rng = np.random.default_rng(109)
    scores, covariates, totals = _random_batch(rng)
    scores[:6] = 0.25  # equal-score rows take the closed form
    full = _kernels.logdenom_batch(scores, covariates, totals, order=2)
    assert len(full) == 3
    part = _kernels.logdenom_batch(scores, covariates, totals, order=0)
    assert len(part) == 1
    assert np.array_equal(part[0], full[0])
    # one sequence (k = 0 or k = T): no spread
    ends = (totals == 0) | (totals == scores.shape[1])
    assert ends.any() and not full[2][ends].any()


def _pinning_batch(rng, T, p, kmax=None):
    """Two rows for every k in 0..T with scores from |s| ~ 0.01 up to 700,
    and one row in four with all its scores equal (the closed form). With
    ``kmax``, the rows with unequal scores have their totals capped at it."""
    totals = np.repeat(np.arange(T + 1), 2)
    n = totals.size
    scale = 10.0 ** rng.uniform(-2.0, np.log10(700.0), size=(n, 1))
    scores = np.clip(rng.standard_normal((n, T)) * scale, -700.0, 700.0)
    scores[::4] = scores[::4, :1]
    if kmax is not None:
        unequal = np.arange(n) % 4 != 0
        totals[unequal] = np.minimum(totals[unequal], kmax)
    covariates = rng.standard_normal((n, T, p))
    return scores, covariates, totals


_PINNED_SHAPES = ([pytest.param(T, None, id=str(T)) for T in (1, 2, 4, 14, 30)]
                  + [pytest.param(T, k, id=f"{T}-kmax{k}") for T in (4, 14, 30) for k in (0, 1)])


@pytest.mark.parametrize("budget", [1, _kernels._BATCH_CELL_BUDGET])
@pytest.mark.parametrize("p", [1, 2, 5])
@pytest.mark.parametrize("T, kmax", _PINNED_SHAPES)
def test_logdenom_matches_the_rows_first_reference_bit_for_bit(monkeypatch, T, p, budget, kmax):
    rng = np.random.default_rng(1000 * T + 10 * p + (budget == 1))
    batch = _pinning_batch(rng, T, p, kmax)
    monkeypatch.setattr(_kernels, "_BATCH_CELL_BUDGET", budget)
    for order in (0, 2):
        got = _kernels.logdenom_batch(*batch, order=order)
        with monkeypatch.context() as patched:
            patched.setattr(_kernels, "_recursion", recursion_reference)
            want = _kernels.logdenom_batch(*batch, order=order)
        assert len(got) == len(want) == order + 1
        for a, b in zip(got, want):
            assert np.array_equal(a, b)
    cov, totals = got[2], batch[2]
    assert np.isfinite(cov).all()
    assert cov.any() == ((0 < totals) & (totals < T)).any()
    assert np.array_equal(cov, cov.transpose(0, 2, 1))


@pytest.mark.parametrize("p", [1, 2, 5])
@pytest.mark.parametrize("T, kmax", _PINNED_SHAPES)
def test_logdenom_agrees_with_the_scalar_logaddexp_recursion(monkeypatch, T, p, kmax):
    # the kernel's log-add step differs from np.logaddexp only in the last
    # bits of numpy's SIMD exp against libm's
    rng = np.random.default_rng(2000 * T + 10 * p)
    batch = _pinning_batch(rng, T, p, kmax)
    got = _kernels.logdenom_batch(*batch)
    monkeypatch.setattr(_kernels, "_recursion", functools.partial(
        recursion_reference, logadd=np.logaddexp))
    want = _kernels.logdenom_batch(*batch)
    logden, mean, cov = want
    assert np.all(np.abs(got[0] - logden) <= 8 * np.spacing(np.maximum(np.abs(logden), 1.0)))
    for a, b in ((got[1], mean), (got[2], cov)):
        rows = b.reshape(b.shape[0], -1)
        largest = np.abs(rows).max(axis=1, initial=0.0)
        assert np.all(np.abs(a.reshape(rows.shape) - rows) <= 1e-13 * largest[:, None])


@pytest.mark.parametrize("scale", [1e-2, 1.0, 700.0])
def test_the_log_add_step_is_exact_at_its_edge_cases(scale):
    rng = np.random.default_rng(int(scale * 100))
    T, p = 6, 2
    S = np.clip(scale * rng.standard_normal((4, T)), -700.0, 700.0)
    X = rng.standard_normal((4, T, p))
    # k = T: every step adds to a = -inf, so c = b, w1 = 0 and w2 = 1 exactly,
    # and the recursion gives the period-ordered sums with no spread
    logden, mean, cov = _kernels._recursion(S, X, np.full(4, T), 2)
    assert np.array_equal(logden, np.cumsum(S, axis=1)[:, -1])
    assert np.array_equal(mean, np.cumsum(X, axis=1)[:, -1])
    assert not cov.any()
    # T = 2, k = 1 with equal scores: one step with a == b, which gives a + log 2
    pair = np.repeat(S[:, :1], 2, axis=1)
    logden, = _kernels._recursion(pair, X[:, :2], np.ones(4, dtype=np.int64), 0)
    assert np.array_equal(logden, pair[:, 0] + np.log(2.0))


def test_order_2_peak_memory_stays_at_its_cell_by_cell_level():
    # the cell-by-cell recursion, with chunks of 4 000 000 triangle cells,
    # peaked at 94.75 MB here, and updating every m at once with the same
    # chunks at 182 MB
    rng = np.random.default_rng(113)
    covariates = rng.standard_normal((20_000, 30, 3))
    scores = covariates @ np.array([1.0, -0.5, 0.25])
    totals = rng.integers(0, 31, size=20_000)
    tracemalloc.start()
    try:
        _kernels.logdenom_batch(scores, covariates, totals, order=2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 94.75e6


def test_qp_flags():
    # opposite unit vectors cancel at lam = 1: zero minimum before any step
    w = np.array([[1.0], [-1.0]])
    lam, q, _u, iters, flag, _ = _kernels.qp_minimize(w, 1e-8, 1e-6, 100)
    assert flag == _kernels.QP_ZERO
    assert q <= 1e-8
    assert iters == 0
    assert lam.tolist() == [1.0, 1.0]
    # a single vector is stationary at lam = 1 with q = 1
    w = np.array([[-1.0]])
    lam, q, u, iters, flag, _ = _kernels.qp_minimize(w, 1e-8, 1e-6, 100)
    assert flag == _kernels.QP_STATIONARY
    assert q == pytest.approx(1.0)
    assert u[0] == pytest.approx(-1.0)


# unit rows (1, 0), (0, 1), (-0.6, -0.8): lam = (1, 4/3, 5/3) cancels them,
# and the active-set method frees the third column, then the second
THREE_FOUR_FIVE = np.array([[1.0, 0.0], [0.0, 1.0], [-0.6, -0.8]])


def test_qp_iteration_cap():
    lam, q, _u, iters, flag, viol = _kernels.qp_minimize(THREE_FOUR_FIVE, 1e-8, 1e-6, 1)
    assert flag == _kernels.QP_MAXITER
    assert iters == 1
    assert q > 1e-8 and viol > 0.5e-6
    lam, q, _u, iters, flag, _ = _kernels.qp_minimize(THREE_FOUR_FIVE, 1e-8, 1e-6, 100_000)
    assert flag == _kernels.QP_ZERO
    assert iters == 2
    assert q <= 1e-8
    np.testing.assert_allclose(lam, [1.0, 4.0 / 3.0, 5.0 / 3.0], rtol=1e-14)


def test_qp_separated_minimum_is_exact():
    # at lam = 1, u = (-0.4, 1.4) and only the first row has w'u < 0; raising
    # lam_1 to 1.4 cancels the first coordinate, leaving u* = (0, 1.4) with
    # w'u* >= 0 for every row, so the minimum is q = 1.96
    w = np.array([[1.0, 0.0], [-0.8, 0.6], [-0.6, 0.8]])
    lam, q, u, iters, flag, _ = _kernels.qp_minimize(w, 1e-8, 1e-6, 100)
    assert flag == _kernels.QP_STATIONARY
    assert iters == 1
    assert q == pytest.approx(1.96, rel=1e-14)
    np.testing.assert_allclose(u, [0.0, 1.4], atol=1e-15)
    assert (w @ u >= -1e-15).all()
    np.testing.assert_allclose(lam, [1.4, 1.0, 1.0], rtol=1e-14)

    # five integer rows in R^3 whose solve frees a column that a later
    # least-squares solve pushes below its bound, so the inner loop must step
    # back and return it; the KKT conditions of the convex QP certify the
    # result: lam >= 1, w'u >= 0, and w'u = 0 wherever lam > 1
    w = np.array([[-2, -2, 1], [3, 2, 0], [-2, -3, 3], [-3, 2, -1], [-2, 2, -3]], dtype=float)
    w /= np.linalg.norm(w, axis=1)[:, None]
    lam, q, u, _iters, flag, _ = _kernels.qp_minimize(w, 1e-8, 1e-6, 100)
    assert flag == _kernels.QP_STATIONARY
    assert q == pytest.approx(0.8746114037593902, rel=1e-12)
    np.testing.assert_allclose(u, lam @ w, atol=1e-14)
    wu = w @ u
    assert (lam >= 1.0).all()
    assert (wu >= -1e-12).all()
    assert np.abs((lam - 1.0) * wu).max() <= 1e-12


def test_the_qr_factor_stays_orthonormal_for_a_nearly_dependent_column():
    # the third column lies within 1e-7 of the span of the first two: one
    # Gram-Schmidt pass leaves its Q row about 1e-8 off orthogonal, the
    # second pass brings it back to round-off
    rng = np.random.default_rng(5)
    for _ in range(50):
        first = rng.standard_normal((2, 4))
        near = first[0] + 1e-3 * first[1] + 1e-7 * rng.standard_normal(4)
        cols = np.vstack([first, near])
        cols /= np.linalg.norm(cols, axis=1)[:, None]
        neg_b = -cols.sum(axis=0)
        Q, c, R = np.empty((4, 4)), np.empty(4), []
        for col in cols:
            _kernels._qr_append(Q, R, c, col, neg_b)
        triangle = np.zeros((3, 3))
        for j, column in enumerate(R):
            triangle[:j + 1, j] = column
        assert np.abs(Q[:3] @ Q[:3].T - np.eye(3)).max() <= 1e-14
        assert np.abs(Q[:3].T @ triangle - cols.T).max() <= 1e-14
        s = _kernels._back_substitute(R, c)
        np.testing.assert_allclose(triangle @ s, c[:3], rtol=0, atol=1e-12)
