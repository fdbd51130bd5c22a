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
    assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


def test_logdenom_orders_return_the_same_bits():
    rng = np.random.default_rng(109)
    scores, covariates, totals = _random_batch(rng)
    scores[:6] = 0.25  # equal-score rows take the closed form
    full = _kernels.logdenom_batch(scores, covariates, totals, order=2)
    assert len(full) == 3
    for order in (0, 1):
        part = _kernels.logdenom_batch(scores, covariates, totals, order=order)
        assert len(part) == order + 1
        for a, b in zip(part, full):
            assert np.array_equal(a, b)
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


@pytest.mark.parametrize("budget", [1, _kernels._BATCH_CELL_BUDGET])
@pytest.mark.parametrize("p", [1, 2, 5])
@pytest.mark.parametrize("T, kmax", [pytest.param(T, None, id=str(T)) for T in (1, 2, 4, 14, 30)]
                         + [pytest.param(T, k, id=f"{T}-kmax{k}") for T in (4, 14, 30) for k in (0, 1)])
def test_logdenom_matches_the_rows_first_reference_bit_for_bit(monkeypatch, T, p, budget, kmax):
    rng = np.random.default_rng(1000 * T + 10 * p + (budget == 1))
    batch = _pinning_batch(rng, T, p, kmax)
    monkeypatch.setattr(_kernels, "_BATCH_CELL_BUDGET", budget)
    for order in (0, 1, 2):
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
