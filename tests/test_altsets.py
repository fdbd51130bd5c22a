"""The conditional-likelihood denominator over the alternative sequences:
``denominator_dp`` and the recursion behind it, against enumeration, and
the enumerated small alternative sets of ``felogit.altsets``."""

import math

import numpy as np
import pytest

from felogit import IndividualSlice, PanelDataset, denominator_dp
from felogit import _kernels
from felogit.altsets import _alternatives, attribute_batches, enumerable, observed_row_index

from oracles import central_diff_gradient, enum_denominator, enum_log_denominator, random_panel


def _log_denominator(slc, beta):
    """log D and its beta-gradient for one individual, from the kernel."""
    totals = np.array([slc.choice_total])
    scores = (slc.covariates @ beta)[None, :]
    logden, mean = _kernels.logdenom_batch(scores, slc.covariates[None], totals)
    return float(logden[0]), mean[0]


def test_difference_vectors_require_informative_slice():
    slc = IndividualSlice(np.zeros((3, 1)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="informative"):
        denominator_dp(slc, np.zeros(1))


def test_denominator_two_period_examples():
    slc = IndividualSlice(np.array([[0.0], [1.0]]), np.array([0, 1]))
    value, grad = denominator_dp(slc, np.array([0.0]))
    assert value == 2.0
    assert grad[0] == 1.0
    value, _ = denominator_dp(slc, np.array([math.log(3.0)]))
    assert value == pytest.approx(4.0, rel=1e-12)


def test_denominator_exact_binomial_at_zero():
    rng = np.random.default_rng(7)
    for _ in range(30):
        data = random_panel(rng, n=1, T=int(rng.integers(2, 13)))
        slc = data.slice(0)
        if not slc.informative:
            continue
        value, _ = denominator_dp(slc, np.zeros(slc.p))
        assert value == float(math.comb(slc.T, slc.choice_total))


def test_denominator_matches_enumeration():
    rng = np.random.default_rng(19)
    for _ in range(40):
        data = random_panel(rng, n=1, T=int(rng.integers(2, 13)))
        slc = data.slice(0)
        if not slc.informative:
            continue
        beta = rng.standard_normal(slc.p)
        value, grad = denominator_dp(slc, beta)
        expected = enum_denominator(slc.covariates, slc.outcomes, beta)
        assert value == pytest.approx(expected, rel=1e-12)
        slope = central_diff_gradient(
            lambda b: enum_denominator(slc.covariates, slc.outcomes, b), beta
        )
        assert np.allclose(grad, slope, rtol=1e-6, atol=1e-8 * value)


def test_log_denominator_stable_for_large_scores():
    # raw exp would overflow at these scores; the log value must stay finite
    slc = IndividualSlice(np.array([[650.0], [700.0], [-650.0]]), np.array([1, 1, 0]))
    logval, grad = _log_denominator(slc, np.array([1.0]))
    expected = enum_log_denominator(slc.covariates, slc.outcomes, np.array([1.0]))
    assert logval == pytest.approx(expected, rel=1e-12)
    assert np.isfinite(grad).all()

    # one batch mixing that row with each closed-form branch of the kernel
    # (k = 0, k = T, equal scores) and a generic recursion row
    x = np.array([[650.0, 700.0, -650.0], [0.1, -0.4, 2.0], [0.1, -0.4, 2.0],
                  [0.3, 0.3, 0.3], [0.1, -0.4, 2.0]])[:, :, None]
    y = np.array([[1, 1, 0], [0, 0, 0], [1, 1, 1], [0, 1, 0], [1, 0, 0]])
    beta = np.array([1.0])
    logden, mean = _kernels.logdenom_batch(x @ beta, x, y.sum(axis=1))
    for i in range(len(y)):
        expected = enum_log_denominator(x[i], y[i], beta)
        assert logden[i] == pytest.approx(expected, rel=1e-12, abs=1e-12)
        slope = central_diff_gradient(lambda b: enum_log_denominator(x[i], y[i], b), beta)
        assert mean[i] == pytest.approx(slope, rel=1e-6, abs=1e-8)


def test_softmax_weights_normalize():
    rng = np.random.default_rng(23)
    for _ in range(20):
        data = random_panel(rng, n=1, T=int(rng.integers(2, 9)))
        slc = data.slice(0)
        if not slc.informative:
            continue
        beta = rng.standard_normal(slc.p)
        alts = _alternatives(slc.T, slc.choice_total)
        exponents = alts @ (slc.covariates @ beta)
        value, _ = denominator_dp(slc, beta)
        assert np.exp(exponents).sum() / value == pytest.approx(1.0, rel=1e-12)


def test_denominator_period_exchangeability():
    rng = np.random.default_rng(29)
    for _ in range(20):
        data = random_panel(rng, n=1, T=int(rng.integers(2, 9)))
        slc = data.slice(0)
        if not slc.informative:
            continue
        beta = rng.standard_normal(slc.p)
        perm = rng.permutation(slc.T)
        shuffled = IndividualSlice(slc.covariates[perm], slc.outcomes[perm])
        v1, _ = denominator_dp(slc, beta)
        v2, _ = denominator_dp(shuffled, beta)
        assert v1 == pytest.approx(v2, rel=1e-12)


def test_log_denominator_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    checked = 0
    while checked < 15:
        data = random_panel(rng, n=1, T=int(rng.integers(2, 7)))
        slc = data.slice(0)
        if not slc.informative:
            continue
        checked += 1
        beta = 0.5 * rng.standard_normal(slc.p)
        _, grad = _log_denominator(slc, beta)
        fd = central_diff_gradient(
            lambda b: _log_denominator(slc, b)[0], beta, h=1e-6
        )
        scale = max(1.0, float(np.abs(fd).max()))
        assert np.abs(grad - fd).max() / scale < 1e-6


def test_beta_validation():
    slc = IndividualSlice(np.array([[0.0], [1.0]]), np.array([0, 1]))
    with pytest.raises(ValueError, match="length"):
        denominator_dp(slc, np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        denominator_dp(slc, np.array([np.inf]))


@pytest.mark.parametrize("x", [(400.0, 401.0, 0.0), (400.0, 400.0, 400.0)])
def test_denominator_overflow_is_a_value_error(x):
    # log D = 801 from the recursion, log 3 + 800 from the equal-score branch;
    # both lie beyond log(float max) ~ 709.78
    slc = IndividualSlice(np.array(x)[:, None], np.array([1, 1, 0]))
    with pytest.raises(ValueError, match=r"overflows float64: log D = 801"):
        denominator_dp(slc, np.array([1.0]))


@pytest.mark.parametrize("x", [(350.0, 351.0, 0.0), (350.0, 350.0, 350.0)])
def test_denominator_just_below_overflow_returns(x):
    slc = IndividualSlice(np.array(x)[:, None], np.array([1, 1, 0]))
    value, grad = denominator_dp(slc, np.array([1.0]))
    log_value, mean = _log_denominator(slc, np.array([1.0]))
    assert log_value > 700.0
    assert math.isfinite(value) and np.isfinite(grad).all()
    assert value == pytest.approx(math.exp(log_value), rel=1e-12)
    np.testing.assert_allclose(grad, value * mean, rtol=1e-12)


def test_observed_row_index_matches_enumeration():
    for T in range(1, 8):
        for k in range(0, T + 1):
            alts = _alternatives(T, k)
            assert not alts.flags.writeable
            rows = [tuple(r) for r in alts.astype(int).tolist()]
            # lexicographic, distinct, complete: every sequence with sum k once
            assert rows == sorted(rows)
            assert len(set(rows)) == len(rows) == math.comb(T, k)
            assert all(sum(r) == k for r in rows)
            for j, row in enumerate(alts):
                assert observed_row_index(row) == j
            # one call indexes a whole (n, T) block the same way
            assert observed_row_index(alts).tolist() == list(range(len(rows)))


def test_observed_row_index_of_a_small_set_in_a_long_panel():
    # k = 1 and k = T - 1 at T = 100 are enumerable once p is large enough,
    # although the Pascal table at T = 100 holds entries beyond int64
    T = 100
    assert enumerable(T, 1, 20) and enumerable(T, T - 1, 20)
    assert observed_row_index(np.eye(T)[::-1]).tolist() == list(range(T))
    assert observed_row_index(1 - np.eye(T)).tolist() == list(range(T))


def test_attribute_batches_cover_the_enumerable_sets():
    rng = np.random.default_rng(41)
    for T, p in ((3, 1), (5, 2), (9, 3), (14, 3)):
        x = rng.standard_normal((80, T, p))
        y = (rng.random((80, T)) < rng.random((80, 1))).astype(np.int8)
        data = PanelDataset.from_arrays(x, y)
        seen = []
        for idx, alts, attrs, obs_index in attribute_batches(data):
            k = int(data.choice_totals[idx[0]])
            assert enumerable(T, k, p) and (data.choice_totals[idx] == k).all()
            np.testing.assert_array_equal(alts, _alternatives(T, k))
            # attribute vectors from period differences: the same shift k x_1 in each
            shifted = np.einsum("rt,itp->irp", alts, x[idx]) - k * x[idx, :1]
            np.testing.assert_allclose(attrs, shifted, rtol=0.0, atol=1e-13)
            np.testing.assert_array_equal(alts[obs_index], y[idx])
            seen.extend(idx.tolist())
        expected = [i for i in range(80)
                    if data.informative_mask[i] and enumerable(T, int(data.choice_totals[i]), p)]
        assert sorted(seen) == expected
        assert 0 < len(seen) and (T > 5 or len(seen) == data.informative_mask.sum())
