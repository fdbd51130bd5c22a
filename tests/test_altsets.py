"""The conditional-likelihood denominator over the alternative sequences:
the recursion of ``_kernels.logdenom_batch`` against enumeration, and the
enumerated small alternative sets of ``felogit.altsets``."""

import math

import numpy as np
import pytest

from felogit import PanelDataset
from felogit import _kernels
from felogit.altsets import _alternatives, attribute_batches, enumerable, observed_row_index

from oracles import central_diff_gradient, enum_log_denominator, random_panel


def _log_denominator(x, y, beta):
    """log D and its beta-gradient for one individual, from the kernel."""
    data = PanelDataset.from_arrays(x[None], y[None])
    logden, mean, _ = _kernels.logdenom_batch(data.covariates @ beta, data.covariates,
                                              data.choice_totals)
    return float(logden[0]), mean[0]


def _individual(rng, T_max):
    """(x, y) of a random informative individual with 2 <= T <= T_max."""
    data = random_panel(rng, n=1, T=int(rng.integers(2, T_max + 1)))
    return data.covariates[0], data.outcomes[0]


def test_denominator_two_period_examples():
    x, y = np.array([[0.0], [1.0]]), np.array([0, 1])
    logval, grad = _log_denominator(x, y, np.array([0.0]))
    assert logval == pytest.approx(math.log(2.0), rel=1e-15)
    assert grad[0] == 0.5
    logval, _ = _log_denominator(x, y, np.array([math.log(3.0)]))
    assert logval == pytest.approx(math.log(4.0), rel=1e-12)


def test_denominator_exact_binomial_at_zero():
    rng = np.random.default_rng(7)
    for _ in range(30):
        x, y = _individual(rng, 12)
        logval, _ = _log_denominator(x, y, np.zeros(x.shape[1]))
        assert round(math.exp(logval)) == math.comb(len(y), int(y.sum()))
        assert logval == pytest.approx(math.log(math.comb(len(y), int(y.sum()))), rel=1e-14)


def test_denominator_matches_enumeration():
    rng = np.random.default_rng(19)
    for _ in range(40):
        x, y = _individual(rng, 12)
        beta = rng.standard_normal(x.shape[1])
        logval, grad = _log_denominator(x, y, beta)
        assert logval == pytest.approx(enum_log_denominator(x, y, beta), rel=1e-12, abs=1e-12)
        slope = central_diff_gradient(lambda b: enum_log_denominator(x, y, b), beta)
        assert np.allclose(grad, slope, rtol=1e-6, atol=1e-8)


def test_log_denominator_stable_for_large_scores():
    # raw exp would overflow at these scores; the log value must stay finite
    x, y = np.array([[650.0], [700.0], [-650.0]]), np.array([1, 1, 0])
    logval, grad = _log_denominator(x, y, np.array([1.0]))
    assert logval == pytest.approx(enum_log_denominator(x, y, np.array([1.0])), rel=1e-12)
    assert np.isfinite(grad).all()

    # one batch mixing that row with k = 0 and k = T rows, which the recursion
    # serves as any other, an equal-score row for the closed form, and a
    # generic recursion row
    x = np.array([[650.0, 700.0, -650.0], [0.1, -0.4, 2.0], [0.1, -0.4, 2.0],
                  [0.3, 0.3, 0.3], [0.1, -0.4, 2.0]])[:, :, None]
    y = np.array([[1, 1, 0], [0, 0, 0], [1, 1, 1], [0, 1, 0], [1, 0, 0]])
    beta = np.array([1.0])
    logden, mean, _ = _kernels.logdenom_batch(x @ beta, x, y.sum(axis=1))
    for i in range(len(y)):
        expected = enum_log_denominator(x[i], y[i], beta)
        assert logden[i] == pytest.approx(expected, rel=1e-12, abs=1e-12)
        slope = central_diff_gradient(lambda b: enum_log_denominator(x[i], y[i], b), beta)
        assert mean[i] == pytest.approx(slope, rel=1e-6, abs=1e-8)


def test_softmax_weights_normalize():
    rng = np.random.default_rng(23)
    for _ in range(20):
        x, y = _individual(rng, 8)
        beta = rng.standard_normal(x.shape[1])
        exponents = _alternatives(len(y), int(y.sum())) @ (x @ beta)
        logval, _ = _log_denominator(x, y, beta)
        assert np.exp(exponents - logval).sum() == pytest.approx(1.0, rel=1e-12)


def test_denominator_period_exchangeability():
    rng = np.random.default_rng(29)
    for _ in range(20):
        x, y = _individual(rng, 8)
        beta = rng.standard_normal(x.shape[1])
        perm = rng.permutation(len(y))
        v1, _ = _log_denominator(x, y, beta)
        v2, _ = _log_denominator(x[perm], y[perm], beta)
        assert v1 == pytest.approx(v2, rel=1e-12, abs=1e-12)


def test_log_denominator_gradient_matches_finite_differences():
    rng = np.random.default_rng(31)
    for _ in range(15):
        x, y = _individual(rng, 6)
        beta = 0.5 * rng.standard_normal(x.shape[1])
        _, grad = _log_denominator(x, y, beta)
        fd = central_diff_gradient(lambda b: _log_denominator(x, y, b)[0], beta, h=1e-6)
        scale = max(1.0, float(np.abs(fd).max()))
        assert np.abs(grad - fd).max() / scale < 1e-6


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


def test_a_set_and_its_complement_take_the_same_path():
    # a recursed row with 2k > T runs on its complement, to depth T - k
    for T in range(1, 21):
        for p in (1, 2, 3, 5):
            assert [enumerable(T, k, p) for k in range(T + 1)] == \
                [enumerable(T, T - k, p) for k in range(T + 1)]
    assert [k for k in range(15) if enumerable(14, k, 3)] == [1, 13]


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


@pytest.mark.parametrize("budget, n", [(1, 40), (500, 300), (None, 20_000)])
def test_attribute_batches_split_each_total_into_the_fewest_equal_chunks(monkeypatch, budget, n):
    # m rows of total k, C(T, k) p cells each, go into the fewest chunks that
    # hold at most the budget, ceil(m / floor(budget / (C(T, k) p))), of sizes
    # that differ by at most one, in row order
    if budget is not None:
        monkeypatch.setattr(_kernels, "_BATCH_CELL_BUDGET", budget)
    budget = _kernels._BATCH_CELL_BUDGET
    rng = np.random.default_rng(47)
    T, p = 5, 3
    data = PanelDataset.from_arrays(rng.standard_normal((n, T, p)),
                                    (rng.random((n, T)) < 0.45).astype(np.int8))
    chunks = {}
    for idx, *_ in attribute_batches(data):
        chunks.setdefault(int(data.choice_totals[idx[0]]), []).append(idx)
    assert sorted(chunks) == [1, 2, 3, 4]
    for k, parts in chunks.items():
        rows = np.flatnonzero(data.choice_totals == k)
        cells = math.comb(T, k) * p
        sizes = [part.size for part in parts]
        assert np.array_equal(np.concatenate(parts), rows)
        assert len(sizes) == -(-rows.size // max(1, budget // cells))
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) * cells <= budget or max(sizes) == 1
    assert max(len(parts) for parts in chunks.values()) > 1
