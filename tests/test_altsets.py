import math

import numpy as np
import pytest

from felogit import (
    AlternativeSetTooLargeError,
    IndividualSlice,
    alternative_set,
    denominator_dp,
    difference_vectors,
    enumerate_alternatives,
    informative_subset,
    log_denominator_dp,
)
from felogit import _kernels

from oracles import central_diff_gradient, enum_denominator, enum_log_denominator, random_panel


def test_enumeration_small_cases():
    assert enumerate_alternatives(3, 1).tolist() == [[0, 0, 1], [0, 1, 0], [1, 0, 0]]
    assert enumerate_alternatives(2, 0).tolist() == [[0, 0]]
    assert enumerate_alternatives(3, 2).shape == (3, 3)


@pytest.mark.parametrize("T,k", [(4, 2), (5, 3), (6, 1), (7, 7), (6, 0)])
def test_enumeration_is_lexicographic_and_complete(T, k):
    alts = enumerate_alternatives(T, k)
    assert alts.shape == (math.comb(T, k), T)
    rows = [tuple(r) for r in alts.tolist()]
    assert rows == sorted(rows)
    assert len(set(rows)) == len(rows)
    assert all(sum(r) == k for r in rows)


def test_enumeration_guard():
    with pytest.raises(AlternativeSetTooLargeError, match="alternative set too large"):
        enumerate_alternatives(40, 20)
    # a custom guard can admit the same request
    assert enumerate_alternatives(20, 2, guard=10**6).shape[0] == 190


def test_enumeration_rejects_bad_k():
    with pytest.raises(ValueError):
        enumerate_alternatives(3, 4)


def test_alternative_set_contains_observed_sequence():
    rng = np.random.default_rng(11)
    for _ in range(20):
        data = random_panel(rng, n=1)
        slc = data.slice(0)
        if not slc.informative:
            continue
        alts = alternative_set(slc)
        assert alts.size == math.comb(slc.T, slc.choice_total)
        assert (alts.sequences == slc.outcomes).all(axis=1).any()


def test_difference_vectors_fixture_individual_six(fixture_panel):
    sub, _ = informative_subset(fixture_panel)
    i6 = sub.ids.tolist().index(6)
    dvs = difference_vectors(sub.slice(i6), owner=6)
    # alternatives for T=3, k=1 in lexicographic order: (0,0,1), (0,1,0), (1,0,0)
    assert dvs[0].v[0] == pytest.approx(0.48 - 0.62, abs=1e-12)
    assert dvs[1].v[0] == 0.0  # observed sequence, exactly zero
    assert dvs[2].v[0] == pytest.approx(0.33 - 0.62, abs=1e-12)
    assert [d.alt_index for d in dvs] == [0, 1, 2]
    assert all(d.owner == 6 for d in dvs)


def test_difference_vectors_zero_exactly_at_observed_index():
    rng = np.random.default_rng(5)
    for _ in range(25):
        data = random_panel(rng, n=1)
        slc = data.slice(0)
        if not slc.informative:
            continue
        alts = alternative_set(slc)
        obs_rows = np.flatnonzero((alts.sequences == slc.outcomes).all(axis=1))
        dvs = difference_vectors(slc)
        assert (dvs[obs_rows[0]].v == 0.0).all()
        # each generating sequence keeps the choice total fixed
        for j, d in enumerate(dvs):
            assert int(alts.sequences[j].sum()) == slc.choice_total


def test_difference_vectors_require_informative_slice():
    slc = IndividualSlice(np.zeros((3, 1)), np.zeros(3, dtype=int))
    with pytest.raises(ValueError, match="informative"):
        difference_vectors(slc)
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
        value, _ = denominator_dp(slc, beta)
        expected = enum_denominator(slc.covariates, slc.outcomes, beta)
        assert value == pytest.approx(expected, rel=1e-12)


def test_log_denominator_stable_for_large_scores():
    # raw exp would overflow at these scores; the log value must stay finite
    slc = IndividualSlice(np.array([[650.0], [700.0], [-650.0]]), np.array([1, 1, 0]))
    logval, grad = log_denominator_dp(slc, np.array([1.0]))
    expected = enum_log_denominator(slc.covariates, slc.outcomes, np.array([1.0]))
    assert logval == pytest.approx(expected, rel=1e-12)
    assert np.isfinite(grad).all()

    # one batch mixing that row with each closed-form branch of the kernel
    # (k = 0, k = T, equal scores) and a generic recursion row
    x = np.array([[650.0, 700.0, -650.0], [0.1, -0.4, 2.0], [0.1, -0.4, 2.0],
                  [0.3, 0.3, 0.3], [0.1, -0.4, 2.0]])[:, :, None]
    y = np.array([[1, 1, 0], [0, 0, 0], [1, 1, 1], [0, 1, 0], [1, 0, 0]])
    beta = np.array([1.0])
    logden, mean = _kernels.logdenom_numpy(x @ beta, x, y.sum(axis=1))
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
        alts = alternative_set(slc).sequences.astype(float)
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
        _, grad = log_denominator_dp(slc, beta)
        fd = central_diff_gradient(
            lambda b: log_denominator_dp(slc, b)[0], beta, h=1e-6
        )
        scale = max(1.0, float(np.abs(fd).max()))
        assert np.abs(grad - fd).max() / scale < 1e-6


def test_beta_validation():
    slc = IndividualSlice(np.array([[0.0], [1.0]]), np.array([0, 1]))
    with pytest.raises(ValueError, match="length"):
        denominator_dp(slc, np.zeros(2))
    with pytest.raises(ValueError, match="finite"):
        denominator_dp(slc, np.array([np.inf]))


def test_observed_row_index_matches_enumeration():
    from felogit.altsets import observed_row_index

    for T in range(1, 8):
        for k in range(0, T + 1):
            alts = enumerate_alternatives(T, k)
            for j, row in enumerate(alts):
                assert observed_row_index(row) == j
