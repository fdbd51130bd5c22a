import gc
import math
import weakref

import numpy as np
import pytest

import felogit.estimator as estimator
from felogit import (
    NonexistenceError,
    PanelDataset,
    STATUS_EXISTS,
    STATUS_RANK_DEFICIENT,
    STATUS_SEPARATED,
    conditional_loglik,
    conditional_score_and_hessian,
    detect_panel_separation,
    detect_pooled_separation,
    fit,
    informative_subset,
)
from felogit import _kernels
from felogit.altsets import attribute_batches

from oracles import (
    central_diff_gradient,
    central_diff_jacobian,
    enum_log_denominator,
    enum_softmax_covariance,
    random_panel,
)


def _panel(x_rows, y_rows):
    x = np.asarray(x_rows, dtype=float)[:, :, None]
    return PanelDataset.from_arrays(x, np.asarray(y_rows))


def _logit_panel(seed: int) -> PanelDataset:
    """An n=100, T=4 logit panel: normal covariates and effects, beta0 = (1, -0.5)."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((100, 4, 2))
    effects = rng.standard_normal(100)
    noise = rng.logistic(size=(100, 4))
    y = (x @ np.array([1.0, -0.5]) + effects[:, None] + noise > 0).astype(np.int8)
    return PanelDataset.from_arrays(x, y)


SINGLE = _panel([[0.0, 1.0]], [[0, 1]])
SYMMETRIC_PAIR = _panel([[0.0, 1.0], [1.0, 0.0]], [[0, 1], [0, 1]])
TRIPLE = _panel([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]], [[0, 1], [0, 1], [0, 1]])


def test_loglik_fixture_at_zero(fixture_panel):
    assert conditional_loglik(fixture_panel, [0.0]) == pytest.approx(
        -7.0 * math.log(3.0), rel=1e-12
    )


def test_loglik_single_individual_closed_form():
    for b in (-1.3, 0.0, 0.7, 2.0):
        expected = b - math.log(1.0 + math.exp(b))
        assert conditional_loglik(SINGLE, [b]) == pytest.approx(expected, rel=1e-12)


def test_score_and_hessian_closed_form_at_zero():
    score, hessian = conditional_score_and_hessian(SINGLE, [0.0])
    assert score[0] == pytest.approx(0.5, rel=1e-12)
    assert hessian[0, 0] == pytest.approx(-0.25, rel=1e-12)


def test_degenerate_alternatives_give_zero_score_and_hessian():
    # constant covariates within individuals: every alternative has the same
    # attribute vector
    data = _panel([[0.4, 0.4, 0.4], [1.1, 1.1, 1.1]], [[0, 1, 0], [1, 1, 0]])
    for beta in ([0.0], [1.5], [-2.0]):
        score, hessian = conditional_score_and_hessian(data, beta)
        assert score[0] == 0.0
        assert abs(hessian[0, 0]) < 1e-14  # zero up to softmax rounding


def test_score_matches_finite_differences():
    rng = np.random.default_rng(71)
    for _ in range(15):
        data = random_panel(rng)
        beta = 0.5 * rng.standard_normal(data.p)
        score, _ = conditional_score_and_hessian(data, beta)
        fd = central_diff_gradient(lambda b: conditional_loglik(data, b), beta)
        scale = max(1.0, float(np.abs(fd).max()))
        assert np.abs(score - fd).max() / scale < 1e-6


def test_hessian_matches_finite_differences_of_score():
    rng = np.random.default_rng(73)
    for _ in range(15):
        data = random_panel(rng)
        beta = 0.5 * rng.standard_normal(data.p)
        _, hessian = conditional_score_and_hessian(data, beta)
        fd = central_diff_jacobian(
            lambda b: conditional_score_and_hessian(data, b)[0], beta
        )
        fd = 0.5 * (fd + fd.T)
        scale = max(1.0, float(np.abs(fd).max()))
        assert np.abs(hessian - fd).max() / scale < 1e-5


def test_hessian_negative_semidefinite():
    rng = np.random.default_rng(79)
    for _ in range(25):
        data = random_panel(rng)
        beta = rng.standard_normal(data.p)
        _, hessian = conditional_score_and_hessian(data, beta)
        top = np.linalg.eigvalsh(hessian).max()
        scale = max(1.0, float(np.abs(hessian).max()))
        assert top <= 1e-10 * scale


def test_loglik_nonpositive_everywhere():
    rng = np.random.default_rng(83)
    for _ in range(25):
        data = random_panel(rng)
        beta = 2.0 * rng.standard_normal(data.p)
        assert conditional_loglik(data, beta) <= 0.0


def test_loglik_equals_informative_subset_value(fixture_panel):
    rng = np.random.default_rng(89)
    sub, _ = informative_subset(fixture_panel)
    for _ in range(10):
        beta = rng.standard_normal(1)
        full = conditional_loglik(fixture_panel, beta)
        informative = conditional_loglik(sub, beta)
        assert full == pytest.approx(informative, abs=1e-12)


def test_translation_invariance_of_loglik():
    rng = np.random.default_rng(97)
    for _ in range(15):
        data = random_panel(rng)
        shifts = rng.standard_normal((data.n, 1, data.p))
        shifted = PanelDataset.from_arrays(data.covariates + shifts, data.outcomes)
        beta = rng.standard_normal(data.p)
        a = conditional_loglik(data, beta)
        b = conditional_loglik(shifted, beta)
        assert b == pytest.approx(a, rel=1e-10, abs=1e-10)


def test_fit_symmetric_pair_is_zero():
    result = fit(SYMMETRIC_PAIR)
    assert abs(result.beta_hat[0]) < 1e-10
    assert result.loglik == pytest.approx(-2.0 * math.log(2.0), rel=1e-12)
    assert result.converged


def test_fit_triple_closed_form():
    result = fit(TRIPLE)
    assert result.beta_hat[0] == pytest.approx(math.log(0.5), abs=1e-8)
    assert result.converged
    assert result.gate.status == STATUS_EXISTS
    assert result.std_errors[0] > 0.0


def test_fit_refuses_separated_data(fixture_panel):
    with pytest.raises(NonexistenceError, match=r"estimate does not exist \(separated\)") as exc:
        fit(fixture_panel)
    assert exc.value.report.status == STATUS_SEPARATED


def test_fit_refuses_rank_deficient_data():
    data = _panel([[0.7, 0.7, 0.7]], [[0, 1, 0]])
    with pytest.raises(NonexistenceError, match="rank condition failed") as exc:
        fit(data)
    assert exc.value.report.status == STATUS_RANK_DEFICIENT


def test_forced_fit_on_separated_data(fixture_panel):
    result = fit(fixture_panel, force=True)
    assert not result.converged
    assert np.linalg.norm(result.beta_hat) > 10.0
    assert result.diagnostic is not None
    assert result.gate.status == STATUS_SEPARATED
    assert result.loglik > -1e-3  # nearly zero, the telltale of separation


def test_newton_ascent_is_monotone():
    rng = np.random.default_rng(111)
    fitted = 0
    while fitted < 10:
        data = random_panel(rng, n_max=12)
        try:
            result = fit(data)
        except NonexistenceError:
            continue
        fitted += 1
        values = [step.loglik for step in result.trace]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))
        assert result.loglik >= conditional_loglik(data, np.zeros(data.p))


def test_gate_soundness_converges_when_gate_passes():
    rng = np.random.default_rng(113)
    fitted = 0
    while fitted < 20:
        data = random_panel(rng, n_max=50, T_max=5, p_max=3)
        try:
            result = fit(data)
        except NonexistenceError:
            continue
        fitted += 1
        assert result.converged
        assert result.iterations <= 100
        assert result.gradient_norm <= 1e-8


def test_scale_equivariance_of_estimate():
    rng = np.random.default_rng(127)
    fitted = 0
    while fitted < 8:
        data = random_panel(rng, n_max=15, T_max=4)
        try:
            base = fit(data)
        except NonexistenceError:
            continue
        fitted += 1
        c = float(rng.uniform(0.5, 4.0))
        scaled = PanelDataset.from_arrays(c * data.covariates, data.outcomes)
        other = fit(scaled)
        assert np.abs(other.beta_hat - base.beta_hat / c).max() < 1e-8
        assert other.loglik == pytest.approx(base.loglik, abs=1e-10)


def test_period_exchangeability_of_estimate():
    rng = np.random.default_rng(131)
    fitted = 0
    while fitted < 8:
        data = random_panel(rng, n_max=12, T_max=4)
        try:
            base = fit(data)
        except NonexistenceError:
            continue
        fitted += 1
        perm = rng.permutation(data.T)
        shuffled = PanelDataset.from_arrays(
            data.covariates[:, perm, :], data.outcomes[:, perm]
        )
        beta = rng.standard_normal(data.p)
        assert conditional_loglik(shuffled, beta) == pytest.approx(
            conditional_loglik(data, beta), rel=1e-10, abs=1e-12
        )
        other = fit(shuffled)
        assert np.abs(other.beta_hat - base.beta_hat).max() < 1e-8


def test_dimension_mismatch_rejected(fixture_panel):
    with pytest.raises(ValueError, match="length"):
        conditional_loglik(fixture_panel, [0.0, 1.0])


def test_nonfinite_beta_rejected(fixture_panel):
    with pytest.raises(ValueError, match="finite"):
        conditional_loglik(fixture_panel, [np.inf])


def test_newton_converges_when_gains_fall_below_loglik_roundoff():
    # with the score near 1e-8 the gain of a Newton step is below the
    # round-off of loglik ~ -100; an Armijo test on it shrinks every step
    # and Newton used to stall at gradient_norm ~ 2e-8 after 100 iterations
    result = fit(_logit_panel(32))
    assert result.converged
    assert result.gradient_norm <= 1e-8
    assert result.iterations < 20


def _long_panel(seed: int) -> PanelDataset:
    """An n=200, T=14, p=3 logit panel: its sets with k in {1, 12, 13} are
    enumerated, the others recursed."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((200, 14, 3))
    effects = rng.standard_normal(200)
    noise = rng.logistic(size=(200, 14))
    y = (x @ np.array([1.0, -0.5, 0.25]) + effects[:, None] + noise > 0).astype(np.int8)
    return PanelDataset.from_arrays(x, y)


def test_fit_evaluates_score_and_hessian_once_per_iterate(monkeypatch):
    evaluations, recursions = [], []
    evaluate, recursion = estimator._evaluate, _kernels._recursion

    def counted(data, beta, order):
        evaluations.append((order, np.array(beta, dtype=float)))
        return evaluate(data, beta, order)

    def recursed(S, X, ks, order):
        recursions.append(order)
        return recursion(S, X, ks, order)

    monkeypatch.setattr(estimator, "_evaluate", counted)
    monkeypatch.setattr(_kernels, "_recursion", recursed)
    for data in (_logit_panel(32), _logit_panel(33), _logit_panel(34), _long_panel(35)):
        evaluations.clear()
        recursions.clear()
        result = fit(data)
        assert result.converged
        assert result.iterations >= 3
        # each trial is evaluated once, at order 2, and kept when accepted;
        # the only value-only evaluation is the start's, at beta = 0
        assert [(o, b.any()) for o, b in evaluations if o != 2] == [(0, False)]
        trials = [b for o, b in evaluations if o == 2]
        assert len(trials) == result.iterations
        assert len({b.tobytes() for b in trials}) == len(trials)
        if data.T == 14:
            # beta = 0 takes the closed form; every other beta one recursion pass
            assert recursions == [2] * sum(b.any() for b in trials)


def test_loglik_is_the_same_bits_at_every_order():
    rng = np.random.default_rng(36)
    for seed in (36, 37):
        data = _long_panel(seed)
        layout = estimator._layout(data)
        assert layout.enumerated and layout.rest.size
        for beta in (np.zeros(3), rng.standard_normal(3), 3.0 * rng.standard_normal(3)):
            value, = estimator._evaluate(data, beta, 0)
            assert estimator._evaluate(data, beta, 2)[0] == value
            assert conditional_loglik(data, beta) == value


@pytest.mark.parametrize("max_iter", [0, 2])
def test_capped_fit_reports_score_and_errors_at_its_estimate(max_iter):
    data = _logit_panel(32)
    result = fit(data, max_iter=max_iter)
    assert result.iterations == max_iter
    assert not result.converged
    score, hessian = conditional_score_and_hessian(data, result.beta_hat)
    assert result.gradient_norm == float(np.abs(score).max())
    expected = np.sqrt(np.diag(np.linalg.inv(-hessian)))
    np.testing.assert_allclose(result.std_errors, expected, rtol=1e-12, atol=0.0)


def _assert_hessian_matches_oracle(x, y, beta):
    data = PanelDataset.from_arrays(x[None], y[None])
    _, hessian = conditional_score_and_hessian(data, beta)
    expected = -enum_softmax_covariance(x, y, beta)
    # the recursion on its own too, since small sets are enumerated instead
    _, _, cov = _kernels.logdenom_batch((x @ beta)[None], x[None], np.array([y.sum()]), order=2)
    for h in (hessian, -cov[0]):
        assert np.array_equal(h, h.T)
        assert np.abs(h - expected).max() <= 1e-10 * np.abs(expected).max()


def test_hessian_matches_enumerated_softmax_covariance():
    rng = np.random.default_rng(137)
    for T in range(2, 13):
        for k in range(1, T):
            p = int(rng.integers(1, 4))
            x = rng.standard_normal((T, p))
            y = np.zeros(T, dtype=np.int8)
            y[rng.permutation(T)[:k]] = 1
            beta = rng.standard_normal(p)
            _assert_hessian_matches_oracle(x, y, beta)
            _assert_hessian_matches_oracle(x, y, np.zeros(p))
            # the same scores at extreme covariate scales
            _assert_hessian_matches_oracle(1e6 * x, y, 1e-6 * beta)
            _assert_hessian_matches_oracle(1e-6 * x, y, 1e6 * beta)
            # equal scores with varying covariates: x1 + x2 = 3 in every
            # period, exact in floating point, so the closed form applies
            z = rng.integers(-5, 6, size=T).astype(np.float64)
            x_eq = np.column_stack([z, 3.0 - z])
            beta_eq = np.array([0.5, 0.5])
            assert np.all(x_eq @ beta_eq == 1.5)
            if np.ptp(z) > 0:
                _assert_hessian_matches_oracle(x_eq, y, beta_eq)


@pytest.mark.parametrize("budget", [1, 500])
def test_hessian_is_bitwise_equal_in_chunks(monkeypatch, budget):
    # a budget of 1 cell forces one-row chunks; 500 cells gives chunks of a
    # few rows (each row counts 2 (k_max + 1) cells at order 0 and
    # 2 (k_max + 1)(1 + p + p(p+1)/2) at order 2, for log D, mean and the
    # covariance triangle)
    rng = np.random.default_rng(139)
    x = rng.standard_normal((60, 9, 3))
    x[:5] = x[:5, :1]  # constant covariates: equal scores at every beta
    y = (rng.random((60, 9)) < rng.random((60, 1))).astype(np.int8)
    data = PanelDataset.from_arrays(x, y)
    beta = rng.standard_normal(3)
    whole = conditional_score_and_hessian(data, beta), conditional_loglik(data, beta)

    calls = []
    recursion = _kernels._recursion

    def counted(S, *args):
        calls.append(S.shape[0])
        return recursion(S, *args)

    batches = []

    def listed(data):
        for batch in attribute_batches(data):
            batches.append(batch[0])
            yield batch

    monkeypatch.setattr(_kernels, "_BATCH_CELL_BUDGET", budget)
    monkeypatch.setattr(_kernels, "_recursion", counted)
    monkeypatch.setattr(estimator, "attribute_batches", listed)
    fresh = PanelDataset.from_arrays(x, y)  # a new panel, so its layout is built in chunks
    chunked = conditional_score_and_hessian(fresh, beta), conditional_loglik(fresh, beta)
    outside = data.informative_mask & (np.arange(data.n) >= 5)  # outside every closed form
    enumerated = np.zeros(data.n, dtype=bool)
    enumerated[np.concatenate(batches)] = True
    assert (outside & enumerated).any() and (outside & ~enumerated).any()
    # log D and the moments recurse only the rows not enumerated, in chunks
    assert sum(calls) == 2 * (outside & ~enumerated).sum()
    for sizes in (calls, [b.size for b in batches]):
        assert (max(sizes) == 1) if budget == 1 else (max(sizes) > 1 and len(sizes) > 2)
    for a, b in zip(whole[0], chunked[0]):
        assert np.array_equal(a, b)
    assert whole[1] == chunked[1]


def test_fit_enumerates_a_T5_panel_once(monkeypatch):
    rng = np.random.default_rng(151)
    x = rng.standard_normal((200, 5, 2))
    y = (x @ np.array([1.0, -0.5]) + rng.logistic(size=(200, 5)) > 0).astype(np.int8)
    data = PanelDataset.from_arrays(x, y)
    calls = []

    def counted(panel):
        calls.append(panel)
        return attribute_batches(panel)

    monkeypatch.setattr(estimator, "attribute_batches", counted)
    result = fit(data)
    assert result.converged and result.iterations > 2
    assert len(calls) == 1 and calls[0] is data


def test_panels_with_the_same_covariates_keep_their_own_layouts():
    first = _logit_panel(157)
    rng = np.random.default_rng(157)
    y = (rng.random((100, 4)) < 0.5).astype(np.int8)
    second = PanelDataset.from_arrays(first.covariates, y)
    assert fit(first).converged
    beta = rng.standard_normal(2)
    x = first.covariates
    expected = sum(y[i] @ x[i] @ beta - enum_log_denominator(x[i], y[i], beta)
                   for i in range(100) if 0 < y[i].sum() < 4)
    assert conditional_loglik(second, beta) == pytest.approx(expected, rel=1e-12)


def test_layout_is_freed_with_its_panel(monkeypatch):
    layouts = weakref.WeakKeyDictionary()
    monkeypatch.setattr(estimator, "_LAYOUTS", layouts)
    data = _logit_panel(163)
    conditional_loglik(data, [0.3, -0.2])
    assert len(layouts) == 1
    del data
    gc.collect()
    assert len(layouts) == 0


def test_fit_converges_on_a_T40_k20_panel():
    # C(40, 20) ~ 1.4e11 alternative sequences per individual
    rng = np.random.default_rng(149)
    x = rng.standard_normal((6, 40, 2))
    y = np.zeros((6, 40), dtype=np.int8)
    for row in y:
        row[rng.permutation(40)[:20]] = 1
    data = PanelDataset.from_arrays(x, y)
    result = fit(data)
    assert result.gate.status == STATUS_EXISTS
    assert result.converged
    assert result.gradient_norm <= 1e-8
    assert result.iterations < 20
    _, hessian = conditional_score_and_hessian(data, result.beta_hat)
    fd = central_diff_jacobian(
        lambda b: conditional_score_and_hessian(data, b)[0], result.beta_hat
    )
    assert np.abs(hessian - fd).max() / np.abs(fd).max() < 1e-6


@pytest.mark.parametrize("options", [
    {"tol": float("inf")}, {"tol": float("nan")}, {"tol": 0.0}, {"tol": -1e-8},
    {"max_iter": -1}, {"max_iter": 2.5}, {"max_iter": True}, {"tol": 1.0},
])
@pytest.mark.parametrize("call", [fit, detect_panel_separation, detect_pooled_separation])
def test_api_rejects_invalid_tol_or_max_iter(fixture_panel, call, options):
    # fit(..., tol=inf) used to pass the separated panel as existing and
    # return a "converged" beta_hat of 270.93
    name = next(iter(options))
    with pytest.raises(ValueError, match=f"^{name} must be "):
        call(fixture_panel, **options)
