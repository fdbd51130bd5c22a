import dataclasses
import functools
import gc
import math
import weakref

import numpy as np
import pytest

import felogit.estimator as estimator
from felogit import (
    NonexistenceError,
    PanelDataError,
    PanelDataset,
    STATUS_EXISTS,
    STATUS_RANK_DEFICIENT,
    STATUS_SEPARATED,
    conditional_loglik,
    conditional_score_and_hessian,
    detect_panel_separation,
    detect_pooled_separation,
    existence_rate,
    fit,
    informative_subset,
    load_csv,
    separated_panel_path,
)
from felogit import _kernels, altsets
from felogit.altsets import _alternatives, attribute_batches, observed_row_index

from oracles import (
    central_diff_gradient,
    central_diff_jacobian,
    enum_log_denominator,
    enum_softmax_covariance,
    enum_softmax_mean,
    every_total_panel,
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


@pytest.mark.parametrize("status", [STATUS_EXISTS, STATUS_SEPARATED, STATUS_RANK_DEFICIENT])
def test_spurious_is_set_exactly_when_the_gate_fails(fixture_panel, status):
    data = {
        STATUS_EXISTS: TRIPLE,
        STATUS_SEPARATED: fixture_panel,
        # x1 never changes within an individual
        STATUS_RANK_DEFICIENT: _panel([[0.7, 0.7], [2.7, 2.7]], [[0, 1], [1, 0]]),
    }[status]
    result = fit(data, force=True)
    assert result.gate.status == status
    assert result.spurious is (result.gate.status != "exists_unique")
    assert result.spurious is not result.converged


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


def test_a_ridged_standard_error_solve_is_named_on_an_unforced_fit(monkeypatch):
    note = "observed information was singular, standard errors are ridged"
    ridges = []
    solve = estimator._solve_spd

    def singular(matrix):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    def recorded(neg_hessian, rhs, fail=False):
        with monkeypatch.context() as patched:
            if fail and rhs.ndim == 2:  # the standard-error solve
                patched.setattr(np.linalg, "cholesky", singular)
            delta, ridge = solve(neg_hessian, rhs)
        ridges.append(ridge)
        return delta, ridge

    monkeypatch.setattr(estimator, "_solve_spd", functools.partial(recorded, fail=True))
    result = fit(_logit_panel(32))
    assert result.gate.status == STATUS_EXISTS and not result.spurious and result.converged
    assert ridges[-1] > 0.0 and not any(ridges[:-1])
    assert result.diagnostic == note
    # x2 = x1 + 1e-10 noise passes the rank test, but whether the Cholesky
    # factorization at the estimate fails follows the last bits of np.exp;
    # either way the note is there exactly when the solve was ridged
    rng = np.random.default_rng(1)
    x1 = rng.standard_normal((400, 4))
    x2 = x1 + 1e-10 * rng.standard_normal((400, 4))
    y = (x1 - 0.5 * x2 + rng.logistic(size=(400, 4)) > 0).astype(np.int8)
    data = PanelDataset.from_arrays(np.stack([x1, x2], axis=2), y)
    monkeypatch.setattr(estimator, "_solve_spd", recorded)
    ridges.clear()
    result = fit(data)
    assert result.gate.status == STATUS_EXISTS and not result.spurious
    assert result.diagnostic == (note if ridges[-1] > 0.0 else None)
    ridges.clear()
    assert fit(_logit_panel(32)).diagnostic is None
    assert not any(ridges)


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


# an n=3, T=8 panel on which the second full Newton step overshoots: the
# line search halves it twice, to 0.25. All three rows are recursed, and the
# one with k = 5 as its complement (-x, 1 - y, 3).
BACKTRACK_X = [[-0.001, -1.084, -0.749, 0.001, 0.004, 13.028, -0.722, -0.038],
               [0.001, 0.105, -0.039, -0.026, -0.004, 0.101, 0.125, -0.261],
               [0.002, 0.043, -0.389, -1.01, -0.811, -1.203, -0.643, 0.11]]
BACKTRACK_Y = [[0, 0, 0, 0, 0, 1, 0, 0], [0, 1, 1, 0, 1, 0, 1, 1], [0, 0, 0, 0, 0, 1, 0, 0]]
# the maximizer of the enumerated log-likelihood of these float64 covariates,
# from damped Newton in 40-digit arithmetic (mpmath, offline), rounded to float64
BACKTRACK_BETA = 0.34410460929054765


def test_newton_backtracks_to_the_enumerated_maximizer():
    data = _panel(BACKTRACK_X, BACKTRACK_Y)
    assert estimator._layout(data).totals.tolist() == [1, 3, 1]
    result = fit(data)
    assert result.gate.status == STATUS_EXISTS and result.converged
    assert result.beta_hat[0] == pytest.approx(BACKTRACK_BETA, rel=1e-12)
    assert [s.step_size for s in result.trace] == [1.0, 0.25, 1.0, 1.0, 1.0, 0.0]
    x, y = np.asarray(BACKTRACK_X)[:, :, None], np.asarray(BACKTRACK_Y)

    def loglik(beta):
        return sum(y[i] @ x[i] @ beta - enum_log_denominator(x[i], y[i], beta) for i in range(3))

    assert abs(central_diff_gradient(loglik, result.beta_hat)[0]) <= 1e-6


# an n=2, T=8 panel, both rows recursed, on which late full Newton steps
# fall about 5e-15 short of the Armijo bound, inside the round-off of
# loglik (16 ulp of max(1, |loglik|), 7.7e-15): without that slack the line
# search cut them to 0.0625 and 0.125, at 21 evaluations in 13 iterations.
# Both line searches, and numpy's exp with or without its AVX-512 loops,
# stop within 2e-13 relative of ROUNDOFF_BETA, where the score is below 1e-8
ROUNDOFF_X = [[-36.97, 9.73, -6.745, 0.8, -20.374, -5.243, -69.562, -4.739],
              [-0.556, 0.249, -0.236, -0.625, -0.001, -0.374, -0.423, -0.066]]
ROUNDOFF_Y = [[0, 1, 1, 1, 0, 1, 0, 1], [1, 1, 1, 1, 1, 1, 1, 0]]
ROUNDOFF_BETA = 0.3645230866437911


def test_newton_accepts_full_steps_that_fall_short_by_roundoff(monkeypatch):
    data = _panel(ROUNDOFF_X, ROUNDOFF_Y)
    evaluations = []
    evaluate = estimator._evaluate

    def counted(data, beta, order):
        evaluations.append(order)
        return evaluate(data, beta, order)

    monkeypatch.setattr(estimator, "_evaluate", counted)
    result = fit(data)
    assert result.gate.status == STATUS_EXISTS and result.converged
    assert [s.step_size for s in result.trace] == [1.0] * 10 + [0.0]
    assert len(evaluations) == 12
    assert result.beta_hat[0] == pytest.approx(ROUNDOFF_BETA, rel=1e-12)


def test_newton_falls_back_to_steepest_ascent_on_a_descent_step(monkeypatch):
    solve = estimator._solve_spd

    def reversed_step(neg_hessian, rhs):  # the Newton step negated, the covariance kept
        delta, ridge = solve(neg_hessian, rhs)
        return (-delta if rhs.ndim == 1 else delta), ridge

    newton = fit(TRIPLE)
    monkeypatch.setattr(estimator, "_solve_spd", reversed_step)
    result = fit(TRIPLE)
    score, _ = conditional_score_and_hessian(TRIPLE, np.zeros(1))
    # the first step is the full score, and the ascent still reaches log(1/2)
    assert (result.trace[0].step_size, result.trace[0].beta_norm) == (1.0, abs(score[0]))
    assert result.iterations > newton.iterations
    assert result.converged  # a score of at most 1e-8 leaves beta within 2e-8
    assert result.beta_hat[0] == pytest.approx(math.log(0.5), abs=2e-8)


def test_newton_stops_when_the_line_search_stalls(monkeypatch):
    evaluate = estimator._evaluate
    trials = []

    def worse_away_from_zero(data, beta, order):
        value, *rest = evaluate(data, beta, order)
        if not np.any(beta):
            return (value, *rest)
        trials.append(beta.copy())
        return (value - 1.0, *rest)

    monkeypatch.setattr(estimator, "_evaluate", worse_away_from_zero)
    result = fit(TRIPLE)
    # every trial loses: the step halves from 1 to 2**-53, and once more
    # would fall below 1e-16
    assert len(trials) == 54 and np.abs(trials[-1]).max() > 0.0
    assert [(s.iteration, s.step_size, s.beta_norm) for s in result.trace] == [(1, 0.0, 0.0)]
    assert not result.converged
    assert np.array_equal(result.beta_hat, [0.0])
    assert result.loglik == conditional_loglik(TRIPLE, np.zeros(1))


def _long_panel(seed: int) -> PanelDataset:
    """An n=200, T=14, p=3 logit panel: its sets with k in {1, 13} are
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
def test_capped_fit_reports_score_and_errors_at_its_estimate(monkeypatch, max_iter):
    # fit reads its fixed Newton cap at each call
    monkeypatch.setattr(estimator, "DEFAULT_NEWTON_MAX_ITER", max_iter)
    data = _logit_panel(32)
    result = fit(data)
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


def _layout_panel(rng):
    """A small panel mixing the covariates whose differences round or sign
    differently: signed zeros, integers, scales 10^+-300, constant columns."""
    T, p, n = (int(v) for v in rng.integers([2, 1, 1], [16, 6, 7]))
    x = rng.standard_normal((n, T, p)) * 10.0 ** rng.choice([-300, -3, 0, 3, 300], size=p)
    kind = rng.integers(3)
    if kind == 1:
        x = rng.integers(-3, 4, size=(n, T, p)).astype(np.float64)
    elif kind == 2:
        x[rng.random((n, T, p)) < 0.4] = 0.0
        x = np.copysign(x, rng.choice([-1.0, 1.0], size=x.shape))
    const = rng.random(p) < 0.3
    x[:, :, const] = x[:, :1, const]
    y = np.zeros((n, T), dtype=np.int8)
    for row, k in zip(y, rng.choice([1, 2, T - 2, T - 1], size=n)):
        row[rng.permutation(T)[:min(max(k, 1), T - 1)]] = 1
    return PanelDataset.from_arrays(x, y)


def _stored(data: PanelDataset):
    """Covariates, outcomes and totals of each row as the layout stores it:
    (-x, 1 - y, T - k) when 2k > T."""
    flip = 2 * data.choice_totals > data.T
    return (np.where(flip[:, None, None], -data.covariates, data.covariates),
            np.where(flip[:, None], 1 - data.outcomes, data.outcomes),
            np.where(flip, data.T - data.choice_totals, data.choice_totals))


@pytest.mark.parametrize("budget", [1, None])
def test_layout_is_the_period_ordered_sum_of_differences(monkeypatch, budget):
    # the plain definition, on each row as stored (its complement when
    # 2k > T): a_r = sum of x_t - x_1 over the periods r chooses, added in
    # period order, and each alternative's difference a_r - a_obs
    if budget is not None:
        monkeypatch.setattr(_kernels, "_BATCH_CELL_BUDGET", budget)
    rng = np.random.default_rng(163)
    covered = set()
    mixed = False
    for _ in range(100):
        data = _layout_panel(rng)
        T, p = data.T, data.p
        stored_x, stored_y, stored_k = _stored(data)
        for idx, diff in estimator._layout(data).enumerated:
            k, = np.unique(stored_k[idx])  # one stored total per block, at most T / 2
            assert 2 * k <= T and diff.shape[0] == math.comb(T, int(k))
            # within the budget unless it is one row
            assert diff.size <= _kernels._BATCH_CELL_BUDGET or idx.size == 1
            assert diff.shape == (diff.shape[0], p, idx.size) and diff.flags.c_contiguous
            mixed |= np.unique(data.choice_totals[idx]).size > 1
            X = stored_x[idx]
            for j, i in enumerate(idx):
                d = X[j] - X[j, :1]

                def attrs(seq):
                    a = np.zeros(p)
                    for t in np.flatnonzero(seq):
                        a = a + d[t]
                    return a

                observed = attrs(stored_y[i])
                want = np.array([attrs(r) - observed for r in _alternatives(T, int(k))])
                assert np.ascontiguousarray(diff[:, :, j]).tobytes() == want.tobytes()
                obs = observed_row_index(stored_y[i])
                assert diff[obs, :, j].tobytes() == np.zeros(p).tobytes()  # +0.0 exactly
            if p >= 2:  # einsum adds in period order too, except on its p = 1 loop
                ein = np.einsum("rt,itp->irp", _alternatives(T, int(k)), X - X[:, :1])
                ein -= ein[np.arange(idx.size), observed_row_index(stored_y[idx])][:, None]
                assert (np.ascontiguousarray(ein.transpose(1, 2, 0)).tobytes()
                        == np.ascontiguousarray(diff).tobytes())
            covered.add((T > 7, p))
    assert covered >= {(False, p) for p in range(1, 6)} | {(True, p) for p in range(2, 6)}
    # a one-cell budget keeps every row alone; under the default one the rows
    # of totals k and T - k arrive in one block
    assert mixed == (budget is None)


def _evaluations(data: PanelDataset, beta) -> list:
    """The bytes of every value ``_evaluate`` returns at orders 0 and 2."""
    return [np.asarray(v).tobytes()
            for order in (0, 2) for v in estimator._evaluate(data, beta, order)]


@pytest.mark.parametrize("budget", [1, 500, None])
def test_layout_evaluates_the_same_bits_as_one_row_blocks(monkeypatch, budget):
    # every operation on a block is per row or a sum over alternatives taken
    # one at a time, so the bits of value, score and Hessian cannot depend
    # on which rows share a block
    if budget is not None:
        monkeypatch.setattr(_kernels, "_BATCH_CELL_BUDGET", budget)
    monkeypatch.setattr(estimator, "_LAYOUTS", weakref.WeakKeyDictionary())
    rng = np.random.default_rng(167)
    for trial in range(60):
        data = _layout_panel(rng) if trial % 2 else random_panel(rng, T=int(rng.integers(2, 9)),
                                                                   p_max=4, n_max=30)
        layout = estimator._layout(data)
        rows = [(idx[j:j + 1], diff[:, :, j:j + 1].copy())
                for idx, diff in layout.enumerated for j in range(idx.size)]
        betas = [np.zeros(data.p)] + [s * rng.standard_normal(data.p) for s in (0.3, 1.0, 4.0)]
        with np.errstate(over="ignore", invalid="ignore"):  # at 10^300 scales, inf and NaN too
            blocked = [_evaluations(data, b) for b in betas]
            estimator._LAYOUTS[data] = dataclasses.replace(layout, enumerated=rows)
            assert [_evaluations(data, b) for b in betas] == blocked


def test_the_bundled_panel_is_one_enumerated_block():
    # T = 3: rows of total 2 are stored as their complements, of total 1
    data = load_csv(separated_panel_path())
    (idx, diff), = estimator._layout(data).enumerated
    assert diff.shape[0] == 3 and set(data.choice_totals[idx].tolist()) == {1, 2}


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
    # once, on the complemented panel, whose totals are all at most T / 2
    (panel,) = calls
    x, y, k = _stored(data)
    assert panel is not data and (2 * panel.choice_totals <= 5).all()
    assert np.array_equal(panel.covariates, x) and np.array_equal(panel.outcomes, y)
    assert np.array_equal(panel.choice_totals, k)


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


@pytest.mark.parametrize("T", [7, 8, 14])
@pytest.mark.parametrize("p, advantage", [(1, None), (3, 0)])
def test_complemented_rows_match_the_enumeration(monkeypatch, T, p, advantage):
    # rows with 2k > T are recursed as (-x, 1 - y, T - k); with no advantage
    # for enumerating, every total 0 < k < T is recursed
    if advantage is not None:
        monkeypatch.setattr(altsets, "_ENUMERATION_ADVANTAGE", advantage)
    rng = np.random.default_rng(170 + T)
    data = every_total_panel(rng, T, p, signed_zeros=False)
    layout = estimator._layout(data)
    k = data.choice_totals[layout.rest]
    assert (2 * k > T).any() and np.array_equal(layout.totals, np.minimum(k, T - k))
    if advantage == 0:
        assert sorted(set(k.tolist())) == list(range(1, T))
    x, y = data.covariates, data.outcomes
    for beta in (rng.standard_normal(p), 2.0 * rng.standard_normal(p)):
        loglik = sum(y[i] @ x[i] @ beta - enum_log_denominator(x[i], y[i], beta)
                     for i in range(data.n))
        assert conditional_loglik(data, beta) == pytest.approx(loglik, rel=1e-12, abs=1e-12)
        score = sum(y[i] @ x[i] - enum_softmax_mean(x[i], y[i], beta) for i in range(data.n))
        hessian = -sum(enum_softmax_covariance(x[i], y[i], beta) for i in range(data.n))
        got_score, got_hessian = conditional_score_and_hessian(data, beta)
        assert np.abs(got_score - score).max() <= 1e-10 * max(1.0, np.abs(score).max())
        assert np.abs(got_hessian - hessian).max() <= 1e-10 * np.abs(hessian).max()


def test_complemented_rows_match_the_plain_recursion_at_T30():
    # C(30, 15) ~ 1.6e8 sequences: too many to enumerate, so the oracle is
    # the recursion on the rows as observed, all 0 < k < T of them
    rng = np.random.default_rng(171)
    x = rng.standard_normal((60, 30, 2))
    effects = 2.0 * rng.standard_normal(60)
    y = (x @ np.array([1.0, -0.5]) + effects[:, None] + rng.logistic(size=(60, 30)) > 0)
    data = PanelDataset.from_arrays(x, y.astype(np.int8))
    layout = estimator._layout(data)
    assert (2 * data.choice_totals[layout.rest] > 30).any()
    rows = np.flatnonzero(data.informative_mask)
    X, k = x[rows], data.choice_totals[rows]
    observed = np.einsum("it,itp->ip", data.outcomes[rows].astype(np.float64), X)
    for beta in (rng.standard_normal(2), 0.5 * rng.standard_normal(2)):
        logden, mean, cov = _kernels.logdenom_batch(X @ beta, X, k, order=2)
        expected = float((observed @ beta - logden).sum())
        assert conditional_loglik(data, beta) == pytest.approx(expected, rel=1e-12)
        score, hessian = conditional_score_and_hessian(data, beta)
        np.testing.assert_allclose(score, (observed - mean).sum(axis=0), rtol=1e-10, atol=1e-10)
        expected_hessian = -cov.sum(axis=0)
        assert np.abs(hessian - expected_hessian).max() <= 1e-10 * np.abs(expected_hessian).max()

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
    {"max_iter": -1}, {"max_iter": 2.5}, {"max_iter": True}, {"tol": 1e-8}, {"max_iter": 5},
])
@pytest.mark.parametrize("call", [fit, detect_panel_separation, detect_pooled_separation,
                                  existence_rate])
def test_api_rejects_invalid_tol_or_max_iter(fixture_panel, call, options):
    # fit(..., tol=inf) used to pass the separated panel as existing and
    # return a "converged" beta_hat of 270.93; now no call takes a QP
    # tolerance or step cap, nor fit a Newton cap, valid or not (the
    # keyword is rejected before existence_rate reads its argument)
    name = next(iter(options))
    with pytest.raises(TypeError, match=f"unexpected keyword argument '{name}'"):
        call(fixture_panel, **options)


def _sum_overflow_panel(first, outcomes):
    """Individual 1 has covariates ``first`` and every individual the outcomes
    ``outcomes``; the others' covariates are small."""
    T = len(first)
    x = np.array([first, np.sin(np.arange(T)), np.cos(np.arange(T))])[:, :, None]
    return PanelDataset.from_arrays(x, np.array([outcomes] * 3))


_DIFFERENCE = "covariates of individual 1 differ by more than the largest float between two periods"
_OVERFLOWING_LIKELIHOODS = {
    # individual 1's x_2 - x_1 = -2e308 is not a float
    "difference": (
        PanelDataset.from_arrays(np.array([[1e308, -1e308, 0.0], [0.0, 1.0, 2.0],
                                           [1.0, 0.0, 3.0]])[:, :, None],
                                 np.array([[1, 0, 0], [1, 0, 1], [0, 1, 0]])),
        (0.0,), _DIFFERENCE, _DIFFERENCE,
    ),
    # every difference is finite, but 1e308 + 1.5e308 is not: an enumerated
    # (T = 5) set, whose observed sum overflows, and so does an alternative's
    # in its complement
    "enumerated sum": (
        _sum_overflow_panel([0.0, 1e308, 1.5e308, 0.0, 0.0], [0, 1, 1, 0, 0]), (0.0,),
        "the log-likelihood is not finite", "the score or Hessian is not finite",
    ),
    # the same in a recursed (T = 14) set, whose log-likelihood was NaN at
    # beta = 0 and +inf at beta = 1e-300
    "recursed sum": (
        _sum_overflow_panel(np.linspace(0.0, 1.5e308, 14), [1, 0] * 7), (0.0, 1e-300),
        "the log-likelihood is not finite", "the score or Hessian is not finite",
    ),
}


@pytest.mark.parametrize("case", _OVERFLOWING_LIKELIHOODS)
def test_likelihood_rejects_covariate_differences_that_overflow(case):
    # a typed error, never NaN or inf; warnings are errors under pytest
    data, betas, loglik_message, score_message = _OVERFLOWING_LIKELIHOODS[case]
    for beta in betas:
        with pytest.raises(PanelDataError, match=f"^{loglik_message}.*; rescale them$"):
            conditional_loglik(data, [beta])
        with pytest.raises(PanelDataError, match=f"^{score_message}.*; rescale them$"):
            conditional_score_and_hessian(data, [beta])


def test_a_complemented_sum_that_no_longer_overflows():
    # y = (1, 0, 1) is stored as its complement (0, 1, 0) on -x, whose observed
    # sum adds no two large values, so the log-likelihood at beta = 0 is the
    # enumerated -3 log 3; the covariance's squares still overflow
    data = _sum_overflow_panel([0.0, 1e308, 1.5e308], [1, 0, 1])
    assert conditional_loglik(data, [0.0]) == -3.0 * math.log(3.0) == -3.295836866004329
    with pytest.raises(PanelDataError, match="^the score or Hessian is not finite.*; rescale them$"):
        conditional_score_and_hessian(data, [0.0])


def test_an_overflowing_noninformative_individual_is_ignored():
    # individual 1 never chooses, so its overflowing differences enter nothing
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 4, 1))
    y = (x[..., 0] + rng.standard_normal(40)[:, None] + rng.logistic(size=(40, 4)) > 0)
    x[0, :, 0] = (1e308, -1e308, 0.0, 5.0)
    y[0] = False
    data = PanelDataset.from_arrays(x, y.astype(int))
    assert fit(data).converged
    assert math.isfinite(conditional_loglik(data, [0.3]))
