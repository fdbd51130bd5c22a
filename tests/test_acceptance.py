"""Acceptance suite: one test per release criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print. Every tolerance is fixed here, not tuned at runtime.
"""

import math

import numpy as np
import pytest

from felogit import (
    NonexistenceError,
    PanelDataset,
    STATUS_EXISTS,
    STATUS_SEPARATED,
    SimConfig,
    conditional_loglik,
    conditional_score_and_hessian,
    detect_panel_separation,
    detect_pooled_separation,
    existence_rate,
    fit,
    generate_panel,
    informative_subset,
    qp_problem_from_panel,
    qp_problem_from_pooled,
)
from felogit import _kernels
from felogit.cli import main as cli_main

from oracles import (
    central_diff_gradient,
    central_diff_jacobian,
    enum_log_denominator,
    enum_softmax_covariance,
    random_panel,
    sign_oracle_p1,
)


def _report(num: int, description: str, ok: bool, detail: str = ""):
    suffix = f" -- {detail}" if detail else ""
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {description}{suffix}"
    print(line)
    assert ok, line


def _cli(*args) -> int:
    try:
        return cli_main(list(args))
    except SystemExit as exc:
        return exc.code


def _panel(x_rows, y_rows):
    x = np.asarray(x_rows, dtype=float)[:, :, None]
    return PanelDataset.from_arrays(x, np.asarray(y_rows))


def test_criterion_01_bundled_panel_nonexistence(fixture_path, fixture_panel, capsys):
    report = detect_panel_separation(fixture_panel)
    refused = False
    try:
        fit(fixture_panel)
    except NonexistenceError as err:
        refused = err.report.status == STATUS_SEPARATED
    check_code = _cli("check", str(fixture_path))
    fit_code = _cli("fit", str(fixture_path))
    capsys.readouterr()
    ok = (
        report.status == STATUS_SEPARATED
        and report.qp_min > 1e-6
        and refused
        and check_code == 2
        and fit_code == 2
    )
    with capsys.disabled():
        _report(1, "bundled panel: separation detected and fit refused", ok,
                f"qp_min={report.qp_min:.3g}, exit codes {check_code}/{fit_code}")


def test_criterion_02_bundled_panel_pooled_separation(fixture_path, fixture_panel, capsys):
    report = detect_pooled_separation(fixture_panel)
    code = _cli("pooled-check", str(fixture_path))
    capsys.readouterr()
    ok = report.status == STATUS_SEPARATED and code == 2 and report.direction[1] > 0
    with capsys.disabled():
        _report(2, "bundled panel: pooled check flags separation", ok,
                f"direction={np.array2string(report.direction, precision=4)}")


def test_criterion_03_closed_form_estimates(capsys):
    pair = _panel([[0.0, 1.0], [1.0, 0.0]], [[0, 1], [0, 1]])
    triple = _panel([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]], [[0, 1], [0, 1], [0, 1]])
    fit_pair = fit(pair)
    fit_triple = fit(triple)
    err_pair = abs(fit_pair.beta_hat[0])
    err_triple = abs(fit_triple.beta_hat[0] - math.log(0.5))
    ok = err_pair <= 1e-8 and err_triple <= 1e-8
    with capsys.disabled():
        _report(3, "closed-form estimates beta=0 and beta=log(1/2) within 1e-8", ok,
                f"errors {err_pair:.2e}, {err_triple:.2e}")


def test_criterion_04_derivatives_match_finite_differences(capsys):
    rng = np.random.default_rng(404)
    worst_score = 0.0
    worst_hessian = 0.0
    for _ in range(100):
        data = random_panel(rng, n_max=20, T_max=5, p_max=3)
        beta = 0.5 * rng.standard_normal(data.p)
        score, hessian = conditional_score_and_hessian(data, beta)
        fd_score = central_diff_gradient(lambda b: conditional_loglik(data, b), beta)
        rel = np.abs(score - fd_score).max() / max(1.0, np.abs(fd_score).max())
        worst_score = max(worst_score, rel)
        fd_hess = central_diff_jacobian(
            lambda b: conditional_score_and_hessian(data, b)[0], beta
        )
        fd_hess = 0.5 * (fd_hess + fd_hess.T)
        rel = np.abs(hessian - fd_hess).max() / max(1.0, np.abs(fd_hess).max())
        worst_hessian = max(worst_hessian, rel)
    ok = worst_score < 1e-6 and worst_hessian < 1e-5
    with capsys.disabled():
        _report(4, "score and Hessian match finite differences on 100 panels", ok,
                f"worst rel err score {worst_score:.2e}, hessian {worst_hessian:.2e}")


def test_criterion_05_recursion_equals_enumeration(capsys):
    # every draw counts, k = 0 and k = T included: the recursion serves
    # those rows itself
    rng = np.random.default_rng(405)
    worst_log, worst_mean, worst_cov = 0.0, 0.0, 0.0
    ends = 0
    for _ in range(100):
        T = int(rng.integers(2, 13))
        p = int(rng.integers(1, 4))
        x = rng.standard_normal((T, p))
        y = (rng.random(T) < 0.5).astype(np.int8)
        beta = rng.standard_normal(p)
        k = int(y.sum())
        ends += k in (0, T)
        logden, mean, cov = _kernels.logdenom_batch(
            (x @ beta)[None], x[None], np.array([k]), order=2
        )
        worst_log = max(worst_log, abs(logden[0] - enum_log_denominator(x, y, beta)))
        slope = central_diff_gradient(lambda b: enum_log_denominator(x, y, b), beta)
        worst_mean = max(worst_mean, np.abs(mean[0] - slope).max() / max(1.0, np.abs(slope).max()))
        expected = enum_softmax_covariance(x, y, beta)
        worst_cov = max(worst_cov, np.abs(cov[0] - expected).max() / max(1.0, np.abs(expected).max()))
    ok = worst_log < 1e-12 and worst_mean < 1e-6 and worst_cov < 1e-10
    with capsys.disabled():
        _report(5, "recursion equals enumeration on 100 individuals", ok,
                f"worst err log D {worst_log:.2e}, mean {worst_mean:.2e}, "
                f"cov {worst_cov:.2e}; {ends} with k in {{0, T}}")


def test_criterion_06_detector_matches_sign_oracle(capsys):
    rng = np.random.default_rng(406)
    mismatches = 0
    separated = 0
    for _ in range(1000):
        data = random_panel(rng, p=1, n_max=6, T_max=4)
        report = detect_panel_separation(data)
        oracle = sign_oracle_p1(data)
        if (report.status == STATUS_SEPARATED) != oracle:
            mismatches += 1
        if report.status == STATUS_SEPARATED:
            separated += 1
    ok = mismatches == 0
    with capsys.disabled():
        _report(6, "QP decision equals the sign oracle on 1000 scalar panels", ok,
                f"mismatches {mismatches}, separated cases {separated}")


def test_criterion_07_invariance_suite(capsys):
    rng = np.random.default_rng(407)
    failures = []

    # translation invariance of the log-likelihood (50 instances)
    for _ in range(50):
        data = random_panel(rng)
        shifts = rng.standard_normal((data.n, 1, data.p))
        beta = rng.standard_normal(data.p)
        a = conditional_loglik(data, beta)
        b = conditional_loglik(
            PanelDataset.from_arrays(data.covariates + shifts, data.outcomes), beta
        )
        if abs(a - b) > 1e-10 * max(1.0, abs(a)):
            failures.append("translation")
            break

    # scale equivariance of the estimate (50 fitted instances)
    fitted = 0
    while fitted < 50:
        data = random_panel(rng, n_max=15, T_max=4)
        try:
            base = fit(data)
        except NonexistenceError:
            continue
        fitted += 1
        c = float(rng.uniform(0.5, 4.0))
        scaled = fit(PanelDataset.from_arrays(c * data.covariates, data.outcomes))
        if np.abs(scaled.beta_hat - base.beta_hat / c).max() > 1e-8:
            failures.append("scale-equivariance")
            break

    # period exchangeability of the log-likelihood (50 instances)
    for _ in range(50):
        data = random_panel(rng)
        perm = rng.permutation(data.T)
        beta = rng.standard_normal(data.p)
        a = conditional_loglik(data, beta)
        b = conditional_loglik(
            PanelDataset.from_arrays(data.covariates[:, perm, :], data.outcomes[:, perm]),
            beta,
        )
        if abs(a - b) > 1e-10 * max(1.0, abs(a)):
            failures.append("exchangeability")
            break

    # detector scale invariance (50 instances)
    for _ in range(50):
        data = random_panel(rng, n_max=8, T_max=4)
        c = float(rng.uniform(0.2, 5.0))
        a = detect_panel_separation(data)
        b = detect_panel_separation(
            PanelDataset.from_arrays(c * data.covariates, data.outcomes)
        )
        if a.status != b.status:
            failures.append("detector-scale")
            break

    # insensitivity to non-informative individuals (50 instances)
    for _ in range(50):
        data = random_panel(rng, n_max=6, T_max=4)
        extra_x = rng.standard_normal((2, data.T, data.p))
        extra_y = np.vstack([np.zeros(data.T, dtype=int), np.ones(data.T, dtype=int)])
        padded = PanelDataset.from_arrays(
            np.concatenate([data.covariates, extra_x]),
            np.concatenate([data.outcomes, extra_y]),
        )
        a = detect_panel_separation(data)
        b = detect_panel_separation(padded)
        if a.status != b.status or a.qp_min != b.qp_min:
            failures.append("noninformative-padding")
            break

    ok = not failures
    with capsys.disabled():
        _report(7, "invariance suite (5 families x 50 instances)", ok,
                "all held" if ok else f"failed: {failures}")


def test_criterion_08_concavity(capsys):
    rng = np.random.default_rng(408)
    worst = -np.inf
    for _ in range(100):
        data = random_panel(rng)
        beta = rng.standard_normal(data.p)
        _, hessian = conditional_score_and_hessian(data, beta)
        scale = max(1.0, float(np.abs(hessian).max()))
        worst = max(worst, float(np.linalg.eigvalsh(hessian).max()) / scale)
    ok = worst <= 1e-10
    with capsys.disabled():
        _report(8, "Hessian negative semidefinite at 100 random points", ok,
                f"worst scaled top eigenvalue {worst:.2e}")


def test_criterion_09_kkt_certificates(fixture_panel, capsys):
    rng = np.random.default_rng(409)
    margins = []
    count = 0
    for _ in range(300):
        data = random_panel(rng, p=1, n_max=5, T_max=4)
        report = detect_panel_separation(data)
        if report.status != STATUS_SEPARATED:
            continue
        count += 1
        problem = qp_problem_from_panel(data)
        margins.append(float((problem.normalized @ report.direction).min()))
    panel_report = detect_panel_separation(fixture_panel)
    margins.append(
        float((qp_problem_from_panel(fixture_panel).normalized @ panel_report.direction).min())
    )
    pooled_report = detect_pooled_separation(fixture_panel)
    margins.append(
        float((qp_problem_from_pooled(fixture_panel).normalized @ pooled_report.direction).min())
    )
    worst = min(margins)
    ok = worst >= -1e-6 and count > 30
    with capsys.disabled():
        _report(9, "every separated report carries a valid KKT certificate", ok,
                f"{count + 2} reports, worst margin {worst:.2e}")


def test_criterion_10_consistency_spot_check(capsys):
    config = SimConfig(n=2000, T=3, p=1, beta0=np.array([1.0]),
                       effect_scale=1.0, seed=2024)
    result = fit(generate_panel(config, rep=0))
    err = abs(result.beta_hat[0] - 1.0)
    ok = err <= 0.2 and result.converged
    with capsys.disabled():
        _report(10, "simulated n=2000 estimate within 0.2 of the truth", ok,
                f"beta_hat={result.beta_hat[0]:.4f}")


def test_criterion_11_existence_fraction_increases_with_n(capsys):
    fractions = []
    for n in (2, 10, 50, 200):
        config = SimConfig(n=n, T=3, p=1, beta0=np.array([1.0]),
                           effect_scale=1.0, replications=500, seed=424242)
        fractions.append(existence_rate(config).panel.exists_fraction)
    ok = all(b >= a for a, b in zip(fractions, fractions[1:]))
    with capsys.disabled():
        _report(11, "existence fraction weakly increasing in n", ok,
                "fractions " + ", ".join(f"{f:.3f}" for f in fractions))
