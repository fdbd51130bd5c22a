import numpy as np
import pytest

from felogit import (
    PanelDataError,
    PanelDataset,
    QpConvergenceError,
    QpProblem,
    SimConfig,
    STATUS_EXISTS,
    STATUS_RANK_DEFICIENT,
    STATUS_SEPARATED,
    detect_panel_separation,
    detect_pooled_separation,
    fit,
    generate_panel,
    informative_subset,
    qp_problem_from_panel,
    qp_problem_from_pooled,
    rank_check,
)
from felogit import _kernels, detector
from felogit.detector import DEFAULT_KKT_TOL, DEFAULT_QP_MAX_ITER, DEFAULT_QP_TOL, _dedup_nonzero

from oracles import (
    dedup_reference,
    enum_centered_attributes,
    enum_differences,
    every_total_panel,
    integer_panel,
    lp_verdict,
    pooled_lp_verdict,
    pooled_separable_grid,
    qp_reference,
    random_panel,
    sign_oracle_p1,
    swaps_reference,
)


def _panel(x_rows, y_rows):
    x = np.asarray(x_rows, dtype=float)[:, :, None]
    return PanelDataset.from_arrays(x, np.asarray(y_rows))


SYMMETRIC_PAIR = _panel([[0.0, 1.0], [1.0, 0.0]], [[0, 1], [0, 1]])
SINGLE = _panel([[0.0, 1.0]], [[0, 1]])


def test_fixture_is_separated(fixture_panel):
    report = detect_panel_separation(fixture_panel)
    assert report.status == STATUS_SEPARATED
    assert report.qp_min > 1e-6
    assert report.direction.tolist() == [-1.0]
    assert report.dropped_noninformative == 3
    assert report.rank.rank_ok is True
    # every difference vector is weakly negative, some strictly
    values = enum_differences(fixture_panel)[:, 0]
    assert (values <= 0.0).all() and (values < 0.0).any()


def test_symmetric_pair_exists():
    problem = qp_problem_from_panel(SYMMETRIC_PAIR)
    assert sorted(problem.vectors[:, 0].tolist()) == [-1.0, 1.0]
    report = detect_panel_separation(SYMMETRIC_PAIR)
    assert report.status == STATUS_EXISTS
    assert report.qp_min <= 1e-8
    assert report.direction is None


def test_single_constraint_is_separated():
    report = detect_panel_separation(SINGLE)
    assert report.status == STATUS_SEPARATED
    assert report.qp_min == pytest.approx(1.0)
    assert report.direction[0] == pytest.approx(-1.0)
    assert report.kkt_margin >= -1e-6


def test_constant_covariates_are_rank_deficient():
    data = _panel([[0.7, 0.7, 0.7], [0.2, 0.2, 0.2]], [[0, 1, 0], [1, 0, 1]])
    report = detect_panel_separation(data)
    assert report.status == STATUS_RANK_DEFICIENT
    # no swap is nonzero, so the QP has no row: its minimum is 0 after no step
    assert (report.qp_min, report.iterations, report.n_constraints) == (0.0, 0, 0)
    assert report.direction is None and report.kkt_margin is None
    assert report.message == "covariates vary within individuals in only 0 of 1 directions"
    result = rank_check(data)
    assert not result.rank_ok
    assert all(pr.rank == 0 for pr in result.probes)


def test_separated_rank_deficient_panel_keeps_its_direction():
    # x2 never changes within an individual; x1 rises as y goes from 0 to 1
    x = np.array([[[0.0, 1.0], [1.0, 1.0]], [[0.0, 3.0], [2.0, 3.0]]])
    report = detect_panel_separation(PanelDataset.from_arrays(x, np.array([[0, 1], [0, 1]])))
    assert report.status == STATUS_RANK_DEFICIENT
    assert report.message == "covariates vary within individuals in only 1 of 2 directions"
    # the swaps (-1, 0) and (-2, 0) have the same unit row, so q = |2 (-1, 0)|^2
    assert (report.qp_min, report.n_constraints) == (4.0, 2)
    assert report.direction.tolist() == [-1.0, 0.0]
    assert report.kkt_margin == 1.0


def test_rank_of_fixture_via_independent_svd(fixture_panel):
    # at beta = 0 the weights are uniform, so rows are attrs minus their mean
    singulars = np.linalg.svd(enum_centered_attributes(fixture_panel), compute_uv=False)
    assert singulars[0] > 1e-6  # rank 1 for p = 1
    result = rank_check(fixture_panel)
    assert result.rank_ok and result.probes[0].rank == 1


def test_rank_rows_for_two_period_individual():
    result = rank_check(SINGLE)
    sv = result.probes[0].singular_values
    # the one difference row is x_2 - x_1 = 1, so the only singular value is 1
    assert sv.tolist() == [1.0]
    assert result.probes[0].rank == 1


def test_pooled_fixture_separated(fixture_panel):
    report = detect_pooled_separation(fixture_panel)
    assert report.status == STATUS_SEPARATED
    assert report.qp_min > 1e-6
    assert report.direction[1] > 0.0  # outcomes rise with the covariate
    assert report.kkt_margin >= -1e-6
    assert report.message is None


def test_pooled_xor_exists():
    data = _panel([[0.0, 1.0], [0.0, 1.0]], [[0, 1], [1, 0]])
    xs = data.covariates.reshape(-1)
    ys = data.outcomes.reshape(-1)
    assert not pooled_separable_grid(xs, ys)
    report = detect_pooled_separation(data)
    assert report.status == STATUS_EXISTS


def test_pooled_two_point_separated():
    data = _panel([[0.0, 1.0]], [[0, 1]])
    assert pooled_separable_grid([0.0, 1.0], [0, 1])
    report = detect_pooled_separation(data)
    assert report.status == STATUS_SEPARATED


def test_pooled_single_class_degenerate():
    data = _panel([[0.3, 0.9]], [[1, 1]])
    report = detect_pooled_separation(data)
    assert report.status == STATUS_SEPARATED
    assert report.message == "degenerate: one outcome class"
    assert report.kkt_margin >= -1e-6


def test_scale_invariance_power_of_two_is_exact():
    rng = np.random.default_rng(41)
    for _ in range(10):
        data = random_panel(rng, n_max=8, T_max=4)
        base = detect_panel_separation(data)
        scaled = PanelDataset.from_arrays(4.0 * data.covariates, data.outcomes)
        other = detect_panel_separation(scaled)
        assert other.status == base.status
        if base.qp_min is not None:
            assert other.qp_min == base.qp_min


@pytest.mark.parametrize("exponent", [600, -600])
def test_extreme_power_of_two_scale_leaves_the_report_unchanged(fixture_panel, exponent):
    # |x| beyond 1e154 (or below 1e-154) squares out of range inside a norm
    base = detect_panel_separation(fixture_panel)
    scaled = PanelDataset.from_arrays(
        np.ldexp(fixture_panel.covariates, exponent), fixture_panel.outcomes)
    other = detect_panel_separation(scaled)
    assert other.status == base.status == STATUS_SEPARATED
    assert other.qp_min == base.qp_min
    assert np.array_equal(other.direction, base.direction)
    assert other.kkt_margin == base.kkt_margin
    assert other.n_constraints == base.n_constraints


@pytest.mark.parametrize("x_rows, y_rows", [
    # x_2 - x_1 = -2e308 is not a float: the rank test's differences overflow
    ([[0.0, 1.0, 2.0], [1e308, -1e308, 0.0], [1.0, 0.0, 3.0]],
     [[1, 0, 1], [1, 0, 0], [0, 1, 0]]),
    # x_t - x_1 stays finite, but the swap x_2 - x_3 = 2e308 does not
    ([[0.0, 1.0, 2.0], [0.0, 1e308, -1e308], [1.0, 0.0, 3.0]],
     [[1, 0, 1], [1, 0, 1], [0, 1, 0]]),
])
def test_overflowing_differences_raise_a_panel_error_naming_the_individual(x_rows, y_rows):
    data = PanelDataset.from_arrays(np.asarray(x_rows)[:, :, None], np.asarray(y_rows),
                                    ids=np.array([4, 7, 9]))
    message = ("covariates of individual 7 differ by more than the largest float"
               " between two periods; rescale them")
    with pytest.raises(PanelDataError, match=message):
        detect_panel_separation(data)
    with pytest.raises(PanelDataError, match=message):
        fit(data, force=True)
    # the pooled rows are the covariates themselves, so nothing overflows there
    assert detect_pooled_separation(data).status in (STATUS_EXISTS, STATUS_SEPARATED)


def test_differences_near_the_float_maximum_are_still_decided():
    # sigma_max = 2^1023 is past the guard's 2^1022, but no difference
    # overflows, and the normalized swaps are those of the unit-scale panel
    huge = detect_panel_separation(_panel([[0.0, 2.0 ** 1023], [1.0, 0.0]], [[0, 1], [0, 1]]))
    unit = detect_panel_separation(SYMMETRIC_PAIR)
    assert huge.status == unit.status == STATUS_EXISTS
    assert huge.qp_min == unit.qp_min
    assert huge.rank.probes[0].singular_values[0] == 2.0 ** 1023


def test_scale_invariance_generic_factor():
    rng = np.random.default_rng(43)
    for _ in range(10):
        data = random_panel(rng, n_max=8, T_max=4)
        base = detect_panel_separation(data)
        scaled = PanelDataset.from_arrays(2.7 * data.covariates, data.outcomes)
        other = detect_panel_separation(scaled)
        assert other.status == base.status


def test_noninformative_individuals_do_not_change_report():
    rng = np.random.default_rng(47)
    for _ in range(10):
        data = random_panel(rng, n_max=6, T_max=4)
        base = detect_panel_separation(data)
        extra_x = rng.standard_normal((2, data.T, data.p))
        extra_y = np.vstack([np.zeros(data.T, dtype=int), np.ones(data.T, dtype=int)])
        padded = PanelDataset.from_arrays(
            np.concatenate([data.covariates, extra_x]),
            np.concatenate([data.outcomes, extra_y]),
        )
        other = detect_panel_separation(padded)
        assert other.dropped_noninformative == base.dropped_noninformative + 2
        assert other.status == base.status
        assert other.qp_min == base.qp_min
        assert other.n_constraints == base.n_constraints
        if base.direction is None:
            assert other.direction is None
        else:
            assert np.array_equal(other.direction, base.direction)
        # a copy of an informative individual repeats its swap vectors, which
        # span the same cone but carry weights of their own in the QP
        i = int(np.flatnonzero(data.informative_mask)[0])
        copied = PanelDataset.from_arrays(
            np.concatenate([data.covariates, data.covariates[i:i + 1]]),
            np.concatenate([data.outcomes, data.outcomes[i:i + 1]]),
        )
        assert detect_panel_separation(copied).status == base.status


def test_sign_oracle_agreement_scalar_covariate():
    rng = np.random.default_rng(53)
    mismatches = 0
    for _ in range(200):
        data = random_panel(rng, p=1, n_max=6, T_max=4)
        report = detect_panel_separation(data)
        oracle_separated = sign_oracle_p1(data)
        if (report.status == STATUS_SEPARATED) != oracle_separated:
            mismatches += 1
    assert mismatches == 0


def test_kkt_certificate_on_separated_reports():
    rng = np.random.default_rng(59)
    seen = 0
    for _ in range(150):
        data = random_panel(rng, p=1, n_max=4, T_max=3)
        report = detect_panel_separation(data)
        if report.status != STATUS_SEPARATED:
            continue
        seen += 1
        problem = qp_problem_from_panel(data)
        assert (problem.normalized @ report.direction).min() >= -1e-6
    assert seen > 20


def test_feasible_rescaling_keeps_zero_minimum():
    # when lam >= 1 kills the raw vectors, the normalized solve must reach
    # zero too: positive row rescaling only rescales the multipliers
    rng = np.random.default_rng(61)
    for _ in range(20):
        m, p = int(rng.integers(2, 12)), int(rng.integers(1, 4))
        w = rng.standard_normal((m, p))
        lam0 = 1.0 + rng.random(m)
        last = -(lam0[:-1, None] * w[:-1]).sum(axis=0) / lam0[-1]
        vectors = np.vstack([w[:-1], last])
        if (np.linalg.norm(vectors, axis=1) == 0).any():
            continue
        problem = _dedup_nonzero(vectors)
        _, q, _, _, flag, _ = _kernels.qp_minimize(problem.normalized, 1e-8, 1e-6, 100_000)
        assert flag == _kernels.QP_ZERO
        assert q <= 1e-8


def test_reports_are_deterministic(fixture_panel):
    a = detect_panel_separation(fixture_panel)
    b = detect_panel_separation(fixture_panel)
    assert a.status == b.status
    assert a.qp_min == b.qp_min
    assert a.iterations == b.iterations
    assert np.array_equal(a.direction, b.direction)
    for pa, pb in zip(a.rank.probes, b.rank.probes):
        assert np.array_equal(pa.singular_values, pb.singular_values)


def test_qp_iteration_cap_raises():
    # swaps x_2 - x_1 = (2, 0), (0, 1), (-3, -4): lam = (1, 4/3, 5/3) on the
    # unit rows cancels them, which takes two active-set steps
    data = PanelDataset.from_arrays(
        np.array([[[-2.0, 0.0], [0.0, 0.0]],
                  [[0.0, -1.0], [0.0, 0.0]],
                  [[3.0, 4.0], [0.0, 0.0]]]),
        np.array([[1, 0], [1, 0], [1, 0]]),
    )
    assert detect_panel_separation(data).status == STATUS_EXISTS
    with pytest.raises(QpConvergenceError, match="raise iteration cap") as info:
        detect_panel_separation(data, max_iter=1)
    assert info.value.flag == _kernels.QP_MAXITER
    assert info.value.iterations == 1


def test_pooled_problem_shape(fixture_panel):
    problem = qp_problem_from_pooled(fixture_panel)
    assert problem.p == 2
    assert problem.size <= 30
    norms = np.linalg.norm(problem.normalized, axis=1)
    assert np.allclose(norms, 1.0)


def test_long_panel_with_rare_events():
    # T = 100 with one-hot outcomes: alternative sets have 100 members each,
    # well under the 10**6 enumeration cap, and row indexing must not overflow
    rng = np.random.default_rng(67)
    x = rng.standard_normal((3, 100, 1))
    y = np.zeros((3, 100), dtype=int)
    for i in range(3):
        y[i, rng.integers(0, 100)] = 1
    data = PanelDataset.from_arrays(x, y)
    report = detect_panel_separation(data)
    assert report.status in (STATUS_EXISTS, STATUS_SEPARATED)
    assert report.n_constraints > 0


def _enumerated_verdict(data):
    """Verdict and rank from every enumerated alternative (the swap-free path)."""
    rank = int(np.linalg.matrix_rank(enum_centered_attributes(data)))
    rows = enum_differences(data)
    rows = np.unique(rows[np.linalg.norm(rows, axis=1) > 0], axis=0)
    if rank < data.p or rows.size == 0:
        return STATUS_RANK_DEFICIENT, rank
    unit = rows / np.linalg.norm(rows, axis=1)[:, None]
    flag = _kernels.qp_minimize(unit, DEFAULT_QP_TOL, DEFAULT_KKT_TOL, DEFAULT_QP_MAX_ITER)[4]
    assert flag in (_kernels.QP_ZERO, _kernels.QP_STATIONARY)
    return (STATUS_EXISTS if flag == _kernels.QP_ZERO else STATUS_SEPARATED), rank


def test_swaps_and_exact_rank_match_enumeration_oracle():
    # integer covariates keep enumerated sums and swaps exact on both sides
    rng = np.random.default_rng(71)
    counts = {STATUS_EXISTS: 0, STATUS_SEPARATED: 0, STATUS_RANK_DEFICIENT: 0}
    for _ in range(320):
        data = integer_panel(rng)
        status, rank = _enumerated_verdict(data)
        report = detect_panel_separation(data)
        assert report.status == status
        assert report.rank.probes[0].rank == rank
        counts[status] += 1
    assert min(counts.values()) >= 20


def _spectrum_panels(rng):
    """Random and integer panels, a third of them made rank deficient by a
    covariate that repeats another or stays constant within individuals, and
    a T = 2, p = 3 panel whose one informative individual gives one row."""
    for draw in range(60):
        data = random_panel(rng, n_max=6, T_max=7) if draw % 2 else integer_panel(rng)
        x = data.covariates.copy()
        if draw % 3 == 0 and data.p > 1:
            x[..., -1] = x[..., 0]
        elif draw % 3 == 1:
            x[..., -1] = x[:, :1, -1]
        yield PanelDataset.from_arrays(x, data.outcomes)
    x = rng.standard_normal((3, 2, 3))
    yield PanelDataset.from_arrays(x, np.array([[0, 1], [1, 1], [0, 0]]))


def test_reported_singular_values_decide_the_rank():
    rng = np.random.default_rng(73)
    deficient = 0
    for data in _spectrum_panels(rng):
        probe = rank_check(data).probes[0]
        sv, p = probe.singular_values, data.p
        rows = int(data.informative_mask.sum()) * (data.T - 1)
        assert sv.shape == (p,)
        assert (sv[1:] <= sv[:-1]).all()
        assert not sv[min(rows, p):].any()
        threshold = sv[0] * max(rows, p) * np.finfo(np.float64).eps
        assert int((sv > threshold).sum()) == probe.rank
        # the informative sub-panel, whose rows are all informative, gives the same bits
        assert rank_check(informative_subset(data)[0]).probes[0].singular_values.tobytes() == sv.tobytes()
        deficient += probe.rank < p
    assert rows == 1 and probe.rank == 1 and p == 3
    assert deficient >= 20


def test_rank_stays_full_for_large_T():
    rng = np.random.default_rng(89)
    x = rng.standard_normal((2, 1200, 2))
    y = np.zeros((2, 1200), dtype=int)
    y[:, :600] = 1
    result = rank_check(PanelDataset.from_arrays(x, y))
    assert result.rank_ok
    assert np.isfinite(result.probes[0].singular_values).all()
    assert result.probes[0].singular_values[1] > 0.0


def test_swap_vectors_of_one_individual():
    # y = (0, 1, 0, 1): zeros at periods 1, 3 and ones at 2, 4 give the four
    # swaps x_s - x_t
    x = [[1.0, 10.0, 100.0, 1000.0]]
    problem = qp_problem_from_panel(_panel(x, [[0, 1, 0, 1]]))
    assert sorted(problem.vectors[:, 0].tolist()) == [-999.0, -900.0, -9.0, 90.0]


def test_qp_stall_is_not_reported_as_iteration_cap():
    # sim-bank seed 81, replication 0, which an iterative solve left
    # undecided: the exact solve reaches q ~ 5e-22 (exists), as the LP does
    config = SimConfig(n=10, T=4, p=2, beta0=np.array([2.0, -1.0]), seed=81)
    panel = generate_panel(config, rep=0)
    report = detect_panel_separation(panel)
    assert report.status == STATUS_EXISTS
    assert report.qp_min <= DEFAULT_QP_TOL
    pytest.importorskip("scipy")
    assert lp_verdict(panel) == STATUS_EXISTS


def test_verdicts_match_exact_lp_oracle():
    # sim-design and random normal panels, each also with its covariates
    # scaled by 1e6 and by 1e-6; every disagreement is listed
    pytest.importorskip("scipy")
    rng = np.random.default_rng(97)
    base = []
    for seed in range(6):
        config = SimConfig(n=10, T=4, p=2, beta0=np.array([2.0, -1.0]), seed=seed)
        for rep in range(20):
            panel = generate_panel(config, rep)
            if panel.informative_mask.any():
                base.append((f"sim seed {seed} rep {rep}", panel))
    for j in range(60):
        base.append((f"random {j}", random_panel(rng, n_max=8, T_max=5)))
    cases = []
    for label, data in base:
        cases.append((label, data))
        for factor in (1e6, 1e-6):
            scaled = PanelDataset.from_arrays(factor * data.covariates, data.outcomes)
            cases.append((f"{label} x{factor:g}", scaled))
    assert len(cases) >= 500
    counts = {STATUS_EXISTS: 0, STATUS_SEPARATED: 0, STATUS_RANK_DEFICIENT: 0}
    disagreements = []
    for label, data in cases:
        report = detect_panel_separation(data)
        expected = lp_verdict(data)
        counts[expected] += 1
        if report.status != expected:
            disagreements.append(f"{label}: detector {report.status}"
                                 f" (qp_min {report.qp_min}), LP {expected}")
    assert not disagreements, "\n".join(disagreements)
    assert counts[STATUS_EXISTS] >= 50 and counts[STATUS_SEPARATED] >= 50


def test_pooled_verdicts_match_exact_lp_oracle():
    # random normal, small-integer and binary covariates, and the sim design
    pytest.importorskip("scipy")
    rng = np.random.default_rng(101)
    cases = []
    for j in range(90):
        cases.append((f"random {j}", random_panel(rng, n_max=4, T_max=4)))
        cases.append((f"integer {j}", integer_panel(rng)))
        binary = random_panel(rng, n_max=6, T_max=4)
        x = (rng.random(binary.covariates.shape) < 0.5).astype(np.float64)
        cases.append((f"binary {j}", PanelDataset.from_arrays(x, binary.outcomes)))
    for seed in range(3):
        config = SimConfig(n=10, T=4, p=2, beta0=np.array([2.0, -1.0]), seed=seed)
        cases += [(f"sim seed {seed} rep {rep}", generate_panel(config, rep)) for rep in range(20)]
    assert len(cases) >= 300
    counts = {STATUS_EXISTS: 0, STATUS_SEPARATED: 0}
    disagreements = []
    for label, data in cases:
        report = detect_pooled_separation(data)
        expected = pooled_lp_verdict(data)
        counts[expected] += 1
        if report.status != expected:
            disagreements.append(f"{label}: detector {report.status}"
                                 f" (qp_min {report.qp_min}), LP {expected}")
    assert not disagreements, "\n".join(disagreements)
    assert min(counts.values()) >= 50


def _assert_same_problem(got, want):
    for a, b in ((got.vectors, want.vectors), (got.normalized, want.normalized)):
        assert a.shape == b.shape and a.dtype == b.dtype
        assert a.flags.c_contiguous
        assert a.tobytes() == b.tobytes()


_DEDUP_KINDS = ["continuous", "small_integer", "signed_zero_duplicates", "zero_rows", "extreme",
                "pooled", "signed_zero_lead", "second_column_ties", "second_column_signed_zeros",
                "pooled_duplicates"]


def _dedup_rows(kind, rng, m, p):
    if kind == "continuous":
        return rng.standard_normal((m, p))
    if kind == "small_integer":  # heavy ties in the lead column
        return rng.integers(-2, 3, size=(m, p)).astype(np.float64)
    if kind == "signed_zero_duplicates":  # +-0.0 mixes, and every row twice
        rows = rng.choice([0.0, -0.0, 1.0, -2.5], size=(m, p))
        rows[m // 2:] = rows[:m - m // 2]
        return rows[rng.permutation(m)]
    if kind == "zero_rows":
        rows = rng.standard_normal((m, p))
        rows[rng.random(m) < 0.5] = 0.0
        rows[::3] = -0.0
        return rows
    if kind == "extreme":  # |x| near 1e-300 and 1e300, whose unscaled squares under- and overflow
        exponents = rng.choice([-1.0, 1.0], size=(m, p)) * rng.uniform(295.0, 307.0, size=(m, p))
        return rng.choice([-1.0, 1.0], size=(m, p)) * 10.0 ** exponents
    # a tied lead column, as the pooled test's +-1 intercept, with ties and
    # signed zeros in the second column too
    rows = rng.standard_normal((m, p))
    rows[:, 0] = rng.choice([-1.0, 1.0], size=m)
    if kind == "signed_zero_lead":
        rows[:, 0] = rng.choice([-0.0, 0.0, 1.0], size=m)
    if kind == "second_column_ties" and p > 1:
        rows[:, 1] = rng.integers(-2, 3, size=m)
    if kind == "second_column_signed_zeros" and p > 1:
        rows[rng.random(m) < 0.3, 1] = 0.0
        rows[rng.random(m) < 0.3, 1] = -0.0
    if kind == "pooled_duplicates":
        rows[m // 2:] = rows[:m - m // 2]
        rows = rows[rng.permutation(m)]
    return rows


@pytest.mark.parametrize("layout", ["C", "F"])
@pytest.mark.parametrize("p", [1, 2, 3, 9, 12])
@pytest.mark.parametrize("kind", _DEDUP_KINDS)
def test_unit_rows_match_the_no_merge_reference_bit_for_bit(kind, p, layout):
    rng = np.random.default_rng([_DEDUP_KINDS.index(kind), p])
    for m in (0, 1, 2, 7, 300):
        rows = np.asarray(_dedup_rows(kind, rng, m, p), order=layout)
        got = _dedup_nonzero(rows)
        _assert_same_problem(got, dedup_reference(rows))
        assert not np.shares_memory(got.vectors, rows)


@pytest.mark.parametrize("n, T, p, integer", [
    (2000, 5, 2, False),   # wide-shaped
    (60, 14, 3, False),    # long-shaped
    (300, 6, 2, True),     # ties and duplicate swaps
])
def test_constraint_builders_match_the_no_merge_reference(monkeypatch, n, T, p, integer):
    rng = np.random.default_rng(1000 * T + p)
    data = random_panel(rng, n=n, T=T, p=p)
    if integer:
        data = PanelDataset.from_arrays(np.round(2.0 * data.covariates), data.outcomes)
    got = qp_problem_from_panel(data)
    with monkeypatch.context() as patched:
        patched.setattr(detector, "_dedup_nonzero", dedup_reference)
        want = qp_problem_from_panel(data)
    _assert_same_problem(got, want)
    # the pooled rows as they were built before, row-major
    signs = 2.0 * data.outcomes.reshape(n * T).astype(np.float64) - 1.0
    rows = signs[:, None] * np.column_stack([np.ones(n * T), data.covariates.reshape(n * T, p)])
    _assert_same_problem(qp_problem_from_pooled(data), dedup_reference(rows))


_SWAP_CASES = [f"T={T}, p={p}" for T in (1, 2, 4, 5, 14, 30) for p in (1, 2, 5)] + ["n=1", "constant"]


def _swap_panels(case):
    """Panels of one case, each with signed-zero and with normal covariates."""
    rng = np.random.default_rng(_SWAP_CASES.index(case))
    panels = []
    for signed_zeros in (True, False):
        if case in ("n=1", "constant"):
            data = every_total_panel(rng, 5, 2, signed_zeros, per_total=1)
            k = data.choice_totals
            keep = k == 3 if case == "n=1" else (k == 0) | (k == 5)  # the second has no swaps
            panels.append(PanelDataset.from_arrays(data.covariates[keep], data.outcomes[keep]))
        else:
            T, p = (int(v.split("=")[1]) for v in case.split(", "))
            panels.append(every_total_panel(rng, T, p, signed_zeros))
    return panels


def _sorted_by_bits(problem):
    """``problem`` with its rows in the order of their bit patterns, which
    tells -0.0 from 0.0, so two problems with the same rows compare equal."""
    order = np.lexsort(problem.vectors.view(np.uint64).T[::-1])
    return QpProblem(vectors=problem.vectors[order], normalized=problem.normalized[order])


@pytest.mark.parametrize("case", _SWAP_CASES)
def test_swap_builder_matches_the_per_choice_total_reference_bit_for_bit(case):
    # the same rows, bit for bit, listed by individual rather than by choice total
    for data in _swap_panels(case):
        got = qp_problem_from_panel(data)
        assert got.vectors.flags.c_contiguous and got.normalized.flags.c_contiguous
        _assert_same_problem(_sorted_by_bits(got), _sorted_by_bits(swaps_reference(data)))
        if case == "constant":
            assert got.vectors.shape == (0, data.p)


def test_every_nonzero_swap_and_observation_is_a_constraint():
    # continuous covariates give no zero swap: k (T - k) rows per individual
    rng = np.random.default_rng(79)
    for _ in range(40):
        data = random_panel(rng, n_max=30, T_max=7)
        k = data.choice_totals
        assert detect_panel_separation(data).n_constraints == int((k * (data.T - k)).sum())
        assert detect_pooled_separation(data).n_constraints == data.n * data.T


def _bits(value):
    arr = np.asarray(value)
    return type(value), arr.dtype, arr.shape, arr.tobytes()


def _qp_inputs(case):
    if case == "separated unit rows":  # rows in one half-space; 4 of the 20 solves step back
        rng = np.random.default_rng(2)
        for _ in range(20):
            W = rng.standard_normal((60, 5))
            W[:, 0] = np.abs(W[:, 0])
            yield W / np.linalg.norm(W, axis=1)[:, None]
        return
    for data in _swap_panels(case):
        yield qp_problem_from_panel(data).normalized
        yield qp_problem_from_pooled(data).normalized


@pytest.mark.parametrize("case", _SWAP_CASES + ["separated unit rows"])
def test_qp_minimize_matches_the_array_bookkeeping_reference_bit_for_bit(case):
    for W in _qp_inputs(case):
        for max_iter in (0, 1, DEFAULT_QP_MAX_ITER):
            args = (W, DEFAULT_QP_TOL, DEFAULT_KKT_TOL, max_iter)
            got, want = _kernels.qp_minimize(*args), qp_reference(*args)
            assert [_bits(v) for v in got] == [_bits(v) for v in want]
