import numpy as np
import pytest

from felogit import PanelDataset, SimConfig, detector, existence_rate, generate_panel


def test_same_seed_and_rep_reproduce_the_panel():
    config = SimConfig(n=6, T=3, p=2, beta0=np.array([1.0, -0.5]), seed=42)
    a = generate_panel(config, rep=3)
    b = generate_panel(config, rep=3)
    assert np.array_equal(a.covariates, b.covariates)
    assert np.array_equal(a.outcomes, b.outcomes)
    c = generate_panel(config, rep=4)
    assert not np.array_equal(a.outcomes, c.outcomes)


def test_minimal_panel_shape():
    config = SimConfig(n=1, T=1, p=1, beta0=np.array([0.3]), seed=9)
    data = generate_panel(config)
    assert (data.n, data.T, data.p) == (1, 1, 1)
    assert data.outcomes[0, 0] in (0, 1)


def test_outcome_mean_is_half_under_null():
    config = SimConfig(n=100_000, T=1, p=1, beta0=np.array([0.0]),
                       effect_scale=0.0, seed=2024)
    data = generate_panel(config)
    assert abs(data.outcomes.mean() - 0.5) < 0.01


def test_huge_coefficients_do_not_overflow_the_latent_index():
    # x @ beta0 used to give inf - inf = NaN here, and NaN > 0 drew y = 0;
    # pytest turns the overflow warning into an error
    config = SimConfig(n=2000, T=3, p=2, beta0=np.array([1e308, -1e308]),
                       effect_scale=0.0, seed=0)
    data = generate_panel(config)
    x = data.covariates
    assert np.array_equal(data.outcomes, x[..., 0] > x[..., 1])


@pytest.mark.parametrize("config", [
    SimConfig(n=10, T=4, p=2, beta0=np.array([2.0, -1.0]), seed=3),
    SimConfig(n=50, T=3, p=2, beta0=np.array([1e308, -1e308]), seed=0),
    SimConfig(n=6, T=5, p=3, beta0=np.array([0.5, 0.0, -1.0]), effect_scale=0.0, seed=1),
])
def test_generated_panel_is_the_validated_panel_of_its_draws(config):
    # generate_panel skips the checks and copies of from_arrays; what it
    # builds must be what from_arrays builds from the same draws
    for rep in range(3):
        data = generate_panel(config, rep)
        built = PanelDataset.from_arrays(data.covariates, data.outcomes)
        assert type(data) is PanelDataset
        for name in ("ids", "periods", "covariates", "outcomes"):
            got, want = getattr(data, name), getattr(built, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous and not got.flags.writeable and not want.flags.writeable
            assert np.array_equal(got, want)


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(n=0, T=3, p=1, beta0=np.array([1.0]))
    with pytest.raises(ValueError):
        SimConfig(n=3, T=3, p=1, beta0=np.array([1.0]), replications=0)
    with pytest.raises(ValueError):
        SimConfig(n=3, T=3, p=1, beta0=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        SimConfig(n=3, T=3, p=1, beta0=np.array([1.0]), seed=-1)
    for beta0, effect_scale in [(np.nan, 1.0), (-np.inf, 1.0), (1.0, np.inf), (1.0, np.nan)]:
        with pytest.raises(ValueError, match="must be finite"):
            SimConfig(n=3, T=3, p=1, beta0=np.array([beta0]), effect_scale=effect_scale)


def test_single_replication_report_shape():
    config = SimConfig(n=4, T=3, p=1, beta0=np.array([1.0]), replications=1, seed=5)
    report = existence_rate(config)
    assert len(report.panel.exists) == 1
    assert len(report.pooled.exists) == 1
    assert isinstance(report.panel.exists[0], bool)
    assert isinstance(report.pooled.exists[0], bool)


def test_existence_rate_deterministic():
    config = SimConfig(n=5, T=3, p=1, beta0=np.array([1.0]), replications=20, seed=17)
    a = existence_rate(config)
    b = existence_rate(config)
    assert a.panel.exists == b.panel.exists
    assert a.panel.qp_min == b.panel.qp_min
    assert a.pooled.exists == b.pooled.exists


def test_small_panels_fail_often():
    config = SimConfig(n=2, T=2, p=1, beta0=np.array([1.0]), replications=2000, seed=77)
    report = existence_rate(config)
    assert report.panel.exists_fraction < 0.9
    # non-existence here is dominated by separation or fully degenerate draws
    assert any(s != "exists_unique" for s in report.panel.status)


def test_large_panels_almost_always_exist():
    config = SimConfig(n=200, T=3, p=1, beta0=np.array([1.0]), replications=200, seed=7)
    report = existence_rate(config)
    assert report.panel.exists_fraction >= 0.99


def test_a_qp_at_its_step_cap_is_recorded_not_raised(monkeypatch):
    config = SimConfig(n=10, T=4, p=2, beta0=np.array([2.0, -1.0]), replications=12)
    full = existence_rate(config)
    monkeypatch.setattr(detector, "DEFAULT_QP_MAX_ITER", 1)
    capped = existence_rate(config)
    for side in ("panel", "pooled"):
        got, want = getattr(capped, side), getattr(full, side)
        assert "qp_did_not_converge" not in want.status
        undecided = [s == "qp_did_not_converge" for s in got.status]
        assert any(undecided)
        for i, cut in enumerate(undecided):
            expected = (False, None) if cut else (want.exists[i], want.qp_min[i])
            assert (got.exists[i], got.qp_min[i]) == expected
            assert cut or got.status[i] == want.status[i]
    # the panel QP decides some replications within one step; means skip the rest
    assert not all(s == "qp_did_not_converge" for s in capped.panel.status)
    decided = [v for v in capped.panel.qp_min if v is not None]
    assert capped.panel.qp_min_mean == sum(decided) / len(decided)
