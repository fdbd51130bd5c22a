"""Synthetic panel generation and an existence-failure frequency experiment."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .detector import STATUS_EXISTS, detect_panel_separation, detect_pooled_separation
from .errors import NoInformativeIndividualsError, QpConvergenceError
from .panel import PanelDataset

STATUS_NO_INFORMATIVE = "no_informative_individuals"
STATUS_UNDECIDED = "qp_did_not_converge"


@dataclass(frozen=True)
class SimConfig:
    """Design of the data-generating process for one experiment."""

    n: int
    T: int
    p: int
    beta0: np.ndarray
    effect_scale: float = 1.0
    replications: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.n < 1 or self.T < 1 or self.p < 1:
            raise ValueError("panel dimensions must all be at least 1")
        if self.replications < 1:
            raise ValueError("replications must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not 0 <= self.effect_scale < np.inf:
            raise ValueError("effect_scale must be finite and non-negative")
        beta0 = np.asarray(self.beta0, dtype=np.float64).reshape(-1)
        if beta0.shape != (self.p,):
            raise ValueError(f"beta0 must have length p = {self.p}")
        if not np.isfinite(beta0).all():
            raise ValueError("beta0 must be finite")
        beta0.setflags(write=False)
        object.__setattr__(self, "beta0", beta0)


def generate_panel(config: SimConfig, rep: int = 0) -> PanelDataset:
    """Draw one panel: standard-normal covariates, normal individual effects
    scaled by ``effect_scale``, and logistic choice errors. Deterministic in
    ``(config.seed, rep)``."""
    if rep < 0:
        raise ValueError("rep must be non-negative")
    rng = np.random.default_rng([config.seed, rep])
    n, T, p = config.n, config.T, config.p
    # every term of the latent index is scaled by one power of two: exact
    # where nothing under- or overflows, so y is unchanged, but a beta0 near
    # the float maximum can no longer overflow x @ beta0 into inf - inf = NaN
    e = max(math.frexp(max(np.abs(config.beta0).max(), config.effect_scale))[1], 0)
    x = rng.standard_normal((n, T, p))
    effects = math.ldexp(config.effect_scale, -e) * rng.standard_normal(n)
    noise = rng.logistic(size=(n, T))
    latent = x @ np.ldexp(config.beta0, -e) + effects[:, None] + np.ldexp(noise, -e)
    y = (latent > 0).astype(np.int8)
    # valid by construction: finite x, 0/1 outcomes, fresh arrays of the
    # panel's own dtypes, so the checks and copies of from_arrays are skipped
    ids = np.arange(1, n + 1, dtype=np.int64)
    periods = np.tile(np.arange(1, T + 1, dtype=np.int64), (n, 1))
    return PanelDataset._unchecked(ids, periods, x, y)


@dataclass(frozen=True)
class DetectorFrequencies:
    """One detector's per-replication verdicts, plus their summaries."""

    exists: list[bool]
    status: list[str]
    qp_min: list[float | None]

    @property
    def exists_fraction(self) -> float:
        return sum(self.exists) / len(self.exists)

    @property
    def qp_min_mean(self) -> float | None:
        present = [v for v in self.qp_min if v is not None]
        return sum(present) / len(present) if present else None


@dataclass(frozen=True)
class FrequencyReport:
    """Existence frequencies of the panel and the pooled detector."""

    config: SimConfig
    panel: DetectorFrequencies
    pooled: DetectorFrequencies


def existence_rate(config: SimConfig) -> FrequencyReport:
    """Run both separation detectors on every replication.

    A replication counts as "exists" for the panel detector only when the
    full check (rank condition included) reports a unique finite estimate;
    panels with no informative individual at all count as non-existence with
    status ``no_informative_individuals`` and no QP value. A replication on
    which a QP takes its fixed cap of active-set steps undecided is recorded
    as ``qp_did_not_converge`` (not as existence, with no QP value) instead
    of aborting the experiment. Both detectors' frequencies are reported
    side by side without asserting any ordering between them.
    """
    detectors = (detect_panel_separation, detect_pooled_separation)
    verdicts = ([], [])
    for rep in range(config.replications):
        data = generate_panel(config, rep)
        for detect, rows in zip(detectors, verdicts):
            rows.append(_verdict(detect, data))
    panel, pooled = (DetectorFrequencies(*map(list, zip(*rows))) for rows in verdicts)
    return FrequencyReport(config=config, panel=panel, pooled=pooled)


def _verdict(detect, data: PanelDataset) -> tuple[bool, str, float | None]:
    """``(exists, status, qp_min)`` of one detector on one replication."""
    try:
        report = detect(data)
    except NoInformativeIndividualsError:
        return False, STATUS_NO_INFORMATIVE, None
    except QpConvergenceError:
        return False, STATUS_UNDECIDED, None
    return report.status == STATUS_EXISTS, report.status, report.qp_min
