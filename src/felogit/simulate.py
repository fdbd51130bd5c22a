"""Synthetic panel generation and an existence-failure frequency experiment."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .detector import (
    STATUS_EXISTS,
    DEFAULT_QP_TOL,
    detect_panel_separation,
    detect_pooled_separation,
)
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
        if self.effect_scale < 0:
            raise ValueError("effect_scale must be non-negative")
        beta0 = np.asarray(self.beta0, dtype=np.float64).reshape(-1)
        if beta0.shape != (self.p,):
            raise ValueError(f"beta0 must have length p = {self.p}")
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
    x = rng.standard_normal((n, T, p))
    effects = config.effect_scale * rng.standard_normal(n)
    noise = rng.logistic(size=(n, T))
    latent = x @ config.beta0 + effects[:, None] + noise
    y = (latent > 0).astype(np.int8)
    return PanelDataset.from_arrays(x, y)


@dataclass
class FrequencyReport:
    """Per-replication existence verdicts for both detectors, plus summaries."""

    config: SimConfig
    panel_exists: list[bool]
    panel_status: list[str]
    panel_qp_min: list[float | None]
    pooled_exists: list[bool]
    pooled_status: list[str]
    pooled_qp_min: list[float | None]

    @property
    def replications(self) -> int:
        return len(self.panel_exists)

    @property
    def panel_exists_fraction(self) -> float:
        return sum(self.panel_exists) / self.replications

    @property
    def pooled_exists_fraction(self) -> float:
        return sum(self.pooled_exists) / self.replications

    @property
    def panel_qp_min_mean(self) -> float | None:
        return _mean_or_none(self.panel_qp_min)

    @property
    def pooled_qp_min_mean(self) -> float | None:
        return _mean_or_none(self.pooled_qp_min)


def _mean_or_none(values) -> float | None:
    present = [v for v in values if v is not None]
    return sum(present) / len(present) if present else None


def existence_rate(config: SimConfig, *, tol: float = DEFAULT_QP_TOL) -> FrequencyReport:
    """Run both separation detectors on every replication.

    A replication counts as "exists" for the panel detector only when the
    full check (rank condition included) reports a unique finite estimate;
    panels with no informative individual at all count as non-existence with
    status ``no_informative_individuals`` and no QP value. A replication on
    which a QP hits its iteration cap is recorded as ``qp_did_not_converge``
    (not as existence) instead of aborting the experiment. Both detectors'
    frequencies are reported side by side without asserting any ordering
    between them.
    """
    panel, pooled = [], []
    for rep in range(config.replications):
        data = generate_panel(config, rep)
        panel.append(_verdict(detect_panel_separation, data, tol))
        pooled.append(_verdict(detect_pooled_separation, data, tol))
    panel_exists, panel_status, panel_qp = (list(c) for c in zip(*panel))
    pooled_exists, pooled_status, pooled_qp = (list(c) for c in zip(*pooled))
    return FrequencyReport(
        config=config,
        panel_exists=panel_exists,
        panel_status=panel_status,
        panel_qp_min=panel_qp,
        pooled_exists=pooled_exists,
        pooled_status=pooled_status,
        pooled_qp_min=pooled_qp,
    )


def _verdict(detect, data: PanelDataset, tol: float) -> tuple[bool, str, float | None]:
    """``(exists, status, qp_min)`` of one detector on one replication."""
    try:
        report = detect(data, tol=tol)
    except NoInformativeIndividualsError:
        return False, STATUS_NO_INFORMATIVE, None
    except QpConvergenceError:
        return False, STATUS_UNDECIDED, None
    return report.status == STATUS_EXISTS, report.status, report.qp_min
