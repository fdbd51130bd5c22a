"""Conditional maximum likelihood for the fixed-effects binary logit.

Standard solvers happily return finite numbers on panels where the
conditional likelihood has no maximizer. This package decides, before
estimating, whether a finite unique estimate exists (an exact rank test on
the within-individual covariate variation plus a quadratic-programming
separation test on single-swap attribute differences) and
only then runs the Newton fit, whose value, score and Hessian come from a
recursion over the periods instead of an enumeration of the C(T, k)
alternative sequences (only sets small enough for enumeration to be faster
are enumerated). A pooled cross-sectional separation check and a
simulation experiment are included, along with the ``felogit`` CLI.
"""

__version__ = "0.1.0"

from ._kernels import active_backend
from .datasets import cli_report_schema_path, separated_panel_path
from .detector import (
    STATUS_EXISTS,
    STATUS_RANK_DEFICIENT,
    STATUS_SEPARATED,
    ExistenceReport,
    QpProblem,
    RankCheckResult,
    detect_panel_separation,
    detect_pooled_separation,
    qp_problem_from_panel,
    qp_problem_from_pooled,
    rank_check,
)
from .errors import (
    FelogitError,
    NoInformativeIndividualsError,
    NonexistenceError,
    PanelDataError,
    QpConvergenceError,
)
from .estimator import (
    CmleFit,
    conditional_loglik,
    conditional_score_and_hessian,
    fit,
)
from .panel import PanelDataset, informative_subset, load_csv
from .simulate import (
    DetectorFrequencies,
    FrequencyReport,
    SimConfig,
    existence_rate,
    generate_panel,
)

__all__ = [
    "__version__",
    "active_backend",
    "cli_report_schema_path",
    "separated_panel_path",
    "STATUS_EXISTS",
    "STATUS_RANK_DEFICIENT",
    "STATUS_SEPARATED",
    "ExistenceReport",
    "QpProblem",
    "RankCheckResult",
    "detect_panel_separation",
    "detect_pooled_separation",
    "qp_problem_from_panel",
    "qp_problem_from_pooled",
    "rank_check",
    "FelogitError",
    "NoInformativeIndividualsError",
    "NonexistenceError",
    "PanelDataError",
    "QpConvergenceError",
    "CmleFit",
    "conditional_loglik",
    "conditional_score_and_hessian",
    "fit",
    "PanelDataset",
    "informative_subset",
    "load_csv",
    "DetectorFrequencies",
    "FrequencyReport",
    "SimConfig",
    "existence_rate",
    "generate_panel",
]
