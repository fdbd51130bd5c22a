"""Exception types shared across the package.

The CLI reports any :class:`FelogitError` on stderr with exit 1, except a
:class:`NonexistenceError`, whose report decides the exit code. Invalid
arguments to the API (a beta of the wrong length) raise plain ``ValueError``.
"""

from __future__ import annotations


class FelogitError(Exception):
    """Base class for all errors raised by this package."""


class PanelDataError(FelogitError, ValueError):
    """Malformed input data: bad CSV, unbalanced panel, invalid outcomes."""


class NoInformativeIndividualsError(PanelDataError):
    """Every individual has an all-zero or all-one outcome sequence."""


class QpConvergenceError(FelogitError, RuntimeError):
    """The separation QP solver took its fixed cap of active-set steps
    (``felogit.detector.DEFAULT_QP_MAX_ITER``, 100 000) undecided.

    The cap is a constant, with no option to raise it. Carries the solver
    state at the stop: its exit ``flag`` (always ``QP_MAXITER``), the last
    objective value ``q``, the KKT violation ``kkt_violation`` and the
    number of active-set steps ``iterations``.
    """

    def __init__(self, message: str, *, flag: int, q: float, kkt_violation: float,
                 iterations: int):
        super().__init__(message)
        self.flag = flag
        self.q = q
        self.kkt_violation = kkt_violation
        self.iterations = iterations


class NonexistenceError(FelogitError, RuntimeError):
    """Estimation was refused because the existence check failed.

    Carries the :class:`~felogit.detector.ExistenceReport` that triggered
    the refusal as ``report``.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
