"""Domain types and ingestion for balanced binary-choice panels.

A panel holds n individuals observed over a common number of periods T,
each observation carrying a p-dimensional covariate vector and a 0/1
outcome. Panels are immutable once constructed; all downstream modules
treat them as shared read-only data.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import NoInformativeIndividualsError, PanelDataError


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    if out is arr or out.base is arr:
        out = out.copy()
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class IndividualSlice:
    """One individual's data: a T x p covariate matrix and a 0/1 outcome vector."""

    covariates: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        cov = np.asarray(self.covariates, dtype=np.float64)
        y = np.asarray(self.outcomes)
        if cov.ndim != 2:
            raise PanelDataError("covariates must be a T x p matrix")
        if y.shape != (cov.shape[0],):
            raise PanelDataError("outcomes must have one entry per period")
        if not np.isfinite(cov).all():
            raise PanelDataError("covariates must be finite")
        if not np.isin(y, (0, 1)).all():
            raise PanelDataError("invalid outcome: outcomes must be 0 or 1")
        object.__setattr__(self, "covariates", _frozen(cov))
        object.__setattr__(self, "outcomes", _frozen(y.astype(np.int8)))

    @property
    def T(self) -> int:
        return self.outcomes.shape[0]

    @property
    def p(self) -> int:
        return self.covariates.shape[1]

    @property
    def choice_total(self) -> int:
        """Number of periods in which the individual chose 1."""
        return int(self.outcomes.sum())

    @property
    def informative(self) -> bool:
        """True when the outcome sequence is neither all-zero nor all-one."""
        return 0 < self.choice_total < self.T


@dataclass(frozen=True)
class PanelDataset:
    """A validated balanced panel.

    Attributes
    ----------
    ids : (n,) int array of unique individual identifiers.
    periods : (n, T) int array of period labels, strictly increasing per row.
    covariates : (n, T, p) float array.
    outcomes : (n, T) int array with entries in {0, 1}.
    """

    ids: np.ndarray
    periods: np.ndarray
    covariates: np.ndarray
    outcomes: np.ndarray

    def __post_init__(self):
        ids = np.asarray(self.ids, dtype=np.int64)
        per = np.asarray(self.periods, dtype=np.int64)
        cov = np.asarray(self.covariates, dtype=np.float64)
        y = np.asarray(self.outcomes)
        if cov.ndim != 3:
            raise PanelDataError("covariates must have shape (n, T, p)")
        n, T, p = cov.shape
        if n < 1 or T < 1 or p < 1:
            raise PanelDataError("panel dimensions must all be at least 1")
        if ids.shape != (n,) or per.shape != (n, T) or y.shape != (n, T):
            raise PanelDataError("inconsistent array shapes for a panel")
        if len(np.unique(ids)) != n:
            raise PanelDataError("individual identifiers must be unique")
        if not (per[:, 1:] > per[:, :-1]).all():
            raise PanelDataError(
                "period labels must be distinct and ascending within each individual"
            )
        if not np.isfinite(cov).all():
            raise PanelDataError("covariates must be finite")
        if not np.isin(y, (0, 1)).all():
            raise PanelDataError("invalid outcome: outcomes must be 0 or 1")
        object.__setattr__(self, "ids", _frozen(ids))
        object.__setattr__(self, "periods", _frozen(per))
        object.__setattr__(self, "covariates", _frozen(cov))
        object.__setattr__(self, "outcomes", _frozen(y.astype(np.int8)))

    @property
    def n(self) -> int:
        return self.covariates.shape[0]

    @property
    def T(self) -> int:
        return self.covariates.shape[1]

    @property
    def p(self) -> int:
        return self.covariates.shape[2]

    @property
    def choice_totals(self) -> np.ndarray:
        """(n,) array of per-individual outcome sums."""
        return self.outcomes.sum(axis=1).astype(np.int64)

    @property
    def informative_mask(self) -> np.ndarray:
        k = self.choice_totals
        return (k > 0) & (k < self.T)

    def slice(self, i: int) -> IndividualSlice:
        return IndividualSlice(self.covariates[i], self.outcomes[i])

    @classmethod
    def from_arrays(cls, covariates, outcomes, ids=None, periods=None) -> "PanelDataset":
        """Build a panel from raw (n, T, p) covariates and (n, T) outcomes."""
        cov = np.asarray(covariates, dtype=np.float64)
        if cov.ndim != 3:
            raise PanelDataError("covariates must have shape (n, T, p)")
        n, T, _ = cov.shape
        if ids is None:
            ids = np.arange(1, n + 1, dtype=np.int64)
        if periods is None:
            periods = np.tile(np.arange(1, T + 1, dtype=np.int64), (n, 1))
        return cls(ids=ids, periods=periods, covariates=cov, outcomes=outcomes)


def load_csv(path) -> PanelDataset:
    """Read a panel from a CSV file with header ``id,t,y,x1,...,xp``.

    Rows may appear in any order; they are grouped by ``id`` and sorted by
    ``t`` within each individual. Every individual must have the same number
    of rows and no duplicated ``(id, t)`` pair. A leading UTF-8 byte-order
    mark is ignored. Raises :class:`~felogit.errors.PanelDataError` with a
    row/column location on parse failures.

    A clean file is parsed in one vectorized pass. A file with any fault, or
    with a cell only Python's own number syntax accepts (a quoted cell, a
    whitespace-only line, ``1_000``, non-ASCII digits), is re-read row by row,
    which either builds the same panel or names the faulty row and column.
    """
    path = Path(path)
    data = _load_bulk(path)
    return data if data is not None else _load_rows(path)


def _expected_header(p: int) -> list[str]:
    return ["id", "t", "y"] + [f"x{j}" for j in range(1, p + 1)]


def _load_bulk(path: Path) -> PanelDataset | None:
    """The panel in ``path`` from one ``np.loadtxt`` pass, or None.

    Every check of :func:`_load_rows` is made on the arrays; None means one
    of them failed (or ``loadtxt`` raised or warned) and the row-wise reader
    has to decide the file. Warnings are errors here: numpy < 2 parses ``1.0``
    as an int64 with only a ``DeprecationWarning``, which the row-wise reader
    rejects. ``comments=None`` keeps ``0.5 # note`` a bad cell.
    """
    with path.open(newline="", encoding="utf-8-sig") as fh:
        header = [c.strip() for c in next(csv.reader(fh), [])]
        p = len(header) - 3
        if p < 1 or header != _expected_header(p):
            return None
        dtype = [("id", np.int64), ("t", np.int64), ("v", np.float64, (p + 1,))]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(fh, dtype=dtype, delimiter=",", comments=None, ndmin=1)
        except (ValueError, Warning):
            return None
    if rows.size == 0 or not np.isfinite(rows["v"]).all():
        return None
    order = np.lexsort((rows["t"], rows["id"]))
    ident, t, v = rows["id"][order], rows["t"][order], rows["v"][order]
    y = v[:, 0]
    if not ((y == 0.0) | (y == 1.0)).all():
        return None
    same_id = ident[1:] == ident[:-1]
    if (same_id & (t[1:] == t[:-1])).any():
        return None
    starts = np.flatnonzero(np.r_[True, ~same_id])
    counts = np.diff(np.r_[starts, len(ident)])
    if (counts != counts[0]).any():
        return None
    shape = (len(starts), int(counts[0]))
    return PanelDataset(
        ids=ident[starts],
        periods=t.reshape(shape),
        covariates=v[:, 1:].reshape(*shape, p),
        outcomes=y.astype(np.int8).reshape(shape),
    )


def _load_rows(path: Path) -> PanelDataset:
    """:func:`load_csv` one row at a time, with a located message on the first fault."""
    path = Path(path)
    with path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise PanelDataError(f"{path}: empty file") from None
        header = [c.strip() for c in header]
        p = len(header) - 3
        if p < 1 or header != _expected_header(p):
            raise PanelDataError(
                f"{path}: malformed header {header!r}; expected id,t,y,x1,...,xp"
            )

        outcomes: dict[tuple[int, int], float] = {}  # y by (id, t), in file order
        xs: list[float] = []
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != len(header):
                raise PanelDataError(
                    f"{path}: parse error at row {lineno}: expected "
                    f"{len(header)} fields, found {len(row)}"
                )
            ident = _parse_int(row[0], path, lineno, "id")
            t = _parse_int(row[1], path, lineno, "t")
            yval = _parse_float(row[2], path, lineno, "y")
            if yval not in (0.0, 1.0):
                raise PanelDataError(
                    f"{path}: invalid outcome at row {lineno}: y must be 0 or 1, got {row[2]!r}"
                )
            for cell, col in zip(row[3:], header[3:]):
                xs.append(_parse_float(cell, path, lineno, col))
            if (ident, t) in outcomes:
                raise PanelDataError(
                    f"{path}: unbalanced or duplicated panel: duplicate (id,t)=({ident},{t}) at row {lineno}"
                )
            outcomes[ident, t] = yval

    if not outcomes:
        raise PanelDataError(f"{path}: no data rows")
    keys = np.array(list(outcomes), dtype=np.int64)
    unique_ids, counts = np.unique(keys[:, 0], return_counts=True)
    sizes = np.unique(counts)
    if len(sizes) != 1:
        raise PanelDataError(
            f"{path}: unbalanced or duplicated panel: individuals have differing row counts {sizes.tolist()}"
        )
    shape = (len(unique_ids), int(sizes[0]))
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    return PanelDataset(
        ids=unique_ids,
        periods=keys[order, 1].reshape(shape),
        covariates=np.array(xs).reshape(-1, p)[order].reshape(*shape, p),
        outcomes=np.array(list(outcomes.values()), dtype=np.int8)[order].reshape(shape),
    )


def _parse_int(cell: str, path, lineno: int, col: str) -> int:
    try:
        val = int(cell.strip())
    except ValueError:
        raise PanelDataError(
            f"{path}: parse error at row {lineno}, column {col!r}: not an integer: {cell!r}"
        ) from None
    if not -2**63 <= val < 2**63:
        raise PanelDataError(
            f"{path}: parse error at row {lineno}, column {col!r}: integer out of range: {cell!r}"
        )
    return val


def _parse_float(cell: str, path, lineno: int, col: str) -> float:
    try:
        val = float(cell.strip())
    except ValueError:
        raise PanelDataError(
            f"{path}: parse error at row {lineno}, column {col!r}: not a number: {cell!r}"
        ) from None
    if not math.isfinite(val):
        raise PanelDataError(
            f"{path}: parse error at row {lineno}, column {col!r}: value is not finite"
        )
    return val


def informative_subset(data: PanelDataset) -> tuple[PanelDataset, int]:
    """Drop individuals whose outcome sequence is constant.

    Individuals with all-zero or all-one outcomes contribute a constant to
    the conditional log-likelihood and nothing to the separation test.
    Returns the sub-panel of informative individuals together with the
    number of dropped individuals. Raises
    :class:`~felogit.errors.NoInformativeIndividualsError` when nothing
    remains.
    """
    mask = data.informative_mask
    dropped = int((~mask).sum())
    if dropped == 0:
        return data, 0
    if not mask.any():
        raise NoInformativeIndividualsError(
            "no informative individuals: CMLE undefined for every beta"
        )
    sub = PanelDataset(
        ids=data.ids[mask],
        periods=data.periods[mask],
        covariates=data.covariates[mask],
        outcomes=data.outcomes[mask],
    )
    return sub, dropped
