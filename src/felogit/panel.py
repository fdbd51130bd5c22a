"""Domain types and ingestion for balanced binary-choice panels.

A panel holds n individuals observed over a common number of periods T,
each observation carrying a p-dimensional covariate vector and a 0/1
outcome. Panels are immutable once constructed; all downstream modules
treat them as shared read-only data.
"""

from __future__ import annotations

import csv
import math
import os
import warnings
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import NoInformativeIndividualsError, PanelDataError


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr)
    if out is arr or out.base is arr:
        out = out.copy()
    return _readonly(out)


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PanelDataset:
    """A validated balanced panel.

    Attributes
    ----------
    ids : (n,) int array of unique individual identifiers.
    periods : (n, T) int array of period labels, strictly increasing per row.
    covariates : (n, T, p) float array.
    outcomes : (n, T) int array with entries in {0, 1}.

    Equality and hashing are by identity, so a panel can key a weak cache.
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
        if not (ids[1:] > ids[:-1]).all() and len(np.unique(ids)) != n:
            raise PanelDataError("individual identifiers must be unique")
        if not (per[:, 1:] > per[:, :-1]).all():
            raise PanelDataError(
                "period labels must be distinct and ascending within each individual"
            )
        cov = _frozen(cov)  # contiguous before the scan, which is faster on it
        if not np.isfinite(cov).all():
            raise PanelDataError("covariates must be finite")
        if not ((y == 0) | (y == 1)).all():
            raise PanelDataError("invalid outcome: outcomes must be 0 or 1")
        object.__setattr__(self, "ids", _frozen(ids))
        object.__setattr__(self, "periods", _frozen(per))
        object.__setattr__(self, "covariates", cov)
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

    @cached_property
    def choice_totals(self) -> np.ndarray:
        """(n,) read-only array of per-individual outcome sums."""
        return _readonly(self.outcomes.sum(axis=1).astype(np.int64))

    @cached_property
    def informative_mask(self) -> np.ndarray:
        """(n,) read-only mask of the individuals whose outcomes vary."""
        k = self.choice_totals
        return _readonly((k > 0) & (k < self.T))

    @classmethod
    def _unchecked(cls, ids, periods, covariates, outcomes) -> "PanelDataset":
        """A panel of arrays that are valid by construction, set read-only on
        a bare instance without :meth:`__post_init__`'s checks and copies.

        The arrays must already have the dtypes, shapes and C order that
        ``__post_init__`` gives (int64, int64, float64, int8) and must not be
        shared with anything that writes to them."""
        data = object.__new__(cls)
        for name, arr in zip(("ids", "periods", "covariates", "outcomes"),
                             (ids, periods, covariates, outcomes)):
            object.__setattr__(data, name, _readonly(arr))
        return data

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
    ``t`` within each individual. A file that already lists them so (ids
    non-decreasing, ``t`` non-decreasing within each id) is taken in its own
    order, without a sort, and gives the same panel. Every individual must
    have the same number of rows and no duplicated ``(id, t)`` pair. A
    leading UTF-8 byte-order mark is ignored. Raises :class:`~felogit.errors.PanelDataError` with a
    row/column location on parse failures, and naming the file when it is
    not UTF-8 text.

    A clean file is parsed in one vectorized pass. A file with any fault, or
    with a cell only Python's own number syntax accepts (a quoted cell, a
    whitespace-only line, ``1_000``, non-ASCII digits), is re-read row by row,
    which either builds the same panel or names the faulty row and column.
    The vectorized pass hands numpy a file of 64 KiB or more by its path, to
    be read in chunks by numpy's C reader, and a smaller one as an open
    handle, read line by line; both give the same arrays (see
    :func:`_load_bulk`).
    """
    path = Path(path)
    try:
        data = _load_bulk(path)
        return data if data is not None else _load_rows(path)
    except UnicodeDecodeError as err:
        raise PanelDataError(f"{path}: not UTF-8 text ({err.reason})") from None


def _expected_header(p: int) -> list[str]:
    return ["id", "t", "y"] + [f"x{j}" for j in range(1, p + 1)]


# Files of at least this many bytes go to ``np.loadtxt`` as a path, which its
# C reader reads in chunks; smaller ones as the open handle, which it reads
# line by line through Python. A path costs a fixed ~30 us (numpy resolves it
# through ``np.lib._datasource``), a line of the handle ~0.13 us (numpy 2.4,
# 2-core x86 host), so the two cross near 250 lines (~12 KB). Pipes report
# size 0 and keep the handle.
_BULK_PATH_BYTES = 64 * 1024

# ``np.lib._datasource`` decompresses a path by its suffix (case-sensitive), so
# a plain-text file with one of these names keeps the handle.
_DECOMPRESSED_SUFFIXES = frozenset({".gz", ".bz2", ".xz", ".lzma"})


def _load_bulk(path: Path) -> PanelDataset | None:
    """The panel in ``path`` from one ``np.loadtxt`` pass, or None.

    A file of at least :data:`_BULK_PATH_BYTES`, by ``fstat`` of the handle
    that read the header, is passed by path with ``skiprows=1``; any other
    file, and one whose suffix numpy would decompress, as the handle past the
    header. A header that spans lines (a quoted cell holding a newline) leaves
    its closing quote on the second line, which ``loadtxt`` cannot parse, so
    the path input sends that file row-wise rather than misread it.

    The arrays go through :func:`_assemble`, so :class:`PanelDataset` makes
    every check on them; None means one failed (or ``loadtxt`` raised or
    warned) and the row-wise reader has to decide the file and name its first
    fault. Warnings are errors here: numpy < 2 parses ``1.0`` as an int64 with
    only a ``DeprecationWarning``, which the row-wise reader rejects.
    ``comments=None`` keeps ``0.5 # note`` a bad cell.
    """
    with path.open(newline="", encoding="utf-8-sig") as fh:
        header = [c.strip() for c in next(csv.reader(fh), [])]
        p = len(header) - 3
        if p < 1 or header != _expected_header(p):
            return None
        source, skip = fh, 0
        if (os.fstat(fh.fileno()).st_size >= _BULK_PATH_BYTES
                and path.suffix not in _DECOMPRESSED_SUFFIXES):
            source, skip = str(path), 1
        dtype = [("id", np.int64), ("t", np.int64), ("v", np.float64, (p + 1,))]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                rows = np.loadtxt(source, dtype=dtype, delimiter=",", comments=None,
                                  ndmin=1, skiprows=skip, encoding="utf-8-sig")
        except (ValueError, Warning):
            return None
    try:
        return _assemble(path, rows["id"], rows["t"], rows["v"])
    except PanelDataError:
        return None


def _assemble(path: Path, ident: np.ndarray, t: np.ndarray, values: np.ndarray) -> PanelDataset:
    """The panel of the rows ``(ident, t, values)``, ``values`` holding y, x1, ..., xp.

    Rows are grouped by id and sorted by t, by a stable lexsort unless they
    already are: with ids non-decreasing and t non-decreasing within each id
    that sort is the identity, so it and its gathers are skipped. Ids and row
    counts come from the starts of the runs of equal ids. Raises
    :class:`~felogit.errors.PanelDataError` when individuals have differing
    row counts; :class:`PanelDataset` checks everything else.
    """
    same = ident[1:] == ident[:-1]
    if not ((ident[1:] > ident[:-1]) | (same & (t[1:] >= t[:-1]))).all():
        order = np.lexsort((t, ident))
        ident, t, values = ident[order], t[order], values[order]
        same = ident[1:] == ident[:-1]
    starts = np.flatnonzero(np.concatenate(([True], ~same)))
    counts = np.diff(starts, append=ident.size)
    if (counts != counts[0]).any():
        raise PanelDataError(
            f"{path}: unbalanced or duplicated panel: individuals have differing"
            f" row counts {np.unique(counts).tolist()}"
        )
    shape = (starts.size, int(counts[0]))
    return PanelDataset(
        ids=ident[starts],
        periods=t.reshape(shape),
        covariates=values[:, 1:].reshape(*shape, -1),
        outcomes=values[:, 0].reshape(shape),
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
    values = np.column_stack([list(outcomes.values()), np.reshape(xs, (-1, p))])
    return _assemble(path, keys[:, 0], keys[:, 1], values)


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
    # rows of a validated panel need no second check
    sub = PanelDataset._unchecked(data.ids[mask], data.periods[mask],
                                  data.covariates[mask], data.outcomes[mask])
    # its cached totals are the parent's, and every one of its rows is informative
    sub.__dict__.update(choice_totals=_readonly(data.choice_totals[mask]),
                        informative_mask=_readonly(np.ones(sub.n, dtype=bool)))
    return sub, dropped
