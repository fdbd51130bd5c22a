"""Enumerated alternative sets for the Hessian, and the denominator recursion.

For an individual with T periods and choice total k, the alternative set is
every binary sequence of length T summing to k. Sequences are enumerated in
lexicographic order so that indexing is deterministic. Only the Hessian
enumerates, and only up to C(T,k) <= 10**6; the likelihood denominator never
needs enumeration thanks to the recursion in :mod:`felogit._kernels`.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from ._kernels import logdenom_batch
from .errors import AlternativeSetTooLargeError
from .panel import IndividualSlice, PanelDataset

_MAX_ALTERNATIVES = 1_000_000
_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)


@lru_cache(maxsize=256)
def _alternatives(T: int, k: int) -> np.ndarray:
    """All {0,1}^T rows with sum k, lexicographically ordered, as a read-only
    float (C(T,k), T) array."""
    size = math.comb(T, k)
    if size > _MAX_ALTERNATIVES:
        raise AlternativeSetTooLargeError(
            f"alternative set too large for the enumerated Hessian "
            f"(C({T},{k}) = {size} > {_MAX_ALTERNATIVES})"
        )
    # position tuples in ascending order correspond to vectors in descending
    # lexicographic order, so fill the rows back to front
    out = np.zeros((size, T))
    for j, ones in enumerate(itertools.combinations(range(T), k)):
        for t in ones:
            out[size - 1 - j, t] = 1.0
    out.setflags(write=False)
    return out


def denominator_dp(slc: IndividualSlice, beta) -> tuple[float, np.ndarray]:
    """Conditional-likelihood denominator and its gradient for one individual.

    Computes sum over the alternative set of exp(sum_t d_t x_t'beta) and the
    gradient of that sum, via the log-scaled recursion. At beta = 0 the value
    is exactly C(T, k). Requires an informative slice and finite beta, and
    raises ``ValueError`` when the value or its gradient overflows float64.
    """
    if not slc.informative:
        raise ValueError("denominator_dp requires an informative slice")
    beta = _validate_beta(beta, slc.p)
    scores = slc.covariates @ beta
    k = slc.choice_total
    ld, mean = logdenom_batch(scores[None, :], slc.covariates[None], np.array([k]))
    if ld[0] + math.log(max(1.0, float(np.abs(mean).max()))) > _LOG_FLOAT_MAX:
        raise ValueError(f"denominator or its gradient overflows float64: log D = {ld[0]:.6g}")
    if np.all(scores == scores[0]):
        # equal scores: D = C(T,k) * exp(k * s); exact at beta = 0
        value = float(math.comb(slc.T, k)) * math.exp(k * scores[0])
    else:
        value = math.exp(ld[0])
    return value, value * mean[0]


def _validate_beta(beta, p: int) -> np.ndarray:
    beta = np.asarray(beta, dtype=np.float64).reshape(-1)
    if beta.shape != (p,):
        raise ValueError(f"beta has length {beta.shape[0]}, expected {p}")
    if not np.isfinite(beta).all():
        raise ValueError("beta must be finite")
    return beta


def observed_row_index(outcomes) -> int:
    """Position of the observed sequence inside its lexicographic alternative set.

    Computed combinatorially (no enumeration): the lexicographic rank of the
    one-positions among ascending combinations, reflected because ascending
    position tuples map to descending vectors.
    """
    y = np.asarray(outcomes)
    T = y.shape[0]
    ones = np.flatnonzero(y)
    k = ones.shape[0]
    rank = 0
    prev = -1
    for i, pos in enumerate(ones):
        for v in range(prev + 1, int(pos)):
            rank += math.comb(T - 1 - v, k - 1 - i)
        prev = int(pos)
    return math.comb(T, k) - 1 - rank


_BATCH_CELL_BUDGET = 4_000_000  # cap on r * chunk rows held in memory at once


def attribute_batches(data: PanelDataset):
    """Group informative individuals by choice total and enumerate once per group.

    Yields tuples ``(indices, alts, attrs, obs_index)`` where ``indices`` are
    row positions into ``data``, ``alts`` is the (r, T) alternative matrix for
    that choice total, ``attrs`` the (nk, r, p) per-alternative attribute
    vectors, and ``obs_index`` the (nk,) position of each observed sequence
    inside ``alts``. Groups with large alternative sets are split into chunks
    so the attribute block stays within a fixed memory budget. Raises
    :class:`~felogit.errors.AlternativeSetTooLargeError` above 10**6
    alternatives.
    """
    totals = data.choice_totals
    mask = data.informative_mask
    T = data.T
    for kval in np.unique(totals[mask]):
        kval = int(kval)
        alts = _alternatives(T, kval)
        idx = np.flatnonzero(mask & (totals == kval))
        chunk = max(1, _BATCH_CELL_BUDGET // alts.shape[0])
        for start in range(0, idx.shape[0], chunk):
            part = idx[start:start + chunk]
            attrs = np.einsum("rt,itp->irp", alts, data.covariates[part])
            obs_index = np.array(
                [observed_row_index(data.outcomes[i]) for i in part], dtype=np.int64
            )
            yield part, alts, attrs, obs_index
