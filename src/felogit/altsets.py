"""Enumerated alternative sets, for the individuals whose set is small.

For an individual with T periods and choice total k, the alternative set is
every binary sequence of length T summing to k, in lexicographic order. The
softmax moments over that set cost about C(T, k) (T + p) operations when
the set is enumerated, against T min(k, T - k) p^2 for the denominator
recursion in :mod:`felogit._kernels`, which also pays a Python-level step
per period. The estimator enumerates the sets with
C(T, k) (T + p) <= 8 T min(k, T - k) p (every set at T <= 5; k in {1, 13}
at T = 14, p = 3) and leaves the rest, of any size, to the recursion. It
enumerates each panel once and keeps the result for every later beta.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache

import numpy as np

from . import _kernels
from .panel import PanelDataset

# Measured when every Newton iterate rebuilt the enumeration, against the
# recursion's earlier rows-first layout with a Python step per (t, m), and
# kept since: the estimator now builds the enumeration once per panel, which
# favours it, and the rows-last recursion that advances every m of a period
# at once is much faster, which favours recursing. The rule prices the
# recursion at its depth min(k, T - k).
_ENUMERATION_ADVANTAGE = 8


def enumerable(T: int, k: int, p: int) -> bool:
    """Whether the softmax moments of the (T, k) set are cheaper enumerated."""
    depth = min(k, T - k)
    return 0 < k < T and math.comb(T, k) * (T + p) <= _ENUMERATION_ADVANTAGE * T * depth * p


@lru_cache(maxsize=32)
def _alternatives(T: int, k: int) -> np.ndarray:
    """All {0,1}^T rows with sum k, lexicographically ordered, as a read-only
    float (C(T,k), T) array. Callers ask only for small sets."""
    size = math.comb(T, k)
    # position tuples in ascending order correspond to vectors in descending
    # lexicographic order, so fill the rows back to front
    out = np.zeros((size, T))
    for j, ones in enumerate(itertools.combinations(range(T), k)):
        out[size - 1 - j, list(ones)] = 1.0
    out.setflags(write=False)
    return out


_INT64_MAX = int(np.iinfo(np.int64).max)


@lru_cache(maxsize=32)
def _pascal(T: int) -> np.ndarray:
    """C(a, b) for 0 <= a < T and 0 <= b <= T, as int64, capped at its maximum.

    A capped entry is never a term of a position, because each term is at
    most the position, below C(T, k), and callers ask only for sets small
    enough to enumerate (k = 1 at T = 100, say, whose table holds C(99, 49)).
    """
    return np.array([[min(math.comb(a, b), _INT64_MAX) for b in range(T + 1)]
                     for a in range(T)], dtype=np.int64)


def observed_row_index(outcomes):
    """Position of the observed sequence inside its lexicographic alternative set.

    ``outcomes`` is one 0/1 sequence of length T or an (n, T) array of them,
    one position per row. Computed combinatorially, without enumeration: the
    position is the number of sequences with the same total that are
    lexicographically smaller, which is the sum over the periods t with
    y_t = 1 of C(T - 1 - t, number of ones at t or later).
    """
    y = np.asarray(outcomes) != 0
    T = y.shape[-1]
    later = np.cumsum(y[..., ::-1], axis=-1)[..., ::-1]
    terms = np.where(y, _pascal(T)[T - 1 - np.arange(T), later], 0)
    return terms.sum(axis=-1)


def attribute_batches(data: PanelDataset):
    """Enumerate the small alternative sets, grouped by choice total.

    Covers the informative individuals whose choice total is
    :func:`enumerable`. Yields tuples ``(indices, alts, attrs, obs_index)``
    where ``indices`` are row positions into ``data``, ``alts`` is the
    (r, T) alternative matrix for that choice total, ``attrs`` the (nk, r, p)
    per-alternative attribute vectors, and ``obs_index`` the (nk,) position
    of each observed sequence inside ``alts``. The attribute vectors are
    sum_t d_t (x_t - x_1), from period differences: the shift k x_1 is the
    same for every alternative, so no difference between alternatives
    changes, and a covariate constant over time comes out exactly zero.

    The sum runs over the periods in order, on a rows-last (T, p, nk) copy
    of the differences, so each step adds whole rows of individuals and
    every cell's bits are the plain left-to-right sum, whatever the chunk.
    ``attrs`` is an (nk, r, p) view of the (r, p, nk) C-ordered result,
    which the caller owns. Groups are split into chunks whose attribute
    block holds at most ``_kernels._BATCH_CELL_BUDGET`` cells: the fewest
    that do, of sizes that differ by at most one row.
    """
    totals = data.choice_totals
    mask = data.informative_mask
    T, p = data.T, data.p
    for kval in np.unique(totals[mask]):
        kval = int(kval)
        if not enumerable(T, kval, p):
            continue
        alts = _alternatives(T, kval)
        idx = np.flatnonzero(mask & (totals == kval))
        chunk = max(1, _kernels._BATCH_CELL_BUDGET // (alts.shape[0] * p))
        for part in np.array_split(idx, -(-idx.size // chunk)):
            X = data.covariates[part].transpose(1, 2, 0)  # (T, p, nk)
            Xd = np.subtract(X, X[:1], out=np.empty(X.shape))
            acc = alts[:, 0, None, None] * Xd[0]
            for t in range(1, T):
                acc += alts[:, t, None, None] * Xd[t]
            obs_index = observed_row_index(data.outcomes[part])
            yield part, alts, acc.transpose(2, 0, 1), obs_index
