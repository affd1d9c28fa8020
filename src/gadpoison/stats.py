"""Monte-Carlo two-sample permutation test on the difference of means."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import derive_rng

# resampled values held at once: each costs 16 bytes, its random key and
# its slot in a second buffer, which finds the row's cut and then holds the
# row's 0/1 marks; 2^16 keeps both buffers (0.5 MiB each) in a core's L2
CHUNK_ELEMENTS = 1 << 16


@dataclass(frozen=True)
class PermTestResult:
    t0: float
    p_value: float
    m: int


def permutation_test(x, y, m: int = 100_000, seed: int = 0) -> PermTestResult:
    """Approximate p-value for t0 = |mean(x) - mean(y)|.

    Each of the m resamples shuffles the pooled values and splits them
    back into the original sizes; the p-value is the fraction of
    resampled statistics t >= t0 (non-strict, so identical samples give
    p = 1 exactly).

    A resample draws one uniform key per pooled value, and its first
    half is the len(x) values of smallest key. A partition finds each
    row's cut, the len(x)-th smallest key, in O(n); one matrix-vector
    product sums the values whose key is at most the cut, and the second
    half's sum is the total minus that. A row whose cut key is tied is
    split by an argsort of its keys instead. On integer-valued samples
    every sum is exact (below 2**53), so the split alone decides t.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if len(x) < 1 or len(y) < 1 or m < 1:
        raise ValueError("need nonempty samples and m >= 1")
    for name, sample in (("x", x), ("y", y)):
        if not np.isfinite(sample).all():
            raise ValueError(f"sample {name} contains NaN or inf")
    t0 = abs(x.mean() - y.mean())
    pooled = np.concatenate([x, y])
    total = pooled.sum()
    rng = derive_rng(seed, "permutation_test", len(x), len(y), m)
    nx, ny = len(x), len(y)
    hits = 0
    # chunked to bound memory at large m; rows are drawn in order, so the
    # chunk size does not change the random stream
    chunk = max(1, min(m, CHUNK_ELEMENTS // len(pooled)))
    keys, marks = np.empty((chunk, len(pooled))), np.empty((chunk, len(pooled)))
    done = 0
    while done < m:
        k = min(chunk, m - done)
        kk, mk = keys[:k], marks[:k]
        rng.random(out=kk)
        np.copyto(mk, kk)
        mk.partition(nx - 1, axis=1)
        cut = mk[:, nx - 1].copy()
        # the keys partitioned past the cut are >= it; one equal to it ties
        tied = np.flatnonzero(mk[:, nx:].min(axis=1) == cut)
        np.less_equal(kk, cut[:, None], out=mk)
        sx = mk @ pooled
        t = np.abs(sx / nx - (total - sx) / ny)
        for r in tied:
            perm = pooled[np.argsort(kk[r])]
            t[r] = abs(perm[:nx].mean() - perm[nx:].mean())
        hits += int(np.sum(t >= t0))
        done += k
    return PermTestResult(t0=float(t0), p_value=hits / m, m=m)
