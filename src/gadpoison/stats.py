"""Monte-Carlo two-sample permutation test on the difference of means."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import derive_rng

# resampled values held at once: each costs 24 bytes across the random
# keys, their argsort and the gathered values
CHUNK_ELEMENTS = 1_000_000


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
    rng = derive_rng(seed, "permutation_test", len(x), len(y), m)
    nx = len(x)
    hits = 0
    # chunked to bound memory at large m; rows are drawn in order, so the
    # chunk size does not change the random stream
    chunk = max(1, min(m, CHUNK_ELEMENTS // len(pooled)))
    done = 0
    while done < m:
        k = min(chunk, m - done)
        idx = np.argsort(rng.random((k, len(pooled))), axis=1)
        perms = pooled[idx]
        t = np.abs(perms[:, :nx].mean(axis=1) - perms[:, nx:].mean(axis=1))
        hits += int(np.sum(t >= t0))
        done += k
    return PermTestResult(t0=float(t0), p_value=hits / m, m=m)
