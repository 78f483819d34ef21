"""Query-batch selection policies over the recent-event buffer.

Uniform random, or one ranked rule: the first k picks by smallest
|p - theta|, the rest of the budget by largest p among events not yet
chosen. Hybrid takes k = budget // 2; uncertainty (k = budget) and
high-score (k = 0) are its two extremes. Stable sorts break every tie by
buffer index ascending, so selections are reproducible.
"""

from dataclasses import dataclass

import numpy as np

POLICIES = ("random", "uncertainty", "high-score", "hybrid")


@dataclass
class QueryBatch:
    indices: list


def select_query_batch(scores, theta, budget, policy, rng):
    """Pick up to ``budget`` buffer positions under the given policy.

    A budget at or above the buffer size returns the whole buffer.
    """
    if policy not in POLICIES:
        raise ValueError(f"unknown acquisition policy: {policy!r}")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    scores = np.asarray(scores, dtype=np.float64)
    n = scores.size
    if budget == 0:
        return QueryBatch([])
    if budget >= n:
        return QueryBatch(list(range(n)))
    if policy == "random":
        return QueryBatch(rng.choice(n, size=budget, replace=False).tolist())
    k = {"uncertainty": budget, "high-score": 0, "hybrid": budget // 2}[policy]
    near = np.argsort(np.abs(scores - theta), kind="stable")[:k]
    high = np.argsort(-scores, kind="stable")
    chosen = np.concatenate([near, high[~np.isin(high, near)][: budget - k]])
    return QueryBatch(chosen.tolist())
