"""Query-batch selection policies over the recent-event buffer.

Four policies: uniform random, threshold-relative uncertainty (smallest
|p - theta|), high-score (largest p), and hybrid (half uncertainty, half
high-score with dedup). All ties break by buffer index ascending so
selections are reproducible.
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

    order_idx = np.arange(n)
    if policy == "random":
        chosen = rng.choice(n, size=budget, replace=False)
    elif policy == "uncertainty":
        chosen = np.lexsort((order_idx, np.abs(scores - theta)))[:budget]
    elif policy == "high-score":
        chosen = np.lexsort((order_idx, -scores))[:budget]
    else:
        # hybrid: floor(budget/2) by smallest |p - theta|, the remainder by
        # largest p among events not already chosen (dedup); budget < n, so
        # the high-score remainder always fills the budget
        unc = np.lexsort((order_idx, np.abs(scores - theta)))[: budget // 2]
        hi = np.lexsort((order_idx, -scores))
        chosen = np.concatenate([unc, hi[~np.isin(hi, unc)][: budget - unc.size]])
    return QueryBatch(chosen.tolist())
