"""Query-batch selection policies over the recent-event buffer.

Four policies: uniform random, threshold-relative uncertainty (smallest
|p - theta|), high-score (largest p), and hybrid (half uncertainty, half
high-score with dedup). All ties break by buffer index ascending so
selections are reproducible.
"""

from dataclasses import dataclass, field

import numpy as np

POLICIES = ("random", "uncertainty", "high-score", "hybrid")


@dataclass
class QueryBatch:
    indices: list
    short: bool = False


def select_query_batch(scores, theta, budget, policy, rng):
    """Pick up to ``budget`` buffer positions under the given policy.

    A budget larger than the buffer returns the whole buffer flagged short.
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
        return QueryBatch(list(range(n)), short=budget > n)

    order_idx = np.arange(n)
    if policy == "random":
        picked = rng.choice(n, size=budget, replace=False)
        return QueryBatch([int(i) for i in picked])
    if policy == "uncertainty":
        order = np.lexsort((order_idx, np.abs(scores - theta)))
        return QueryBatch([int(i) for i in order[:budget]])
    if policy == "high-score":
        order = np.lexsort((order_idx, -scores))
        return QueryBatch([int(i) for i in order[:budget]])

    # hybrid: floor(budget/2) by smallest |p - theta|, the remainder by
    # largest p among events not already chosen (dedup); budget < n, so
    # the high-score remainder always fills the budget
    unc = np.lexsort((order_idx, np.abs(scores - theta)))[: budget // 2]
    hi = np.lexsort((order_idx, -scores))
    chosen = np.concatenate([unc, hi[~np.isin(hi, unc)][: budget - unc.size]])
    return QueryBatch([int(i) for i in chosen])


@dataclass
class ReplayBuffer:
    """Last ``capacity`` labeled examples, oldest evicted first."""

    capacity: int = 512
    features: list = field(default_factory=list)
    labels: list = field(default_factory=list)

    def __len__(self):
        return len(self.labels)

    def extend(self, X, y):
        for row, label in zip(np.asarray(X), np.asarray(y)):
            self.features.append(np.array(row, dtype=np.float64))
            self.labels.append(int(label))
        excess = len(self.labels) - self.capacity
        if excess > 0:
            del self.features[:excess]
            del self.labels[:excess]

    def sample(self, k, rng):
        k = min(k, len(self.labels))
        if k == 0:
            return np.empty((0, 0)), np.empty(0, dtype=np.int64)
        picked = rng.choice(len(self.labels), size=k, replace=False)
        X = np.stack([self.features[i] for i in picked])
        y = np.array([self.labels[i] for i in picked], dtype=np.int64)
        return X, y


def mix_with_replay(X_queried, y_queried, replay_buffer, ratio, rng):
    """Queried labels plus a replay sample; extends the buffer afterwards.

    The replay sample is uniform without replacement, sized
    round(ratio * |queried|) and capped at the buffer's current size.
    Returns (X, y, n_replayed).
    """
    if not 0.0 <= ratio <= 1.0:
        raise ValueError("replay ratio must lie in [0, 1]")
    X_queried = np.asarray(X_queried, dtype=np.float64)
    y_queried = np.asarray(y_queried)
    k = int(round(ratio * y_queried.size))
    X_rep, y_rep = replay_buffer.sample(k, rng)
    replay_buffer.extend(X_queried, y_queried)
    if y_rep.size == 0:
        return X_queried, y_queried, 0
    X = np.concatenate([X_queried, X_rep], axis=0)
    y = np.concatenate([y_queried, y_rep])
    return X, y, int(y_rep.size)
