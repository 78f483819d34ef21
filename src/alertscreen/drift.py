"""Adaptive-windowing change detection over the predicted-score stream.

Bounded-memory variant: the window is an exponential histogram with at
most M buckets per row, a bucket in row r aggregating 2**r values. On
every insertion the detector checks each bucket boundary as a candidate
cut; when the two sub-window means differ beyond a Hoeffding-style bound
(parameterized by delta and the harmonic mean of the sub-window sizes),
the oldest bucket is dropped and the check repeats until no cut violates
the bound.

`update` checks the cuts after every insertion of a batch in one array
pass, bit-identical to inserting and checking one value at a time;
`_violating` is the one cut test, for that pass and for the shrink.
"""

import math

import numpy as np

# M: the most buckets a row keeps; one more merges its two oldest
MAX_BUCKETS_PER_ROW = 5
# steps checked per array pass: bounds the (steps x buckets) arrays of a long batch
_BLOCK_STEPS = 1024


def _violating(s0, n0, n, total, present, delta):
    """Whether a cut of each window (column) violates the bound.

    Row k of `s0`, `n0` and `present`: sum, count and presence of the window's
    k + 1 oldest bucket positions. `n` and `total`: the window's count and sum.
    """
    # math.log, not np.log: the two may differ in the last bit
    cap = np.array([math.log(x) for x in (4.0 * n / delta).tolist()])
    n1 = n - n0
    with np.errstate(divide="ignore", invalid="ignore"):  # n1 <= 0 past the newest bucket
        diff = s0 / n0 - (total - s0) / n1
        eps_sq = 0.5 * (1.0 / n0 + 1.0 / n1) * cap
    return (present & (n1 > 0) & (diff * diff > eps_sq)).any(axis=0)


class AdwinDetector:
    """Score-shift detector; one instance per run, single-threaded."""

    def __init__(self, delta):
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        self.delta = delta
        # rows[r] lists bucket sums oldest-first; each covers 2**r values
        self.rows = [[]]
        self.total_count = 0
        self.total_sum = 0.0

    def update(self, values):
        """Insert a batch of values in [0, 1] (a bare float is a batch of one).

        Returns the number of insertions after which the window shrank. The
        result and the final state are bit-identical to inserting the values
        one at a time and checking every cut after each insertion.
        """
        values = np.asarray(values, dtype=np.float64).reshape(-1)
        if not np.all((values >= 0.0) & (values <= 1.0)):
            raise ValueError("adwin input must lie in [0, 1]")
        detections = 0
        start = 0
        while start < values.size:
            block = values[start : start + _BLOCK_STEPS]
            hit = self._advance(block)
            if hit is None:
                start += block.size
            else:
                self._shrink()
                detections += 1
                start += hit + 1
        return detections

    def _advance(self, values):
        """Insert values up to the first step whose window has a violating cut.

        Between detections the bucket layout does not depend on the values:
        every row r is a FIFO pool of its L0 initial buckets followed by the
        sums that arrive in it, one per step at most, and it merges its two
        oldest buckets at arrival M + 1 - L0 and every second arrival after.
        So each row's buckets at every step gather into one (M x steps)
        array, and `_violating` checks the cuts of all steps at once. Leaves
        the state as of that step and returns its index, or as of the last
        step and returns None.
        """
        m = MAX_BUCKETS_PER_ROW
        steps = np.arange(values.size)
        slots = np.arange(m)[:, None]
        arrivals, incoming = steps, values  # arrival steps and sums of the current row
        pools = []  # every row, newest first: (pool, head, length, arrived)
        while incoming.size or len(pools) < len(self.rows):
            initial = self.rows[len(pools)] if len(pools) < len(self.rows) else []
            pool = np.concatenate((initial, incoming, np.zeros(m)))
            arrived = np.searchsorted(arrivals, steps, side="right")
            first = m + 1 - len(initial)  # arrival count at the row's first merge
            head = np.maximum(arrived - first + 2, 0) // 2 * 2
            pools.append((pool, head, len(initial) + arrived - head, arrived))
            n_merged = int(head[-1]) // 2
            arrivals = arrivals[first - 1 + 2 * np.arange(n_merged)]
            incoming = pool[0 : 2 * n_merged : 2] + pool[1 : 2 * n_merged : 2]

        # One slot per bucket position, oldest first: each row's M positions.
        sums, present, n0 = [], [], []
        older = np.zeros(values.size)  # values in the rows above
        for r in range(len(pools) - 1, -1, -1):
            pool, head, length, _ = pools[r]
            sums.append(pool[head + slots])
            present.append(slots < length)
            n0.append(older + (slots + 1.0) * (1 << r))
            older = older + length * (1 << r)
        present = np.concatenate(present)
        s0 = np.cumsum(np.where(present, np.concatenate(sums), 0.0), axis=0)
        n = self.total_count + 1.0 + steps
        totals = np.cumsum(np.concatenate(([self.total_sum], values)))[1:]
        violating = _violating(s0, np.concatenate(n0), n, totals, present, self.delta)
        hit = int(violating.argmax()) if violating.any() else None

        last = values.size - 1 if hit is None else hit
        self.rows = [
            pool[head[last] : head[last] + length[last]].tolist()
            for r, (pool, head, length, arrived) in enumerate(pools)
            if r < len(self.rows) or arrived[last]
        ]
        self.total_count += last + 1
        self.total_sum = float(totals[last])
        return hit

    def _shrink(self):
        # Every drop count j at once: column j is the window less its j oldest
        # buckets. The last column, one bucket, has no cut, so argmin finds the stop.
        sums = np.array([s for row in reversed(self.rows) for s in row])
        sizes = np.array([1 << r for r in reversed(range(len(self.rows))) for _ in self.rows[r]])
        kept = np.arange(sums.size)[:, None] >= np.arange(sums.size)
        s0 = np.cumsum(np.where(kept, sums[:, None], 0.0), axis=0)
        n0 = np.cumsum(np.where(kept, sizes[:, None], 0), axis=0)
        n = self.total_count - np.concatenate(([0], np.cumsum(sizes)[:-1]))
        total = np.subtract.accumulate(np.concatenate(([self.total_sum], sums[:-1])))
        j = int(_violating(s0, n0, n, total, kept, self.delta).argmin())
        # the oldest bucket kept sits in the top row; a row below it may be empty
        top = int(sizes[j]).bit_length()
        self.rows = [sums[j:][sizes[j:] == 1 << r].tolist() for r in range(top)]
        self.total_count, self.total_sum = int(n[j]), float(total[j])
