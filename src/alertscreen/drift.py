"""Adaptive-windowing change detection over the predicted-score stream.

Bounded-memory variant: the window is an exponential histogram with at
most M buckets per row, a bucket in row r aggregating 2**r values. On
every insertion the detector checks each bucket boundary as a candidate
cut; when the two sub-window means differ beyond a Hoeffding-style bound
(parameterized by delta and the harmonic mean of the sub-window sizes),
the oldest bucket is dropped and the check repeats until no cut violates
the bound.

`update` takes a batch of values and checks the cuts after every one of
its insertions in one array pass; the results are bit-identical to
inserting and checking one value at a time.
"""

import math

import numpy as np

# M: the most buckets a row keeps; one more merges its two oldest
MAX_BUCKETS_PER_ROW = 5
# steps checked per array pass: bounds the (steps x buckets) arrays of a long batch
_BLOCK_STEPS = 1024


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

    @property
    def width(self):
        return self.total_count

    @property
    def mean(self):
        return self.total_sum / self.total_count if self.total_count else 0.0

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
        row r is a FIFO pool of its L0 initial buckets followed by the sums
        that arrive in it, one per step at most, and it merges its two
        oldest buckets at arrival M + 1 - L0 and every second arrival after.
        So each row's buckets at every step gather into one (M x steps)
        array, and the cuts of all steps are checked at once with the float
        operations of `_violating_cut` in the same order. Leaves the state
        as of that step and returns its index, or as of the last step and
        returns None.
        """
        m = MAX_BUCKETS_PER_ROW
        steps = np.arange(values.size)
        slots = np.arange(m)[:, None]
        arrivals, incoming = steps, values  # arrival steps and sums of the current row
        moving = []  # rows that receive buckets, newest first: (pool, head, length, arrived)
        while incoming.size:
            r = len(moving)
            initial = self.rows[r] if r < len(self.rows) else []
            pool = np.concatenate((initial, incoming, np.zeros(m)))
            arrived = np.searchsorted(arrivals, steps, side="right")
            first = m + 1 - len(initial)  # arrival count at the row's first merge
            head = np.maximum(arrived - first + 2, 0) // 2 * 2
            moving.append((pool, head, len(initial) + arrived - head, arrived))
            n_merged = int(head[-1]) // 2
            arrivals = arrivals[first - 1 + 2 * np.arange(n_merged)]
            incoming = pool[0 : 2 * n_merged : 2] + pool[1 : 2 * n_merged : 2]

        # One slot per bucket position, oldest first: first the buckets of the
        # rows above, which stay put, then each moving row's M positions.
        still = range(len(self.rows) - 1, len(moving) - 1, -1)
        fixed = np.array([s for r in still for s in self.rows[r]])[:, None]
        fixed_n0 = np.cumsum([1 << r for r in still for _ in self.rows[r]], dtype=float)[:, None]
        shape = (fixed.shape[0], values.size)
        sums = [np.broadcast_to(fixed, shape)]
        present = [np.ones(shape, dtype=bool)]
        n0 = [np.broadcast_to(fixed_n0, shape)]
        older = np.full(values.size, fixed_n0[-1, 0] if fixed_n0.size else 0.0)  # values above
        for r in range(len(moving) - 1, -1, -1):
            pool, head, length, _ = moving[r]
            sums.append(pool[head + slots])
            present.append(slots < length)
            n0.append(older + (slots + 1.0) * (1 << r))
            older = older + length * (1 << r)
        present = np.concatenate(present)
        s0 = np.cumsum(np.where(present, np.concatenate(sums), 0.0), axis=0)
        n0 = np.concatenate(n0)
        n = self.total_count + 1.0 + steps
        n1 = n - n0
        totals = np.cumsum(np.concatenate(([self.total_sum], values)))[1:]
        # math.log as in _violating_cut: np.log may differ in the last bit
        cap = np.array([math.log(x) for x in (4.0 * n / self.delta).tolist()])
        with np.errstate(divide="ignore", invalid="ignore"):  # n1 <= 0 past the newest bucket
            diff = s0 / n0 - (totals - s0) / n1
            eps_sq = 0.5 * (1.0 / n0 + 1.0 / n1) * cap
        violating = (present & (n1 > 0) & (diff * diff > eps_sq)).any(axis=0)
        hit = int(violating.argmax()) if violating.any() else None

        last = values.size - 1 if hit is None else hit
        self.rows = [
            pool[head[last] : head[last] + length[last]].tolist()
            for r, (pool, head, length, arrived) in enumerate(moving)
            if r < len(self.rows) or arrived[last]
        ] + self.rows[len(moving) :]
        self.total_count += last + 1
        self.total_sum = float(totals[last])
        return hit

    def _drop_oldest_bucket(self):
        r = len(self.rows) - 1
        while not self.rows[r]:
            r -= 1
        dropped = self.rows[r].pop(0)
        self.total_count -= 1 << r
        self.total_sum -= dropped
        while len(self.rows) > 1 and not self.rows[-1]:
            self.rows.pop()

    def _shrink(self):
        while self.total_count >= 2 and self._violating_cut():
            self._drop_oldest_bucket()

    def _violating_cut(self):
        # Walk bucket boundaries oldest-first, growing the old sub-window.
        n = self.total_count
        total = self.total_sum
        cap = math.log(4.0 * n / self.delta)
        n0 = 0
        s0 = 0.0
        rows = self.rows
        for r in range(len(rows) - 1, -1, -1):
            size = 1 << r
            for s in rows[r]:
                n0 += size
                n1 = n - n0
                if n1 <= 0:
                    return False
                s0 += s
                diff = s0 / n0 - (total - s0) / n1
                eps_sq = 0.5 * (1.0 / n0 + 1.0 / n1) * cap
                if diff * diff > eps_sq:
                    return True
        return False

