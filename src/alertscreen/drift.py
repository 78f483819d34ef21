"""Adaptive-windowing change detection over the predicted-score stream.

Bounded-memory variant: the window is an exponential histogram with at
most M buckets per row, a bucket in row r aggregating 2**r values. On
every insertion the detector checks each bucket boundary as a candidate
cut; when the two sub-window means differ beyond a Hoeffding-style bound
(parameterized by delta and the harmonic mean of the sub-window sizes),
the oldest bucket is dropped and the check repeats until no cut violates
the bound.
"""

import math


class AdwinDetector:
    """Score-shift detector; one instance per run, single-threaded."""

    def __init__(self, delta=0.002, max_buckets_per_row=5):
        if not 0.0 < delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        self.delta = delta
        self.max_buckets_per_row = max_buckets_per_row
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

    def bucket_counts(self):
        """Bucket sizes oldest-first (the window's temporal resolution)."""
        out = []
        for r in range(len(self.rows) - 1, -1, -1):
            out.extend([1 << r] * len(self.rows[r]))
        return out

    def recount(self):
        """(count, sum) recomputed from the buckets, for consistency checks."""
        count = 0
        total = 0.0
        for r, row in enumerate(self.rows):
            count += (1 << r) * len(row)
            total += math.fsum(row)
        return count, total

    def update(self, value):
        """Insert one value in [0, 1]; True when the window shrank."""
        if not 0.0 <= value <= 1.0:
            raise ValueError("adwin input must lie in [0, 1]")
        self._insert(value)
        return self._shrink()

    def _insert(self, value):
        self.rows[0].append(value)
        self.total_count += 1
        self.total_sum += value
        # cascade compression: merge the two oldest buckets of a full row
        r = 0
        while len(self.rows[r]) > self.max_buckets_per_row:
            if r + 1 == len(self.rows):
                self.rows.append([])
            merged = self.rows[r][0] + self.rows[r][1]
            del self.rows[r][0:2]
            self.rows[r + 1].append(merged)
            r += 1

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
        changed = False
        while self.total_count >= 2 and self._violating_cut():
            self._drop_oldest_bucket()
            changed = True
        return changed

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

