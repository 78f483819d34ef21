"""Independent reference implementations used as test oracles.

Everything here is deliberately written from first principles (stored-value
windows, exhaustive scans, sorted-list selection, high-precision finite
differences) and stays independent of the implementation paths it checks.
The exceptions are `SequentialAdwin`, the per-value bucketed detector kept
unchanged as the exactness reference for the batched one, and
`reference_missed_positive_stats`, the per-positive loop kept the same way
for the array pass of `metrics.missed_positive_stats`, and
`reference_best_split`, the per-feature histogram scan kept for the matrix
pass of `gbt.find_best_split`.
"""

import math
from collections import namedtuple

import mpmath as mp
import numpy as np


class ExhaustiveAdwin:
    """Change detector that stores every value and checks every cut.

    Same confidence bound as the production detector, but with no
    bucketing: the window is a plain list and every split position is a
    candidate cut. Memory and time are unbounded; use on short streams.
    """

    def __init__(self, delta=0.002):
        self.delta = delta
        self.values = []

    @property
    def width(self):
        return len(self.values)

    def update(self, value):
        self.values.append(value)
        changed = False
        while len(self.values) >= 2 and self._violates():
            self.values.pop(0)
            changed = True
        return changed

    def _violates(self):
        v = np.asarray(self.values)
        n = v.size
        cap = math.log(4.0 * n / self.delta)
        csum = np.cumsum(v)
        n0 = np.arange(1, n)
        n1 = n - n0
        diff = csum[:-1] / n0 - (csum[-1] - csum[:-1]) / n1
        eps_sq = 0.5 * (1.0 / n0 + 1.0 / n1) * cap
        return bool((diff * diff > eps_sq).any())


def bucket_counts(detector):
    """Bucket sizes oldest-first (the window's temporal resolution)."""
    out = []
    for r in range(len(detector.rows) - 1, -1, -1):
        out.extend([1 << r] * len(detector.rows[r]))
    return out


def recount(detector):
    """(count, sum) recomputed from a detector's buckets, for consistency checks."""
    count = 0
    total = 0.0
    for r, row in enumerate(detector.rows):
        count += (1 << r) * len(row)
        total += math.fsum(row)
    return count, total


class SequentialAdwin:
    """The bucketed detector, inserting and checking one value at a time.

    Reference for the batched `AdwinDetector.update`: same buckets, same
    bound, same float operations in the same order, so the two must agree
    exactly on every stream and every split of it into batches.
    """

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


def focal_loss_mp(z, y, alpha, gamma):
    """Focal loss at log-odds z, evaluated in arbitrary precision."""
    p = 1 / (1 + mp.e ** (-z))
    pt = p if y == 1 else 1 - p
    at = mp.mpf(alpha) if y == 1 else 1 - mp.mpf(alpha)
    return -at * (1 - pt) ** mp.mpf(gamma) * mp.log(pt)


def focal_fd_grad_hess(p, y, alpha, gamma, h=1e-6, dps=50):
    """Central finite differences of the focal loss w.r.t. log-odds.

    Evaluated at ``dps`` decimal digits so the h=1e-6 second difference is
    limited by truncation (~h^2), not by rounding.
    """
    with mp.workdps(dps):
        z = mp.log(mp.mpf(p) / (1 - mp.mpf(p)))
        step = mp.mpf(h)
        up = focal_loss_mp(z + step, y, alpha, gamma)
        mid = focal_loss_mp(z, y, alpha, gamma)
        down = focal_loss_mp(z - step, y, alpha, gamma)
        grad = (up - down) / (2 * step)
        hess = (up - 2 * mid + down) / step**2
        return float(grad), float(hess)


def brute_force_best_split(X, g, h, l2_reg, min_child_weight, thresholds_per_feature):
    """Exhaustive best (feature, threshold, gain) scan.

    Same gain formula and tie-break (smallest feature, then smallest
    threshold, strictly positive gain) computed directly from row sums.
    """
    g_total = g.sum()
    h_total = h.sum()
    parent = g_total * g_total / (h_total + l2_reg)
    best = None
    best_gain = 0.0
    for f in range(X.shape[1]):
        for thr in thresholds_per_feature[f]:
            left = X[:, f] < thr
            h_left = h[left].sum()
            h_right = h_total - h_left
            if h_left < min_child_weight or h_right < min_child_weight:
                continue
            g_left = g[left].sum()
            g_right = g_total - g_left
            gain = 0.5 * (
                g_left * g_left / (h_left + l2_reg)
                + g_right * g_right / (h_right + l2_reg)
                - parent
            )
            if gain > best_gain:
                best_gain = gain
                best = (f, float(thr), gain)
    return best


def reference_best_split(binned, g, h, rows, feat_ids, n_bins, l2_reg, min_child_weight):
    """Best (feature, bin, gain) by one histogram scan per feature, or None.

    The per-feature loop that `gbt.find_best_split` replaced; its matrix
    pass must equal this bit for bit. ``binned`` holds one row of bin
    numbers per feature. Each feature's first-found best cut is first
    taken under the min_child_weight mask alone; only when that cut has an
    empty side, a side with h + l2_reg not positive, or a non-finite gain
    is every such cut masked and the search redone.
    """
    g_rows = g[rows]
    h_rows = h[rows]
    g_total = g_rows.sum()
    h_total = h_rows.sum()
    parent = g_total * g_total / (h_total + l2_reg)
    best_gain = 0.0
    best = None
    for f in feat_ids:
        nb = n_bins[f]
        if nb < 2:
            continue
        bf = binned[f][rows]
        hist_g = np.bincount(bf, weights=g_rows, minlength=nb)
        hist_h = np.bincount(bf, weights=h_rows, minlength=nb)
        g_left = np.cumsum(hist_g)[:-1]
        h_left = np.cumsum(hist_h)[:-1]
        g_right = g_total - g_left
        h_right = h_total - h_left
        ok = (h_left >= min_child_weight) & (h_right >= min_child_weight)
        if not ok.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            gains = 0.5 * (
                g_left * g_left / (h_left + l2_reg)
                + g_right * g_right / (h_right + l2_reg)
                - parent
            )
        gains[~ok] = -np.inf
        b = int(np.argmax(gains))
        if gains[b] <= best_gain:  # a NaN, which argmax returns first, is checked below
            continue
        valid = h_left[b] > 0 and h_right[b] + l2_reg > 0 and hist_h[b + 1 :].any()
        if not (valid and math.isfinite(gains[b])):
            occupied = np.flatnonzero(hist_h)
            ok[: occupied[0]] = ok[occupied[-1] :] = False  # a side without rows
            gains[~(ok & (h_right + l2_reg > 0))] = -np.inf
            b = int(np.argmax(gains))
            if not gains[b] > best_gain:
                continue
        best_gain = float(gains[b])
        best = (f, b, best_gain)
    return best


def oracle_select(scores, theta, budget, policy):
    """Sorted-list reimplementation of the deterministic query policies."""
    n = len(scores)
    if budget <= 0:
        return []
    if budget >= n:
        return list(range(n))
    if policy == "uncertainty":
        return sorted(range(n), key=lambda i: (abs(scores[i] - theta), i))[:budget]
    if policy == "high-score":
        return sorted(range(n), key=lambda i: (-scores[i], i))[:budget]
    if policy == "hybrid":
        k = budget // 2
        unc = sorted(range(n), key=lambda i: (abs(scores[i] - theta), i))[:k]
        taken = set(unc)
        rest = [i for i in sorted(range(n), key=lambda i: (-scores[i], i)) if i not in taken]
        return unc + rest[: budget - k]
    raise ValueError(policy)


def reference_threshold(scores, labels, policy, grid_points, min_recall):
    """Operating threshold from a full confusion recount at every grid theta.

    max-f1 keeps the first grid theta whose F1 beats every smaller one;
    recall-constrained scans the grid downward for the first theta whose
    recall is at least ``min_recall`` times the recall at the max-F1 theta.
    """
    scores = np.asarray(scores)
    pos = np.asarray(labels) == 1
    if not pos.any():
        raise ValueError("threshold undefined: validation tail contains no positives")
    grid = np.arange(grid_points) / (grid_points - 1)

    def f1_and_recall(theta):
        yhat = scores >= theta
        tp = int((yhat & pos).sum())
        fp = int((yhat & ~pos).sum())
        fn = int((~yhat & pos).sum())
        f1 = 0.0 if tp + fp == 0 else 2.0 * tp / (2.0 * tp + fp + fn)
        return f1, tp / (tp + fn)

    best_theta, best_f1 = grid[0], -1.0
    for theta in grid:
        f1 = f1_and_recall(theta)[0]
        if f1 > best_f1:
            best_theta, best_f1 = theta, f1
    if policy == "max-f1":
        return float(best_theta)
    if policy != "recall-constrained":
        raise ValueError(f"unknown threshold policy: {policy!r}")
    floor = min_recall * f1_and_recall(best_theta)[1]
    for theta in grid[::-1]:
        if f1_and_recall(theta)[1] >= floor:
            return float(theta)
    raise AssertionError("the max-F1 theta always meets the recall floor")


def reference_exits(tree, X):
    """The leaf node each row of X reaches, walking the tree from its root.

    A split sends x left, to the next node in preorder, when
    x[feature] < threshold, and otherwise to its ``right`` node.
    """
    rows = np.arange(X.shape[0])
    node = np.zeros(X.shape[0], dtype=np.int64)
    while (split := tree.feature[node] >= 0).any():
        go_left = X[rows, tree.feature[node]] < tree.threshold[node]
        node = np.where(split, np.where(go_left, node + 1, tree.right[node]), node)
    return node


def reference_margin(ensemble, X, prefix_margin=None, prefix_trees=0):
    """Margin by walking each tree from its root to a leaf, one tree after another.

    ``BoostedEnsemble.predict_margin`` must equal this bit for bit: each row
    gets ``margin += value`` of its exit leaf, tree by tree.
    """
    X = np.asarray(X, dtype=np.float64)
    if prefix_margin is None:
        margin, prefix_trees = np.full(X.shape[0], ensemble.base_score), 0
    else:
        margin = np.array(prefix_margin, dtype=np.float64)
    for tree in ensemble.trees[prefix_trees:]:
        margin += tree.value[reference_exits(tree, X)]
    return margin


def loss(p, y, objective):
    """Per-example loss value at probability p for label y: what `grad_hess` differentiates."""
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("predicted probabilities must lie strictly in (0, 1)")
    y = np.asarray(y, dtype=np.float64)
    if objective.kind == "plain-logistic":
        return -(y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    if objective.kind == "class-weighted":
        w = np.where(y == 1.0, objective.pos_weight, 1.0)
        return -w * (y * np.log(p) + (1.0 - y) * np.log(1.0 - p))
    # focal: -alpha_t * (1 - p_t)^gamma * log(p_t)
    pt = np.where(y == 1.0, p, 1.0 - p)
    at = np.where(y == 1.0, objective.alpha, 1.0 - objective.alpha)
    return -at * (1.0 - pt) ** objective.gamma * np.log(pt)


def trace_from_csv(text):
    """Trace rows read back from the text of a run's trace.csv."""
    from alertscreen.metrics import TRACE_COLUMNS, TraceRow
    from alertscreen.schema import decode_fields

    lines = [ln for ln in text.splitlines() if ln]
    if not lines or lines[0] != ",".join(TRACE_COLUMNS):
        raise ValueError("unrecognized trace header")
    rows = [dict(zip(TRACE_COLUMNS, line.split(","))) for line in lines[1:]]
    return [decode_fields(TraceRow, row) for row in rows]


TraceLedger = namedtuple("TraceLedger", "trigger_sizes pending_before_trigger pending_after_batch")


def trace_ledger(trace):
    """Per-trigger query counts and pending label counts, derived from trace rows.

    A trigger's size is the step in ``cum_queries`` on its row; the labels
    pending after a batch are ``cum_queries`` less its value at the last
    row whose update fired, and those before a trigger are the ones pending
    after the batch before it.
    """
    sizes, before, after = [], [], []
    queries = applied = 0  # as of the previous row
    for row in trace:
        if row.trigger_fired:
            sizes.append(row.cum_queries - queries)
            before.append(queries - applied)
        queries = row.cum_queries
        if row.update_fired:
            applied = queries
        after.append(queries - applied)
    return TraceLedger(sizes, before, after)


def pure_prediction_trace(X_train, y_train, X_stream, y_stream, settings):
    """Reference stream pass: train, pick theta, score batches, no controller.

    A frozen run's trace must equal this row for row; the controller adds
    nothing on top of plain batch prediction. Each row's rolling metrics are
    recounted from scratch over the trailing window.
    """
    from alertscreen.gbt import train_initial
    from alertscreen.metrics import TraceRow
    from alertscreen.objectives import resolve_pos_weight

    rng = np.random.default_rng(settings.seed)
    objective = resolve_pos_weight(settings.objective, y_train)
    ensemble = train_initial(X_train, y_train, objective, settings.train, rng=rng)
    tail_n = max(1, int(round(settings.tail_fraction * y_train.size)))
    theta = reference_threshold(
        ensemble.predict_proba(X_train[-tail_n:]),
        y_train[-tail_n:],
        settings.threshold_policy,
        settings.grid_points,
        settings.min_recall,
    )
    rows = []
    labels, preds = [], []
    cum_fp = cum_missed = 0
    n = y_stream.size
    for start in range(0, n, settings.batch_size):
        end = min(start + settings.batch_size, n)
        yb = y_stream[start:end]
        yhat = ensemble.predict_proba(X_stream[start:end]) >= theta
        cum_fp += int(((yb == 0) & yhat).sum())
        cum_missed += int(((yb == 1) & ~yhat).sum())
        labels.extend(yb.tolist())
        preds.extend(yhat.tolist())
        counts = recount_window(labels, preds, settings.rolling_window)
        rows.append(TraceRow(end, *window_metrics(*counts), cum_fp, cum_missed, 0, 0, 0, 0))
    return rows


def recount_window(labels, preds, capacity):
    """Confusion counts (tp, fp, tn, fn) of the trailing ``capacity`` events, from scratch."""
    tail_labels = labels[-capacity:]
    tail_preds = preds[-capacity:]
    tp = fp = tn = fn = 0
    for label, pred in zip(tail_labels, tail_preds):
        if label == 1 and pred == 1:
            tp += 1
        elif label == 1:
            fn += 1
        elif pred == 1:
            fp += 1
        else:
            tn += 1
    return tp, fp, tn, fn


def window_metrics(tp, fp, tn, fn):
    """(f1, precision, recall, fpr) from confusion counts, None where undefined."""
    support, flagged, benign = tp + fn, tp + fp, fp + tn
    recall = tp / support if support else None
    f1 = 2.0 * tp / (2.0 * tp + fp + fn) if support else None
    precision = tp / flagged if flagged else None
    fpr = fp / benign if benign else None
    return f1, precision, recall, fpr


def reference_missed_positive_stats(labels, preds, burst_gap, delay_mode):
    """(count, max streak, mean burst delay) by walking the positives one at a time."""
    labels = np.asarray(labels)
    preds = np.asarray(preds)
    pos_idx = np.nonzero(labels == 1)[0]
    missed = (labels == 1) & (preds == 0)
    count = int(missed.sum())

    max_streak = 0
    streak = 0
    for i in pos_idx:
        if missed[i]:
            streak += 1
            max_streak = max(max_streak, streak)
        else:
            streak = 0

    if pos_idx.size == 0:
        return count, max_streak, None

    delays = []
    burst_start = 0  # index into pos_idx
    for k in range(1, pos_idx.size + 1):
        new_burst = k == pos_idx.size or pos_idx[k] - pos_idx[k - 1] - 1 >= burst_gap
        if not new_burst:
            continue
        burst = pos_idx[burst_start:k]
        detected = np.nonzero(~missed[burst])[0]
        if detected.size == 0:
            if delay_mode == "positives":
                delays.append(float(burst.size))
            else:
                delays.append(float(burst[-1] - burst[0] + 1))
        else:
            first = int(detected[0])
            if delay_mode == "positives":
                delays.append(float(first))
            else:
                delays.append(float(burst[first] - burst[0]))
        burst_start = k
    return count, max_streak, sum(delays) / len(delays)
