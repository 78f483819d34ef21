"""Operating-threshold selection on a held-out validation tail.

Two policies over an evenly spaced probability grid: maximum F1, and a
recall-constrained variant that moves to the highest grid threshold still
retaining a fraction of the max-F1 tail recall.
"""

import numpy as np

THRESHOLD_POLICIES = ("max-f1", "recall-constrained")


def select_threshold(scores, labels, policy, grid_points, min_recall):
    """The grid threshold theta the policy picks for the rule yhat = 1[p >= theta].

    max-f1 takes the smallest grid threshold attaining the maximum tail F1.
    recall-constrained takes the largest one whose recall is at least
    ``min_recall`` times the recall at the max-F1 threshold; recall is
    non-increasing in theta, so the result is never below that threshold.
    """
    if policy not in THRESHOLD_POLICIES:
        raise ValueError(f"unknown threshold policy: {policy!r}")
    scores = np.asarray(scores)
    pos = np.asarray(labels) == 1
    n_pos = int(pos.sum())
    if n_pos == 0:
        raise ValueError("threshold undefined: validation tail contains no positives")
    grid = np.arange(grid_points) / (grid_points - 1)
    # alerts per class at each grid theta: the sorted scores at or above it
    pos_scores, neg_scores = np.sort(scores[pos]), np.sort(scores[~pos])
    tp = n_pos - np.searchsorted(pos_scores, grid)
    fp = neg_scores.size - np.searchsorted(neg_scores, grid)
    f1 = 2.0 * tp / (tp + fp + n_pos)  # 2tp / (2tp + fp + fn), 0 without alerts
    best = int(np.argmax(f1))  # the first maximum
    if policy == "recall-constrained":
        recall = tp / n_pos
        best = int(np.flatnonzero(recall >= min_recall * recall[best])[-1])
    return float(grid[best])
