"""Operating-threshold selection on a held-out validation tail.

Two policies: maximum F1 over an evenly spaced probability grid, and a
recall-constrained variant that moves to the highest grid threshold still
retaining a fraction of the max-F1 tail recall.
"""

from dataclasses import dataclass

import numpy as np

THRESHOLD_POLICIES = ("max-f1", "recall-constrained")


@dataclass
class OperatingPoint:
    theta: float
    policy: str
    grid_points: int
    f1: float
    recall: float
    base_theta: float | None = None
    base_recall: float | None = None


def threshold_grid(grid_points=101):
    return np.arange(grid_points) / (grid_points - 1)


def confusion_at(scores, labels, theta):
    """(tp, fp, fn, tn) under the decision rule yhat = 1[p >= theta]."""
    scores = np.asarray(scores)
    labels = np.asarray(labels)
    yhat = scores >= theta
    pos = labels == 1
    tp = int((yhat & pos).sum())
    fp = int((yhat & ~pos).sum())
    fn = int((~yhat & pos).sum())
    tn = int((~yhat & ~pos).sum())
    return tp, fp, fn, tn


def f1_at(scores, labels, theta):
    tp, fp, fn, _ = confusion_at(scores, labels, theta)
    if tp + fp == 0:
        return 0.0
    return 2.0 * tp / (2.0 * tp + fp + fn)


def recall_at(scores, labels, theta):
    tp, _, fn, _ = confusion_at(scores, labels, theta)
    if tp + fn == 0:
        return 0.0
    return tp / (tp + fn)


def _check_tail(labels):
    if int((np.asarray(labels) == 1).sum()) == 0:
        raise ValueError("threshold undefined: validation tail contains no positives")


def select_threshold_max_f1(scores, labels, grid_points=101):
    """Smallest grid threshold attaining the maximum tail F1."""
    _check_tail(labels)
    grid = threshold_grid(grid_points)
    best_theta = grid[0]
    best_f1 = -1.0
    for theta in grid:
        f1 = f1_at(scores, labels, theta)
        if f1 > best_f1:
            best_f1 = f1
            best_theta = theta
    return OperatingPoint(
        theta=float(best_theta),
        policy="max-f1",
        grid_points=grid_points,
        f1=best_f1,
        recall=recall_at(scores, labels, best_theta),
    )


def select_threshold_recall_constrained(scores, labels, min_recall=0.95, grid_points=101):
    """Largest grid threshold retaining >= min_recall of the max-F1 recall.

    Recall is non-increasing in theta, so the max-F1 threshold itself always
    satisfies the constraint and the result is never below it.
    """
    base = select_threshold_max_f1(scores, labels, grid_points)
    floor = min_recall * base.recall
    grid = threshold_grid(grid_points)
    for theta in grid[::-1]:
        if recall_at(scores, labels, theta) >= floor:
            return OperatingPoint(
                theta=float(theta),
                policy="recall-constrained",
                grid_points=grid_points,
                f1=f1_at(scores, labels, theta),
                recall=recall_at(scores, labels, theta),
                base_theta=base.theta,
                base_recall=base.recall,
            )
    # unreachable: base.theta satisfies the constraint
    raise AssertionError("no grid threshold satisfies the recall constraint")


def select_threshold(scores, labels, policy, grid_points=101, min_recall=0.95):
    if policy == "max-f1":
        return select_threshold_max_f1(scores, labels, grid_points)
    if policy == "recall-constrained":
        return select_threshold_recall_constrained(scores, labels, min_recall, grid_points)
    raise ValueError(f"unknown threshold policy: {policy!r}")
