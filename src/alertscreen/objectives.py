"""Per-example training objectives for the boosted screener.

Gradients and Hessians are taken with respect to the raw log-odds margin,
which is what the booster accumulates. The focusing loss can produce
negative second derivatives in part of its domain; callers that need
positive curvature for split finding pass a ``hess_floor``.
"""

from dataclasses import dataclass, replace

import numpy as np

from .schema import Checked, interval, one_of

OBJECTIVE_KINDS = ("plain-logistic", "class-weighted", "focal")

PROB_EPS = 1e-12
HESS_FLOOR = 1e-16


@dataclass(frozen=True)
class Objective(Checked):
    """Loss configuration.

    alpha/gamma apply to the focal kind; pos_weight applies to the
    class-weighted kind and defaults to #neg/#pos of the training labels
    (see resolve_pos_weight).
    """

    kind: str = one_of(OBJECTIVE_KINDS, "focal")
    alpha: float = interval("(0, 1)", 0.25)
    gamma: float = interval("[0, inf)", 2.0)
    pos_weight: float | None = interval("(0, inf)", None)


def resolve_pos_weight(objective, labels):
    """Return a copy with pos_weight filled in as #neg/#pos when unset."""
    if objective.pos_weight is not None:
        return objective
    labels = np.asarray(labels)
    n_pos = int((labels == 1).sum())
    n_neg = int(labels.size) - n_pos
    if n_pos == 0:
        raise ValueError("cannot derive pos_weight: no positive labels")
    return replace(objective, pos_weight=n_neg / n_pos)


def _check_probs(p):
    p = np.asarray(p, dtype=np.float64)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("predicted probabilities must lie strictly in (0, 1)")
    return p


def grad_hess(p, y, objective, hess_floor=None):
    """First and second derivative of the loss w.r.t. the log-odds margin.

    Returns the analytic derivatives; with ``hess_floor`` set, the Hessian
    is clamped below by that value (the booster uses 1e-16 to keep split
    denominators positive where the focal curvature goes negative).
    """
    p = _check_probs(p)
    y = np.asarray(y, dtype=np.float64)
    if objective.kind == "plain-logistic":
        grad = p - y
        hess = p * (1.0 - p)
    elif objective.kind == "class-weighted":
        if objective.pos_weight is None:
            raise ValueError("class-weighted objective requires a resolved pos_weight")
        w = np.where(y == 1.0, objective.pos_weight, 1.0)
        grad = w * (p - y)
        hess = w * (p * (1.0 - p))
    else:
        grad, hess = _focal_grad_hess(p, y, objective.alpha, objective.gamma)
    if hess_floor is not None:
        hess = np.maximum(hess, hess_floor)
    return grad, hess


def _focal_grad_hess(p, y, alpha, gamma):
    # Work in the true-class frame: pt = P(true class), at = its weight.
    # The margin of the true class is z for y=1 and -z for y=0, so the
    # gradient flips sign for negatives while the Hessian does not.
    pt = np.where(y == 1.0, p, 1.0 - p)
    at = np.where(y == 1.0, alpha, 1.0 - alpha)
    one_minus = 1.0 - pt
    log_pt = np.log(pt)
    pow_g = one_minus**gamma
    pow_g1 = one_minus ** (gamma + 1.0)

    g_true = at * gamma * pt * pow_g * log_pt - at * pow_g1
    h_true = (
        at
        * gamma
        * (pt * pow_g1 * log_pt - gamma * pt * pt * pow_g * log_pt + pt * pow_g1)
        + at * (gamma + 1.0) * pt * pow_g1
    )
    sign = np.where(y == 1.0, 1.0, -1.0)
    return sign * g_true, h_true
