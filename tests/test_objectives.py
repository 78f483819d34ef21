import numpy as np
import pytest
from oracles import focal_fd_grad_hess, loss

from alertscreen.objectives import Objective, grad_hess, resolve_pos_weight


def test_plain_logistic_at_half():
    g, h = grad_hess(np.array([0.5]), np.array([1]), Objective(kind="plain-logistic"))
    assert g[0] == -0.5
    assert h[0] == 0.25


def test_focal_gamma_zero_reduces_to_half_logistic():
    # gamma=0, alpha=0.5 halves the logistic loss and its gradient
    obj = Objective(kind="focal", alpha=0.5, gamma=0.0)
    g, _ = grad_hess(np.array([0.5]), np.array([0]), obj)
    assert g[0] == pytest.approx(0.25, abs=1e-15)
    rng = np.random.default_rng(8)
    p = rng.uniform(0.01, 0.99, 200)
    y = rng.integers(0, 2, 200)
    plain = loss(p, y, Objective(kind="plain-logistic"))
    focal = loss(p, y, obj)
    assert np.max(np.abs(focal - 0.5 * plain)) < 1e-12


def test_focal_gamma_zero_is_alpha_weighted_logistic_everywhere():
    rng = np.random.default_rng(3)
    p = rng.uniform(0.001, 0.999, 500)
    y = rng.integers(0, 2, 500)
    for alpha in (0.25, 0.5, 0.7):
        obj = Objective(kind="focal", alpha=alpha, gamma=0.0)
        g, h = grad_hess(p, y, obj)
        at = np.where(y == 1, alpha, 1.0 - alpha)
        g_ref = at * (p - y)
        h_ref = at * p * (1.0 - p)
        assert np.max(np.abs(g - g_ref)) < 1e-12
        assert np.max(np.abs(h - h_ref)) < 1e-12


def test_focal_matches_finite_differences():
    rng = np.random.default_rng(11)
    for _ in range(300):
        p = float(rng.uniform(0.01, 0.99))
        y = int(rng.integers(0, 2))
        alpha = float(rng.uniform(0.2, 0.8))
        gamma = float(rng.uniform(0.5, 2.5))
        g, h = grad_hess(np.array([p]), np.array([y]), Objective(kind="focal", alpha=alpha, gamma=gamma))
        g_fd, h_fd = focal_fd_grad_hess(p, y, alpha, gamma)
        assert abs(g[0] - g_fd) <= max(1e-5 * abs(g_fd), 1e-8)
        assert abs(h[0] - h_fd) <= max(1e-5 * abs(h_fd), 1e-8)


def test_spec_point_focal_gamma2():
    # gamma=2, alpha=0.25, y=1, p=0.7: derivative check against the oracle
    g, h = grad_hess(np.array([0.7]), np.array([1]), Objective(kind="focal", alpha=0.25, gamma=2.0))
    g_fd, h_fd = focal_fd_grad_hess(0.7, 1, 0.25, 2.0)
    assert abs(g[0] - g_fd) <= 1e-5 * abs(g_fd)
    assert abs(h[0] - h_fd) <= 1e-5 * abs(h_fd)


def test_focal_hessian_can_go_negative_and_floor_clamps_it():
    obj = Objective(kind="focal", alpha=0.25, gamma=2.0)
    _, h_raw = grad_hess(np.array([0.05]), np.array([1]), obj)
    assert h_raw[0] < 0.0
    _, h_clamped = grad_hess(np.array([0.05]), np.array([1]), obj, hess_floor=1e-16)
    assert h_clamped[0] == 1e-16


def test_class_weighted_scales_positives():
    obj = Objective(kind="class-weighted", pos_weight=3.0)
    g, h = grad_hess(np.array([0.5, 0.5]), np.array([1, 0]), obj)
    assert g[0] == -1.5 and g[1] == 0.5
    assert h[0] == 0.75 and h[1] == 0.25


def test_resolve_pos_weight_default_is_neg_over_pos():
    labels = np.array([0] * 9 + [1])
    obj = resolve_pos_weight(Objective(kind="class-weighted"), labels)
    assert obj.pos_weight == 9.0
    # explicit value is left alone
    fixed = resolve_pos_weight(Objective(kind="class-weighted", pos_weight=2.0), labels)
    assert fixed.pos_weight == 2.0


def test_probability_domain_enforced():
    obj = Objective(kind="plain-logistic")
    with pytest.raises(ValueError):
        grad_hess(np.array([0.0]), np.array([0]), obj)
    with pytest.raises(ValueError):
        grad_hess(np.array([1.0]), np.array([1]), obj)
    with pytest.raises(ValueError):
        loss(np.array([1.5]), np.array([1]), obj)


def test_objective_validation():
    with pytest.raises(ValueError):
        Objective(kind="hinge")
    with pytest.raises(ValueError):
        Objective(alpha=0.0)
    with pytest.raises(ValueError):
        Objective(gamma=-1.0)
