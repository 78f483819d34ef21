import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import reference_threshold

from alertscreen.threshold import THRESHOLD_POLICIES, select_threshold


def _max_f1(scores, labels, grid_points=101):
    return select_threshold(scores, labels, "max-f1", grid_points, 0.95)


def _constrained(scores, labels, min_recall=0.95, grid_points=101):
    return select_threshold(scores, labels, "recall-constrained", grid_points, min_recall)


def _random_tail(rng, low, high):
    n = int(rng.integers(low, high))
    scores = rng.random(n)
    labels = rng.integers(0, 2, n)
    if labels.sum() == 0:
        labels[0] = 1
    return scores, labels


def test_max_f1_picks_smallest_grid_point_in_the_gap():
    scores = np.array([0.1, 0.2, 0.8, 0.9])
    labels = np.array([0, 0, 1, 1])
    theta = _max_f1(scores, labels)
    assert theta == pytest.approx(0.21)
    assert theta == reference_threshold(scores, labels, "max-f1", 101, 0.95)


def test_all_positive_tail_selects_grid_minimum():
    scores = np.array([0.3, 0.6, 0.9])
    labels = np.array([1, 1, 1])
    assert _max_f1(scores, labels) == 0.0


def test_binary_scores_give_perfect_f1_inside_unit_interval():
    labels = np.array([0, 1, 0, 1, 1])
    scores = labels.astype(float)
    theta = _max_f1(scores, labels)
    assert 0.0 < theta <= 1.0
    assert np.array_equal(scores >= theta, labels == 1)


def test_exact_f1_tie_keeps_the_smaller_theta():
    # F1 is 4/6 at theta 0 (tp 2, fp 2) and 2/3 above 0.6 (tp 1, fp 0): equal doubles
    scores = np.array([0.1, 0.5, 0.6, 0.9])
    labels = np.array([1, 0, 0, 1])
    assert _max_f1(scores, labels) == 0.0
    assert reference_threshold(scores, labels, "max-f1", 101, 0.95) == 0.0


def test_no_positives_raises():
    with pytest.raises(ValueError, match="threshold undefined"):
        _max_f1(np.array([0.1, 0.2]), np.array([0, 0]))


def test_unknown_policy_raises():
    with pytest.raises(ValueError, match="unknown threshold policy"):
        select_threshold(np.array([0.1, 0.9]), np.array([0, 1]), "bogus", 101, 0.95)


def test_recall_constrained_moves_upward_to_the_documented_point():
    scores = np.array([0.1, 0.6, 0.7, 0.9])
    labels = np.array([0, 1, 1, 1])
    theta = _constrained(scores, labels, min_recall=0.95)
    assert theta == pytest.approx(0.60)
    assert (scores[labels == 1] >= theta).all()  # recall 1.0, as at the max-F1 point
    assert theta >= _max_f1(scores, labels)


def test_vacuous_recall_constraint_gives_grid_maximum():
    scores = np.array([0.1, 0.6, 0.7, 0.9])
    labels = np.array([0, 1, 1, 1])
    assert _constrained(scores, labels, min_recall=0.0) == 1.0


def test_constrained_theta_never_below_base_theta():
    rng = np.random.default_rng(21)
    for _ in range(50):
        scores, labels = _random_tail(rng, 5, 60)
        base = _max_f1(scores, labels)
        constrained = _constrained(scores, labels, min_recall=0.95)
        assert constrained >= base
        positives = scores[labels == 1]
        assert (positives >= constrained).sum() >= 0.95 * (positives >= base).sum()


def test_selected_theta_reproduces_its_selection_criterion():
    rng = np.random.default_rng(23)
    grid = np.arange(101) / 100
    for _ in range(20):
        scores, labels = _random_tail(rng, 8, 50)
        for policy in THRESHOLD_POLICIES:
            theta = select_threshold(scores, labels, policy, 101, 0.95)
            assert any(theta == t for t in grid)
            assert theta == reference_threshold(scores, labels, policy, 101, 0.95)


@st.composite
def tails(draw):
    """(scores, labels, grid_points, min_recall); scores sit on, next to and between grid points."""
    grid_points = draw(st.integers(2, 201))
    grid = np.arange(grid_points) / (grid_points - 1)
    on_grid = st.sampled_from(grid.tolist())
    score = st.one_of(
        on_grid,
        on_grid.map(lambda t: float(np.nextafter(t, -np.inf))),
        on_grid.map(lambda t: float(np.nextafter(t, np.inf))),
        st.floats(0.0, 1.0),
    )
    pairs = draw(st.lists(st.tuples(score, st.integers(0, 1)), min_size=1, max_size=60))
    scores = np.array([s for s, _ in pairs])
    labels = np.array([y for _, y in pairs])
    return scores, labels, grid_points, draw(st.floats(0.0, 1.0))


@settings(max_examples=250, derandomize=True, deadline=None)
@given(tails())
def test_select_threshold_matches_the_per_theta_recount(tail):
    scores, labels, grid_points, min_recall = tail
    grid = np.arange(grid_points) / (grid_points - 1)
    for policy in THRESHOLD_POLICIES:
        if not labels.any():
            with pytest.raises(ValueError, match="threshold undefined"):
                select_threshold(scores, labels, policy, grid_points, min_recall)
            continue
        theta = select_threshold(scores, labels, policy, grid_points, min_recall)
        assert type(theta) is float
        assert theta in grid
        assert theta == reference_threshold(scores, labels, policy, grid_points, min_recall)
