import numpy as np
import pytest
from oracles import oracle_select

from alertscreen.acquisition import select_query_batch


def test_hybrid_spec_example_split_budget():
    scores = np.array([0.05, 0.50, 0.55, 0.95])
    batch = select_query_batch(scores, 0.5, 2, "hybrid", np.random.default_rng(0))
    assert batch.indices == [1, 3]


def test_hybrid_tie_break_and_dedup():
    scores = np.array([0.9, 0.9, 0.9])
    batch = select_query_batch(scores, 0.9, 2, "hybrid", np.random.default_rng(0))
    assert batch.indices == [0, 1]


def test_zero_budget_gives_empty_batch():
    batch = select_query_batch(np.array([0.5, 0.6]), 0.5, 0, "hybrid", np.random.default_rng(0))
    assert batch.indices == []


def test_budget_beyond_buffer_returns_whole_buffer():
    scores = np.array([0.2, 0.4, 0.6])
    batch = select_query_batch(scores, 0.5, 5, "uncertainty", np.random.default_rng(0))
    assert batch.indices == [0, 1, 2]


@pytest.mark.parametrize("policy", ["uncertainty", "high-score", "hybrid"])
def test_deterministic_policies_match_sorted_list_oracle(policy):
    # scores to 3 decimals, and to 1 decimal for heavy ties in both p and |p - theta|
    for decimals, max_n in ((3, 13), (1, 40)):
        for case in range(200):
            rng = np.random.default_rng(3_000 + case)
            n = int(rng.integers(1, max_n))
            scores = np.round(rng.random(n), decimals)
            theta = float(np.round(rng.random(), min(decimals, 2)))
            budget = int(rng.integers(0, n + 2))
            batch = select_query_batch(scores, theta, budget, policy, np.random.default_rng(1))
            assert batch.indices == oracle_select(list(scores), theta, budget, policy)


def test_hybrid_partition_property_on_distinct_scores():
    # budget 2k: exactly k smallest-u elements, remainder by descending score
    rng = np.random.default_rng(17)
    for _ in range(50):
        n = int(rng.integers(6, 21))
        scores = rng.permutation(np.linspace(0.02, 0.98, n))
        theta = float(rng.random())
        k = int(rng.integers(1, (n - 1) // 2 + 1))  # keep 2k < n
        batch = select_query_batch(scores, theta, 2 * k, "hybrid", np.random.default_rng(2))
        u_order = sorted(range(n), key=lambda i: (abs(scores[i] - theta), i))
        assert batch.indices[:k] == u_order[:k]
        complement = [i for i in sorted(range(n), key=lambda i: -scores[i]) if i not in u_order[:k]]
        assert batch.indices[k:] == complement[:k]


def test_uncertainty_ranking_depends_only_on_score_distance():
    # reflecting scores around theta preserves |p - theta|, so the
    # selection must be identical
    rng = np.random.default_rng(19)
    theta = 0.5
    for _ in range(30):
        n = int(rng.integers(3, 15))
        scores = rng.uniform(0.05, 0.95, n)
        mirrored = 2 * theta - scores
        a = select_query_batch(scores, theta, min(4, n), "uncertainty", np.random.default_rng(3))
        b = select_query_batch(mirrored, theta, min(4, n), "uncertainty", np.random.default_rng(3))
        assert a.indices == b.indices


def test_random_policy_is_uniform_over_many_seeds():
    n, budget, trials = 10, 3, 6_000
    counts = np.zeros(n)
    scores = np.linspace(0.1, 0.9, n)
    for seed in range(trials):
        batch = select_query_batch(scores, 0.5, budget, "random", np.random.default_rng(50_000 + seed))
        assert len(set(batch.indices)) == budget
        counts[batch.indices] += 1
    expected = budget / n
    sigma = np.sqrt(expected * (1 - expected) / trials)
    freq = counts / trials
    assert np.all(np.abs(freq - expected) <= 3 * sigma)


def test_unknown_policy_and_negative_budget_rejected():
    with pytest.raises(ValueError):
        select_query_batch(np.array([0.5]), 0.5, 1, "entropy", np.random.default_rng(0))
    with pytest.raises(ValueError):
        select_query_batch(np.array([0.5]), 0.5, -1, "random", np.random.default_rng(0))
