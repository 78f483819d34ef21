import copy
import functools
from dataclasses import replace

import numpy as np
import pytest
from conftest import gaussian_splits
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    brute_force_best_split,
    loss,
    reference_best_split,
    reference_exits,
    reference_margin,
)

from alertscreen.gbt import (
    BoostedEnsemble,
    TrainConfig,
    Tree,
    _grow_tree,
    _Table,
    bin_features,
    compute_bin_edges,
    find_best_split,
    train_initial,
    warm_start_update,
)
from alertscreen.objectives import HESS_FLOOR, Objective, grad_hess


TREE_ARRAYS = ("feature", "threshold", "right", "value")


def _same_tree(a, b):
    return all(np.array_equal(getattr(a, name), getattr(b, name)) for name in TREE_ARRAYS)


def _leaf_tree(value):
    return Tree([-1], [0.0], [-1], [value])


def _empty_ensemble(n_features=2, base_score=0.0, lr=0.1):
    return BoostedEnsemble(
        trees=[],
        base_score=base_score,
        learning_rate=lr,
        max_trees=500,
        bin_edges=[np.empty(0)] * n_features,
        n_features=n_features,
        rng=np.random.default_rng(0),
    )


def _separable_data(seed=0, n=200):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1.0, 1.0, size=(n, 2))
    y = (X[:, 0] > 0.0).astype(np.int64)
    # keep a margin so the split is clean
    X[:, 0] += np.where(y == 1, 0.1, -0.1)
    return X, y


def test_empty_ensemble_predicts_half():
    ens = _empty_ensemble()
    p = ens.predict_proba(np.zeros((5, 2)))
    assert np.all(p == 0.5)


def test_single_leaf_tree_prediction():
    ens = _empty_ensemble()
    ens.trees.append(_leaf_tree(3.0))
    p = ens.predict_proba(np.zeros((1, 2)))
    assert p[0] == pytest.approx(1.0 / (1.0 + np.exp(-0.3)), rel=1e-12)


def test_adding_positive_leaf_tree_increases_every_probability():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(50, 3))
    y = rng.integers(0, 2, 50)
    y[:5] = 1
    y[5:10] = 0
    rng = np.random.default_rng(1)
    ens = train_initial(X, y, Objective(kind="plain-logistic"), TrainConfig(initial_rounds=10), rng)
    before = ens.predict_proba(X)
    ens.trees.append(_leaf_tree(0.5))
    after = ens.predict_proba(X)
    assert np.all(after > before)


def test_predictions_strictly_inside_unit_interval():
    ens = _empty_ensemble(base_score=80.0)
    p = ens.predict_proba(np.zeros((3, 2)))
    assert np.all(p > 0.0) and np.all(p < 1.0)


def test_prediction_invariant_to_tree_order():
    X, y = _separable_data(seed=2)
    ens = train_initial(X, y, Objective(), TrainConfig(initial_rounds=20), np.random.default_rng(3))
    p = ens.predict_proba(X)
    rng = np.random.default_rng(0)
    shuffled = list(ens.trees)
    rng.shuffle(shuffled)
    ens.trees = shuffled
    assert np.allclose(p, ens.predict_proba(X), rtol=1e-12, atol=1e-15)


def test_width_mismatch_raises():
    ens = _empty_ensemble(n_features=3)
    with pytest.raises(ValueError):
        ens.predict_proba(np.zeros((2, 4)))


def test_separable_training_reaches_full_accuracy():
    X, y = _separable_data()
    ens = train_initial(X, y, Objective(), TrainConfig(), np.random.default_rng(42))
    assert ens.n_trees == 100
    acc = ((ens.predict_proba(X) >= 0.5).astype(int) == y).mean()
    assert acc == 1.0


def test_first_tree_splits_on_the_label_feature():
    rng = np.random.default_rng(7)
    X = rng.normal(size=(300, 3))
    y = (X[:, 1] > 0.0).astype(np.int64)
    ens = train_initial(X, y, Objective(), TrainConfig(initial_rounds=5), np.random.default_rng(0))
    assert ens.trees[0].feature[0] == 1


def test_histogram_split_matches_brute_force():
    # few distinct values per feature, so bin midpoints enumerate every cut
    rng = np.random.default_rng(13)
    n = 400
    X = np.column_stack(
        [
            rng.choice(rng.normal(size=40), size=n),
            rng.choice(rng.normal(size=25), size=n),
            rng.choice(rng.normal(size=60), size=n),
        ]
    )
    p = rng.uniform(0.05, 0.95, n)
    y = rng.integers(0, 2, n)
    g, h = grad_hess(p, y, Objective(), hess_floor=HESS_FLOOR)
    l2, mcw = 1.0, 1.0

    edges = compute_bin_edges(X, 256)
    binned = bin_features(X, edges)
    n_bins = [e.size + 1 for e in edges]
    rows = np.arange(n)
    feats = np.arange(3)
    got = find_best_split(binned, g, h, rows, feats, n_bins, l2, mcw)
    expected = brute_force_best_split(X, g, h, l2, mcw, edges)
    assert got is not None and expected is not None
    f, b, gain = got
    assert (f, edges[f][b]) == (expected[0], expected[1])
    assert gain == pytest.approx(expected[2], rel=1e-9)


def test_training_is_deterministic_per_seed():
    X, y = _separable_data(seed=4)
    cfg = TrainConfig(initial_rounds=30)
    a = train_initial(X, y, Objective(), cfg, np.random.default_rng(42))
    b = train_initial(X, y, Objective(), cfg, np.random.default_rng(42))
    assert a.n_trees == b.n_trees and a.base_score == b.base_score
    assert all(np.array_equal(ea, eb) for ea, eb in zip(a.bin_edges, b.bin_edges))
    assert all(_same_tree(ta, tb) for ta, tb in zip(a.trees, b.trees))


def test_single_class_training_rejected():
    X = np.zeros((10, 2))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        train_initial(X, np.zeros(10, dtype=int), Objective(), TrainConfig(), rng)
    with pytest.raises(ValueError):
        train_initial(X, np.ones(10, dtype=int), Objective(), TrainConfig(), rng)


def test_warm_start_preserves_tree_prefix():
    X, y = _separable_data(seed=8)
    ens = train_initial(X, y, Objective(), TrainConfig(initial_rounds=15), np.random.default_rng(5))
    before = [Tree(*(getattr(t, name).copy() for name in TREE_ARRAYS)) for t in ens.trees]
    result = warm_start_update(ens, X, y, Objective(), TrainConfig(rounds_per_update=10))
    after = result.ensemble
    assert after.n_trees == 25 and result.appended == 10 and not result.cap_reached
    for i, tree in enumerate(before):
        assert _same_tree(after.trees[i], tree)
    # original value untouched (caller hot-swaps)
    assert ens.n_trees == 15


def test_prefix_margin_adds_only_the_later_trees_bit_for_bit():
    X, y = _separable_data(seed=8, n=300)
    rng = np.random.default_rng(5)
    core = train_initial(X, y, Objective(), TrainConfig(initial_rounds=15), rng)
    grown = warm_start_update(core, X[:100], y[:100], Objective(), TrainConfig()).ensemble
    prefix = core.predict_margin(X)
    for rows in (slice(None), slice(7, 8), slice(50, 250)):
        with_prefix = grown.predict_proba(X[rows], prefix[rows], core.n_trees)
        assert with_prefix.tobytes() == grown.predict_proba(X[rows]).tobytes()
    # the prefix is copied, never added to in place
    assert prefix.tobytes() == core.predict_margin(X).tobytes()
    assert core.predict_proba(X, prefix, core.n_trees).tobytes() == core.predict_proba(X).tobytes()


def test_warm_start_from_a_prefix_margin_grows_the_same_trees():
    X, y = _separable_data(seed=8, n=300)
    core = train_initial(X, y, Objective(), TrainConfig(initial_rounds=15), np.random.default_rng(5))
    grown = warm_start_update(core, X[:100], y[:100], Objective(), TrainConfig()).ensemble

    def update(*prefix):  # each from the same generator state
        ens = replace(grown, rng=copy.deepcopy(grown.rng))
        return warm_start_update(ens, X[100:200], y[100:200], Objective(), TrainConfig(), *prefix)

    full = update().ensemble
    from_prefix = update(core.predict_margin(X[100:200]), core.n_trees).ensemble
    assert full.n_trees == from_prefix.n_trees == 35
    assert all(_same_tree(a, b) for a, b in zip(full.trees, from_prefix.trees))


def test_warm_start_loss_non_increasing_on_same_batch():
    X, y = _separable_data(seed=10)
    obj = Objective()
    ens = train_initial(X, y, obj, TrainConfig(initial_rounds=20), np.random.default_rng(6))
    cfg = TrainConfig(rounds_per_update=1)
    prev = loss(ens.predict_proba(X), y, obj).mean()
    for _ in range(10):
        ens = warm_start_update(ens, X, y, obj, cfg).ensemble
        cur = loss(ens.predict_proba(X), y, obj).mean()
        assert cur <= prev + 1e-12
        prev = cur


def test_warm_start_cap_arithmetic():
    X, y = _separable_data(seed=12)
    cfg = TrainConfig(initial_rounds=5, rounds_per_update=10, max_trees=15)
    ens = train_initial(X, y, Objective(), cfg, np.random.default_rng(7))
    grown = warm_start_update(ens, X, y, Objective(), cfg)
    assert grown.ensemble.n_trees == 15 and grown.appended == 10 and grown.cap_reached

    cfg_cap = TrainConfig(initial_rounds=12, rounds_per_update=10, max_trees=15)
    ens = train_initial(X, y, Objective(), cfg_cap, np.random.default_rng(7))
    partial = warm_start_update(ens, X, y, Objective(), cfg_cap)
    assert partial.ensemble.n_trees == 15 and partial.appended == 3 and partial.cap_reached
    noop = warm_start_update(partial.ensemble, X, y, Objective(), cfg_cap)
    assert noop.appended == 0 and noop.cap_reached
    assert noop.ensemble.n_trees == 15


def test_warm_start_on_all_negative_batch_pushes_scores_down():
    X, y = _separable_data(seed=14)
    ens = train_initial(X, y, Objective(), TrainConfig(initial_rounds=20), np.random.default_rng(8))
    rng = np.random.default_rng(2)
    X_neg = rng.uniform(-1.0, 0.0, size=(64, 2))
    y_neg = np.zeros(64, dtype=np.int64)
    before = ens.predict_proba(X_neg).mean()
    updated = warm_start_update(ens, X_neg, y_neg, Objective(), TrainConfig()).ensemble
    assert updated.predict_proba(X_neg).mean() < before


def test_warm_start_rejects_empty_batch():
    X, y = _separable_data(seed=15)
    ens = train_initial(X, y, Objective(), TrainConfig(initial_rounds=5), np.random.default_rng(9))
    with pytest.raises(ValueError):
        warm_start_update(ens, np.zeros((0, 2)), np.zeros(0, dtype=int), Objective(), TrainConfig())


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_zero_regularisation_grows_finite_leaves():
    # at l2_reg 0 and min_child_weight 0 a cut can leave a child without rows
    rng = np.random.default_rng(0)
    X = rng.normal(size=(500, 4))
    X[:, :2] = np.round(X[:, :2], 1)
    y = (rng.random(500) < 0.1).astype(np.int64)
    cfg = TrainConfig(initial_rounds=20, l2_reg=0.0, min_child_weight=0.0)
    ens = train_initial(X, y, Objective(), cfg, np.random.default_rng(0))
    assert all(np.isfinite(tree.value).all() for tree in ens.trees)
    assert np.isfinite(ens.predict_margin(X)).all()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("l2_reg", [0.0, 1.0])
def test_zero_min_child_weight_grows_no_split_with_an_empty_side(l2_reg):
    # without sampling every tree is grown on all rows, so each of its leaves holds a row
    X, y, _, _ = gaussian_splits(seed=0, n_train=500)
    cfg = TrainConfig(
        initial_rounds=20, min_child_weight=0.0, l2_reg=l2_reg, subsample=1.0, colsample=1.0
    )
    ens = train_initial(X, y, Objective(), cfg, np.random.default_rng(0))
    for tree in ens.trees:
        assert set(reference_exits(tree, X).tolist()) == set(np.flatnonzero(tree.feature < 0))
        assert np.isfinite(tree.value).all()


# relative offsets of each side's hessian total from min_child_weight: within 1e-13 of the
# exact split, of the guard's 1e-12 margin, or a few 1e-12 either way
SIDE_OFFSETS = st.one_of(
    st.floats(-1e-13, 1e-13), st.floats(-1.1e-12, -0.9e-12), st.floats(-3e-12, 3e-12)
)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    mcw=st.sampled_from([1e-3, 0.5, 1.0, 3.0, 1e4]),
    l2_reg=st.sampled_from([0.0, 1.0]),
    sides=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    offsets=st.tuples(SIDE_OFFSETS, SIDE_OFFSETS),
    seed=st.integers(0, 2**32 - 1),
)
def test_a_node_below_twice_min_child_weight_has_no_split(mcw, l2_reg, sides, offsets, seed):
    # feature 0 cuts the rows into two sides of hessian total mcw * (1 + offset) each
    rng = np.random.default_rng(seed)
    h = []
    for n, offset in zip(sides, offsets):
        w = rng.uniform(0.1, 1.0, n)
        h.append(w * (mcw * (1.0 + offset) / w.sum()))
    h = np.concatenate(h)
    g = rng.normal(size=h.size)
    binned = np.array([np.repeat([0, 1], sides), rng.integers(0, 4, h.size)], dtype=np.int32)
    rows, feats, edges = rng.permutation(h.size), np.arange(2), [np.array([0.5]), np.arange(3.0)]
    cfg = TrainConfig(max_depth=1, min_child_weight=mcw, l2_reg=l2_reg)
    best = find_best_split(binned, g, h, rows, feats, [2, 4], l2_reg, mcw)
    tree, _ = _grow_tree(binned, g, h, rows, feats, edges, [2, 4], cfg)
    if h[rows].sum() < 2.0 * mcw * (1.0 - 1e-12):
        assert best is None
    assert (tree.feature[0] >= 0) == (best is not None)


# cells at and around the midpoint edges of the small values, ties, both zeros and non-finite
CELLS = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 0.5, 1.0, -1.0, 2.0, 1.5, -0.5, 0.25])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    n_rows=st.one_of(st.integers(1, 40), st.integers(500, 1_000)),
    n_features=st.integers(1, 6),
    max_depth=st.integers(0, 9),
    bins=st.sampled_from([2, 4, 256]),
    l2_reg=st.sampled_from([0.0, 1.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_growth_routes_every_row_as_the_tree_scores_it(
    n_rows, n_features, max_depth, bins, l2_reg, seed
):
    # each feature draws from a few of CELLS, or from them and normal values; growth fits
    # a random row subset on a random feature subset but routes every row
    rng = np.random.default_rng(seed)
    X = np.empty((n_rows, n_features))
    for f in range(n_features):
        pool = rng.choice(CELLS, size=rng.integers(1, CELLS.size + 1), replace=False)
        X[:, f] = rng.choice(pool, n_rows)
        wide = rng.random(n_rows) < rng.choice([0.0, 0.5, 1.0])
        X[wide, f] = rng.normal(size=wide.sum())
    edges = compute_bin_edges(X, bins)
    assert all(np.isfinite(e).all() for e in edges)
    binned = bin_features(X, edges)
    g, h = rng.normal(size=n_rows), rng.uniform(1e-3, 1.0, n_rows)
    rows = np.sort(rng.choice(n_rows, size=rng.integers(1, n_rows + 1), replace=False))
    feats = np.sort(rng.choice(n_features, size=rng.integers(1, n_features + 1), replace=False))
    cfg = TrainConfig(max_depth=max_depth, bins=bins, min_child_weight=0.0, l2_reg=l2_reg)
    tree, exits = _grow_tree(binned, g, h, rows, feats, edges, [e.size + 1 for e in edges], cfg)
    assert np.array_equal(exits, reference_exits(tree, X))


def test_training_builds_no_scoring_table(monkeypatch):
    # each scoring table built, by its tree count: training's margin comes from growth
    X, y = _separable_data(seed=8, n=300)
    built, of = [], _Table.of
    monkeypatch.setattr(_Table, "of", lambda trees: built.append(len(trees)) or of(trees))
    core = train_initial(X, y, Objective(), TrainConfig(initial_rounds=7), np.random.default_rng(5))
    assert built == []
    prefix = core.predict_margin(X)
    assert built == [7]
    update = TrainConfig(rounds_per_update=4)
    grown = warm_start_update(core, X, y, Objective(), update, prefix, 7).ensemble
    assert built == [7]
    warm_start_update(grown, X, y, Objective(), update, prefix, 7)
    assert built == [7, 4]  # its prefix margin: the trees after the core


@settings(max_examples=400, derandomize=True, deadline=None)
@given(
    n_bins=st.lists(st.one_of(st.integers(1, 12), st.integers(200, 256)), min_size=1, max_size=6),
    n_rows=st.integers(1, 60),
    h_scales=st.lists(st.sampled_from([1e-16, 1e-3, 1.0, 1e4]), min_size=1, max_size=2),
    exact=st.booleans(),
    l2_reg=st.sampled_from([0.0, 1.0]),
    mcw=st.sampled_from([0.0, 1e-3, 1.0, 1e4]),
    seed=st.integers(0, 2**32 - 1),
)
def test_split_search_matches_the_per_feature_scan(
    n_bins, n_rows, h_scales, exact, l2_reg, mcw, seed
):
    # unequal and 1-bin features, a sorted feature subset, rows an unsorted subset; exact
    # draws (g in {-1, 0, 1}, h a power of ten) give tied and zero gains
    rng = np.random.default_rng(seed)
    binned = np.array([rng.integers(0, nb, n_rows) for nb in n_bins], dtype=np.int32)
    h = rng.choice(h_scales, n_rows)
    if exact:
        g = rng.integers(-1, 2, n_rows).astype(np.float64)
    else:
        g, h = rng.normal(size=n_rows), h * rng.uniform(0.1, 1.0, n_rows)
    rows = rng.choice(n_rows, size=rng.integers(1, n_rows + 1), replace=False)
    feats = np.sort(rng.choice(len(n_bins), size=rng.integers(1, len(n_bins) + 1), replace=False))
    args = (binned, g, h, rows, feats, n_bins, l2_reg, mcw)
    assert find_best_split(*args) == reference_best_split(*args)


# (bin rows, bins per feature, g, h, l2_reg, min_child_weight, the (feature, bin) found)
EDGE_NODES = {
    "zero-gain": ([[0, 1]], [2], [1.0, 1.0], [1.0, 1.0], 0.0, 0.0, None),
    "right-h-rounds-to-zero": ([[0, 1]], [2], [1.0, 1.0], [1.0, 1e-16], 0.0, 0.0, None),
    # the pairwise h total exceeds the bin's sequential sum, so h_right > 0 with no row
    "right-side-empty": ([[0] * 8], [2], [1.0] + [0.0] * 7, [1.0] + [1e-16] * 7, 0.0, 0.0, None),
    "one-bin-features": ([[0, 0, 0]] * 2, [1, 1], [1.0, -1.0, 2.0], [1.0] * 3, 1.0, 0.0, None),
    "below-min-child-weight": ([[0, 1, 2]], [3], [1.0, -1.0, 2.0], [1.0] * 3, 0.0, 1.5, None),
    "tie-first-feature-then-bin": (
        [[0, 1, 2, 3]] * 2, [4, 4], [1.0, -1, -1, 1], [1.0] * 4, 0.0, 0.0, (0, 0)
    ),
    "unequal-bin-counts": (
        [[0, 1, 1], [0, 0, 5]], [2, 6], [2.0, -1, -1], [1.0] * 3, 1.0, 0.0, (0, 0)
    ),
}


@pytest.mark.parametrize("case", EDGE_NODES)
def test_split_search_on_edge_nodes(case):
    bins, n_bins, g, h, l2_reg, mcw, expected = EDGE_NODES[case]
    rows, feats = np.arange(len(g)), np.arange(len(bins))
    binned = np.array(bins, dtype=np.int32)
    args = (binned, np.array(g), np.array(h), rows, feats, n_bins, l2_reg, mcw)
    got = find_best_split(*args)
    assert got == reference_best_split(*args)
    assert (got and got[:2]) == expected


# trained at these max_depth values, or built by hand as chains or random shapes
GRID_ENSEMBLES = [0, 1, 3, 6, 8, "right-chain", "left-chain", "random", "interleaved"]
SEVERAL_WORDS = [8, "right-chain", "left-chain", "random"]  # trees of more than 64 leaves


def _random_tree(rng, n_leaves, n_features, shape):
    """A tree of ``n_leaves`` leaves: a chain that goes right or left, or random splits."""
    feature, threshold, right, value = [], [], [], []

    def grow(k):
        node = len(feature)
        feature.append(-1)
        threshold.append(float(rng.choice([-1.0, 0.0, 0.5])))
        right.append(-1)
        value.append(float(rng.normal()))
        if k > 1:
            n_left = {"right-chain": 1, "left-chain": k - 1}.get(shape) or rng.integers(1, k)
            feature[node] = int(rng.integers(n_features))
            grow(n_left)
            right[node] = grow(k - n_left)
        return node

    grow(n_leaves)
    return Tree(feature, threshold, right, value)


@functools.cache
def _grid_ensemble(case):
    """Trees of depth ``case`` trained on a wide random set, with depth-0 trees mixed
    in; or hand-built trees of 1 to 200 leaves in the shape ``case``."""
    if isinstance(case, str):  # 65 and 129 leaves leave the last leaf alone in its word
        rng = np.random.default_rng(GRID_ENSEMBLES.index(case))
        ens = _empty_ensemble(n_features=4, base_score=-2.0)
        leaves = [1, 129, 2, 64, 1, 128, 200, 3, 65]  # trees[-1:] is a 65-leaf tree alone
        if case == "interleaved":  # one word each; trees of one size are never adjacent
            leaves = [3, 5, 2, 3, 1, 8, 5, 2, 3, 64, 8, 1, 5, 2, 64, 3]
        for n_leaves in leaves:
            ens.trees.append(_random_tree(rng, n_leaves, 4, case))
        return ens
    rng = np.random.default_rng(case)
    X = rng.normal(size=(2_000, 12))
    X[:, :3] = np.round(X[:, :3], 1)  # ties, so thresholds land on midpoints
    X[:, 3] = rng.choice([-1.0, 1.0], 2_000)  # a threshold of exactly 0.0
    y = (rng.random(2_000) < 0.3).astype(np.int64)
    cfg = TrainConfig(initial_rounds=4, rounds_per_update=3, max_depth=case, min_child_weight=0.0)
    ens = train_initial(X, y, Objective(), cfg, np.random.default_rng(case))
    ens = warm_start_update(ens, X[:200], y[:200], Objective(), replace(cfg, max_depth=0)).ensemble
    return warm_start_update(ens, X[200:400], y[200:400], Objective(), cfg).ensemble


def _hard_rows(ens, n, seed):
    """Rows whose cells are often NaN, +-inf, -0.0, 0.0 or exactly a split threshold;
    every seventh row is +inf throughout, so it exits at each tree's last leaf."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, ens.n_features))
    special = rng.random(X.shape) < 0.15
    X[special] = rng.choice([np.nan, np.inf, -np.inf, -0.0, 0.0], special.sum())
    splits = [(f, t) for tree in ens.trees for f, t in zip(tree.feature, tree.threshold) if f >= 0]
    for row in np.flatnonzero(rng.random(n) < 0.5) if splits else ():
        for k in rng.choice(len(splits), size=3):
            X[row, splits[k][0]] = splits[k][1]
    X[::7] = np.inf
    return X


@pytest.mark.parametrize("n_rows", ["0", "1", "7", "tile-crossing"])
@pytest.mark.parametrize("case", GRID_ENSEMBLES)
def test_predict_margin_equals_the_per_tree_walk_bit_for_bit(case, n_rows):
    ens = _grid_ensemble(case)
    assert any(tree.feature.size == 1 for tree in ens.trees)
    assert (max(tree.leaf_value.size for tree in ens.trees) > 64) == (case in SEVERAL_WORDS)
    if case == "interleaved":  # groups of 1, 2, 4, 7 and 63 rows, each size spread over the trees
        assert len(_Table.of(ens.trees).blocks) == 5
    n = 2 * _Table.of(ens.trees).tile_rows() + 3 if n_rows == "tile-crossing" else int(n_rows)
    X = _hard_rows(ens, n, seed=GRID_ENSEMBLES.index(case))
    want = reference_margin(ens, X).view(np.int64)
    assert np.array_equal(ens.predict_margin(X).view(np.int64), want)
    for k in range(ens.n_trees + 1):
        prefix = reference_margin(replace(ens, trees=ens.trees[:k]), X)
        assert np.array_equal(ens.predict_margin(X, prefix, k).view(np.int64), want), k
