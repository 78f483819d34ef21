"""Histogram-based gradient-boosted trees with append-only warm starts.

A deliberately small booster: axis-aligned regression trees grown
depth-wise over quantile-binned features, additive log-odds leaves, and
warm-start continuation that appends new trees to a frozen prefix. Bin
edges are computed once from the initial training matrix and reused for
every later update so update cost stays bounded and deterministic.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .objectives import HESS_FLOOR, PROB_EPS, grad_hess, resolve_pos_weight
from .schema import check_fields, interval


@dataclass
class TrainConfig:
    initial_rounds: int = 100
    rounds_per_update: int = 10
    learning_rate: float = 0.10
    max_depth: int = 6
    max_trees: int = 500
    bins: int = 256
    min_child_weight: float = 1.0
    subsample: float = 0.90
    colsample: float = 0.90
    l2_reg: float = 1.00

    def __post_init__(self):
        check_fields(
            self,
            initial_rounds=interval("[1, inf)"),
            rounds_per_update=interval("[1, inf)"),
            learning_rate=interval("(0, inf)"),
            max_depth=interval("[0, inf)"),
            max_trees=interval("[1, inf)"),
            bins=interval("[2, inf)"),
            min_child_weight=interval("[0, inf)"),
            subsample=interval("(0, 1]"),
            colsample=interval("(0, 1]"),
            l2_reg=interval("[0, inf)"),
        )


class Tree:
    """One regression tree as flat node arrays.

    feature[i] >= 0 marks a split node (go left when x[feature] < threshold),
    feature[i] == -1 marks a leaf whose additive value is value[i]. Leaves
    point to themselves, so ``apply`` takes ``depth`` steps for every row.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "depth")

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.value = np.asarray(value, dtype=np.float64)
        leaf = self.feature < 0
        nodes = np.arange(leaf.size, dtype=np.int32)
        self.left = np.where(leaf, nodes, np.asarray(left, dtype=np.int32))
        self.right = np.where(leaf, nodes, np.asarray(right, dtype=np.int32))
        level, self.depth = nodes[:1], 0  # breadth-first, from the root
        while (level := level[~leaf[level]]).size:
            level = np.concatenate([self.left[level], self.right[level]])
            self.depth += 1

    def apply(self, X):
        """Leaf value per row of X."""
        rows = np.arange(X.shape[0])
        node = np.zeros(X.shape[0], dtype=np.int32)
        for _ in range(self.depth):
            go_left = X[rows, self.feature[node]] < self.threshold[node]
            node = np.where(go_left, self.left[node], self.right[node])
        return self.value[node]


@dataclass
class BoostedEnsemble:
    """Ordered list of trees plus base log-odds; immutable by convention.

    Warm starts return a new ensemble sharing the tree prefix, so callers
    hot-swap the whole value. The generator drives subsample/colsample
    draws and is carried across updates.
    """

    trees: list
    base_score: float
    learning_rate: float
    max_depth: int
    max_trees: int
    bin_edges: list
    n_features: int
    rng: np.random.Generator = field(repr=False, default=None)

    @property
    def n_trees(self):
        return len(self.trees)

    def _check_width(self, X):
        if X.ndim != 2 or X.shape[1] != self.n_features:
            raise ValueError(
                f"feature width mismatch: got {X.shape[1] if X.ndim == 2 else X.shape}, "
                f"expected {self.n_features}"
            )

    def predict_margin(self, X, prefix_margin=None, prefix_trees=0):
        """Log-odds per row of X. Given ``prefix_margin``, the margin of the first
        ``prefix_trees`` trees on X, only the later trees are walked, in order."""
        X = np.asarray(X, dtype=np.float64)
        self._check_width(X)
        if prefix_margin is None:
            margin, prefix_trees = np.full(X.shape[0], self.base_score, dtype=np.float64), 0
        else:
            margin = np.array(prefix_margin, dtype=np.float64)
        for tree in self.trees[prefix_trees:]:
            margin += self.learning_rate * tree.apply(X)
        return margin

    def predict_proba(self, X, prefix_margin=None, prefix_trees=0):
        """Positive-class probability, strictly inside (0, 1)."""
        p = _sigmoid(self.predict_margin(X, prefix_margin, prefix_trees))
        return np.clip(p, PROB_EPS, 1.0 - PROB_EPS)


@dataclass
class WarmStartResult:
    ensemble: BoostedEnsemble
    appended: int
    cap_reached: bool


def _sigmoid(z):
    out = np.empty_like(z)
    posm = z >= 0
    out[posm] = 1.0 / (1.0 + np.exp(-z[posm]))
    ez = np.exp(z[~posm])
    out[~posm] = ez / (1.0 + ez)
    return out


def compute_bin_edges(X, n_bins):
    """Per-feature split candidates.

    Features with few distinct values get exact midpoints (histogram split
    then equals an exhaustive scan); wide features get equal-frequency
    quantile edges.
    """
    edges = []
    for f in range(X.shape[1]):
        col = X[:, f]
        distinct = np.unique(col)
        if distinct.size <= 1:
            e = np.empty(0, dtype=np.float64)
        elif distinct.size <= n_bins:
            e = (distinct[:-1] + distinct[1:]) / 2.0
        else:
            qs = np.quantile(col, np.arange(1, n_bins) / n_bins)
            e = np.unique(qs)
        edges.append(e)
    return edges


def bin_features(X, bin_edges):
    binned = np.empty(X.shape, dtype=np.int32)
    for f, e in enumerate(bin_edges):
        binned[:, f] = np.searchsorted(e, X[:, f], side="right")
    return binned


def find_best_split(binned, g, h, rows, feat_ids, n_bins, l2_reg, min_child_weight):
    """Best (feature, bin, gain) over histogram cut points, or None.

    Gain must be strictly positive; ties resolve to the smallest feature
    index then the smallest bin, so growth is deterministic.
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
        bf = binned[rows, f]
        hist_g = np.bincount(bf, weights=g_rows, minlength=nb)
        hist_h = np.bincount(bf, weights=h_rows, minlength=nb)
        g_left = np.cumsum(hist_g)[:-1]
        h_left = np.cumsum(hist_h)[:-1]
        g_right = g_total - g_left
        h_right = h_total - h_left
        ok = (h_left >= min_child_weight) & (h_right >= min_child_weight)
        if not ok.any():
            continue
        gains = 0.5 * (
            g_left * g_left / (h_left + l2_reg)
            + g_right * g_right / (h_right + l2_reg)
            - parent
        )
        gains[~ok] = -np.inf
        b = int(np.argmax(gains))
        if gains[b] > best_gain:
            best_gain = float(gains[b])
            best = (f, b, best_gain)
    return best


def _grow_tree(binned, g, h, rows, feat_ids, bin_edges, n_bins, config):
    feature, threshold, left, right, value, depth = [], [], [], [], [], []

    def new_node(d):
        feature.append(-1)
        threshold.append(0.0)
        left.append(-1)
        right.append(-1)
        value.append(0.0)
        depth.append(d)
        return len(feature) - 1

    frontier = [(new_node(0), rows)]
    while frontier:
        node_id, node_rows = frontier.pop(0)
        best = None
        if depth[node_id] < config.max_depth and node_rows.size >= 2:
            best = find_best_split(
                binned, g, h, node_rows, feat_ids, n_bins, config.l2_reg, config.min_child_weight
            )
        if best is None:
            g_sum = g[node_rows].sum()
            h_sum = h[node_rows].sum()
            value[node_id] = -g_sum / (h_sum + config.l2_reg)
            continue
        f, b, _ = best
        feature[node_id] = f
        threshold[node_id] = float(bin_edges[f][b])
        mask = binned[node_rows, f] <= b
        left_id = new_node(depth[node_id] + 1)
        right_id = new_node(depth[node_id] + 1)
        left[node_id] = left_id
        right[node_id] = right_id
        frontier.append((left_id, node_rows[mask]))
        frontier.append((right_id, node_rows[~mask]))
    return Tree(feature, threshold, left, right, value)


def _boost(ensemble, X, y, objective, config, rounds):
    binned = bin_features(X, ensemble.bin_edges)
    n_bins = [e.size + 1 for e in ensemble.bin_edges]
    n, width = X.shape
    margin = ensemble.predict_margin(X)
    rng = ensemble.rng
    all_rows = np.arange(n)
    all_feats = np.arange(width)
    n_cols = max(1, int(round(config.colsample * width)))
    for _ in range(rounds):
        p = np.clip(_sigmoid(margin), PROB_EPS, 1.0 - PROB_EPS)
        g, h = grad_hess(p, y, objective, hess_floor=HESS_FLOOR)
        if config.subsample < 1.0:
            mask = rng.random(n) < config.subsample
            rows = all_rows[mask] if mask.any() else all_rows
        else:
            rows = all_rows
        if n_cols < width:
            feats = np.sort(rng.choice(width, size=n_cols, replace=False))
        else:
            feats = all_feats
        tree = _grow_tree(binned, g, h, rows, feats, ensemble.bin_edges, n_bins, config)
        ensemble.trees.append(tree)
        margin += ensemble.learning_rate * tree.apply(X)


def train_initial(X, y, objective, config, rng):
    """Train the frozen core: exactly config.initial_rounds trees.

    base_score is the log-odds of training prevalence. Row and column
    sampling draw from ``rng``, which the ensemble keeps for its warm
    starts, so a run's draws form one stream.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n_pos = int((y == 1).sum())
    if n_pos == 0 or n_pos == y.size:
        raise ValueError("training data must contain both classes")
    prevalence = n_pos / y.size
    ensemble = BoostedEnsemble(
        trees=[],
        base_score=math.log(prevalence / (1.0 - prevalence)),
        learning_rate=config.learning_rate,
        max_depth=config.max_depth,
        max_trees=config.max_trees,
        bin_edges=compute_bin_edges(X, config.bins),
        n_features=X.shape[1],
        rng=rng,
    )
    objective = resolve_pos_weight(objective, y)
    _boost(ensemble, X, y, objective, config, config.initial_rounds)
    return ensemble


def warm_start_update(ensemble, X, y, objective, config):
    """Append up to rounds_per_update trees fitted to the labeled batch.

    Trees are fitted to gradients under the current ensemble's predictions;
    the existing prefix is never modified. Returns a new ensemble value so
    the caller can hot-swap it; at the tree cap this is a no-op with a
    cap-reached status.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if y.size == 0:
        raise ValueError("warm-start batch is empty")
    ensemble._check_width(X)
    room = ensemble.max_trees - ensemble.n_trees
    if room <= 0:
        return WarmStartResult(ensemble, 0, True)
    n_new = min(config.rounds_per_update, room)
    updated = replace(ensemble, trees=list(ensemble.trees))
    _boost(updated, X, y, objective, config, n_new)
    return WarmStartResult(updated, n_new, updated.n_trees >= updated.max_trees)
