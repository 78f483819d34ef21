"""Histogram-based gradient-boosted trees with append-only warm starts.

A deliberately small booster: axis-aligned regression trees grown in
preorder over quantile-binned features, additive log-odds leaves, and
warm-start continuation that appends new trees to a frozen prefix. Bin
edges are computed once from the initial training matrix and reused for
every later update so update cost stays bounded and deterministic. A node
whose hessian total is below twice min_child_weight is a leaf without a
split search: no cut could give both children min_child_weight. A tree is
its preorder node arrays, and a leaf's value already carries the learning
rate. Growth routes each training row to its leaf; any other score is one
QuickScorer pass (``_Table.add_trees``) over a table that ``_Table.of``
lays out from the node arrays of the trees it scores.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .objectives import HESS_FLOOR, PROB_EPS, grad_hess, resolve_pos_weight
from .schema import check_fields, interval


@dataclass(frozen=True)
class TrainConfig:
    initial_rounds: int = interval("[1, inf)", 100)
    rounds_per_update: int = interval("[1, inf)", 10)
    learning_rate: float = interval("(0, inf)", 0.10)
    max_depth: int = interval("[0, inf)", 6)
    max_trees: int = interval("[1, inf)", 500)
    bins: int = interval("[2, inf)", 256)
    min_child_weight: float = interval("[0, inf)", 1.0)
    subsample: float = interval("(0, 1]", 0.90)
    colsample: float = interval("(0, 1]", 0.90)
    l2_reg: float = interval("[0, inf)", 1.00)

    def __post_init__(self):
        check_fields(self)


# Elements in each temporary of one scoring tile: 1 MB of uint64 masks.
TILE_ELEMENTS = 1 << 17


class Tree:
    """One regression tree as node arrays in preorder.

    feature[i] >= 0 marks a split node (go left when x[feature] < threshold)
    whose left child is node i + 1 and right child node right[i];
    feature[i] == -1 marks a leaf whose additive value is value[i]. Leaves
    in node order run left to right.
    """

    __slots__ = ("feature", "threshold", "right", "value")

    def __init__(self, feature, threshold, right, value):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class _Table:
    """The scoring rows of a sequence of trees, in blocks of equal-size groups.

    ``trees`` are the tree objects the rows came from, so a table is never
    taken for a tree list it was not built from. Leaf j of a tree is bit
    j % 64 of its word j // 64. A split has a row for each word its left
    subtree touches: its test and that word with the subtree's bits cleared.
    A group is the rows of one word of one tree, whose AND gives that word's
    exits; a word of only the last leaf, in no left subtree, has no group.
    Groups with the same number of rows form a block, blocks come in order
    of that number and groups within a block in tree order, so each block is
    ANDed as one (groups, rows per group, X rows) array.
    """

    trees: list
    feature: np.ndarray  # per row, block after block
    threshold: np.ndarray
    mask: np.ndarray
    blocks: tuple  # per block: (first row, first group, groups, rows per group)
    group_tree: np.ndarray  # per group, in block order: the index of its tree
    word: np.ndarray  # per group, in block order: the word of its tree it covers
    unblock: np.ndarray  # per group in tree order: its place in block order
    tree_start: np.ndarray  # (trees + 1,): each tree's first group in tree order
    leaf_value: np.ndarray  # in leaf order
    leaf_start: np.ndarray  # (trees + 1,): each tree's first leaf

    @classmethod
    def of(cls, trees):
        """The table of a non-empty sequence of trees, laid out from their node arrays."""
        feature, threshold, right, value = (
            np.concatenate([getattr(t, name) for t in trees]) for name in Tree.__slots__
        )
        node_start = _starts([t.feature.size for t in trees])
        first_leaf = _starts(feature < 0)  # leftmost leaf under each node, in preorder
        leaf_start = first_leaf[node_start]
        n_words = (np.diff(leaf_start) + 62) // 64  # words of each tree's leaves but its last
        tree_start = _starts(n_words)
        splits = np.flatnonzero(feature >= 0)
        tree = np.searchsorted(node_start, splits, side="right") - 1
        lo = first_leaf[splits] - leaf_start[tree]  # a split's left subtree holds leaves [lo, hi)
        hi = first_leaf[node_start[tree] + right[splits]] - leaf_start[tree]
        node = np.repeat(np.arange(splits.size), (hi - 1) // 64 - lo // 64 + 1)  # a row per word
        word = np.arange(node.size) - np.searchsorted(node, node) + lo[node] // 64
        group = tree_start[tree[node]] + word  # groups in tree order, words ascending
        size = np.bincount(group, minlength=tree_start[-1])  # rows per group
        row = np.lexsort((group, size[group]))  # rows in block order
        node, word = node[row], word[row]
        start = np.maximum(lo[node] - 64 * word, 0)  # the word's bits [start, stop) are cleared
        stop = np.minimum(hi[node] - 64 * word, 64)
        order = np.argsort(size, kind="stable")  # groups in block order
        ks, ns = np.unique(size, return_counts=True)  # the blocks' rows per group, ascending
        first_groups, first_rows = _starts(ns), _starts(ks * ns)
        group_tree = np.repeat(np.arange(len(trees)), n_words)
        return cls(
            list(trees),
            feature[splits[node]],
            threshold[splits[node]],
            ~(_LOW_BITS[stop] ^ _LOW_BITS[start]),
            tuple(zip(first_rows.tolist(), first_groups.tolist(), ns.tolist(), ks.tolist())),
            group_tree[order],
            (np.arange(tree_start[-1]) - tree_start[group_tree])[order],
            np.argsort(order),
            tree_start,
            value[feature < 0],
            leaf_start,
        )

    def tile_rows(self):
        """Rows of X per scoring tile: about TILE_ELEMENTS elements each."""
        return max(1, TILE_ELEMENTS // max(self.feature.size, len(self.trees) + 1))

    def add_trees(self, X, margin):
        """margin plus each row's exit leaf value in every tree.

        QuickScorer (Lucchese et al., SIGIR 2015): every split test of every
        tree is evaluated at once; a tree's exit leaf is the lowest bit left
        set after ANDing the masks of its failed tests, one reduce per block.
        The leaf values then join the margin in one sequential cumsum per
        row, in tree order, so each row gets the float adds of
        ``margin += value`` tree by tree. A tree that is a single leaf exits
        at its leaf 0 on every row.
        """
        split_trees = np.flatnonzero(np.diff(self.tree_start))
        several_words = np.diff(self.leaf_start).max() > 64  # a tree of more than 64 leaves
        leaf_base = self.leaf_start[self.group_tree, None] - 1 + 64 * self.word[:, None]
        last = self.leaf_start[self.group_tree + 1, None] - 1  # each group's tree's last leaf
        tile = self.tile_rows()
        for start in range(0, margin.size, tile):
            rows = slice(start, start + tile)
            adds = np.empty((len(self.trees) + 1, margin[rows].size))  # trees down, X rows across
            adds[0] = margin[rows]
            adds[1:] = self.leaf_value[self.leaf_start[:-1], None]
            if self.word.size:
                left = X[rows].T[self.feature] < self.threshold[:, None]
                kept = np.multiply(left, _ONES)  # a passed test keeps every leaf
                kept |= self.mask[:, None]
                exits = np.empty((self.word.size, kept.shape[1]), dtype=np.uint64)
                for row, group, n, k in self.blocks:
                    block = kept[row : row + n * k].reshape(n, k, -1)
                    np.bitwise_and.reduce(block, axis=1, out=exits[group : group + n])
                leaf = leaf_base + np.bitwise_count(exits ^ (exits - _ONE))  # 1 + lowest set bit
                if several_words:  # in its first word with a bit set, or else at its last leaf
                    leaf = np.where(exits > 0, leaf, last)[self.unblock]
                    leaf = np.minimum.reduceat(leaf, self.tree_start[split_trees])
                    adds[1 + split_trees] = self.leaf_value[leaf]
                else:
                    adds[1 + self.group_tree] = self.leaf_value[leaf]
            margin[rows] = np.cumsum(adds, axis=0)[-1]
        return margin


_ONE = np.uint64(1)
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_LOW_BITS = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)  # bits [0, k) set


def _starts(sizes):
    """Offsets of consecutive blocks of ``sizes`` rows, from 0 to their total."""
    starts = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, dtype=np.int64, out=starts[1:])
    return starts


@dataclass
class BoostedEnsemble:
    """Ordered list of trees, base log-odds and bin edges; immutable by convention.

    Warm starts return a new ensemble sharing the tree prefix, so callers
    hot-swap the whole value. ``bin_edges`` has one entry per feature. A
    call scores the trees after its prefix from a table of exactly those
    trees; ``table`` keeps the last one, for the next call that scores the
    same tree objects.
    """

    trees: list
    base_score: float
    bin_edges: list
    table: _Table = field(repr=False, compare=False, default=None)

    @property
    def n_trees(self):
        return len(self.trees)

    def _check_width(self, X):
        if X.ndim != 2 or X.shape[1] != len(self.bin_edges):
            raise ValueError(
                f"feature width mismatch: got {X.shape[1] if X.ndim == 2 else X.shape}, "
                f"expected {len(self.bin_edges)}"
            )

    def predict_margin(self, X, prefix_margin=None, prefix_trees=0):
        """Log-odds per row of X. Given ``prefix_margin``, the margin of the first
        ``prefix_trees`` trees on X, only the later trees are scored, in order."""
        X = np.asarray(X, dtype=np.float64)
        self._check_width(X)
        if prefix_margin is None:
            margin, prefix_trees = np.full(X.shape[0], self.base_score, dtype=np.float64), 0
        else:
            margin = np.array(prefix_margin, dtype=np.float64)
        if prefix_trees == self.n_trees:
            return margin
        trees = self.trees[prefix_trees:]
        if self.table is None or self.table.trees != trees:  # trees compare by identity
            self.table = _Table.of(trees)
        return self.table.add_trees(X, margin)

    def predict_proba(self, X, prefix_margin=None, prefix_trees=0):
        """Positive-class probability, strictly inside (0, 1)."""
        return _sigmoid(self.predict_margin(X, prefix_margin, prefix_trees))


@dataclass
class WarmStartResult:
    ensemble: BoostedEnsemble
    appended: int


def _sigmoid(z):
    """The logistic of z, clipped to [PROB_EPS, 1 - PROB_EPS]."""
    out = np.empty_like(z)
    posm = z >= 0
    out[posm] = 1.0 / (1.0 + np.exp(-z[posm]))
    ez = np.exp(z[~posm])
    out[~posm] = ez / (1.0 + ez)
    return np.clip(out, PROB_EPS, 1.0 - PROB_EPS, out=out)


def compute_bin_edges(X, n_bins):
    """Per-feature split candidates.

    Features with few distinct values get exact midpoints (histogram split
    then equals an exhaustive scan); wide features get equal-frequency
    quantile edges. Both come from the finite cells, so every edge is
    finite (a midpoint whose sum overflows is the sum of the halves):
    -inf bins with the least finite value, and +inf and NaN with the
    greatest, which is where ``x < threshold`` sends them.
    """
    edges = []
    for f in range(X.shape[1]):
        col = X[np.isfinite(X[:, f]), f]
        distinct = np.unique(col)
        if distinct.size <= 1:
            e = np.empty(0, dtype=np.float64)
        elif distinct.size <= n_bins:
            a, b = distinct[:-1], distinct[1:]
            with np.errstate(over="ignore"):
                e = (a + b) / 2.0
            wide = np.isinf(e)  # a + b overflowed near the float maximum
            e[wide] = a[wide] / 2.0 + b[wide] / 2.0
        else:
            qs = np.quantile(col, np.arange(1, n_bins) / n_bins)
            e = np.unique(qs)
        edges.append(e)
    return edges


def bin_features(X, bin_edges):
    """Each feature's bin numbers, one contiguous row per feature: (features, rows)."""
    binned = np.empty((len(bin_edges), X.shape[0]), dtype=np.int32)
    for f, e in enumerate(bin_edges):
        binned[f] = np.searchsorted(e, X[:, f], side="right")
    return binned


def find_best_split(binned, g, h, rows, feat_ids, n_bins, l2_reg, min_child_weight):
    """Best (feature, bin, gain) over histogram cut points, or None.

    Gain must be strictly positive; ties resolve to the first feature of
    ``feat_ids`` then the smallest bin, so growth is deterministic. A cut
    needs a row on each side, and a side whose h + l2_reg is not positive
    has no gain. Every h is positive (the objective's floor), so a bin
    holds rows iff its h sum is positive. Each feature's histogram is a row
    of one (features, bins) matrix, zero-padded to the widest feature, so
    every cut of every feature is scored and masked at once; a padded cut
    has no row on its right.
    """
    g_rows = g[rows]
    h_rows = h[rows]
    g_total = g_rows.sum()
    h_total = h_rows.sum()
    parent = g_total * g_total / (h_total + l2_reg)
    width = max(n_bins[f] for f in feat_ids)
    if width < 2:
        return None
    hist_g = np.empty((len(feat_ids), width))
    hist_h = np.empty_like(hist_g)
    for i, f in enumerate(feat_ids):
        bf = binned[f][rows]
        hist_g[i] = np.bincount(bf, weights=g_rows, minlength=width)
        hist_h[i] = np.bincount(bf, weights=h_rows, minlength=width)
    g_left = np.cumsum(hist_g, axis=1)[:, :-1]
    h_left = np.cumsum(hist_h, axis=1)[:, :-1]
    g_right = g_total - g_left
    h_right = h_total - h_left
    occupied = np.cumsum(hist_h > 0, axis=1)  # bins with rows, up to each bin
    valid = (h_left >= min_child_weight) & (h_right >= min_child_weight)
    valid &= (h_right + l2_reg > 0) & (occupied[:, :-1] > 0) & (occupied[:, :-1] < occupied[:, -1:])
    with np.errstate(divide="ignore", invalid="ignore"):  # empty sides at l2_reg 0, masked
        gains = 0.5 * (
            g_left * g_left / (h_left + l2_reg) + g_right * g_right / (h_right + l2_reg) - parent
        )
    gains = np.where(valid, gains, -np.inf)
    i, b = divmod(int(np.argmax(gains)), width - 1)
    if not gains[i, b] > 0.0:
        return None
    return feat_ids[i], b, float(gains[i, b])


def _grow_tree(binned, g, h, rows, feat_ids, bin_edges, n_bins, config):
    """(tree, exits): the tree fitted to ``rows``, grown in preorder, and every row's leaf."""
    exits = np.empty(binned.shape[1], dtype=np.intp)
    nodes = []  # feature, threshold, right, value
    stack = [(0, rows, np.arange(binned.shape[1]), None)]
    # A cut needs h_left >= mcw and fl(h_total - h_left) >= mcw, so h_total >= mcw + mcw /
    # (1 + 2**-53); below this bound find_best_split would return None.
    min_split_hess = 2.0 * config.min_child_weight * (1.0 - 1e-12)
    while stack:  # left child on top, so it is numbered right after its parent
        depth, node_rows, routed, parent = stack.pop()
        if parent is not None:
            parent[2] = len(nodes)
        node = [-1, 0.0, -1, 0.0]
        nodes.append(node)
        h_sum = h[node_rows].sum()
        best = None
        if depth < config.max_depth and node_rows.size >= 2 and h_sum >= min_split_hess:
            best = find_best_split(
                binned, g, h, node_rows, feat_ids, n_bins, config.l2_reg, config.min_child_weight
            )
        if best is None:
            node[3] = -g[node_rows].sum() / (h_sum + config.l2_reg)  # every node has rows
            exits[routed] = len(nodes) - 1
            continue
        f, b, _ = best
        node[:2] = f, float(bin_edges[f][b])
        go_left, all_left = binned[f][node_rows] <= b, binned[f][routed] <= b
        stack += [(depth + 1, node_rows[~go_left], routed[~all_left], node)]
        stack += [(depth + 1, node_rows[go_left], routed[all_left], None)]
    feature, threshold, right, value = zip(*nodes)
    return Tree(feature, threshold, right, config.learning_rate * np.array(value)), exits


def _boost(X, y, margin, bin_edges, objective, config, rounds, rng):
    """``rounds`` new trees, each fitted to the gradients at ``margin`` plus the trees before it."""
    binned = bin_features(X, bin_edges)
    n_bins = [e.size + 1 for e in bin_edges]
    n, width = X.shape
    trees = []
    all_rows = np.arange(n)
    all_feats = np.arange(width)
    n_cols = max(1, int(round(config.colsample * width)))
    for _ in range(rounds):
        p = _sigmoid(margin)
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
        tree, exits = _grow_tree(binned, g, h, rows, feats, bin_edges, n_bins, config)
        trees.append(tree)
        margin = margin + tree.value[exits]  # add_trees' one add
    return trees


def train_initial(X, y, objective, config, rng):
    """Train the frozen core: exactly config.initial_rounds trees.

    base_score is the log-odds of training prevalence. Row and column
    sampling draw from ``rng``; a run passes the same generator to its warm
    starts, so its draws form one stream.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    n_pos = int((y == 1).sum())
    if n_pos == 0 or n_pos == y.size:
        raise ValueError("training data must contain both classes")
    prevalence = n_pos / y.size
    base_score = math.log(prevalence / (1.0 - prevalence))
    bin_edges = compute_bin_edges(X, config.bins)
    margin = np.full(X.shape[0], base_score, dtype=np.float64)
    objective = resolve_pos_weight(objective, y)
    trees = _boost(X, y, margin, bin_edges, objective, config, config.initial_rounds, rng)
    return BoostedEnsemble(trees, base_score, bin_edges)


def warm_start_update(ensemble, X, y, objective, config, rng, prefix_margin=None, prefix_trees=0):
    """Append up to rounds_per_update trees fitted to the labeled batch, up to max_trees.

    Trees are fitted to gradients under the current ensemble's predictions;
    the existing prefix is never modified. Given ``prefix_margin``, the
    margin of the first ``prefix_trees`` trees on X, only the later trees
    are scored for those predictions. Returns a new ensemble value so the
    caller can hot-swap it; at the tree cap this is a no-op that appends
    none. Sampling draws from ``rng``.
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if y.size == 0:
        raise ValueError("warm-start batch is empty")
    ensemble._check_width(X)
    room = config.max_trees - ensemble.n_trees
    if room <= 0:
        return WarmStartResult(ensemble, 0)
    n_new = min(config.rounds_per_update, room)
    margin = ensemble.predict_margin(X, prefix_margin, prefix_trees)
    trees = _boost(X, y, margin, ensemble.bin_edges, objective, config, n_new, rng)
    return WarmStartResult(replace(ensemble, trees=ensemble.trees + trees), n_new)
