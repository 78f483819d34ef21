"""Histogram-based gradient-boosted trees with append-only warm starts.

A deliberately small booster: axis-aligned regression trees grown
depth-wise over quantile-binned features, additive log-odds leaves, and
warm-start continuation that appends new trees to a frozen prefix. Bin
edges are computed once from the initial training matrix and reused for
every later update so update cost stays bounded and deterministic. A node
whose hessian total is below twice min_child_weight is a leaf without a
split search: no cut could give both children min_child_weight.
Every score comes from one QuickScorer pass over a table of the split
tests and leaf values of the trees it scores (``_Table.add_trees``).
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


# Elements in each temporary of one scoring tile: 1 MB of uint64 masks.
TILE_ELEMENTS = 1 << 17


class Tree:
    """One regression tree as node arrays, plus its rows for the scoring table.

    feature[i] >= 0 marks a split node (go left when x[feature] < threshold),
    feature[i] == -1 marks a leaf whose additive value is value[i]; node 0 is
    the root. Leaves are numbered left to right and ``leaf_value`` is value
    in leaf order. A split node's mask has every leaf bit set but those of
    its left subtree (leaf j is bit j % 64 of word j // 64). The tree's
    table rows are the mask words with a bit cleared, grouped by word, so
    each word of the tree has a row; a word that holds only the last leaf
    gets one all-ones row. ``rows`` holds (feature, threshold, mask word)
    per row, ``words`` the word numbers and ``word_rows`` the row count of
    each word.
    """

    __slots__ = (
        "feature", "threshold", "left", "right", "value", "leaf_value", "rows", "words", "word_rows"
    )

    def __init__(self, feature, threshold, left, right, value):
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=np.float64)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=np.float64)
        first_leaf = np.empty(self.feature.size, dtype=np.int64)  # leftmost leaf under each node
        n_leaves, stack = 0, [0]
        while stack:  # depth first, left before right, so leaves come in order
            node = stack.pop()
            first_leaf[node] = n_leaves
            if self.feature[node] < 0:
                n_leaves += 1
            else:
                stack += (self.right[node], self.left[node])
        leaves = np.flatnonzero(self.feature < 0)
        self.leaf_value = np.empty(n_leaves, dtype=np.float64)
        self.leaf_value[first_leaf[leaves]] = self.value[leaves]
        splits = np.flatnonzero(self.feature >= 0)
        lo = first_leaf[self.left[splits]]  # a split's left subtree holds leaves [lo, hi)
        hi = first_leaf[self.right[splits]]
        node = np.repeat(np.arange(splits.size), (hi - 1) // 64 - lo // 64 + 1)  # a row per word
        word = np.arange(node.size) - np.searchsorted(node, node) + lo[node] // 64
        order = np.argsort(word, kind="stable")
        node, word = node[order], word[order]
        start = np.maximum(lo[node] - 64 * word, 0)  # the word's bits [start, stop) are cleared
        stop = np.minimum(hi[node] - 64 * word, 64)
        if n_leaves % 64 == 1 and splits.size:  # a word of only the last leaf, in no left subtree
            node, word = np.append(node, 0), np.append(word, n_leaves // 64)
            start, stop = np.append(start, 0), np.append(stop, 0)  # a row that clears nothing
        mask = ~(_LOW_BITS[stop] ^ _LOW_BITS[start])
        self.rows = (self.feature[splits[node]], self.threshold[splits[node]], mask)
        word_rows = np.bincount(word)
        self.words = np.flatnonzero(word_rows)
        self.word_rows = word_rows[self.words]


@dataclass(frozen=True, eq=False)
class _Table:
    """The scoring rows of a sequence of trees, in blocks of equal-size groups.

    ``trees`` are the tree objects the rows came from, so a table is never
    taken for a tree list it was not built from. A group is the rows of one
    word of one tree, whose AND gives that word's exits. Groups with the
    same number of rows form a block, blocks come in order of that number
    and groups within a block in tree order, so each block is ANDed as one
    (groups, rows per group, X rows) array.
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
        """The table of a non-empty sequence of trees."""
        feature, threshold, mask = (np.concatenate(c) for c in zip(*(t.rows for t in trees)))
        size = np.concatenate([t.word_rows for t in trees])  # rows per group, tree order
        n_words = [t.words.size for t in trees]
        order = np.argsort(size, kind="stable")  # groups in block order
        row = np.argsort(np.repeat(size, size), kind="stable")  # rows in block order
        count = np.bincount(size)
        ks = np.flatnonzero(count)  # the blocks' rows per group, ascending
        ns = count[ks]
        first_groups, first_rows = _starts(ns), _starts(ks * ns)
        return cls(
            list(trees),
            feature[row],
            threshold[row],
            mask[row],
            tuple(zip(first_rows.tolist(), first_groups.tolist(), ns.tolist(), ks.tolist())),
            np.repeat(np.arange(len(trees)), n_words)[order],
            np.concatenate([t.words for t in trees])[order],
            np.argsort(order),
            _starts(n_words),
            np.concatenate([t.leaf_value for t in trees]),
            _starts([t.leaf_value.size for t in trees]),
        )

    def tile_rows(self):
        """Rows of X per scoring tile: about TILE_ELEMENTS elements each."""
        return max(1, TILE_ELEMENTS // max(self.feature.size, len(self.trees) + 1))

    def add_trees(self, X, margin, learning_rate):
        """margin plus learning_rate times each row's exit leaf value in every tree.

        QuickScorer (Lucchese et al., SIGIR 2015): every split test of every
        tree is evaluated at once; a tree's exit leaf is the lowest bit left
        set after ANDing the masks of its failed tests, one reduce per block.
        The leaf values then join the margin in one sequential cumsum per
        row, in tree order, so each row gets the float adds of
        ``margin += learning_rate * value`` tree by tree. A tree that is a
        single leaf exits at its leaf 0 on every row.
        """
        value = learning_rate * self.leaf_value  # the walk's learning_rate * value products
        split_trees = np.flatnonzero(np.diff(self.tree_start))
        several_words = self.word.size > split_trees.size  # a tree of more than 64 leaves
        leaf_base = self.leaf_start[self.group_tree, None] - 1 + 64 * self.word[:, None]
        tile = self.tile_rows()
        for start in range(0, margin.size, tile):
            rows = slice(start, start + tile)
            adds = np.empty((len(self.trees) + 1, margin[rows].size))  # trees down, X rows across
            adds[0] = margin[rows]
            adds[1:] = value[self.leaf_start[:-1], None]
            if self.word.size:
                left = X[rows].T[self.feature] < self.threshold[:, None]
                kept = np.multiply(left, _ONES)  # a passed test keeps every leaf
                kept |= self.mask[:, None]
                exits = np.empty((self.word.size, kept.shape[1]), dtype=np.uint64)
                for row, group, n, k in self.blocks:
                    block = kept[row : row + n * k].reshape(n, k, -1)
                    np.bitwise_and.reduce(block, axis=1, out=exits[group : group + n])
                leaf = leaf_base + np.bitwise_count(exits ^ (exits - _ONE))  # 1 + lowest set bit
                if several_words:  # such a tree exits in its first word with a bit set
                    leaf = np.where(exits > 0, leaf, _NO_LEAF)[self.unblock]
                    leaf = np.minimum.reduceat(leaf, self.tree_start[split_trees])
                    adds[1 + split_trees] = value[leaf]
                else:
                    adds[1 + self.group_tree] = value[leaf]
            margin[rows] = np.cumsum(adds, axis=0)[-1]
        return margin


_ONE = np.uint64(1)
_ONES = np.uint64(0xFFFF_FFFF_FFFF_FFFF)
_LOW_BITS = np.array([(1 << k) - 1 for k in range(65)], dtype=np.uint64)  # bits [0, k) set
_NO_LEAF = np.iinfo(np.int64).max  # the leaf of an empty word: above every leaf


def _starts(sizes):
    """Offsets of consecutive blocks of ``sizes`` rows, from 0 to their total."""
    starts = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, dtype=np.int64, out=starts[1:])
    return starts


@dataclass
class BoostedEnsemble:
    """Ordered list of trees plus base log-odds; immutable by convention.

    Warm starts return a new ensemble sharing the tree prefix, so callers
    hot-swap the whole value. The generator drives subsample/colsample
    draws and is carried across updates. A call scores the trees after its
    prefix from a table of exactly those trees; ``table`` keeps the last
    one, for the next call that scores the same tree objects.
    """

    trees: list
    base_score: float
    learning_rate: float
    max_trees: int
    bin_edges: list
    n_features: int
    rng: np.random.Generator = field(repr=False, default=None)
    table: _Table = field(repr=False, compare=False, default=None)

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
        return self.table.add_trees(X, margin, self.learning_rate)

    def predict_proba(self, X, prefix_margin=None, prefix_trees=0):
        """Positive-class probability, strictly inside (0, 1)."""
        return _sigmoid(self.predict_margin(X, prefix_margin, prefix_trees))


@dataclass
class WarmStartResult:
    ensemble: BoostedEnsemble
    appended: int
    cap_reached: bool


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
    index then the smallest bin, so growth is deterministic. A cut needs a
    row on each side, and a side whose h + l2_reg is not positive has no
    gain. Every h is positive (the objective's floor), so a bin holds rows
    iff its h sum is positive.
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
        with np.errstate(divide="ignore", invalid="ignore"):  # empty sides at l2_reg 0, masked
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
        if not (valid and math.isfinite(gains[b])):  # so mask every invalid cut
            occupied = np.flatnonzero(hist_h)
            ok[: occupied[0]] = ok[occupied[-1] :] = False  # a side without rows
            gains[~(ok & (h_right + l2_reg > 0))] = -np.inf
            b = int(np.argmax(gains))
            if not gains[b] > best_gain:
                continue
        best_gain = float(gains[b])
        best = (f, b, best_gain)
    return best


def _grow_tree(binned, g, h, rows, feat_ids, bin_edges, n_bins, config):
    nodes = [[-1, 0.0, -1, -1, 0.0]]  # feature, threshold, left, right, value
    frontier = [(0, 0, rows)]  # (node, depth, rows), breadth first, grown while iterated
    # A cut needs h_left >= mcw and fl(h_total - h_left) >= mcw, so h_total >= mcw + mcw /
    # (1 + 2**-53); below this bound find_best_split would return None.
    min_split_hess = 2.0 * config.min_child_weight * (1.0 - 1e-12)
    for node_id, depth, node_rows in frontier:
        node = nodes[node_id]
        h_sum = h[node_rows].sum()
        best = None
        if depth < config.max_depth and node_rows.size >= 2 and h_sum >= min_split_hess:
            best = find_best_split(
                binned, g, h, node_rows, feat_ids, n_bins, config.l2_reg, config.min_child_weight
            )
        if best is None:
            node[4] = -g[node_rows].sum() / (h_sum + config.l2_reg)  # every node has rows
            continue
        f, b, _ = best
        go_left = binned[node_rows, f] <= b
        node[:4] = f, float(bin_edges[f][b]), len(nodes), len(nodes) + 1
        frontier += [(len(nodes), depth + 1, node_rows[go_left])]
        frontier += [(len(nodes) + 1, depth + 1, node_rows[~go_left])]
        nodes += [[-1, 0.0, -1, -1, 0.0], [-1, 0.0, -1, -1, 0.0]]
    return Tree(*zip(*nodes))


def _boost(ensemble, X, y, objective, config, rounds, prefix_margin=None, prefix_trees=0):
    binned = bin_features(X, ensemble.bin_edges)
    n_bins = [e.size + 1 for e in ensemble.bin_edges]
    n, width = X.shape
    margin = ensemble.predict_margin(X, prefix_margin, prefix_trees)
    rng = ensemble.rng
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
        tree = _grow_tree(binned, g, h, rows, feats, ensemble.bin_edges, n_bins, config)
        ensemble.trees.append(tree)
        margin = ensemble.predict_margin(X, margin, ensemble.n_trees - 1)


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
        max_trees=config.max_trees,
        bin_edges=compute_bin_edges(X, config.bins),
        n_features=X.shape[1],
        rng=rng,
    )
    objective = resolve_pos_weight(objective, y)
    _boost(ensemble, X, y, objective, config, config.initial_rounds)
    return ensemble


def warm_start_update(ensemble, X, y, objective, config, prefix_margin=None, prefix_trees=0):
    """Append up to rounds_per_update trees fitted to the labeled batch.

    Trees are fitted to gradients under the current ensemble's predictions;
    the existing prefix is never modified. Given ``prefix_margin``, the
    margin of the first ``prefix_trees`` trees on X, only the later trees
    are scored for those predictions. Returns a new ensemble value so the
    caller can hot-swap it; at the tree cap this is a no-op with a
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
    _boost(updated, X, y, objective, config, n_new, prefix_margin, prefix_trees)
    return WarmStartResult(updated, n_new, updated.n_trees >= updated.max_trees)
