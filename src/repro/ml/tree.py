"""CART-style regression tree with an XGBoost-flavoured split objective.

The tree minimizes the regularized squared-loss objective used by XGBoost:
for a leaf with gradient sum ``G`` and hessian sum ``H`` (hessian is the
sample count for squared loss), the optimal weight is ``-G / (H + lambda)``
and the split gain is the standard

    gain = 0.5 * (GL²/(HL+λ) + GR²/(HR+λ) - G²/(H+λ)) - γ

A standalone tree (``RegressionTree.fit(X, y)``) simply boosts a single
round from a zero prediction, which reduces to ordinary variance-minimizing
CART with L2 leaf shrinkage.

Level-wise frontier engine
--------------------------
Trees grow breadth-first: all open nodes of a depth level form a *frontier*
held as contiguous row segments of one shared, presorted workspace
(:class:`TreeWorkspace` — feature-major stable sort order of ``X``, computed
once per fit).  The split search for **every frontier node and every
feature** runs in a single batched pass: segments are gathered into a
padded ``(n_features, n_nodes, width)`` block, cumulative gradient/hessian
sums restart per segment (bitwise-identical to a per-node scan), every
candidate threshold is scored in one array expression, and one fused
feature-major argmax per node picks the winner — ties resolve to the lowest
(feature, position) pair, matching the historical scalar scan order.

There is no recursion and no per-node bookkeeping: accepted splits
partition each segment in place (a stable two-way partition driven by the
root sort order, so **no argsort ever runs below the root** — see
``SORT_COUNTERS``), children become the next frontier, and the per-level
node records are scattered into preorder struct-of-arrays buffers at the
end.  Candidate windows, regularized denominators, column grids and the
preorder layout depend only on the frontier *shape*, which repeats
endlessly across boosting rounds, so they are cached per fit keyed by the
segment-size signature.

Fitted trees are flattened into struct-of-arrays form (:class:`FlatTree`:
``feature[]``, ``threshold[]``, ``left[]``, ``right[]``, ``value[]``) and
inference is an iterative vectorized descent over all rows at once — no
per-row Python.  :class:`TreeArrays` lays many such trees end to end (a
fitted boosted ensemble).  The :class:`TreeNode` object graph is built
only on request, for introspection.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "FlatTree",
    "RegressionTree",
    "SORT_COUNTERS",
    "TreeArrays",
    "TreeNode",
    "TreeWorkspace",
]

# Minimum gain (beyond zero) for a split to be kept; also the tolerance the
# historical scalar engine used when comparing candidate gains.
_GAIN_EPS = 1e-12

# Instrumentation: the level-wise engine sorts each feature exactly once per
# workspace (the root presort).  ``node_argsorts`` has no increment site by
# design — tests assert it stays zero to pin the no-per-node-sort invariant.
SORT_COUNTERS = {"workspace_builds": 0, "node_argsorts": 0}

# (f, 1) / (f, 1, 1) index columns for gathers, and arange vectors, cached
# per size — the few-shot regime creates these endlessly.
_ROW_INDEX_CACHE: dict[int, np.ndarray] = {}
_ROW_INDEX3_CACHE: dict[int, np.ndarray] = {}
_ARANGE_CACHE: dict[int, np.ndarray] = {}


def _row_index(f: int) -> np.ndarray:
    rows = _ROW_INDEX_CACHE.get(f)
    if rows is None:
        rows = np.arange(f)[:, None]
        _ROW_INDEX_CACHE[f] = rows
    return rows


def _row_index3(f: int) -> np.ndarray:
    rows = _ROW_INDEX3_CACHE.get(f)
    if rows is None:
        rows = np.arange(f)[:, None, None]
        _ROW_INDEX3_CACHE[f] = rows
    return rows


def _arange(n: int) -> np.ndarray:
    a = _ARANGE_CACHE.get(n)
    if a is None:
        a = np.arange(n)
        _ARANGE_CACHE[n] = a
    return a


@dataclass(slots=True)
class TreeNode:
    """A node in the fitted tree.

    Internal nodes carry ``feature``/``threshold`` and two children; leaves
    carry only ``value``.  The structure is deliberately simple so tests can
    introspect fitted trees.
    """

    value: float = 0.0
    feature: int = -1
    threshold: float = 0.0
    left: TreeNode | None = None
    right: TreeNode | None = None
    n_samples: int = 0
    depth: int = 0
    gain: float = 0.0

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def count_leaves(self) -> int:
        if self.is_leaf:
            return 1
        assert self.left is not None and self.right is not None
        return self.left.count_leaves() + self.right.count_leaves()


class FlatTree:
    """Struct-of-arrays form of a fitted tree for vectorized inference.

    ``feature[i] == -1`` marks node ``i`` as a leaf (its ``left``/``right``
    are ``-1`` and its ``threshold`` is ``0.0``); internal nodes route row
    ``x`` to ``left[i]`` when ``x[feature[i]] <= threshold[i]`` and to
    ``right[i]`` otherwise.  Nodes are stored in preorder, so node 0 is the
    root.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value", "n_samples", "depth")

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        n_samples: np.ndarray,
    ) -> None:
        self.feature = np.asarray(feature, dtype=np.int32)
        self.threshold = np.asarray(threshold, dtype=float)
        self.left = np.asarray(left, dtype=np.int32)
        self.right = np.asarray(right, dtype=np.int32)
        self.value = np.asarray(value, dtype=float)
        self.n_samples = np.asarray(n_samples, dtype=np.int64)
        offsets = np.array([0, self.feature.size], dtype=np.int64)
        self.depth = int(_tree_depths(self.feature, self.left, self.right, offsets)[0])

    @classmethod
    def _from_parts(
        cls,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        n_samples: np.ndarray,
        depth: int,
    ) -> FlatTree:
        """Wrap already-typed arrays with a known depth (builder hot path).

        Structure arrays (``left``/``right``/``n_samples``) may be shared
        between trees of identical shape; they are treated as immutable.
        """
        tree = object.__new__(cls)
        tree.feature = feature
        tree.threshold = threshold
        tree.left = left
        tree.right = right
        tree.value = value
        tree.n_samples = n_samples
        tree.depth = depth
        return tree

    @property
    def n_nodes(self) -> int:
        return int(self.feature.size)

    # ------------------------------------------------------------------
    @classmethod
    def from_node(cls, root: TreeNode) -> FlatTree:
        """Flatten a :class:`TreeNode` graph (preorder)."""
        feature: list[int] = []
        threshold: list[float] = []
        left: list[int] = []
        right: list[int] = []
        value: list[float] = []
        n_samples: list[int] = []

        def visit(node: TreeNode) -> int:
            i = len(feature)
            feature.append(node.feature if not node.is_leaf else -1)
            threshold.append(node.threshold if not node.is_leaf else 0.0)
            left.append(-1)
            right.append(-1)
            value.append(node.value)
            n_samples.append(node.n_samples)
            if not node.is_leaf:
                assert node.left is not None and node.right is not None
                left[i] = visit(node.left)
                right[i] = visit(node.right)
            return i

        visit(root)
        return cls(
            np.array(feature, dtype=np.int32),
            np.array(threshold, dtype=float),
            np.array(left, dtype=np.int32),
            np.array(right, dtype=np.int32),
            np.array(value, dtype=float),
            np.array(n_samples, dtype=np.int64),
        )

    def to_node(self) -> TreeNode:
        """Rebuild the :class:`TreeNode` graph (for introspection)."""

        def build(i: int, depth: int) -> TreeNode:
            node = TreeNode(
                value=float(self.value[i]),
                n_samples=int(self.n_samples[i]),
                depth=depth,
            )
            if self.feature[i] >= 0:
                node.feature = int(self.feature[i])
                node.threshold = float(self.threshold[i])
                node.left = build(int(self.left[i]), depth + 1)
                node.right = build(int(self.right[i]), depth + 1)
            return node

        return build(0, 0)

    # ------------------------------------------------------------------
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Leaf values for every row — iterative vectorized descent."""
        node = np.zeros(X.shape[0], dtype=np.int32)
        for _ in range(self.depth):
            feat = self.feature[node]
            active = feat >= 0
            if not active.any():
                break
            rows = np.nonzero(active)[0]
            sub = node[rows]
            go_left = X[rows, feat[rows]] <= self.threshold[sub]
            node[rows] = np.where(go_left, self.left[sub], self.right[sub])
        return self.value[node]


class TreeArrays:
    """Preorder node arrays of many trees, laid end to end.

    Tree ``t`` owns nodes ``tree_offsets[t]`` to ``tree_offsets[t + 1]``,
    and within its slice every array is exactly :class:`FlatTree`'s
    (tree-local ``left``/``right``, ``-1`` links and threshold ``0.0`` at
    leaves).  ``depths`` holds each tree's depth.  The compiled kernel
    emits this layout directly; it is the fitted state of a
    :class:`~repro.ml.gbm.GradientBoostingRegressor`.
    """

    __slots__ = (
        "feature", "threshold", "left", "right", "value", "n_samples",
        "tree_offsets", "depths",
    )

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        n_samples: np.ndarray,
        tree_offsets: np.ndarray,
        depths: np.ndarray | None = None,
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        self.left = left
        self.right = right
        self.value = value
        self.n_samples = n_samples
        self.tree_offsets = tree_offsets
        self.depths = (
            _tree_depths(feature, left, right, tree_offsets) if depths is None else depths
        )

    @classmethod
    def concatenate(cls, parts: list[tuple]) -> TreeArrays:
        """Trees given as ``(feature, threshold, left, right, value,
        n_samples, depth)`` tuples, in order."""
        fields = list(zip(*parts))
        return cls(
            *(np.concatenate(column) for column in fields[:6]),
            np.cumsum([0] + [f.size for f in fields[0]], dtype=np.int64),
            np.array(fields[6], dtype=np.int32),
        )

    @property
    def n_trees(self) -> int:
        return int(self.tree_offsets.size - 1)

    def tree(self, t: int) -> FlatTree:
        """Tree ``t`` as a :class:`FlatTree` over views of these arrays."""
        a, b = int(self.tree_offsets[t]), int(self.tree_offsets[t + 1])
        return FlatTree._from_parts(
            self.feature[a:b], self.threshold[a:b], self.left[a:b],
            self.right[a:b], self.value[a:b], self.n_samples[a:b],
            int(self.depths[t]),
        )


def _tree_depths(
    feature: np.ndarray, left: np.ndarray, right: np.ndarray, tree_offsets: np.ndarray
) -> np.ndarray:
    """Depth of every tree of a preorder node-array set (0 for a leaf).

    Each pass pushes every parent's depth one level down to its
    children, so the loop settles after the deepest tree's depth.
    """
    starts = np.repeat(tree_offsets[:-1], np.diff(tree_offsets))
    parents = np.nonzero(feature >= 0)[0]
    children = np.concatenate(
        [left[parents] + starts[parents], right[parents] + starts[parents]]
    )
    depth = np.zeros(feature.size, dtype=np.int32)
    while True:
        pushed = np.tile(depth[parents] + 1, 2)
        if np.array_equal(depth[children], pushed):
            break
        depth[children] = pushed
    if tree_offsets.size < 2:
        return np.zeros(0, dtype=np.int32)
    return np.maximum.reduceat(depth, tree_offsets[:-1]).astype(np.int32)


class TreeWorkspace:
    """Per-fit workspace for level-wise exact growth.

    Everything here depends on ``X`` alone, so a boosting loop builds one
    instance and shares it across all rounds.  Arrays are stored transposed
    — ``(n_features, n_samples)`` — so the feature-major batched split
    search runs on contiguous memory:

    ``xt``
        the transposed feature matrix,
    ``order``
        stable argsort of every feature (the *only* argsort the exact
        engine ever performs — frontier partitions below the root are
        maintained by stable two-way splits of this order),
    ``sv`` / ``root_good``
        sorted values and the untied-gap mask of the root segment,
    ``posof``
        the inverse permutation of ``order`` (row -> sorted position),
        used to partition child segments without re-sorting.
    """

    __slots__ = ("xt", "order", "sv", "root_good", "_posof")

    def __init__(self, X: np.ndarray) -> None:
        XT = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=float)).T)
        SORT_COUNTERS["workspace_builds"] += 1
        self.xt = XT
        # intp indices: fancy gathers then skip numpy's index-cast pass,
        # and the compiled kernel reads them directly.
        self.order = np.ascontiguousarray(XT.argsort(axis=1, kind="stable"), dtype=np.intp)
        self.sv = XT[_row_index(XT.shape[0]), self.order]
        self.root_good = self.sv[:, 1:] != self.sv[:, :-1]
        self._posof: np.ndarray | None = None

    def posof(self) -> np.ndarray:
        """Row -> sorted-position per feature (built on first split)."""
        if self._posof is None:
            f, n = self.order.shape
            posof = np.empty((f, n), dtype=np.intp)
            posof[_row_index(f), self.order] = np.arange(n, dtype=np.intp)
            self._posof = posof
        return self._posof


@dataclass
class _SplitSearchConfig:
    """Hyper-parameters plus per-fit caches for the level-wise growers.

    Frontier shapes (segment-size signatures) repeat endlessly across
    boosting rounds, so the candidate windows / denominators / column grids
    (``shape_cache``) and the preorder layout of finished trees
    (``struct_cache``) are shared for the whole fit.  Both depend on the
    hyper-parameters below, so a config must not be reused across models.
    """

    max_depth: int
    min_samples_split: int
    min_child_weight: float
    reg_lambda: float
    gamma: float
    unit_hess: bool = False
    shape_cache: dict = field(default_factory=dict)
    struct_cache: dict = field(default_factory=dict)


class RegressionTree:
    """Single regression tree on (gradient, hessian) statistics.

    Parameters mirror the XGBoost naming so :class:`~repro.ml.gbm.
    GradientBoostingRegressor` can forward its hyper-parameters directly.

    Parameters
    ----------
    max_depth:
        Maximum tree depth; depth 0 is a single leaf.
    min_samples_split:
        Do not split nodes with fewer samples than this.
    min_child_weight:
        Minimum hessian sum (= sample count for squared loss) per child.
    reg_lambda:
        L2 penalty on leaf weights.
    gamma:
        Minimum gain required to make a split.
    """

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_split: int = 2,
        min_child_weight: float = 1.0,
        reg_lambda: float = 1.0,
        gamma: float = 0.0,
    ) -> None:
        if max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        if min_samples_split < 2:
            raise ValueError("min_samples_split must be >= 2")
        self.max_depth = int(max_depth)
        self.min_samples_split = int(min_samples_split)
        self.min_child_weight = float(min_child_weight)
        self.reg_lambda = float(reg_lambda)
        self.gamma = float(gamma)
        self._root: TreeNode | None = None
        self.flat_: FlatTree | None = None
        self.n_features_: int = 0

    @property
    def root_(self) -> TreeNode | None:
        """The introspectable node graph (materialized lazily from the
        flattened arrays; ``None`` when unfitted)."""
        if self._root is None and self.flat_ is not None:
            self._root = self.flat_.to_node()
        return self._root

    # ------------------------------------------------------------------
    def fit(self, X, y) -> RegressionTree:
        """Fit as a plain regression tree (single boosting round from 0)."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on the number of samples")
        grad = -y  # residual of a zero prediction under squared loss
        hess = np.ones_like(y)
        return self.fit_gradients(X, grad, hess)

    def fit_gradients(
        self,
        X,
        grad,
        hess,
        workspace: TreeWorkspace | None = None,
        train_pred: np.ndarray | None = None,
    ) -> RegressionTree:
        """Fit on explicit first/second-order statistics.

        ``workspace`` supplies the precomputed per-``X`` presort; when
        omitted it is built on demand.  ``train_pred``, when given, is
        filled in place with the tree's predictions on the training rows
        — a free by-product of the leaf partition.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        grad = np.asarray(grad, dtype=float).ravel()
        hess = np.asarray(hess, dtype=float).ravel()
        if not (X.shape[0] == grad.shape[0] == hess.shape[0]):
            raise ValueError("X, grad, hess disagree on the number of samples")
        if X.shape[0] == 0:
            raise ValueError("cannot fit a tree on zero samples")
        cfg = _SplitSearchConfig(
            max_depth=self.max_depth,
            min_samples_split=self.min_samples_split,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
            unit_hess=bool(np.all(hess == 1.0)),
        )
        if workspace is None:
            workspace = TreeWorkspace(X)
        self.n_features_ = X.shape[1]
        self.flat_ = FlatTree._from_parts(
            *_grow_exact(workspace, grad, hess, cfg, train_pred)
        )
        self._root = None
        return self

    def ensure_flat(self) -> FlatTree:
        """The struct-of-arrays form of the fitted tree."""
        if self.flat_ is None:
            raise RuntimeError("tree is not fitted")
        return self.flat_

    # ------------------------------------------------------------------
    def predict(self, X) -> np.ndarray:
        if self.flat_ is None:
            raise RuntimeError("RegressionTree.predict called before fit")
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, tree expects {self.n_features_}"
            )
        return self.ensure_flat().predict(X)

    @property
    def depth_(self) -> int:
        """Depth of the fitted tree (0 for a stump leaf)."""
        return self.ensure_flat().depth


class _LevelShapes:
    """Frontier-shape constants for one segment-size signature (cached).

    Everything here is a function of the segment sizes and the fit
    hyper-parameters alone — candidate windows from ``min_child_weight``,
    unit-hessian denominators, the padded column grid — so one instance
    serves every boosting round whose frontier has this shape.
    """

    __slots__ = (
        "np_sizes",
        "neg_vden",
        "starts_l",
        "m",
        "elig_l",
        "E",
        "ne",
        "W",
        "C",
        "root_like",
        "colgrid",
        "window",
        "den_l",
        "den_r",
        "hpl",
        "dead",
    )

    def __init__(self, sizes: tuple, cfg: _SplitSearchConfig) -> None:
        K = len(sizes)
        lam = cfg.reg_lambda
        self.np_sizes = np.array(sizes, dtype=np.int64)
        self.neg_vden = -(self.np_sizes + lam) if cfg.unit_hess else None
        starts = [0] * K
        for k in range(1, K):
            starts[k] = starts[k - 1] + sizes[k - 1]
        self.starts_l = starts
        self.m = starts[-1] + sizes[-1]
        mss = cfg.min_samples_split
        elig = [k for k in range(K) if sizes[k] >= mss]
        self.elig_l = elig
        self.dead = not elig
        self.E = None if len(elig) == K else np.array(elig, dtype=np.int64)
        self.colgrid = None
        self.window = None
        self.den_l = None
        self.den_r = None
        self.hpl = None
        self.root_like = False
        if self.dead:
            self.ne = None
            self.W = 0
            self.C = 0
            return
        ne = np.array([sizes[k] for k in elig], dtype=np.int64)
        self.ne = ne
        W = int(ne.max())
        self.W = W
        C = W - 1
        self.C = C
        # One node spanning the whole workspace: the root — its gathers are
        # free reshapes of the presorted arrays.
        self.root_like = K == 1 and sizes[0] == self.m
        mcw = cfg.min_child_weight
        # Candidate positions j split after sorted index j (left size j+1).
        j = _arange(C)
        if cfg.unit_hess:
            # Hessian == sample count: min_child_weight is a position bound.
            lo = max(math.ceil(mcw) - 1, 0)
            hi = np.minimum(np.floor(ne - 1 - mcw).astype(np.int64) + 1, ne - 1)
            window = (j >= lo) & (j[None, :] < hi[:, None])
        else:
            # General hessians: the weight bound is data-dependent and is
            # applied against the cumulative hessian in the search itself.
            window = j[None, :] < (ne - 1)[:, None]
        self.window = window
        if not window.any():
            self.dead = True
            return
        if not self.root_like:
            se = np.array([starts[k] for k in elig], dtype=np.int64)
            self.colgrid = np.minimum(se[:, None] + _arange(W), self.m - 1)
        if cfg.unit_hess:
            hl = np.arange(1.0, W)
            self.den_l = hl + lam
            # Out-of-window denominators are never read through a valid
            # candidate, but keep them positive so the division never warns.
            self.den_r = np.where(window, (ne[:, None] - hl) + lam, 1.0)
            self.hpl = ne + lam


def _grow_exact(
    ws: TreeWorkspace,
    grad: np.ndarray,
    hess: np.ndarray,
    cfg: _SplitSearchConfig,
    train_pred: np.ndarray | None,
):
    """Level-wise exact growth: one batched split search per depth level.

    The frontier is a list of row segments over ``part`` — a per-feature
    copy of the workspace sort order, partitioned so each node's rows are
    contiguous and feature-sorted.  Cumulative sums restart per segment
    (the padded gather), keeping candidate scores bitwise-identical to a
    per-node scan, and the fused argmax resolves ties to the lowest
    (feature, position) pair exactly like the scalar reference.
    """
    xt = ws.xt
    f = xt.shape[0]
    unit = cfg.unit_hess
    lam = cfg.reg_lambda
    mcw = cfg.min_child_weight
    shape_cache = cfg.shape_cache

    part = ws.order
    sizes: tuple = (xt.shape[1],)
    # Sequential (cumsum) root sums: child sums chain off per-candidate
    # cumulative values, so this keeps every G/H bitwise identical to the
    # compiled kernel's accumulation order.
    g_node = np.cumsum(grad)[-1:]
    h_node = None if unit else np.cumsum(hess)[-1:]
    levels: list[tuple] = []
    sig: list[tuple] = []
    depth = 0
    rix3 = _row_index3(f)

    while True:
        sh = shape_cache.get(sizes)
        if sh is None:
            sh = _LevelShapes(sizes, cfg)
            shape_cache[sizes] = sh
        if unit:
            value = g_node / sh.neg_vden
        else:
            value = g_node / -(h_node + lam)

        if depth >= cfg.max_depth or sh.dead:
            levels.append((value, sh.np_sizes, None, None, None))
            sig.append((sizes, ()))
            if train_pred is not None:
                _fill_exact_leaves(train_pred, part, sh, sizes, value, None)
            break

        # -- batched split search over every eligible frontier node -----
        E = sh.E
        C = sh.C
        if sh.root_like:
            n = sizes[0]
            ridx = part.reshape(f, 1, n)
            g = grad[part].reshape(f, 1, n)
            vals = None
            good = ws.root_good.reshape(f, 1, C)
        else:
            # (f, Ke, W) padded gather.  Pad columns are clipped into later
            # segments; the garbage never reaches a valid candidate because
            # cumulative sums are prefixes and every window stops before the
            # segment end.
            ridx = part[:, sh.colgrid]
            g = grad[ridx]
            vals = xt[rix3, ridx]
            good = vals[:, :, 1:] != vals[:, :, :C]
        glc = np.cumsum(g, axis=2)[:, :, :C]
        gE = g_node if E is None else g_node[E]
        gr = gE[None, :, None] - glc
        if unit:
            score = glc * glc / sh.den_l + gr * gr / sh.den_r
            scm = np.where(good & sh.window, score, -np.inf)
        else:
            hE = h_node if E is None else h_node[E]
            h = hess[ridx] if not sh.root_like else hess[part].reshape(f, 1, -1)
            hlc = np.cumsum(h, axis=2)[:, :, :C]
            hr = hE[None, :, None] - hlc
            with np.errstate(divide="ignore", invalid="ignore"):
                score = glc * glc / (hlc + lam) + gr * gr / (hr + lam)
            ok = (
                (good & sh.window)
                & (hlc >= mcw)
                & (hr >= mcw)
                & ~np.isnan(score)
            )
            scm = np.where(ok, score, -np.inf)

        # Feature-major flatten per node: ties resolve to the lowest
        # (feature, position) pair — the historical scalar scan order.
        Ke = scm.shape[1]
        sct = np.ascontiguousarray(scm.transpose(1, 0, 2)).reshape(Ke, f * C)
        best = sct.argmax(axis=1)
        best_sc = sct[_arange(Ke), best]
        bf = best // C
        bp = best - bf * C
        hpl = sh.hpl if unit else hE + lam
        gain = 0.5 * (best_sc - gE * gE / hpl) - cfg.gamma
        ai = np.nonzero(gain > _GAIN_EPS)[0]
        A = ai.size
        if A == 0:
            levels.append((value, sh.np_sizes, None, None, None))
            sig.append((sizes, ()))
            if train_pred is not None:
                _fill_exact_leaves(train_pred, part, sh, sizes, value, None)
            break

        acc_nodes = ai if E is None else E[ai]
        bfa = bf[ai]
        bpa = bp[ai]
        n_left = bpa + 1
        gla = glc[bfa, ai, bpa]
        if vals is None:
            thr = 0.5 * (ws.sv[bfa, bpa] + ws.sv[bfa, bpa + 1])
        else:
            thr = 0.5 * (vals[bfa, ai, bpa] + vals[bfa, ai, bpa + 1])
        acc_t = tuple(acc_nodes.tolist())
        levels.append((value, sh.np_sizes, acc_nodes, bfa, thr))
        sig.append((sizes, acc_t))
        if train_pred is not None and A < len(sizes):
            _fill_exact_leaves(train_pred, part, sh, sizes, value, set(acc_t))

        # -- stable partition of accepted segments (no re-sort: a child's
        # rows keep the root order, filtered by the split's position cut).
        posof = ws.posof()
        starts_l = sh.starts_l
        bfa_l = bfa.tolist()
        bpa_l = bpa.tolist()
        ai_l = ai.tolist()
        nl_l = n_left.tolist()
        m2 = sum(sizes[k] for k in acc_t)
        npart = np.empty((f, m2), dtype=np.intp)
        new_sizes = []
        o = 0
        for a in range(A):
            k = acc_t[a]
            s = starts_l[k]
            nk = sizes[k]
            nl = nl_l[a]
            bfk = bfa_l[a]
            Pk = part[:, s : s + nk]
            cut = posof[bfk, ridx[bfk, ai_l[a], bpa_l[a]]]
            Lk = posof[bfk, Pk] <= cut
            npart[:, o : o + nl] = Pk[Lk].reshape(f, nl)
            npart[:, o + nl : o + nk] = Pk[~Lk].reshape(f, nk - nl)
            o += nk
            new_sizes.append(nl)
            new_sizes.append(nk - nl)
        g2 = np.empty(2 * A)
        g2[0::2] = gla
        g2[1::2] = g_node[acc_nodes] - gla
        if not unit:
            hla = hlc[bfa, ai, bpa]
            h2 = np.empty(2 * A)
            h2[0::2] = hla
            h2[1::2] = h_node[acc_nodes] - hla
            h_node = h2
        part = npart
        sizes = tuple(new_sizes)
        g_node = g2
        depth += 1

    return _assemble(levels, sig, cfg)


def _fill_exact_leaves(
    train_pred: np.ndarray,
    part: np.ndarray,
    sh: _LevelShapes,
    sizes: tuple,
    value: np.ndarray,
    acc: set | None,
) -> None:
    """Scatter leaf values to training rows (segments that stop here)."""
    row0 = part[0]
    starts_l = sh.starts_l
    for k in range(len(sizes)):
        if acc is None or k not in acc:
            s = starts_l[k]
            train_pred[row0[s : s + sizes[k]]] = value[k]


def _assemble(levels: list[tuple], sig: list[tuple], cfg: _SplitSearchConfig):
    """Scatter per-level (BFS) records into preorder struct-of-arrays.

    The preorder permutation, child links and sample counts are functions
    of the structure signature alone, which repeats across boosting rounds
    — they are cached per fit and shared between same-shaped trees (the
    arrays are treated as immutable).
    """
    key = tuple(sig)
    tmpl = cfg.struct_cache.get(key)
    if tmpl is None:
        tmpl = _build_struct_template(levels, sig)
        cfg.struct_cache[key] = tmpl
    total, depth, perm, pacc, left, right, nsamp = tmpl
    L = len(levels)
    if L == 1:
        value = levels[0][0]
    else:
        value = np.empty(total)
        value[perm] = np.concatenate([lv[0] for lv in levels])
    feature = np.full(total, -1, dtype=np.int32)
    threshold = np.zeros(total)
    if pacc is not None:
        feats = [lv[3] for lv in levels if lv[2] is not None]
        thrs = [lv[4] for lv in levels if lv[2] is not None]
        if len(feats) == 1:
            feature[pacc] = feats[0]
            threshold[pacc] = thrs[0]
        else:
            feature[pacc] = np.concatenate(feats)
            threshold[pacc] = np.concatenate(thrs)
    return feature, threshold, left, right, value, nsamp, depth


def _build_struct_template(levels: list[tuple], sig: list[tuple]):
    """Preorder layout for one structure signature (cold path)."""
    L = len(levels)
    counts = [lv[1].size for lv in levels]
    total = sum(counts)
    # Subtree sizes bottom-up: children of the a-th accepted node sit at
    # positions 2a / 2a+1 of the next level.
    sub = [np.ones(c, dtype=np.int64) for c in counts]
    for d in range(L - 2, -1, -1):
        acc = levels[d][2]
        if acc is not None:
            cs = sub[d + 1]
            sub[d][acc] = 1 + cs[0::2] + cs[1::2]
    # Preorder positions top-down: left child right after the parent, right
    # child after the whole left subtree.
    pos = [np.zeros(1, dtype=np.int64)] + [None] * (L - 1)
    for d in range(L - 1):
        acc = levels[d][2]
        nxt = np.empty(counts[d + 1], dtype=np.int64)
        lp = pos[d][acc] + 1
        nxt[0::2] = lp
        nxt[1::2] = lp + sub[d + 1][0::2]
        pos[d + 1] = nxt
    left = np.full(total, -1, dtype=np.int32)
    right = np.full(total, -1, dtype=np.int32)
    nsamp = np.empty(total, dtype=np.int64)
    pacc_parts = []
    for d in range(L):
        p = pos[d]
        nsamp[p] = levels[d][1]
        acc = levels[d][2]
        if acc is not None:
            pa = p[acc]
            pacc_parts.append(pa)
            cp = pos[d + 1]
            left[pa] = cp[0::2]
            right[pa] = cp[1::2]
    perm = pos[0] if L == 1 else np.concatenate(pos)
    pacc = np.concatenate(pacc_parts) if pacc_parts else None
    return total, L - 1, perm, pacc, left, right, nsamp
