"""Struct-of-arrays tree forests and their one lockstep descent.

A :class:`Forest` holds any number of tree *ensembles* as one set of
node arrays.  Ensemble ``e`` owns trees ``tree_offsets[e]`` to
``tree_offsets[e + 1]``; every tree reads its features from one shared
(wide) feature matrix, so ensembles over different feature sets only
differ in the column indices baked into ``feature``.  Leaves are
encoded as self-loops (``left == right == self``, threshold ``+inf``) so
the descent needs no leaf masking: a row that reached its leaf stays
there while deeper trees keep routing.  Every step of the descent is a
flat ``take``: ``children`` interleaves each node's right and left
child, so a comparison result indexes the next node directly.

A fitted :class:`~repro.ml.gbm.GradientBoostingRegressor` is the
one-ensemble case; :meth:`Forest.from_ensembles` fuses many of them (the
inference plan of :mod:`repro.core.plan`) and :meth:`Forest.sum_values`
evaluates all of them in one pass.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["Forest"]

#: Upper bound on rows x trees per descent block.  Every temporary of
#: the descent has this many elements, which keeps them cache-sized
#: (an unblocked 65-row pass over ~14k trees allocates ~7 MB each).
BLOCK_ELEMENTS = 1 << 15


class Forest:
    """Many tree ensembles as one node-array set over one feature matrix."""

    __slots__ = (
        "feature", "threshold", "children", "value", "roots", "tree_offsets", "depth",
    )

    def __init__(
        self,
        feature: np.ndarray,
        threshold: np.ndarray,
        left: np.ndarray,
        right: np.ndarray,
        value: np.ndarray,
        roots: np.ndarray,
        tree_offsets: np.ndarray,
        depth: int,
    ) -> None:
        self.feature = feature
        self.threshold = threshold
        # children[2 * node + go_left]: the node a comparison routes to.
        self.children = np.stack([right, left], axis=1).ravel()
        self.value = value
        self.roots = roots
        self.tree_offsets = tree_offsets
        self.depth = depth

    @classmethod
    def from_ensembles(cls, ensembles: Sequence[tuple[Sequence[tuple], int]]) -> Forest:
        """A forest from fitted ensembles of ``(RegressionTree, columns)``.

        Each ensemble comes as ``(trees, column offset)``: a tree's
        features are remapped through its column subsample, and the
        ensemble reads the wide feature matrix from its offset on.
        """
        flats = [[tree.ensure_flat() for tree, _ in trees] for trees, _ in ensembles]
        n_nodes = sum(flat.feature.size for members in flats for flat in members)
        feature = np.empty(n_nodes, dtype=np.int32)
        threshold = np.empty(n_nodes)
        left = np.empty(n_nodes, dtype=np.int32)
        right = np.empty(n_nodes, dtype=np.int32)
        value = np.empty(n_nodes)
        roots: list[int] = []
        # One ensemble at a time into preallocated arrays: a plan fuses
        # ~125k nodes, and whole-forest temporaries would raise the
        # process's peak memory by a multiple of the forest.
        a = 0
        for members, (trees, col) in zip(flats, ensembles):
            counts = [flat.feature.size for flat in members]
            starts = a + np.cumsum([0] + counts[:-1])
            b = a + sum(counts)
            roots.extend(starts.tolist())
            ids = np.arange(a, b)
            shift = np.repeat(starts, counts)
            raw = np.concatenate([flat.feature for flat in members])
            leaf = raw < 0
            # Every tree's column subsample laid end to end: one gather
            # remaps all of the ensemble's features.
            subsets = [cols for _, cols in trees]
            subset_start = np.cumsum([0] + [cols.size for cols in subsets[:-1]])
            remapped = np.concatenate(subsets)[
                np.repeat(subset_start, counts) + np.maximum(raw, 0)
            ]
            feature[a:b] = np.where(leaf, 0, remapped) + col
            threshold[a:b] = np.where(
                leaf, np.inf, np.concatenate([flat.threshold for flat in members])
            )
            left[a:b] = np.where(
                leaf, ids, np.concatenate([flat.left for flat in members]) + shift
            )
            right[a:b] = np.where(
                leaf, ids, np.concatenate([flat.right for flat in members]) + shift
            )
            value[a:b] = np.concatenate([flat.value for flat in members])
            a = b
        return cls(
            feature,
            threshold,
            left,
            right,
            value,
            np.array(roots, dtype=np.int32),
            np.cumsum([0] + [len(members) for members in flats], dtype=np.int64),
            max(flat.depth for members in flats for flat in members),
        )

    def sum_values(self, X: np.ndarray) -> np.ndarray:
        """Per-ensemble sum of leaf values, shape ``(n_ensembles, n_rows)``.

        The descent runs over blocks of at most :data:`BLOCK_ELEMENTS`
        rows x trees (one row at a time for an ensemble wider than
        that), each block covering whole ensembles, so every ensemble's
        leaf values are summed in one reduction over its own trees — the
        same sum, bit for bit, whatever the block layout.
        """
        n = X.shape[0]
        offsets = self.tree_offsets
        out = np.empty((offsets.size - 1, n))
        flat_x = np.ascontiguousarray(X).ravel()
        widest = int(np.diff(offsets).max(initial=1))
        step = max(1, BLOCK_ELEMENTS // widest)
        for r0 in range(0, n, step):
            r1 = min(n, r0 + step)
            # Ensembles [e0, e1) hold at most BLOCK_ELEMENTS // rows trees
            # (always at least one ensemble).
            budget = max(BLOCK_ELEMENTS // (r1 - r0), widest)
            row_start = (np.arange(r0, r1) * X.shape[1])[:, None]
            e0 = 0
            while e0 < offsets.size - 1:
                e1 = int(np.searchsorted(offsets, offsets[e0] + budget, "right")) - 1
                e1 = max(e1, e0 + 1)
                values = self._leaf_values(flat_x, row_start, e0, e1)
                t0 = int(offsets[e0])
                for e in range(e0, e1):
                    a, b = int(offsets[e]) - t0, int(offsets[e + 1]) - t0
                    out[e, r0:r1] = values[:, a:b].sum(axis=1)
                e0 = e1
        return out

    def _leaf_values(
        self, flat_x: np.ndarray, row_start: np.ndarray, e0: int, e1: int
    ) -> np.ndarray:
        """Leaf value of every (row, tree) of ensembles ``[e0, e1)``.

        ``flat_x`` is the C-order feature matrix, ``row_start`` the flat
        offset of each row of the block.  All rows x trees advance one
        level per step.  Once every one sits on a leaf self-loop the
        state stops changing and the loop exits early; the equality
        probe only pays for itself on deep forests, so shallow ones skip
        it.
        """
        t0, t1 = int(self.tree_offsets[e0]), int(self.tree_offsets[e1])
        # Every row starts at the roots: level 0 reads per-tree arrays and
        # broadcasts them against the rows.
        node = self.roots[t0:t1]
        depth = self.depth
        for level in range(depth):
            go_left = flat_x.take(self.feature.take(node) + row_start) <= (
                self.threshold.take(node)
            )
            nxt = self.children.take(2 * node + go_left)
            # Probe only when it can still skip >= 2 deeper passes.
            if level >= 3 and depth - level > 1 and np.array_equal(nxt, node):
                break
            node = nxt
        if node.ndim == 1:  # depth 0: every tree is a single leaf
            node = np.broadcast_to(node, (row_start.shape[0], t1 - t0))
        return self.value.take(node)
