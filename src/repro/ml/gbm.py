"""Gradient-boosted regression trees (XGBoost-style, squared loss).

The paper adopts XGBoost [Chen & Guestrin 2016] for the sub-models whose
correlation with hardware and event parameters is complex (effective active
rate, SRAM read/write frequency, register activity, combinational
variation).  No xgboost wheel is available offline, so this module
implements the regularized tree-boosting algorithm directly:

* squared-error objective with first/second-order statistics,
* shrinkage (``learning_rate``), L2 leaf penalty (``reg_lambda``),
  ``min_child_weight``, ``gamma`` and depth limits,
* optional row subsampling and per-tree feature subsampling,
* base score initialised at the target mean,
* ``tree_method="exact"`` (level-wise batched greedy scan over one shared
  per-fit :class:`~repro.ml.tree.TreeWorkspace`) or ``"hist"``
  (quantile-binned scan with a per-fit bin-index cache shared across all
  boosting rounds, XGBoost-style; ``hist_dtype="float32"`` runs the score
  pipeline in single precision).

The fused inference ensemble is assembled *incrementally during fit* —
each round appends its tree's remapped node arrays — so the first predict
after a fit pays one concatenation instead of a per-tree rebuild.
Inference is the one-ensemble case of :meth:`repro.ml.forest.Forest.
sum_values`: all rows x all trees advance one level per step — no
per-row or per-tree Python.

Like real tree ensembles, the model cannot predict outside the range of
training targets — the very property the paper exploits when arguing that
directly-applied ML models fail in the few-shot regime.
"""

from __future__ import annotations

import numpy as np

from repro.ml._kernel import get_kernel
from repro.ml.forest import Forest
from repro.ml.tree import (
    FlatTree,
    HistogramBinner,
    RegressionTree,
    TreeWorkspace,
    _SplitSearchConfig,
)

__all__ = ["GradientBoostingRegressor"]


class GradientBoostingRegressor:
    """Boosted regression-tree ensemble with an XGBoost-like API.

    Parameters
    ----------
    n_estimators:
        Number of boosting rounds.
    learning_rate:
        Shrinkage applied to each tree's contribution.
    max_depth:
        Depth of each tree.
    reg_lambda:
        L2 penalty on leaf weights.
    min_child_weight:
        Minimum hessian sum per leaf (= samples for squared loss).
    gamma:
        Minimum split gain.
    subsample:
        Row-sampling fraction per boosting round (without replacement).
    colsample_bytree:
        Feature-sampling fraction per tree.
    early_stopping_rounds:
        When set together with a validation fraction, stop when the
        validation loss has not improved for this many rounds.
    tree_method:
        Split-search engine: ``"exact"`` (every distinct threshold) or
        ``"hist"`` (quantile bins, one shared bin-index cache per fit).
    max_bin:
        Bucket budget per feature for ``tree_method="hist"``.
    hist_dtype:
        ``"float64"`` (default) or ``"float32"`` — precision of the
        histogram score pipeline (``"hist"`` only); the fitted model is
        always float64.
    random_state:
        Seed for all stochastic choices; the model is fully deterministic
        for a fixed seed.
    """

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        reg_lambda: float = 1.0,
        min_child_weight: float = 1.0,
        gamma: float = 0.0,
        subsample: float = 1.0,
        colsample_bytree: float = 1.0,
        early_stopping_rounds: int | None = None,
        tree_method: str = "exact",
        max_bin: int = 256,
        hist_dtype: str = "float64",
        random_state: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if not 0.0 < subsample <= 1.0:
            raise ValueError("subsample must be in (0, 1]")
        if not 0.0 < colsample_bytree <= 1.0:
            raise ValueError("colsample_bytree must be in (0, 1]")
        if tree_method not in ("exact", "hist"):
            raise ValueError(f"tree_method must be 'exact' or 'hist', got {tree_method!r}")
        if hist_dtype not in ("float64", "float32"):
            raise ValueError(
                f"hist_dtype must be 'float64' or 'float32', got {hist_dtype!r}"
            )
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.reg_lambda = float(reg_lambda)
        self.min_child_weight = float(min_child_weight)
        self.gamma = float(gamma)
        self.subsample = float(subsample)
        self.colsample_bytree = float(colsample_bytree)
        self.early_stopping_rounds = early_stopping_rounds
        self.tree_method = tree_method
        self.max_bin = int(max_bin)
        self.hist_dtype = hist_dtype
        self.random_state = int(random_state)

        self.trees_: list[tuple[RegressionTree, np.ndarray]] = []
        self.base_score_: float = 0.0
        self.train_losses_: list[float] = []
        self.n_features_: int = 0
        self._fitted = False
        self._ensemble: Forest | None = None

    # ------------------------------------------------------------------
    def fit(self, X, y) -> GradientBoostingRegressor:
        X = np.atleast_2d(np.asarray(X, dtype=float))
        y = np.asarray(y, dtype=float).ravel()
        if X.shape[0] != y.shape[0]:
            raise ValueError("X and y disagree on the number of samples")
        if X.shape[0] == 0:
            raise ValueError("cannot fit on an empty dataset")
        rng = np.random.default_rng(self.random_state)
        n_samples, n_features = X.shape
        self.n_features_ = n_features
        self.trees_ = []
        self.train_losses_ = []
        self._fitted = False
        self._ensemble = None
        self.base_score_ = float(y.mean())
        pred = np.full(n_samples, self.base_score_)

        n_cols = max(1, int(round(self.colsample_bytree * n_features)))
        n_rows = max(1, int(round(self.subsample * n_samples)))
        full_rows = n_rows >= n_samples
        full_cols = n_cols >= n_features
        all_rows = np.arange(n_samples)
        all_cols = np.arange(n_features)
        if self.tree_method == "exact" and full_rows and full_cols:
            # The compiled kernel drives the whole boosting loop in one
            # call (level-wise growth, preorder + fused-ensemble emission);
            # it is equivalent to the numpy engine below and optional.
            kernel = get_kernel()
            if kernel is not None:
                self._fit_kernel(kernel, X, y, all_cols)
                return self
        hess = np.ones(n_samples)
        # Both caches are properties of X alone, so one instance serves
        # every boosting round (subsampled views are cheap slices); the
        # split-search config carries the per-fit frontier-shape and
        # tree-structure caches every round shares.
        binner = (
            HistogramBinner(X, self.max_bin) if self.tree_method == "hist" else None
        )
        workspace = (
            TreeWorkspace(X) if self.tree_method == "exact" and full_rows else None
        )
        cfg = _SplitSearchConfig(
            max_depth=self.max_depth,
            min_samples_split=2,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
            unit_hess=True,  # squared loss: hessian is identically 1
            hist_dtype=self.hist_dtype,
        )
        grad = np.empty(n_samples)
        update = np.empty(n_samples)
        np.subtract(pred, y, out=grad)  # d/dpred of 0.5*(pred-y)^2
        best_loss = np.inf
        rounds_since_best = 0

        # Incremental fused-ensemble assembly: one append per round, one
        # concatenation at the end — predict never rebuilds per tree.
        ens_feature: list[np.ndarray] = []
        ens_threshold: list[np.ndarray] = []
        ens_left: list[np.ndarray] = []
        ens_right: list[np.ndarray] = []
        ens_value: list[np.ndarray] = []
        ens_roots: list[int] = []
        ens_offset = 0
        ens_depth = 0

        for _ in range(self.n_estimators):
            rows = all_rows if full_rows else rng.choice(
                n_samples, size=n_rows, replace=False
            )
            cols = all_cols if full_cols else np.sort(
                rng.choice(n_features, size=n_cols, replace=False)
            )
            if full_rows and full_cols:
                x_fit = X
                round_binner = binner
                round_workspace = workspace
            else:
                x_fit = X[np.ix_(rows, cols)]
                round_binner = (
                    binner.subset(
                        None if full_rows else rows, None if full_cols else cols
                    )
                    if binner is not None
                    else None
                )
                round_workspace = (
                    workspace.subset_cols(cols) if workspace is not None else None
                )

            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_split=2,
                min_child_weight=self.min_child_weight,
                reg_lambda=self.reg_lambda,
                gamma=self.gamma,
                tree_method=self.tree_method,
                max_bin=self.max_bin,
                hist_dtype=self.hist_dtype,
            )
            if full_rows:
                # The leaf partition already is the training prediction.
                tree._fit_core(
                    x_fit, grad, hess, cfg, round_binner, round_workspace, update
                )
                pred += self.learning_rate * update
            else:
                tree.fit_gradients(
                    x_fit, grad[rows], hess[rows], binner=round_binner
                )
                pred += self.learning_rate * tree.predict(
                    X if full_cols else X[:, cols]
                )
            self.trees_.append((tree, cols))

            flat = tree.flat_
            n_nodes = flat.feature.size
            leaf = flat.feature < 0
            node_ids = np.arange(ens_offset, ens_offset + n_nodes, dtype=np.int32)
            fmax = np.maximum(flat.feature, 0)  # leaves route through col 0
            ens_feature.append(fmax if full_cols else cols[fmax])
            ens_threshold.append(np.where(leaf, np.inf, flat.threshold))
            ens_left.append(np.where(leaf, node_ids, flat.left + ens_offset))
            ens_right.append(np.where(leaf, node_ids, flat.right + ens_offset))
            ens_value.append(flat.value)
            ens_roots.append(ens_offset)
            ens_offset += n_nodes
            if flat.depth > ens_depth:
                ens_depth = flat.depth

            # The post-round residual doubles as the next round's gradient.
            np.subtract(pred, y, out=grad)
            # Sequential (cumsum) accumulation matches the compiled
            # kernel's loss bitwise, so early stopping cannot flip between
            # kernel and no-kernel environments.
            loss = float(np.cumsum(grad * grad)[-1]) / n_samples
            self.train_losses_.append(loss)
            if self.early_stopping_rounds is not None:
                if loss < best_loss - 1e-12:
                    best_loss = loss
                    rounds_since_best = 0
                else:
                    rounds_since_best += 1
                    if rounds_since_best >= self.early_stopping_rounds:
                        break
        self._ensemble = Forest(
            np.concatenate(ens_feature).astype(np.int32, copy=False),
            np.concatenate(ens_threshold),
            np.concatenate(ens_left).astype(np.int32, copy=False),
            np.concatenate(ens_right).astype(np.int32, copy=False),
            np.concatenate(ens_value),
            np.array(ens_roots, dtype=np.int32),
            np.array([0, len(ens_roots)], dtype=np.int64),
            ens_depth,
        )
        self._fitted = True
        return self

    def _fit_kernel(self, kernel, X: np.ndarray, y: np.ndarray, all_cols) -> None:
        """One compiled call for the full boosting loop (exact, full rows/cols).

        The kernel emits every tree's preorder node arrays *and* the
        leaf-self-loop ensemble form into contiguous per-fit buffers, so
        ``trees_`` wraps slices and the fused ensemble needs no assembly.
        """
        ffi, lib = kernel
        n, f = X.shape
        ws = TreeWorkspace(X)
        posof = ws.posof()
        n_est = self.n_estimators
        max_nodes = min(2 ** (self.max_depth + 1) - 1, 2 * n - 1)
        cap = n_est * max_nodes
        pred = np.full(n, self.base_score_)
        losses = np.empty(n_est)
        tree_off = np.empty(n_est + 1, dtype=np.int64)
        feat = np.empty(cap, dtype=np.int32)
        thr = np.empty(cap)
        left = np.empty(cap, dtype=np.int32)
        right = np.empty(cap, dtype=np.int32)
        val = np.empty(cap)
        nsamp = np.empty(cap, dtype=np.int64)
        depths = np.empty(n_est, dtype=np.int32)
        ens_feat = np.empty(cap, dtype=np.int32)
        ens_thr = np.empty(cap)
        ens_left = np.empty(cap, dtype=np.int32)
        ens_right = np.empty(cap, dtype=np.int32)

        def dp(a):
            return ffi.cast("double *", a.ctypes.data)

        def lp(a):
            return ffi.cast("long *", a.ctypes.data)

        def ip(a):
            return ffi.cast("int *", a.ctypes.data)

        yc = np.ascontiguousarray(y, dtype=float)
        rounds = lib.gbm_fit_exact(
            dp(ws.xt), lp(ws.order), lp(posof),
            n, f, dp(yc),
            n_est, self.learning_rate, self.max_depth,
            self.reg_lambda, self.min_child_weight, self.gamma, 2,
            -1 if self.early_stopping_rounds is None else self.early_stopping_rounds,
            self.base_score_,
            dp(pred), dp(losses),
            max_nodes, lp(tree_off),
            ip(feat), dp(thr), ip(left), ip(right),
            dp(val), lp(nsamp), ip(depths),
            ip(ens_feat), dp(ens_thr), ip(ens_left), ip(ens_right),
        )
        if rounds < 0:  # pragma: no cover - allocation failure
            raise MemoryError("GBM kernel could not allocate scratch buffers")
        for t in range(rounds):
            a, b = int(tree_off[t]), int(tree_off[t + 1])
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_samples_split=2,
                min_child_weight=self.min_child_weight,
                reg_lambda=self.reg_lambda,
                gamma=self.gamma,
                tree_method=self.tree_method,
                max_bin=self.max_bin,
                hist_dtype=self.hist_dtype,
            )
            tree.n_features_ = f
            tree.flat_ = FlatTree._from_parts(
                feat[a:b], thr[a:b], left[a:b], right[a:b],
                val[a:b], nsamp[a:b], int(depths[t]),
            )
            self.trees_.append((tree, all_cols))
        end = int(tree_off[rounds])
        self.train_losses_ = losses[:rounds].tolist()
        self._ensemble = Forest(
            ens_feat[:end], ens_thr[:end], ens_left[:end], ens_right[:end],
            val[:end], tree_off[:rounds].astype(np.int32),
            np.array([0, rounds], dtype=np.int64), int(depths[:rounds].max()),
        )
        self._fitted = True

    # ------------------------------------------------------------------
    def _check_is_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError(
                "GradientBoostingRegressor used before fit"
            )

    def _validated(self, X) -> np.ndarray:
        self._check_is_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if X.shape[1] != self.n_features_:
            raise ValueError(
                f"X has {X.shape[1]} features, model expects {self.n_features_}"
            )
        return X

    def _flat_ensemble(self) -> Forest:
        """The fitted ensemble as a one-ensemble :class:`Forest`."""
        if self._ensemble is None:
            self._ensemble = Forest.from_ensembles([(self.trees_, 0)])
        return self._ensemble

    def predict(self, X) -> np.ndarray:
        X = self._validated(X)
        return self.base_score_ + self.learning_rate * self._flat_ensemble().sum_values(X)[0]

    def staged_predict(self, X):
        """Yield predictions after each boosting round (for diagnostics)."""
        X = self._validated(X)
        pred = np.full(X.shape[0], self.base_score_)
        yield pred.copy()
        for tree, cols in self.trees_:
            pred = pred + self.learning_rate * tree.predict(X[:, cols])
            yield pred.copy()

    @property
    def n_trees_(self) -> int:
        """Number of fitted boosting rounds (≤ ``n_estimators``)."""
        return len(self.trees_)

    def mark_fitted(self) -> None:
        """Declare externally-assembled state (deserialization) as fitted."""
        self._fitted = True
        self._ensemble = None
