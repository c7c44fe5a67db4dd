"""Gradient-boosted regression trees (XGBoost-style, squared loss).

The paper adopts XGBoost [Chen & Guestrin 2016] for the sub-models whose
correlation with hardware and event parameters is complex (effective active
rate, SRAM read/write frequency, register activity, combinational
variation).  No xgboost wheel is available offline, so this module
implements the regularized tree-boosting algorithm directly:

* squared-error objective with first/second-order statistics,
* shrinkage (``learning_rate``), L2 leaf penalty (``reg_lambda``),
  ``min_child_weight``, ``gamma`` and depth limits,
* base score initialised at the target mean,
* optional early stopping on the training loss,
* exact greedy split search over every row and every feature, level by
  level (:func:`repro.ml.tree._grow_exact`).

A fitted model is one :class:`~repro.ml.tree.TreeArrays`: the preorder
node arrays of all its trees laid end to end — what the compiled kernel
emits, what :mod:`repro.ml.serialize` reads and writes, and what
:meth:`repro.ml.forest.Forest.from_ensembles` fuses.  No per-tree Python
object exists unless :attr:`GradientBoostingRegressor.trees_` is asked
for.  :func:`fit_many` fits any number of models in one compiled call
(AutoPower's ~94 few-shot sub-models take four); inference is the
one-ensemble case of :meth:`repro.ml.forest.Forest.sum_values`.

Like real tree ensembles, the model cannot predict outside the range of
training targets — the very property the paper exploits when arguing that
directly-applied ML models fail in the few-shot regime.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.ml._kernel import get_kernel
from repro.ml.forest import Forest
from repro.ml.tree import (
    RegressionTree,
    TreeArrays,
    TreeWorkspace,
    _grow_exact,
    _SplitSearchConfig,
)

__all__ = ["GradientBoostingRegressor", "fit_many"]


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
    early_stopping_rounds:
        Stop once the training loss has not improved (by more than
        1e-12) for this many rounds; ``None`` always runs
        ``n_estimators`` rounds.
    random_state:
        Recorded with the model; the fit uses no randomness.
    """

    def __init__(
        self,
        n_estimators: int = 200,
        learning_rate: float = 0.1,
        max_depth: int = 3,
        reg_lambda: float = 1.0,
        min_child_weight: float = 1.0,
        gamma: float = 0.0,
        early_stopping_rounds: int | None = None,
        random_state: int = 0,
    ) -> None:
        if n_estimators < 1:
            raise ValueError("n_estimators must be >= 1")
        if not 0.0 < learning_rate <= 1.0:
            raise ValueError("learning_rate must be in (0, 1]")
        if max_depth < 0:
            raise ValueError("max_depth must be >= 0")
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_depth = int(max_depth)
        self.reg_lambda = float(reg_lambda)
        self.min_child_weight = float(min_child_weight)
        self.gamma = float(gamma)
        self.early_stopping_rounds = early_stopping_rounds
        self.random_state = int(random_state)

        self.nodes_: TreeArrays | None = None
        self.base_score_: float = 0.0
        self.train_losses_: list[float] = []
        self.n_features_: int = 0
        self._ensemble: Forest | None = None

    # ------------------------------------------------------------------
    def fit(self, X, y) -> GradientBoostingRegressor:
        fit_many([(self, X, y)])
        return self

    def _fit_numpy(self, ws: TreeWorkspace, y: np.ndarray) -> None:
        """The boosting loop on the numpy engine (the kernel's oracle)."""
        n = y.size
        base_score = float(y.mean())
        pred = np.full(n, base_score)
        hess = np.ones(n)
        cfg = _SplitSearchConfig(
            max_depth=self.max_depth,
            min_samples_split=2,
            min_child_weight=self.min_child_weight,
            reg_lambda=self.reg_lambda,
            gamma=self.gamma,
            unit_hess=True,  # squared loss: hessian is identically 1
        )
        grad = np.subtract(pred, y)  # d/dpred of 0.5*(pred-y)^2
        update = np.empty(n)
        parts: list[tuple] = []
        losses: list[float] = []
        best_loss = np.inf
        rounds_since_best = 0
        for _ in range(self.n_estimators):
            # The leaf partition already is the training prediction.
            parts.append(_grow_exact(ws, grad, hess, cfg, update))
            pred += self.learning_rate * update
            # The post-round residual doubles as the next round's gradient.
            np.subtract(pred, y, out=grad)
            # Sequential (cumsum) accumulation matches the compiled
            # kernel's loss bitwise, so early stopping cannot flip between
            # kernel and no-kernel environments.
            loss = float(np.cumsum(grad * grad)[-1]) / n
            losses.append(loss)
            if self.early_stopping_rounds is not None:
                if loss < best_loss - 1e-12:
                    best_loss = loss
                    rounds_since_best = 0
                else:
                    rounds_since_best += 1
                    if rounds_since_best >= self.early_stopping_rounds:
                        break
        self._set_fitted(TreeArrays.concatenate(parts), base_score, ws.xt.shape[0], losses)

    def _set_fitted(
        self, nodes: TreeArrays, base_score: float, n_features: int, losses: list[float]
    ) -> None:
        self.nodes_ = nodes
        self.base_score_ = base_score
        self.n_features_ = n_features
        self.train_losses_ = losses
        self._ensemble = None

    # ------------------------------------------------------------------
    def _check_is_fitted(self) -> None:
        if self.nodes_ is None:
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
        """The fitted ensemble as a one-ensemble :class:`Forest` (built on
        first predict)."""
        if self._ensemble is None:
            self._ensemble = Forest.from_ensembles([(self.nodes_, 0)])
        return self._ensemble

    def predict(self, X) -> np.ndarray:
        X = self._validated(X)
        return self.base_score_ + self.learning_rate * self._flat_ensemble().sum_values(X)[0]

    def staged_predict(self, X):
        """Yield predictions after each boosting round (for diagnostics)."""
        X = self._validated(X)
        pred = np.full(X.shape[0], self.base_score_)
        yield pred.copy()
        for tree, _ in self.trees_:
            pred = pred + self.learning_rate * tree.predict(X)
            yield pred.copy()

    @property
    def trees_(self) -> list[tuple[RegressionTree, np.ndarray]]:
        """The fitted trees as ``(RegressionTree, columns)`` pairs.

        A read-only view built on each access over the node arrays, for
        diagnostics and tests; every tree reads all columns.
        """
        self._check_is_fitted()
        columns = np.arange(self.n_features_)
        trees = []
        for t in range(self.nodes_.n_trees):
            tree = RegressionTree(
                max_depth=self.max_depth,
                min_child_weight=self.min_child_weight,
                reg_lambda=self.reg_lambda,
                gamma=self.gamma,
            )
            tree.n_features_ = self.n_features_
            tree.flat_ = self.nodes_.tree(t)
            trees.append((tree, columns))
        return trees

    @property
    def n_trees_(self) -> int:
        """Number of fitted boosting rounds (≤ ``n_estimators``)."""
        return 0 if self.nodes_ is None else self.nodes_.n_trees


def fit_many(
    jobs: Sequence[tuple[GradientBoostingRegressor, object, object]],
) -> None:
    """Fit every ``(model, X, y)`` job in place.

    With the compiled kernel, all jobs run in one call over shared
    scratch buffers; otherwise each runs the numpy engine.  Either way
    each model ends up exactly as a fit of its job alone would leave it.
    Jobs that pass the same ``X`` object share its presort.
    """
    workspaces: dict[int, TreeWorkspace] = {}
    prepared = []
    for model, X, y in jobs:
        ws = workspaces.get(id(X))
        if ws is None:
            Xa = np.atleast_2d(np.asarray(X, dtype=float))
            if Xa.shape[0] == 0:
                raise ValueError("cannot fit on an empty dataset")
            ws = workspaces[id(X)] = TreeWorkspace(Xa)
        ya = np.ascontiguousarray(y, dtype=float).ravel()
        if ws.xt.shape[1] != ya.size:
            raise ValueError("X and y disagree on the number of samples")
        prepared.append((model, ws, ya))
    kernel = get_kernel()
    if kernel is None:
        for model, ws, ya in prepared:
            model._fit_numpy(ws, ya)
    elif prepared:
        _fit_kernel(kernel, prepared)


def _fit_kernel(kernel, prepared: list[tuple]) -> None:
    """One compiled call for every prepared ``(model, workspace, y)`` job.

    The kernel writes all jobs' trees one after the other into one set of
    node arrays; each model keeps views of its own run of trees.
    """
    ffi, lib = kernel
    matrices: dict[int, int] = {}
    xts, orders, mat_n, mat_f, mat_off = [], [], [], [], []
    job_matrix = []
    off = 0
    for _, ws, _ in prepared:
        m = matrices.get(id(ws))
        if m is None:
            m = matrices[id(ws)] = len(xts)
            xts.append(ws.xt.ravel())
            orders.append(ws.order.ravel())
            f, n = ws.xt.shape
            mat_n.append(n)
            mat_f.append(f)
            mat_off.append(off)
            off += f * n
        job_matrix.append(m)
    models = [model for model, _, _ in prepared]
    ys = [y for _, _, y in prepared]
    n_est = np.array([m.n_estimators for m in models], dtype=np.int64)
    depth = np.array([m.max_depth for m in models], dtype=np.int64)
    rows = np.array([y.size for y in ys], dtype=np.int64)
    # A tree over n rows has at most min(2^(depth+1), 2n) - 1 nodes.
    max_nodes = np.minimum(
        np.left_shift(2, np.minimum(depth, 61)), 2 * rows
    ) - 1
    n_trees = int(n_est.sum())
    n_nodes = int((n_est * max_nodes).sum())
    base_score = np.array([float(y.mean()) for y in ys])
    early = np.array(
        [-1 if m.early_stopping_rounds is None else m.early_stopping_rounds for m in models],
        dtype=np.int64,
    )
    xt = np.concatenate(xts)
    order = np.concatenate(orders)
    y_all = np.concatenate(ys)
    y_off = np.cumsum([0] + [y.size for y in ys[:-1]], dtype=np.int64)

    rounds = np.empty(len(models), dtype=np.int64)
    losses = np.empty(n_trees)
    tree_start = np.empty(n_trees + 1, dtype=np.int64)
    depths = np.empty(n_trees, dtype=np.int32)
    feature = np.empty(n_nodes, dtype=np.int32)
    threshold = np.empty(n_nodes)
    left = np.empty(n_nodes, dtype=np.int32)
    right = np.empty(n_nodes, dtype=np.int32)
    value = np.empty(n_nodes)
    n_samples = np.empty(n_nodes, dtype=np.int64)

    def ptr(kind, a):
        return ffi.cast(kind + " *", a.ctypes.data)

    jm, mn, mf, mo = (
        np.array(v, dtype=np.int64) for v in (job_matrix, mat_n, mat_f, mat_off)
    )
    lr, lam, mcw, gamma = (
        np.array([getattr(m, attr) for m in models], dtype=float)
        for attr in ("learning_rate", "reg_lambda", "min_child_weight", "gamma")
    )
    total = lib.gbm_fit_batch(
        len(models), ptr("long", jm),
        ptr("long", mn), ptr("long", mf), ptr("long", mo),
        ptr("double", xt), ptr("long", order),
        ptr("double", y_all), ptr("long", y_off),
        ptr("long", n_est), ptr("double", lr), ptr("long", depth),
        ptr("double", lam), ptr("double", mcw), ptr("double", gamma),
        ptr("long", early), ptr("double", base_score),
        ptr("long", rounds), ptr("double", losses), ptr("long", tree_start),
        ptr("int", depths),
        ptr("int", feature), ptr("double", threshold), ptr("int", left),
        ptr("int", right), ptr("double", value), ptr("long", n_samples),
    )
    if total < 0:  # pragma: no cover - allocation failure
        raise MemoryError("GBM kernel could not allocate scratch buffers")
    k = 0
    for j, model in enumerate(models):
        r = int(rounds[j])
        a, b = int(tree_start[k]), int(tree_start[k + r])
        model._set_fitted(
            TreeArrays(
                feature[a:b], threshold[a:b], left[a:b], right[a:b],
                value[a:b], n_samples[a:b], tree_start[k : k + r + 1] - a,
                depths[k : k + r],
            ),
            float(base_score[j]),
            mat_f[job_matrix[j]],
            losses[k : k + r].tolist(),
        )
        k += r
