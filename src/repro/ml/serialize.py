"""JSON-serializable state for the ML models.

A fitted AutoPower instance embeds dozens of small models; persisting it
lets a team train once against the (slow, licensed) EDA flow and ship the
fitted model to architects who only have the performance simulator.  All
formats are plain dicts of JSON types — no pickle.

Trees serialize in their flattened struct-of-arrays form (``feature[]``,
``threshold[]``, ``left[]``, ``right[]``, ``value[]``, ``n_samples[]``):
a GBM's trees are slices of its fitted :class:`~repro.ml.tree.TreeArrays`,
and loading concatenates them back into one.
"""

from __future__ import annotations

import itertools

import numpy as np

from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.linear import RidgeRegression
from repro.ml.tree import FlatTree, RegressionTree, TreeArrays

__all__ = [
    "gbm_from_dict",
    "gbm_to_dict",
    "ridge_from_dict",
    "ridge_to_dict",
    "tree_from_dict",
    "tree_to_dict",
]


# -- ridge ------------------------------------------------------------------
def ridge_to_dict(model: RidgeRegression) -> dict:
    if model.coef_ is None:
        raise ValueError("cannot serialize an unfitted RidgeRegression")
    return {
        "kind": "ridge",
        "alpha": model.alpha,
        "fit_intercept": model.fit_intercept,
        "normalize": model.normalize,
        "nonnegative": model.nonnegative,
        "coef": model.coef_.tolist(),
        "intercept": model.intercept_,
    }


def ridge_from_dict(state: dict) -> RidgeRegression:
    if state.get("kind") != "ridge":
        raise ValueError(f"not a ridge state: {state.get('kind')!r}")
    model = RidgeRegression(
        alpha=state["alpha"],
        fit_intercept=state["fit_intercept"],
        normalize=state["normalize"],
        nonnegative=state["nonnegative"],
    )
    model.coef_ = np.asarray(state["coef"], dtype=float)
    model.intercept_ = float(state["intercept"])
    return model


# -- tree -------------------------------------------------------------------
_NODE_FIELDS = ("feature", "threshold", "left", "right", "value", "n_samples")


def tree_to_dict(tree: RegressionTree) -> dict:
    if tree.flat_ is None:
        raise ValueError("cannot serialize an unfitted RegressionTree")
    flat = tree.flat_
    return {
        "kind": "tree",
        "n_features": tree.n_features_,
        "max_depth": tree.max_depth,
        "reg_lambda": tree.reg_lambda,
        "tree_method": "exact",
        "nodes": {name: getattr(flat, name).tolist() for name in _NODE_FIELDS},
    }


def tree_from_dict(state: dict) -> RegressionTree:
    if state.get("kind") != "tree":
        raise ValueError(f"not a tree state: {state.get('kind')!r}")
    if state.get("tree_method", "exact") != "exact" or "nodes" not in state:
        raise ValueError("only flattened exact-mode tree states are supported")
    tree = RegressionTree(
        max_depth=int(state["max_depth"]),
        reg_lambda=float(state["reg_lambda"]),
    )
    tree.n_features_ = int(state["n_features"])
    tree.flat_ = FlatTree(*(state["nodes"][name] for name in _NODE_FIELDS))
    return tree


# -- gradient boosting --------------------------------------------------------
# Options of the deleted histogram and subsampling engines, with the only
# value a fit can still have.  The wire keeps emitting them, in this
# order between ``gamma`` and ``random_state``.
_FIXED_PARAMS = {
    "subsample": 1.0,
    "colsample_bytree": 1.0,
    "tree_method": "exact",
    "max_bin": 256,
}
_NODE_DTYPES = (np.int32, float, np.int32, np.int32, float, np.int64)


def _tree_header(model: GradientBoostingRegressor) -> dict:
    return {
        "kind": "tree",
        "n_features": model.n_features_,
        "max_depth": model.max_depth,
        "reg_lambda": model.reg_lambda,
        "tree_method": "exact",
    }


def gbm_to_dict(model: GradientBoostingRegressor) -> dict:
    model._check_is_fitted()
    nodes = model.nodes_
    params = {
        "n_estimators": model.n_estimators,
        "max_depth": model.max_depth,
        "reg_lambda": model.reg_lambda,
        "min_child_weight": model.min_child_weight,
        "gamma": model.gamma,
        **_FIXED_PARAMS,
        "random_state": model.random_state,
    }
    header = _tree_header(model)
    columns = list(range(model.n_features_))
    lists = [getattr(nodes, name).tolist() for name in _NODE_FIELDS]
    bounds = nodes.tree_offsets.tolist()
    return {
        "kind": "gbm",
        "learning_rate": model.learning_rate,
        "base_score": model.base_score_,
        "n_features": model.n_features_,
        "params": params,
        "trees": [
            {
                "tree": {
                    **header,
                    "nodes": {
                        name: values[a:b] for name, values in zip(_NODE_FIELDS, lists)
                    },
                },
                "columns": columns,
            }
            for a, b in zip(bounds[:-1], bounds[1:])
        ],
    }


def gbm_from_dict(state: dict) -> GradientBoostingRegressor:
    """Rebuild a fitted GBM from :func:`gbm_to_dict`.

    Raises ``ValueError`` on a state that uses a deleted option
    (histogram split search, row or column subsampling, the nested tree
    format): every fit is exact and reads all columns.
    """
    if state.get("kind") != "gbm":
        raise ValueError(f"not a gbm state: {state.get('kind')!r}")
    params = state["params"]
    for key, only in (*_FIXED_PARAMS.items(), ("hist_dtype", "float64")):
        if params.get(key, only) != only:
            raise ValueError(f"gbm state uses the deleted option {key}={params[key]!r}")
    model = GradientBoostingRegressor(
        n_estimators=params["n_estimators"],
        learning_rate=state["learning_rate"],
        max_depth=params["max_depth"],
        reg_lambda=params["reg_lambda"],
        min_child_weight=params["min_child_weight"],
        gamma=params["gamma"],
        random_state=params["random_state"],
    )
    n_features = int(state["n_features"])
    model.n_features_ = n_features
    header = _tree_header(model)
    columns = list(range(n_features))
    trees = []
    for entry in state["trees"]:
        tree = entry["tree"]
        if entry["columns"] != columns or "nodes" not in tree or any(
            tree.get(key) != value for key, value in header.items()
        ):
            raise ValueError(
                "gbm trees must be flattened exact-mode trees over every column"
            )
        trees.append(tree["nodes"])
    sizes = [len(nodes["feature"]) for nodes in trees]
    arrays = [
        np.fromiter(
            itertools.chain.from_iterable(nodes[name] for nodes in trees),
            dtype=dtype,
            count=sum(sizes),
        )
        for name, dtype in zip(_NODE_FIELDS, _NODE_DTYPES)
    ]
    model._set_fitted(
        TreeArrays(*arrays, np.cumsum([0] + sizes, dtype=np.int64)),
        float(state["base_score"]),
        n_features,
        [],
    )
    return model
