"""Property-based differential test of the multi-ensemble forest descent.

:meth:`repro.ml.forest.Forest.sum_values` evaluates many boosted
ensembles in one blocked pass over one wide feature matrix.  The oracle
here is the slowest, most independent path there is: every fitted
tree's own :meth:`RegressionTree.predict` on the ensemble's own feature
columns, summed per row.  Fuzzed shapes cover feature values exactly on
split thresholds, a single row, row counts at and just past a descent
block boundary (the block size is fuzzed small so boundaries are cheap
to hit), ensembles over different feature counts, and constant-target
ensembles whose trees are single leaves.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ml.forest as forest_module
from repro.ml.forest import Forest
from repro.ml.gbm import GradientBoostingRegressor

_SETTINGS = dict(max_examples=40, deadline=None)


@st.composite
def ensembles(draw):
    """1-4 small fitted GBMs over different feature counts, side by side."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    models = []
    for _ in range(draw(st.integers(1, 4))):
        n_features = draw(st.integers(1, 5))
        n_samples = draw(st.integers(2, 24))
        # Few distinct values: thresholds land exactly on feature values.
        X = rng.integers(0, 4, size=(n_samples, n_features)).astype(float)
        if draw(st.booleans()):
            y = np.full(n_samples, draw(st.floats(-5, 5)))  # single-leaf trees
        else:
            y = rng.normal(size=n_samples)
        model = GradientBoostingRegressor(
            n_estimators=draw(st.integers(1, 8)),
            max_depth=draw(st.integers(1, 4)),
            learning_rate=0.3,
            random_state=0,
        ).fit(X, y)
        models.append(model)
    return models


def _wide_rows(models, thresholds_only, n_rows, rng):
    """A wide matrix whose blocks are each model's features, with values
    drawn from the fitted split thresholds (so ``x == threshold`` is hit)."""
    blocks = []
    for model in models:
        thresholds = np.concatenate(
            [tree.ensure_flat().threshold for tree, _ in model.trees_]
        )
        pool = np.unique(thresholds) if thresholds_only else np.arange(-1.0, 5.0, 0.5)
        blocks.append(rng.choice(pool, size=(n_rows, model.n_features_)))
    return np.hstack(blocks)


def _per_tree_sums(model, X):
    return np.column_stack(
        [tree.predict(X[:, cols]) for tree, cols in model.trees_]
    ).sum(axis=1)


@given(
    models=ensembles(),
    block=st.integers(1, 64),
    rows_choice=st.sampled_from(["one", "at_boundary", "past_boundary", "random"]),
    thresholds_only=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(**_SETTINGS)
def test_multi_ensemble_descent_matches_per_tree_sums(
    models, block, rows_choice, thresholds_only, seed
):
    rng = np.random.default_rng(seed)
    widest = max(m.n_trees_ for m in models)
    step = max(1, block // widest)  # rows per descent block
    n_rows = {
        "one": 1,
        "at_boundary": step,
        "past_boundary": step + 1,
        "random": int(rng.integers(1, 3 * step + 2)),
    }[rows_choice]
    X = _wide_rows(models, thresholds_only, n_rows, rng)
    offsets = np.cumsum([0] + [m.n_features_ for m in models])
    fused = Forest.from_ensembles(
        [(m.nodes_, int(col)) for m, col in zip(models, offsets)]
    )
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forest_module, "BLOCK_ELEMENTS", block)
        sums = fused.sum_values(X)
        singles = [
            m._flat_ensemble().sum_values(X[:, a:b])
            for m, a, b in zip(models, offsets[:-1], offsets[1:])
        ]
    assert sums.shape == (len(models), n_rows)
    for e, (model, a, b) in enumerate(zip(models, offsets[:-1], offsets[1:])):
        expected = _per_tree_sums(model, X[:, a:b])
        np.testing.assert_array_equal(sums[e], expected)
        # GradientBoostingRegressor.predict is the one-ensemble case.
        np.testing.assert_array_equal(singles[e][0], expected)
        np.testing.assert_array_equal(
            model.predict(X[:, a:b]),
            model.base_score_ + model.learning_rate * expected,
        )
