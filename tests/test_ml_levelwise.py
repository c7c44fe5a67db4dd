"""Level-wise engine suite: scalar-reference properties, kernel parity.

Complements ``tests/test_ml_engine_equivalence.py`` with the cases the
level-wise rewrite is most likely to get wrong:

* randomized *small-n* datasets (n in 2..12 — the few-shot regime), value
  ties, constant features, and non-unit hessians, all pitted against a
  deliberately naive per-node scalar reference,
* the compiled kernel against the pure-numpy engine (byte-identical
  serialized models, identical predictions),
* serialization round-trips of level-wise-fitted models through the
  legacy nested format,
* the no-per-node-argsort invariant via ``SORT_COUNTERS``.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.ml._kernel import get_kernel
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.serialize import gbm_from_dict, gbm_to_dict, tree_from_dict
from repro.ml.tree import SORT_COUNTERS, RegressionTree

GAIN_EPS = 1e-12


# -- naive scalar reference (per-node loops, explicit hessians) -------------
#
# Tie discipline: the engine orders tied values by original row index (the
# stable root presort, preserved by partitioning) and chains child G/H sums
# off the winning candidate's cumulative values.  The reference does the
# same — with `idx` kept sorted, a stable value sort is exactly
# (value, original index) order — so mathematically tied candidates score
# bitwise equal in both implementations and resolve to the same split.
def _reference_split(X, grad, hess, idx, gsum, hsum, lam, gamma, mcw):
    parent = gsum * gsum / (hsum + lam)
    best_score = -np.inf
    best = None
    for feature in range(X.shape[1]):
        values = X[idx, feature]
        order = np.argsort(values, kind="stable")
        sv = values[order]
        gl = np.cumsum(grad[idx][order])
        hl = np.cumsum(hess[idx][order])
        for i in range(idx.size - 1):
            if sv[i + 1] == sv[i]:
                continue
            hl_i = float(hl[i])
            hr_i = hsum - hl_i
            if hl_i < mcw or hr_i < mcw:
                continue
            gl_i = float(gl[i])
            gr_i = gsum - gl_i
            score = gl_i * gl_i / (hl_i + lam) + gr_i * gr_i / (hr_i + lam)
            if score > best_score:
                best_score = score
                best = (feature, i, order, float(gl[i]), float(hl[i]))
    if best is None:
        return None
    gain = 0.5 * (best_score - parent) - gamma
    if not gain > GAIN_EPS:
        return None
    feature, pos, order, gl_win, hl_win = best
    sv = X[idx, feature][order]
    threshold = 0.5 * (sv[pos] + sv[pos + 1])
    left = np.sort(idx[order[: pos + 1]])
    right = np.sort(idx[order[pos + 1 :]])
    return feature, float(threshold), left, right, gl_win, hl_win


def _reference_build(X, grad, hess, idx, depth, p, gsum=None, hsum=None):
    if gsum is None:  # root: sequential sums, like the engine
        gsum = float(np.cumsum(grad[idx])[-1])
        hsum = float(np.cumsum(hess[idx])[-1])
    node = {"value": -gsum / (hsum + p["lam"]), "n": int(idx.size)}
    if depth < p["max_depth"] and idx.size >= p["mss"]:
        best = _reference_split(
            X, grad, hess, idx, gsum, hsum, p["lam"], p["gamma"], p["mcw"]
        )
        if best is not None:
            feature, threshold, li, ri, gl, hl = best
            node["feature"] = feature
            node["threshold"] = threshold
            node["left"] = _reference_build(X, grad, hess, li, depth + 1, p, gl, hl)
            node["right"] = _reference_build(
                X, grad, hess, ri, depth + 1, p, gsum - gl, hsum - hl
            )
    return node


def _assert_structure(ref, node):
    assert node.value == pytest.approx(ref["value"], rel=1e-12, abs=1e-12)
    assert node.n_samples == ref["n"]
    if "feature" in ref:
        assert not node.is_leaf, "engine made a leaf where reference split"
        assert node.feature == ref["feature"]
        assert node.threshold == pytest.approx(ref["threshold"], rel=1e-12)
        _assert_structure(ref["left"], node.left)
        _assert_structure(ref["right"], node.right)
    else:
        assert node.is_leaf, "engine split where reference made a leaf"


def _small_cases():
    """Small-n datasets exercising every awkward frontier shape."""
    cases = []
    for seed in range(10):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 13))  # n in 2..12: the few-shot regime
        f = int(rng.integers(1, 6))
        X = rng.normal(size=(n, f))
        if seed % 3 == 0 and f > 1:
            X[:, 0] = rng.integers(0, 3, size=n)  # heavy ties
        if seed % 4 == 0:
            X[:, -1] = 1.5  # constant feature
        y = rng.normal(size=n)
        cases.append((X, y))
    # all-constant matrix: no split anywhere
    cases.append((np.ones((6, 3)), np.arange(6.0)))
    # duplicated rows: every candidate tied
    rng = np.random.default_rng(42)
    base = rng.normal(size=(3, 4))
    cases.append((np.repeat(base, 3, axis=0), rng.normal(size=9)))
    return cases


class TestSmallNReference:
    @pytest.mark.parametrize("case", range(12))
    def test_exact_structure_small_n(self, case):
        X, y = _small_cases()[case]
        kw = dict(max_depth=3, reg_lambda=0.4, min_child_weight=1.0)
        tree = RegressionTree(**kw).fit(X, y)
        p = {"max_depth": 3, "mss": 2, "mcw": 1.0, "lam": 0.4, "gamma": 0.0}
        grad = -np.asarray(y, dtype=float)
        hess = np.ones_like(grad)
        ref = _reference_build(
            np.asarray(X, dtype=float), grad, hess, np.arange(len(y)), 0, p
        )
        _assert_structure(ref, tree.root_)

    @pytest.mark.parametrize("case", range(12))
    def test_nonunit_hessians_match_reference(self, case):
        X, y = _small_cases()[case]
        rng = np.random.default_rng(100 + case)
        hess = rng.uniform(0.5, 3.0, size=len(y))
        grad = -np.asarray(y, dtype=float) * hess
        kw = dict(max_depth=3, reg_lambda=0.7, min_child_weight=1.2, gamma=0.005)
        tree = RegressionTree(**kw).fit_gradients(X, grad, hess)
        p = {"max_depth": 3, "mss": 2, "mcw": 1.2, "lam": 0.7, "gamma": 0.005}
        ref = _reference_build(
            np.asarray(X, dtype=float), grad, hess, np.arange(len(y)), 0, p
        )
        _assert_structure(ref, tree.root_)

    @pytest.mark.parametrize("case", range(12))
    def test_hist_small_n_matches_exact(self, case):
        # With n <= 12 distinct values per feature, quantile bin edges are
        # the exact midpoints, so hist must induce the same partitions.
        # Mathematically tied splits may resolve to a different feature
        # (the two engines accumulate G in different orders), so compare
        # the partition geometry and predictions, not feature ids.
        X, y = _small_cases()[case]
        exact = RegressionTree(max_depth=3, tree_method="exact").fit(X, y)
        hist = RegressionTree(max_depth=3, tree_method="hist", max_bin=64).fit(X, y)
        fe, fh = exact.ensure_flat(), hist.ensure_flat()
        assert fe.n_nodes == fh.n_nodes
        assert fe.depth == fh.depth
        assert sorted(fe.n_samples.tolist()) == sorted(fh.n_samples.tolist())
        assert np.allclose(exact.predict(X), hist.predict(X), rtol=1e-9, atol=1e-12)

    def test_fractional_min_child_weight(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(10, 3))
        y = rng.normal(size=10)
        kw = dict(max_depth=4, min_child_weight=2.5, reg_lambda=0.2)
        tree = RegressionTree(**kw).fit(X, y)
        p = {"max_depth": 4, "mss": 2, "mcw": 2.5, "lam": 0.2, "gamma": 0.0}
        grad = -y.astype(float)
        ref = _reference_build(X, grad, np.ones(10), np.arange(10), 0, p)
        _assert_structure(ref, tree.root_)


class TestKernelParity:
    """Compiled kernel vs pure-numpy engine (skipped when not compiled)."""

    pytestmark = pytest.mark.skipif(
        get_kernel() is None, reason="compiled kernel unavailable"
    )

    def _pair(self, **kw):
        rng = np.random.default_rng(kw.pop("seed", 0))
        n = kw.pop("n", 12)
        f = kw.pop("f", 8)
        X = rng.uniform(0.0, 4.0, size=(n, f))
        y = 5.0 * X[:, 0] - X[:, 1] + rng.normal(scale=0.3, size=n)
        with_kernel = GradientBoostingRegressor(**kw).fit(X, y)
        import repro.ml._kernel as kernel_mod

        saved, saved_tried = kernel_mod._kernel, kernel_mod._kernel_tried
        kernel_mod._kernel, kernel_mod._kernel_tried = None, True
        try:
            without = GradientBoostingRegressor(**kw).fit(X, y)
        finally:
            kernel_mod._kernel, kernel_mod._kernel_tried = saved, saved_tried
        return with_kernel, without, X

    @pytest.mark.parametrize("seed", range(5))
    def test_serialized_models_byte_identical(self, seed):
        import json

        a, b, X = self._pair(
            seed=seed, n_estimators=60, learning_rate=0.1, max_depth=3
        )
        assert json.dumps(gbm_to_dict(a)) == json.dumps(gbm_to_dict(b))
        assert np.array_equal(a.predict(X), b.predict(X))

    @pytest.mark.parametrize("seed", range(4))
    def test_early_stopping_parity(self, seed):
        a, b, X = self._pair(
            seed=seed,
            n=20,
            n_estimators=200,
            learning_rate=0.3,
            max_depth=2,
            early_stopping_rounds=5,
        )
        assert a.n_trees_ == b.n_trees_
        # Both paths accumulate the loss sequentially, so the whole loss
        # trajectory — and thus every stopping decision — is bitwise equal.
        assert a.train_losses_ == b.train_losses_

    def test_early_stopping_zero_rounds_parity(self):
        # Regression: 0 means stop-at-first-plateau (numpy semantics), not
        # disabled — the kernel uses a negative sentinel for None instead.
        a, b, _ = self._pair(
            seed=7, n=10, f=2, n_estimators=400, early_stopping_rounds=0
        )
        assert a.n_trees_ == b.n_trees_ < 400
        assert a.train_losses_ == b.train_losses_

    def test_deep_trees_and_mcw(self):
        a, b, X = self._pair(
            n=40, n_estimators=30, max_depth=6, min_child_weight=3.0, gamma=0.01
        )
        assert np.array_equal(a.predict(X), b.predict(X))
        for (ta, _), (tb, _) in zip(a.trees_, b.trees_):
            fa, fb = ta.ensure_flat(), tb.ensure_flat()
            for field in ("feature", "threshold", "left", "right", "value", "n_samples"):
                assert np.array_equal(getattr(fa, field), getattr(fb, field)), field

    def test_kernel_ensemble_matches_lazy_assembly(self):
        a, _, X = self._pair(n_estimators=40, max_depth=3)
        from repro.ml.forest import Forest

        lazy = Forest.from_ensembles([(a.trees_, 0)])
        fast = a._flat_ensemble()
        assert np.array_equal(lazy.feature, fast.feature)
        assert np.array_equal(lazy.threshold, fast.threshold)
        assert np.array_equal(lazy.children, fast.children)
        assert np.array_equal(lazy.value, fast.value)
        assert np.array_equal(lazy.roots, fast.roots)


class TestSerializationCompat:
    def test_levelwise_tree_loads_via_legacy_nested_format(self):
        # A level-wise-fitted tree exported through the legacy nested
        # ``root`` schema must load into the same predictor.
        rng = np.random.default_rng(3)
        X = rng.normal(size=(30, 4))
        y = np.sin(X[:, 0]) + rng.normal(scale=0.1, size=30)
        tree = RegressionTree(max_depth=3).fit(X, y)

        def nest(node):
            d = {"value": node.value, "n_samples": node.n_samples}
            if not node.is_leaf:
                d["feature"] = node.feature
                d["threshold"] = node.threshold
                d["left"] = nest(node.left)
                d["right"] = nest(node.right)
            return d

        legacy = {
            "kind": "tree",
            "n_features": tree.n_features_,
            "max_depth": tree.max_depth,
            "reg_lambda": tree.reg_lambda,
            "root": nest(tree.root_),
        }
        clone = tree_from_dict(legacy)
        assert np.allclose(tree.predict(X), clone.predict(X), rtol=0, atol=1e-12)

    def test_gbm_round_trip_after_kernel_or_numpy_fit(self):
        rng = np.random.default_rng(9)
        X = rng.uniform(size=(15, 6))
        y = rng.uniform(10, 20, size=15)
        model = GradientBoostingRegressor(n_estimators=25, max_depth=3).fit(X, y)
        clone = gbm_from_dict(gbm_to_dict(model))
        assert np.array_equal(model.predict(X), clone.predict(X))

    def test_hist_dtype_round_trips_only_when_nondefault(self):
        rng = np.random.default_rng(10)
        X = rng.uniform(size=(40, 4))
        y = rng.normal(size=40)
        m64 = GradientBoostingRegressor(n_estimators=5, tree_method="hist").fit(X, y)
        assert "hist_dtype" not in gbm_to_dict(m64)["params"]  # wire unchanged
        m32 = GradientBoostingRegressor(
            n_estimators=5, tree_method="hist", hist_dtype="float32"
        ).fit(X, y)
        state = gbm_to_dict(m32)
        assert state["params"]["hist_dtype"] == "float32"
        clone = gbm_from_dict(state)
        assert clone.hist_dtype == "float32"
        assert np.array_equal(m32.predict(X), clone.predict(X))


class TestHistFloat32:
    def test_hist32_close_to_hist64(self):
        rng = np.random.default_rng(2)
        X = rng.uniform(size=(300, 6))
        y = 10 * np.sin(np.pi * X[:, 0] * X[:, 1]) + 5 * X[:, 2]
        kw = dict(n_estimators=60, max_depth=4, tree_method="hist", max_bin=64)
        m64 = GradientBoostingRegressor(**kw).fit(X, y)
        m32 = GradientBoostingRegressor(hist_dtype="float32", **kw).fit(X, y)
        r64 = float(np.sqrt(np.mean((m64.predict(X) - y) ** 2)))
        r32 = float(np.sqrt(np.mean((m32.predict(X) - y) ** 2)))
        assert r32 < 1.5 * r64 + 1e-9

    def test_hist32_deterministic(self):
        rng = np.random.default_rng(4)
        X = rng.uniform(size=(80, 5))
        y = rng.normal(size=80)
        kw = dict(n_estimators=10, tree_method="hist", hist_dtype="float32")
        a = GradientBoostingRegressor(**kw).fit(X, y)
        b = GradientBoostingRegressor(**kw).fit(X, y)
        assert np.array_equal(a.predict(X), b.predict(X))

    def test_rejects_bad_dtype(self):
        with pytest.raises(ValueError):
            GradientBoostingRegressor(hist_dtype="float16")
        with pytest.raises(ValueError):
            RegressionTree(hist_dtype="half")


class TestNoPerNodeSorts:
    def test_numpy_exact_fit_sorts_once_per_workspace(self):
        # The level-wise exact engine presorts each feature exactly once
        # per fit (the workspace build); below the root every partition is
        # a stable position-cut split.  ``node_argsorts`` has no increment
        # site at all — pinned here so a regression must touch the counter.
        import repro.ml._kernel as kernel_mod

        rng = np.random.default_rng(0)
        X = rng.uniform(size=(12, 10))
        y = rng.normal(size=12)
        saved, saved_tried = kernel_mod._kernel, kernel_mod._kernel_tried
        kernel_mod._kernel, kernel_mod._kernel_tried = None, True
        try:
            before = dict(SORT_COUNTERS)
            GradientBoostingRegressor(n_estimators=50, max_depth=3).fit(X, y)
            after = dict(SORT_COUNTERS)
        finally:
            kernel_mod._kernel, kernel_mod._kernel_tried = saved, saved_tried
        assert after["workspace_builds"] - before["workspace_builds"] == 1
        assert after["node_argsorts"] - before["node_argsorts"] == 0

    def test_kernel_fit_sorts_once_per_workspace(self):
        if get_kernel() is None:
            pytest.skip("compiled kernel unavailable")
        rng = np.random.default_rng(1)
        X = rng.uniform(size=(12, 10))
        y = rng.normal(size=12)
        before = dict(SORT_COUNTERS)
        GradientBoostingRegressor(n_estimators=50, max_depth=3).fit(X, y)
        after = dict(SORT_COUNTERS)
        assert after["workspace_builds"] - before["workspace_builds"] == 1
        assert after["node_argsorts"] - before["node_argsorts"] == 0
