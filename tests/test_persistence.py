"""Tests for model serialization (repro.ml.serialize, repro.api.save_model/load_model)."""

import numpy as np
import pytest

import repro.api as api
from repro.arch.config import config_by_name
from repro.arch.workloads import workload_by_name
from repro.core.autopower import AutoPower
from repro.library.stdcell import TechLibrary
from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.linear import RidgeRegression
from repro.ml.serialize import (
    gbm_from_dict,
    gbm_to_dict,
    ridge_from_dict,
    ridge_to_dict,
    tree_from_dict,
    tree_to_dict,
)
from repro.ml.tree import RegressionTree


def _data(n=60, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, size=(n, 3))
    y = 3.0 * X[:, 0] - X[:, 1] ** 2 + 0.5 * X[:, 2]
    return X, y


class TestRidgeRoundTrip:
    def test_predictions_identical(self):
        X, y = _data()
        model = RidgeRegression(alpha=0.1, nonnegative=True).fit(X, y)
        clone = ridge_from_dict(ridge_to_dict(model))
        assert np.array_equal(model.predict(X), clone.predict(X))

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            ridge_to_dict(RidgeRegression())

    def test_wrong_kind_rejected(self):
        with pytest.raises(ValueError):
            ridge_from_dict({"kind": "tree"})


class TestTreeRoundTrip:
    def test_predictions_identical(self):
        X, y = _data()
        tree = RegressionTree(max_depth=4).fit(X, y)
        clone = tree_from_dict(tree_to_dict(tree))
        assert np.array_equal(tree.predict(X), clone.predict(X))

    def test_unfitted_rejected(self):
        with pytest.raises(ValueError):
            tree_to_dict(RegressionTree())


class TestGbmRoundTrip:
    def test_predictions_identical(self):
        X, y = _data()
        model = GradientBoostingRegressor(n_estimators=30).fit(X, y)
        clone = gbm_from_dict(gbm_to_dict(model))
        assert np.array_equal(model.predict(X), clone.predict(X))

    def test_json_serializable(self):
        import json

        X, y = _data(n=20)
        model = GradientBoostingRegressor(n_estimators=5).fit(X, y)
        text = json.dumps(gbm_to_dict(model))
        clone = gbm_from_dict(json.loads(text))
        assert np.allclose(model.predict(X), clone.predict(X))


    @pytest.mark.parametrize(
        "edit",
        [
            lambda s: s["params"].update(subsample=0.8),
            lambda s: s["params"].update(colsample_bytree=0.5),
            lambda s: s["params"].update(tree_method="hist"),
            lambda s: s["params"].update(max_bin=64),
            lambda s: s["params"].update(hist_dtype="float32"),
            lambda s: s["trees"][0].update(columns=[0]),
            lambda s: s["trees"][0]["tree"].pop("nodes"),
        ],
        ids=["subsample", "colsample", "hist", "max_bin", "hist_dtype", "columns", "nested"],
    )
    def test_deleted_options_rejected(self, edit):
        X, y = _data(n=20)
        state = gbm_to_dict(GradientBoostingRegressor(n_estimators=3).fit(X, y))
        edit(state)
        with pytest.raises(ValueError):
            gbm_from_dict(state)


class TestAutoPowerRoundTrip:
    def test_save_load_identical_predictions(self, autopower2, flow, tmp_path):
        path = tmp_path / "autopower.json"
        api.save_model(autopower2, path)
        clone = api.load_model(path)

        for cname in ("C5", "C9"):
            config = config_by_name(cname)
            for wname in ("dhrystone", "spmv"):
                w = workload_by_name(wname)
                events = flow.run(config, w).events
                assert clone.predict_total(config, events, w) == pytest.approx(
                    autopower2.predict_total(config, events, w)
                )

    def test_metadata_preserved(self, autopower2, tmp_path):
        path = tmp_path / "autopower.json"
        api.save_model(autopower2, path)
        clone = api.load_model(path)
        assert clone.train_config_names == autopower2.train_config_names
        assert clone.sram_model.c_constant_mw == pytest.approx(
            autopower2.sram_model.c_constant_mw
        )

    def test_unfitted_save_rejected(self, flow, tmp_path):
        with pytest.raises(ValueError):
            api.save_model(AutoPower(library=flow.library), tmp_path / "x.json")

    def test_library_mismatch_rejected(self, autopower2, tmp_path):
        path = tmp_path / "autopower.json"
        api.save_model(autopower2, path)
        other = TechLibrary(name="synth28")
        with pytest.raises(ValueError, match="library"):
            api.load_model(path, library=other)

    def test_bad_version_rejected(self, autopower2, tmp_path):
        import json

        path = tmp_path / "autopower.json"
        api.save_model(autopower2, path)
        state = json.loads(path.read_text())
        state["format_version"] = 99
        path.write_text(json.dumps(state))
        with pytest.raises(ValueError, match="version"):
            api.load_model(path)
