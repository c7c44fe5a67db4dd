"""Property-based differential test of the batched GBM fit.

:func:`repro.ml.gbm.fit_many` fits many GBMs in one call: one compiled
kernel call over shared scratch buffers when the kernel is available.
The oracle is the numpy engine fitting each job alone.  Fuzzed batches
mix row counts (a single row included) and feature counts, tied and
constant feature values, constant targets, ``early_stopping_rounds``,
``max_depth`` and the other split hyper-parameters, and jobs that share
one feature matrix (and so one presort).  Every job's serialized state
must be byte-equal to its oracle's, and its training losses equal.
Without the kernel both sides run the numpy engine, which still checks
that batching changes nothing.
"""

from __future__ import annotations

import contextlib
import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.ml._kernel as kernel_module
from repro.ml.gbm import GradientBoostingRegressor, fit_many
from repro.ml.serialize import gbm_to_dict

_SETTINGS = dict(max_examples=60, deadline=None)


@contextlib.contextmanager
def _numpy_engine():
    saved = kernel_module._kernel, kernel_module._kernel_tried
    kernel_module._kernel, kernel_module._kernel_tried = None, True
    try:
        yield
    finally:
        kernel_module._kernel, kernel_module._kernel_tried = saved


@st.composite
def batches(draw):
    """1-6 jobs of ``(hyper-parameters, X, y)``; some reuse the previous X."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    jobs = []
    for _ in range(draw(st.integers(1, 6))):
        if jobs and draw(st.booleans()):
            X = jobs[-1][1]  # the same object: the batch shares its presort
        else:
            n = draw(st.integers(1, 24))
            f = draw(st.integers(1, 6))
            levels = draw(st.sampled_from([1, 2, 4, 1000]))  # 1 = constant
            X = rng.integers(0, levels, size=(n, f)).astype(float)
        n = X.shape[0]
        if draw(st.booleans()):
            y = rng.normal(size=n)
        else:
            y = np.full(n, draw(st.floats(-5, 5)))
        params = dict(
            n_estimators=draw(st.integers(1, 30)),
            learning_rate=draw(st.sampled_from([0.08, 0.3, 1.0])),
            max_depth=draw(st.integers(0, 5)),
            reg_lambda=draw(st.sampled_from([0.0, 0.4, 1.0])),
            min_child_weight=draw(st.sampled_from([0.0, 1.0, 2.5])),
            gamma=draw(st.sampled_from([0.0, 0.01])),
            early_stopping_rounds=draw(st.sampled_from([None, 0, 3])),
        )
        jobs.append((params, X, y))
    return jobs


@given(jobs=batches())
@settings(**_SETTINGS)
def test_batched_fit_matches_single_numpy_fits(jobs):
    batch = [GradientBoostingRegressor(**params) for params, _, _ in jobs]
    fit_many([(model, X, y) for model, (_, X, y) in zip(batch, jobs)])
    with _numpy_engine():
        alone = [GradientBoostingRegressor(**p).fit(X, y) for p, X, y in jobs]
    for got, want in zip(batch, alone):
        assert json.dumps(gbm_to_dict(got)) == json.dumps(gbm_to_dict(want))
        assert got.train_losses_ == want.train_losses_
