"""Machine-learning stack used by AutoPower and the baselines.

The paper uses two model families:

* a linear model with L2 regularization (ridge regression) for the
  register-count and gating-rate sub-models, where the correlation with
  hardware parameters is simple and training samples are scarce, and
* XGBoost for the activity-style sub-models, where the correlation with
  hardware *and* event parameters is complex and one sample per workload
  is available.

This environment has no network access, so :mod:`repro.ml.gbm` provides a
from-scratch gradient-boosted regression-tree implementation with the
XGBoost-style regularized objective (squared loss, shrinkage, ``reg_lambda``,
``min_child_weight``, depth limit, early stopping on the training loss).

Level-wise engine (PR 3, vectorized engine in PR 1)
---------------------------------------------------
The original engine searched splits with a per-candidate Python loop and
traversed trees row by row; PR 1 vectorized the per-node search, and PR 3
replaced per-node recursion entirely with **level-wise frontier growth**:
all open nodes of a depth level live as row segments over one shared
presorted workspace (:class:`~repro.ml.tree.TreeWorkspace`), the split
search for every frontier node and feature runs in one batched pass, and
nodes are emitted straight into preorder struct-of-arrays buffers
(:class:`~repro.ml.tree.FlatTree`) — no recursion, no per-node argsorts,
no per-node cache keys.  When a C compiler and ``cffi`` are available,
the identical algorithm runs compiled (:mod:`repro.ml._kernel`; disable
with ``REPRO_NO_KERNEL=1``), and :func:`repro.ml.gbm.fit_many` fits any
number of GBMs in one call — results are byte-identical to the numpy
engine.  A fitted GBM is one set of preorder node arrays
(:class:`~repro.ml.tree.TreeArrays`), fused into a
:class:`~repro.ml.forest.Forest` that advances all rows x all trees in
lockstep at predict time.
Measured on the repo's single-core container (interleaved A/B): few-shot
fit 20.0ms -> 1.7ms (~12x), bulk exact fit 226ms -> 64ms (~3.5x),
``fig6_sweep.run()`` 18.1s -> 4.1s (~4.4x); exact-mode predictions match
the scalar reference to <=1e-9 relative (see
``tests/test_ml_engine_equivalence.py``, ``tests/test_ml_levelwise.py``).
"""

from repro.ml.gbm import GradientBoostingRegressor
from repro.ml.linear import RidgeRegression
from repro.ml.metrics import (
    mape,
    max_error,
    mean_absolute_error,
    pearson_r,
    r2_score,
    rmse,
)
from repro.ml.scaling import StandardScaler
from repro.ml.tree import RegressionTree

__all__ = [
    "GradientBoostingRegressor",
    "RegressionTree",
    "RidgeRegression",
    "StandardScaler",
    "mape",
    "max_error",
    "mean_absolute_error",
    "pearson_r",
    "r2_score",
    "rmse",
]
