"""Checkpoint-time prediction models (Table IV).

The paper evaluates four regression models for predicting the time to
checkpoint a model, using the checkpoint file sizes as features:

1. univariate linear on the total size ``Sc``,
2. multivariate linear on the data and meta file sizes ``(Sd, Sm)``,
3. multivariate linear on two PCA components of ``(Sd, Sm, Si)``, and
4. SVR with an RBF kernel on ``Sc``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from repro.cmdare.profiler import CheckpointMeasurement
from repro.modeling.model_selection import (NoTransform, RegressionEvaluation,
                                            RegressionPredictor, build_models)
from repro.modeling.preprocessing import PCA
from repro.workloads.checkpoints import CheckpointFiles

#: Default SVR hyperparameters used when grid search is skipped.
DEFAULT_SVR_C = 50.0
DEFAULT_SVR_EPSILON = 0.05

_MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class CheckpointModelSpec:
    """Configuration of one Table IV model.

    Attributes:
        name: Row label, e.g. ``"SVR RBF kernel"``.
        feature_mode: ``"sc"`` (total size), ``"sd_sm"`` (data and meta
            sizes), or ``"pca"`` (two PCA components of data/meta/index).
        estimator: ``"linear"`` or ``"svr_rbf"``.
    """

    name: str
    feature_mode: str
    estimator: str


class CheckpointTimePredictor(RegressionPredictor):
    """One checkpoint-time prediction model, on file sizes in MB."""

    feature_modes = ("sc", "sd_sm", "pca")
    estimators = ("linear", "svr_rbf")
    floor = 1e-3

    def __init__(self, spec: CheckpointModelSpec, svr_C: float = DEFAULT_SVR_C,
                 svr_epsilon: float = DEFAULT_SVR_EPSILON):
        super().__init__(spec, svr_C, svr_epsilon)

    def _raw_features(self, data: np.ndarray, meta: np.ndarray, index: np.ndarray,
                      total: np.ndarray) -> np.ndarray:
        if self.spec.feature_mode == "sc":
            return total.reshape(-1, 1)
        if self.spec.feature_mode == "sd_sm":
            return np.column_stack([data, meta])
        return np.column_stack([data, meta, index])

    def _dataset(self, measurements: Sequence[CheckpointMeasurement]):
        sizes = [np.array([getattr(m, name) for m in measurements]) / _MB
                 for name in ("data_bytes", "meta_bytes", "index_bytes", "total_bytes")]
        return self._raw_features(*sizes), np.array([m.duration for m in measurements])

    def _make_transform(self):
        return PCA(n_components=2) if self.spec.feature_mode == "pca" else NoTransform()

    def predict_time(self, files: CheckpointFiles) -> float:
        """Predict the checkpoint duration (seconds) for the given files."""
        sizes = (files.data_mb, files.meta_mb, files.index_mb, files.total_mb)
        return self._predict(self._raw_features(*(np.array([size]) for size in sizes)))


#: The four models of Table IV, in the paper's row order.
TABLE4_MODEL_SPECS: Tuple[CheckpointModelSpec, ...] = (
    CheckpointModelSpec("Univariate", "sc", "linear"),
    CheckpointModelSpec("Multivariate", "sd_sm", "linear"),
    CheckpointModelSpec("Multivariate, Two Components PCA", "pca", "linear"),
    CheckpointModelSpec("SVR RBF kernel", "sc", "svr_rbf"),
)


def build_table4_models(measurements: Sequence[CheckpointMeasurement],
                        use_grid_search: bool = False,
                        seed: int = 0) -> Dict[str, CheckpointTimePredictor]:
    """Fit all four Table IV models on the given checkpoint measurements."""
    return build_models(CheckpointTimePredictor, TABLE4_MODEL_SPECS, measurements,
                        use_grid_search, seed)


def evaluate_table4_models(measurements: Sequence[CheckpointMeasurement],
                           seed: int = 0) -> List[RegressionEvaluation]:
    """Produce every row of Table IV for the given measurement dataset."""
    return [CheckpointTimePredictor(spec).evaluate(measurements, seed=seed)
            for spec in TABLE4_MODEL_SPECS]
