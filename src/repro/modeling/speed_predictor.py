"""Step-time prediction models (Table II) and cluster-speed composition.

The paper evaluates eight regression models for predicting the step time of
an individual worker:

* GPU-agnostic: a univariate model on the normalized computation ratio
  ``Cnorm = Cm / Cgpu`` and a multivariate model on ``(Cm, Cgpu)``;
* GPU-specific (one family per GPU type, here K80 and P100 as in the
  paper): a univariate linear model on the normalized model complexity
  ``Cm``, an SVR with a two-degree polynomial kernel, and an SVR with an
  RBF kernel.

Cluster speed is then composed from individual predictions (Section VI-A):
the training speed of a cluster is approximately the sum of its workers'
speeds until the parameter-server bottleneck is reached.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.gpus import get_gpu
from repro.cmdare.profiler import SpeedMeasurement
from repro.errors import DataError, ModelingError
from repro.modeling.model_selection import RegressionEvaluation, RegressionPredictor, build_models
from repro.modeling.preprocessing import MinMaxScaler
from repro.perf.ps_capacity import PSCapacityModel

#: Default SVR hyperparameters used when grid search is skipped; the values
#: sit in the middle of the paper's search ranges.
DEFAULT_SVR_C = 50.0
DEFAULT_SVR_EPSILON = 0.01


@dataclass(frozen=True)
class StepTimeModelSpec:
    """Configuration of one Table II model.

    Attributes:
        name: Row label, e.g. ``"SVR RBF Kernel, K80"``.
        feature_mode: ``"cnorm"`` (normalized computation ratio),
            ``"cm_cgpu"`` (model complexity and GPU capacity), or ``"cm"``
            (normalized model complexity).
        estimator: ``"linear"``, ``"svr_poly"``, or ``"svr_rbf"``.
        gpu_name: GPU the model is specific to, or ``None`` for GPU-agnostic
            models.
    """

    name: str
    feature_mode: str
    estimator: str
    gpu_name: Optional[str] = None


class StepTimePredictor(RegressionPredictor):
    """One step-time prediction model, on min-max scaled features.

    Args:
        spec: Model configuration (features, estimator, GPU specificity).
        svr_C: SVR penalty parameter.
        svr_epsilon: SVR epsilon-tube width.
    """

    feature_modes = ("cnorm", "cm_cgpu", "cm")
    estimators = ("linear", "svr_poly", "svr_rbf")
    floor = 1e-4

    def __init__(self, spec: StepTimeModelSpec, svr_C: float = DEFAULT_SVR_C,
                 svr_epsilon: float = DEFAULT_SVR_EPSILON):
        super().__init__(spec, svr_C, svr_epsilon)

    def _raw_features(self, gflops: np.ndarray, teraflops: np.ndarray) -> np.ndarray:
        if self.spec.feature_mode == "cnorm":
            return (gflops / teraflops).reshape(-1, 1)
        if self.spec.feature_mode == "cm_cgpu":
            return np.column_stack([gflops, teraflops])
        return gflops.reshape(-1, 1)

    def _dataset(self, measurements: Sequence[SpeedMeasurement]):
        selected = list(measurements)
        if self.spec.gpu_name is not None:
            gpu = get_gpu(self.spec.gpu_name)
            selected = [m for m in selected if m.gpu_name == gpu.name]
            if not selected:
                raise DataError(f"no measurements for GPU {gpu.name!r}")
        raw = self._raw_features(np.array([m.model_gflops for m in selected]),
                                 np.array([m.gpu_teraflops for m in selected]))
        return raw, np.array([m.step_time for m in selected])

    def _make_transform(self) -> MinMaxScaler:
        return MinMaxScaler()

    def predict_step_time(self, model_gflops: float, gpu_name: str) -> float:
        """Predict the step time (seconds) of one worker.

        Args:
            model_gflops: Model complexity ``Cm`` in GFLOPs.
            gpu_name: GPU type of the worker.
        """
        self._check_fitted()
        gpu = get_gpu(gpu_name)
        if self.spec.gpu_name is not None and gpu.name != get_gpu(self.spec.gpu_name).name:
            raise ModelingError(
                f"model {self.spec.name!r} is specific to {self.spec.gpu_name!r}; "
                f"asked about {gpu_name!r}")
        return self._predict(self._raw_features(np.array([model_gflops]),
                                                np.array([gpu.teraflops])))

    def predict_speed(self, model_gflops: float, gpu_name: str) -> float:
        """Predict the training speed (steps/second) of one worker."""
        return 1.0 / self.predict_step_time(model_gflops, gpu_name)


#: The eight models of Table II, in the paper's row order.
TABLE2_MODEL_SPECS: Tuple[StepTimeModelSpec, ...] = (
    StepTimeModelSpec("Univariate, GPU-agnostic", "cnorm", "linear", None),
    StepTimeModelSpec("Multivariate, GPU-agnostic", "cm_cgpu", "linear", None),
    StepTimeModelSpec("Univariate, K80", "cm", "linear", "k80"),
    StepTimeModelSpec("SVR Polynomial Kernel, K80", "cm", "svr_poly", "k80"),
    StepTimeModelSpec("SVR RBF Kernel, K80", "cm", "svr_rbf", "k80"),
    StepTimeModelSpec("Univariate, P100", "cm", "linear", "p100"),
    StepTimeModelSpec("SVR Polynomial Kernel, P100", "cm", "svr_poly", "p100"),
    StepTimeModelSpec("SVR RBF Kernel, P100", "cm", "svr_rbf", "p100"),
)


def build_table2_models(measurements: Sequence[SpeedMeasurement],
                        use_grid_search: bool = False,
                        seed: int = 0) -> Dict[str, StepTimePredictor]:
    """Fit all eight Table II models on the given measurements.

    Args:
        measurements: Single-worker speed measurements across models/GPUs.
        use_grid_search: Run the paper's full hyperparameter grid search for
            the SVR models (slower); otherwise mid-range defaults are used.
        seed: Seed for the grid-search shuffling.
    """
    return build_models(StepTimePredictor, TABLE2_MODEL_SPECS, measurements,
                        use_grid_search, seed)


def evaluate_table2_models(measurements: Sequence[SpeedMeasurement],
                           seed: int = 0) -> List[RegressionEvaluation]:
    """Produce every row of Table II for the given measurement dataset."""
    return [StepTimePredictor(spec).evaluate(measurements, seed=seed)
            for spec in TABLE2_MODEL_SPECS]


class ClusterSpeedPredictor:
    """Cluster-speed prediction by composing per-worker predictions.

    Section VI-A: ``sp = sum_i sp_i`` for the workers of the cluster, with
    an optional parameter-server capacity cap for users who want the
    bottleneck-aware estimate (the plain sum is what the bottleneck
    detector compares against).

    Args:
        step_time_predictor: A fitted per-worker step-time model.  Use a
            GPU-agnostic model, or supply per-GPU models via
            ``per_gpu_predictors``.
        per_gpu_predictors: Optional mapping from GPU name to a fitted
            GPU-specific predictor; takes precedence over the shared model.
        ps_capacity_model: Optional capacity model for bottleneck-aware
            predictions.
    """

    def __init__(self, step_time_predictor: Optional[StepTimePredictor] = None,
                 per_gpu_predictors: Optional[Dict[str, StepTimePredictor]] = None,
                 ps_capacity_model: Optional[PSCapacityModel] = None):
        if step_time_predictor is None and not per_gpu_predictors:
            raise ModelingError("provide a shared predictor or per-GPU predictors")
        self.shared = step_time_predictor
        self.per_gpu = {get_gpu(name).name: predictor
                        for name, predictor in (per_gpu_predictors or {}).items()}
        self.ps_capacity_model = ps_capacity_model

    def _predictor_for(self, gpu_name: str) -> StepTimePredictor:
        gpu = get_gpu(gpu_name)
        if gpu.name in self.per_gpu:
            return self.per_gpu[gpu.name]
        if self.shared is None:
            raise ModelingError(f"no predictor available for GPU {gpu_name!r}")
        return self.shared

    def predict_worker_speeds(self, model_gflops: float,
                              gpu_names: Sequence[str]) -> List[float]:
        """Predicted speed of each worker in the cluster."""
        return [self._predictor_for(gpu).predict_speed(model_gflops, gpu)
                for gpu in gpu_names]

    def predict_cluster_speed(self, model_gflops: float,
                              gpu_names: Sequence[str]) -> float:
        """Predicted cluster speed as the plain sum of worker speeds."""
        if not gpu_names:
            raise ModelingError("the cluster must contain at least one worker")
        return float(sum(self.predict_worker_speeds(model_gflops, gpu_names)))

    def predict_with_ps_bottleneck(self, model_gflops: float,
                                   gpu_names: Sequence[str],
                                   gradient_bytes: float,
                                   num_parameter_servers: int = 1) -> float:
        """Bottleneck-aware cluster speed prediction.

        Requires a :class:`~repro.perf.ps_capacity.PSCapacityModel`; useful
        when the practitioner wants the expected speed including the PS cap
        rather than the idealized sum.
        """
        if self.ps_capacity_model is None:
            raise ModelingError("ps_capacity_model was not provided")
        speeds = self.predict_worker_speeds(model_gflops, gpu_names)
        return self.ps_capacity_model.cluster_speed(speeds, gradient_bytes,
                                                    num_parameter_servers)
