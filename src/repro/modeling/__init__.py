"""Regression-based performance modeling (the paper's core contribution).

The package contains a small from-scratch regression toolkit (ordinary
least squares, epsilon-SVR with polynomial/RBF kernels, PCA, min-max
scaling, k-fold cross validation, grid search, MAE/MAPE metrics) and the
predictors the paper builds on top of it:

* the eight step-time prediction models of Table II
  (:mod:`repro.modeling.speed_predictor`),
* the four checkpoint-time prediction models of Table IV
  (:mod:`repro.modeling.checkpoint_predictor`),
* heterogeneous-cluster speed composition and the end-to-end training-time
  estimator of Eqs. (4)-(5) (:mod:`repro.modeling.training_time`),
* the empirical-CDF revocation estimator used by Eq. (5)
  (:mod:`repro.modeling.revocation_estimator`), and
* a monetary-cost extension (:mod:`repro.modeling.cost`).
"""

from repro.modeling.metrics import mean_absolute_error, mean_absolute_percentage_error, root_mean_squared_error
from repro.modeling.preprocessing import MinMaxScaler, StandardScaler, PCA
from repro.modeling.linear import LinearRegression
from repro.modeling.kernels import linear_kernel, polynomial_kernel, rbf_kernel
from repro.modeling.svr import SVR
from repro.modeling.model_selection import KFold, cross_validate_mae, grid_search_svr, train_test_split
from repro.modeling.speed_predictor import (
    ClusterSpeedPredictor,
    StepTimePredictor,
    build_table2_models,
)
from repro.modeling.checkpoint_predictor import CheckpointTimePredictor, build_table4_models
from repro.modeling.revocation_estimator import EmpiricalLifetimeDistribution, RevocationEstimator
from repro.modeling.training_time import TrainingTimeEstimator, TrainingTimePrediction
from repro.modeling.cost import ClusterCostModel, CostEstimate
from repro.modeling.launch_advisor import LaunchAdvisor
from repro.modeling.placement import (
    PlacementDecision,
    PlacementOption,
    PlacementQuery,
    ScoreTable,
)

__all__ = [
    "mean_absolute_error",
    "mean_absolute_percentage_error",
    "root_mean_squared_error",
    "MinMaxScaler",
    "StandardScaler",
    "PCA",
    "LinearRegression",
    "linear_kernel",
    "polynomial_kernel",
    "rbf_kernel",
    "SVR",
    "KFold",
    "cross_validate_mae",
    "grid_search_svr",
    "train_test_split",
    "StepTimePredictor",
    "ClusterSpeedPredictor",
    "build_table2_models",
    "CheckpointTimePredictor",
    "build_table4_models",
    "EmpiricalLifetimeDistribution",
    "RevocationEstimator",
    "TrainingTimeEstimator",
    "TrainingTimePrediction",
    "ClusterCostModel",
    "CostEstimate",
    "LaunchAdvisor",
    "PlacementQuery",
    "PlacementOption",
    "PlacementDecision",
    "ScoreTable",
]
