"""Model selection: splits, k-fold cross validation, grid search and the predictor core.

The paper's protocol (Section III-B): random 4:1 train/test split, k-fold
cross validation on the training data reported as MAE, and grid search over
the SVR hyperparameters — penalty ``p`` (``C`` here) in [10, 100] with step
10, epsilon in [0.01, 0.1] with step 0.01.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import DataError, ModelingError, NotFittedError
from repro.modeling.linear import LinearRegression
from repro.modeling.metrics import mean_absolute_error, mean_absolute_percentage_error
from repro.modeling.preprocessing import as_matrix
from repro.modeling.svr import SVR

#: The paper's SVR hyperparameter grid.
PAPER_C_GRID: Tuple[float, ...] = tuple(float(c) for c in range(10, 101, 10))
PAPER_EPSILON_GRID: Tuple[float, ...] = tuple(round(0.01 * i, 2) for i in range(1, 11))


def train_test_split(features, targets, test_fraction: float = 0.2,
                     rng: Optional[np.random.Generator] = None
                     ) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Random train/test split (4:1 by default, matching the paper).

    Returns:
        ``(train_features, test_features, train_targets, test_targets)``.
    """
    matrix = as_matrix(features)
    target = np.asarray(targets, dtype=float).ravel()
    if matrix.shape[0] != target.shape[0]:
        raise DataError("features and targets must have the same length")
    if not 0.0 < test_fraction < 1.0:
        raise DataError("test_fraction must be in (0, 1)")
    n = matrix.shape[0]
    n_test = max(1, int(round(n * test_fraction)))
    if n_test >= n:
        raise DataError("not enough samples for the requested split")
    generator = rng if rng is not None else np.random.default_rng(0)
    order = generator.permutation(n)
    test_index, train_index = order[:n_test], order[n_test:]
    return matrix[train_index], matrix[test_index], target[train_index], target[test_index]


class KFold:
    """K-fold cross-validation splitter with shuffling.

    Args:
        n_splits: Number of folds (5 by default).
        rng: Random generator used for shuffling.
    """

    def __init__(self, n_splits: int = 5, rng: Optional[np.random.Generator] = None):
        if n_splits < 2:
            raise DataError("n_splits must be >= 2")
        self.n_splits = n_splits
        self._rng = rng if rng is not None else np.random.default_rng(0)

    def split(self, n_samples: int) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
        """Yield ``(train_indices, validation_indices)`` pairs."""
        if n_samples < self.n_splits:
            raise DataError("more folds than samples")
        order = self._rng.permutation(n_samples)
        folds = np.array_split(order, self.n_splits)
        for i in range(self.n_splits):
            validation = folds[i]
            train = np.concatenate([folds[j] for j in range(self.n_splits) if j != i])
            yield train, validation


@dataclass(frozen=True)
class CrossValidationResult:
    """K-fold cross-validation MAE summary.

    Attributes:
        fold_maes: Per-fold validation MAE.
        mean_mae: Mean of the per-fold MAEs (the paper's "K-fold MAE").
        std_mae: Standard deviation of the per-fold MAEs (the "+-" column).
    """

    fold_maes: Tuple[float, ...]
    mean_mae: float
    std_mae: float


def cross_validate_mae(model_factory: Callable[[], object], features, targets,
                       n_splits: int = 5,
                       rng: Optional[np.random.Generator] = None
                       ) -> CrossValidationResult:
    """Run k-fold cross validation and report the validation MAE.

    Args:
        model_factory: Zero-argument callable returning a fresh, unfitted
            model exposing ``fit(X, y)`` and ``predict(X)``.
        features: Sample matrix.
        targets: Target values.
        n_splits: Number of folds.
        rng: Random generator for the fold shuffle.
    """
    matrix = as_matrix(features)
    target = np.asarray(targets, dtype=float).ravel()
    splitter = KFold(n_splits=n_splits, rng=rng)
    maes: List[float] = []
    for train_index, validation_index in splitter.split(matrix.shape[0]):
        model = model_factory()
        model.fit(matrix[train_index], target[train_index])
        predictions = model.predict(matrix[validation_index])
        maes.append(mean_absolute_error(target[validation_index], predictions))
    values = np.asarray(maes)
    return CrossValidationResult(fold_maes=tuple(values.tolist()),
                                 mean_mae=float(values.mean()),
                                 std_mae=float(values.std(ddof=1)) if len(values) > 1 else 0.0)


@dataclass(frozen=True)
class GridSearchResult:
    """Outcome of an SVR hyperparameter grid search.

    Attributes:
        best_C: Selected penalty parameter.
        best_epsilon: Selected epsilon-tube width.
        best_mae: Cross-validation MAE of the selected configuration.
        results: ``((C, epsilon), mae)`` for every grid point.
    """

    best_C: float
    best_epsilon: float
    best_mae: float
    results: Tuple[Tuple[Tuple[float, float], float], ...]


def grid_search_svr(features, targets, kernel: str = "rbf",
                    C_grid: Sequence[float] = PAPER_C_GRID,
                    epsilon_grid: Sequence[float] = PAPER_EPSILON_GRID,
                    n_splits: int = 5, degree: int = 2,
                    gamma: Optional[float] = None,
                    rng: Optional[np.random.Generator] = None) -> GridSearchResult:
    """Grid-search SVR hyperparameters by k-fold cross-validation MAE.

    The default grids are exactly the paper's.
    """
    if not C_grid or not epsilon_grid:
        raise DataError("hyperparameter grids must be non-empty")
    generator = rng if rng is not None else np.random.default_rng(0)
    results: List[Tuple[Tuple[float, float], float]] = []
    best: Optional[Tuple[float, float, float]] = None
    for c_value in C_grid:
        for epsilon in epsilon_grid:
            fold_rng = np.random.default_rng(generator.integers(0, 2 ** 31 - 1))
            outcome = cross_validate_mae(
                lambda c=c_value, e=epsilon: SVR(kernel=kernel, C=c, epsilon=e,
                                                 degree=degree, gamma=gamma),
                features, targets, n_splits=n_splits, rng=fold_rng)
            results.append((((float(c_value), float(epsilon))), outcome.mean_mae))
            if best is None or outcome.mean_mae < best[2]:
                best = (float(c_value), float(epsilon), outcome.mean_mae)
    assert best is not None
    return GridSearchResult(best_C=best[0], best_epsilon=best[1], best_mae=best[2],
                            results=tuple(results))


#: The kernel of each SVR estimator a model spec may name.
SVR_KERNELS: Dict[str, str] = {"svr_poly": "poly", "svr_rbf": "rbf"}


class NoTransform:
    """The transform of a model fitted on its raw features."""

    def fit(self, features) -> "NoTransform":
        return self

    def transform(self, features):
        return features


@dataclass(frozen=True)
class RegressionEvaluation:
    """One row of Table II or Table IV.

    Attributes:
        spec: The evaluated model's configuration.
        kfold_mae: Mean k-fold cross-validation MAE (seconds).
        kfold_mae_std: Standard deviation across folds.
        test_mae: MAE on the held-out test split (seconds).
        test_mape: MAPE on the held-out test split (percent).
    """

    spec: Any
    kfold_mae: float
    kfold_mae_std: float
    test_mae: float
    test_mape: float


class RegressionPredictor:
    """One Table II or Table IV model: a fitted feature transform, then an estimator.

    A subclass names the values its ``spec`` may take (``feature_modes``,
    ``estimators``) and its prediction ``floor``, and supplies two hooks:
    ``_dataset(measurements)`` returns the raw features and targets of the
    measurements the model fits on, and ``_make_transform()`` a fresh,
    unfitted transform whose ``fit`` returns itself.
    """

    feature_modes: Tuple[str, ...] = ()
    estimators: Tuple[str, ...] = ()
    #: Smallest prediction (seconds), so tiny extrapolations never go negative.
    floor = 0.0

    def __init__(self, spec, svr_C: float, svr_epsilon: float):
        if spec.feature_mode not in self.feature_modes:
            raise ModelingError(f"unknown feature mode {spec.feature_mode!r}")
        if spec.estimator not in self.estimators:
            raise ModelingError(f"unknown estimator {spec.estimator!r}")
        self.spec = spec
        self.svr_C = svr_C
        self.svr_epsilon = svr_epsilon
        self._make_estimator()  # a non-positive C or a negative epsilon fails here
        self._transform = self._model = None

    def _make_estimator(self):
        if self.spec.estimator == "linear":
            return LinearRegression()
        return SVR(kernel=SVR_KERNELS[self.spec.estimator], C=self.svr_C,
                   epsilon=self.svr_epsilon, degree=2)

    def _fitted_features(self, measurements) -> Tuple[Any, np.ndarray, np.ndarray]:
        """A transform fitted on the measurements, their features and targets."""
        features, targets = self._dataset(measurements)
        if len(targets) < 3:
            raise DataError(f"need at least three measurements to fit a "
                            f"{type(self).__name__}")
        transform = self._make_transform().fit(features)
        return transform, transform.transform(features), targets

    def fit(self, measurements) -> "RegressionPredictor":
        """Fit the transform, then the estimator, on the measurements."""
        transform, features, targets = self._fitted_features(measurements)
        self._model = self._make_estimator().fit(features, targets)
        self._transform = transform
        return self

    def _check_fitted(self) -> None:
        if self._model is None:
            raise NotFittedError(f"{type(self).__name__} must be fitted before predicting")

    def _predict(self, raw: np.ndarray) -> float:
        """The floored prediction for one row of raw features."""
        self._check_fitted()
        return max(self.floor, float(self._model.predict(self._transform.transform(raw))[0]))

    def evaluate(self, measurements, test_fraction: float = 0.2, n_splits: int = 5,
                 seed: int = 0) -> RegressionEvaluation:
        """Evaluate with the paper's protocol: a 4:1 split, a transform fitted
        on the training part, k-fold CV MAE there, then test MAE and MAPE."""
        features, targets = self._dataset(measurements)
        rng = np.random.default_rng(seed)
        train_x, test_x, train_y, test_y = train_test_split(
            features, targets, test_fraction=test_fraction, rng=rng)
        transform = self._make_transform().fit(train_x)
        train_x, test_x = transform.transform(train_x), transform.transform(test_x)
        cv = cross_validate_mae(self._make_estimator, train_x, train_y,
                                n_splits=min(n_splits, len(train_y)), rng=rng)
        predictions = self._make_estimator().fit(train_x, train_y).predict(test_x)
        return RegressionEvaluation(self.spec, cv.mean_mae, cv.std_mae,
                                    mean_absolute_error(test_y, predictions),
                                    mean_absolute_percentage_error(test_y, predictions))


def build_models(predictor_type: type, specs: Sequence[Any], measurements,
                 use_grid_search: bool = False, seed: int = 0) -> Dict[str, RegressionPredictor]:
    """Fit one ``predictor_type`` per spec, keyed by the spec's name.

    With ``use_grid_search`` each SVR's ``C`` and epsilon come from :func:`grid_search_svr`
    (seeded by ``seed``) on the features that SVR is fitted on, else from its defaults.
    """
    models: Dict[str, RegressionPredictor] = {}
    for spec in specs:
        predictor = predictor_type(spec)
        if use_grid_search and spec.estimator in SVR_KERNELS:
            _, features, targets = predictor._fitted_features(measurements)
            best = grid_search_svr(features, targets, SVR_KERNELS[spec.estimator],
                                   rng=np.random.default_rng(seed))
            predictor = predictor_type(spec, svr_C=best.best_C,
                                       svr_epsilon=best.best_epsilon)
        models[spec.name] = predictor.fit(measurements)
    return models
