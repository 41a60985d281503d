"""Ordinary least squares linear regression.

Covers the paper's univariate (``S = a * C + b``) and multivariate
(``S = a * Cm + b * Cgpu + c``) regression models.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import DataError, NotFittedError
from repro.modeling.preprocessing import as_matrix


class LinearRegression:
    """Least-squares linear regression with an intercept.

    Example:
        >>> model = LinearRegression().fit([[0.0], [1.0], [2.0]], [1.0, 3.0, 5.0])
        >>> round(model.predict([[3.0]])[0], 6)
        7.0
    """

    def __init__(self) -> None:
        self.coef_: Optional[np.ndarray] = None
        self.intercept_: Optional[float] = None

    def fit(self, features, targets) -> "LinearRegression":
        """Fit coefficients and intercept by least squares.

        Args:
            features: Sample matrix of shape ``(n_samples, n_features)`` (a
                1-D array is treated as a single feature).
            targets: Target values of shape ``(n_samples,)``.
        """
        matrix = as_matrix(features)
        target = np.asarray(targets, dtype=float).ravel()
        if matrix.shape[0] != target.shape[0]:
            raise DataError("features and targets must have the same length")
        if matrix.shape[0] < matrix.shape[1] + 1:
            raise DataError("not enough samples to fit the regression")
        design = np.hstack([matrix, np.ones((matrix.shape[0], 1))])
        solution, *_ = np.linalg.lstsq(design, target, rcond=None)
        self.coef_ = solution[:-1]
        self.intercept_ = float(solution[-1])
        return self

    def predict(self, features) -> np.ndarray:
        """Predict targets for new samples."""
        if self.coef_ is None or self.intercept_ is None:
            raise NotFittedError("LinearRegression must be fitted before predict")
        matrix = as_matrix(features)
        if matrix.shape[1] != self.coef_.shape[0]:
            raise DataError("feature count differs from the fitted data")
        return matrix @ self.coef_ + self.intercept_

    def score_mae(self, features, targets) -> float:
        """Mean absolute error on the given samples."""
        from repro.modeling.metrics import mean_absolute_error

        return mean_absolute_error(targets, self.predict(features))
