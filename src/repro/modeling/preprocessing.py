"""Feature preprocessing: min-max scaling, z-score standardization, PCA.

The paper normalizes its regression features with min-max normalization
(noting that z-score standardization is less appropriate because the data
is not Gaussian) and uses a two-component PCA to combine the three
checkpoint file sizes, whose index and meta components are highly
correlated.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import DataError, NotFittedError


def as_matrix(features) -> np.ndarray:
    """``features`` as a float matrix with one sample a row (a 1-D array is
    one feature); every estimator, kernel and transform coerces through it."""
    matrix = np.asarray(features, dtype=float)
    if matrix.ndim == 1:
        matrix = matrix.reshape(-1, 1)
    if matrix.ndim != 2:
        raise DataError("features must be a 1-D or 2-D array")
    return matrix


def _samples(features) -> np.ndarray:
    matrix = as_matrix(features)
    if matrix.shape[0] == 0:
        raise DataError("features must contain at least one sample")
    return matrix


class MinMaxScaler:
    """Min-max normalization to the [0, 1] range, fitted per feature."""

    def __init__(self) -> None:
        self.data_min_: Optional[np.ndarray] = None
        self.data_max_: Optional[np.ndarray] = None

    def fit(self, features) -> "MinMaxScaler":
        """Learn per-feature minima and maxima."""
        matrix = _samples(features)
        self.data_min_ = matrix.min(axis=0)
        self.data_max_ = matrix.max(axis=0)
        return self

    def transform(self, features) -> np.ndarray:
        """Scale features to [0, 1] using the fitted minima/maxima.

        Constant features map to 0.  Values outside the fitted range are
        allowed (and fall outside [0, 1]), which is what happens when the
        model is asked about a previously unobserved CNN.
        """
        if self.data_min_ is None or self.data_max_ is None:
            raise NotFittedError("MinMaxScaler must be fitted before transform")
        matrix = _samples(features)
        if matrix.shape[1] != self.data_min_.shape[0]:
            raise DataError("feature count differs from the fitted data")
        span = self.data_max_ - self.data_min_
        safe_span = np.where(span == 0, 1.0, span)
        return (matrix - self.data_min_) / safe_span

    def fit_transform(self, features) -> np.ndarray:
        """Fit and transform in one call."""
        return self.fit(features).transform(features)

    def inverse_transform(self, scaled) -> np.ndarray:
        """Map scaled values back to the original range."""
        if self.data_min_ is None or self.data_max_ is None:
            raise NotFittedError("MinMaxScaler must be fitted before inverse_transform")
        matrix = _samples(scaled)
        span = self.data_max_ - self.data_min_
        return matrix * span + self.data_min_


class StandardScaler:
    """Z-score standardization (kept for the paper's footnote comparison)."""

    def __init__(self) -> None:
        self.mean_: Optional[np.ndarray] = None
        self.scale_: Optional[np.ndarray] = None

    def fit(self, features) -> "StandardScaler":
        """Learn per-feature means and standard deviations."""
        matrix = _samples(features)
        self.mean_ = matrix.mean(axis=0)
        std = matrix.std(axis=0)
        self.scale_ = np.where(std == 0, 1.0, std)
        return self

    def transform(self, features) -> np.ndarray:
        """Standardize features with the fitted statistics."""
        if self.mean_ is None or self.scale_ is None:
            raise NotFittedError("StandardScaler must be fitted before transform")
        matrix = _samples(features)
        if matrix.shape[1] != self.mean_.shape[0]:
            raise DataError("feature count differs from the fitted data")
        return (matrix - self.mean_) / self.scale_

    def fit_transform(self, features) -> np.ndarray:
        """Fit and transform in one call."""
        return self.fit(features).transform(features)


class PCA:
    """Principal component analysis via singular value decomposition.

    Used by the Table IV checkpoint model to reduce the three correlated
    checkpoint file-size features to two components.

    Args:
        n_components: Number of principal components to keep.
    """

    def __init__(self, n_components: int = 2):
        if n_components < 1:
            raise DataError("n_components must be >= 1")
        self.n_components = n_components
        self.mean_: Optional[np.ndarray] = None
        self.components_: Optional[np.ndarray] = None
        self.explained_variance_: Optional[np.ndarray] = None
        self.explained_variance_ratio_: Optional[np.ndarray] = None

    def fit(self, features) -> "PCA":
        """Fit the principal components of the (centered) feature matrix."""
        matrix = _samples(features)
        if self.n_components > matrix.shape[1]:
            raise DataError("n_components cannot exceed the number of features")
        if matrix.shape[0] < 2:
            raise DataError("PCA needs at least two samples")
        self.mean_ = matrix.mean(axis=0)
        centered = matrix - self.mean_
        _u, singular_values, vt = np.linalg.svd(centered, full_matrices=False)
        variance = (singular_values ** 2) / (matrix.shape[0] - 1)
        self.components_ = vt[: self.n_components]
        self.explained_variance_ = variance[: self.n_components]
        total = variance.sum()
        self.explained_variance_ratio_ = (variance[: self.n_components] / total
                                          if total > 0 else np.zeros(self.n_components))
        return self

    def transform(self, features) -> np.ndarray:
        """Project features onto the fitted principal components."""
        if self.components_ is None or self.mean_ is None:
            raise NotFittedError("PCA must be fitted before transform")
        matrix = _samples(features)
        if matrix.shape[1] != self.mean_.shape[0]:
            raise DataError("feature count differs from the fitted data")
        return (matrix - self.mean_) @ self.components_.T

    def fit_transform(self, features) -> np.ndarray:
        """Fit and project in one call."""
        return self.fit(features).transform(features)
