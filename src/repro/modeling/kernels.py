"""Kernel functions for support vector regression.

The paper's GPU-specific SVR models use a two-degree polynomial kernel and
an RBF kernel (Section III-B, Eqs. 2-3); the checkpoint model uses the RBF
kernel (Section IV-C).
"""

from __future__ import annotations

import numpy as np

from repro.errors import DataError
from repro.modeling.preprocessing import as_matrix


def linear_kernel(a, b) -> np.ndarray:
    """Plain dot-product kernel ``K(x, y) = x . y``."""
    left, right = as_matrix(a), as_matrix(b)
    return left @ right.T


def polynomial_kernel(a, b, degree: int = 2, coef0: float = 1.0,
                      gamma: float = 1.0) -> np.ndarray:
    """Polynomial kernel ``K(x, y) = (gamma * x . y + coef0) ** degree``.

    The paper uses a two-degree polynomial.
    """
    if degree < 1:
        raise DataError("degree must be >= 1")
    left, right = as_matrix(a), as_matrix(b)
    return (gamma * (left @ right.T) + coef0) ** degree


def rbf_kernel(a, b, gamma: float = 1.0) -> np.ndarray:
    """RBF kernel ``K(x, y) = exp(-gamma * ||x - y||^2)``.

    The paper parameterizes the RBF width as ``1 / (2 * sigma^2)``; ``gamma``
    plays that role here.
    """
    if gamma <= 0:
        raise DataError("gamma must be positive")
    left, right = as_matrix(a), as_matrix(b)
    left_sq = np.sum(left ** 2, axis=1)[:, None]
    right_sq = np.sum(right ** 2, axis=1)[None, :]
    squared_distance = np.maximum(0.0, left_sq + right_sq - 2.0 * (left @ right.T))
    return np.exp(-gamma * squared_distance)
