"""Epsilon-insensitive support vector regression (from scratch).

The paper evaluates SVR with two-degree polynomial and RBF kernels for
step-time prediction (Table II) and with an RBF kernel for checkpoint-time
prediction (Table IV), tuning the penalty ``C`` (called ``p`` in the paper)
and the epsilon tube via grid search.

The implementation solves the standard epsilon-SVR dual problem

    minimize  0.5 * (a - a*)^T K (a - a*) + eps * sum(a + a*) - y^T (a - a*)
    subject to  sum(a - a*) = 0,   0 <= a, a* <= C

with SciPy's SLSQP solver, which is plenty for the paper's dataset sizes
(twenty models).  Lagrange multipliers, support vectors, and the intercept
are exposed for inspection.
"""

from __future__ import annotations

from typing import Callable, Optional

import numpy as np

from repro.errors import DataError, ModelingError, NotFittedError
from repro.modeling.kernels import linear_kernel, polynomial_kernel, rbf_kernel
from repro.modeling.preprocessing import as_matrix


def _make_kernel(kernel: str, degree: int, gamma: Optional[float],
                 coef0: float) -> Callable[[np.ndarray, np.ndarray], np.ndarray]:
    name = kernel.lower()
    if name == "linear":
        return linear_kernel
    if name in ("poly", "polynomial"):
        return lambda a, b: polynomial_kernel(a, b, degree=degree,
                                              gamma=gamma if gamma else 1.0,
                                              coef0=coef0)
    if name == "rbf":
        return lambda a, b: rbf_kernel(a, b, gamma=gamma if gamma else 1.0)
    raise ModelingError(f"unknown kernel {kernel!r}; use 'linear', 'poly', or 'rbf'")


class SVR:
    """Epsilon-insensitive support vector regression.

    Args:
        kernel: ``"linear"``, ``"poly"``, or ``"rbf"``.
        C: Penalty parameter (the paper's ``p``), searched over [10, 100].
        epsilon: Width of the insensitive tube, searched over [0.01, 0.1].
        gamma: Kernel coefficient.  ``None`` selects ``1 / (n_features *
            Var(X))`` ("scale"), matching common practice.
        degree: Degree of the polynomial kernel (2 in the paper).
        coef0: Independent term of the polynomial kernel.
    """

    def __init__(self, kernel: str = "rbf", C: float = 10.0, epsilon: float = 0.05,
                 gamma: Optional[float] = None, degree: int = 2, coef0: float = 1.0):
        if C <= 0:
            raise ModelingError("C must be positive")
        if epsilon < 0:
            raise ModelingError("epsilon must be non-negative")
        self.kernel = kernel
        self.C = float(C)
        self.epsilon = float(epsilon)
        self.gamma = gamma
        self.degree = degree
        self.coef0 = coef0
        # Fitted state.
        self.support_vectors_: Optional[np.ndarray] = None
        self.dual_coef_: Optional[np.ndarray] = None
        self.intercept_: Optional[float] = None
        self._gamma_value: Optional[float] = None

    # ------------------------------------------------------------------
    # Internal helpers.
    # ------------------------------------------------------------------
    def _resolve_gamma(self, matrix: np.ndarray) -> float:
        if self.gamma is not None:
            return float(self.gamma)
        variance = matrix.var()
        if variance <= 0:
            variance = 1.0
        return 1.0 / (matrix.shape[1] * variance)

    # ------------------------------------------------------------------
    # Fitting.
    # ------------------------------------------------------------------
    def fit(self, features, targets) -> "SVR":
        """Fit the SVR by solving the dual quadratic program."""
        # Imported here: fleet and serve processes load this module through
        # repro.modeling but never fit, and importing scipy would more than
        # double their start-up time and memory.
        from scipy.optimize import minimize

        matrix = as_matrix(features)
        target = np.asarray(targets, dtype=float).ravel()
        if matrix.shape[0] != target.shape[0]:
            raise DataError("features and targets must have the same length")
        if matrix.shape[0] < 2:
            raise DataError("SVR needs at least two samples")
        n = matrix.shape[0]
        self._gamma_value = self._resolve_gamma(matrix)
        kernel_fn = _make_kernel(self.kernel, self.degree, self._gamma_value, self.coef0)
        gram = kernel_fn(matrix, matrix)
        # Guard against slight asymmetry from floating point.
        gram = 0.5 * (gram + gram.T) + 1e-10 * np.eye(n)

        def objective(variables: np.ndarray) -> float:
            alpha, alpha_star = variables[:n], variables[n:]
            beta = alpha - alpha_star
            return float(0.5 * beta @ gram @ beta
                         + self.epsilon * np.sum(alpha + alpha_star)
                         - target @ beta)

        def gradient(variables: np.ndarray) -> np.ndarray:
            alpha, alpha_star = variables[:n], variables[n:]
            beta = alpha - alpha_star
            common = gram @ beta
            grad_alpha = common + self.epsilon - target
            grad_alpha_star = -common + self.epsilon + target
            return np.concatenate([grad_alpha, grad_alpha_star])

        constraints = [{
            "type": "eq",
            "fun": lambda v: np.sum(v[:n]) - np.sum(v[n:]),
            "jac": lambda v: np.concatenate([np.ones(n), -np.ones(n)]),
        }]
        bounds = [(0.0, self.C)] * (2 * n)
        initial = np.zeros(2 * n)
        result = minimize(objective, initial, jac=gradient, bounds=bounds,
                          constraints=constraints, method="SLSQP",
                          options={"maxiter": 500, "ftol": 1e-9})
        if not result.success and not np.isfinite(result.fun):
            raise ModelingError(f"SVR dual optimization failed: {result.message}")
        alpha, alpha_star = result.x[:n], result.x[n:]
        beta = alpha - alpha_star

        self.support_vectors_ = matrix
        self.dual_coef_ = beta
        self.intercept_ = self._compute_intercept(gram, target, alpha, alpha_star, beta)
        return self

    def _compute_intercept(self, gram: np.ndarray, target: np.ndarray,
                           alpha: np.ndarray, alpha_star: np.ndarray,
                           beta: np.ndarray) -> float:
        decision = gram @ beta
        tolerance = 1e-6 * self.C
        estimates = []
        free_alpha = (alpha > tolerance) & (alpha < self.C - tolerance)
        free_alpha_star = (alpha_star > tolerance) & (alpha_star < self.C - tolerance)
        estimates.extend(target[free_alpha] - decision[free_alpha] - self.epsilon)
        estimates.extend(target[free_alpha_star] - decision[free_alpha_star] + self.epsilon)
        if estimates:
            return float(np.mean(estimates))
        # Fall back to the unconstrained least-squares intercept.
        return float(np.mean(target - decision))

    # ------------------------------------------------------------------
    # Prediction.
    # ------------------------------------------------------------------
    def predict(self, features) -> np.ndarray:
        """Predict targets for new samples."""
        if (self.support_vectors_ is None or self.dual_coef_ is None
                or self.intercept_ is None):
            raise NotFittedError("SVR must be fitted before predict")
        matrix = as_matrix(features)
        if matrix.shape[1] != self.support_vectors_.shape[1]:
            raise DataError("feature count differs from the fitted data")
        kernel_fn = _make_kernel(self.kernel, self.degree, self._gamma_value, self.coef0)
        gram = kernel_fn(matrix, self.support_vectors_)
        return gram @ self.dual_coef_ + self.intercept_

    @property
    def n_support_(self) -> int:
        """Number of support vectors (non-zero dual coefficients)."""
        if self.dual_coef_ is None:
            raise NotFittedError("SVR must be fitted first")
        return int(np.sum(np.abs(self.dual_coef_) > 1e-8))

    def score_mae(self, features, targets) -> float:
        """Mean absolute error on the given samples."""
        from repro.modeling.metrics import mean_absolute_error

        return mean_absolute_error(targets, self.predict(features))
