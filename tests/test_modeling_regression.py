"""Tests for linear regression, kernels, SVR, and model selection."""

import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from repro.errors import DataError, ModelingError, NotFittedError
from repro.modeling.kernels import linear_kernel, polynomial_kernel, rbf_kernel
from repro.modeling.linear import LinearRegression
from repro.modeling.metrics import mean_absolute_error
from repro.modeling.model_selection import (
    KFold,
    PAPER_C_GRID,
    PAPER_EPSILON_GRID,
    cross_validate_mae,
    grid_search_svr,
    train_test_split,
)
from repro.modeling.svr import SVR


def test_linear_regression_exact_fit():
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = 2.0 * x.ravel() + 1.0
    model = LinearRegression().fit(x, y)
    assert model.coef_[0] == pytest.approx(2.0)
    assert model.intercept_ == pytest.approx(1.0)
    assert model.predict([[10.0]])[0] == pytest.approx(21.0)
    assert model.score_mae(x, y) == pytest.approx(0.0, abs=1e-10)


def test_linear_regression_multivariate():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(50, 2))
    y = 3.0 * x[:, 0] - 1.5 * x[:, 1] + 0.5
    model = LinearRegression().fit(x, y)
    assert np.allclose(model.coef_, [3.0, -1.5], atol=1e-8)


def test_linear_regression_validation():
    with pytest.raises(NotFittedError):
        LinearRegression().predict([[1.0]])
    with pytest.raises(DataError):
        LinearRegression().fit([[1.0], [2.0]], [1.0])
    with pytest.raises(DataError):
        LinearRegression().fit([[1.0, 2.0]], [1.0])
    model = LinearRegression().fit([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0])
    with pytest.raises(DataError):
        model.predict([[1.0, 2.0]])


def test_kernels_basic_properties():
    a = np.array([[1.0, 0.0], [0.0, 1.0]])
    assert np.allclose(linear_kernel(a, a), a @ a.T)
    poly = polynomial_kernel(a, a, degree=2, coef0=1.0, gamma=1.0)
    assert poly[0, 0] == pytest.approx(4.0)
    rbf = rbf_kernel(a, a, gamma=0.5)
    assert np.allclose(np.diag(rbf), 1.0)
    assert rbf[0, 1] == pytest.approx(np.exp(-1.0))
    with pytest.raises(DataError):
        rbf_kernel(a, a, gamma=0.0)
    with pytest.raises(DataError):
        polynomial_kernel(a, a, degree=0)


def test_svr_fits_linear_relationship():
    rng = np.random.default_rng(1)
    x = np.linspace(0, 1, 18).reshape(-1, 1)
    y = 0.4 + 1.1 * x.ravel() + 0.01 * rng.normal(size=18)
    for kernel in ("linear", "poly", "rbf"):
        model = SVR(kernel=kernel, C=50.0, epsilon=0.01).fit(x, y)
        assert mean_absolute_error(y, model.predict(x)) < 0.05, kernel
        assert model.n_support_ > 0


def test_svr_fits_nonlinear_better_with_rbf():
    x = np.linspace(0, 1, 20).reshape(-1, 1)
    y = np.sin(3 * x.ravel())
    linear_mae = SVR(kernel="linear", C=50, epsilon=0.01).fit(x, y).score_mae(x, y)
    rbf_mae = SVR(kernel="rbf", C=50, epsilon=0.01, gamma=10.0).fit(x, y).score_mae(x, y)
    assert rbf_mae < linear_mae


def test_svr_validation_and_errors():
    with pytest.raises(ModelingError):
        SVR(C=0.0)
    with pytest.raises(ModelingError):
        SVR(epsilon=-0.1)
    with pytest.raises(ModelingError):
        SVR(kernel="sigmoid").fit([[0.0], [1.0]], [0.0, 1.0])
    with pytest.raises(NotFittedError):
        SVR().predict([[1.0]])
    with pytest.raises(DataError):
        SVR().fit([[1.0]], [1.0])
    model = SVR().fit([[0.0], [1.0], [2.0]], [0.0, 1.0, 2.0])
    with pytest.raises(DataError):
        model.predict([[0.0, 1.0]])


def test_fleet_serve_and_telemetry_imports_leave_scipy_unloaded():
    """Only ``SVR.fit`` needs scipy.  Fleet, serve and telemetry processes
    import ``repro.modeling`` without fitting, so they must not load it."""
    script = ("import sys\n"
              "import repro.serve.cli, repro.scenarios.fleet, repro.telemetry\n"
              "print(sorted(name for name in sys.modules\n"
              "             if name.partition('.')[0] == 'scipy'))\n")
    src = str(pathlib.Path(__file__).parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, "-c", script], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "[]"


def test_train_test_split_ratio_and_determinism():
    x = np.arange(20).reshape(-1, 1)
    y = np.arange(20, dtype=float)
    rng = np.random.default_rng(0)
    train_x, test_x, train_y, test_y = train_test_split(x, y, 0.2, rng)
    assert len(test_x) == 4 and len(train_x) == 16
    assert set(train_y) | set(test_y) == set(y)
    again = train_test_split(x, y, 0.2, np.random.default_rng(0))
    assert np.allclose(again[1], test_x)
    with pytest.raises(DataError):
        train_test_split(x, y, 1.5)


def test_kfold_covers_all_samples_once():
    splitter = KFold(n_splits=5, rng=np.random.default_rng(0))
    seen = []
    for train_idx, val_idx in splitter.split(23):
        assert set(train_idx) & set(val_idx) == set()
        seen.extend(val_idx.tolist())
    assert sorted(seen) == list(range(23))
    with pytest.raises(DataError):
        KFold(n_splits=1)
    with pytest.raises(DataError):
        list(KFold(n_splits=10).split(5))


def test_cross_validate_mae_reasonable():
    x = np.linspace(0, 1, 20).reshape(-1, 1)
    y = 2.0 * x.ravel() + 0.5
    result = cross_validate_mae(LinearRegression, x, y, n_splits=5,
                                rng=np.random.default_rng(0))
    assert result.mean_mae < 1e-6
    assert len(result.fold_maes) == 5


def test_paper_grids_match_section_iii():
    assert PAPER_C_GRID == tuple(float(c) for c in range(10, 101, 10))
    assert PAPER_EPSILON_GRID[0] == 0.01
    assert PAPER_EPSILON_GRID[-1] == 0.1
    assert len(PAPER_EPSILON_GRID) == 10


def test_grid_search_selects_low_mae_configuration():
    rng = np.random.default_rng(2)
    x = np.linspace(0, 1, 16).reshape(-1, 1)
    y = 0.2 + 0.8 * x.ravel() + 0.02 * rng.normal(size=16)
    result = grid_search_svr(x, y, kernel="rbf", C_grid=(10.0, 100.0),
                             epsilon_grid=(0.01, 0.1), n_splits=4,
                             rng=np.random.default_rng(0))
    assert result.best_C in (10.0, 100.0)
    assert result.best_epsilon in (0.01, 0.1)
    assert len(result.results) == 4
    assert result.best_mae == min(mae for _, mae in result.results)
    with pytest.raises(DataError):
        grid_search_svr(x, y, C_grid=(), epsilon_grid=(0.01,))
