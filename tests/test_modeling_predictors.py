"""Tests for the Table II / Table IV predictors and cluster-speed composition."""

import numpy as np
import pytest

from repro.errors import DataError, ModelingError, NotFittedError
from repro.modeling import checkpoint_predictor, model_selection, speed_predictor
from repro.modeling.checkpoint_predictor import (
    TABLE4_MODEL_SPECS,
    CheckpointTimePredictor,
    build_table4_models,
    evaluate_table4_models,
)
from repro.modeling.linear import LinearRegression
from repro.modeling.model_selection import GridSearchResult
from repro.modeling.preprocessing import PCA, MinMaxScaler
from repro.modeling.speed_predictor import (
    TABLE2_MODEL_SPECS,
    ClusterSpeedPredictor,
    StepTimeModelSpec,
    StepTimePredictor,
    build_table2_models,
    evaluate_table2_models,
)
from repro.modeling.svr import SVR
from repro.perf.ps_capacity import PSCapacityModel

from oracles import protocol_row

_MB = 1024.0 * 1024.0
_KERNELS = {"svr_poly": "poly", "svr_rbf": "rbf"}


@pytest.fixture(scope="module")
def speed_measurements(speed_dataset):
    return speed_dataset.measurements()


@pytest.fixture(scope="module")
def checkpoint_measurements(checkpoint_dataset):
    return checkpoint_dataset.measurements()


@pytest.fixture(scope="module")
def checkpoint_subset(checkpoint_measurements):
    """Every fourth checkpoint measurement: Table IV's SVR fits in ~80
    samples dominate its evaluation time on the full dataset."""
    return checkpoint_measurements[::4]


@pytest.fixture(scope="module")
def table2_rows(speed_measurements):
    return evaluate_table2_models(speed_measurements, seed=3)


def _estimator(spec, module):
    """A fresh-estimator factory for ``spec``, with ``module``'s SVR defaults."""
    if spec.estimator == "linear":
        return LinearRegression
    return lambda: SVR(kernel=_KERNELS[spec.estimator], C=module.DEFAULT_SVR_C,
                       epsilon=module.DEFAULT_SVR_EPSILON, degree=2)


def _table2_dataset(spec, measurements):
    chosen = [m for m in measurements if spec.gpu_name in (None, m.gpu_name)]
    gflops = np.array([m.model_gflops for m in chosen])
    teraflops = np.array([m.gpu_teraflops for m in chosen])
    columns = {"cnorm": [gflops / teraflops], "cm_cgpu": [gflops, teraflops],
               "cm": [gflops]}[spec.feature_mode]
    return np.column_stack(columns), np.array([m.step_time for m in chosen])


def _table4_dataset(spec, measurements):
    data, meta, index, total = (np.array([getattr(m, name) for m in measurements]) / _MB
                                for name in ("data_bytes", "meta_bytes", "index_bytes",
                                             "total_bytes"))
    columns = {"sc": [total], "sd_sm": [data, meta],
               "pca": [data, meta, index]}[spec.feature_mode]
    return np.column_stack(columns), np.array([m.duration for m in measurements])


def test_table2_has_eight_models():
    assert len(TABLE2_MODEL_SPECS) == 8
    gpu_specific = [s for s in TABLE2_MODEL_SPECS if s.gpu_name is not None]
    assert len(gpu_specific) == 6
    assert {s.gpu_name for s in gpu_specific} == {"k80", "p100"}


def test_gpu_specific_predictor_accuracy(speed_measurements, catalog):
    truth = {m.model_name: m.step_time for m in speed_measurements
             if m.gpu_name == "k80"}
    # The linear K80 model lands within the paper's reported MAE band
    # (~0.065 s) on the named models; the SVR-RBF variant fits the small
    # models noticeably better, as in Table II.
    linear = StepTimePredictor(
        StepTimeModelSpec("Univariate, K80", "cm", "linear", "k80")).fit(speed_measurements)
    svr = StepTimePredictor(
        StepTimeModelSpec("SVR RBF Kernel, K80", "cm", "svr_rbf", "k80")).fit(speed_measurements)
    for name in ("resnet_15", "resnet_32", "shake_shake_big"):
        gflops = catalog.profile(name).gflops
        assert abs(linear.predict_step_time(gflops, "k80") - truth[name]) < 0.10
        assert abs(svr.predict_step_time(gflops, "k80") - truth[name]) < 0.06


def test_svr_rbf_beats_gpu_agnostic_multivariate(table2_rows):
    rows = {row.spec.name: row for row in table2_rows}
    assert rows["SVR RBF Kernel, K80"].test_mae < rows["Multivariate, GPU-agnostic"].test_mae
    # The paper's headline: GPU-specific SVR-RBF reaches ~9% MAPE; allow slack
    # for the smaller simulated dataset.
    assert rows["SVR RBF Kernel, K80"].test_mape < 25.0


def test_gpu_specific_models_reject_other_gpus(speed_measurements, catalog):
    spec = StepTimeModelSpec("Univariate, K80", "cm", "linear", "k80")
    predictor = StepTimePredictor(spec).fit(speed_measurements)
    with pytest.raises(ModelingError):
        predictor.predict_step_time(catalog.profile("resnet_15").gflops, "p100")


def test_predictor_requires_fit(catalog):
    spec = StepTimeModelSpec("Univariate, K80", "cm", "linear", "k80")
    with pytest.raises(NotFittedError):
        StepTimePredictor(spec).predict_step_time(1.0, "k80")


def test_predictor_rejects_unknown_modes():
    with pytest.raises(ModelingError):
        StepTimePredictor(StepTimeModelSpec("x", "bad", "linear", None))
    with pytest.raises(ModelingError):
        StepTimePredictor(StepTimeModelSpec("x", "cm", "bad", None))
    with pytest.raises(ModelingError):
        StepTimePredictor(TABLE2_MODEL_SPECS[3], svr_C=0.0)


def test_predictor_requires_enough_data(speed_measurements):
    spec = StepTimeModelSpec("Univariate, K80", "cm", "linear", "k80")
    with pytest.raises(DataError):
        StepTimePredictor(spec).fit(speed_measurements[:2])


def test_build_table2_models_predict_speeds(speed_measurements, catalog):
    models = build_table2_models(speed_measurements)
    assert set(models) == {spec.name for spec in TABLE2_MODEL_SPECS}
    gflops = catalog.profile("resnet_32").gflops
    agnostic = models["Univariate, GPU-agnostic"].predict_speed(gflops, "k80")
    specific = models["Univariate, K80"].predict_speed(gflops, "k80")
    assert agnostic > 0 and specific > 0


def test_cluster_speed_predictor_sums_workers(speed_measurements, catalog):
    models = build_table2_models(speed_measurements)
    predictor = ClusterSpeedPredictor(
        per_gpu_predictors={"k80": models["SVR RBF Kernel, K80"],
                            "p100": models["SVR RBF Kernel, P100"]},
        step_time_predictor=models["Univariate, GPU-agnostic"])
    gflops = catalog.profile("resnet_32").gflops
    speeds = predictor.predict_worker_speeds(gflops, ["k80", "k80", "p100"])
    assert len(speeds) == 3
    assert predictor.predict_cluster_speed(gflops, ["k80", "k80", "p100"]) == pytest.approx(
        sum(speeds))
    # Heterogeneous-cluster prediction: K80 + P100 speed sits between the two
    # homogeneous two-worker clusters.
    hetero = predictor.predict_cluster_speed(gflops, ["k80", "p100"])
    assert (predictor.predict_cluster_speed(gflops, ["k80", "k80"]) < hetero
            < predictor.predict_cluster_speed(gflops, ["p100", "p100"]))


def test_cluster_speed_predictor_with_ps_bottleneck(speed_measurements, catalog):
    models = build_table2_models(speed_measurements)
    predictor = ClusterSpeedPredictor(
        step_time_predictor=models["Univariate, GPU-agnostic"],
        per_gpu_predictors={"p100": models["SVR RBF Kernel, P100"]},
        ps_capacity_model=PSCapacityModel())
    profile = catalog.profile("resnet_32")
    plain = predictor.predict_cluster_speed(profile.gflops, ["p100"] * 8)
    capped = predictor.predict_with_ps_bottleneck(profile.gflops, ["p100"] * 8,
                                                  profile.parameter_bytes)
    assert capped < plain


def test_cluster_speed_predictor_validation(speed_measurements):
    with pytest.raises(ModelingError):
        ClusterSpeedPredictor()
    models = build_table2_models(speed_measurements)
    predictor = ClusterSpeedPredictor(step_time_predictor=models["Univariate, GPU-agnostic"])
    with pytest.raises(ModelingError):
        predictor.predict_cluster_speed(1.0, [])
    with pytest.raises(ModelingError):
        predictor.predict_with_ps_bottleneck(1.0, ["k80"], 1024)


def test_table4_has_four_models():
    assert len(TABLE4_MODEL_SPECS) == 4
    assert TABLE4_MODEL_SPECS[-1].estimator == "svr_rbf"


def test_checkpoint_predictors_fit_and_predict(checkpoint_measurements, catalog):
    models = build_table4_models(checkpoint_measurements)
    files = catalog.profile("resnet_32").checkpoint
    for name, model in models.items():
        predicted = model.predict_time(files)
        # Ground truth for ResNet-32 is ~3.84 s.
        assert predicted == pytest.approx(3.84, rel=0.4), name


def test_checkpoint_evaluation_rows(checkpoint_measurements):
    rows = evaluate_table4_models(checkpoint_measurements, seed=1)
    assert len(rows) == 4
    for row in rows:
        assert row.kfold_mae >= 0
        assert row.test_mae >= 0
    by_name = {row.spec.name: row for row in rows}
    # The headline claim: the checkpoint models predict within a few percent;
    # the univariate linear model is already good because the ground truth is
    # linear in checkpoint size.
    assert by_name["Univariate"].test_mape < 20.0


def test_checkpoint_predictor_validation(checkpoint_measurements, catalog):
    with pytest.raises(ModelingError):
        CheckpointTimePredictor(TABLE4_MODEL_SPECS[0].__class__("x", "bad", "linear"))
    with pytest.raises(ModelingError):
        CheckpointTimePredictor(TABLE4_MODEL_SPECS[-1], svr_epsilon=-0.1)
    with pytest.raises(NotFittedError):
        CheckpointTimePredictor(TABLE4_MODEL_SPECS[0]).predict_time(
            catalog.profile("resnet_15").checkpoint)
    with pytest.raises(DataError):
        CheckpointTimePredictor(TABLE4_MODEL_SPECS[0]).fit(checkpoint_measurements[:2])


def test_table2_rows_follow_the_protocol_step_by_step(speed_measurements, table2_rows):
    assert [row.spec for row in table2_rows] == list(TABLE2_MODEL_SPECS)
    for row in table2_rows:
        features, targets = _table2_dataset(row.spec, speed_measurements)
        expected = protocol_row(features, targets, MinMaxScaler(),
                                _estimator(row.spec, speed_predictor), seed=3)
        assert (row.kfold_mae, row.kfold_mae_std, row.test_mae, row.test_mape) == expected, \
            row.spec.name


def test_table4_rows_follow_the_protocol_step_by_step(checkpoint_subset):
    rows = evaluate_table4_models(checkpoint_subset, seed=2)
    assert [row.spec for row in rows] == list(TABLE4_MODEL_SPECS)
    for row in rows:
        features, targets = _table4_dataset(row.spec, checkpoint_subset)
        transform = PCA(n_components=2) if row.spec.feature_mode == "pca" else None
        expected = protocol_row(features, targets, transform,
                                _estimator(row.spec, checkpoint_predictor), seed=2)
        assert (row.kfold_mae, row.kfold_mae_std, row.test_mae, row.test_mape) == expected, \
            row.spec.name


def _stub_grid_search(monkeypatch):
    """Replace the builders' grid search by a recorder answering C=30, epsilon=0.07."""
    calls = []

    def grid_search_svr(features, targets, kernel, rng):
        calls.append((features, targets, kernel, rng.integers(2 ** 31)))
        return GridSearchResult(best_C=30.0, best_epsilon=0.07, best_mae=0.0, results=())

    monkeypatch.setattr(model_selection, "grid_search_svr", grid_search_svr)
    return calls


def test_table2_grid_search_tunes_each_svr_on_its_scaled_gflops(monkeypatch,
                                                                speed_measurements, catalog):
    calls = _stub_grid_search(monkeypatch)
    models = build_table2_models(speed_measurements, use_grid_search=True, seed=4)
    svr_specs = [spec for spec in TABLE2_MODEL_SPECS if spec.estimator in _KERNELS]
    assert len(calls) == len(svr_specs) == 4
    gflops = catalog.profile("resnet_32").gflops
    for spec, (features, targets, kernel, draw) in zip(svr_specs, calls):
        chosen = [m for m in speed_measurements if m.gpu_name == spec.gpu_name]
        scaled = MinMaxScaler().fit_transform(np.array([[m.model_gflops] for m in chosen]))
        np.testing.assert_array_equal(features, scaled)
        np.testing.assert_array_equal(targets, [m.step_time for m in chosen])
        assert kernel == _KERNELS[spec.estimator]
        assert draw == np.random.default_rng(4).integers(2 ** 31)
        model = models[spec.name]
        assert (model.svr_C, model.svr_epsilon) == (30.0, 0.07)
        tuned = StepTimePredictor(spec, svr_C=30.0, svr_epsilon=0.07).fit(speed_measurements)
        assert (model.predict_step_time(gflops, spec.gpu_name)
                == tuned.predict_step_time(gflops, spec.gpu_name))
    for spec in TABLE2_MODEL_SPECS:
        if spec.estimator == "linear":
            assert (models[spec.name].svr_C, models[spec.name].svr_epsilon) == (
                speed_predictor.DEFAULT_SVR_C, speed_predictor.DEFAULT_SVR_EPSILON)


def test_table4_grid_search_tunes_the_svr_on_total_megabytes(monkeypatch,
                                                             checkpoint_subset, catalog):
    calls = _stub_grid_search(monkeypatch)
    models = build_table4_models(checkpoint_subset, use_grid_search=True, seed=4)
    assert len(calls) == 1
    features, targets, kernel, draw = calls[0]
    np.testing.assert_array_equal(
        features, np.array([[m.total_bytes / _MB] for m in checkpoint_subset]))
    np.testing.assert_array_equal(targets, [m.duration for m in checkpoint_subset])
    assert kernel == "rbf"
    assert draw == np.random.default_rng(4).integers(2 ** 31)
    spec = TABLE4_MODEL_SPECS[-1]
    model = models[spec.name]
    assert (model.svr_C, model.svr_epsilon) == (30.0, 0.07)
    files = catalog.profile("resnet_32").checkpoint
    tuned = CheckpointTimePredictor(spec, svr_C=30.0, svr_epsilon=0.07).fit(checkpoint_subset)
    assert model.predict_time(files) == tuned.predict_time(files)
    for spec in TABLE4_MODEL_SPECS[:-1]:
        assert (models[spec.name].svr_C, models[spec.name].svr_epsilon) == (
            checkpoint_predictor.DEFAULT_SVR_C, checkpoint_predictor.DEFAULT_SVR_EPSILON)
