"""Document schemas (`repro.schema`).

Every field of a scenario spec, a placement query and a refit calibration
is declared once.  A bad value raises a ``ConfigurationError`` naming where
it sits, over the wire it is answered ``bad_request``, and a valid document
keeps its ``to_params()`` bytes.  Each escape below was once accepted
silently or escaped as a raw ``TypeError`` / ``ValueError`` /
``OverflowError`` / ``AttributeError``.
"""

import asyncio
import dataclasses
import json
import math
import pickle

import numpy as np
import pytest

from repro.cloud.revocation import (
    WEIBULL_LOG_SCALE_RANGE,
    WEIBULL_LOG_SHAPE_RANGE,
    RevocationCellParams,
)
from repro.errors import ConfigurationError
from repro.modeling.launch_advisor import LaunchAdvisor
from repro.modeling.placement import PlacementQuery
from repro.scenarios import (
    JobSpec,
    ScenarioSpec,
    apply_fleet_axes,
    build_fleet_spec,
    get_scenario,
    run_scenario,
)
from repro.scenarios.cli import main as scenarios_main
from repro.schema import Invalid, integer, real, sequence
from repro.serve.service import PlacementService
from repro.serve.transport import serve_address, start_server
from repro.telemetry.recalibrate import RecalibrationResult

NAN, INF = float("nan"), float("inf")


def scenario_document(**changes):
    """A one-job scenario document; ``changes`` patch the scenario, and
    ``job`` patches its job."""
    job = {"name": "a", "model_name": "resnet_15", "total_steps": 600,
           "workers": [["k80", "us-west1"]], "checkpoint_interval_steps": 500}
    job.update(changes.pop("job", {}))
    document = {"name": "tiny", "description": "one tiny job", "jobs": [job],
                "pool_capacity": {"k80/us-west1": 2}, "reclaim_seconds": 600.0,
                "epoch_hour_utc": 9.0, "poll_interval_seconds": 60.0}
    document.update(changes)
    return document


def recalibration_document(**changes):
    document = RecalibrationResult(
        calibration={("k80", "us-east1"): RevocationCellParams(0.6, 1.2, 6.0),
                     ("p100", "us-west1"): RevocationCellParams(0.5, 1.0, 7.0)},
        hourly_weights={"k80": tuple([1.0] * 24)},
        anchors={"k80": [(1.5, 0.2), (3.0, 0.35)]},
        noise_cov={"k80": 0.05},
        samples={"cell:k80:us-east1": {"draws": 40, "revocations": 24}},
    ).to_params()
    document.update(changes)
    return document


def every_cell(document, index, value):
    """``document``'s calibration with item ``index`` of every cell set."""
    cells = {}
    for key, values in document["calibration"].items():
        cells[key] = list(values)
        cells[key][index] = value
    return cells


# ---------------------------------------------------------------------------
# The kinds.
# ---------------------------------------------------------------------------
def test_numbers_take_numpy_scalars_but_never_bools_strings_or_non_finite_values():
    positive = real(gt=0.0, convert=float)
    assert positive(np.float32(0.5), "x") == 0.5
    assert positive(np.int64(3), "x") == 3.0
    assert integer(1)(np.int64(2), "x") == 2
    for value in (0.0, -1, NAN, INF, -INF, True, "1", None, [1.0], 10 ** 400,
                  np.float64("nan"), np.float32("inf"), np.float32(0.0)):
        with pytest.raises(Invalid, match="must be a finite real > 0"):
            positive(value, "x")
    for value in (1.0, 2.5, True, "2", 0, np.float64(3.0)):
        with pytest.raises(Invalid, match="must be an integer >= 1"):
            integer(1)(value, "x")


def test_a_kind_keeps_an_unconverted_value_as_given():
    """Only declared conversions happen: an int stays an int, so a
    scenario's to_params() bytes (a sweep cache key and seed) hold."""
    assert type(real(ge=0.0)(1800, "x")) is int
    assert sequence(real(), convert=list)((1, 2.5), "x") == [1, 2.5]


def test_errors_locate_the_value_and_pickle():
    with pytest.raises(ConfigurationError) as info:
        ScenarioSpec.from_params(scenario_document(job={"total_steps": "x"}))
    assert str(info.value) == (
        "scenario.jobs[0] field 'total_steps' must be an integer >= 1, got 'x'")
    assert str(pickle.loads(pickle.dumps(info.value))) == str(info.value)
    with pytest.raises(ConfigurationError,
                       match=r"^scenario\.jobs\[0\]\.workers\[0\]\[1\] must be a "
                             r"string, got 3$"):
        ScenarioSpec.from_params(scenario_document(job={"workers": [["k80", 3]]}))
    with pytest.raises(ConfigurationError,
                       match=r"^scenario\.jobs\[0\]\.workers\[0\]: unknown region"):
        ScenarioSpec.from_params(scenario_document(job={"workers": [["k80", "mars"]]}))
    with pytest.raises(ConfigurationError,
                       match=r"^unknown scenario\.jobs\[0\] field 'colour'$"):
        ScenarioSpec.from_params(scenario_document(job={"colour": "red"}))
    with pytest.raises(ConfigurationError,
                       match=r"^placement-query\.launch_hours\[1\] must be a finite "
                             r"real, got nan$"):
        PlacementQuery.from_params({"gpu_name": "k80", "duration_hours": 1.0,
                                    "launch_hours": [8, NAN]})


def test_a_wrong_value_is_reported_before_a_missing_field():
    document = scenario_document(reclaim_seconds=-1.0)
    del document["description"]
    with pytest.raises(ConfigurationError, match="'reclaim_seconds'"):
        ScenarioSpec.from_params(document)
    document["reclaim_seconds"] = 1.0
    with pytest.raises(ConfigurationError,
                       match="^scenario is missing field 'description'$"):
        ScenarioSpec.from_params(document)


def test_direct_construction_and_replace_pass_the_same_check():
    scenario = get_scenario("warm_reuse")
    with pytest.raises(ConfigurationError, match="'warm_seconds'"):
        dataclasses.replace(scenario, warm_seconds=NAN)
    with pytest.raises(ConfigurationError, match="'start_delay_seconds'"):
        dataclasses.replace(scenario.jobs[0], start_delay_seconds=NAN)
    with pytest.raises(ConfigurationError, match="'weibull_shape'"):
        RevocationCellParams(0.5, NAN, 6.0)
    with pytest.raises(ConfigurationError, match="'hour_of_day_utc'"):
        PlacementQuery(gpu_name="k80", duration_hours=1.0, hour_of_day_utc="9")


# ---------------------------------------------------------------------------
# Scenario specs.
# ---------------------------------------------------------------------------
SPEC_ESCAPES = {
    "total_steps-a-string": (dict(job={"total_steps": "x"}), "'total_steps'"),
    "reclaim_seconds-a-string": (dict(reclaim_seconds="x"), "'reclaim_seconds'"),
    "epoch_hour_utc-a-string": (dict(epoch_hour_utc="x"), "'epoch_hour_utc'"),
    "start_delay_seconds-nan": (dict(job={"start_delay_seconds": NAN}),
                                "'start_delay_seconds'"),
    "epoch_hour_utc-nan": (dict(epoch_hour_utc=NAN), "'epoch_hour_utc'"),
    "reclaim_seconds-nan": (dict(reclaim_seconds=NAN), "'reclaim_seconds'"),
    "poll_interval_seconds-nan": (dict(poll_interval_seconds=NAN),
                                  "'poll_interval_seconds'"),
    "total_steps-fractional": (dict(job={"total_steps": 1.5}), "'total_steps'"),
    "total_steps-true": (dict(job={"total_steps": True}), "'total_steps'"),
    "warm_capacity-fractional": (dict(warm_capacity=1.5), "'warm_capacity'"),
    "queue_replacements-a-string": (dict(job={"queue_replacements": "no"}),
                                    "'queue_replacements'"),
    "name-a-number": (dict(name=7), "'name'"),
    "pool-count-fractional": (dict(pool_capacity={"k80/us-west1": 1.7}),
                              r"pool_capacity\['k80/us-west1'\]"),
    "steps_per_event-zero": (dict(job={"steps_per_event": 0}), "'steps_per_event'"),
    "checkpoint_interval_steps-zero": (dict(job={"checkpoint_interval_steps": 0}),
                                       r"jobs\[0\] field 'checkpoint_interval_steps'"),
    "pool-key-without-a-slash": (dict(pool_capacity={"k80": 2}),
                                 r"pool_capacity\['k80'\] must be a list of 2 items"),
}


@pytest.mark.parametrize("changes, match", SPEC_ESCAPES.values(), ids=SPEC_ESCAPES)
def test_scenario_documents_reject_each_bad_field_by_name(changes, match):
    with pytest.raises(ConfigurationError, match=match):
        ScenarioSpec.from_params(scenario_document(**changes))


def test_int_valued_reals_keep_their_to_params_bytes():
    """The canonical JSON of a cell's parameters keys its cache entry and
    derived seed: an int-valued real must not be re-encoded as a float."""
    spec = ScenarioSpec.from_params(scenario_document(
        reclaim_seconds=1800, poll_interval_seconds=60, epoch_hour_utc=26,
        job={"start_delay_seconds": 300}))
    assert json.dumps(spec.to_params(), sort_keys=True) == (
        '{"description": "one tiny job", "epoch_hour_utc": 2.0, "jobs": '
        '[{"auto_mitigate_bottleneck": false, "checkpoint_interval_steps": 500, '
        '"model_name": "resnet_15", "name": "a", "num_parameter_servers": 1, '
        '"ps_region_name": null, "queue_replacements": false, '
        '"start_delay_seconds": 300, "steps_per_event": 10, "total_steps": 600, '
        '"workers": [["k80", "us-west1"]]}], "name": "tiny", '
        '"poll_interval_seconds": 60, "pool_capacity": {"k80/us-west1": 2}, '
        '"reclaim_seconds": 1800}')


def test_pool_keys_accept_pairs_and_the_document_spelling():
    job = JobSpec(name="a", model_name="resnet_15", total_steps=100,
                  workers=(["K80", "US-WEST1"],))
    assert job.workers == (("k80", "us-west1"),)
    spec = ScenarioSpec(name="s", description="", jobs=(job,),
                        pool_capacity={"k80/us-west1": np.int64(2)})
    assert spec.pool_capacity == {("k80", "us-west1"): 2}
    assert type(spec.pool_capacity[("k80", "us-west1")]) is int


# ---------------------------------------------------------------------------
# Sweep-axis parameters.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("argument, value, axis", [
    ("pool_sizes", NAN, "pool_size"), ("pool_sizes", INF, "pool_size"),
    ("launch_hours", NAN, "launch_hour"), ("launch_hours", INF, "launch_hour"),
    ("warm_seconds", NAN, "warm_seconds"), ("warm_seconds", "600", "warm_seconds"),
])
def test_bad_axis_values_fail_before_any_fleet_runs(argument, value, axis):
    scenario = get_scenario("single_region_k80")
    with pytest.raises(ConfigurationError, match=f"^{axis} must be"):
        run_scenario(scenario, replicates=1, **{argument: [value]})
    with pytest.raises(ConfigurationError, match=f"^{axis} must be"):
        build_fleet_spec(scenario, replicates=1, **{argument: [value]})


def test_a_pool_size_that_overflows_a_capacity_is_a_configuration_error():
    scenario = get_scenario("single_region_k80")
    for build in (build_fleet_spec, run_scenario):
        with pytest.raises(ConfigurationError, match="^pool_size must .* finite"):
            build(scenario, replicates=1, pool_sizes=[1e308])
    # A huge but finite scaled capacity is still a valid (Python int) count.
    spec = build_fleet_spec(scenario, replicates=1, pool_sizes=[1e300])
    capacity = apply_fleet_axes(scenario, spec.cells()[0].params).pool_capacity
    assert all(type(count) is int and count > 10 ** 300
               for count in capacity.values())


def test_valid_axis_values_keep_their_cell_parameters():
    scenario = get_scenario("single_region_k80")
    spec = build_fleet_spec(scenario, replicates=1, pool_sizes=[2],
                            launch_hours=[25], warm_seconds=[np.float32(600.0)])
    params = spec.cells()[0].params
    assert (params["pool_size"], params["launch_hour"], params["warm_seconds"]) == \
        (2.0, 25.0, 600.0)
    assert apply_fleet_axes(scenario, params).epoch_hour_utc == 1.0


def test_cli_rejects_a_non_finite_warm_seconds_with_one_error_line(capsys):
    assert scenarios_main(["run", "warm_reuse", "--warm-seconds", "nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: warm_seconds must be a finite real")
    assert len(captured.err.splitlines()) == 1


# ---------------------------------------------------------------------------
# Placement queries.
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("queue_weight", [NAN, INF])
def test_query_rejects_a_non_finite_queue_weight(queue_weight):
    with pytest.raises(ConfigurationError, match="'queue_weight'"):
        PlacementQuery.from_params({"gpu_name": "k80", "duration_hours": 1.0,
                                    "hour_of_day_utc": 9.0,
                                    "queue_weight": queue_weight})


# ---------------------------------------------------------------------------
# Refit calibration documents.
# ---------------------------------------------------------------------------
def _recalibration_escapes():
    base = recalibration_document()
    weights = [1.0] * 24
    return {
        "nan-shape-in-every-cell": (dict(calibration=every_cell(base, 1, NAN)),
                                    r"calibration\['k80:us-east1'\]\[1\] must be a finite"),
        "infinite-scale": (dict(calibration=every_cell(base, 2, INF)),
                           r"calibration\['k80:us-east1'\]\[2\] must be a finite"),
        "shape-1e308": (dict(calibration=every_cell(base, 1, 1e308)),
                        r"calibration\['k80:us-east1'\] field 'weibull_shape' must be a "
                        r"finite real in \[0.0497871, 20.0855\], got 1e\+308"),
        "scale-below-the-clamp-range": (
            dict(calibration=every_cell(base, 2, 0.01)), "'weibull_scale_hours'"),
        "probability-above-one": (dict(calibration=every_cell(base, 0, 1.5)),
                                  "'p_revoke_24h'"),
        "three-hourly-weights": (dict(hourly_weights={"k80": [1.0, 1.0, 1.0]}),
                                 r"hourly_weights\['k80'\] must be a list of 24 items"),
        "nan-hourly-weight": (dict(hourly_weights={"k80": weights[:-1] + [NAN]}),
                              r"hourly_weights\['k80'\]\[23\]"),
        "negative-hourly-weight": (dict(hourly_weights={"k80": [-1.0] + weights[1:]}),
                                   r"hourly_weights\['k80'\]\[0\]"),
        "nan-noise-cov": (dict(noise_cov={"k80": NAN}), r"noise_cov\['k80'\]"),
        "nan-anchor": (dict(anchors={"k80": [[1.5, NAN], [3.0, 0.3]]}),
                       r"anchors\['k80'\]\[0\]\[1\]"),
        "unknown-gpu": (dict(hourly_weights={"t4": weights}), r"hourly_weights\['t4'\]"),
        "misspelled-top-level-key": (dict(calibrashun={}), "unknown recalibration field"),
        "calibration-a-list": (dict(calibration=[1, 2]), "'calibration' must be an object"),
        "weights-a-string": (dict(hourly_weights={"k80": "abc"}), "hourly_weights"),
        "two-value-cell": (dict(calibration={"k80:us-east1": [0.5, 1.0]}),
                           r"calibration\['k80:us-east1'\] must be a list of 3 items"),
        "samples-not-nested": (dict(samples={"x": 3}), r"samples\['x'\] must be an object"),
        "cell-key-without-a-region": (dict(calibration={"k80": [0.5, 1.0, 6.0]}),
                                      r"calibration\['k80'\]"),
    }


RECALIBRATION_ESCAPES = _recalibration_escapes()


@pytest.mark.parametrize("changes, match", RECALIBRATION_ESCAPES.values(),
                         ids=RECALIBRATION_ESCAPES)
def test_recalibration_documents_reject_each_bad_field(changes, match):
    with pytest.raises(ConfigurationError, match=match):
        RecalibrationResult.from_params(recalibration_document(**changes))


@pytest.mark.parametrize("document", [[1, 2], "calibration", None])
def test_a_non_object_recalibration_document_is_a_typed_error(document):
    with pytest.raises(ConfigurationError, match="^recalibration must be an object"):
        RecalibrationResult.from_params(document)


def test_cells_hold_exactly_the_refit_clamp_range():
    """Refit shapes and scales are clamped to these ranges in log space, so
    every refit output round-trips; one ulp outside is rejected."""
    for (low, high), index in ((WEIBULL_LOG_SHAPE_RANGE, 1),
                               (WEIBULL_LOG_SCALE_RANGE, 2)):
        for edge, outside in ((math.exp(low), -math.inf), (math.exp(high), math.inf)):
            values = [0.5, 1.0, 6.0]
            values[index] = edge
            RevocationCellParams(*values)  # the edge itself is inside
            values[index] = math.nextafter(edge, outside)
            with pytest.raises(ConfigurationError):
                RevocationCellParams(*values)


def test_direct_construction_takes_cell_tuples_and_round_trips():
    document = recalibration_document()
    restored = RecalibrationResult.from_params(json.loads(json.dumps(document)))
    assert restored.to_params() == document
    assert restored.calibration[("k80", "us-east1")] == RevocationCellParams(0.6, 1.2, 6.0)
    assert restored.anchors == {"k80": [(1.5, 0.2), (3.0, 0.35)]}
    assert restored.hourly_weights["k80"] == tuple([1.0] * 24)
    with pytest.raises(ConfigurationError, match="catalog names"):
        RecalibrationResult(calibration={("k80", "mars"): RevocationCellParams(0.5, 1, 6)})


# ---------------------------------------------------------------------------
# Over the wire: a rejected document changes nothing.
# ---------------------------------------------------------------------------
ANSWER = json.dumps({"op": "answer", "query": {
    "gpu_name": "k80", "duration_hours": 6.0, "hour_of_day_utc": 3.0}}).encode() + b"\n"
STATS = json.dumps({"op": "stats"}).encode() + b"\n"


def strict_json(line):
    def refuse(token):
        raise ValueError(f"non-JSON token {token} in a response")
    return json.loads(line, parse_constant=refuse)


def test_a_rejected_recalibrate_leaves_the_server_as_it_was():
    base = recalibration_document()
    bad_documents = [dict(base, calibration=every_cell(base, 1, NAN)),
                     dict(base, calibration=every_cell(base, 1, 1e308)),
                     dict(base, hourly_weights={"k80": [1.0, 1.0, 1.0]})]

    async def scenario():
        service = PlacementService(advisor=LaunchAdvisor(samples_per_option=50, seed=0))
        server = await start_server(service)
        host, port = serve_address(server)
        reader, writer = await asyncio.open_connection(host, port)

        async def exchange(line):
            writer.write(line)
            await writer.drain()
            return await reader.readline()

        try:
            first = await exchange(ANSWER)
            before = strict_json(await exchange(STATS))["result"]
            outcomes = []
            for document in bad_documents:
                response = strict_json(await exchange(json.dumps(
                    {"op": "recalibrate", "calibration": document}).encode() + b"\n"))
                after = strict_json(await exchange(STATS))["result"]
                outcomes.append((response, after, await exchange(ANSWER)))
            return first, before, outcomes
        finally:
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()

    first, before, outcomes = asyncio.run(scenario())
    assert strict_json(first)["ok"]
    for response, after, answer in outcomes:
        assert not response["ok"] and response["code"] == "bad_request"
        for counter in ("calibration_epoch", "recalibrations", "cached_decisions",
                        "cache_invalidations"):
            assert after[counter] == before[counter], counter
        assert answer == first


def test_a_nan_queue_weight_is_answered_bad_request_in_valid_json():
    async def scenario():
        server = await start_server(PlacementService(
            advisor=LaunchAdvisor(samples_per_option=50, seed=0)))
        host, port = serve_address(server)
        reader, writer = await asyncio.open_connection(host, port)
        try:
            writer.write(json.dumps({"op": "answer", "query": {
                "gpu_name": "k80", "duration_hours": 1.0, "hour_of_day_utc": 9.0,
                "queue_weight": NAN}}).encode() + b"\n")
            await writer.drain()
            return await reader.readline()
        finally:
            writer.close()
            await writer.wait_closed()
            server.close()
            await server.wait_closed()

    response = strict_json(asyncio.run(scenario()))
    assert not response["ok"] and response["code"] == "bad_request"
    assert "queue_weight" in response["error"]
