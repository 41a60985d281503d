"""Tests for the parallel sweep-orchestration subsystem."""

import json
import warnings

import pytest

from repro.errors import ConfigurationError, DataError
from repro.measurement.speed_campaign import run_speed_campaign
from repro.sweeps import (
    SweepCache,
    SweepExecutionError,
    SweepRunner,
    SweepSpec,
    get_sweep,
    list_sweeps,
)
from repro.sweeps.cache import MISS
from repro.sweeps.cli import main


def _probe_cell(cell, streams, context):
    """Cheap deterministic cell: arithmetic plus one named random draw."""
    value = cell.params["x"] * cell.params["factor"]
    noise = float(streams.get("noise").normal())
    extra = 0 if context is None else context
    return {"value": value + extra, "noise": noise, "pair": [cell.params["x"], value]}


#: Cell x-values _flaky_cell should fail on (set by tests; serial runs only,
#: so the in-process global is visible to the executing cell).
_FAIL_ON = set()


def _flaky_cell(cell, streams, context):
    """Fails on demand to exercise partial-run resume with unchanged code."""
    if cell.params["x"] in _FAIL_ON:
        raise ValueError("injected failure")
    return _probe_cell(cell, streams, context)


# ---------------------------------------------------------------------------
# Spec → grid expansion.
# ---------------------------------------------------------------------------
def test_spec_expands_row_major_with_fixed_params():
    spec = SweepSpec("probe", axes={"x": [10, 20], "y": ["a", "b", "c"]},
                     fixed={"factor": 2})
    assert len(spec) == 6
    assert spec.shape == (2, 3)
    assert spec.axis_names == ("x", "y")
    cells = spec.cells()
    assert [cell.index for cell in cells] == list(range(6))
    # Row-major: the last axis varies fastest.
    assert [(cell.params["x"], cell.params["y"]) for cell in cells] == [
        (10, "a"), (10, "b"), (10, "c"), (20, "a"), (20, "b"), (20, "c")]
    assert all(cell.params["factor"] == 2 for cell in cells)
    assert cells[3].coords == (1, 0)


def test_spec_validation_errors():
    with pytest.raises(ConfigurationError):
        SweepSpec("", axes={"x": [1]})
    with pytest.raises(ConfigurationError):
        SweepSpec("probe", axes={})
    with pytest.raises(ConfigurationError):
        SweepSpec("probe", axes={"x": []})
    with pytest.raises(ConfigurationError):
        SweepSpec("probe", axes={"x": [1]}, fixed={"x": 2})
    with pytest.raises(ConfigurationError):
        SweepSpec("probe", axes={"x": [object()]})
    with pytest.raises(ConfigurationError):
        SweepSpec("probe", axes={"x": [1, 1]})


def test_cells_do_not_alias_mutable_values():
    spec = SweepSpec("probe", axes={"launch": [{"gpu": "k80", "count": 3}]},
                     fixed={"extras": [1, 2]})
    first = spec.cells()[0]
    first.params["launch"]["count"] = 999
    first.params["extras"].append(3)
    # Neither the spec nor a later expansion sees the mutation.
    assert spec.axes["launch"][0]["count"] == 3
    fresh = spec.cells()[0]
    assert fresh.params["launch"]["count"] == 3
    assert fresh.params["extras"] == [1, 2]


def test_spec_with_axes_override():
    spec = SweepSpec("probe", axes={"x": [1, 2], "y": [3]})
    shrunk = spec.with_axes(x=[9])
    assert len(shrunk) == 1
    assert shrunk.cells()[0].params == {"x": 9, "y": 3}
    with pytest.raises(ConfigurationError):
        spec.with_axes(z=[1])


def test_axis_overrides_keep_the_json_types_they_replace():
    spec = SweepSpec("probe", axes={"count": [1, 2], "scale": [0.5],
                                    "gpu": ["k80"], "on": [True]})
    widened = spec.with_axes(scale=[2, 0.25], count=[3], gpu=["p100"],
                             on=[False])
    assert widened.axes["scale"] == [2, 0.25]
    for name, value in (("count", "nan"), ("count", 2.5), ("count", True),
                        ("scale", "1"), ("gpu", 80), ("on", 1)):
        with pytest.raises(ConfigurationError,
                           match=f"axis {name!r} takes .* values, got"):
            spec.with_axes(**{name: [value]})


# ---------------------------------------------------------------------------
# Deterministic per-cell seeding.
# ---------------------------------------------------------------------------
def test_cell_seed_depends_on_params_not_position():
    wide = SweepSpec("probe", axes={"x": [10, 20, 30]}, fixed={"factor": 1})
    narrow = SweepSpec("probe", axes={"x": [30]}, fixed={"factor": 1})
    wide_last = wide.cells()[-1]
    narrow_only = narrow.cells()[0]
    assert wide_last.index != narrow_only.index
    assert wide_last.seed(7) == narrow_only.seed(7)
    assert wide_last.seed(7) != wide_last.seed(8)
    assert wide.cells()[0].seed(7) != wide.cells()[1].seed(7)


def test_serial_and_parallel_runs_are_bit_identical():
    spec = SweepSpec("probe", axes={"x": list(range(12))}, fixed={"factor": 3})
    serial = SweepRunner(workers=1, seed=5).run(spec, _probe_cell)
    parallel = SweepRunner(workers=4, seed=5).run(spec, _probe_cell)
    assert serial.payloads() == parallel.payloads()
    assert [r.seed for r in serial] == [r.seed for r in parallel]
    # Tuples are canonicalized to lists on both paths.
    assert serial.payloads()[0]["pair"] == [0, 0]


def test_speed_campaign_parallel_matches_serial(catalog):
    serial = run_speed_campaign(model_names=("resnet_15", "resnet_32"),
                                gpu_names=("k80", "p100"), steps=400, seed=9,
                                catalog=catalog)
    parallel = run_speed_campaign(model_names=("resnet_15", "resnet_32"),
                                  gpu_names=("k80", "p100"), steps=400, seed=9,
                                  catalog=catalog, workers=4)
    assert serial.cells == parallel.cells
    assert serial.speed_series == parallel.speed_series
    assert ([m.step_time for m in serial.measurements()]
            == [m.step_time for m in parallel.measurements()])


# ---------------------------------------------------------------------------
# Cache behaviour.
# ---------------------------------------------------------------------------
def test_cache_hit_miss_and_reuse(tmp_path):
    spec = SweepSpec("probe", axes={"x": [1, 2, 3]}, fixed={"factor": 2})
    cold = SweepRunner(workers=1, cache_dir=tmp_path, seed=3).run(spec, _probe_cell)
    assert cold.cache_hits == 0 and cold.cache_misses == 3

    warm = SweepRunner(workers=1, cache_dir=tmp_path, seed=3).run(spec, _probe_cell)
    assert warm.cache_hits == 3 and warm.cache_misses == 0
    assert warm.payloads() == cold.payloads()

    # A different root seed misses (results would differ).
    reseeded = SweepRunner(workers=1, cache_dir=tmp_path, seed=4).run(
        spec, _probe_cell)
    assert reseeded.cache_hits == 0
    assert reseeded.payloads() != cold.payloads()

    # Extending an axis only computes the new cells.
    extended = SweepRunner(workers=1, cache_dir=tmp_path, seed=3).run(
        spec.with_axes(x=[1, 2, 3, 4]), _probe_cell)
    assert extended.cache_hits == 3 and extended.cache_misses == 1
    assert extended.payloads()[:3] == cold.payloads()


class _TaggedContext:
    """Context stub whose fingerprint and effect on payloads both vary."""

    def __init__(self, tag, extra):
        self.tag = tag
        self.extra = extra

    def fingerprint(self):
        return self.tag


def _context_cell(cell, streams, context):
    return {"value": cell.params["x"] + context.extra}


def test_cache_keys_include_context_fingerprint(tmp_path):
    spec = SweepSpec("probe", axes={"x": [1, 2]})
    first = SweepRunner(workers=1, cache_dir=tmp_path, seed=0).run(
        spec, _context_cell, context=_TaggedContext("a", 0))
    assert first.cache_misses == 2

    # A different context fingerprint must not hit the first run's entries.
    other = SweepRunner(workers=1, cache_dir=tmp_path, seed=0).run(
        spec, _context_cell, context=_TaggedContext("b", 100))
    assert other.cache_hits == 0
    assert other.payloads() != first.payloads()

    # Same fingerprint hits again.
    again = SweepRunner(workers=1, cache_dir=tmp_path, seed=0).run(
        spec, _context_cell, context=_TaggedContext("a", 0))
    assert again.cache_hits == 2
    assert again.payloads() == first.payloads()


def test_catalog_fingerprint_is_stable(catalog):
    from repro.workloads.catalog import default_catalog

    assert catalog.fingerprint() == default_catalog().fingerprint()
    assert len(catalog.fingerprint()) == 16


def test_cache_keys_include_cell_function(tmp_path):
    spec = SweepSpec("probe", axes={"x": [1]}, fixed={"factor": 1})
    SweepRunner(workers=1, cache_dir=tmp_path, seed=0).run(spec, _probe_cell)
    # A different cell function must not hit the first function's entries,
    # even though the spec, seed, and context all match.
    other = SweepRunner(workers=1, cache_dir=tmp_path, seed=0).run(
        spec, _flaky_cell)
    assert other.cache_hits == 0


def test_cache_keys_include_core_path_toggle(tmp_path, monkeypatch):
    """Flipping REPRO_CORE_FASTFORWARD must miss, not reuse, cached cells."""
    monkeypatch.delenv("REPRO_CORE_FASTFORWARD", raising=False)
    spec = SweepSpec("probe", axes={"x": [1]}, fixed={"factor": 1})
    cold = SweepRunner(workers=1, cache_dir=tmp_path, seed=0).run(spec, _probe_cell)
    assert cold.cache_misses == 1

    # The chunked core path is a different compute configuration: results
    # are only contractually identical, so the cache must not mix payloads.
    monkeypatch.setenv("REPRO_CORE_FASTFORWARD", "0")
    flipped = SweepRunner(workers=1, cache_dir=tmp_path, seed=0).run(
        spec, _probe_cell)
    assert flipped.cache_hits == 0 and flipped.cache_misses == 1

    # The *effective* setting is fingerprinted: every spelling of "off"
    # shares one key, and every spelling of "on" (or unset) shares another.
    monkeypatch.setenv("REPRO_CORE_FASTFORWARD", "false")
    assert SweepRunner(workers=1, cache_dir=tmp_path, seed=0).run(
        spec, _probe_cell).cache_hits == 1
    monkeypatch.setenv("REPRO_CORE_FASTFORWARD", "1")
    assert SweepRunner(workers=1, cache_dir=tmp_path, seed=0).run(
        spec, _probe_cell).cache_hits == 1


def test_cache_keys_include_fleet_shards(tmp_path, monkeypatch):
    """Flipping REPRO_FLEET_SHARDS must miss, not reuse, cached cells:
    sharded and single-process payloads are only contractually identical,
    so a warm cache must never mix compute configurations."""
    monkeypatch.delenv("REPRO_FLEET_SHARDS", raising=False)
    spec = SweepSpec("probe", axes={"x": [1]}, fixed={"factor": 1})
    cold = SweepRunner(workers=1, cache_dir=tmp_path, seed=0).run(spec, _probe_cell)
    assert cold.cache_misses == 1

    monkeypatch.setenv("REPRO_FLEET_SHARDS", "4")
    flipped = SweepRunner(workers=1, cache_dir=tmp_path, seed=0).run(
        spec, _probe_cell)
    assert flipped.cache_hits == 0 and flipped.cache_misses == 1

    # The *effective* setting is fingerprinted: an explicit "1" is the
    # default and shares the unset key.
    monkeypatch.setenv("REPRO_FLEET_SHARDS", "1")
    assert SweepRunner(workers=1, cache_dir=tmp_path, seed=0).run(
        spec, _probe_cell).cache_hits == 1
    monkeypatch.setenv("REPRO_FLEET_SHARDS", "4")
    assert SweepRunner(workers=1, cache_dir=tmp_path, seed=0).run(
        spec, _probe_cell).cache_hits == 1


def test_cache_ignores_corrupt_entries(tmp_path):
    spec = SweepSpec("probe", axes={"x": [1]}, fixed={"factor": 2})
    runner = SweepRunner(workers=1, cache_dir=tmp_path, seed=0)
    first = runner.run(spec, _probe_cell)
    # Corrupt the entry the runner actually wrote — e.g. a worker killed
    # mid-write leaving a truncated file: invalid JSON,
    # valid-JSON-wrong-shape, and missing-payload contents are all treated
    # as misses (with a warning naming the file), never crashes, and the
    # recomputed cell overwrites the poisoned entry.
    cache = SweepCache(tmp_path)
    path = next(tmp_path.glob("probe/*.json"))
    for garbage in ("{not json", '{"version": 1, "trunc', "null", "[]",
                    '{"version": 1}'):
        path.write_text(garbage)
        with pytest.warns(RuntimeWarning, match="sweep-cache cell"):
            again = SweepRunner(workers=1, cache_dir=tmp_path, seed=0).run(
                spec, _probe_cell)
        assert again.cache_misses == 1
        assert again.payloads() == first.payloads()
    # An entry from an older cache format version is a *silent* miss (not
    # corruption), and an absent entry also misses cleanly.
    cell = spec.cells()[0]
    stale = cache.path_for(cell, 0, None)
    stale.parent.mkdir(parents=True, exist_ok=True)
    stale.write_text('{"version": -1, "payload": 42, "params": {}}')
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cache.get(cell, 0, None) is MISS
        assert cache.get(cell, 0, "no-such-context") is MISS


def test_resume_after_partial_run(tmp_path):
    spec = SweepSpec("probe", axes={"x": [10, 20, 30, 40]}, fixed={"factor": 1})
    _FAIL_ON.add(30)
    try:
        with pytest.raises(SweepExecutionError) as excinfo:
            SweepRunner(workers=1, cache_dir=tmp_path, seed=1).run(
                spec, _flaky_cell)
    finally:
        _FAIL_ON.discard(30)
    assert "x=30" in str(excinfo.value)
    # Cells completed before the failure were persisted.
    assert SweepCache(tmp_path).entry_count("probe") == 2

    resumed = SweepRunner(workers=1, cache_dir=tmp_path, seed=1).run(
        spec, _flaky_cell)
    assert resumed.cache_hits == 2 and resumed.cache_misses == 2
    fresh = SweepRunner(workers=1, seed=1).run(spec, _flaky_cell)
    assert resumed.payloads() == fresh.payloads()


def _slow_or_fail_cell(cell, streams, context):
    """'fail' cells raise immediately; others take long enough to be in
    flight when the failure lands."""
    import time

    if cell.params["x"] == "fail":
        raise ValueError("boom")
    time.sleep(0.3)
    return {"ok": cell.params["x"]}


def test_parallel_failure_keeps_completed_cells_cached(tmp_path):
    spec = SweepSpec("probe2", axes={"x": ["slow", "fail"]})
    with pytest.raises(SweepExecutionError) as excinfo:
        SweepRunner(workers=2, cache_dir=tmp_path, seed=0).run(
            spec, _slow_or_fail_cell)
    assert "x=fail" in str(excinfo.value)
    # The in-flight 'slow' cell finished and was cached despite the failure.
    assert SweepCache(tmp_path).entry_count("probe2") == 1


# ---------------------------------------------------------------------------
# Results and aggregation helpers.
# ---------------------------------------------------------------------------
def test_result_accessors_and_tables():
    spec = SweepSpec("probe", axes={"x": [1, 2], "y": [5]}, fixed={"factor": 10})
    result = SweepRunner(workers=1, seed=0).run(spec, _probe_cell)
    assert result.payload(x=1, y=5)["value"] == 10
    with pytest.raises(KeyError):
        result.payload(x=99)
    with pytest.raises(KeyError):
        result.payload(y=5)  # ambiguous: matches two cells
    assert len(result.select(y=5)) == 2
    groups = result.group_by("x")
    assert list(groups) == [1, 2]
    with pytest.raises(DataError):
        result.group_by("nope")
    table = result.to_table(["value"], title="probe table")
    assert "probe table" in table and "value" in table
    assert result.summary().startswith("sweep 'probe': 2 cells")


def test_runner_rejects_bad_workers():
    with pytest.raises(ConfigurationError):
        SweepRunner(workers=-1)


# ---------------------------------------------------------------------------
# Registry and CLI.
# ---------------------------------------------------------------------------
def test_registry_lists_builtin_campaign_sweeps():
    names = {definition.name for definition in list_sweeps()}
    assert {"speed", "cluster_scaling", "worker_step_time", "checkpoint",
            "revocation", "replacement_overhead", "recomputation",
            "startup_breakdown", "replacement_startup"} <= names
    with pytest.raises(ConfigurationError):
        get_sweep("no-such-sweep")


def test_cli_list_and_run(tmp_path, capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "replacement_startup" in out and "speed" in out

    json_path = tmp_path / "out.json"
    code = main(["run", "replacement_startup", "--workers", "2",
                 "--cache-dir", str(tmp_path / "cache"), "--seed", "4",
                 "--set", "gpu_name=k80", "--json", str(json_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "2 cells" in out and "2 computed" in out
    data = json.loads(json_path.read_text())
    assert data["sweep"] == "replacement_startup"
    assert len(data["cells"]) == 2

    assert main(["resume", "replacement_startup", "--seed", "4"]) == 2
    code = main(["resume", "replacement_startup", "--seed", "4",
                 "--cache-dir", str(tmp_path / "cache"),
                 "--set", "gpu_name=k80"])
    assert code == 0
    assert "2 cached, 0 computed" in capsys.readouterr().out

    assert main(["run", "no-such-sweep"]) == 1
    assert "unknown sweep" in capsys.readouterr().err

    code = main(["run", "replacement_startup", "--workers", "auto",
                 "--seed", "4", "--set", "gpu_name=k80"])
    assert code == 0
    assert "2 cells" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["run", "replacement_startup", "--workers", "lots"])


def test_cli_set_value_of_the_wrong_type_stops_before_any_cell(capsys,
                                                              monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("the runner started")

    monkeypatch.setattr(SweepRunner, "run", no_run)
    assert main(["run", "cluster_scaling", "--set", "count=nan"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: axis 'count' takes integer values, got 'nan'\n"
