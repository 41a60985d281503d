"""Golden payload-identity tests for cold-only, statically placed fleets.

``tests/data/fleet_golden_single_region_k80_seed5.json`` was frozen from
the PR 4 fleet runner, **before** the warm pool and pool-aware placement
landed.  The contract: a scenario with the default knobs
(``warm_capacity=0``, ``placement="static"``) must keep producing that
payload byte for byte — whether the wake-set loop or the round-robin
oracle of ``tests/oracles.py`` drives it, on either simulation core path
(``REPRO_CORE_FASTFORWARD``) and at either trace level
(``REPRO_FLEET_TRACE_LEVEL``) — so future refactors of the pool, the
placement path, or the payload shape cannot silently drift the baseline.

Regenerate the fixture **only** for a deliberate, documented payload
change::

    PYTHONPATH=src python - <<'PY'
    import json
    from repro.scenarios import get_scenario, run_fleet
    from repro.simulation.rng import RandomStreams
    payload = run_fleet(get_scenario("single_region_k80"), RandomStreams(seed=5))
    with open("tests/data/fleet_golden_single_region_k80_seed5.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    PY
"""

import dataclasses
import json
import pathlib

import pytest

from oracles import use_reference
from repro.scenarios import get_scenario, run_fleet
from repro.simulation.rng import RandomStreams

FIXTURE = (pathlib.Path(__file__).parent / "data"
           / "fleet_golden_single_region_k80_seed5.json")


def golden_payload():
    return json.loads(FIXTURE.read_text())


def normalized(payload):
    """A JSON round trip so tuples/ints normalize exactly like the fixture."""
    return json.loads(json.dumps(payload))


@pytest.mark.parametrize("scheduler", ("wakeset", "roundrobin"))
@pytest.mark.parametrize("fastforward", ("1", "0"))
@pytest.mark.parametrize("trace_level", ("full", "summary"))
def test_default_fleet_matches_the_frozen_pr4_payload(
        scheduler, fastforward, trace_level, catalog, monkeypatch):
    """warm_capacity=0 + static placement == the frozen PR 4 payload, for
    every scheduler x core path x trace level combination (the core path
    and trace level set through their environment switches, like a real
    deployment would)."""
    use_reference(monkeypatch, scheduler=scheduler)
    monkeypatch.setenv("REPRO_CORE_FASTFORWARD", fastforward)
    monkeypatch.setenv("REPRO_FLEET_TRACE_LEVEL", trace_level)
    payload = run_fleet(get_scenario("single_region_k80"),
                        RandomStreams(seed=5), catalog=catalog)
    assert normalized(payload) == golden_payload()


def test_explicit_defaults_are_the_defaults(catalog):
    """Spelling out warm_capacity=0 / placement='static' changes nothing:
    not the serialized parameters (hence not the derived sweep seeds or
    cache keys) and not the payload."""
    scenario = get_scenario("single_region_k80")
    explicit = dataclasses.replace(scenario, warm_seconds=0.0,
                                   warm_capacity=0, placement="static")
    assert explicit.to_params() == scenario.to_params()
    payload = run_fleet(explicit, RandomStreams(seed=5), catalog=catalog)
    assert normalized(payload) == golden_payload()


ADAPTIVE_FIXTURE = (pathlib.Path(__file__).parent / "data"
                    / "fleet_golden_adaptive_placement_seed5.json")


def adaptive_golden_payload():
    return json.loads(ADAPTIVE_FIXTURE.read_text())


@pytest.mark.parametrize("score_backend", ("table", "sampling"))
@pytest.mark.parametrize("scheduler", ("wakeset", "roundrobin"))
def test_adaptive_fleet_matches_the_frozen_pr5_payload(
        score_backend, scheduler, catalog, monkeypatch):
    """The adaptive-placement scenario payload was frozen from the PR 5
    runner, before the PlacementQuery API and the vectorized score table
    replaced the per-option sampler.  The table and the sampler oracle
    (under both fleet loops) must keep reproducing it byte for byte — the
    bit-identity contract of the score-table replay."""
    use_reference(monkeypatch, scheduler=scheduler,
                  score_backend=score_backend)
    payload = run_fleet(get_scenario("adaptive_placement"),
                        RandomStreams(seed=5), catalog=catalog)
    assert normalized(payload) == adaptive_golden_payload()


def test_adaptive_fixture_is_well_formed():
    """Shape guard for the adaptive fixture, like the PR 4 one below."""
    payload = adaptive_golden_payload()
    assert payload["scenario"] == "adaptive_placement"
    assert payload["placement"] == "adaptive"
    assert set(payload["pool"]["cells"]) == {"k80/europe-west1",
                                             "k80/us-west1"}


def test_fixture_is_well_formed():
    """Guard the fixture itself: a hand edit that breaks its shape should
    fail loudly here, not as a confusing diff in the matrix test."""
    payload = golden_payload()
    assert payload["scenario"] == "single_region_k80"
    assert payload["jobs_total"] == 3
    assert set(payload["pool"]["cells"]) == {"k80/us-west1"}
    # The frozen baseline predates the warm pool / placement payload keys.
    assert "replacements_warm" not in payload
    assert "placement" not in payload
    assert "warm" not in payload["pool"]["cells"]["k80/us-west1"]
