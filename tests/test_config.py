"""The runtime-knob registry (``repro.config``).

Every ``REPRO_*`` variable is declared once; these tests pin what derives
from the declarations: the README table, the sweep cache fingerprint, and
the validation every console script applies before doing any work.
"""

from __future__ import annotations

import ast
import pathlib
import re

import pytest

from repro import config
from repro.scenarios.cli import main as scenarios_main
from repro.sweeps.cli import main as sweeps_main

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"


@pytest.fixture
def clean_env(monkeypatch):
    for knob in config.KNOBS:
        monkeypatch.delenv(knob.name, raising=False)
    return monkeypatch


def test_readme_knob_table_is_the_registry():
    assert config.table() in (ROOT / "README.md").read_text(encoding="utf-8")


def test_variables_are_read_only_through_the_registry():
    """No other module spells a variable name as a literal or touches
    ``os.environ``, and every ``REPRO_*`` name the sources mention (in
    docstrings too) is a registered knob."""
    names = {knob.name for knob in config.KNOBS}
    for path in PACKAGE.rglob("*.py"):
        source = path.read_text(encoding="utf-8")
        assert set(re.findall(r"REPRO_[A-Z_]*[A-Z]", source)) <= names, path
        if path.name == "config.py":
            continue
        assert "os.environ" not in source, path
        literals = [node.value for node in ast.walk(ast.parse(source))
                    if isinstance(node, ast.Constant)
                    and isinstance(node.value, str)
                    and node.value.startswith("REPRO_")]
        assert literals == [], path


def test_fingerprint_keys_only_fingerprinted_knobs_by_effective_value(
        clean_env):
    default = config.fingerprint()
    assert default == ("REPRO_CORE_FASTFORWARD=1,REPRO_FLEET_TRACE_LEVEL=full,"
                       "REPRO_FLEET_SHARDS=1")
    clean_env.setenv("REPRO_SWEEP_RETRIES", "5")
    clean_env.setenv("REPRO_FLEET_TRACE_LEVEL", " Full ")
    assert config.fingerprint() == default
    clean_env.setenv("REPRO_FLEET_TRACE_LEVEL", "SUMMARY")
    assert "REPRO_FLEET_TRACE_LEVEL=summary" in config.fingerprint()


@pytest.mark.parametrize("name,value", [
    ("REPRO_CORE_FASTFORWARD", "maybe"),
    ("REPRO_FLEET_TRACE_LEVEL", "verbose"),
    ("REPRO_FLEET_SHARDS", "0"),
    ("REPRO_SHARD_RESTARTS", "-1"),
    ("REPRO_SHARD_HEARTBEAT_SECONDS", "nan"),
    ("REPRO_SWEEP_WORKERS", "lots"),
    ("REPRO_SWEEP_RETRIES", "many"),
    ("REPRO_CHAOS", "bogus"),
])
def test_malformed_knob_stops_every_cli_with_one_line(name, value, clean_env,
                                                      capsys):
    clean_env.setenv(name, value)
    for main in (sweeps_main, scenarios_main):
        assert main(["list"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {name}")
        assert captured.err.count("\n") == 1


def test_knob_flags_reject_malformed_values_as_usage_errors(clean_env):
    for flag, value in (("--shards", "0"), ("--trace-level", "verbose"),
                        ("--workers", "-1")):
        with pytest.raises(SystemExit):
            scenarios_main(["run", "single_region_k80", flag, value])
