"""The runtime-knob registry (``repro.config``).

Every ``REPRO_*`` variable is declared once; these tests pin what derives
from the declarations: the README table, the sweep cache fingerprint, and
the validation every console script applies before doing any work.
"""

from __future__ import annotations

import ast
import pathlib
import re

import numpy as np
import pytest

from repro import config
from repro.errors import ConfigurationError
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
    ("REPRO_SHARD_HEARTBEAT_SECONDS", "inf"),
    ("REPRO_SWEEP_WORKERS", "lots"),
    ("REPRO_SWEEP_RETRIES", "many"),
    ("REPRO_CHAOS", "bogus"),
    ("REPRO_CHAOS", "serve_hang:seconds=nan"),
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


def test_knob_flags_reject_malformed_values_as_usage_errors(clean_env,
                                                           capsys):
    for flag, value in (("--shards", "0"), ("--trace-level", "verbose"),
                        ("--workers", "-1")):
        with pytest.raises(SystemExit) as exit_info:
            scenarios_main(["run", "single_region_k80", flag, value])
        assert exit_info.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --workers: value must be an integer >= 0 or 'auto', "
        "got -1\n")


@pytest.mark.parametrize("name,text,message", [
    ("REPRO_FLEET_SHARDS", "0", " must be an integer >= 1, got 0"),
    ("REPRO_SHARD_HEARTBEAT_SECONDS", "nan", " must be a finite real > 0, got nan"),
    ("REPRO_CORE_FASTFORWARD", "maybe", " must be true or false, got 'maybe'"),
    ("REPRO_CHAOS", "shard_crash:at=0",
     ": fault parameter 'at' in 'shard_crash:at=0' must be an integer >= 1, "
     "got 0"),
])
def test_knob_errors_name_the_variable_and_the_read_value(name, text, message,
                                                          clean_env):
    clean_env.setenv(name, text)
    knob = next(knob for knob in config.KNOBS if knob.name == name)
    with pytest.raises(ConfigurationError) as error:
        knob.get()
    assert str(error.value) == name + message


@pytest.mark.parametrize("knob,text,value", [
    (config.CORE_FASTFORWARD, "1", True),
    (config.CORE_FASTFORWARD, "true", True),
    (config.CORE_FASTFORWARD, " On ", True),
    (config.CORE_FASTFORWARD, "yes", True),
    (config.CORE_FASTFORWARD, "0", False),
    (config.CORE_FASTFORWARD, "FALSE", False),
    (config.CORE_FASTFORWARD, "off", False),
    (config.CORE_FASTFORWARD, "no", False),
    (config.FLEET_TRACE_LEVEL, " Full ", "full"),
    (config.SWEEP_WORKERS, " AUTO ", "auto"),
    (config.SWEEP_WORKERS, "0", 0),
    (config.FLEET_SHARDS, "+3", 3),
    (config.FLEET_SHARDS, " 5 ", 5),
    (config.SHARD_HEARTBEAT_SECONDS, "1e3", 1000.0),
    (config.SWEEP_CACHE, " dir ", " dir "),
    (config.CHAOS_INCARNATION, "garbage", 0),
])
def test_knob_spellings_read_through_the_schema_kinds(knob, text, value,
                                                      clean_env):
    read = knob.check(text, knob.name)
    assert read == value and type(read) is type(value)
    clean_env.setenv(knob.name, text)
    assert knob.get() == value


@pytest.mark.parametrize("knob,value", [
    (config.FLEET_SHARDS, 2.5),
    (config.FLEET_SHARDS, True),
    (config.FLEET_SHARDS, "2.0"),
    (config.SHARD_RESTARTS, 1.0),
    (config.SHARD_HEARTBEAT_SECONDS, "inf"),
    (config.SHARD_HEARTBEAT_SECONDS, True),
    (config.SWEEP_WORKERS, True),
    (config.SWEEP_WORKERS, "1e3"),
    (config.CORE_FASTFORWARD, "maybe"),
    (config.CORE_FASTFORWARD, 1),
    (config.CORE_FASTFORWARD, np.True_),
    (config.FLEET_TRACE_LEVEL, 1),
])
def test_in_process_knob_arguments_are_checked_not_truncated(knob, value):
    with pytest.raises(ConfigurationError, match="^arg must be "):
        knob.check(value, "arg")
