"""Shared fixtures for the benchmark harness.

Each ``bench_*`` module regenerates one table or figure from the paper.
The heavyweight measurement campaigns are shared through session-scoped
fixtures so that, e.g., the Table II bench reuses the Fig. 3 dataset
exactly the way the paper does.

Run with::

    pytest benchmarks/ --benchmark-only

Every campaign grid runs through :class:`repro.sweeps.SweepRunner`; two
environment variables (declared in :mod:`repro.config`) control the sweep
engine without changing results (per-cell seeding is order- and
worker-independent):

* ``REPRO_SWEEP_WORKERS`` — worker processes per sweep (default: serial);
* ``REPRO_SWEEP_CACHE`` — directory for the per-cell JSON result cache
  (default: no caching), letting repeated bench runs reuse cells.

Every bench prints the regenerated table/figure data (``-s`` shows it) and
asserts the qualitative shape the paper reports.
"""

from __future__ import annotations

import pytest

from repro import config
from repro.measurement.checkpoint_campaign import run_checkpoint_campaign
from repro.measurement.revocation_campaign import run_revocation_campaign
from repro.measurement.speed_campaign import run_speed_campaign
from repro.workloads.catalog import NAMED_MODELS, default_catalog

#: Steps per speed measurement used by the benches.  The paper uses 4000;
#: 2000 keeps the full harness under a few minutes while leaving hundreds of
#: post-warm-up windows per measurement.
BENCH_MEASUREMENT_STEPS = 2000


@pytest.fixture(scope="session")
def sweep_workers():
    """Sweep workers from ``REPRO_SWEEP_WORKERS``: a count or ``auto``."""
    return config.SWEEP_WORKERS.get()


@pytest.fixture(scope="session")
def sweep_cache_dir():
    """Sweep result cache directory, from ``REPRO_SWEEP_CACHE`` (off default)."""
    return config.SWEEP_CACHE.get()


@pytest.fixture(scope="session")
def catalog():
    """The shared twenty-model catalog."""
    return default_catalog()


@pytest.fixture(scope="session")
def named_speed_campaign(catalog, sweep_workers, sweep_cache_dir):
    """Single-worker speed measurements for the four named models, 3 GPUs."""
    return run_speed_campaign(model_names=NAMED_MODELS,
                              gpu_names=("k80", "p100", "v100"),
                              steps=BENCH_MEASUREMENT_STEPS, seed=1, catalog=catalog,
                              workers=sweep_workers, cache_dir=sweep_cache_dir)


@pytest.fixture(scope="session")
def full_speed_campaign(catalog, sweep_workers, sweep_cache_dir):
    """Single-worker speed measurements for all twenty models on K80 + P100.

    This is the dataset behind Fig. 3 and the training data for the Table II
    regression models.
    """
    return run_speed_campaign(model_names=None, gpu_names=("k80", "p100"),
                              steps=BENCH_MEASUREMENT_STEPS, seed=2, catalog=catalog,
                              workers=sweep_workers, cache_dir=sweep_cache_dir)


@pytest.fixture(scope="session")
def checkpoint_campaign(catalog, sweep_workers, sweep_cache_dir):
    """Checkpoint measurements for all twenty models (Fig. 5 / Table IV)."""
    return run_checkpoint_campaign(seed=3, catalog=catalog,
                                   workers=sweep_workers,
                                   cache_dir=sweep_cache_dir)


@pytest.fixture(scope="session")
def revocation_campaign(sweep_workers, sweep_cache_dir):
    """The twelve-day revocation campaign (Table V / Figs. 8-9)."""
    return run_revocation_campaign(seed=4, workers=sweep_workers,
                                   cache_dir=sweep_cache_dir)
