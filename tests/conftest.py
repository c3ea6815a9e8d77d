"""Shared pytest configuration: the ``slow`` marker, store isolation and
hypothesis profiles.

Slow tests (line-granularity cross-validation on larger kernels) are skipped
by default; run them with ``pytest --run-slow``.

``HYPOTHESIS_PROFILE=nightly`` raises the example count of every property
test that does not pin its own ``max_examples`` (the differential
feasibility tests in ``test_isl_feasibility.py``); the default profile keeps
the tier-1 suite fast.
"""

import os

import pytest
from hypothesis import settings

settings.register_profile("nightly", max_examples=2000, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))


@pytest.fixture(autouse=True)
def _isolated_store(tmp_path, monkeypatch):
    """Point the persistent analysis store at a per-test directory.

    CLI runs default to the user-level store (``~/.cache/repro-haystack``);
    tests must stay hermetic and must never warm or pollute it.
    """
    monkeypatch.setenv("REPRO_STORE_PATH", str(tmp_path / "store"))


def pytest_addoption(parser):
    parser.addoption("--run-slow", action="store_true", default=False, help="run slow tests")


def pytest_configure(config):
    config.addinivalue_line("markers", "slow: long-running cross-validation tests")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--run-slow"):
        return
    skip_slow = pytest.mark.skip(reason="slow test; use --run-slow to enable")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip_slow)
