"""Shared fixtures: runs that several tests read, made once per session."""

import functools
import time

import pytest

from kplane.verify import run_suite


@pytest.fixture(scope="session")
def verify_run():
    """Run a named verify suite at seed 0 once per session.

    verify_run(name) returns (results, wall seconds) of that one run, so the
    per-suite tests, the "all" order test and criterion 8 share it.
    """

    @functools.cache
    def run(name):
        t0 = time.perf_counter()
        results = run_suite(name, seed=0)
        return results, time.perf_counter() - t0

    return run
